"""Disclosure risk from homogeneity attack on noise-sanitized tables.

The pipeline: cross-tabulate microdata into a frequency table
(tabulation), sanitize it with a calibrated noise mechanism (mechanisms),
evaluate closed-form disclosure-risk measures (risk) with hyperparameters
fitted from the table (estimation), verify them against brute-force
simulation (mc), and quantify the utility cost (utility). The ``hadr``
command line exposes the same steps as verbs.
"""

from .estimation import (
    CellSizeModel,
    DirichletFit,
    fit_dirichlet_mom,
    fit_negbin,
    fit_poisson,
)
from .mc import (
    McEstimate,
    mc_expected,
    mc_global,
    mc_global_variant,
    mc_local,
    mc_shrinkage,
    mc_threshold_dr,
    upper_bound_findings,
    write_mc_json,
)
from .mechanisms import (
    MECHANISMS,
    PRESENCE_THRESHOLD,
    NoiseModel,
    PrivacyParams,
    SanitizedTable,
    gaussian_sigma_adp,
    gaussian_sigma_pdp,
    laplace_scale,
    mechanism_noise,
    noise_model,
    postprocess_counts,
    presence_support,
    read_sanitized,
    sanitize,
    write_sanitized,
)
from .risk import (
    MEASURES,
    LocalRisk,
    RiskPoint,
    RiskValue,
    evaluate_measure,
    invert_epsilon,
    local_risk,
    risk_curve,
    scenario8_peak_epsilon,
    write_curve_csv,
)
from .tabulation import (
    FrequencyTable,
    cross_tabulate,
    read_table,
    tabulate_csv,
    write_table,
)
from .utility import TvdReport, marginal_probs, tvd, utility_report, write_tvd_csv

__version__ = "0.1.0"

__all__ = [
    "CellSizeModel",
    "DirichletFit",
    "FrequencyTable",
    "LocalRisk",
    "MECHANISMS",
    "MEASURES",
    "McEstimate",
    "NoiseModel",
    "PRESENCE_THRESHOLD",
    "PrivacyParams",
    "RiskPoint",
    "RiskValue",
    "SanitizedTable",
    "TvdReport",
    "cross_tabulate",
    "evaluate_measure",
    "fit_dirichlet_mom",
    "fit_negbin",
    "fit_poisson",
    "gaussian_sigma_adp",
    "gaussian_sigma_pdp",
    "invert_epsilon",
    "laplace_scale",
    "local_risk",
    "marginal_probs",
    "mc_expected",
    "mc_global",
    "mc_global_variant",
    "mc_local",
    "mc_shrinkage",
    "mc_threshold_dr",
    "mechanism_noise",
    "noise_model",
    "postprocess_counts",
    "presence_support",
    "read_sanitized",
    "read_table",
    "risk_curve",
    "sanitize",
    "scenario8_peak_epsilon",
    "tabulate_csv",
    "tvd",
    "upper_bound_findings",
    "utility_report",
    "write_curve_csv",
    "write_mc_json",
    "write_sanitized",
    "write_table",
    "write_tvd_csv",
]
