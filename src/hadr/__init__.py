"""Disclosure risk from homogeneity attack on noise-sanitized tables.

The pipeline: cross-tabulate microdata into a frequency table
(tabulation), sanitize it with a calibrated noise mechanism (mechanisms),
evaluate closed-form disclosure-risk measures (risk) with hyperparameters
fitted from the table (estimation), verify them against brute-force
simulation (mc, with audit the one module that uses both routes), and
quantify the utility cost (utility). The ``hadr`` command line exposes the
same steps as verbs.
"""

from .audit import upper_bound_findings
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
)
from .mechanisms import (
    MECHANISMS,
    PRESENCE_THRESHOLD,
    PrivacyParams,
    SanitizedTable,
    mechanism_noise,
    postprocess_counts,
    read_sanitized,
    sanitize,
)
from .risk import (
    MEASURES,
    RiskPoint,
    RiskValue,
    evaluate_measure,
    invert_epsilon,
    local_risk,
    risk_curve,
)
from .tabulation import (
    FrequencyTable,
    cross_tabulate,
    read_table,
    tabulate_csv,
)
from .utility import TvdReport, utility_report

__version__ = "0.1.0"

__all__ = [
    "CellSizeModel",
    "DirichletFit",
    "FrequencyTable",
    "MECHANISMS",
    "MEASURES",
    "McEstimate",
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
    "invert_epsilon",
    "local_risk",
    "mc_expected",
    "mc_global",
    "mc_global_variant",
    "mc_local",
    "mc_shrinkage",
    "mc_threshold_dr",
    "mechanism_noise",
    "postprocess_counts",
    "read_sanitized",
    "read_table",
    "risk_curve",
    "sanitize",
    "tabulate_csv",
    "upper_bound_findings",
    "utility_report",
]
