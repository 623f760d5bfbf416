"""Noise mechanisms: calibration, sanitization, and post-processing.

Counts are released as n + E with i.i.d. per-entry noise E. Supported
mechanisms and their scale calibrations for a count query of sensitivity
``s`` (default 1, the add/remove-one-record convention):

* ``laplace``: b = s / epsilon, pure epsilon-DP.
* ``gaussian_adp``: sigma = s * sqrt(2 ln(1.25/delta)) / epsilon, the
  classic analytic calibration; valid only for 0 < epsilon < 1 and
  0 < delta < 1.
* ``gaussian_pdp``: sigma = s * (sqrt(z^2 + 2 epsilon) - z) / (2 epsilon)
  with z = inv_norm_cdf(delta / 2), which keeps the probability that the
  privacy-loss random variable exceeds epsilon in magnitude below delta;
  valid for epsilon > 0 and 0 < delta <= 1 (delta = 1 gives
  sigma = s / sqrt(2 epsilon)).

A sanitized count is treated as present when it is at least 0.5, so the
presence support of a sanitized cell is {k : noisy count >= 0.5} with the
threshold inclusive. Post-processing rounds half-up and clamps at zero.

Noise is drawn by inverse CDF from a word-positional Philox stream: the
entry for cell i, category k consumes the word at position
offset + i*K + k, so any serial or parallel schedule produces identical
output for the same seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _rng
from .special import inv_norm_cdf, norm_cdf
from .tabulation import FrequencyTable, read_cells

MECHANISMS = ("laplace", "gaussian_adp", "gaussian_pdp")
PRESENCE_THRESHOLD = 0.5


def laplace_scale(epsilon: float, sensitivity: float = 1.0) -> float:
    """Laplace scale b for epsilon-DP."""
    if not epsilon > 0:
        raise ValueError("laplace requires epsilon > 0")
    if not sensitivity > 0:
        raise ValueError("sensitivity must be positive")
    return sensitivity / epsilon


def gaussian_sigma_adp(epsilon: float, delta: float, sensitivity: float = 1.0) -> float:
    """Analytic Gaussian sigma; requires 0 < epsilon < 1 and 0 < delta < 1."""
    if not 0 < epsilon < 1:
        raise ValueError("gaussian_adp requires 0 < epsilon < 1")
    if not 0 < delta < 1:
        raise ValueError("gaussian_adp requires 0 < delta < 1")
    if not sensitivity > 0:
        raise ValueError("sensitivity must be positive")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


def gaussian_sigma_pdp(epsilon: float, delta: float, sensitivity: float = 1.0) -> float:
    """Probabilistic Gaussian sigma; requires epsilon > 0 and 0 < delta <= 1."""
    if not epsilon > 0:
        raise ValueError("gaussian_pdp requires epsilon > 0")
    if not 0 < delta <= 1:
        raise ValueError("gaussian_pdp requires 0 < delta <= 1")
    if not sensitivity > 0:
        raise ValueError("sensitivity must be positive")
    z = inv_norm_cdf(delta / 2.0) if delta < 1 else 0.0
    return sensitivity * (math.sqrt(z * z + 2.0 * epsilon) - z) / (2.0 * epsilon)


@dataclass(frozen=True)
class PrivacyParams:
    """Mechanism choice plus its privacy parameters."""

    mechanism: str
    epsilon: float
    delta: float | None = None
    sensitivity: float = 1.0

    def __post_init__(self):
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}; expected one of {MECHANISMS}")
        # scale computation performs the per-mechanism domain checks
        self.scale  # noqa: B018

    @property
    def scale(self) -> float:
        """Noise scale: Laplace b or Gaussian sigma."""
        if self.mechanism == "laplace":
            return laplace_scale(self.epsilon, self.sensitivity)
        if self.delta is None:
            raise ValueError(f"{self.mechanism} requires delta")
        if self.mechanism == "gaussian_adp":
            return gaussian_sigma_adp(self.epsilon, self.delta, self.sensitivity)
        return gaussian_sigma_pdp(self.epsilon, self.delta, self.sensitivity)

    @property
    def is_gaussian(self) -> bool:
        return self.mechanism != "laplace"


class NoiseModel:
    """Tail probabilities of the noise distribution at a fixed scale.

    cdf(t) = Pr(E < t) and sf(t) = Pr(E >= t); both accept arrays. These
    are the only noise quantities the closed-form risk expressions need.
    """

    def __init__(self, mechanism: str, scale: float):
        if mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {mechanism!r}")
        if not scale >= 0:
            raise ValueError("noise scale must be non-negative")
        self.mechanism = mechanism
        self.scale = float(scale)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        if self.scale == 0.0:
            out = np.where(t > 0, 1.0, 0.0)
        elif self.mechanism == "laplace":
            half_tail = 0.5 * np.exp(-np.abs(t) / self.scale)
            out = np.where(t >= 0, 1.0 - half_tail, half_tail)
        else:
            out = np.asarray(norm_cdf(t / self.scale))
        return float(out) if out.ndim == 0 else out

    def sf(self, t):
        t = np.asarray(t, dtype=float)
        if self.scale == 0.0:
            out = np.where(t > 0, 0.0, 1.0)
        elif self.mechanism == "laplace":
            half_tail = 0.5 * np.exp(-np.abs(t) / self.scale)
            out = np.where(t >= 0, half_tail, 1.0 - half_tail)
        else:
            out = np.asarray(norm_cdf(-t / self.scale))
        return float(out) if out.ndim == 0 else out


def noise_model(params: PrivacyParams) -> NoiseModel:
    return NoiseModel(params.mechanism, params.scale)


def mechanism_noise(params: PrivacyParams, seed: int, start: int, shape) -> np.ndarray:
    """Noise array drawn from word positions [start, start + size)."""
    size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
    u = _rng.uniforms(seed, start, size)
    b = params.scale
    if params.mechanism == "laplace":
        noise = np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 - 2.0 * u))
    else:
        noise = b * inv_norm_cdf(u)
    return noise.reshape(shape)


@dataclass(frozen=True)
class SanitizedTable:
    """Noisy release of a frequency table.

    Mirrors the source table's schema and cell keys; ``noisy`` holds the
    float noisy counts, row-aligned with ``keys``.
    """

    qid_names: tuple[str, ...]
    sensitive_name: str
    categories: tuple[str, ...]
    keys: tuple[tuple[str, ...], ...]
    noisy: np.ndarray
    mechanism: str
    epsilon: float
    delta: float | None
    seed: int

    def __post_init__(self):
        noisy = np.asarray(self.noisy, dtype=float)
        if noisy.shape != (len(self.keys), len(self.categories)):
            raise ValueError("noisy counts shape does not match keys x categories")
        object.__setattr__(self, "noisy", noisy)


def sanitize(table: FrequencyTable, params: PrivacyParams, seed: int) -> SanitizedTable:
    """Add mechanism noise to every count of the table.

    Same (table, params, seed) always yields bit-identical output; see the
    module docstring for the stream layout.
    """
    seed = _rng.check_seed(seed)
    counts = table.counts.astype(float)
    noise = mechanism_noise(params, seed, 0, counts.shape)
    return SanitizedTable(
        qid_names=table.qid_names,
        sensitive_name=table.sensitive_name,
        categories=table.categories,
        keys=table.keys(),
        noisy=counts + noise,
        mechanism=params.mechanism,
        epsilon=params.epsilon,
        delta=params.delta,
        seed=seed,
    )


def presence_support(noisy_counts) -> tuple[int, ...]:
    """Categories whose sanitized count is at least the presence threshold."""
    arr = np.asarray(noisy_counts, dtype=float)
    if arr.ndim != 1:
        raise ValueError("presence_support expects a single cell's counts")
    return tuple(int(k) for k in np.nonzero(arr >= PRESENCE_THRESHOLD)[0])


def postprocess_counts(sanitized) -> np.ndarray:
    """Round half-up, then clamp at zero; returns an int64 matrix."""
    noisy = sanitized.noisy if isinstance(sanitized, SanitizedTable) else np.asarray(sanitized)
    rounded = np.floor(np.asarray(noisy, dtype=float) + 0.5)
    return np.maximum(rounded, 0.0).astype(np.int64)


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


def sanitized_to_json(sanitized: SanitizedTable) -> str:
    """Canonical JSON with noisy counts at 17 significant digits."""
    parts = [
        '{"qid_names":%s' % json.dumps(list(sanitized.qid_names), separators=(",", ":")),
        '"sensitive_name":%s' % json.dumps(sanitized.sensitive_name),
        '"categories":%s' % json.dumps(list(sanitized.categories), separators=(",", ":")),
        '"mechanism":%s' % json.dumps(sanitized.mechanism),
        '"epsilon":%s' % _fmt17(sanitized.epsilon),
        '"delta":%s' % ("null" if sanitized.delta is None else _fmt17(sanitized.delta)),
        '"seed":%d' % sanitized.seed,
    ]
    enc = json.encoder.encode_basestring_ascii
    row = '{"key":[%s],"noisy_counts":[' + ",".join(["%.17g"] * len(sanitized.categories)) + "]}"
    cells = ",".join(
        row % (",".join(map(enc, key)), *vals)
        for key, vals in zip(sanitized.keys, sanitized.noisy.tolist())
    )
    parts.append('"cells":[%s]}' % cells)
    return ",".join(parts) + "\n"


def sanitized_from_json(text: str) -> SanitizedTable:
    """Parse the sanitized JSON, whose cells hold 'noisy_counts', as ``read_cells`` reads it.

    Noisy counts, epsilon and delta must be JSON numbers: integers count,
    because ``.17g`` writes 3.0 as ``3``, and bool and str do not.
    """
    what = "sanitized table JSON"
    doc, keys, noisy = read_cells(text, what, "noisy_counts", {int, float})
    try:
        if doc["mechanism"] not in MECHANISMS:
            raise ValueError(f"{what} 'mechanism' must be one of {MECHANISMS}")
        if type(doc["epsilon"]) not in (int, float):
            raise ValueError(f"{what} 'epsilon' must be a number, got {doc['epsilon']!r}")
        if type(doc["delta"]) not in (int, float, type(None)):
            raise ValueError(f"{what} 'delta' must be a number or null, got {doc['delta']!r}")
        return SanitizedTable(
            qid_names=tuple(doc["qid_names"]),
            sensitive_name=doc["sensitive_name"],
            categories=tuple(doc["categories"]),
            keys=tuple(map(tuple, keys)),
            noisy=np.array(noisy, dtype=float),
            mechanism=doc["mechanism"],
            epsilon=float(doc["epsilon"]),
            delta=None if doc["delta"] is None else float(doc["delta"]),
            seed=_rng.check_seed(doc["seed"]),
        )
    except KeyError as exc:
        raise ValueError(f"{what} is missing field {exc}") from None


def write_sanitized(sanitized: SanitizedTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(sanitized_to_json(sanitized))


def read_sanitized(path) -> SanitizedTable:
    with open(path) as fh:
        return sanitized_from_json(fh.read())
