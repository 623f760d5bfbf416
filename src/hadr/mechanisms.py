"""Noise mechanisms: calibration, sanitization, and post-processing.

Counts are released as n + E with i.i.d. per-entry noise E. Supported
mechanisms and their scale calibrations for a count query of sensitivity
``s`` (default 1, the add/remove-one-record convention):

* ``laplace``: b = s / epsilon, pure epsilon-DP; it takes no delta.
* ``gaussian_adp``: sigma = s * sqrt(2 ln(1.25/delta)) / epsilon, the
  classic analytic calibration; valid only for 0 < epsilon < 1 and
  0 < delta < 1.
* ``gaussian_pdp``: sigma = s * (sqrt(z^2 + 2 epsilon) - z) / (2 epsilon)
  with z = Phi^-1(delta / 2) the standard normal quantile, which keeps
  the probability that the privacy-loss random variable exceeds epsilon
  in magnitude below delta; valid for epsilon > 0 and 0 < delta <= 1
  (delta = 1 gives sigma = s / sqrt(2 epsilon)).

``PrivacyParams`` is the one noise model: it checks epsilon, delta and
the sensitivity once at construction (each must be finite, and so must
the positive scale they give) and carries the calibrated ``scale`` with
the noise tails ``cdf`` and ``sf`` that the closed-form risk measures use.

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
from dataclasses import dataclass, field

import numpy as np

from . import _rng
from .tabulation import FrequencyTable, check_keys, read_cells

MECHANISMS = ("laplace", "gaussian_adp", "gaussian_pdp")
PRESENCE_THRESHOLD = 0.5


@dataclass(frozen=True)
class PrivacyParams:
    """Mechanism choice plus its privacy parameters, and the noise they give.

    ``scale`` (Laplace b or Gaussian sigma) is calibrated and checked once,
    at construction. ``cdf(t) = Pr(E < t)`` and ``sf(t) = Pr(E >= t)`` are
    the tails of the noise E at that scale; both accept arrays and return a
    float for a scalar. They are the only noise quantities the closed-form
    risk expressions need.
    """

    mechanism: str
    epsilon: float
    delta: float | None = None
    sensitivity: float = 1.0
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mechanism, eps, delta, s = self.mechanism, self.epsilon, self.delta, self.sensitivity
        if mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {mechanism!r}; expected one of {MECHANISMS}")
        if not all(map(math.isfinite, (eps, s, 0.0 if delta is None else delta))):
            raise ValueError(
                f"epsilon {eps!r}, delta {delta!r} and sensitivity {s!r} must be finite"
            )
        if not s > 0:
            raise ValueError("sensitivity must be positive")
        if mechanism == "laplace":
            if delta is not None:
                raise ValueError("the laplace mechanism takes no delta")
            if not eps > 0:
                raise ValueError("laplace requires epsilon > 0")
            scale = s / eps
        elif delta is None:
            raise ValueError(f"{mechanism} requires delta")
        elif mechanism == "gaussian_adp":
            if not (0 < eps < 1 and 0 < delta < 1):
                raise ValueError("gaussian_adp requires 0 < epsilon < 1 and 0 < delta < 1")
            scale = s * math.sqrt(2.0 * math.log(1.25 / delta)) / eps
        else:
            if not (eps > 0 and 0 < delta <= 1):
                raise ValueError("gaussian_pdp requires epsilon > 0 and 0 < delta <= 1")
            z = 0.0
            if delta < 1:
                from scipy import special

                z = float(special.ndtri(delta / 2.0))
            scale = s * (math.sqrt(z * z + 2.0 * eps) - z) / (2.0 * eps)
        if not 0 < scale < math.inf:
            raise ValueError(f"{self!r} gives noise scale {scale!r}, not finite and positive")
        object.__setattr__(self, "scale", scale)

    def cdf(self, t):
        """Pr(E < t)."""
        t = np.asarray(t, dtype=float)
        if self.mechanism == "laplace":
            half_tail = 0.5 * np.exp(-np.abs(t) / self.scale)
            out = np.where(t >= 0, 1.0 - half_tail, half_tail)
        else:
            from scipy import special

            out = special.ndtr(t / self.scale)
        return float(out) if out.ndim == 0 else out

    def sf(self, t):
        """Pr(E >= t), which is cdf(-t) because the noise is symmetric."""
        return self.cdf(-np.asarray(t, dtype=float))


def mechanism_noise(params: PrivacyParams, seed: int, start: int, shape) -> np.ndarray:
    """Noise array drawn from word positions [start, start + size)."""
    size = int(np.prod(shape)) if not np.isscalar(shape) else int(shape)
    u = _rng.uniforms(seed, start, size)
    b = params.scale
    if params.mechanism == "laplace":
        noise = np.where(u < 0.5, b * np.log(2.0 * u), -b * np.log(2.0 - 2.0 * u))
    else:
        from scipy import special

        noise = b * special.ndtri(u)
    return noise.reshape(shape)


@dataclass(frozen=True)
class SanitizedTable:
    """Noisy release of a frequency table, checked like one at construction.

    Mirrors the source table's schema and cell keys; ``noisy`` holds the
    finite float noisy counts, row-aligned with ``keys``; the mechanism,
    epsilon and delta must form valid ``PrivacyParams``.
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
        PrivacyParams(self.mechanism, self.epsilon, self.delta)
        noisy = np.asarray(self.noisy, dtype=float)
        if noisy.shape != (len(self.keys), len(self.categories)):
            raise ValueError("noisy counts shape does not match keys x categories")
        if not np.isfinite(noisy).all():
            raise ValueError("noisy counts must be finite")
        if len(set(self.categories)) != len(self.categories):
            raise ValueError("duplicate sensitive categories")
        check_keys(self.keys, len(self.qid_names))
        if len(set(self.keys)) != len(self.keys):
            raise ValueError("duplicate cell keys")
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

    'mechanism' must be a string. Noisy counts, epsilon and delta must be
    JSON numbers: integers count, because ``.17g`` writes 3.0 as ``3``, and
    bool and str do not. ``SanitizedTable`` then checks their values.
    """
    what = "sanitized table JSON"
    doc, keys, noisy = read_cells(text, what, "noisy_counts", {int, float})
    try:
        if type(doc["mechanism"]) is not str:
            raise ValueError(f"{what} 'mechanism' must be a string, got {doc['mechanism']!r}")
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
