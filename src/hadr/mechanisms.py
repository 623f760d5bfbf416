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
from reprlib import repr as _brief  # bounded: echoed input values may be huge

import numpy as np

from . import _rng
from .tabulation import FrequencyTable, check_schema, read_cells, read_number

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
            raise ValueError(f"unknown mechanism {_brief(mechanism)}; expected one of {MECHANISMS}")
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


@dataclass(frozen=True, eq=False)
class SanitizedTable:
    """Noisy release of a frequency table, checked like one at construction.

    The names, categories and cell keys obey ``check_schema``, as a
    table's do, and are stored as tuples; ``noisy`` holds the finite float
    noisy counts, row-aligned with ``keys``; ``params`` is the
    ``PrivacyParams`` the noise was drawn with; the seed is an integer in
    [0, 2**64), stored as a plain int. Releases compare by content and,
    like tables, are not hashable.
    """

    qid_names: tuple[str, ...]
    sensitive_name: str
    categories: tuple[str, ...]
    keys: tuple[tuple[str, ...], ...]
    noisy: np.ndarray
    params: PrivacyParams
    seed: int

    def __post_init__(self):
        qid_names, categories, keys, _ = check_schema(
            self.qid_names, self.sensitive_name, self.categories, self.keys
        )
        noisy = np.asarray(self.noisy, dtype=float)
        if noisy.shape != (len(keys), len(categories)):
            raise ValueError("noisy counts shape does not match keys x categories")
        if not np.isfinite(noisy).all():
            raise ValueError("noisy counts must be finite")
        checked = dict(qid_names=qid_names, categories=categories, keys=keys, noisy=noisy,
                       seed=_rng.check_seed(self.seed))
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, SanitizedTable):
            return NotImplemented
        head = ("qid_names", "sensitive_name", "categories", "keys", "params", "seed")
        same = all(getattr(self, name) == getattr(other, name) for name in head)
        return same and np.array_equal(self.noisy, other.noisy)


def sanitize(table: FrequencyTable, params: PrivacyParams, seed: int) -> SanitizedTable:
    """Add mechanism noise to every count of the table.

    Same (table, params, seed) always yields bit-identical output; see the
    module docstring for the stream layout.
    """
    noisy = table.counts + mechanism_noise(params, seed, 0, table.counts.shape)
    schema = (table.qid_names, table.sensitive_name, table.categories, table.keys())
    return SanitizedTable(*schema, noisy, params, seed)


def postprocess_counts(noisy: np.ndarray) -> np.ndarray:
    """Round a float array of noisy counts half-up, then clamp at zero, as int64."""
    return np.maximum(np.floor(noisy + 0.5), 0.0).astype(np.int64)


def sanitized_to_json(sanitized: SanitizedTable) -> str:
    """Canonical JSON with noisy counts at 17 significant digits; 'sensitivity'
    is written only when it is not the default 1."""
    params = sanitized.params
    parts = [
        '{"qid_names":%s' % json.dumps(list(sanitized.qid_names), separators=(",", ":")),
        '"sensitive_name":%s' % json.dumps(sanitized.sensitive_name),
        '"categories":%s' % json.dumps(list(sanitized.categories), separators=(",", ":")),
        '"mechanism":%s' % json.dumps(params.mechanism),
        '"epsilon":%.17g' % params.epsilon,
        '"delta":%s' % ("null" if params.delta is None else "%.17g" % params.delta),
        '"seed":%d' % sanitized.seed,
    ]
    if params.sensitivity != 1.0:
        parts.append('"sensitivity":%.17g' % params.sensitivity)
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

    'mechanism' must be a string. Noisy counts, epsilon, delta and the
    optional sensitivity (default 1) are read as ``read_number`` reads
    them: integers count, because ``.17g`` writes 3.0 as ``3``. The
    constructors then check their values.
    """
    what = "sanitized table JSON"
    doc, schema, noisy = read_cells(text, what, "noisy_counts", {int, float})
    try:
        noisy = np.array(noisy, dtype=float)
    except OverflowError:  # an integer beyond a double, which read_number names
        for i, row in enumerate(noisy):
            for value in row:
                read_number(value, f"{what} cell {i}:", "noisy_counts")
    try:
        if type(doc["mechanism"]) is not str:
            raise ValueError(f"{what} 'mechanism' must be a string, got {_brief(doc['mechanism'])}")
        params = PrivacyParams(
            doc["mechanism"],
            read_number(doc["epsilon"], what, "epsilon"),
            read_number(doc["delta"], what, "delta", nullable=True),
            read_number(doc.get("sensitivity", 1.0), what, "sensitivity"),
        )
        return SanitizedTable(*schema, noisy, params, doc["seed"])
    except KeyError as exc:
        raise ValueError(f"{what} is missing field {exc}") from None


def read_sanitized(path) -> SanitizedTable:
    with open(path, encoding="utf-8") as fh:
        return sanitized_from_json(fh.read())
