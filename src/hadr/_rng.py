"""Deterministic random streams keyed by a 64-bit seed.

Philox is counter-based: the raw 64-bit word at any position of the keyed
stream is a pure function of (key, position). Two layouts are used by the
package, chosen so that serial and parallel executions produce identical
bits:

* word-positional streams: a consumer that owns word positions
  [start, start + count) can regenerate exactly those words no matter how
  the work is partitioned. Sanitization noise assigns word ``cell*K + cat``
  (plus a caller offset) to each cell/category pair.
* block substreams: Monte-Carlo replication block ``j`` draws from an
  independent generator spaced 2**64 counter blocks apart in a region
  disjoint from every word-positional stream, so tallies cannot depend on
  run order or thread count.

``ordered_map`` is the one worker pool of the package: tasks that each own
their stream positions give the same results on any number of threads.
The input checks shared by the closed forms and the simulations live here
too, so neither route imports the other.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MAX_SEED = 2**64 - 1

# Counter layout: word-positional streams occupy counter blocks
# [0, 2**64); block substream j starts at _BLOCK_REGION + j * 2**64.
_BLOCK_REGION = 1 << 128
_BLOCK_STRIDE = 1 << 64


def check_seed(seed) -> int:
    """Validate and return a seed as a plain int in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError("seed must be an integer")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError("seed must be in [0, 2**64)")
    return seed


def check_int(value, name: str, least: int = 1) -> int:
    """Validate and return an integer of at least ``least`` as a plain int.

    Exact integer types only: a float or a bool (a subclass of int) is
    refused rather than truncated.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        what = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise ValueError(f"{name} must be {what}")
    return int(value)


def check_alpha(alpha) -> np.ndarray:
    """Validate and return a Dirichlet concentration as a float vector of
    at least 2 finite, positive entries."""
    arr = np.asarray(alpha, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("alpha must be a vector with at least 2 entries")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError(f"alpha entries must be finite and positive, got {arr.tolist()}")
    return arr


def check_integers(values, arr: np.ndarray, name: str) -> None:
    """Refuse ``arr = np.asarray(values)`` unless its entries are integers; a list
    is checked entry by entry too, since np.asarray reads a bool in it as 0 or 1."""
    if not np.issubdtype(arr.dtype, np.integer):  # bool is not an integer dtype
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    if not isinstance(values, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in values):
        raise ValueError(f"{name} must be integers, got a bool")


def check_counts(counts) -> np.ndarray:
    """Validate one cell's category counts and return them as int64.

    Integers only: float or bool counts are refused rather than truncated.
    """
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("counts must be a vector with at least 2 categories")
    check_integers(counts, arr, "counts")
    if np.any(arr < 0) or arr.sum() < 1:
        raise ValueError("counts must be non-negative with at least one record")
    return arr.astype(np.int64)


def raw_words(seed: int, start: int, count: int) -> np.ndarray:
    """Return ``count`` raw 64-bit words at positions [start, start+count)."""
    seed = check_seed(seed)
    if start < 0 or count < 0:
        raise ValueError("stream position and count must be non-negative")
    block, lane = divmod(int(start), 4)
    bg = np.random.Philox(key=seed, counter=block)
    if lane:
        bg.random_raw(lane)
    return bg.random_raw(count)


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform doubles on the open interval (0, 1), one per word position."""
    w = raw_words(seed, start, count)
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def block_generator(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replication block ``index``.

    Each block owns 2**64 counter blocks, and the whole block region is
    disjoint from the word-positional streams above. The caller passes a
    seed that ``check_seed`` returned and a non-negative int index.
    """
    counter = _BLOCK_REGION + index * _BLOCK_STRIDE
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform reports one, else the machine's CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, tasks, threads: int) -> list:
    """``[fn(t) for t in tasks]``, run on min(threads, usable CPUs, tasks) threads.

    Results come back in task order; with one worker the tasks run
    serially in the calling thread. ``threads`` must be a positive integer.
    """
    tasks = list(tasks)
    workers = min(check_int(threads, "threads"), usable_cpus(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
