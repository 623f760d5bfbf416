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
too, so neither route imports the other. Among them ``check_cells`` holds
the one rule for a cell's counts, which tables, single cells and size
samples all obey.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from reprlib import repr as _brief  # bounded: echoed input values may be huge

import numpy as np

MAX_SEED = 2**64 - 1
INT64_MAX = 2**63 - 1

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


def check_cells(rows, k: int, name=lambda i: "cell") -> np.ndarray:
    """The cells' category counts as a fresh int64 (cells, k) array, one row per cell.

    The one rule for a cell: every count is an integer in [0, 2**63) and every
    cell's size in [1, 2**63). ``name(i)`` names cell i in a refusal. An ndarray
    of signed integers is typed by its dtype; other rows are checked entry by
    entry, since np.array reads a bool as 0 or 1 and a count beyond int64 as a
    float or an unsigned integer.
    """
    try:
        arr = np.array(rows)
    except ValueError:  # rows of unequal length
        arr = np.empty(0)
    if arr.shape != (len(rows), k):
        raise ValueError("cell counts length does not match categories")
    if arr.dtype.kind != "i" or not isinstance(rows, np.ndarray):
        for i, row in enumerate(rows):
            for c in row:
                if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0:
                    raise ValueError(
                        f"{name(i)} counts must be non-negative integers, got {_brief(c)}"
                    )
                if c > INT64_MAX:
                    raise ValueError(f"{name(i)} has a count that does not fit int64")
    arr = arr.astype(np.int64, copy=False)
    negative = arr < 0
    if negative.any():
        i, c = divmod(int(np.argmax(negative)), k)
        raise ValueError(f"{name(i)} counts must be non-negative integers, got {arr[i, c]}")
    # partial sums of non-negative entries wrap to a negative value first
    sums = np.cumsum(arr, axis=1)
    wrapped = (sums < 0).any(axis=1)
    if wrapped.any():
        raise ValueError(f"{name(int(np.argmax(wrapped)))} has a size that does not fit int64")
    if not sums[:, -1].all():
        raise ValueError(f"{name(int(np.argmin(sums[:, -1])))} is empty")
    return arr


def check_counts(counts) -> np.ndarray:
    """Validate one cell's category counts, by the rule of check_cells, and
    return them as int64."""
    if np.ndim(counts) != 1 or len(counts) < 2:
        raise ValueError("counts must be a vector with at least 2 categories")
    rows = counts[None] if isinstance(counts, np.ndarray) else [counts]
    return check_cells(rows, len(counts))[0]


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
