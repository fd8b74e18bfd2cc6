"""Counter-based uniform streams with stable per-trial positions, and the
chunked thread-pool runner and guided inverse-CDF lookup that Monte-Carlo
sampling and the classical comparator share.

Trial i always consumes the same positions of one Philox stream keyed by the
seed, so results are bit-identical no matter how the trial range is chunked
across workers.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREADS_ENV = "QPATHNET_THREADS"

# trials per worker chunk; chunking never changes results, only scheduling
CHUNK = 1 << 14

# Cap on the trials of one sampling run: 10^7 trials hold 80 MB per reading
# axis and 80 MB of drawn indices, ten times the 10^6 the benchmark draws.
MAX_TRIALS = 10**7

# Philox produces four 64-bit words per counter tick; advance() moves whole
# ticks, so stream positions are aligned down to a multiple of four draws.
_DRAWS_PER_TICK = 4


def uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) doubles at positions [start, start+count) of the stream."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    bit_gen = np.random.Philox(np.random.SeedSequence(int(seed)))
    aligned = start - start % _DRAWS_PER_TICK
    if aligned:
        bit_gen.advance(aligned // _DRAWS_PER_TICK)
    skip = start - aligned
    buf = np.random.Generator(bit_gen).random(count + skip)
    return buf[skip:]


def worker_count(max_workers: int | None = None) -> int:
    """Requested worker cap, falling back to the QPATHNET_THREADS env var,
    and never above os.cpu_count()."""
    requested = 1
    if max_workers is not None:
        requested = int(max_workers)
    else:
        try:
            requested = int(os.environ.get(THREADS_ENV) or 1)
        except ValueError:
            pass
    return max(1, min(requested, os.cpu_count() or 1))


def check_trials(n_trials: int) -> None:
    """Refuse a trial count outside [1, MAX_TRIALS] before anything trial-sized exists."""
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials = {n_trials}: need at least one trial and at most MAX_TRIALS = {MAX_TRIALS}")


def map_chunks(n_trials: int, draw_chunk, max_workers: int | None = None) -> list:
    """draw_chunk(lo, hi) for each chunk [lo, hi) of CHUNK trials covering
    0..n_trials-1, on up to worker_count(max_workers) threads; the results
    in chunk order."""
    bounds = [(lo, min(lo + CHUNK, n_trials)) for lo in range(0, n_trials, CHUNK)]
    workers = min(worker_count(max_workers), len(bounds))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda b: draw_chunk(*b), bounds))
    return [draw_chunk(lo, hi) for lo, hi in bounds]


def cdf_guide(cdf: np.ndarray, total: float, buckets: int) -> np.ndarray:
    """Guide table of cdf_index (Chen and Asau's cutpoints): bucket j holds the
    first entry of cdf above total * j / buckets, the last entry if none is."""
    return np.searchsorted(cdf[:-1], total * np.arange(buckets) / buckets, side="right")


def cdf_index(cdf: np.ndarray, total: float, u: np.ndarray, guide: np.ndarray) -> np.ndarray:
    """For each uniform, the first entry of cdf above total * u (the last
    entry if none is), from cdf's guide table: each lookup starts one bucket
    below u's, which no rounding of u * total can overshoot, and steps forward
    at most twice; the lookups left open are bisected."""
    target = u * total
    last = cdf.size - 1
    idx = guide.take(np.maximum((u * guide.size).astype(np.intp) - 1, 0))
    for _ in range(2):
        idx += (idx < last) & (cdf.take(idx) <= target)
    pending = np.flatnonzero((idx < last) & (cdf.take(idx) <= target))
    if pending.size:
        # sorted keys keep the bisections in cache
        keys = target[pending]
        order = np.argsort(keys)
        found = np.empty(pending.size, dtype=np.intp)
        found[order] = np.searchsorted(cdf, keys[order], side="right")
        idx[pending] = np.minimum(found, last)
    return idx
