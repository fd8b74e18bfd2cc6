"""Counter-based uniform streams with stable per-trial positions, and the
seeded inverse-CDF draws that Monte-Carlo sampling and the classical
comparator share.

Trial i always consumes the same positions of one Philox stream keyed by the
seed, so results are bit-identical no matter how the trial range is chunked
across workers.
"""

from __future__ import annotations

import math
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


def inverse_cdf_draws(
    cdf: np.ndarray, total: float, n_trials: int, seed: int, max_workers: int | None = None
) -> np.ndarray:
    """Indices into cdf drawn for trials 0..n_trials-1: trial i takes the
    first entry above total times the stream's uniform at position i.

    Chunks of CHUNK trials run on up to worker_count(max_workers) threads;
    the indices do not depend on the split.
    """

    def run_chunk(chunk_index: int) -> np.ndarray:
        lo = chunk_index * CHUNK
        u = uniform_block(seed, lo, min(CHUNK, n_trials - lo))
        # sorted keys keep the bisections in cache; trial order is restored
        order = np.argsort(u)
        idx = np.empty(u.size, dtype=np.intp)
        idx[order] = np.searchsorted(cdf, u[order] * total, side="right")
        return np.minimum(idx, cdf.size - 1)

    n_chunks = math.ceil(n_trials / CHUNK)
    workers = min(worker_count(max_workers), n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(run_chunk, range(n_chunks))))
    return np.concatenate([run_chunk(c) for c in range(n_chunks)])
