"""Counter-based uniform streams with stable per-trial positions.

Trial i always consumes the same positions of one Philox stream keyed by the
seed, so results are bit-identical no matter how the trial range is chunked
across workers.
"""

from __future__ import annotations

import os

import numpy as np

THREADS_ENV = "QPATHNET_THREADS"

# trials per worker chunk; chunking never changes results, only scheduling
CHUNK = 1 << 14

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
