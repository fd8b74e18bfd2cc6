"""Monte-Carlo sampling of measurement records.

Outcomes of a run are a reading per meter plus the result of the final
selection.  Their exact joint distribution is known on the grid, so trials
are drawn by inverse CDF over the discrete (branch, grid cell) masses: the
pointer is read first, and the selection branch is drawn jointly from the
unnormalized branch densities.

Reproducibility: trial i consumes fixed positions of a Philox stream keyed
by the seed (see rng.uniform_block), so records are bit-identical for any
worker count or chunking.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .meter import Grid, JointDistribution, MeterSpec, _check_cells, _integrate, _pointer_kernel
from .paths import MeasurementChain, _branch_amplitudes
from .rng import check_trials, inverse_cdf_draws


@dataclass(frozen=True)
class TrialRecord:
    """One sampled run: grid readings per meter and the selection branch
    (0 = selection succeeded, k >= 1 = k-th completion state)."""

    trial_id: int
    readings: tuple[float, ...]
    branch: int

    @property
    def postselected(self) -> bool:
        return self.branch == 0


@dataclass(frozen=True)
class MeterSummary:
    conditional_mean: float
    standard_error: float
    exact_mean: float

    @property
    def z_score(self) -> float:
        if self.standard_error == 0.0:
            return 0.0
        return (self.conditional_mean - self.exact_mean) / self.standard_error


@dataclass(frozen=True)
class TrialSummary:
    n_trials: int
    n_success: int
    success_rate: float
    exact_success_probability: float
    meters: tuple[MeterSummary, ...]


@dataclass(frozen=True, eq=False)
class TrialSet:
    """Sampled records in trial order plus the exact distribution they came
    from."""

    seed: int
    readings: np.ndarray  # shape (n_trials, n_meters)
    branches: np.ndarray  # shape (n_trials,)
    exact_success_probability: float
    exact_means: tuple[float, ...]

    @property
    def n_trials(self) -> int:
        return self.branches.size

    @property
    def n_meters(self) -> int:
        return self.readings.shape[1]

    def records(self) -> list[TrialRecord]:
        return [
            TrialRecord(i, tuple(self.readings[i]), int(self.branches[i]))
            for i in range(self.n_trials)
        ]

    def __iter__(self):
        return iter(self.records())

    def summary(self) -> TrialSummary:
        success = self.branches == 0
        n_success = int(success.sum())
        meters = []
        for r in range(self.n_meters):
            vals = self.readings[success, r]
            if vals.size:
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
            else:
                mean, se = math.nan, math.nan
            meters.append(MeterSummary(mean, se, self.exact_means[r]))
        return TrialSummary(
            n_trials=self.n_trials,
            n_success=n_success,
            success_rate=n_success / self.n_trials if self.n_trials else math.nan,
            exact_success_probability=self.exact_success_probability,
            meters=tuple(meters),
        )

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["trial_id"] + [f"reading_{r}" for r in range(self.n_meters)] + ["branch"]
            )
            for i in range(self.n_trials):
                writer.writerow(
                    [i] + [repr(float(v)) for v in self.readings[i]] + [int(self.branches[i])]
                )


def sample_trials(
    chain: MeasurementChain,
    meters: list[MeterSpec],
    n_trials: int,
    seed: int,
    grids: list[Grid] | None = None,
    max_workers: int | None = None,
) -> TrialSet:
    """Draw measurement records from the exact (branch, readings) law.

    Readings lie on the grid nodes.  The empirical conditional mean of each
    meter converges to its exact mean reading; the summary reports standard
    errors for the comparison.
    """
    check_trials(n_trials)
    keys, amps = _branch_amplitudes(chain, [m.functional for m in meters], chain.branches())
    profiles = [m.profile for m in meters]
    if grids is None:
        grids = [Grid.cover(keys[:, r], p.width) for r, p in enumerate(profiles)]
    # one density per branch, written by the kernel into its row of the buffer
    _check_cells(profiles, grids, copies=amps.shape[1])
    masses = np.empty((amps.shape[1], *(g.n for g in grids)))
    for b, density in enumerate(masses):
        _pointer_kernel(amps[:, b], keys, profiles, grids, float, out=density)
    first = JointDistribution(tuple(grids), masses[0], float(_integrate(masses[0], [g.weights() for g in grids])))
    exact_means = tuple(first.marginal_mean(r) if first.norm > 0 else math.nan for r in range(len(meters)))

    # cell mass = density * separable trapezoid weights; then the CDF, all in place
    masses *= grids[0].weights().reshape((-1,) + (1,) * (len(grids) - 1))
    masses *= functools.reduce(np.multiply.outer, [g.weights() for g in grids[1:]], np.ones(()))
    masses = masses.reshape(-1)
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("total probability of all branches is zero; nothing to sample")
    cdf = np.cumsum(masses, out=masses)
    exact_success = first.norm / total

    # a drawn index is (branch, i_0, ..., i_R-1) in row-major order; peeling
    # the axes off from the last, in place, leaves the branch and holds no
    # second trial-sized index array beside the CDF
    drawn = inverse_cdf_draws(cdf, total, n_trials, seed, max_workers)
    readings = np.empty((n_trials, len(grids)))
    for r in reversed(range(len(grids))):
        readings[:, r] = grids[r].xs()[drawn % grids[r].n]
        drawn //= grids[r].n
    return TrialSet(seed, readings, drawn, float(exact_success), exact_means)
