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
import math
from dataclasses import dataclass

import numpy as np

from .meter import Grid, MeterSpec, _check_cells, joint_reading_distribution
from .paths import MeasurementChain, grouped_amplitudes
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
    branches = chain.branches()
    if grids is None:
        keys, _ = grouped_amplitudes(branches[0], [m.functional for m in meters])
        grids = [Grid.cover(keys[:, r], m.profile.width) for r, m in enumerate(meters)]
    # one density per branch is held at once
    _check_cells([m.profile for m in meters], grids, copies=len(branches))
    first = joint_reading_distribution(branches[0], meters, grids)
    shape = first.density.shape

    # cell mass = density * separable trapezoid weights, one row per branch;
    # the CDF then overwrites the masses in place
    masses = np.empty((len(branches), first.density.size))
    row_weights = grids[0].weights().reshape((-1,) + (1,) * (len(grids) - 1))
    inner_weights = np.ones(())
    for g in grids[1:]:
        inner_weights = np.multiply.outer(inner_weights, g.weights())
    for b, branch in enumerate(branches):
        density = first.density if b == 0 else joint_reading_distribution(branch, meters, grids).density
        cell = masses[b].reshape(shape)
        np.multiply(density, row_weights, out=cell)
        cell *= inner_weights
    masses = masses.reshape(-1)
    total = masses.sum()
    if total <= 0.0:
        raise ValueError("total probability of all branches is zero; nothing to sample")
    cdf = np.cumsum(masses, out=masses)
    exact_success = first.norm / total
    exact_means = tuple(
        first.marginal_mean(r) if first.norm > 0 else math.nan for r in range(len(meters))
    )

    # a drawn index is (branch, i_0, ..., i_R-1) in row-major order; peeling
    # the axes off from the last, in place, leaves the branch and holds no
    # second trial-sized index array beside the CDF
    drawn = inverse_cdf_draws(cdf, total, n_trials, seed, max_workers)
    readings = np.empty((n_trials, len(grids)))
    for r in reversed(range(len(grids))):
        readings[:, r] = grids[r].xs()[drawn % grids[r].n]
        drawn //= grids[r].n
    return TrialSet(seed, readings, drawn, float(exact_success), exact_means)
