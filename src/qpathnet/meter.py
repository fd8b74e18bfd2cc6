"""Pointer models: initial profiles, reading densities and their limits.

A meter couples a pointer to a path functional.  After the run the pointer
wavefunction is the convolution of the initial profile with the discrete
amplitude distribution of the functional,

    M(xi) = sum_m A(f_m) G(xi - f_m),        P(xi) = |M(xi)|^2,

evaluated on a uniform grid.  Narrow profiles destroy the interference
between paths with different functional values (accurate limit); very wide
profiles leave it intact, and the mean reading tends to the real part of
the amplitude-weighted mean.

Numerics: one kernel serves 1 or R meters: it takes the path amplitudes
grouped by their tuple of values (paths.grouped_amplitudes) and
contracts per-axis profile samples, block by block, into one float64
density, held with its grids in one PointerDistribution for 1 or R axes.
Moments use composite trapezoid quadrature; the rectangular profile reports
the half-jump value at its edges, which makes trapezoid sums over
edge-aligned grids exact for piecewise-constant densities.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import StateVector
from .paths import (
    AmplitudeDistribution,
    MeasurementChain,
    PathFunctional,
    _branch_amplitudes,
    _edges,
    amplitude_distribution,
    grouped_amplitudes,
)

# Default grid: 200 samples per profile width, padded by 6 widths beyond the
# support (Gaussian tail mass beyond the pad is below 1e-9).
GRID_POINTS_PER_WIDTH = 200
GRID_PAD_WIDTHS = 6.0
# Minimum padding the coverage precondition insists on.
MIN_PAD_WIDTHS = 5.0
# Cap on the cells of a reading grid (268 MB of float64; presets need <= 2601^2).
MAX_GRID_CELLS = 1 << 25
# Cells of one kernel output block and of its groups-by-rows profile samples.
KERNEL_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class PointerProfile:
    """Initial real pointer wavefunction G(xi) of a given width.

    All shapes obey the scaling law G(xi | w) = w^(-1/2) * g(xi / w) for a
    fixed unit-width template g with integral g^2 = 1, so the squared profile
    is normalized for every width.
    """

    shape: str
    width: float
    template_xs: np.ndarray | None = None
    template_values: np.ndarray | None = None

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("profile width must be positive")
        if self.shape not in ("gaussian", "rectangular", "tabulated"):
            raise ValueError(f"unknown profile shape {self.shape!r}")
        if self.shape == "tabulated":
            xs = np.asarray(self.template_xs, dtype=float)
            if np.iscomplexobj(self.template_values):
                raise ValueError("pointer profile must be real-valued")
            vals = np.asarray(self.template_values, dtype=float)
            if xs.ndim != 1 or xs.shape != vals.shape or xs.size < 2:
                raise ValueError("tabulated profile needs matching 1-d xs and values")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("tabulated xs must be strictly increasing")
            norm = np.trapezoid(vals**2, xs)
            if abs(norm - 1.0) > 1e-8:
                raise ValueError(f"tabulated profile has integral G^2 = {norm}, expected 1")
            object.__setattr__(self, "template_xs", xs)
            object.__setattr__(self, "template_values", vals)

    @classmethod
    def gaussian(cls, width: float) -> "PointerProfile":
        """G(xi) = (2 pi w^2)^(-1/4) exp(-xi^2 / (4 w^2)); G^2 is a normal
        density with standard deviation equal to the width."""
        return cls("gaussian", float(width))

    @classmethod
    def rectangular(cls, width: float) -> "PointerProfile":
        """Flat window of full width w: G = w^(-1/2) for |xi| <= w/2."""
        return cls("rectangular", float(width))

    @classmethod
    def tabulated(cls, xs, values, width: float = 1.0) -> "PointerProfile":
        """Unit-width template sampled on xs, rescaled to the given width."""
        return cls("tabulated", float(width), np.asarray(xs, dtype=float), np.asarray(values))

    def samples(self, xi: np.ndarray) -> np.ndarray:
        """G(xi) evaluated elementwise."""
        xi = np.asarray(xi, dtype=float)
        w = self.width
        if self.shape == "gaussian":
            return (2.0 * np.pi * w**2) ** (-0.25) * np.exp(-(xi**2) / (4.0 * w**2))
        if self.shape == "rectangular":
            half = w / 2.0
            edge_tol = 1e-9 * w
            out = np.where(np.abs(xi) < half - edge_tol, w**-0.5, 0.0)
            # half of the squared jump at the edges keeps trapezoid sums exact
            out = np.where(np.abs(np.abs(xi) - half) <= edge_tol, (2.0 * w) ** -0.5, out)
            return out
        scaled = xi / w
        return w**-0.5 * np.interp(scaled, self.template_xs, self.template_values, left=0.0, right=0.0)

    def with_width(self, width: float) -> "PointerProfile":
        return PointerProfile(self.shape, float(width), self.template_xs, self.template_values)

    def _key(self) -> tuple:
        templates = (self.template_xs, self.template_values)
        return (self.shape, self.width, *(None if t is None else t.tobytes() for t in templates))

    # by value, templates compared byte for byte (field-wise == would
    # compare the template arrays elementwise and raise)
    def __eq__(self, other):
        if not isinstance(other, PointerProfile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class MeterSpec:
    """One pointer, coupled so its total shift is the functional's value."""

    functional: PathFunctional
    profile: PointerProfile


@dataclass(frozen=True)
class Grid:
    """Uniform sample points start + step * [0..n)."""

    start: float
    step: float
    n: int

    def __post_init__(self):
        if self.step <= 0 or self.n < 2:
            raise ValueError("grid needs positive step and at least two points")

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.n - 1)

    def xs(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.n)

    def weights(self, lo: float = -math.inf, hi: float = math.inf) -> np.ndarray:
        """Composite trapezoid quadrature weights over the nodes in [lo, hi],
        zero at every other node."""
        xs = self.xs()
        i, j = np.searchsorted(xs, lo, side="left"), np.searchsorted(xs, hi, side="right")
        w = np.zeros(self.n)
        if j > i:
            w[i:j] = self.step
            w[i] = w[j - 1] = self.step / 2.0
        return w

    @classmethod
    def cover(
        cls,
        support,
        width: float,
        pad: float = GRID_PAD_WIDTHS,
        points_per_width: float = GRID_POINTS_PER_WIDTH,
        step: float | None = None,
    ) -> "Grid":
        """Grid anchored at the lowest support point, padded by pad widths.

        Anchoring keeps support points (and rectangular window edges) on
        grid nodes whenever their spacing is commensurate with the step.
        """
        support = np.asarray(support, dtype=float)
        lo, hi = float(support.min()), float(support.max())
        if step is None:
            step = width / points_per_width
        n_pad = math.ceil(pad * width / step)
        start = lo - n_pad * step
        n = n_pad + math.ceil((hi - lo) / step - 1e-12) + n_pad + 1
        return cls(start, step, int(n))


@dataclass(frozen=True, eq=False)
class PointerDistribution:
    """Unnormalized reading density of R >= 1 pointers, one grid per axis;
    norm is its total trapezoid integral."""

    grids: tuple[Grid, ...]
    density: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self):
        grids = tuple(self.grids)
        d = np.asarray(self.density, dtype=float)
        if d.shape != tuple(g.n for g in grids):
            raise ValueError("density shape must match the grids")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "density", d)
        object.__setattr__(self, "norm", float(_integrate(d, [g.weights() for g in grids])))

    @property
    def n_axes(self) -> int:
        return len(self.grids)

    def _only_grid(self, use: str) -> Grid:
        """The grid of a one-axis distribution; more axes are refused."""
        if self.n_axes != 1:
            raise ValueError(f"{use} needs one axis, not {self.n_axes}: take marginal(axis) first")
        return self.grids[0]

    def marginal(self, axis: int) -> "PointerDistribution":
        """Integrate out every other axis."""
        weights = [None if r == axis else g.weights() for r, g in enumerate(self.grids)]
        return PointerDistribution((self.grids[axis],), _integrate(self.density, weights))

    def marginal_mean(self, axis: int = 0) -> float:
        return mean_reading(self.marginal(axis))

    def restricted(self, axis: int, lo: float, hi: float) -> "PointerDistribution":
        """Integrate the given axis over [lo, hi], dropping it.

        The result is the joint density of the remaining pointers for runs
        whose axis reading fell inside the window.
        """
        if self.n_axes < 2:
            raise ValueError("cannot restrict the only axis")
        w = self.grids[axis].weights(lo, hi)
        if not w.any():
            raise ValueError("restriction window contains no grid points")
        density = _integrate(self.density, [w if r == axis else None for r in range(self.n_axes)])
        return PointerDistribution(tuple(g for r, g in enumerate(self.grids) if r != axis), density)

    def write_csv(self, path) -> None:
        xs = self._only_grid("write_csv").xs()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["xi", "density"])
            for x, d in zip(xs, self.density):
                writer.writerow([repr(float(x)), repr(float(d))])


# the same class under its R-meter name, which callers such as
# perfbench/tracer.py still patch attributes through
JointDistribution = PointerDistribution


_ONE_METER_WIDTH = "the meter's profile.width"


class GridCapError(ValueError):
    """A reading grid above MAX_GRID_CELLS, refused before anything grid-sized exists."""

    def for_meter(self, index: int) -> "GridCapError":
        """The same error, naming the width field of meter `index` of a config."""
        return GridCapError(str(self).replace(_ONE_METER_WIDTH, f"meters[{index}].profile.width"))


def _check_cells(profiles, grids, copies: int = 1) -> None:
    """Refuse grids other than one per profile, and copies x their cells above
    MAX_GRID_CELLS naming the longest axis's width, before any grid array exists."""
    if len(grids) != len(profiles):
        raise ValueError("need one grid per meter")
    cells = math.prod(g.n for g in grids)
    if copies * cells > MAX_GRID_CELLS:
        r = max(range(len(grids)), key=lambda i: grids[i].n)
        width = f"meters[{r}].profile.width" if len(grids) > 1 else _ONE_METER_WIDTH
        held = "" if copies == 1 else f", held {copies} times,"
        raise GridCapError(
            f"reading grid of {cells} cells{held} exceeds MAX_GRID_CELLS = {MAX_GRID_CELLS}: "
            f"widen {width} ({profiles[r].width}) or coarsen "
            f"run.grid.step ({grids[r].step})"
        )


def _check_grids(keys: np.ndarray, profiles, grids) -> None:
    """Cell cap and per-axis coverage of the values, before any grid array exists."""
    _check_cells(profiles, grids)
    for r, (profile, grid) in enumerate(zip(profiles, grids)):
        lo = keys[:, r].min() - MIN_PAD_WIDTHS * profile.width
        hi = keys[:, r].max() + MIN_PAD_WIDTHS * profile.width
        eps = 1e-9 * grid.step
        if grid.start > lo + eps or grid.stop < hi - eps:
            raise ValueError(f"grid [{grid.start}, {grid.stop}] too narrow: needs to span [{lo}, {hi}]")


def _contract(weights: np.ndarray, first: np.ndarray, rest: list) -> np.ndarray:
    """sum_g weights[g] first[g, i] prod_r rest[r][g, j_r] for one block."""
    if not rest:
        return weights @ first
    lead = first.T * weights
    if len(rest) == 1:
        return lead @ rest[0]
    axes = "bcdefhijklmnopqrstuvwxyz"[: len(rest)]
    return np.einsum(f"ag,{','.join('g' + c for c in axes)}->a{axes}", lead, *rest)


def _pointer_kernel(amps: np.ndarray, keys: np.ndarray, profiles, grids, dtype, out=None) -> np.ndarray:
    """M(xi) = sum_g A_g prod_r G_r(xi_r - keys[g, r]) on the grids, as complex
    M for a complex dtype or as |M|^2 for a float dtype, in blocks of axis 0 of out."""
    _check_grids(keys, profiles, grids)
    keep = amps != 0
    amps, keys = amps[keep], keys[keep]
    rest = [p.samples(g.xs() - keys[:, r, None]) for r, (p, g) in enumerate(zip(profiles, grids)) if r]
    out = np.empty(tuple(g.n for g in grids), dtype=dtype) if out is None else out
    rows = max(1, KERNEL_BLOCK_CELLS // max(math.prod(out.shape[1:]), amps.size))
    xs = grids[0].xs()
    for lo in range(0, xs.size, rows):
        first = profiles[0].samples(xs[lo : lo + rows] - keys[:, :1])
        re, im = (_contract(part, first, rest) for part in (amps.real, amps.imag))
        if out.dtype.kind == "c":
            out.real[lo : lo + rows], out.imag[lo : lo + rows] = re, im
        else:
            out[lo : lo + rows] = re * re + im * im
    return out


def _integrate(density: np.ndarray, weights) -> np.ndarray:
    """Trapezoid-integrate every axis whose weights are given (None keeps it)."""
    for axis in range(len(weights) - 1, -1, -1):
        if weights[axis] is not None:
            density = np.tensordot(density, weights[axis], axes=([axis], [0]))
    return density


def _place_grids(keys: np.ndarray, profiles, grids=None) -> tuple[Grid, ...]:
    """The given grids, with each missing one (None, or all when grids is None)
    placed by Grid.cover over its column of keys."""
    grids = [None] * len(profiles) if grids is None else grids
    return tuple(Grid.cover(keys[:, r], profiles[r].width) if g is None else g for r, g in enumerate(grids))


def _distribution(keys: np.ndarray, amps: np.ndarray, profiles, grids=None) -> PointerDistribution:
    """Reading density sum_b |sum_g amps[g, b] prod_r G_r(xi_r - keys[g, r])|^2
    over every amplitude column b (a 1-d amps is one column), on the grids."""
    grids = _place_grids(keys, profiles, grids)
    columns = amps.reshape(len(keys), -1).T
    density = _pointer_kernel(columns[0], keys, profiles, grids, float)
    for column in columns[1:]:
        density += _pointer_kernel(column, keys, profiles, grids, float)
    return PointerDistribution(grids, density)


def final_pointer_state(
    dist: AmplitudeDistribution, profile: PointerProfile, grid: Grid
) -> np.ndarray:
    """Pointer amplitude samples M(xi) = sum_m A_m G(xi - f_m)."""
    return _pointer_kernel(dist.amplitudes, dist.support[:, None], [profile], [grid], complex)


def pointer_distribution(
    dist: AmplitudeDistribution, profile: PointerProfile, grid: Grid | None = None
) -> PointerDistribution:
    """Reading density |sum_m A_m G(xi - f_m)|^2 of one pointer over A(f)."""
    return _distribution(dist.support[:, None], dist.amplitudes, [profile], [grid])


def reading_distribution(
    chain: MeasurementChain,
    meter: MeterSpec,
    grid: Grid | None = None,
) -> PointerDistribution:
    """Density of pointer readings conditioned on the chain's final selection."""
    dist = amplitude_distribution(chain, meter.functional)
    return pointer_distribution(dist, meter.profile, grid)


def total_reading_distribution(
    chain: MeasurementChain,
    meter: MeterSpec,
    grid: Grid | None = None,
) -> PointerDistribution:
    """Reading density summed over the full set of final states.

    For a normalized profile this density integrates to one regardless of
    the profile width.
    """
    keys, amps = _branch_amplitudes(chain, [meter.functional], chain.branches())
    return _distribution(keys, amps, [meter.profile], [grid])


def mean_reading(p: PointerDistribution) -> float:
    """First moment of the density, integral xi P / integral P."""
    grid = p._only_grid("mean_reading")
    if p.norm <= 0.0:
        raise ValueError("distribution has zero total mass; the mean reading is undefined")
    return float((grid.xs() * p.density) @ grid.weights() / p.norm)


def window_masses(p: PointerDistribution, support) -> dict[float, float]:
    """Integral of the density over the cell around each support point.

    Cell boundaries are the midpoints between neighbouring support points
    (grid ends for the outermost).  For profiles narrower than the smallest
    gap each mass equals the squared modulus of the grouped amplitude;
    with rectangular profiles this is exact to machine precision whenever
    the window edges land on grid nodes, which the default grid arranges
    for supports commensurate with the step.
    """
    grid = p._only_grid("window_masses")
    support = np.sort(np.asarray(support, dtype=float))
    bounds = np.concatenate([[-math.inf], (support[:-1] + support[1:]) / 2.0, [math.inf]])
    return {
        float(f): float(p.density @ grid.weights(bounds[m], bounds[m + 1]))
        for m, f in enumerate(support)
    }


def conditional_state(chain: MeasurementChain, meter: MeterSpec, xi0: float):
    """System state (unnormalized) right after the interaction, given that
    the pointer reads xi0.  Defined for single-step chains only.

    Re-measuring the projector on this state immediately after the step
    succeeds with certainty, and the post-selected reading density equals
    |<post| U |state>|^2.
    """
    if chain.n_steps != 1:
        raise ValueError("conditional_state is defined for chains with exactly one step")
    (entering,), _ = _edges(chain)
    weights = meter.profile.samples(xi0 - meter.functional.values(chain))
    amps = chain.steps[0].observable.eigenvectors @ (weights * entering[:, 0])
    return StateVector(amps)


def joint_reading_distribution(
    chain: MeasurementChain,
    meters: list[MeterSpec],
    grids: list[Grid] | None = None,
) -> PointerDistribution:
    """Joint density of several pointer readings,

        P(xi_1, ..., xi_R) = | sum_paths A[path] prod_r G_r(xi_r - F_r[path]) |^2.

    With a single meter this reduces exactly to reading_distribution.
    """
    if not meters:
        raise ValueError("need at least one meter")
    keys, amps = grouped_amplitudes(chain, [m.functional for m in meters])
    return _distribution(keys, amps, [m.profile for m in meters], grids)


def strong_limit_bins(chain: MeasurementChain, functional: PathFunctional) -> dict[float, float]:
    """AmplitudeDistribution.strong_bins of the chain's grouped amplitudes.

    Equals the window masses of a rectangular-profile reading distribution
    whenever the width is below the smallest support gap.
    """
    return amplitude_distribution(chain, functional).strong_bins()


def strong_limit_probabilities(chain: MeasurementChain, functional: PathFunctional) -> dict[float, float]:
    """AmplitudeDistribution.strong_probabilities of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional).strong_probabilities()


@dataclass(frozen=True)
class WeakLimitReport:
    """Mean readings over a sweep of profile widths, against the wide limit."""

    widths: tuple[float, ...]
    means: tuple[float, ...]
    weak: complex

    @property
    def limit(self) -> float:
        return self.weak.real

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(abs(m - self.limit) for m in self.means)

    @property
    def monotone(self) -> bool:
        errs = self.errors
        return all(b < a for a, b in zip(errs, errs[1:]))


def weak_limit_report(chain: MeasurementChain, functional: PathFunctional, widths) -> WeakLimitReport:
    """Gaussian-meter mean readings for increasing widths.

    The error against the real part of the amplitude-weighted mean is
    expected (and observed) to shrink as the width grows; no rate is
    claimed.
    """
    widths = tuple(float(w) for w in widths)
    if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly increasing")
    dist = amplitude_distribution(chain, functional)
    weak = dist.weak_value()
    means = tuple(mean_reading(pointer_distribution(dist, PointerProfile.gaussian(w))) for w in widths)
    return WeakLimitReport(widths, means, weak)
