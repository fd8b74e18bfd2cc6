"""Pointer models: initial profiles, reading densities and their limits.

A meter couples a pointer to a path functional.  After the run the pointer
wavefunction is the convolution of the initial profile with the discrete
amplitude distribution of the functional,

    M(xi) = sum_m A(f_m) G(xi - f_m),        P(xi) = |M(xi)|^2,

evaluated on a uniform grid.  Narrow profiles destroy the interference
between paths with different functional values (accurate limit); very wide
profiles leave it intact, and the mean reading tends to the real part of
the amplitude-weighted mean.

Numerics: one kernel serves 1 or R meters, every density and both draws: it
contracts amplitude columns, grouped by their tuple of values, with per-axis
profile samples, block by block, into M, and squares nothing; each reader
squares its own blocks, a density into |M|^2, held with its grids in one
PointerDistribution for 1 or R axes.  Each block
of the first axis contracts only the groups within the first profile's reach
of it (beyond the reach samples() is exactly 0.0), so only exact zeros are
skipped.
A joint law of R >= 2 meters gives the density on some of its axes, each
other axis r integrated through its grid overlap O_r = (S_r w_r) S_r^T, by
one class-pair form, _pair_density, with no product grid: a joint density's
norm and marginals (its density is built only when read) and the sampler's
first table and exact means.  Norms and means of no grid come from one
closed form, _moments: a pair sum over the groups weighted by the profiles'
overlaps C_r(f - f').  Quadrature is composite trapezoid; the
rectangular profile reports the half-jump value at its edges, which makes
trapezoid sums over edge-aligned grids exact for piecewise-constant
densities.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .core import StateVector
from .paths import (
    AmplitudeDistribution,
    MeasurementChain,
    PathFunctional,
    _branch_amplitudes,
    _edges,
    _format_count,
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
# Cap on the group pairs of the closed-form moments (16384 groups).
MAX_MOMENT_PAIRS = 1 << 28
# Lattice points of a tabulated template's autocorrelation, over the template's span.
# The lattice error is O(step^2) and a nearly cancelling chain amplifies it
# about 100x in its moments, so C and D are kept within about 1e-10.
AUTOCORRELATION_POINTS = 1 << 17


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
        if not (math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"profile width must be positive and finite, not {self.width}")
        # a Gaussian computes w^2 times up to 8 (in its overlap): both must be normal floats
        if self.shape == "gaussian" and not sys.float_info.min <= self.width * self.width <= sys.float_info.max / 8:
            lo, hi = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max / 8)
            raise ValueError(f"gaussian width must lie in [{lo:.4g}, {hi:.4g}], not {self.width}")
        if self.shape not in ("gaussian", "rectangular", "tabulated"):
            raise ValueError(f"unknown profile shape {self.shape!r}")
        if self.shape == "tabulated":
            xs = np.asarray(self.template_xs, dtype=float)
            if np.iscomplexobj(self.template_values):
                raise ValueError("pointer profile must be real-valued")
            vals = np.asarray(self.template_values, dtype=float)
            if xs.ndim != 1 or xs.shape != vals.shape or xs.size < 2:
                raise ValueError("tabulated profile needs matching 1-d xs and values")
            for name, a in (("xs", xs), ("values", vals)):
                if not np.all(np.isfinite(a)):
                    raise ValueError(f"tabulated template_{name} must be finite")
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
            return (2.0 * np.pi * w**2) ** (-0.25) * _gaussian(xi, w, 4.0)
        if self.shape == "rectangular":
            half = w / 2.0
            edge_tol = 1e-9 * w
            a = np.abs(xi, out=np.empty_like(xi))  # an array even for a 0-d xi
            out = np.where(a < half - edge_tol, w**-0.5, 0.0)
            # half of the squared jump at the edges keeps trapezoid sums exact
            a -= half
            np.copyto(out, (2.0 * w) ** -0.5, where=np.abs(a, out=a) <= edge_tol)
            return out
        scaled = xi / w
        return w**-0.5 * np.interp(scaled, self.template_xs, self.template_values, left=0.0, right=0.0)

    @property
    def _reach(self) -> float:
        """Half-width beyond which samples() is exactly 0.0."""
        w = self.width
        if self.shape == "gaussian":
            return w * math.sqrt(4.0 * 746.0)  # exp(-746) underflows to 0.0
        if self.shape == "rectangular":
            return w / 2.0 + 1e-9 * w  # the edge tolerance of samples()
        # widened past the template's end, onto which xi / w can round from a few ulps beyond
        return w * float(np.abs(self.template_xs[[0, -1]]).max()) * (1.0 + 1e-12)

    def autocorrelation(self, delta, moment: int = 0) -> np.ndarray:
        """integral u^moment G(u - delta/2) G(u + delta/2) du, elementwise: the
        overlap C(delta) at moment 0, and at 1 its first moment about the
        midpoint, 0 for the even Gaussian and rectangular shapes.  A tabulated
        C is the interpolant's, so C(0) is its integral G^2, not forced to 1."""
        delta = np.asarray(delta, dtype=float)
        if moment and self.shape != "tabulated":
            return np.zeros_like(delta)
        if self.shape == "gaussian":
            return _gaussian(delta, self.width, 8.0)
        if self.shape == "rectangular":
            return np.maximum(0.0, 1.0 - np.abs(delta) / self.width)
        lags, tables = _unit_autocorrelation(self.with_width(1.0))
        return self.width**moment * np.interp(np.abs(delta) / self.width, lags, tables[moment], right=0.0)

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


def _gaussian(x: np.ndarray, w: float, c: float) -> np.ndarray:
    """exp(-x^2 / (c w^2)), c = 4 or 8.  Where x^2 overflows, the exponent is
    taken as (x / 2w)^2 4/c instead; a quotient that still overflows is inf,
    and exp(-inf) = 0 is exact."""
    try:
        with np.errstate(over="raise"):
            return np.exp(-(x**2) / (c * w**2))
    except FloatingPointError:
        with np.errstate(over="ignore"):
            q = x**2 / (c * w**2)
            return np.exp(-np.where(np.isinf(q), (x / (2.0 * w)) ** 2 * (4.0 / c), q))


@functools.lru_cache(maxsize=8)
def _unit_autocorrelation(template: PointerProfile) -> tuple[np.ndarray, tuple]:
    """Lags d and, at each, c = integral g(u) g(u + d) du and the midpoint
    moment e + d/2 c, e = integral u g(u) g(u + d) du, of a unit-width
    template's interpolant g, by FFT on a lattice spanning it; taking off half
    the end products makes each lattice sum a trapezoid rule."""
    n, xs = AUTOCORRELATION_POINTS, template.template_xs
    lattice, step = np.linspace(xs[0], xs[-1], n, retstep=True)
    g = np.interp(lattice, xs, template.template_values)
    spectrum = np.fft.rfft(g, 2 * n)
    c, e = (np.fft.irfft(np.conj(np.fft.rfft(f, 2 * n)) * spectrum, 2 * n)[:n] for f in (g, lattice * g))
    c -= (g[0] * g + g[::-1] * g[-1]) / 2.0
    e -= (lattice[0] * g[0] * g + (lattice * g)[::-1] * g[-1]) / 2.0
    c, e, lags = c * step, e * step, step * np.arange(n)
    return lags, (c, e + lags / 2.0 * c)


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
        if not (math.isfinite(self.start) and math.isfinite(self.step) and self.step > 0 and self.n >= 2):
            raise ValueError(f"grid needs a finite start ({self.start}), a positive finite step ({self.step}), n >= 2")

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
        pad: float | None = None,
        step: float | None = None,
    ) -> "Grid":
        """Grid anchored at the lowest support point, padded by pad widths
        (default GRID_PAD_WIDTHS), with nodes step apart (default
        width / GRID_POINTS_PER_WIDTH); refused, as _check_grids refuses it,
        with a pad below MIN_PAD_WIDTHS or above MAX_GRID_CELLS nodes.

        Anchoring keeps support points (and rectangular window edges) on
        grid nodes whenever their spacing is commensurate with the step.
        """
        support = np.asarray(support, dtype=float)
        lo, hi = float(support.min()), float(support.max())
        pad = GRID_PAD_WIDTHS if pad is None else pad
        if not pad >= MIN_PAD_WIDTHS:
            raise ValueError(f"grid pad ({pad}) must be at least MIN_PAD_WIDTHS = {MIN_PAD_WIDTHS} profile widths")
        step = width / GRID_POINTS_PER_WIDTH if step is None else step
        # counted in floats first, so an infinite count is refused, not rounded
        n_pad, span = pad * width / step, (hi - lo) / step - 1e-12
        n = 2.0 * n_pad + span
        if math.isfinite(n):
            n = 2 * math.ceil(n_pad) + math.ceil(span) + 1
        if not n <= MAX_GRID_CELLS:
            raise GridCapError(n, width, step, pad if 2.0 * n_pad > span else None)
        return cls(lo - math.ceil(n_pad) * step, step, n)


@dataclass(frozen=True, eq=False)
class PointerDistribution:
    """Unnormalized reading density of R >= 1 pointers, one grid per axis;
    norm is its total trapezoid integral.  One of R >= 2 meters keeps its
    law, gives norm and marginals from it, and builds its density when read."""

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

    def __getattr__(self, name):
        # only a law's density and norm are missing, until first read
        law = vars(self).get("_law")
        if law is None or name not in ("density", "norm"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = vars(self)[name] = _density(*law, self.grids) if name == "density" else self.marginal(0).norm
        return value

    @property
    def n_axes(self) -> int:
        return len(self.grids)

    def _only_grid(self, use: str) -> Grid:
        """The grid of a one-axis distribution; more axes are refused."""
        if self.n_axes != 1:
            raise ValueError(f"{use} needs one axis, not {self.n_axes}: take marginal(axis) first")
        return self.grids[0]

    def _axis(self, axis: int) -> int:
        """axis in [0, n_axes), counting a negative one from the end."""
        if not -self.n_axes <= axis < self.n_axes:
            raise ValueError(f"axis {axis} is out of range for n_axes = {self.n_axes}")
        return axis % self.n_axes

    def marginal(self, axis: int) -> "PointerDistribution":
        """Integrate out every other axis: through the law's class-pair form
        where it pays, else off the density."""
        axis = self._axis(axis)
        law = vars(self).get("_law")
        density = None if law is None else _law_marginal(*law, self.grids, axis)
        if density is None:
            weights = [None if r == axis else g.weights() for r, g in enumerate(self.grids)]
            density = _integrate(self.density, weights)
        return PointerDistribution((self.grids[axis],), density)

    def marginal_mean(self, axis: int = 0) -> float:
        return mean_reading(self.marginal(axis))

    def restricted(self, axis: int, lo: float, hi: float) -> "PointerDistribution":
        """Integrate the given axis over [lo, hi], dropping it.

        The result is the joint density of the remaining pointers for runs
        whose axis reading fell inside the window.
        """
        if self.n_axes < 2:
            raise ValueError("cannot restrict the only axis")
        axis = self._axis(axis)
        w = self.grids[axis].weights(lo, hi)
        if not w.any():
            raise ValueError("restriction window contains no grid points")
        density = _integrate(self.density, [w if r == axis else None for r in range(self.n_axes)])
        return PointerDistribution(tuple(g for r, g in enumerate(self.grids) if r != axis), density)

    def write_csv(self, path) -> None:
        xs = self._only_grid("write_csv").xs()

        def columns(lo, hi):
            return [map(repr, a[lo:hi].tolist()) for a in (xs, self.density)]

        _write_csv(path, ["xi", "density"], xs.size, columns)


# the same class under its R-meter name, which callers such as
# perfbench/tracer.py still patch attributes through
JointDistribution = PointerDistribution


def _write_csv(path, header: list[str], n_rows: int, columns) -> None:
    """The bytes csv.writer writes for fields that need no quoting (a float's
    repr, an integer): the header, then rows 0..n_rows-1, each block of rows
    lo..hi-1 joined from the string columns that columns(lo, hi) returns.
    A block of 1024 rows holds about 100 kB of text, whatever n_rows."""
    block = 1024
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n_rows, block):
            fh.write("\r\n".join(map(",".join, zip(*columns(lo, min(lo + block, n_rows))))))
            fh.write("\r\n")


class GridCapError(ValueError):
    """A reading grid above MAX_GRID_CELLS, refused before anything grid-sized
    exists; the message names the width of meter `axis` to widen, the step to
    coarsen and, where the pad holds most of the nodes, the pad to narrow."""

    def __init__(self, cells: float, width: float, step: float, pad: float | None = None, axis: int = 0):
        remedy = f"widen meters[{axis}].profile.width ({width}) or coarsen run.grid.step ({step})"
        if pad is not None:
            remedy += f" or narrow run.grid.pad ({pad})"
        super().__init__(f"reading grids holding {_format_count(cells)} cells exceed MAX_GRID_CELLS = {MAX_GRID_CELLS}: {remedy}")
        self.cells, self.width, self.step, self.pad, self.axis = cells, width, step, pad, axis


def _check_grids(keys: np.ndarray, profiles, grids, cells: int | None = None, samples: int = 0) -> None:
    """Refuse grids other than one per profile, more cells held on them (by
    default the product grid's) plus samples of the later axes than
    MAX_GRID_CELLS, and grids not covering their axis's values.  A refusal
    names the width of the axis with most nodes or, where the samples hold
    more than the cells, of the later axis with most nodes."""
    if len(grids) != len(profiles):
        raise ValueError("need one grid per meter")
    cells = math.prod(g.n for g in grids) if cells is None else cells
    if cells + samples > MAX_GRID_CELLS:
        r = max(range(1 if samples > cells else 0, len(grids)), key=lambda i: grids[i].n)
        raise GridCapError(cells + samples, profiles[r].width, grids[r].step, axis=r)
    for r, (profile, grid) in enumerate(zip(profiles, grids)):
        lo = keys[:, r].min() - MIN_PAD_WIDTHS * profile.width
        hi = keys[:, r].max() + MIN_PAD_WIDTHS * profile.width
        eps = 1e-9 * grid.step
        if grid.start > lo + eps or grid.stop < hi - eps:
            raise ValueError(f"grid [{grid.start}, {grid.stop}] too narrow: needs to span [{lo}, {hi}]")


def _contract(weights: np.ndarray, first: np.ndarray, rest: list) -> np.ndarray:
    """sum_g weights[c, g] first[g, i] prod_r rest[r][g, j_r] for one block, by row c."""
    if not rest:
        return weights @ first
    lead = first.T * weights[:, None, :]
    if len(rest) == 1:
        return lead @ rest[0]
    axes = "bcdefhijklmnopqrstuvwxyz"[: len(rest)]
    return np.einsum(f"zag,{','.join('g' + c for c in axes)}->za{axes}", lead, *rest)


def _pointer_blocks(amps: np.ndarray, keys: np.ndarray, profiles, grids):
    """M_c(xi) = sum_g amps[g, c] prod_r G_r(xi_r - keys[g, r]) on the grids, as
    (block, re, im) for each block of axis 0: re and im hold one row per column
    c of M's real and imaginary parts on the nodes block x later axes.  The
    grids and the later axes' samples of every group, all held at once, are
    checked on the call; the blocks are contracted as they are taken.

    Each block contracts only its band: the groups whose axis-0 key lies
    within the axis-0 profile's reach of the block.  The others would add
    exact zeros, so nothing is approximated."""
    # the groups of nonzero amplitude, by axis-0 key, so each band is a slice
    keep = np.flatnonzero(np.any(amps != 0, axis=1))
    _check_grids(keys, profiles, grids, samples=keep.size * sum(g.n for g in grids[1:]))
    keep = keep[np.argsort(keys[keep, 0], kind="stable")]
    amps, keys = amps[keep], keys[keep]
    rest = [p.samples(g.xs() - keys[:, r, None]) for r, (p, g) in enumerate(zip(profiles, grids)) if r]
    shape = tuple(g.n for g in grids)
    rows = max(1, KERNEL_BLOCK_CELLS // max(amps.shape[1] * math.prod(shape[1:]), len(amps)))
    xs = grids[0].xs()
    starts = np.arange(0, xs.size, rows)
    # the reach is widened by the rounding of each band's ends and of xi - key,
    # so a group left out of a band has samples of exactly 0.0 on its block
    reach = profiles[0]._reach
    reach += 2.0 * np.finfo(float).eps * (reach + max(abs(xs[0]), abs(xs[-1])))
    firsts = np.searchsorted(keys[:, 0], xs[starts] - reach, side="left")
    lasts = np.searchsorted(keys[:, 0], xs[np.minimum(starts + rows, xs.size) - 1] + reach, side="right")

    def block(lo: int, band: slice):
        first = profiles[0].samples(xs[lo : lo + rows] - keys[band, :1])
        banded = [s[band] for s in rest]
        re, im = (_contract(part[band].T, first, banded) for part in (amps.real, amps.imag))
        return slice(lo, lo + rows), re, im

    return map(block, starts.tolist(), map(slice, firsts.tolist(), lasts.tolist()))


def _integrate(density: np.ndarray, weights) -> np.ndarray:
    """Trapezoid-integrate every axis whose weights are given (None keeps it)."""
    for axis in range(len(weights) - 1, -1, -1):
        if weights[axis] is not None:
            density = np.tensordot(density, weights[axis], axes=([axis], [0]))
    return density


def _value_index(keys: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The distinct values of each column of keys, and each key's indices into them."""
    values, index = zip(*(np.unique(column, return_inverse=True) for column in keys.T))
    return values, np.stack([i.reshape(-1) for i in index], axis=1)


def _classes(index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classes of the rows that share their value indices on every column of
    index, in lexicographic order: each class's indices, and the class of each
    row.  Each column ranks the pairs (rank so far, index) in turn, which
    costs a fraction of np.unique over rows; with no columns all rows are one class."""
    rank, rows = np.zeros(len(index), dtype=np.intp), np.zeros(min(len(index), 1), dtype=np.intp)
    for column in index.T:
        _, rows, rank = np.unique(rank * len(index) + column, return_index=True, return_inverse=True)
    return index[rows], rank


def _gram(classes: np.ndarray, tables: list) -> np.ndarray:
    """prod_s tables[s][v_s(k), v_s(k')] over class pairs (k, k') and the
    columns s of classes whose table is given (None skips the column)."""
    q = np.ones((len(classes), len(classes)))
    for v, table in zip(classes.T, tables):
        if table is not None:
            q *= table[np.ix_(v, v)]
    return q


def _pair_density(index: np.ndarray, values, amps: np.ndarray, profiles, grids, a: int, tables) -> np.ndarray:
    """For each column b of amps, |sum_g amps[g, b] prod_r G_r(xi_r -
    values[r][index[g, r]])|^2 on the nodes of axes < a, shape (B, n_0, ...,
    n_a-1), each later axis r integrated through tables[r][v, v'] (for the
    density's own integral its grid overlap (S_r w_r) S_r^T, S_r[v] = G_r(xi -
    values[r][v])): sum_{k,k'} Re(u_kb conj u_k'b) prod_{r>=a} tables[r][v_kr,
    v_k'r] over classes k of rows sharing their values on axes >= a, where
    u_kb, column k B + b of the kernel over the cells of values on axes < a,
    sums the class's amps[g, b] prod_{r<a} G_r."""
    first, of_row = _classes(index[:, a:])
    cells, of_cell = _classes(index[:, :a])
    coef = np.zeros((len(first), amps.shape[1], len(cells)), dtype=complex)
    np.add.at(coef, (of_row, slice(None), of_cell), amps)
    cell_keys = np.stack([v[c] for v, c in zip(values, cells.T)], axis=1)
    q = _gram(first, tables[a:])
    out = np.empty((amps.shape[1], *(g.n for g in grids[:a])))
    for block, re, im in _pointer_blocks(coef.reshape(-1, len(cells)).T, cell_keys, profiles[:a], grids[:a]):
        rows = out[:, block]
        re, im = re.reshape(len(q), -1), im.reshape(len(q), -1)
        form, im_form = np.dot(q, re), np.dot(q, im)
        form *= re
        im_form *= im
        form += im_form
        np.sum(form.reshape(len(q), *rows.shape), axis=0, out=rows)
    return out


def _law_marginal(keys: np.ndarray, amps: np.ndarray, profiles, grids, axis: int) -> np.ndarray | None:
    """The density of meter axis under a joint law, every other axis
    integrated by _pair_density; None where its K row classes outnumber the
    other axes' product grid nodes, or its K^2 form and its samples and
    overlaps of the other axes' values would hold more than MAX_GRID_CELLS."""
    order = [axis] + [r for r in range(len(grids)) if r != axis]
    values, index = _value_index(keys[:, order])
    grids, profiles = [grids[r] for r in order], [profiles[r] for r in order]
    n_classes = len(_classes(index[:, 1:])[0])
    held = n_classes**2 + sum(v.size * (g.n + v.size) for v, g in zip(values[1:], grids[1:]))
    if n_classes > math.prod(g.n for g in grids[1:]) or held > MAX_GRID_CELLS:
        return None
    samples = [p.samples(g.xs() - v[:, None]) for p, g, v in zip(profiles[1:], grids[1:], values[1:])]
    tables = [None] + [(s * g.weights()) @ s.T for s, g in zip(samples, grids[1:])]
    return _pair_density(index, values, amps.reshape(len(keys), 1), profiles, grids, 1, tables)[0]


def _moments(keys: np.ndarray, amps: np.ndarray, profiles) -> tuple[np.ndarray, tuple]:
    """Each amplitude column's norm sum_{g,h} Re(A_g conj A_h) C[g, h], with
    C[g, h] = prod_r C_r(keys[g, r] - keys[h, r]), and column 0's mean on each
    axis r: the pairs' midpoints, which sum to keys[g, r] as C is symmetric,
    plus the midpoint moment D_r in place of C_r.  In row blocks, after the
    G^2 pairs are checked against MAX_MOMENT_PAIRS."""
    amps, n = amps.reshape(len(keys), -1), len(keys)
    if n * n > MAX_MOMENT_PAIRS:
        message = f"{n} groups of meter values give {n * n} pairs, above MAX_MOMENT_PAIRS = {MAX_MOMENT_PAIRS}"
        raise ValueError(f"{message}: choose functionals with fewer distinct values")
    norms, moments = np.zeros(amps.shape[1]), np.zeros(keys.shape[1])
    rows = max(1, KERNEL_BLOCK_CELLS // n)
    for lo in range(0, n, rows):
        block = slice(lo, lo + rows)
        deltas = [keys[block, r, None] - keys[:, r] for r in range(len(profiles))]
        overlaps = [p.autocorrelation(d) for p, d in zip(profiles, deltas)]
        overlap = math.prod(overlaps)
        weight = amps.real[block] * (overlap @ amps.real) + amps.imag[block] * (overlap @ amps.imag)
        norms += weight.sum(axis=0)
        moments += weight[:, 0] @ keys[block]
        # the Gaussian and rectangular profiles are even: their D_r is 0
        for r, p in enumerate(profiles):
            if p.shape == "tabulated":
                shift = p.autocorrelation(deltas[r], 1) * math.prod(overlaps[:r] + overlaps[r + 1 :])
                moments[r] += (amps[block, 0].conj() * (shift @ amps[:, 0])).real.sum()
    if norms[0] <= 0.0:
        raise ValueError("distribution has zero total mass; the mean reading is undefined")
    return norms, tuple(float(m / norms[0]) for m in moments)


def _place_grids(keys: np.ndarray, profiles, grids=None, pad=None, step=None) -> tuple[Grid, ...]:
    """The given grids, with each missing one (None, or all when grids is None)
    placed by Grid.cover over its column of keys with the given pad and step;
    a grid above the cap names its meter."""
    grids = [None] * len(profiles) if grids is None else list(grids)
    for r, g in enumerate(grids):
        try:
            grids[r] = Grid.cover(keys[:, r], profiles[r].width, pad, step) if g is None else g
        except GridCapError as exc:
            raise GridCapError(exc.cells, exc.width, exc.step, exc.pad, axis=r) from None
    return tuple(grids)


def _density(keys: np.ndarray, amps: np.ndarray, profiles, grids) -> np.ndarray:
    """Reading density sum_b |sum_g amps[g, b] prod_r G_r(xi_r - keys[g, r])|^2
    over every amplitude column b (a 1-d amps is one column), on the grids."""
    columns = amps.reshape(len(keys), -1)
    density = None
    for b in range(columns.shape[1]):
        blocks = _pointer_blocks(columns[:, b : b + 1], keys, profiles, grids)
        if density is None:  # once the kernel has checked the grids
            density = np.empty(tuple(g.n for g in grids))
        # the blocks cover every node: column 0 stores, later columns add
        for block, re, im in blocks:
            re *= re
            im *= im
            re += im
            if b:
                density[block] += re[0]
            else:
                density[block] = re[0]
    return density


def _distribution(keys: np.ndarray, amps: np.ndarray, profiles, grids=None) -> PointerDistribution:
    """_density on the grids, each missing one placed; with R >= 2 axes the
    grids are checked as the kernel checks them, and the density waits until read."""
    grids = _place_grids(keys, profiles, grids)
    if len(grids) == 1:
        return PointerDistribution(grids, _density(keys, amps, profiles, grids))
    _check_grids(keys, profiles, grids, samples=np.count_nonzero(amps) * sum(g.n for g in grids[1:]))
    joint = object.__new__(PointerDistribution)
    vars(joint).update(grids=grids, _law=(keys, amps, profiles))
    return joint


def final_pointer_state(
    dist: AmplitudeDistribution, profile: PointerProfile, grid: Grid
) -> np.ndarray:
    """Pointer amplitude samples M(xi) = sum_m A_m G(xi - f_m)."""
    blocks = _pointer_blocks(dist.amplitudes[:, None], dist.support[:, None], [profile], [grid])
    state = np.empty(grid.n, dtype=complex)
    for block, re, im in blocks:
        state.real[block], state.imag[block] = re[0], im[0]
    return state


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

    With a single meter this reduces exactly to reading_distribution.  With
    more, the density is built the first time it is read: norm and
    marginals come from the law.
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
        return all(b < a or a == b == 0.0 for a, b in zip(errs, errs[1:]))


def weak_limit_report(chain: MeasurementChain, functional: PathFunctional, widths) -> WeakLimitReport:
    """Gaussian-meter mean readings for increasing widths, in closed form.

    The error against the real part of the amplitude-weighted mean shrinks
    as the width grows; no grid is built, so any Gaussian width serves, from
    the accurate end to the weak one.
    """
    widths = tuple(float(w) for w in widths)
    if any(w2 <= w1 for w1, w2 in zip(widths, widths[1:])):
        raise ValueError("widths must be strictly increasing")
    dist = amplitude_distribution(chain, functional)
    weak = dist.weak_value()
    means = (_moments(dist.support[:, None], dist.amplitudes, [PointerProfile.gaussian(w)])[1][0] for w in widths)
    return WeakLimitReport(widths, tuple(means), weak)
