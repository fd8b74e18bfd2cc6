"""Monte-Carlo sampling of measurement records.

Outcomes of a run are a reading per meter plus the result of the final
selection.  Their exact joint law on the grid nodes is known, and trials
draw it by the chain rule, in reading order: first the selection branch and
the reading of meter 0 together, from the B x n_0 table of their masses;
then each later reading given the earlier ones, by
inverting its conditional CDF.  That CDF is a sum of per-axis pair tables
weighted by the trial's running amplitudes, so no array spans the product
grid: memory is O(B n_0 + sum_r P_r n_r) plus one chunk of trials (P_r
pairs of row classes on axis r), and the cap on grid cells counts these
cells, not the product grid's.

A trial pays about P_r log2(n_r) table reads on each later axis, so where
later axes read many distinct values, or the product grid is small next to
the trial count, the first table spans every axis instead: the B x n_0 x
... x n_R-1 cell masses of the product grid, with no later axis left.  One
_ChainLaw, built once for the run's trial count, is the whole law: it counts
the row classes of each later axis, lets _chain_rule_pays choose the draw
from those counts alone, and builds its first table, with its exact
numbers, by meter._pair_density, the class-pair form that also gives a
joint density's norm and marginals.  It also tabulates what trials would
otherwise recompute: a guide table of the first table's CDF
(rng.cdf_guide), so most first lookups are a gather and at most two
comparisons, and, where the first table's cells times the class pairs of
the first later axis are at most the trials, that axis's coefficients per
cell, which each trial gathers by its cell.

Reproducibility: trial i reads the uniforms at Philox stream positions
(1 + L) i + c, with L the axes after the first table, c = 0 for that table
and c = r for later axis r: R i + r in the chain-rule draw, i where the
table spans every axis (see rng.uniform_block); every per-trial step, and
every per-cell one in its place, is elementwise, so records are
bit-identical for any worker count or chunking, and for either side of the
per-cell rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .meter import Grid, MeterSpec, _check_grids, _classes, _gram, _integrate, _pair_density, _place_grids, _value_index, _write_csv
from .paths import MeasurementChain, _branch_amplitudes
from .rng import CHUNK, cdf_guide, cdf_index, check_trials, map_chunks, uniform_block

# Trials drawn at once within a chunk hold about this many per-trial values
# (trials x (groups + pairs)); a law of few groups draws a whole chunk at once.
SLICE_VALUES = 1 << 18
# Per-trial table reads of the chain-rule draw that take as long as one cell
# of the product-grid draw (kernel, weighting, CDF): 2 meters, 500k trials on
# 1301- and 2601-node axes took 3-7 ns a read and 26-37 ns a cell, the cell's
# time nearly the same for 4 to 64 groups.
READS_PER_CELL = 6

_NOTHING_TO_SAMPLE = "total probability of all branches is zero; nothing to sample"


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
    branches: np.ndarray  # shape (n_trials,): 0 = selection succeeded, k >= 1 = k-th completion state
    exact_success_probability: float
    exact_means: tuple[float, ...]

    @property
    def n_trials(self) -> int:
        return self.branches.size

    @property
    def n_meters(self) -> int:
        return self.readings.shape[1]

    def summary(self) -> TrialSummary:
        success = self.branches == 0
        n_success = int(np.count_nonzero(success))
        meters = []
        for r in range(self.n_meters):
            # a 1-d mask on the column view: a 2-d (mask, r) index is slower
            vals = self.readings[:, r][success]
            if vals.size:
                mean = float(vals.mean())
                with np.errstate(over="ignore"):
                    sd = vals.std(ddof=1) if vals.size > 1 else 0.0
                if np.isinf(sd):  # readings whose squares leave the float range: scale them first
                    sd = np.abs(vals).max() * (vals / np.abs(vals).max()).std(ddof=1)
                se = float(sd / math.sqrt(vals.size))
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
        # each Python float as its repr, formatted once per distinct bit
        # pattern, as readings lie on grid nodes
        texts, indices = [], []
        for r in range(self.n_meters):
            bits, inverse = np.unique(self.readings[:, r].view(np.int64), return_inverse=True)
            texts.append(np.array([repr(v) for v in bits.view(float).tolist()], dtype=object))
            indices.append(inverse)

        def columns(lo, hi):
            readings = [text[index[lo:hi]].tolist() for text, index in zip(texts, indices)]
            return [map(str, range(lo, hi)), *readings, map(str, self.branches[lo:hi].tolist())]

        header = ["trial_id"] + [f"reading_{r}" for r in range(self.n_meters)] + ["branch"]
        _write_csv(path, header, self.n_trials, columns)


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
    grids = _place_grids(keys, profiles, grids)
    law = _ChainLaw(keys, amps, profiles, grids, n_trials)

    readings = np.empty((n_trials, len(grids)))
    branches = np.empty(n_trials, dtype=np.intp)

    def draw_chunk(lo: int, hi: int) -> None:
        u = uniform_block(seed, law.stride * lo, law.stride * (hi - lo)).reshape(-1, law.stride)
        for a in range(0, hi - lo, law.rows):
            b = min(a + law.rows, hi - lo)
            law.draw(u[a:b], readings[lo + a : lo + b], branches[lo + a : lo + b])

    map_chunks(n_trials, draw_chunk, max_workers)
    return TrialSet(seed, readings, branches, float(law.success / law.total), law.exact_means)


def _chain_rule_pays(n_groups: int, class_counts: list, n_branches: int, grids, n_trials: int) -> bool:
    """Whether a first table over axis 0 alone, with per-axis tables for the
    later axes, draws the trials for less memory and work than one table
    over every axis of the product grid.

    A later axis r costs each trial about G + P_r ceil(log2 n_r) table reads
    (G groups; P_r pairs of the class_counts[r - 1] classes of rows sharing
    their values on axes r..R-1), where the product grid costs its B prod_r
    n_r cells once for all trials; one meter has no later axis and pays."""
    pairs = [math.comb(k + 1, 2) for k in class_counts]
    tables = sum(p * g.n for p, g in zip(pairs, grids[1:]))
    per_trial = sum(n_groups + p * (g.n - 1).bit_length() for p, g in zip(pairs, grids[1:]))
    cells = n_branches * math.prod(g.n for g in grids)
    return tables <= cells and n_trials * per_trial <= READS_PER_CELL * cells


def _bisect(tables: np.ndarray, n: int, coefs: list, u: np.ndarray) -> np.ndarray:
    """For each trial t, the first node i < n with F_t(i) > u[t] F_t(n-1) (the
    last node if none is), where F_t(i) = sum_p coefs[p][t] tables[p, i] and
    each table repeats its node n-1 up to a power-of-two length.

    Branchless: ceil(log2 n) steps, every one elementwise over the trials."""
    total = coefs[0] * tables[0, n - 1]
    for p in range(1, len(coefs)):
        total += coefs[p] * tables[p, n - 1]
    target = total * u
    pos, at, move = (np.zeros(u.size, dtype=np.intp) for _ in range(3))
    below = np.empty(u.size, dtype=bool)
    step = tables.shape[1] >> 1
    while step:
        np.add(pos, step - 1, out=at)
        f = tables[0].take(at)
        f *= coefs[0]
        for p in range(1, len(coefs)):
            term = tables[p].take(at)
            term *= coefs[p]
            f += term
        np.less_equal(f, target, out=below)
        np.multiply(below, step, out=move)
        pos += move
        step >>= 1
    return np.minimum(pos, n - 1, out=pos)


def _class_sum(values: np.ndarray, rows) -> np.ndarray:
    """Sum of the given rows of values, added in row order."""
    total = values[rows[0]]
    for g in rows[1:]:
        total = total + values[g]
    return total


def _pair_coefs(members: list, pairs: list, re: np.ndarray, im: np.ndarray) -> list:
    """Re(u_k conj u_k') for each class pair (k, k'), where u_k sums the rows
    members[k] of re + i im."""
    u_re = [_class_sum(re, rows) for rows in members]
    u_im = [_class_sum(im, rows) for rows in members]
    return [u_re[k] * u_re[k2] + u_im[k] * u_im[k2] for k, k2 in pairs]


class _ChainLaw:
    """The (branch, readings) law on the grid nodes in reading order, for a
    draw of n_trials trials: a first table over axes 0..a-1 (a = 1 for the
    chain rule, R for the product grid, as _chain_rule_pays picks from the
    law's own class counts), per-axis tables for the later axes, and the
    exact success probability and mean readings.  The first table is
    meter._pair_density on axes < a, every later axis r integrated through
    O_r = (S_r w_r) S_r^T, times the cells' trapezoid weights.  The exact
    means are the success row's marginals on axes < a and, on each later
    axis r, _pair_density of the success column with (S_r w_r xi) S_r^T for
    O_r.  Each later axis r is drawn from F(i) = sum
    over pairs k <= k' of classes (rows sharing their values on axes
    r..R-1) of Re(u_k conj u_k') T_r[k, k', i]: u sums the rows'
    A^b_g prod_{s<r} S_s[g, i_s] per class, and T_r is the cumulative sum of
    w_r S_r[k] S_r[k'] times m prod_{s>r} O_s[k, k'] (m = 1 on the diagonal,
    2 off it).  Every array is counted against the grid cap before any is
    built; the first table's guide and the first later axis's coefficients
    per cell hold at most n_trials values each.
    """

    def __init__(self, keys: np.ndarray, amps: np.ndarray, profiles, grids, n_trials: int):
        # rows that vanish on every branch are neither drawn nor counted as classes
        keep = np.any(amps != 0, axis=1)
        if not keep.any():
            raise ValueError(_NOTHING_TO_SAMPLE)
        keys, amps = keys[keep], amps[keep]
        n_axes, n_columns = len(grids), amps.shape[1]
        values, index = _value_index(keys)
        levels = [_classes(index[:, r:]) for r in range(1, n_axes)]
        a = 1 if _chain_rule_pays(len(keys), [len(c) for c, _ in levels], n_columns, grids, n_trials) else n_axes
        # the first table's classes are those of axis a (one class for a = R)
        levels = levels[a - 1 :]
        first = (levels or [_classes(index[:, a:])])[0][0]
        cells = _classes(index[:, :a])[0]
        # cells of the masses, K x K forms, complex K x B x V coefficients, the
        # kernel's samples of axes 1..a-1 for every cell of values, later
        # samples and two overlaps each, then the first axes' samples and pair tables
        held = n_columns * math.prod(g.n for g in grids[:a]) + (1 + n_axes - a) * len(first) ** 2
        held += 2 * len(first) * n_columns * len(cells)
        held += sum(v.size * (g.n + 2 * v.size) for v, g in zip(values[a:], grids[a:]))
        if levels:
            held += sum(v.size * g.n for v, g in zip(values[:a], grids[:a]))
            held += sum(math.comb(len(c) + 1, 2) << (g.n - 1).bit_length() for (c, _), g in zip(levels, grids[a:]))
        _check_grids(keys, profiles, grids, held, samples=len(cells) * sum(g.n for g in grids[1:a]))
        xs = [g.xs() for g in grids]
        samples = [None] * a + [p.samples(x - v[:, None]) for p, x, v in zip(profiles[a:], xs[a:], values[a:])]
        overlap = [None] * a + [(s * g.weights()) @ s.T for s, g in zip(samples[a:], grids[a:])]
        xi_overlap = [None] * a + [(s * (g.weights() * x)) @ s.T for s, g, x in zip(samples[a:], grids[a:], xs[a:])]
        masses = _pair_density(index, values, amps, profiles, grids, a, overlap)
        first_weights = [g.weights() for g in grids[:a]]
        for s, w in enumerate(first_weights):
            masses *= w.reshape((-1,) + (1,) * (a - 1 - s))
        self.success = masses[0].sum()
        # means: the success row's marginals on axes < a, then the later axes' xi forms
        moments = [masses[0].sum(axis=tuple(s for s in range(a) if s != r)) @ x for r, x in enumerate(xs[:a])]
        for r in range(a, n_axes):
            tables = [xi_overlap[s] if s == r else overlap[s] for s in range(n_axes)]
            moments.append(_integrate(_pair_density(index, values, amps[:, :1], profiles, grids, a, tables)[0], first_weights))
        self.exact_means = tuple(float(m / self.success) if self.success > 0 else math.nan for m in moments)
        self.xs = xs
        self.shape = masses.shape
        self.total = masses.sum()
        if self.total <= 0.0:
            raise ValueError(_NOTHING_TO_SAMPLE)
        self.cdf = masses.reshape(-1)
        np.cumsum(self.cdf, out=self.cdf)
        # the first lookups' guide of min(cells, n_trials) buckets
        self.guide = cdf_guide(self.cdf, self.total, min(self.cdf.size, n_trials))
        # uniforms per trial: one for the first table, one per later axis
        self.stride = 1 + len(levels)
        self.axes, self.rows, self.cell_coefs = [], CHUNK, None
        if not levels:
            return
        # the draw reads these from axis 0 to R-2
        self.samples = [p.samples(x - v[:, None]) for p, x, v in zip(profiles[:a], xs, values)] + samples[a:]

        # later axes: the rows of each class, and the pair tables T_r padded
        # to a power-of-two length by repeating their last node
        for r, (classes, of_row) in enumerate(levels, start=a):
            q = _gram(classes, [None] + overlap[r + 1 :])
            pairs = list(zip(*np.triu_indices(len(classes))))
            n, weights = grids[r].n, grids[r].weights()
            pair_tables = np.empty((len(pairs), 1 << (n - 1).bit_length()))
            v = classes[:, 0]
            for p, (k, k2) in enumerate(pairs):
                np.cumsum(weights * self.samples[r][v[k]] * self.samples[r][v[k2]], out=pair_tables[p, :n])
                pair_tables[p, :n] *= q[k, k2] * (1.0 if k == k2 else 2.0)
                pair_tables[p, n:] = pair_tables[p, n - 1]
            members = [np.flatnonzero(of_row == k) for k in range(len(classes))]
            self.axes.append((members, pairs, pair_tables))
        # flat tables read with np.take: amplitude (g, b) at g B + b, and the
        # sample of row g at node i of axis s at index_s(g) n_s + i
        self.amps_re, self.amps_im = amps.real.ravel(), amps.imag.ravel()
        self.amp_at = (np.arange(len(keys)) * amps.shape[1])[:, None]
        self.sample_at = [(index[:, s] * g.n)[:, None] for s, g in enumerate(grids)]
        widest = max([len(keys)] + [len(pairs) for _, pairs, _ in self.axes])
        self.rows = max(1, min(CHUNK, SLICE_VALUES // widest))
        # where the C cells times the P class pairs of the first later axis are
        # at most n_trials, that axis's coefficients for every cell (P x C), by
        # the per-trial arithmetic, a slice of cells at a time
        members, pairs, _ = self.axes[0]
        if self.cdf.size * len(pairs) > n_trials:
            return
        self.cell_coefs = np.empty((len(pairs), self.cdf.size))
        for lo in range(0, self.cdf.size, self.rows):
            hi = min(lo + self.rows, self.cdf.size)
            branches, *drawn = np.unravel_index(np.arange(lo, hi), self.shape)
            self.cell_coefs[:, lo:hi] = _pair_coefs(members, pairs, *self._amplitudes(branches, drawn, a))

    def _amplitudes(self, branches, drawn, r):
        """c_g = A^b_g prod_{s<r} S_s[g, i_s], real and imaginary parts by row."""
        at = self.amp_at + branches
        re, im = self.amps_re.take(at), self.amps_im.take(at)
        for s in range(r):
            factor = self.samples[s].take(self.sample_at[s] + drawn[s])
            re *= factor
            im *= factor
        return re, im

    def draw(self, u: np.ndarray, readings: np.ndarray, branches: np.ndarray) -> None:
        """Fill readings and branches for the trials whose uniforms are the
        rows of u: column 0 for the first table, column 1 + r - a for later
        axis r; every step is elementwise per trial.  The first later axis
        gathers its coefficients by the trial's cell where the law built them."""
        cell = cdf_index(self.cdf, self.total, u[:, 0], self.guide)
        branches[:], *drawn = np.unravel_index(cell, self.shape)
        for r, i in enumerate(drawn):
            readings[:, r] = self.xs[r][i]
        a = len(drawn)
        for r, (members, pairs, pair_tables) in enumerate(self.axes, start=a):
            if r == a and self.cell_coefs is not None:
                coefs = self.cell_coefs.take(cell, axis=1)
            else:
                coefs = _pair_coefs(members, pairs, *self._amplitudes(branches, drawn, r))
            drawn.append(_bisect(pair_tables, self.xs[r].size, coefs, u[:, 1 + r - a]))
            readings[:, r] = self.xs[r][drawn[r]]
