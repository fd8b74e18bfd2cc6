import csv
import itertools
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    brute_force_joint_density,
    closed_form_moments,
    count_grouped_amplitudes,
    path_amplitude_oracle,
    quadrature_overlaps,
    random_chain,
    uniform_two_layer_network,
)
from qpathnet import (
    Grid,
    MeasurementChain,
    MeasurementStep,
    MeterSpec,
    Observable,
    PathFunctional,
    PointerProfile,
    Propagator,
    StateVector,
    build_minus_hundred,
    build_projector_postselected,
    build_three_box,
    classical_paths,
    classical_sample,
    joint_reading_distribution,
    mean_reading,
    sample_trials,
)
from qpathnet import sampling
from qpathnet.paths import _branch_amplitudes, grouped_amplitudes
from qpathnet.rng import CHUNK, MAX_TRIALS, THREADS_ENV, cdf_guide, cdf_index, uniform_block, worker_count
from qpathnet.meter import _moments, _place_grids


class TestUniformBlocks:
    def test_chunking_is_invisible(self):
        full = uniform_block(99, 0, 1000)
        pieces = np.concatenate(
            [uniform_block(99, 0, 137), uniform_block(99, 137, 500), uniform_block(99, 637, 363)]
        )
        assert np.array_equal(full, pieces)

    def test_unaligned_starts(self):
        full = uniform_block(5, 0, 64)
        for start in (1, 2, 3, 5, 17):
            assert np.array_equal(full[start:], uniform_block(5, start, 64 - start))

    def test_seeds_differ(self):
        assert not np.array_equal(uniform_block(1, 0, 16), uniform_block(2, 0, 16))


class TestWorkerCount:
    def test_env_var_is_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, str(10**6))
        assert 1 <= worker_count() <= (os.cpu_count() or 1)

    def test_argument_is_capped_at_cpu_count(self):
        assert worker_count(10**6) == (os.cpu_count() or 1)
        assert worker_count(0) == 1

    def test_unparsable_env_var_means_one(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "many")
        assert worker_count() == 1


def _cdf_case(lead, masses, tail, scale):
    """A flat CDF with zero-mass runs: lead zeros, the masses, tail zeros."""
    return np.cumsum(np.concatenate([np.zeros(lead), np.asarray(masses) * scale, np.zeros(tail)]))


class TestGuidedLookup:
    @given(
        st.integers(0, 4),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1, max_size=60),
        st.integers(0, 4),
        st.sampled_from([1e-300, 1.0, 1e300]),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    @example(0, [1.0], 0, 1.0, 1.0, True, [])  # a single cell
    @example(3, [0.0, 0.5, 0.0, 0.0, 0.25], 5, 1.0, 0.3, False, [0.5, 0.75])  # m < cells
    # u = 5 / 15 rounds u * 15 up to 5, yet u * total lies below bucket 5's
    # threshold and a CDF entry lies between them: a lookup started in u's
    # own bucket would pass that entry
    @example(0, [0.92, 0.09, 0.22, 0.33, 0.86, 0.1, 0.92, 0.15, 0.52, 0.86, 0.39, 0.68, 0.68, 0.51, 0.33],
             0, 1.0, 1.0, False, [])
    def test_equals_the_clipped_bisection(self, lead, masses, tail, scale, share, pairwise, us):
        cdf = _cdf_case(lead, masses, tail, scale)
        # the sampler's total is the pairwise sum of the masses, classical_sample's the CDF's last entry
        total = np.diff(cdf, prepend=0.0).sum() if pairwise else cdf[-1]
        if not total > 0.0:
            return
        buckets = max(1, round(share * cdf.size))
        # the ends of the stream, and every uniform at a CDF entry or a bucket edge
        edges = [cdf / total, np.arange(buckets) / buckets, np.nextafter(cdf / total, 0.0)]
        u = np.concatenate([[0.0, 1.0 - 2.0**-53], us, *edges])
        u = u[(u >= 0.0) & (u < 1.0)]
        expected = np.minimum(np.searchsorted(cdf, u * total, side="right"), cdf.size - 1)
        assert np.array_equal(cdf_index(cdf, total, u, cdf_guide(cdf, total, buckets)), expected)


class TestSampleTrials:
    def test_deterministic_chain(self):
        preset = build_projector_postselected(psi=(1.0, 0.0), phi=(1.0, 0.0))
        trials = sample_trials(preset.chain, list(preset.meters), 2000, seed=1)
        assert np.all(trials.branches == 0)
        # every reading falls in the window around the eigenvalue 1
        assert np.all(np.abs(trials.readings[:, 0] - 1.0) <= 0.25)

    def test_seed_reproducibility(self):
        preset = build_projector_postselected()
        a = sample_trials(preset.chain, list(preset.meters), 5000, seed=11)
        b = sample_trials(preset.chain, list(preset.meters), 5000, seed=11)
        c = sample_trials(preset.chain, list(preset.meters), 5000, seed=12)
        assert np.array_equal(a.readings, b.readings)
        assert np.array_equal(a.branches, b.branches)
        assert not np.array_equal(a.readings, c.readings)

    def test_worker_count_is_invisible(self):
        preset = build_projector_postselected()
        n = 40_000  # spans multiple chunks
        one = sample_trials(preset.chain, list(preset.meters), n, seed=3, max_workers=1)
        four = sample_trials(preset.chain, list(preset.meters), n, seed=3, max_workers=4)
        assert np.array_equal(one.readings, four.readings)
        assert np.array_equal(one.branches, four.branches)

    def test_env_var_controls_workers(self, monkeypatch):
        preset = build_projector_postselected()
        base = sample_trials(preset.chain, list(preset.meters), 20_000, seed=9)
        monkeypatch.setenv("QPATHNET_THREADS", "3")
        env = sample_trials(preset.chain, list(preset.meters), 20_000, seed=9)
        assert np.array_equal(base.readings, env.readings)

    def test_strong_frequencies_match_binomial(self):
        preset = build_projector_postselected()
        trials = sample_trials(preset.chain, list(preset.meters), 30_000, seed=8)
        success = trials.branches == 0
        # conditioned on selection, the fraction of readings in the window
        # around eigenvalue 1 estimates 0.4 / (0.4 + 0.1)
        near_one = np.abs(trials.readings[success, 0] - 1.0) <= 0.25
        p = 0.8
        sigma = math.sqrt(p * (1 - p) / success.sum())
        assert abs(near_one.mean() - p) <= 3 * sigma
        # selection succeeds with probability 0.5
        sigma_sel = math.sqrt(0.25 / trials.n_trials)
        assert abs(success.mean() - 0.5) <= 3 * sigma_sel

    def test_summary_tracks_exact_mean(self):
        preset = build_projector_postselected()
        trials = sample_trials(preset.chain, list(preset.meters), 30_000, seed=15)
        summary = trials.summary()
        meter = summary.meters[0]
        assert meter.exact_mean == pytest.approx(0.8, abs=1e-9)
        assert abs(meter.conditional_mean - meter.exact_mean) <= 3 * meter.standard_error

    def test_weak_regime_wild_spread(self):
        # close-to-forbidden transition with a wide meter: nearly every run
        # fails the selection, surviving readings spread over the whole grid,
        # and only the long-run mean carries the (large negative) signal
        preset = build_minus_hundred()
        meter = MeterSpec(preset.meters[0].functional, PointerProfile.gaussian(1000.0))
        trials = sample_trials(preset.chain, [meter], 1_000_000, seed=19)
        summary = trials.summary()
        assert summary.success_rate < 1e-3
        m = summary.meters[0]
        assert m.exact_mean == pytest.approx(-99.7469, abs=1e-3)
        assert abs(m.conditional_mean - m.exact_mean) <= 3 * m.standard_error
        spread = trials.readings[trials.branches == 0, 0].std()
        assert spread > 100.0

    def test_records_and_csv(self, tmp_path):
        preset = build_projector_postselected()
        trials = sample_trials(preset.chain, list(preset.meters), 50, seed=2)
        assert trials.n_trials == 50
        out = tmp_path / "trials.csv"
        trials.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "trial_id,reading_0,branch"
        assert len(lines) == 51
        trial_id, reading, _ = lines[8].split(",")
        assert trial_id == "7"
        assert float(reading) == trials.readings[7, 0]

    def test_csv_bytes_match_row_by_row_formatting(self, tmp_path):
        preset = build_three_box()
        trials = sample_trials(preset.chain, list(preset.meters), 3000, seed=6)
        rows = tmp_path / "rows.csv"
        with open(rows, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["trial_id", "reading_0", "reading_1", "branch"])
            for i in range(trials.n_trials):
                writer.writerow([i] + [repr(float(v)) for v in trials.readings[i]] + [int(trials.branches[i])])
        out = tmp_path / "trials.csv"
        trials.write_csv(out)
        assert out.read_bytes() == rows.read_bytes()
        with open(out, newline="") as fh:
            records = list(csv.reader(fh))[1:]
        assert [tuple(map(float, r[1:-1])) for r in records] == [tuple(map(float, row)) for row in trials.readings]
        assert [int(r[-1]) for r in records] == [int(b) for b in trials.branches]

    def test_rejects_empty_run(self):
        preset = build_projector_postselected()
        with pytest.raises(ValueError, match="at least one trial"):
            sample_trials(preset.chain, list(preset.meters), 0, seed=0)

    def test_trial_cap_refuses_before_allocating(self):
        preset = build_projector_postselected()
        paths = classical_paths(uniform_two_layer_network())
        runs = (
            lambda: sample_trials(preset.chain, list(preset.meters), MAX_TRIALS + 1, seed=0),
            lambda: classical_sample(paths, MAX_TRIALS + 1, seed=0),
        )
        for run in runs:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="MAX_TRIALS"):
                    run()
                assert tracemalloc.get_traced_memory()[1] < 1 << 20
            finally:
                tracemalloc.stop()

    def test_exact_reference_uses_success_branch(self):
        preset = build_projector_postselected()
        trials = sample_trials(preset.chain, list(preset.meters), 100, seed=4)
        joint = joint_reading_distribution(preset.chain.branches()[0], list(preset.meters))
        assert trials.exact_means[0] == pytest.approx(mean_reading(joint.marginal(0)), abs=1e-12)


class TestOneWalk:
    """sample_trials walks the chain once, closed onto every branch, and
    draws from per-axis tables without building any density."""

    def test_one_grouping_and_no_chain_level_density(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("sample_trials built a density through joint_reading_distribution")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qpathnet" and hasattr(module, "joint_reading_distribution"):
                monkeypatch.setattr(module, "joint_reading_distribution", refused)
        calls = count_grouped_amplitudes(monkeypatch)
        preset = build_three_box()
        trials = sample_trials(preset.chain, list(preset.meters), 100, seed=4)
        assert calls == [1]
        assert set(np.unique(trials.branches)) <= {0, 1, 2}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_holds_one_density_per_branch(self, dim):
        chain = random_chain(np.random.default_rng(dim), dim, 2, eigenvalues=np.linspace(-1.0, 1.0, dim))
        meters = [MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(1.0)) for k in (0, 1)]
        grids = [Grid(-6.5, 0.01, 1301)] * 2
        density_bytes = 1301**2 * 8
        tracemalloc.start()
        try:
            sample_trials(chain, meters, 100, seed=1, grids=grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # dim branches; rebuilding each branch's density beside the buffer
        # peaked at 4.1 densities (dim 2) and 6.1 (dim 3)
        assert peak < (dim + 0.5) * density_bytes


    def test_holds_no_product_grid(self):
        chain = random_chain(np.random.default_rng(2), 2, 2, eigenvalues=[-1.0, 1.0])
        meters = [MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(1.0)) for k in (0, 1)]
        grids = [Grid(-6.5, 0.01, 1301)] * 2
        density_bytes = 1301**2 * 8
        tracemalloc.start()
        try:
            sample_trials(chain, meters, 100, seed=1, grids=grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * density_bytes

    def test_dead_rows_do_not_choose_the_draw(self):
        # free evolution in the measured basis keeps 2 of the 128 paths alive
        # on both branches; counted as classes, the dead rows sent this run
        # to the product grid of 2 x 2601^2 cells (112 MB traced)
        projector = Observable.from_eigensystem([0.0, 1.0], np.eye(2))
        steps = tuple(MeasurementStep(k / 8.0, projector) for k in range(1, 8))
        plus = StateVector(np.array([1.0, 1.0]) / math.sqrt(2.0))
        chain = MeasurementChain(plus, steps, Propagator.free(2), plus, 1.0)
        meters = [
            MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1.0)),
            MeterSpec(PathFunctional.from_table(np.arange(128) / 127.0), PointerProfile.gaussian(1.0)),
        ]
        tracemalloc.start()
        try:
            sample_trials(chain, meters, 100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_many_classes_draw_from_the_product_grid(self, monkeypatch):
        # 128 distinct values on meter 1 give 8256 pair tables of 10^4 nodes,
        # far above the 2 branches x 3 x 10^4 cells of the product grid, so
        # the law's first table spans both axes and no later axis is left
        laws = []

        class Spy(sampling._ChainLaw):
            def __init__(self, *args):
                super().__init__(*args)
                laws.append(self)

        monkeypatch.setattr(sampling, "_ChainLaw", Spy)
        chain = random_chain(np.random.default_rng(8), 2, 7, eigenvalues=[0.0, 1.0])
        values = np.random.default_rng(9).permutation(128) / 127.0
        meters = [
            MeterSpec(PathFunctional.constant(0.0), PointerProfile.gaussian(1.0)),
            MeterSpec(PathFunctional.from_table(values), PointerProfile.gaussian(1.0)),
        ]
        grids = [Grid(-5.0, 5.0, 3), Grid(-5.0, 11.0 / 9999, 10_000)]
        trials = sample_trials(chain, meters, 1000, seed=1, grids=grids)
        assert [(law.shape, law.axes) for law in laws] == [((2, 3, 10_000), [])]
        first = joint_reading_distribution(chain, meters, grids)
        assert trials.exact_means[1] == pytest.approx(first.marginal_mean(1), rel=1e-12)

    @pytest.mark.parametrize("n_meters", [1, 2])
    def test_many_classes_take_moments_off_the_product_grid(self, n_meters):
        # 4096 distinct values per meter: with two, the class-pair forms and
        # coefficients would hold about 7e7 cells and the product grid 71^2,
        # so the draw takes the product grid; one meter takes the chain rule,
        # its coefficients outnumbering its 71 nodes.  The closed-form moments
        # (as exact mode calls them) sum the 4096^2 group pairs in blocks
        chain = random_chain(np.random.default_rng(4), 2, 12, eigenvalues=[0.0, 1.0])
        rng = np.random.default_rng(5)
        meters = [
            MeterSpec(PathFunctional.from_table(rng.permutation(4096) / 4095.0), PointerProfile.gaussian(0.2))
            for _ in range(n_meters)
        ]
        grids = [Grid.cover([0.0, 1.0], 0.2, step=0.05)] * n_meters
        keys, amps = grouped_amplitudes(chain, [m.functional for m in meters])
        tracemalloc.start()
        try:
            norms, means = _moments(keys, amps, [m.profile for m in meters])
            trials = sample_trials(chain, meters, 1000, seed=2, grids=grids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20
        joint = joint_reading_distribution(chain, meters, grids)
        # the grid's trapezoid sums are exact for these Gaussians up to the
        # mass beyond its 6-width padding
        assert norms[0] == pytest.approx(joint.norm, rel=1e-8)
        for r in range(n_meters):
            assert means[r] == pytest.approx(joint.marginal_mean(r), rel=1e-8)
            assert trials.exact_means[r] == pytest.approx(joint.marginal_mean(r), rel=1e-12)


class TestDrawChoice:
    """The chain-rule draw is taken where its per-trial table reads cost less
    than the product grid's cells, and never holds more than that grid."""

    @staticmethod
    def _counts(n_values):
        # the rows (meter 0 reads 0 or 1, meter 1 one of n_values) and the
        # classes of meter 1's values
        return 2 * n_values, [n_values]

    def test_few_values_on_later_axes_take_the_chain_rule(self):
        assert sampling._chain_rule_pays(*self._counts(2), 2, [Grid(-6.0, 0.005, 2601)] * 2, 500_000)
        assert sampling._chain_rule_pays(*self._counts(4), 2, [Grid(-6.0, 0.005, 2601)] * 2, 500_000)

    def test_many_values_on_later_axes_take_the_product_grid(self):
        assert not sampling._chain_rule_pays(*self._counts(100), 2, [Grid(-6.0, 0.005, 2601)] * 2, 500_000)
        # tables larger than the product grid, whatever the trial count
        assert not sampling._chain_rule_pays(*self._counts(100), 2, [Grid(-6.0, 0.5, 5), Grid(-6.0, 0.005, 2601)], 1)

    def test_one_meter_always_takes_the_chain_rule(self):
        assert sampling._chain_rule_pays(5000, [], 3, [Grid(-6.0, 1.0, 5013)], MAX_TRIALS)

    @given(
        st.integers(1, 3),
        # values 0, 0.5 or 1 on each axis, and whether the row lives on some branch
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.booleans()), max_size=12),
        st.integers(1, 3),
        st.sampled_from([1, 100, 10_000, MAX_TRIALS]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_law_counts_the_classes_of_its_kept_rows(self, n_axes, rows, n_branches, n_trials, seed):
        alive = np.array([row[3] for row in rows], dtype=bool)
        assume(alive.any())
        keys = np.array([row[:n_axes] for row in rows], dtype=float) / 2.0
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=(len(rows), n_branches)) + 1j * rng.normal(size=(len(rows), n_branches))
        amps[~alive] = 0.0
        profiles, grids = [PointerProfile.gaussian(0.3)] * n_axes, [Grid(-1.6, 0.2, 22)] * n_axes
        # the classes of the kept rows' values on axes r..R-1, counted over rows
        kept = keys[alive]
        counts = [len(np.unique(kept[:, r:], axis=0)) for r in range(1, n_axes)]
        pays, seen = sampling._chain_rule_pays, []

        def rule(*args):
            seen.append(args[:2])
            return pays(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_chain_rule_pays", rule)
            law = sampling._ChainLaw(keys, amps, profiles, grids, n_trials)
        assert seen == [(len(kept), counts)]
        # the chain rule leaves a first table over (branch, axis 0)
        assert len(law.shape) == (2 if pays(len(kept), counts, n_branches, grids, n_trials) else 1 + n_axes)

    @staticmethod
    def _law(chain, meters, n_trials):
        keys, amps = _branch_amplitudes(chain, [m.functional for m in meters], chain.branches())
        profiles = [m.profile for m in meters]
        return sampling._ChainLaw(keys, amps, profiles, _place_grids(keys, profiles), n_trials)

    def test_the_benchmark_inputs_keep_their_draws(self):
        # joint-sample's shape: two Gaussian(1.0) meters reading 0 or 1 on
        # 2601-node axes, 500k trials: 5202 cells x 3 class pairs per cell
        chain = random_chain(np.random.default_rng(1), 2, 2, eigenvalues=[0.0, 1.0])
        meters = [MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(1.0)) for k in range(2)]
        law = self._law(chain, meters, 500_000)
        assert law.shape == (2, 2601) and law.cell_coefs is not None
        # three-box's 7206 cells x 3 class pairs lie between cli-presets'
        # 10k trials, drawn with per-trial coefficients, and 100k
        preset = build_three_box()
        laws = [self._law(preset.chain, list(preset.meters), n) for n in (10_000, 100_000)]
        assert [law.shape for law in laws] == [(3, 2402)] * 2
        assert [law.cell_coefs is None for law in laws] == [True, False]


@pytest.fixture(params=["chain", "grid"])
def draw(request, monkeypatch):
    """Forces sample_trials onto the chain-rule or the product-grid draw."""
    monkeypatch.setattr(sampling, "_chain_rule_pays", lambda *args: request.param == "chain")
    return request.param


_TEMPLATE_XS = np.linspace(-1.0, 1.0, 41)
_TEMPLATE = (1.0 - np.abs(_TEMPLATE_XS)) * (1.0 + 0.3 * _TEMPLATE_XS)
_TEMPLATE /= math.sqrt(np.trapezoid(_TEMPLATE**2, _TEMPLATE_XS))


# the even profiles' overlaps, C(d) = integral G(u - d/2) G(u + d/2) du
_OVERLAPS = {
    "gaussian": lambda w: lambda d: math.exp(-(d**2) / (8.0 * w**2)),
    "rectangular": lambda w: lambda d: max(0.0, 1.0 - abs(d) / w),
}


def _profile(shape, width):
    if shape == "tabulated":
        return PointerProfile.tabulated(_TEMPLATE_XS, _TEMPLATE, width)
    return getattr(PointerProfile, shape)(width)


def _weights(n, step):
    w = np.full(n, step)
    w[0] = w[-1] = step / 2.0
    return w


def _law_case(n_meters, n_points):
    """A dim-2, three-step chain with a Gaussian meter on each of the first
    n_meters steps (eigenvalues 0 and 1), on n_points-node grids."""
    chain = random_chain(np.random.default_rng(40 + n_meters), 2, 3, eigenvalues=[0.0, 1.0])
    meters = [MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(0.3)) for k in range(n_meters)]
    grids = [Grid(-1.6, 4.2 / (n_points - 1), n_points)] * n_meters
    return chain, meters, grids


def _oracle_masses(chain, meters, grids):
    """Cell masses of every (branch, i_0, ..., i_R-1): the loop-built joint
    density of each branch times the trapezoid weights of its cell."""
    paths = list(itertools.product(range(chain.dim), repeat=chain.n_steps))
    values = [[chain.steps[k].observable.eigenvalues[path[k]] for path in paths] for k in range(len(meters))]
    axes = [g.xs() for g in grids]
    weights = [_weights(g.n, g.step) for g in grids]
    masses = []
    for branch in chain.branches():
        amps = [path_amplitude_oracle(branch, path) for path in paths]
        density = brute_force_joint_density(amps, values, [m.profile for m in meters], axes)
        for r, w in enumerate(weights):
            density = density * w.reshape([-1 if s == r else 1 for s in range(len(grids))])
        masses.append(density)
    return np.array(masses)


def _cell_counts(trials, grids):
    """Trials per (branch, node index per axis) cell, in row-major order."""
    cell = trials.branches
    for r, g in enumerate(grids):
        cell = cell * g.n + np.rint((trials.readings[:, r] - g.start) / g.step).astype(int)
    return np.bincount(cell, minlength=(trials.branches.max() + 1) * math.prod(g.n for g in grids))


class TestChainRuleLaw:
    """The per-axis tables reproduce the joint (branch, readings) masses of
    the loop-built oracle density."""

    @pytest.mark.parametrize("n_meters, n_points", [(1, 40), (2, 25), (3, 9)])
    def test_first_axis_table_is_the_marginal(self, monkeypatch, n_meters, n_points):
        monkeypatch.setattr(sampling, "_chain_rule_pays", lambda *args: True)
        chain, meters, grids = _law_case(n_meters, n_points)
        keys, amps = _branch_amplitudes(chain, [m.functional for m in meters], chain.branches())
        law = sampling._ChainLaw(keys, amps, [m.profile for m in meters], grids, 1)
        oracle = _oracle_masses(chain, meters, grids)
        expected = oracle.sum(axis=tuple(range(2, oracle.ndim)))
        # the first table is held as its CDF
        assert law.shape == expected.shape
        assert np.allclose(law.cdf, np.cumsum(expected), rtol=1e-12, atol=1e-12 * expected.max())

    @pytest.mark.parametrize("n_meters, n_points, n_trials", [(2, 40, 400_000), (3, 12, 400_000)])
    def test_cell_frequencies_chi_square(self, draw, n_meters, n_points, n_trials):
        chain, meters, grids = _law_case(n_meters, n_points)
        masses = _oracle_masses(chain, meters, grids).reshape(-1)
        trials = sample_trials(chain, meters, n_trials, seed=23 + n_meters, grids=grids)
        counts = _cell_counts(trials, grids)
        expected = n_trials * masses / masses.sum()
        # cells expecting fewer than 5 trials are pooled into one
        big = expected >= 5.0
        observed = np.append(counts[big], counts[~big].sum())
        expected = np.append(expected[big], expected[~big].sum())
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        dof = observed.size - 1
        assert chi2 <= dof + 6.0 * math.sqrt(2.0 * dof)

    @pytest.mark.parametrize("n_meters, n_points", [(2, 40), (3, 12)])
    def test_product_grid_draw_reads_one_uniform_per_trial(self, monkeypatch, n_meters, n_points):
        # a first table over every axis leaves no later axis: trial i takes
        # the cell of the flat CDF above the uniform at stream position i
        monkeypatch.setattr(sampling, "_chain_rule_pays", lambda *args: False)
        chain, meters, grids = _law_case(n_meters, n_points)
        n, seed = 50_000, 31
        trials = sample_trials(chain, meters, n, seed=seed, grids=grids)
        masses = _oracle_masses(chain, meters, grids)
        cdf = np.cumsum(masses.reshape(-1))
        cells = np.minimum(np.searchsorted(cdf, uniform_block(seed, 0, n) * masses.sum(), side="right"), cdf.size - 1)
        branches, *nodes = np.unravel_index(cells, masses.shape)
        assert np.array_equal(trials.branches, branches)
        for r, (g, i) in enumerate(zip(grids, nodes)):
            assert np.array_equal(trials.readings[:, r], g.xs()[i])

    @given(
        st.integers(0, 10_000),
        st.integers(2, 3),
        st.integers(1, 3),
        st.sampled_from([0.3, 1.0, 4.0]),
        st.sampled_from(["gaussian", "rectangular", "tabulated"]),
    )
    @settings(max_examples=25, deadline=None)
    # the worst draw of the strategies: a nearly cancelling chain (norm
    # 0.008) whose tabulated mean a 2^14-point lattice left 1.3e-7 off
    @example(seed=514, dim=3, n_meters=1, width=4.0, shape="tabulated")
    def test_exact_numbers_match_the_joint_density(self, seed, dim, n_meters, width, shape):
        chain = random_chain(np.random.default_rng(seed), dim, 3, eigenvalues=np.linspace(-1.0, 1.0, dim))
        meters = [MeterSpec(PathFunctional.step_eigenvalue(k), _profile(shape, width)) for k in range(n_meters)]
        grids = [Grid.cover([-1.0, 1.0], width, step=width / 4)] * n_meters
        joints = [joint_reading_distribution(b, meters, grids) for b in chain.branches()]
        first = joints[0]
        # both draws, whichever _chain_rule_pays would pick (a fixture of
        # monkeypatch's scope would outlive each example)
        for chain_rule in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sampling, "_chain_rule_pays", lambda *args: chain_rule)
                trials = sample_trials(chain, meters, 10, seed=seed, grids=grids)
            assert trials.exact_success_probability == pytest.approx(
                first.norm / sum(j.norm for j in joints), rel=1e-12, abs=1e-12
            )
            for r in range(n_meters):
                assert trials.exact_means[r] == pytest.approx(first.marginal_mean(r), rel=1e-12, abs=1e-12)
        # the closed form on the selected branch's own walk, as exact mode uses it
        keys, amps = grouped_amplitudes(chain, [m.functional for m in meters])
        norms, means = _moments(keys, amps, [m.profile for m in meters])
        if shape == "tabulated":
            # the uneven template's overlaps by quadrature, against the lattice's
            overlaps, midpoints = zip(*(quadrature_overlaps(m.profile) for m in meters))
            tol = 1e-7
        else:
            overlaps = [_OVERLAPS[shape](width)] * n_meters
            midpoints, tol = None, 1e-12
        oracle_norms, oracle_means = closed_form_moments(keys, amps, overlaps, midpoints)
        assert norms[0] == pytest.approx(oracle_norms[0], rel=tol)
        assert means == pytest.approx(oracle_means, rel=tol, abs=tol)


class TestChunkInvariance:
    def _case(self, n_meters):
        chain = random_chain(np.random.default_rng(7 + n_meters), 2, n_meters, eigenvalues=[0.0, 1.0])
        meters = [MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(0.5)) for k in range(n_meters)]
        grids = [Grid.cover([0.0, 1.0], 0.5, step=0.05)] * n_meters
        return chain, meters, grids

    @pytest.mark.parametrize("n_meters", [2, 3])
    def test_prefix_of_a_longer_run(self, draw, n_meters):
        chain, meters, grids = self._case(n_meters)
        k = CHUNK + 1234
        long = sample_trials(chain, meters, 3 * CHUNK + 5, seed=13, grids=grids)
        short = sample_trials(chain, meters, k, seed=13, grids=grids)
        assert np.array_equal(long.readings[:k], short.readings)
        assert np.array_equal(long.branches[:k], short.branches)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("n_meters, step", [(2, 0.002), (3, 0.005)])
    def test_prefix_across_the_per_cell_rule(self, monkeypatch, n_meters, step, workers):
        # the first later axis's coefficients are tabulated per first-table
        # cell where cells x class pairs <= trials: the short run falls below
        # that count and gathers none, the long run gathers them
        monkeypatch.setattr(sampling, "_chain_rule_pays", lambda *args: True)
        laws = []

        class Spy(sampling._ChainLaw):
            def __init__(self, *args):
                super().__init__(*args)
                laws.append(self)

        monkeypatch.setattr(sampling, "_ChainLaw", Spy)
        chain, meters, grids = self._case(n_meters)
        grids = [Grid.cover([0.0, 1.0], 0.5, step=step)] + grids[1:]
        # 2 branches x axis-0 nodes x pairs of the 2^(R-1) classes of later values
        per_cell = 2 * grids[0].n * math.comb(2 ** (n_meters - 1) + 1, 2)
        k, n = per_cell - 1, 3 * CHUNK + 5
        assert CHUNK < k < n
        short = sample_trials(chain, meters, k, seed=13, grids=grids, max_workers=workers)
        long = sample_trials(chain, meters, n, seed=13, grids=grids, max_workers=workers)
        assert [law.cell_coefs is None for law in laws] == [True, False]
        assert np.array_equal(long.readings[:k], short.readings)
        assert np.array_equal(long.branches[:k], short.branches)

    @pytest.mark.parametrize("n_meters", [2, 3])
    def test_worker_count_is_invisible(self, draw, n_meters):
        chain, meters, grids = self._case(n_meters)
        n = 3 * CHUNK + 17
        one = sample_trials(chain, meters, n, seed=5, grids=grids, max_workers=1)
        many = sample_trials(chain, meters, n, seed=5, grids=grids, max_workers=4)
        assert np.array_equal(one.readings, many.readings)
        assert np.array_equal(one.branches, many.branches)
