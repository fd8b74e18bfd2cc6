import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    brute_force_joint_density,
    closed_form_moments,
    count_grouped_amplitudes,
    gaussian_overlap_mean,
    gaussian_overlap_norm,
    quadrature_overlaps,
    random_chain,
    random_spin_chain,
)
from qpathnet import (
    AmplitudeDistribution,
    Grid,
    JointDistribution,
    MeterSpec,
    PathFunctional,
    PointerDistribution,
    PointerProfile,
    StateVector,
    amplitude_distribution,
    build_difference_meter,
    build_minus_hundred,
    build_projector_postselected,
    build_three_box,
    conditional_state,
    final_pointer_state,
    joint_reading_distribution,
    mean_reading,
    path_amplitudes,
    pointer_distribution,
    reading_distribution,
    relative_amplitudes,
    strong_limit_bins,
    strong_mean,
    total_reading_distribution,
    weak_limit_report,
    weak_value,
    window_masses,
)
from qpathnet.meter import MAX_GRID_CELLS, MAX_MOMENT_PAIRS, GridCapError, WeakLimitReport, _check_grids, _moments


def quad(grid, values):
    return float(np.asarray(values) @ grid.weights())


class TestProfiles:
    @pytest.mark.parametrize("width", [0.1, 1.0, 37.5])
    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    def test_squared_norm(self, shape, width):
        profile = getattr(PointerProfile, shape)(width)
        grid = Grid.cover([0.0], width, pad=8.0)
        assert quad(grid, profile.samples(grid.xs()) ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_tabulated_profile(self):
        # unit-width triangle, normalized against the table's own quadrature
        xs = np.linspace(-1, 1, 2001)
        vals = 1.0 - np.abs(xs)
        vals /= math.sqrt(np.trapezoid(vals**2, xs))
        profile = PointerProfile.tabulated(xs, vals, width=2.0)
        grid = Grid(-4.0, 0.001, 8001)
        assert quad(grid, profile.samples(grid.xs()) ** 2) == pytest.approx(1.0, abs=1e-6)

    def test_tabulated_rejects_unnormalized(self):
        xs = np.linspace(-1, 1, 101)
        with pytest.raises(ValueError, match="integral"):
            PointerProfile.tabulated(xs, np.ones_like(xs))

    @pytest.mark.parametrize("table", ["xs", "values"])
    def test_tabulated_rejects_non_finite_templates(self, table):
        # NaN passes both `abs(norm - 1) > 1e-8` and `diff(xs) <= 0` unrefused
        xs = np.linspace(-1, 1, 101)
        vals = np.full_like(xs, 2.0**-0.5)
        (xs if table == "xs" else vals)[50] = math.nan
        with pytest.raises(ValueError, match=rf"template_{table} must be finite"):
            PointerProfile.tabulated(xs, vals)

    def test_rejects_complex_values(self):
        xs = np.linspace(-1, 1, 101)
        with pytest.raises(ValueError, match="real"):
            PointerProfile.tabulated(xs, np.ones_like(xs) * 1j)

    def test_scaling_law(self):
        xi = np.linspace(-30, 30, 101)
        for shape in ("gaussian", "rectangular"):
            unit = getattr(PointerProfile, shape)(1.0)
            wide = getattr(PointerProfile, shape)(7.0)
            assert np.allclose(wide.samples(xi), 7.0**-0.5 * unit.samples(xi / 7.0), atol=1e-14)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError, match="width"):
            PointerProfile.gaussian(0.0)

    @pytest.mark.parametrize("width", [1e-300, 1e-155, 1.3e154, 1e300])
    def test_gaussian_width_keeps_its_square_in_the_float_range(self, width):
        # 2 pi w^2 overflowed to inf at 1.3e154, and samples(0.0) read 0.0
        with pytest.raises(ValueError, match="gaussian width must lie in"):
            PointerProfile.gaussian(width)

    @pytest.mark.parametrize("width", [1.5e-154, 4.7e153])
    def test_gaussian_widths_at_the_ends_of_the_range(self, width):
        profile = PointerProfile.gaussian(width)
        peak = profile.samples(0.0)
        assert 0.0 < peak < math.inf and peak == pytest.approx((2.0 * math.pi) ** -0.25 / math.sqrt(width))
        assert profile.autocorrelation(width) == pytest.approx(math.exp(-1.0 / 8.0))

    def test_gaussian_values_past_the_overflow_of_the_square(self):
        # xi^2 overflowed above 1.34e154, and both read 0.0 where the true
        # value is not 0
        profile = PointerProfile.gaussian(4e153)
        assert profile.autocorrelation(1.5e154) == pytest.approx(math.exp(-((1.5e154 / 4e153) ** 2) / 8.0), rel=1e-12)
        expected = (2.0 * math.pi) ** -0.25 / math.sqrt(4e153) * math.exp(-((2e154 / 8e153) ** 2))
        assert profile.samples(np.array([2e154]))[0] == pytest.approx(expected, rel=1e-12)

    def test_a_gaussian_exponent_beyond_the_float_range_is_exactly_zero(self):
        # the quotient overflowed to inf with a warning, though exp(-inf) = 0 is right
        profile = PointerProfile.gaussian(1.5e-154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert profile.autocorrelation(100.0) == 0.0
            assert np.all(profile.samples(np.array([10.0, 1e300])) == 0.0)

    @pytest.mark.parametrize("width", [math.nan, math.inf])
    def test_width_must_be_finite(self, width):
        # `width <= 0` is False for NaN, which would reach a sweep as a NaN mean
        for shape in ("gaussian", "rectangular"):
            with pytest.raises(ValueError, match=rf"profile width must be positive and finite, not {width}"):
                getattr(PointerProfile, shape)(width)


class TestGrid:
    @pytest.mark.parametrize("start, step", [(0.0, math.nan), (math.nan, 0.1), (0.0, math.inf), (-math.inf, 0.1)])
    def test_start_and_step_must_be_finite(self, start, step):
        with pytest.raises(ValueError, match=rf"finite start \({start}\), a positive finite step \({step}\)"):
            Grid(start, step, 5)

    @pytest.mark.parametrize("width, pad", [(1e-320, 6.0), (1.0, 1e308)])
    def test_an_infinite_node_count_is_refused_by_the_cap(self, width, pad):
        with pytest.raises(GridCapError, match=r"inf cells exceed MAX_GRID_CELLS.*profile\.width"):
            Grid.cover([0.0, 1.0], width, pad=pad)

    def test_the_cap_counts_the_nodes_the_grid_holds(self):
        # pad 6.000005 at step 0.005 rounds up to 1201 nodes a side, so a float
        # count of MAX_GRID_CELLS - 0.5 is a grid of 33554435 nodes
        step, pad = 0.005, 6.000005
        hi = (MAX_GRID_CELLS - 0.5 - 2.0 * pad / step + 1e-12) * step
        with pytest.raises(GridCapError, match="33554435 cells"):
            Grid.cover([0.0, hi], 1.0, pad=pad, step=step)

    def test_a_covering_grid_passes_the_kernel_check(self):
        rng = np.random.default_rng(20)
        refused = 0
        for _ in range(300):
            width = 10.0 ** rng.uniform(-3.0, 3.0)
            step = width / rng.integers(2, 400)
            pad = rng.uniform(5.0, 9.0)
            hi = (MAX_GRID_CELLS + rng.uniform(-4.0, 2.0) - 2.0 * pad * width / step) * step
            keys = np.array([[-hi], [0.0]])
            try:
                grid = Grid.cover(keys[:, 0], width, pad=pad, step=step)
            except GridCapError as exc:
                assert exc.cells > MAX_GRID_CELLS
                refused += 1
                continue
            _check_grids(keys, [PointerProfile.gaussian(width)], [grid])
        assert 0 < refused < 300

    @pytest.mark.parametrize("pad", [4.9, math.nan])
    def test_a_pad_the_kernel_refuses_is_refused(self, pad):
        with pytest.raises(ValueError, match=rf"grid pad \({pad}\) must be at least MIN_PAD_WIDTHS"):
            Grid.cover([0.0, 1.0], 1.0, pad=pad)

    def test_a_refused_grid_of_one_meter_names_meter_zero(self):
        chain = random_chain(np.random.default_rng(3), 2, 2, eigenvalues=[1.0, -1.0])
        meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.rectangular(1e-320))
        with pytest.raises(GridCapError, match=r"meters\[0\]\.profile\.width \(1e-320\)"):
            reading_distribution(chain, meter)

    def test_a_refused_grid_of_several_names_its_meter(self):
        chain = random_chain(np.random.default_rng(3), 2, 2, eigenvalues=[1.0, -1.0])
        meters = [
            MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1.0)),
            MeterSpec(PathFunctional.step_eigenvalue(1), PointerProfile.rectangular(1e-320)),
        ]
        with pytest.raises(GridCapError, match=r"meters\[1\]\.profile\.width \(1e-320\)"):
            joint_reading_distribution(chain, meters)


class TestFinalPointerState:
    def test_single_point_is_shifted_profile(self):
        dist = AmplitudeDistribution([2.0], [1.0 + 0j])
        profile = PointerProfile.gaussian(0.7)
        grid = Grid.cover(dist.support, 0.7)
        amp = final_pointer_state(dist, profile, grid)
        assert np.allclose(amp, profile.samples(grid.xs() - 2.0), atol=1e-14)

    def test_three_term_form(self):
        preset = build_difference_meter()
        dist = amplitude_distribution(preset.chain, preset.meters[0].functional)
        profile = PointerProfile.gaussian(0.5)
        grid = Grid.cover(dist.support, 0.5)
        amp = final_pointer_state(dist, profile, grid)
        xs = grid.xs()
        expected = (
            dist.amplitudes[1] * profile.samples(xs)
            + dist.amplitudes[0] * profile.samples(xs + 2.0)
            + dist.amplitudes[2] * profile.samples(xs - 2.0)
        )
        assert np.allclose(amp, expected, atol=1e-14)

    def test_linearity(self):
        support = [0.0, 1.0]
        a = AmplitudeDistribution(support, [0.3 + 0.1j, -0.2j])
        b = AmplitudeDistribution(support, [0.1 - 0.4j, 0.5])
        combo = AmplitudeDistribution(support, a.amplitudes + b.amplitudes)
        profile = PointerProfile.gaussian(1.0)
        grid = Grid.cover(support, 1.0)
        assert np.allclose(
            final_pointer_state(combo, profile, grid),
            final_pointer_state(a, profile, grid) + final_pointer_state(b, profile, grid),
            atol=1e-14,
        )

    def test_narrow_grid_rejected(self):
        dist = AmplitudeDistribution([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="too narrow"):
            final_pointer_state(dist, PointerProfile.gaussian(1.0), Grid(-2.0, 0.01, 401))


class TestReadingDistribution:
    def test_no_selection_total_matches_population_formula(self):
        rng = np.random.default_rng(2)
        chain = random_chain(rng, 2, 1, zero_h=True, eigenvalues=[1.0, 0.0]).with_completion()
        meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(0.8))
        total = total_reading_distribution(chain, meter)
        c = chain.steps[0].observable.eigenvectors.conj().T @ chain.pre_state.amplitudes
        xs = total.grids[0].xs()
        g = meter.profile.samples
        expected = abs(c[0]) ** 2 * g(xs - 1.0) ** 2 + abs(c[1]) ** 2 * g(xs) ** 2
        assert np.allclose(total.density, expected, atol=1e-12)
        assert total.norm == pytest.approx(1.0, abs=1e-6)

    def test_total_walks_the_chain_once(self, monkeypatch):
        chain = random_chain(np.random.default_rng(6), 3, 2)
        meter = MeterSpec(PathFunctional.step_eigenvalue(1), PointerProfile.gaussian(1.0))
        calls = count_grouped_amplitudes(monkeypatch)
        total = total_reading_distribution(chain, meter)
        assert calls == [1]
        parts = [reading_distribution(b, meter, total.grids[0]).density for b in chain.branches()]
        assert total.density.tobytes() == sum(parts[1:], parts[0]).tobytes()

    def test_probability_conservation_over_branches(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            chain = random_chain(rng, 3, 1)
            meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1.0))
            assert total_reading_distribution(chain, meter).norm == pytest.approx(1.0, abs=1e-6)

    def test_destructive_interference_suppresses_everything(self):
        preset = build_minus_hundred()
        meter = MeterSpec(preset.meters[0].functional, PointerProfile.gaussian(1e4))
        dist = reading_distribution(preset.chain, meter)
        # survives only at the level of the tiny residual amplitude mismatch
        assert dist.norm < 1e-3

    def test_weak_limit_leaves_transition_untouched(self):
        rng = np.random.default_rng(14)
        chain = random_chain(rng, 2, 1, eigenvalues=[1.0, -1.0])
        meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1e4))
        dist = reading_distribution(chain, meter)
        free = abs(chain.transition_amplitude()) ** 2
        assert dist.norm == pytest.approx(free, rel=1e-3)
        # density collapses onto the squared profile shape
        g2 = meter.profile.samples(dist.grids[0].xs()) ** 2
        assert np.allclose(dist.density / dist.norm, g2 / quad(dist.grids[0], g2), atol=1e-8)


class TestMeanReading:
    def test_symmetric_density(self):
        grid = Grid(-5.0, 0.01, 2001)
        density = np.exp(-((grid.xs() - 3.0) ** 2))
        p = PointerDistribution((grid,), density)
        assert mean_reading(p) == pytest.approx(3.0, abs=1e-9)

    def test_strong_grid_matches_strong_mean(self):
        preset = build_difference_meter()
        chain, functional = preset.chain, preset.meters[0].functional
        meter = MeterSpec(functional, PointerProfile.gaussian(0.05))
        assert mean_reading(reading_distribution(chain, meter)) == pytest.approx(
            strong_mean(chain, functional), abs=1e-6
        )

    def test_weak_sweep_converges(self):
        preset = build_difference_meter()
        report = weak_limit_report(preset.chain, preset.meters[0].functional, (5.0, 50.0, 500.0))
        assert report.monotone
        assert report.errors[-1] < 1e-4

    def test_zero_mass_rejected(self):
        grid = Grid(0.0, 0.1, 11)
        with pytest.raises(ValueError, match="zero total mass"):
            mean_reading(PointerDistribution((grid,), np.zeros(11)))


class TestGaussianOracle:
    def test_grid_matches_closed_form(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            support = np.sort(rng.uniform(-3, 3, n))
            while n > 1 and np.min(np.diff(support)) < 0.3:
                support = np.sort(rng.uniform(-3, 3, n))
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            width = float(rng.uniform(0.4, 4.0))
            dist = AmplitudeDistribution(support, amps)
            profile = PointerProfile.gaussian(width)
            grid = Grid.cover(support, width)
            density = np.abs(final_pointer_state(dist, profile, grid)) ** 2
            p = PointerDistribution((grid,), density)
            assert p.norm == pytest.approx(
                gaussian_overlap_norm(support, amps, width), abs=1e-6
            )
            assert mean_reading(p) == pytest.approx(
                gaussian_overlap_mean(support, amps, width), abs=1e-6
            )


class TestClosedFormMoments:
    """meter._moments against the pair-by-pair oracle of tests/helpers.py."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_axes", [1, 2, 3])
    @pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
    def test_against_the_pair_oracle(self, shape, n_axes, seed):
        # two amplitude columns over groups with a few shared values per axis
        rng = np.random.default_rng(seed)
        keys = rng.integers(-2, 3, size=(7, n_axes)) * rng.uniform(0.5, 1.5, size=n_axes)
        amps = rng.normal(size=(7, 2)) + 1j * rng.normal(size=(7, 2))
        profiles = [getattr(PointerProfile, shape)(w) for w in rng.uniform(0.3, 4.0, size=n_axes)]
        norms, means = _moments(keys, amps, profiles)
        want_norms, want_means = closed_form_moments(keys, amps, [p.autocorrelation for p in profiles])
        assert norms == pytest.approx(want_norms, rel=1e-12)
        assert means == pytest.approx(want_means, rel=1e-12, abs=1e-12)

    @staticmethod
    def _template(name):
        if name == "vanishing ends":
            xs = np.linspace(-1.0, 1.0, 41)
            vals = (1.0 - np.abs(xs)) * (1.0 + 0.3 * xs)
        else:
            xs = np.linspace(-2.0, 3.0, 51)
            vals = np.exp(-(xs**2) / 4.0)
        return xs, vals / math.sqrt(np.trapezoid(vals**2, xs))

    @pytest.mark.parametrize("template", ["vanishing ends", "uneven truncated gaussian"])
    @pytest.mark.parametrize("width", [0.5, 3.0])
    def test_tabulated_overlaps_match_quadrature(self, template, width):
        # both templates are uneven, so their midpoint moment D is not 0
        profile = PointerProfile.tabulated(*self._template(template), width)
        overlap, midpoint = quadrature_overlaps(profile)
        for delta in (0.0, 0.013, 0.37, 1.0, 1.9, 4.9, 5.1):
            delta *= width
            assert profile.autocorrelation(delta) == pytest.approx(overlap(delta), abs=1e-8)
            assert profile.autocorrelation(delta, 1) == pytest.approx(midpoint(delta), abs=1e-8 * width)
        assert abs(midpoint(0.0)) > 0.01 * width

    @pytest.mark.parametrize("template", ["vanishing ends", "uneven truncated gaussian"])
    def test_uneven_tabulated_mean_matches_the_density(self, template):
        profile = PointerProfile.tabulated(*self._template(template), 2.0)
        dist = AmplitudeDistribution(np.array([0.0, 1.0, 2.5]), np.array([0.6 + 0.1j, -0.3 + 0.2j, 0.1 - 0.4j]))
        norms, (mean,) = _moments(dist.support[:, None], dist.amplitudes, [profile])
        # the grid's trapezoid sums are O(step) off where the template jumps to 0
        density = pointer_distribution(dist, profile, Grid.cover(dist.support, 2.0, step=2.0 / 4000))
        assert norms[0] == pytest.approx(density.norm, rel=1e-4)
        assert mean == pytest.approx(mean_reading(density), rel=1e-4)
        overlap, midpoint = quadrature_overlaps(profile)
        want_norms, want_means = closed_form_moments(dist.support, dist.amplitudes, [overlap], [midpoint])
        assert norms[0] == pytest.approx(want_norms[0], rel=1e-7)
        assert mean == pytest.approx(want_means[0], rel=1e-7)

    def test_tabulated_autocorrelation_is_not_renormalised(self):
        # the interpolant's own integral g^2, where the knots' trapezoid gives 1
        xs = np.linspace(-1.0, 1.0, 41)
        vals = (1.0 - np.abs(xs)) * (1.0 + 0.3 * xs)
        vals /= math.sqrt(np.trapezoid(vals**2, xs))
        assert PointerProfile.tabulated(xs, vals, 2.0).autocorrelation(0.0) == pytest.approx(0.99873, abs=1e-5)

    def test_pair_cap_refuses_before_allocating(self):
        n = math.isqrt(MAX_MOMENT_PAIRS) + 1
        keys, amps = np.arange(float(n))[:, None], np.ones(n, dtype=complex)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_MOMENT_PAIRS"):
                _moments(keys, amps, [PointerProfile.gaussian(1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_zero_mass_refused(self):
        with pytest.raises(ValueError, match="zero total mass"):
            _moments(np.array([[0.0], [1.0]]), np.zeros(2, dtype=complex), [PointerProfile.gaussian(1.0)])


class TestConditionalState:
    def test_requires_single_step(self):
        preset = build_difference_meter()
        with pytest.raises(ValueError, match="exactly one step"):
            conditional_state(preset.chain, preset.meters[0], 0.0)

    def test_narrow_window_projects(self):
        preset = build_projector_postselected()
        meter = MeterSpec(preset.meters[0].functional, PointerProfile.rectangular(0.1))
        state = conditional_state(preset.chain, meter, 1.0)
        normed = state.normalized()
        assert abs(normed.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)

    def test_flat_window_restores_input(self):
        preset = build_projector_postselected()
        meter = MeterSpec(preset.meters[0].functional, PointerProfile.rectangular(10.0))
        state = conditional_state(preset.chain, meter, 0.5).normalized()
        overlap = abs(state.inner(preset.chain.pre_state))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_weights_match_formula(self):
        preset = build_projector_postselected()
        chain = preset.chain
        meter = MeterSpec(preset.meters[0].functional, PointerProfile.gaussian(0.6))
        xi0 = 0.5
        state = conditional_state(chain, meter, xi0)
        g = meter.profile.samples
        entering = chain.steps[0].observable.eigenvectors.conj().T @ chain.pre_state.amplitudes
        expected = chain.steps[0].observable.eigenvectors @ (
            np.array([g(np.array([xi0 - 1.0]))[0], g(np.array([xi0]))[0]]) * entering
        )
        assert np.allclose(state.amplitudes, expected, atol=1e-14)

    def test_reading_density_factorizes_through_it(self):
        rng = np.random.default_rng(6)
        chain = random_chain(rng, 2, 1, eigenvalues=[1.0, 0.0])
        meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(0.8))
        dist = reading_distribution(chain, meter)
        i = dist.grids[0].n // 3
        xi0 = float(dist.grids[0].xs()[i])
        state = conditional_state(chain, meter, xi0)
        u = chain.propagator.unitary(chain.total_time - chain.steps[0].time)
        carried = StateVector(u @ state.amplitudes)
        amp = chain.post_state.inner(carried)
        assert dist.density[i] == pytest.approx(abs(amp) ** 2, abs=1e-12)


class TestJointDistribution:
    def test_one_type_with_a_derived_norm(self):
        assert JointDistribution is PointerDistribution
        grids = (Grid(0.0, 0.5, 5), Grid(-1.0, 0.25, 9))
        density = np.arange(45.0).reshape(5, 9)
        joint = PointerDistribution(grids, density)
        assert joint.norm == pytest.approx(grids[0].weights() @ density @ grids[1].weights(), rel=1e-15)
        assert joint.marginal(1).norm == pytest.approx(joint.norm, rel=1e-15)
        with pytest.raises(TypeError):
            PointerDistribution(grids, density, 1.0)

    def test_single_meter_reduces_exactly(self):
        preset = build_projector_postselected()
        meter = preset.meters[0]
        single = reading_distribution(preset.chain, meter)
        joint = joint_reading_distribution(preset.chain, [meter], [single.grids[0]])
        assert np.array_equal(joint.density, single.density)
        assert joint.norm == pytest.approx(single.norm, abs=1e-14)

    def test_single_meter_reduces_exactly_on_rounded_eigenvalues(self):
        chain = random_spin_chain(np.random.default_rng(51), 12)
        assert any(set(s.observable.eigenvalues.tolist()) != {-1.0, 1.0} for s in chain.steps)
        meter = MeterSpec(PathFunctional.weighted_steps([1.0] * 12), PointerProfile.gaussian(0.5))
        single = reading_distribution(chain, meter)
        joint = joint_reading_distribution(chain, [meter])
        assert joint.grids == (single.grids[0],)
        assert np.array_equal(joint.density, single.density)
        assert joint.norm == single.norm

    def test_against_brute_force(self):
        preset = build_three_box()
        chain = preset.chain
        meters = [
            MeterSpec(PathFunctional.path_indicator((0,)), PointerProfile.gaussian(0.8)),
            MeterSpec(PathFunctional.path_indicator((2,)), PointerProfile.gaussian(1.2)),
        ]
        grids = [Grid(-5.0, 0.5, 23), Grid(-7.0, 0.7, 23)]
        joint = joint_reading_distribution(chain, meters, grids)
        brute = brute_force_joint_density(
            path_amplitudes(chain),
            [m.functional.values(chain) for m in meters],
            [m.profile for m in meters],
            [g.xs() for g in grids],
        )
        assert np.allclose(joint.density, brute, atol=1e-12)

    def test_three_box_weak_marginals(self):
        preset = build_three_box()
        joint = joint_reading_distribution(preset.chain, list(preset.meters))
        assert joint.marginal_mean(0) == pytest.approx(1.0, abs=1e-3)
        assert joint.marginal_mean(1) == pytest.approx(1.0, abs=1e-3)

    def test_strong_conditioning_changes_companion_statistics(self):
        # an accurate first meter selects the first path; the second meter
        # then reads its value there (0), not the weak marginal (1)
        preset = build_three_box()
        chain = preset.chain
        meters = [
            MeterSpec(PathFunctional.path_indicator((0,)), PointerProfile.rectangular(0.5)),
            MeterSpec(PathFunctional.path_indicator((2,)), PointerProfile.gaussian(1000.0)),
        ]
        grids = [
            Grid.cover([0.0, 1.0], 0.5, step=0.5 / 50),
            Grid.cover([0.0, 1.0], 1000.0, step=1000.0 / 50),
        ]
        joint = joint_reading_distribution(chain, meters, grids)
        conditioned = joint.restricted(0, 0.75, 1.25)
        mean2 = mean_reading(conditioned)
        assert mean2 == pytest.approx(0.0, abs=1e-6)
        weak = joint_reading_distribution(chain, list(preset.meters)).marginal_mean(1)
        assert abs(mean2 - weak) > 0.9

    def test_grid_count_mismatch(self):
        preset = build_three_box()
        with pytest.raises(ValueError, match="one grid per meter"):
            joint_reading_distribution(preset.chain, list(preset.meters), [Grid(-5, 0.1, 200)])


class TestStrongLimit:
    def test_projector_bins(self):
        preset = build_projector_postselected()
        bins = strong_limit_bins(preset.chain, preset.meters[0].functional)
        assert bins[1.0] == pytest.approx(0.4, abs=1e-12)
        assert bins[0.0] == pytest.approx(0.1, abs=1e-12)

    def test_difference_bins_group_before_squaring(self):
        preset = build_difference_meter()
        amps = path_amplitudes(preset.chain)
        bins = strong_limit_bins(preset.chain, preset.meters[0].functional)
        assert bins[0.0] == pytest.approx(abs(amps[0] + amps[3]) ** 2, abs=1e-12)
        assert bins[-2.0] == pytest.approx(abs(amps[2]) ** 2, abs=1e-12)
        assert bins[2.0] == pytest.approx(abs(amps[1]) ** 2, abs=1e-12)

    def test_deterministic_chain(self):
        preset = build_projector_postselected(psi=(1.0, 0.0), phi=(1.0, 0.0))
        bins = strong_limit_bins(preset.chain, preset.meters[0].functional)
        assert bins[1.0] == pytest.approx(1.0, abs=1e-14)
        assert bins[0.0] == pytest.approx(0.0, abs=1e-14)

    def test_rectangular_window_masses_are_exact(self):
        preset = build_difference_meter()
        chain, functional = preset.chain, preset.meters[0].functional
        meter = MeterSpec(functional, PointerProfile.rectangular(0.5))
        dist = reading_distribution(chain, meter)
        bins = strong_limit_bins(chain, functional)
        masses = window_masses(dist, list(bins))
        for f, mass in bins.items():
            assert abs(masses[f] - mass) < 1e-10


class TestWeakLimitReport:
    def test_difference_limit_from_relative_amplitudes(self):
        preset = build_difference_meter()
        chain, functional = preset.chain, preset.meters[0].functional
        report = weak_limit_report(chain, functional, (10.0, 100.0, 1000.0))
        rel = relative_amplitudes(chain, functional)
        assert report.limit == pytest.approx(
            2.0 * (rel[2.0].real - rel[-2.0].real), abs=1e-12
        )
        assert abs(report.means[-1] - report.limit) < 1e-5

    def test_projector_limit_is_first_relative_amplitude(self):
        preset = build_projector_postselected()
        chain, functional = preset.chain, preset.meters[0].functional
        report = weak_limit_report(chain, functional, (10.0, 100.0))
        rel = relative_amplitudes(chain, functional)
        assert report.limit == pytest.approx(rel[1.0].real, abs=1e-12)

    def test_single_path_chain_is_width_independent(self):
        preset = build_projector_postselected(psi=(1.0, 0.0), phi=(1.0, 0.0))
        report = weak_limit_report(preset.chain, preset.meters[0].functional, (1.0, 10.0, 100.0))
        for m in report.means:
            assert m == pytest.approx(1.0, abs=1e-6)  # quadrature tolerance

    @pytest.mark.parametrize("build", [build_projector_postselected, build_three_box])
    def test_preset_sweeps_are_monotone(self, build):
        preset = build()
        report = weak_limit_report(preset.chain, preset.meters[0].functional, preset.sweep_widths)
        assert report.monotone
        if preset.name == "projector":
            # the error falls as 1/w^2 over every width: 9.26e-5 at width 10
            for w, e in zip(report.widths, report.errors):
                assert e == pytest.approx(9.26e-5 * (10.0 / w) ** 2, rel=1e-3)
        else:
            # A(0) of the first-path indicator is exactly 0
            assert report.errors == (0.0,) * len(report.widths)

    def test_monotone_needs_a_strict_decrease_of_nonzero_errors(self):
        assert not WeakLimitReport((1.0, 2.0), (0.5, 0.5), 0j).monotone
        assert not WeakLimitReport((1.0, 2.0), (0.0, 0.5), 0j).monotone
        assert WeakLimitReport((1.0, 2.0), (0.5, 0.0), 0j).monotone

    def test_widths_must_increase(self):
        preset = build_projector_postselected()
        with pytest.raises(ValueError, match="increasing"):
            weak_limit_report(preset.chain, preset.meters[0].functional, (10.0, 5.0))

    def test_builds_the_amplitude_distribution_once(self, monkeypatch):
        calls = count_grouped_amplitudes(monkeypatch)
        preset = build_minus_hundred()
        report = weak_limit_report(preset.chain, preset.meters[0].functional, (1.0, 10.0, 100.0, 1e3, 1e4))
        assert len(report.means) == 5
        assert calls == [1]


class TestSerialization:
    def test_two_axes_ask_for_a_marginal(self, tmp_path):
        preset = build_three_box()
        joint = joint_reading_distribution(preset.chain, list(preset.meters))
        with pytest.raises(ValueError, match=r"marginal\(axis\)"):
            mean_reading(joint)
        with pytest.raises(ValueError, match=r"marginal\(axis\)"):
            joint.write_csv(tmp_path / "joint.csv")
        assert not (tmp_path / "joint.csv").exists()
        assert mean_reading(joint.marginal(1)) == joint.marginal_mean(1)

    def test_negative_axes_count_from_the_end(self):
        preset = build_three_box()
        joint = joint_reading_distribution(preset.chain, list(preset.meters))
        last, lo, hi = joint.marginal(-1), -100.0, 100.0
        assert last.grids == joint.marginal(1).grids
        assert np.array_equal(last.density, joint.marginal(1).density)
        assert joint.marginal_mean(-2) == joint.marginal_mean(0)
        window = joint.restricted(-1, lo, hi)
        assert window.grids == joint.restricted(1, lo, hi).grids
        assert np.array_equal(window.density, joint.restricted(1, lo, hi).density)
        for bad in (2, -3):
            with pytest.raises(ValueError, match=rf"axis {bad} is out of range for n_axes = 2"):
                joint.marginal(bad)
            with pytest.raises(ValueError, match=rf"axis {bad} is out of range for n_axes = 2"):
                joint.restricted(bad, lo, hi)

    def test_csv_columns(self, tmp_path):
        preset = build_projector_postselected()
        dist = reading_distribution(preset.chain, preset.meters[0])
        path = tmp_path / "dist.csv"
        dist.write_csv(path)
        header, first = path.read_text().splitlines()[:2]
        assert header == "xi,density"
        xi, density = first.split(",")
        assert float(xi) == pytest.approx(dist.grids[0].start)
        assert float(density) == pytest.approx(dist.density[0])
        # the bytes of row-by-row csv.writer formatting, over several write blocks
        assert dist.grids[0].n > 2 * 1024
        rows = tmp_path / "rows.csv"
        with open(rows, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["xi", "density"])
            for x, d in zip(dist.grids[0].xs(), dist.density):
                writer.writerow([repr(float(x)), repr(float(d))])
        assert path.read_bytes() == rows.read_bytes()
