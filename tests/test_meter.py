import math

import numpy as np
import pytest

from helpers import (
    brute_force_joint_density,
    count_grouped_amplitudes,
    gaussian_overlap_mean,
    gaussian_overlap_norm,
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
    amplitude_distribution,
    build_difference_meter,
    build_minus_hundred,
    build_projector_postselected,
    build_three_box,
    conditional_state,
    evolve,
    final_pointer_state,
    joint_reading_distribution,
    mean_reading,
    path_amplitudes,
    reading_distribution,
    relative_amplitudes,
    strong_limit_bins,
    strong_mean,
    total_reading_distribution,
    weak_limit_report,
    weak_value,
    window_masses,
)


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
        carried = evolve(state, chain.propagator, chain.total_time - chain.steps[0].time)
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
            Grid.cover([0.0, 1.0], 0.5, points_per_width=50),
            Grid.cover([0.0, 1.0], 1000.0, points_per_width=50),
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
