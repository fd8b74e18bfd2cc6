import math
import sys

import numpy as np
import pytest

from helpers import count_grouped_amplitudes, record_walks
from qpathnet import meter
from qpathnet.cli import main
from qpathnet import (
    AmplitudeDistribution,
    MeasurementChain,
    MeasurementStep,
    MeterSpec,
    Observable,
    PathFunctional,
    PointerProfile,
    Propagator,
    StateVector,
    amplitude_distribution,
    build_difference_meter,
    build_minus_hundred,
    build_preset,
    build_projector_postselected,
    build_three_box,
    path_amplitudes,
    relative_amplitudes,
    sample_trials,
    states_for_target_weak_value,
    strong_limit_probabilities,
    strong_mean,
    verify_preset,
    weak_value,
)


class TestProjectorPreset:
    def test_trivial_states_give_unit_weak_value(self):
        preset = build_projector_postselected(psi=(1.0, 0.0), phi=(1.0, 0.0))
        assert preset.expected["weak_value_re"].value == pytest.approx(1.0)
        assert weak_value(preset.chain, preset.meters[0].functional) == pytest.approx(1.0)

    def test_default_strong_mean(self):
        preset = build_projector_postselected()
        assert preset.expected["strong_mean"].value == pytest.approx(0.8, abs=1e-12)
        assert strong_mean(preset.chain, preset.meters[0].functional) == pytest.approx(0.8, abs=1e-12)

    def test_verification_passes(self):
        report = verify_preset(build_projector_postselected())
        assert report.passed, "\n".join(report.lines())


class TestMinusHundredPreset:
    def test_amplitude_ratio(self):
        preset = build_minus_hundred()
        amps = path_amplitudes(preset.chain)
        assert amps[1] / amps[0] == pytest.approx(-1.01, abs=1e-12)

    def test_weak_value(self):
        preset = build_minus_hundred()
        assert weak_value(preset.chain, preset.meters[0].functional).real == pytest.approx(
            -100.0, abs=1e-9
        )

    def test_verification_passes(self):
        report = verify_preset(build_minus_hundred())
        assert report.passed, "\n".join(report.lines())

    def test_sweep_error_shrinks(self):
        from qpathnet import weak_limit_report

        preset = build_minus_hundred()
        report = weak_limit_report(
            preset.chain, preset.meters[0].functional, preset.sweep_widths
        )
        assert report.monotone
        assert report.errors[-1] / 100.0 <= 0.05


class TestDifferencePreset:
    def test_support(self):
        preset = build_difference_meter()
        values = preset.meters[0].functional.values(preset.chain)
        assert sorted(set(values.tolist())) == [-2.0, 0.0, 2.0]

    def test_repeated_observable_reads_zero(self):
        z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
        preset = build_difference_meter(
            psi=(0.6, 0.8), phi=(1.0, 0.0), a_matrix=z, b_matrix=z
        )
        f = preset.meters[0].functional
        assert strong_mean(preset.chain, f) == pytest.approx(0.0, abs=1e-12)
        assert weak_value(preset.chain, f) == pytest.approx(0.0, abs=1e-12)

    def test_means_against_product_oracle(self):
        # independent evaluation from the four amplitude products
        psi = np.array([1.0, 0.0], dtype=complex)
        phi = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
        preset = build_difference_meter(psi=tuple(psi), phi=tuple(phi))
        chain = preset.chain
        a_vecs = chain.steps[0].observable.eigenvectors
        b_vecs = chain.steps[1].observable.eigenvectors
        amps = {}
        for i in range(2):
            for j in range(2):
                amps[(i, j)] = (
                    np.vdot(phi, b_vecs[:, j]) * np.vdot(b_vecs[:, j], a_vecs[:, i]) * np.vdot(a_vecs[:, i], psi)
                )
        values = {(i, j): chain.steps[1].observable.eigenvalues[j] - chain.steps[0].observable.eigenvalues[i] for i, j in amps}
        weights = {}
        for key, amp in amps.items():
            weights[values[key]] = weights.get(values[key], 0.0) + amp
        p = {f: abs(a) ** 2 for f, a in weights.items()}
        strong_expected = sum(f * w for f, w in p.items()) / sum(p.values())
        weak_expected = (sum(f * w for f, w in weights.items()) / sum(weights.values())).real
        f = preset.meters[0].functional
        assert strong_mean(chain, f) == pytest.approx(strong_expected, abs=1e-12)
        assert weak_value(chain, f).real == pytest.approx(weak_expected, abs=1e-12)

    def test_default_state_keeps_grouped_paths_interfering(self):
        preset = build_difference_meter()
        amps = path_amplitudes(preset.chain)
        assert float(np.real(amps[0] * np.conj(amps[3]))) >= 0.05

    def test_verification_passes(self):
        report = verify_preset(build_difference_meter())
        assert report.passed, "\n".join(report.lines())

    def test_weak_from_relative_is_checked_through_relative(self, monkeypatch):
        relative = AmplitudeDistribution.relative

        def doubled(self):
            return {f: 2 * a for f, a in relative(self).items()}

        monkeypatch.setattr(AmplitudeDistribution, "relative", doubled)
        report = verify_preset(build_difference_meter())
        assert [c.name for c in report.checks if not c.passed] == ["weak_from_relative"]


class TestThreeBoxPreset:
    def test_amplitudes_proportional_to_alternating_signs(self):
        preset = build_three_box()
        amps = path_amplitudes(preset.chain)
        assert np.allclose(amps, [1 / 3, -1 / 3, 1 / 3], atol=1e-12)

    def test_phase_of_c_carries_through(self):
        preset = build_three_box(c=1j)
        amps = path_amplitudes(preset.chain)
        assert np.allclose(amps, [1j / 3, -1j / 3, 1j / 3], atol=1e-12)
        rel = relative_amplitudes(preset.chain, PathFunctional.step_eigenvalue(0))
        assert np.allclose(sorted(v.real for v in rel.values()), [-1.0, 1.0, 1.0], atol=1e-12)

    def test_relative_amplitudes_sum_fixes_middle_path(self):
        preset = build_three_box()
        rel = relative_amplitudes(preset.chain, PathFunctional.step_eigenvalue(0))
        total = sum(rel.values())
        assert total == pytest.approx(1.0, abs=1e-12)
        assert rel[2.0].real == pytest.approx(-1.0, abs=1e-9)

    def test_strong_indicators_pick_single_paths(self):
        preset = build_three_box()
        first = strong_limit_probabilities(preset.chain, PathFunctional.path_indicator((0,)))
        third = strong_limit_probabilities(preset.chain, PathFunctional.path_indicator((2,)))
        assert first[1.0] == pytest.approx(1.0, abs=1e-10)
        assert third[1.0] == pytest.approx(1.0, abs=1e-10)

    def test_verification_passes(self):
        report = verify_preset(build_three_box())
        assert report.passed, "\n".join(report.lines())

    def test_rejects_zero_c(self):
        with pytest.raises(ValueError, match="nonzero"):
            build_three_box(c=0.0)


class TestPresetRegistry:
    def test_known_names(self):
        for name in ("projector", "minus-hundred", "difference", "three-box"):
            preset = build_preset(name)
            assert preset.name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_preset("nope")


class TestTargetWeakValues:
    @pytest.mark.parametrize("target", [-100.0, -1.5, -1.0, 0.0, 0.3, 1.0, 17.0])
    def test_any_real_value_is_reachable(self, target):
        psi, phi = states_for_target_weak_value(target)
        spin = Observable.from_eigensystem([1.0, -1.0], np.eye(2, dtype=complex))
        chain = MeasurementChain(psi, (MeasurementStep(0.5, spin),), Propagator.free(2), phi, 1.0)
        wv = weak_value(chain, PathFunctional.step_eigenvalue(0))
        assert wv.real == pytest.approx(target, abs=1e-9 * max(1.0, abs(target)))
        assert wv.imag == pytest.approx(0.0, abs=1e-12)


class TestMonteCarloVerification:
    def test_projector_bins_against_samples(self):
        preset = build_projector_postselected()
        trials = sample_trials(preset.chain, list(preset.meters), 100_000, seed=77)
        success = trials.branches == 0
        near_one = np.abs(trials.readings[success, 0] - 1.0) <= 0.25
        p = strong_limit_probabilities(preset.chain, preset.meters[0].functional)[1.0]
        sigma = math.sqrt(p * (1 - p) / success.sum())
        assert abs(near_one.mean() - p) <= 3 * sigma


class TestVerificationBuildsOnce:
    """verify_preset builds each functional's A(f) at most once and no joint
    density; the other groupings are the sweep's, the sampler's and the weak
    marginals' own."""

    @pytest.mark.parametrize(
        "name, groupings",
        [("projector", 3), ("minus-hundred", 3), ("difference", 2), ("three-box", 5)],
    )
    def test_groupings_per_call(self, monkeypatch, name, groupings):
        preset = build_preset(name)
        joints = []
        for module_name, module in list(sys.modules.items()):
            original = getattr(module, "joint_reading_distribution", None)
            if module_name.split(".")[0] == "qpathnet" and original is not None:
                def counted(*args, original=original, **kwargs):
                    joints.append(args)
                    return original(*args, **kwargs)

                monkeypatch.setattr(module, "joint_reading_distribution", counted)
        calls = count_grouped_amplitudes(monkeypatch)
        report = verify_preset(preset, mc_trials=2000)
        assert report.passed, "\n".join(report.lines())
        assert calls[0] <= groupings
        assert joints == []

    @pytest.mark.parametrize(
        "name, walks_taken",
        [("projector", 2), ("minus-hundred", 2), ("difference", 1), ("three-box", 4)],
    )
    def test_each_walk_is_taken_once(self, monkeypatch, name, walks_taken):
        # each functional's A(f) serves every check on it, the sweep's
        # included; the sampler walks onto every branch, so its pair differs
        walks = record_walks(monkeypatch)
        assert verify_preset(build_preset(name), mc_trials=2000).passed
        assert len(walks) == len(set(walks)) == walks_taken

    def test_three_box_builds_no_grid_of_two_axes(self, monkeypatch, tmp_path):
        # the weak marginals come from the moment rule and the draw's first
        # table spans axis 0 alone, so the kernel only ever fills one meter's axis
        axes = []
        kernel = meter._pointer_blocks

        def spy(amps, keys, profiles, grids):
            axes.append(len(grids))
            return kernel(amps, keys, profiles, grids)

        monkeypatch.setattr(meter, "_pointer_blocks", spy)
        assert main(["run", "preset:three-box", str(tmp_path), "--mode", "exact"]) == 0
        assert verify_preset(build_three_box(), mc_trials=2000).passed
        assert axes and set(axes) == {1}

    def test_difference_builder_states_its_numbers_by_hand(self, monkeypatch):
        calls = count_grouped_amplitudes(monkeypatch)
        preset = build_difference_meter()
        assert calls == [0]
        dist = amplitude_distribution(preset.chain, preset.meters[0].functional)
        rel = dist.relative()
        library = {
            "strong_mean": dist.strong_mean(),
            "weak_value_re": dist.weak_value().real,
            "weak_value_im": dist.weak_value().imag,
            "sweep_limit": dist.weak_value().real,
            "weak_from_relative": 2.0 * (rel[2.0] - rel[-2.0]).real,
        }
        assert set(preset.expected) == set(library)
        for key, value in library.items():
            assert preset.expected[key].value == pytest.approx(value, abs=1e-12)

    def test_forbidden_difference_is_stated_not_raised(self):
        # spin up, kicked by sigma_x, selected as spin down: the paths cancel
        preset = build_difference_meter(psi=(1.0, 0.0), phi=(0.0, 1.0))
        assert "forbidden_transition" in preset.expected and "weak_value_re" not in preset.expected
        assert verify_preset(preset, mc_trials=2000).passed
