import math
import os
import tracemalloc

import numpy as np
import pytest

from qpathnet import (
    MeterSpec,
    PathFunctional,
    PointerProfile,
    build_minus_hundred,
    build_projector_postselected,
    classical_paths,
    classical_sample,
    joint_reading_distribution,
    mean_reading,
    sample_trials,
    uniform_two_layer_network,
)
from qpathnet.rng import MAX_TRIALS, THREADS_ENV, uniform_block, worker_count


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
        records = trials.records()
        assert len(records) == 50
        assert records[7].trial_id == 7
        assert records[7].readings[0] == trials.readings[7, 0]
        out = tmp_path / "trials.csv"
        trials.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "trial_id,reading_0,branch"
        assert len(lines) == 51

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
