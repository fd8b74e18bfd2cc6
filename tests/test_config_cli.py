import json
import math

import numpy as np
import pytest

from helpers import count_grouped_amplitudes
from qpathnet import ConfigError, MeterSpec, PathFunctional, PointerProfile, export_config, parse_config
from qpathnet import cli
from qpathnet.cli import main, report, run
from qpathnet.config import RunSettings
from qpathnet.rng import MAX_TRIALS
from qpathnet.scenarios import build_difference_meter, build_projector_postselected


def sample_config(mode="exact"):
    s8, s2 = math.sqrt(0.8), math.sqrt(0.2)
    r2 = 1.0 / math.sqrt(2.0)
    return {
        "name": "spin-readout",
        "system": {"dim": 2, "total_time": 1.0},
        "pre_state": [[s8, 0.0], [s2, 0.0]],
        "post_state": [[r2, 0.0], [r2, 0.0]],
        "steps": [
            {
                "time": 0.5,
                "observable": {
                    "eigenvalues": [1.0, 0.0],
                    "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                },
            }
        ],
        "functionals": [{"name": "first", "rule": "step_eigenvalue", "step": 0}],
        "meters": [{"functional": "first", "profile": {"shape": "rectangular", "width": 0.5}}],
        "run": {"mode": mode, "seed": 3, "trials": 2000, "widths": [5.0, 50.0]},
    }


class TestParsing:
    def test_valid_document(self):
        config = parse_config(sample_config())
        assert config.chain.dim == 2
        assert config.meters[0].profile.shape == "rectangular"
        assert config.run.seed == 3

    def test_non_hermitian_observable_names_field(self):
        doc = sample_config()
        doc["steps"][0]["observable"] = {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ConfigError, match=r"steps\[0\].observable.*Hermitian"):
            parse_config(doc)

    def test_bad_state_norm_names_field(self):
        doc = sample_config()
        doc["pre_state"] = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ConfigError, match="pre_state.*normalized"):
            parse_config(doc)

    def test_unknown_functional_reference(self):
        doc = sample_config()
        doc["meters"][0]["functional"] = "missing"
        with pytest.raises(ConfigError, match=r"meters\[0\].functional"):
            parse_config(doc)

    def test_negative_width(self):
        doc = sample_config()
        doc["meters"][0]["profile"]["width"] = -1.0
        with pytest.raises(ConfigError, match=r"meters\[0\].profile.width"):
            parse_config(doc)

    def test_bad_mode(self):
        doc = sample_config()
        doc["run"]["mode"] = "magic"
        with pytest.raises(ConfigError, match="run.mode"):
            parse_config(doc)

    def test_times_outside_window(self):
        doc = sample_config()
        doc["steps"][0]["time"] = 1.5
        with pytest.raises(ConfigError, match=r"steps\[0\].time"):
            parse_config(doc)

    def test_complex_pairs_enforced(self):
        doc = sample_config()
        doc["pre_state"] = [0.9, 0.44]
        with pytest.raises(ConfigError, match=r"pre_state\[0\]"):
            parse_config(doc)

    def test_unknown_functional_rule(self):
        doc = sample_config()
        doc["functionals"][0]["rule"] = "bogus"
        with pytest.raises(ConfigError, match=r"functionals\[0\]\.rule: must be one of \['constant', "):
            parse_config(doc)
        with pytest.raises(ValueError, match="unknown functional rule 'bogus'"):
            PathFunctional("bogus")

    def test_functional_consistency_checked_against_chain(self):
        doc = sample_config()
        doc["functionals"][0] = {"name": "first", "rule": "step_eigenvalue", "step": 5}
        with pytest.raises(ConfigError, match=r"functionals\[0\]"):
            parse_config(doc)

    def test_explicit_completion_accepted(self):
        doc = sample_config()
        r2 = math.sqrt(0.5)
        doc["post_complement"] = [[[r2, 0.0], [-r2, 0.0]]]
        config = parse_config(doc)
        assert len(config.chain.post_complement) == 1

    def test_non_orthogonal_completion_rejected(self):
        doc = sample_config()
        doc["post_complement"] = [[[1.0, 0.0], [0.0, 0.0]]]
        with pytest.raises(ConfigError, match="orthonormal"):
            parse_config(doc)


class TestRoundTrip:
    def test_export_parse_rebuilds_identical_chain(self):
        preset = build_difference_meter()
        doc = json.loads(json.dumps(export_config(preset.name, preset.chain, preset.meters)))
        config = parse_config(doc)
        assert np.array_equal(config.chain.pre_state.amplitudes, preset.chain.pre_state.amplitudes)
        assert np.array_equal(config.chain.post_state.amplitudes, preset.chain.post_state.amplitudes)
        for built, original in zip(config.chain.steps, preset.chain.steps):
            assert built.time == original.time
            assert np.array_equal(built.observable.eigenvalues, original.observable.eigenvalues)
            assert np.array_equal(built.observable.eigenvectors, original.observable.eigenvectors)

    def test_tabulated_profile_and_run_settings_survive(self):
        preset = build_difference_meter()
        xs = np.linspace(-1.0, 1.0, 41)
        values = np.cos(np.pi * xs / 2.0)
        values /= math.sqrt(np.trapezoid(values**2, xs))
        meters = [MeterSpec(preset.meters[0].functional, PointerProfile.tabulated(xs, values, 0.3))]
        settings = RunSettings(mode="sweep", seed=4, trials=7, widths=(1.0, 2.0), grid_step=0.01, grid_pad=7.5)
        doc = json.loads(json.dumps(export_config(preset.name, preset.chain, meters, settings)))
        config = parse_config(doc)
        assert config.meters[0].profile == meters[0].profile
        assert config.run == settings

    def test_run_results_identical_through_export(self, tmp_path):
        preset = build_projector_postselected()
        doc = export_config(preset.name, preset.chain, preset.meters, RunSettings(seed=5))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(doc))
        direct = run("preset:projector", tmp_path / "direct")
        via_file = run(str(config_path), tmp_path / "file")
        for key in ("strong_mean", "weak_value_re", "weak_value_im", "norm", "mean_reading"):
            assert direct[key] == via_file[key]  # bit-exact


class TestRunModes:
    def test_exact_artifacts(self, tmp_path):
        summary = run("preset:projector", tmp_path)
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "distribution_m0.csv").exists()
        assert summary["strong_mean"] == pytest.approx(0.8, abs=1e-9)
        assert summary["weak_value_re"] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_three_box_summary_reports_joint_marginals(self, tmp_path):
        summary = run("preset:three-box", tmp_path)
        assert summary["weak_marginals"][0] == pytest.approx(1.0, abs=1e-3)
        assert summary["weak_marginals"][1] == pytest.approx(1.0, abs=1e-3)

    def test_sweep_artifacts(self, tmp_path):
        doc = sample_config(mode="sweep")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        summary = run(str(path), tmp_path / "out")
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert rows[0] == "width,mean,abs_error"
        assert len(rows) == 3
        assert summary["limit"] == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_sample_artifacts(self, tmp_path):
        doc = sample_config(mode="sample")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        summary = run(str(path), tmp_path / "out")
        assert summary["trials"] == 2000
        lines = (tmp_path / "out" / "trials.csv").read_text().splitlines()
        assert lines[0] == "trial_id,reading_0,branch"
        assert len(lines) == 2001

    def test_classical_artifacts(self, tmp_path):
        summary = run("preset:difference", tmp_path, _Args(mode="classical"))
        assert summary["n_paths"] == 8
        assert summary["conditional_mean"] == pytest.approx(-0.6, abs=1e-12)
        assert (tmp_path / "classical_paths.csv").exists()

    @pytest.mark.parametrize(
        "preset, mean",
        [
            ("projector", 0.8),
            ("minus-hundred", 0.4950249987624374),
            ("difference", -0.6),
            ("three-box", 1.0 / 3.0),
        ],
    )
    def test_classical_mean_is_the_distinguishable_path_mean(self, tmp_path, preset, mean):
        # dim-2 values are those of the hand-wired comparator networks the
        # distinguishable-path law replaced; three-box is |A_0|^2 / sum |A|^2
        summary = run(f"preset:{preset}", tmp_path, _Args(mode="classical"))
        assert summary["conditional_mean"] == pytest.approx(mean, abs=1e-12)
        assert sum(summary["probabilities"]) == pytest.approx(1.0, abs=1e-12)

    def test_classical_only_config(self, tmp_path):
        doc = {
            "name": "toy",
            "run": {"mode": "classical"},
            "classical": {
                "connectors": {"in": {"weights": [[0.5, 0.5], [0.5, 0.5]]}},
                "wiring": {"in.0": "left", "in.1": "right"},
                "entry": "in.0",
                "values": [1.0, -1.0],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        summary = run(str(path), tmp_path / "out")
        assert summary["n_paths"] == 2
        assert summary["conditional_mean"] == pytest.approx(0.0, abs=1e-12)

    def test_classical_labels_induce_layer_difference(self, tmp_path):
        # two layers labelled -/+ the layer quantity: the path value is the
        # second-layer label minus the first-layer one
        half = [[0.5, 0.5], [0.5, 0.5]]
        doc = {
            "name": "labelled",
            "run": {"mode": "classical"},
            "classical": {
                "connectors": {name: {"weights": half} for name in ("in", "a0", "a1", "b0", "b1")},
                "wiring": {
                    "in.0": "a0.0",
                    "in.1": "a1.0",
                    "a0.0": "b0.0",
                    "a0.1": "b1.1",
                    "a1.0": "b1.0",
                    "a1.1": "b0.1",
                    "b0.0": "f0",
                    "b0.1": "f1",
                    "b1.0": "f1",
                    "b1.1": "f0",
                },
                "entry": "in.0",
                "labels": {"a0": 1.0, "a1": -1.0, "b0": -1.0, "b1": 1.0},
                "condition": ["f0"],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        summary = run(str(path), tmp_path / "out")
        assert summary["n_paths"] == 8
        # uniform weights make the +2 and -2 paths equally likely
        assert summary["conditional_mean"] == pytest.approx(0.0, abs=1e-12)

    def test_classical_value_count_checked(self):
        doc = {
            "name": "short",
            "run": {"mode": "classical"},
            "classical": {
                "connectors": {"in": {"weights": [[0.5, 0.5], [0.5, 0.5]]}},
                "wiring": {"in.0": "left", "in.1": "right"},
                "entry": "in.0",
                "values": [1.0],
            },
        }
        with pytest.raises(ConfigError, match=r"classical\.values: needs one value per path \(2\)"):
            parse_config(doc)

    def test_label_of_unknown_connector_rejected(self, tmp_path):
        doc = {
            "name": "bad",
            "run": {"mode": "classical"},
            "classical": {
                "connectors": {"in": {"weights": [[0.5, 0.5], [0.5, 0.5]]}},
                "wiring": {"in.0": "left", "in.1": "right"},
                "entry": "in.0",
                "labels": {"ghost": 1.0},
            },
        }
        with pytest.raises(ConfigError, match="labels.ghost"):
            parse_config(doc)


class _Args:
    mode = None
    seed = None
    trials = None
    grid_step = None
    grid_extent = None

    def __init__(self, **kwargs):
        for key, value in kwargs.items():
            setattr(self, key, value)


class TestCliEntryPoint:
    def test_success_exit_code(self, tmp_path):
        assert main(["run", "preset:projector", str(tmp_path)]) == 0

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = sample_config()
        doc["steps"][0]["observable"] = {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        bad.write_text(json.dumps(doc))
        assert main(["run", str(bad), str(tmp_path / "out")]) == 2
        assert "steps[0].observable" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json"), str(tmp_path / "out")]) == 2

    def test_forbidden_transition_exit_code(self, tmp_path, capsys):
        doc = sample_config()
        doc["pre_state"] = [[1.0, 0.0], [0.0, 0.0]]
        doc["post_state"] = [[0.0, 0.0], [1.0, 0.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out"), "--mode", "sweep"]) == 3
        assert "remedy" in capsys.readouterr().err

    def test_forbidden_transition_exact_mode_reports_strong_numbers(self, tmp_path):
        doc = sample_config()
        r2 = 1.0 / math.sqrt(2.0)
        doc["pre_state"] = [[r2, 0.0], [r2, 0.0]]
        doc["post_state"] = [[r2, 0.0], [-r2, 0.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", str(path), str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        meter = summary["meters"][0]
        for s in (summary, meter):
            assert s["weak_value_re"] is None and s["weak_value_im"] is None
            assert "numerically zero" in s["weak_unavailable"]
        assert meter["relative_amplitudes"] is None
        # paths 0 and 1 carry amplitudes +-1/2: strong bins 1/4 each
        assert summary["strong_mean"] == pytest.approx(0.5, abs=1e-12)
        assert meter["strong_bins"] == [[0.0, pytest.approx(0.25)], [1.0, pytest.approx(0.25)]]
        assert (out / "distribution_m0.csv").exists()
        table = report([out / "summary.json"])
        assert "strong_mean" in table and "weak_value_re" not in table

    def test_grid_cap_names_the_meter_index(self, tmp_path, capsys):
        doc = sample_config()
        doc["meters"].append({"functional": "first", "profile": {"shape": "gaussian", "width": 1e-6}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 3
        assert "widen meters[1].profile.width (1e-06)" in capsys.readouterr().err

    def test_failed_run_leaves_no_artifacts(self, tmp_path):
        # meter 0 succeeds and meter 1 hits the grid cap
        doc = sample_config()
        doc["meters"].append({"functional": "first", "profile": {"shape": "gaussian", "width": 1e-6}})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        for out in (tmp_path / "new", tmp_path / "new" / "nested", tmp_path):
            assert main(["run", str(path), str(out)]) == 3
            assert not (out / "distribution_m0.csv").exists()
        # the directories the failed runs created are gone too
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_run_stages_inside_the_output(self, tmp_path, monkeypatch):
        # an existing output under a read-only parent: the staging directory
        # is inside the output, so nothing is written next to it and the
        # final moves stay on the output's own filesystem
        parent, out = tmp_path / "parent", tmp_path / "parent" / "out"
        out.mkdir(parents=True)
        staged = []
        exact = cli._run_exact

        def spy(config, where):
            staged.append(where)
            return exact(config, where)

        monkeypatch.setattr(cli, "_run_exact", spy)
        parent.chmod(0o555)
        try:
            assert main(["run", "preset:projector", str(out)]) == 0
        finally:
            parent.chmod(0o755)
        assert [p.parent for p in staged] == [out]
        assert [p.name for p in parent.iterdir()] == ["out"]
        assert (out / "summary.json").exists()
        assert not any(p.name.startswith(".") for p in out.iterdir())

    def test_exact_run_builds_each_amplitude_distribution_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(sample_config()))
        calls = count_grouped_amplitudes(monkeypatch)
        assert main(["run", str(path), str(tmp_path / "out")]) == 0
        assert calls == [1]

    def test_exact_run_walks_the_chain_once_for_all_meters(self, tmp_path, monkeypatch):
        # each meter's A(f) and the joint density's keys come from one walk
        calls = count_grouped_amplitudes(monkeypatch)
        assert main(["run", "preset:three-box", str(tmp_path), "--mode", "exact"]) == 0
        assert calls == [1]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["weak_marginals"] == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_sample_run_groups_once_for_its_grids(self, tmp_path, monkeypatch):
        # one A(f) of both meters places the grids, one walk feeds the sampler
        calls = count_grouped_amplitudes(monkeypatch)
        assert main(["run", "preset:three-box", str(tmp_path), "--mode", "sample", "--trials", "200"]) == 0
        assert calls == [2]

    @pytest.mark.parametrize("step", ["3", "0.0251"])
    def test_grid_step_that_cannot_resolve_a_meter_is_refused(self, tmp_path, capsys, step):
        # projector: rectangular width 0.5, so steps above 0.5 / 20 are refused
        assert main(["run", "preset:projector", str(tmp_path / "out"), "--grid-step", step]) == 2
        err = capsys.readouterr().err
        assert "run.grid.step" in err and "meters[0].profile.width" in err
        assert not (tmp_path / "out").exists()

    def test_grid_step_of_width_over_twenty_is_legal(self, tmp_path):
        assert main(["run", "preset:projector", str(tmp_path), "--grid-step", "0.025"]) == 0

    def test_three_box_sweep(self, tmp_path):
        assert main(["run", "preset:three-box", str(tmp_path), "--mode", "sweep"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["means"][-1] == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--grid-step", "0"], "run.grid.step"),
            (["--grid-step", "-1"], "run.grid.step"),
            (["--grid-extent", "-2"], "run.grid.pad"),
            (["--grid-extent", "1"], "run.grid.pad"),
            (["--trials", "0"], "run.trials"),
            (["--trials", str(MAX_TRIALS + 1)], "run.trials"),
            (["--seed", "-1"], "run.seed"),
        ],
    )
    def test_flags_are_validated_like_the_file(self, tmp_path, capsys, flags, field):
        assert main(["run", "preset:projector", str(tmp_path / "out"), "--mode", "sample", *flags]) == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "run_doc, field",
        [({"grid": {"pad": 1}}, "run.grid.pad"), ({"trials": MAX_TRIALS + 1}, "run.trials"), ({"trials": 2.5}, "run.trials")],
    )
    def test_run_fields_are_refused_at_parse_time(self, tmp_path, capsys, run_doc, field):
        doc = sample_config("sample")
        doc["run"].update(run_doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    def test_grid_step_reaches_every_grid_of_the_run(self, tmp_path, monkeypatch):
        joints = []
        joint = cli._distribution

        def spy(keys, amps, profiles, grids=None):
            joints.append(joint(keys, amps, profiles, grids))
            return joints[-1]

        monkeypatch.setattr(cli, "_distribution", spy)
        for mode in ("exact", "sample"):
            flags = ["--mode", mode, "--grid-step", "50", "--trials", "200"]
            assert main(["run", "preset:three-box", str(tmp_path / mode), *flags]) == 0
        xs = np.loadtxt(tmp_path / "exact" / "distribution_m0.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.all(np.diff(xs) == 50.0)
        assert [g.step for g in joints[0].grids] == [50.0, 50.0]
        readings = np.loadtxt(tmp_path / "sample" / "trials.csv", delimiter=",", skiprows=1)[:, 1:3]
        assert np.all(readings % 50.0 == 0.0)

    def test_overrides(self, tmp_path):
        assert main(["run", "preset:projector", str(tmp_path), "--mode", "sample", "--trials", "500", "--seed", "9"]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "sample"
        assert summary["trials"] == 500
        assert summary["seed"] == 9


class TestReport:
    def test_exact_rows_present(self, tmp_path):
        run("preset:projector", tmp_path / "a")
        table = report([tmp_path / "a" / "summary.json"])
        for row in ("strong_mean", "weak_value_re", "weak_value_im", "norm"):
            assert row in table

    def test_twelve_significant_digits(self, tmp_path):
        run("preset:projector", tmp_path / "a")
        table = report([tmp_path / "a" / "summary.json"])
        line = next(l for l in table.splitlines() if "weak_value_re" in l)
        assert "0.666666666667" in line

    def test_sample_and_exact_pairing(self, tmp_path):
        run("preset:projector", tmp_path / "exact")
        run("preset:projector", tmp_path / "sample", _Args(mode="sample", trials=5000, seed=1))
        out = tmp_path / "rep"
        table = report(
            [tmp_path / "exact" / "summary.json", tmp_path / "sample" / "summary.json"], out
        )
        assert "sample-vs-exact" in table
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()

    def test_mixed_dimensions_rejected(self, tmp_path):
        run("preset:projector", tmp_path / "a")
        run("preset:three-box", tmp_path / "b")
        with pytest.raises(ValueError, match="different dimensions"):
            report([tmp_path / "a" / "summary.json", tmp_path / "b" / "summary.json"])

    def test_sweep_plot_csv(self, tmp_path):
        summary = run("preset:minus-hundred", tmp_path / "s", _Args(mode="sweep"))
        # the widest meter lands within 5 percent of the -100 limit
        assert abs(summary["means"][-1] + 100.0) / 100.0 <= 0.05
        out = tmp_path / "rep"
        report([tmp_path / "s" / "summary.json"], out)
        lines = (out / "plot_minus-hundred_sweep.csv").read_text().splitlines()
        assert lines[0] == "width,mean"
        assert len(lines) == 5
        last_width, last_mean = lines[-1].split(",")
        assert float(last_width) == 10000.0
        assert abs(float(last_mean) + 100.0) / 100.0 <= 0.05
