import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import count_grouped_amplitudes
from qpathnet import (
    ClassicalConnector,
    ConfigError,
    MeterSpec,
    PathFunctional,
    PointerProfile,
    export_config,
    parse_config,
)
from qpathnet import classical, cli, sampling, strong_mean
from qpathnet.cli import main, report, run
from qpathnet.config import RunSettings
from qpathnet.rng import MAX_TRIALS
from qpathnet.scenarios import build_difference_meter, build_preset, build_projector_postselected

ROOT = Path(__file__).resolve().parents[1]


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


def two_layer_config():
    """A classical-only document: the labelled two-layer network,
    conditioned on receptacle f0."""
    half = [[0.5, 0.5], [0.5, 0.5]]
    return {
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


def document_fields(node, path=()):
    """The path of every object member and list entry, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from document_fields(child, path + (key,))


def with_field(doc, path, value):
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


# one value of each JSON type, numbers that are not finite floats, and a few
# shapes a field might wrongly take
JSON_VALUES = (
    None, True, False, 0, 1, -1, 0.5, 1e300, 10**400, float("nan"), float("inf"),
    "", "x", [], [0], [[0, 0]], {}, {"x": 0},
)


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

    @pytest.mark.parametrize(
        "complement",
        [
            [],
            [[[0.6, 0.0], [-0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]]],
            [[[math.sqrt(0.5), 0.0], [-math.sqrt(0.5), 0.0], [0.0, 0.0]]],
        ],
    )
    def test_completion_must_hold_dim_minus_one_states_of_the_dimension(self, complement):
        doc = sample_config()
        doc["post_complement"] = complement
        with pytest.raises(ConfigError, match=r"^post_complement: .*orthonormal"):
            parse_config(doc)

    def test_empty_completion_is_refused_before_a_run(self, tmp_path, capsys):
        # accepted, it made the success branch the only one: success
        # probability 1.0 where it is 0.5, and half the reading law missing
        preset = build_projector_postselected()
        doc = export_config(preset.name, preset.chain, preset.meters)
        doc["post_complement"] = []
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out"), "--mode", "sample"]) == 2
        assert "post_complement" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_malformed_field_is_a_config_error(self):
        docs = []
        for name in ("projector", "difference", "three-box"):
            preset = build_preset(name)
            settings = RunSettings(widths=preset.sweep_widths)
            docs.append(json.loads(json.dumps(export_config(preset.name, preset.chain, preset.meters, settings))))
        docs.append(two_layer_config())
        crashes = []
        for doc in docs:
            for path in document_fields(doc):
                for value in JSON_VALUES:
                    try:
                        parse_config(with_field(doc, path, value))
                    except ConfigError:
                        pass
                    except Exception as exc:  # anything else reaches the user as a traceback
                        crashes.append((doc["name"], path, value, type(exc).__name__))
        assert crashes == []

    @pytest.mark.parametrize(
        "path, field",
        [
            (("pre_state", 0, 0), "pre_state"),
            (("post_state", 1, 1), "post_state"),
            (("system", "hamiltonian", 0, 1, 0), "system.hamiltonian"),
            (("steps", 0, "observable", "eigenvalues", 0), "steps[0].observable"),
            (("steps", 0, "observable", "basis", 1, 0, 0), "steps[0].observable"),
            (("steps", 0, "observable"), "steps[0].observable"),
        ],
    )
    def test_huge_finite_magnitude_is_refused_by_field(self, tmp_path, capsys, path, field):
        # the suite runs with warnings as errors, so an overflow warning in a
        # norm would surface here as a RuntimeWarning instead of exit code 2
        preset = build_preset("three-box")
        doc = json.loads(json.dumps(export_config(preset.name, preset.chain, preset.meters)))
        huge = {"matrix": [[[1e300, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]}
        doc = with_field(doc, path, huge if path[-1] == "observable" else 1e300)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), str(tmp_path / "out")]) == 2
        assert f"{field}: magnitudes too large" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_condition_on_a_receptacle_the_wiring_lacks_is_refused(self, tmp_path, capsys):
        doc = two_layer_config()
        doc["classical"]["condition"] = ["f0", "f9"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 2
        assert "classical.condition[1]" in capsys.readouterr().err

    def test_condition_on_a_receptacle_of_zero_probability_is_an_engine_error(self, tmp_path, capsys):
        doc = {
            "name": "never-right",
            "run": {"mode": "classical"},
            "classical": {
                "connectors": {"in": {"weights": [[1.0, 0.0], [0.0, 1.0]]}},
                "wiring": {"in.0": "left", "in.1": "right"},
                "entry": "in.0",
                "values": [1.0],
                "condition": ["right"],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 3
        assert "zero probability" in capsys.readouterr().err


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

    def test_sample_summary_is_strict_json(self, tmp_path, capsys):
        # the one trial of seed 2 fails the selection: no meter has an
        # empirical mean, which is null, not NaN
        flags = ["--mode", "sample", "--trials", "1", "--seed", "2"]
        assert main(["run", "preset:three-box", str(tmp_path / "out"), *flags]) == 0

        def refuse(name):
            raise ValueError(f"non-finite JSON constant {name}")

        summary = json.loads((tmp_path / "out" / "summary.json").read_text(), parse_constant=refuse)
        assert summary["success_count"] == 0
        for meter in summary["meters"]:
            assert meter["empirical_mean"] is None and meter["standard_error"] is None and meter["z_score"] is None
        assert main(["report", str(tmp_path / "out" / "summary.json")]) == 0
        assert "meter0_empirical_mean" not in capsys.readouterr().out

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
        doc = two_layer_config()
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

    @pytest.mark.parametrize("outlet", [5, "x", 0.5, True])
    def test_blocked_outlet_outside_zero_one_is_refused(self, tmp_path, capsys, outlet):
        doc = {
            "name": "blocked",
            "run": {"mode": "classical"},
            "classical": {
                "connectors": {"in": {"weights": [[0.5, 0.5], [0.5, 0.5]], "blocked": [outlet]}},
                "wiring": {"in.0": "left", "in.1": "right"},
                "entry": "in.0",
                "values": [1.0, -1.0],
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 2
        assert "classical.connectors.in.blocked[0]" in capsys.readouterr().err

    def test_connector_refuses_an_outlet_outside_zero_one(self):
        with pytest.raises(ValueError, match="blocked outlets must be 0 or 1"):
            ClassicalConnector("x", np.full((2, 2), 0.5), blocked=frozenset({5}))

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

    @pytest.mark.parametrize("mode", ["exact", "classical"])
    def test_classical_paths_above_the_cap_exit_2_in_any_mode(self, tmp_path, capsys, monkeypatch, mode):
        def listed(*args):
            raise AssertionError("a path was listed")

        monkeypatch.setattr(classical, "ClassicalPath", listed)
        n, half = 40, [[0.5, 0.5], [0.5, 0.5]]
        doc = {
            "name": "series",
            "run": {"mode": mode},
            "classical": {
                "connectors": {f"c{i}": {"weights": half} for i in range(n)},
                "wiring": {f"c{i}.{o}": f"c{i + 1}.{o}" if i + 1 < n else f"f{o}" for i in range(n) for o in (0, 1)},
                "entry": "c0.0",
            },
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 2
        assert f"classical: the network has {2**40} paths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_the_parser_is_built_once_per_process(self):
        assert cli._build_parser() is cli._build_parser()

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

    def test_sweep_reaches_the_accurate_end(self, tmp_path):
        # no sweep builds a grid, so a width far below the support gap runs
        preset = build_preset("minus-hundred")
        settings = RunSettings(mode="sweep", widths=(1e-6, 1e4))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(export_config(preset.name, preset.chain, preset.meters, settings)))
        assert main(["run", str(path), str(tmp_path / "out")]) == 0
        means = json.loads((tmp_path / "out" / "summary.json").read_text())["means"]
        assert means[0] == pytest.approx(strong_mean(preset.chain, preset.meters[0].functional), abs=1e-12)
        assert abs(means[-1] + 100.0) <= 5.0

    def test_moment_pair_cap_exit_code(self, tmp_path, capsys):
        # 15 steps with incommensurate weights: 2^15 distinct sums, whose
        # group pairs exceed MAX_MOMENT_PAIRS
        doc = sample_config("sweep")
        doc["steps"] = [dict(doc["steps"][0], time=(k + 1) / 16) for k in range(15)]
        weights = np.sqrt(np.arange(2.0, 17.0)).tolist()
        doc["functionals"] = [{"name": "first", "rule": "weighted_steps", "weights": weights}]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 3
        assert "MAX_MOMENT_PAIRS" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_vanishing_amplitudes_exact_mode_exit_code(self, tmp_path, capsys):
        # every path amplitude is 0: no reading has a mean
        doc = sample_config()
        doc["pre_state"] = [[1.0, 0.0], [0.0, 0.0]]
        doc["post_state"] = [[0.0, 0.0], [1.0, 0.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 3
        assert "zero total mass" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize(
        "edit, field, pad_named",
        [
            # the support's span over a step of width / 200 overflows the node count
            (lambda doc: doc["meters"].append(dict(doc["meters"][0], profile={"shape": "rectangular", "width": 1e-320})),
             "meters[1].profile.width", False),
            # no width brings the pad's nodes back under the cap
            (lambda doc: doc["run"].update(grid={"pad": 1e308}), "meters[0].profile.width", True),
        ],
        ids=["width", "pad"],
    )
    def test_an_infinite_grid_is_refused_by_the_cap(self, tmp_path, capsys, mode, edit, field, pad_named):
        doc = sample_config(mode)
        edit(doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "MAX_GRID_CELLS" in err and field in err
        assert ("run.grid.pad (1e+308)" in err) == pad_named
        assert not (tmp_path / "out").exists()

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
        # one walk onto every branch places the grids and feeds the sampler
        calls = count_grouped_amplitudes(monkeypatch)
        assert main(["run", "preset:three-box", str(tmp_path), "--mode", "sample", "--trials", "200"]) == 0
        assert calls == [1]

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
        "functional, meter, run_doc, field",
        [
            ({"rule": "step_eigenvalue", "step": 0.7}, {}, {}, "functionals[0].step"),
            ({"rule": "step_eigenvalue", "step": True}, {}, {}, "functionals[0].step"),
            ({"rule": "path_indicator", "path": [0.6]}, {}, {}, "functionals[0].path[0]"),
            ({"rule": "path_indicator", "path": ["a"]}, {}, {}, "functionals[0].path[0]"),
            ({"rule": "step_difference", "later": 1.5}, {}, {}, "functionals[0].later"),
            ({"rule": "step_difference", "earlier": -1}, {}, {}, "functionals[0].earlier"),
            ({}, {}, {"seed": True}, "run.seed"),
            ({}, {"width": True}, {}, "meters[0].profile.width"),
        ],
    )
    def test_integers_are_integers_and_booleans_are_not_numbers(
        self, tmp_path, capsys, functional, meter, run_doc, field
    ):
        doc = sample_config()
        doc["functionals"][0].update(functional)
        doc["meters"][0]["profile"].update(meter)
        doc["run"].update(run_doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

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
        [
            ({"grid": {"pad": 1}}, "run.grid.pad"),
            ({"trials": MAX_TRIALS + 1}, "run.trials"),
            ({"trials": 2.5}, "run.trials"),
            ({"widths": [10.0, 1.0]}, "run.widths"),
            ({"widths": [1.0, 1.0]}, "run.widths"),
        ],
    )
    def test_run_fields_are_refused_at_parse_time(self, tmp_path, capsys, run_doc, field):
        doc = sample_config("sample")
        doc["run"].update(run_doc)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["projector", "minus-hundred", "difference", "three-box"])
    def test_extreme_widths_exit_cleanly(self, tmp_path, capsys, name):
        # a Gaussian width whose square left the float range raised
        # OverflowError, or wrote a NaN that the summary refused unnamed; the
        # readings of a rectangular width of 1e200 overflowed the sample
        # summary's spread
        preset = build_preset(name)
        base = export_config(preset.name, preset.chain, preset.meters, RunSettings(widths=preset.sweep_widths))
        for value in (1e-300, 1e-200, 1e200, 1e300):
            cases = []
            for i, meter in enumerate(base["meters"]):
                doc = copy.deepcopy(base)
                doc["meters"][i]["profile"]["width"] = value
                cases.append((doc, f"meters[{i}].profile.width", meter["profile"]["shape"] == "gaussian"))
            doc = copy.deepcopy(base)
            widths = doc["run"]["widths"]
            doc["run"]["widths"] = [value] + widths if value < 1.0 else widths + [value]
            cases.append((doc, f"run.widths[{0 if value < 1.0 else len(widths)}]", True))
            for doc, field, gaussian in cases:
                path = tmp_path / "cfg.json"
                path.write_text(json.dumps(doc))
                for mode in ("exact", "sweep", "sample", "classical"):
                    out = tmp_path / f"{len(list(tmp_path.iterdir()))}"
                    code = main(["run", str(path), str(out), "--mode", mode, "--trials", "1000"])
                    err = capsys.readouterr().err
                    assert code in ((2,) if gaussian else (0, 2, 3)), (field, value, mode, err)
                    if gaussian:
                        assert f"{field}: gaussian width must lie in" in err
                    written = [f.read_text().lower() for f in out.glob("*")] if out.exists() else []
                    assert not any("nan" in text for text in written), (field, value, mode)

    def test_a_gaussian_width_near_the_top_of_the_range_keeps_its_norm(self, tmp_path):
        # nodes beyond 1.34e154 squared to inf and read 0.0: the density's
        # trapezoid norm was 0.899279 against the closed form 0.9, with an
        # overflow warning
        preset = build_preset("projector")
        doc = export_config(preset.name, preset.chain, preset.meters, RunSettings(widths=preset.sweep_widths))
        doc["meters"][0]["profile"] = {"shape": "gaussian", "width": 4e153}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out"), "--mode", "exact"]) == 0
        norm = json.loads((tmp_path / "out" / "summary.json").read_text())["meters"][0]["norm"]
        xs, density = np.loadtxt(tmp_path / "out" / "distribution_m0.csv", delimiter=",", skiprows=1).T
        assert np.trapezoid(density, xs) == pytest.approx(norm, rel=1e-6)

    def test_a_grid_cap_prints_a_huge_count_in_floating_point(self, tmp_path, capsys):
        # the count printed as an integer of 303 digits
        preset = build_preset("projector")
        doc = export_config(preset.name, preset.chain, preset.meters, RunSettings(widths=preset.sweep_widths))
        doc["meters"][0]["profile"]["width"] = 1e-300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out"), "--mode", "exact"]) == 3
        err = capsys.readouterr().err
        assert "reading grids holding 2.000e+302 cells exceed MAX_GRID_CELLS" in err
        assert len(err) < 200

    def test_grid_step_reaches_every_grid_of_the_run(self, tmp_path, monkeypatch):
        law_grids = []

        class Spy(sampling._ChainLaw):
            def __init__(self, keys, amps, profiles, grids, n_trials):
                law_grids.append(grids)
                super().__init__(keys, amps, profiles, grids, n_trials)

        monkeypatch.setattr(sampling, "_ChainLaw", Spy)
        for mode in ("exact", "sample"):
            flags = ["--mode", mode, "--grid-step", "50", "--trials", "200"]
            assert main(["run", "preset:three-box", str(tmp_path / mode), *flags]) == 0
        xs = np.loadtxt(tmp_path / "exact" / "distribution_m0.csv", delimiter=",", skiprows=1)[:, 0]
        assert np.all(np.diff(xs) == 50.0)
        # the sampled law, and so its exact numbers, is on the same grids
        assert [[g.step for g in grids] for grids in law_grids] == [[50.0, 50.0]]
        readings = np.loadtxt(tmp_path / "sample" / "trials.csv", delimiter=",", skiprows=1)[:, 1:3]
        assert np.all(readings % 50.0 == 0.0)

    def test_an_integer_seed_is_kept_exactly(self, tmp_path):
        doc = sample_config("sample")
        doc["run"]["seed"] = 2**60 + 1
        assert parse_config(doc).run.seed == 2**60 + 1
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out"), "--trials", "100"]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["seed"] == 2**60 + 1

    def test_a_seed_flag_beyond_the_float_range_is_refused(self, tmp_path, capsys):
        assert main(["run", "preset:projector", str(tmp_path / "out"), "--mode", "sample", "--seed", "9" * 400]) == 2
        assert "run.seed: expected a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_mode_needs_widths_at_parse_time(self, tmp_path, capsys):
        doc = sample_config()
        del doc["run"]["widths"]
        with pytest.raises(ConfigError, match=r"^run\.widths: sweep mode needs a list of widths"):
            parse_config(with_field(doc, ("run", "mode"), "sweep"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out"), "--mode", "sweep"]) == 2
        assert "run.widths" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    def test_multi_meter_sample_is_paired_with_the_joint_marginals(self, tmp_path):
        # narrow meters: each meter's mean_reading alone (1.0) is far from
        # its mean under the joint law that the sample draws (about 0.382)
        preset = build_preset("three-box")
        meters = tuple(MeterSpec(m.functional, PointerProfile.gaussian(0.3)) for m in preset.meters)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(export_config(preset.name, preset.chain, meters)))
        run(str(cfg), tmp_path / "exact")
        sample = run(str(cfg), tmp_path / "sample", _Args(mode="sample", trials=200_000, seed=3))
        table = report([tmp_path / "exact" / "summary.json", tmp_path / "sample" / "summary.json"])
        pairs = [line.split() for line in table.splitlines() if "sample-vs-exact" in line]
        assert [metric for _, metric, _ in pairs] == ["meter0_z_score", "meter1_z_score"]
        for (_, _, z), meter in zip(pairs, sample["meters"]):
            assert float(z) == pytest.approx(meter["z_score"], abs=1e-3)

    def test_mixed_dimensions_rejected(self, tmp_path):
        run("preset:projector", tmp_path / "a")
        run("preset:three-box", tmp_path / "b")
        with pytest.raises(ValueError, match="different dimensions"):
            report([tmp_path / "a" / "summary.json", tmp_path / "b" / "summary.json"])

    @pytest.mark.parametrize(
        "summary, key",
        [
            ([1, 2], "JSON object"),
            ({"name": "s", "mode": "sweep", "dim": 2, "limit": 1.0}, "widths, means"),
            ({"name": "s", "mode": "sweep", "dim": 2, "widths": [1.0]}, "means"),
            ({"name": "e", "mode": "exact", "dim": 2, "norm": 1.0, "meters": [{"index": 0}]}, "meters[0].distribution_csv"),
            ({"name": "e", "mode": "exact", "dim": 2, "norm": 1.0}, "meters[0].distribution_csv"),
            ({"mode": "sample", "meters": [1]}, "meters"),
            ({"name": "s", "mode": "sample", "dim": [2], "meters": []}, "dim"),
            ({"mode": "sample", "meters": [{"empirical_mean": 1.0}]}, "meters[0].index"),
            ({"mode": "sample", "meters": [{"index": 0, "z_score": "1"}]}, "meters[0].z_score"),
            ({"name": "s", "mode": "sweep", "widths": [1.0], "means": [1.0], "limit": True}, "limit"),
            ({"name": "a/b", "mode": "sweep", "widths": [1.0], "means": [1.0]}, "name"),
        ],
    )
    def test_malformed_summary_is_refused_before_writing(self, tmp_path, capsys, summary, key):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        out = tmp_path / "rep"
        assert main(["report", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert str(path) in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize("outside", ["absolute", "../secret.csv"])
    def test_distribution_csv_outside_the_summary_directory_is_refused(self, tmp_path, capsys, outside):
        secret = tmp_path / "secret.csv"
        secret.write_text("secret\n")
        run("preset:projector", tmp_path / "a")
        path = tmp_path / "a" / "summary.json"
        summary = json.loads(path.read_text())
        summary["meters"][0]["distribution_csv"] = str(secret) if outside == "absolute" else outside
        path.write_text(json.dumps(summary))
        out = tmp_path / "rep"
        assert main(["report", str(path), "--out", str(out)]) == 3
        assert "meters[0].distribution_csv: expected a file name" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failed_report_leaves_nothing_behind(self, tmp_path, capsys):
        # the distribution file named by the summary is a directory, so the
        # copy fails after report.csv has been written
        run("preset:projector", tmp_path / "a")
        (tmp_path / "a" / "distribution_m0.csv").unlink()
        (tmp_path / "a" / "distribution_m0.csv").mkdir()
        for out in (tmp_path / "rep", tmp_path / "rep" / "nested", tmp_path / "a"):
            before = sorted(p.name for p in out.iterdir()) if out.exists() else None
            assert main(["report", str(tmp_path / "a" / "summary.json"), "--out", str(out)]) == 3
            assert (sorted(p.name for p in out.iterdir()) if out.exists() else None) == before
        assert not (tmp_path / "rep").exists()

    def test_a_reader_that_closes_the_pipe_is_not_an_engine_error(self, tmp_path):
        # about 110 kB of table, more than a pipe holds: the command is still
        # writing when the reader closes its end after the first line
        run("preset:projector", tmp_path / "a")
        summaries = [str(tmp_path / "a" / "summary.json")] * 400
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p)
        with subprocess.Popen(
            [sys.executable, "-m", "qpathnet.cli", "report", *summaries],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first.split() == [b"source", b"metric", b"value"]
        assert (code, err) == (0, b"")

    def test_null_and_absent_numbers_are_skipped(self, tmp_path):
        # a null weak marginal, and an exact meter without mean_reading
        exact = {"name": "e", "mode": "exact", "meters": [{"index": 0, "distribution_csv": "d.csv"}]}
        exact["weak_marginals"] = [None]
        sample = {"name": "e", "mode": "sample", "meters": [{"index": 0, "empirical_mean": 1.0, "standard_error": 0.1}]}
        paths = []
        for s in (exact, sample):
            paths.append(tmp_path / f"{s['mode']}.json")
            paths[-1].write_text(json.dumps(s))
        table = report(paths)
        assert "weak_marginal" not in table and "sample-vs-exact" not in table
        assert "meter0_empirical_mean" in table

    def test_every_malformed_summary_field_exits_0_or_3(self, tmp_path, capsys):
        # every field of real summaries of one scenario, reported together
        # so that the sample and exact runs are paired, set to each JSON value
        runs = tmp_path / "runs"
        paths = []
        for mode in ("exact", "sweep", "sample", "classical"):
            run("preset:three-box", runs / mode, _Args(mode=mode, trials=200))
            paths.append(runs / mode / "summary.json")
        docs = [json.loads(p.read_text()) for p in paths]
        crashes = []
        for path, doc in zip(paths, docs):
            for field in document_fields(doc):
                for value in JSON_VALUES:
                    path.write_text(json.dumps(with_field(doc, field, value)))
                    out = tmp_path / "rep"
                    try:
                        code = main(["report", *map(str, paths), "--out", str(out)])
                    except Exception as exc:  # a traceback for the user
                        crashes.append((doc["mode"], field, value, type(exc).__name__))
                        continue
                    if code not in (0, 3) or (code == 3 and out.exists()):
                        crashes.append((doc["mode"], field, value, code))
                    shutil.rmtree(out, ignore_errors=True)
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert crashes == []

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
