"""The benchmark's workloads: seeded inputs, one timed op, and its gates.

Each workload is a closed loop with one client: the next op starts when the
previous one and its checks have finished.  Inputs of op i come from
numpy's generator seeded with (workload seed, i) and reach the library only
through its public API.  `op` is the timed part; `check` runs afterwards,
untimed, and compares the op's outputs with the independent oracles in
reference.py.  A check returns (gate, status, detail) triples with status
PASS, WRONG (an output the library produced is wrong, or a call that should
succeed failed) or ERROR (one of the known failures listed in layers.json).
Every gate that does not pass counts in the run's `failed`; only WRONG makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

import qpathnet
import qpathnet.cli
import reference as ref

SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

SUM_RULE_TOL = 1e-10
EXACT_TOL = 1e-9  # closed-form path arithmetic, relative
QUADRATURE_TOL = 1e-6  # grid moments against the autocorrelation closed form, relative
MC_Z = 5.0

PASS, WRONG, ERROR = "pass", "wrong", "error"

# (workload, preset, mode) -> exit code of each known failure
KNOWN_FAILURES = {
    (k["workload"], k["preset"], k["mode"]): k["exit"]
    for k in json.loads((Path(__file__).resolve().parent / "layers.json").read_text())["known_failures"]
}


def _rel_ok(got, want, tol) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _gate(name: str, bad: list) -> tuple:
    return (name, WRONG, "mismatch: " + ", ".join(bad)) if bad else (name, PASS, "ok")


def _random_state(rng) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def _random_hamiltonian(rng) -> np.ndarray:
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return (a + a.conj().T) / 2.0


def _random_spin(rng) -> np.ndarray:
    """n . sigma for a random unit vector n: eigenvalues -1 and +1."""
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    return sum(c * s for c, s in zip(n, SIGMAS))


def _random_chain_inputs(seed: int, op: int, n_steps: int, observable) -> dict:
    rng = np.random.default_rng([seed, op])
    return {
        "hamiltonian": _random_hamiltonian(rng),
        "pre": _random_state(rng),
        "post": _random_state(rng),
        "observables": [observable(rng) for _ in range(n_steps)],
        "times": [(k + 1) / (n_steps + 1) for k in range(n_steps)],
        "total_time": 1.0,
    }


def _build_chain(inp: dict):
    steps = tuple(
        qpathnet.MeasurementStep(t, qpathnet.Observable.from_matrix(m))
        for t, m in zip(inp["times"], inp["observables"])
    )
    return qpathnet.MeasurementChain(
        qpathnet.StateVector(inp["pre"]),
        steps,
        qpathnet.Propagator(inp["hamiltonian"]),
        qpathnet.StateVector(inp["post"]),
        inp["total_time"],
    )


def _ref_args(inp: dict):
    return (inp["hamiltonian"], inp["pre"], inp["post"], inp["total_time"], inp["times"], inp["observables"])


def _sum_rule(chain, functional, inp) -> tuple:
    lib = qpathnet.amplitude_distribution(chain, functional).total()
    want = ref.transition_amplitude(inp["hamiltonian"], inp["pre"], inp["post"], inp["total_time"])
    defect = abs(lib - want)
    return ("sum_rule", PASS if defect <= SUM_RULE_TOL else WRONG, f"|sum_f A(f) - <post|U|pre>| = {defect:.3g}")


class LongChain:
    """Paths-bound: 2^15 paths, 16-point support, A(f) rebuilt 11 times."""

    name = "long-chain"
    STEPS = 15
    WIDTHS = (0.1, 1.0, 10.0, 100.0, 1000.0)
    STRONG_WIDTH = 0.5

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def inputs(self, i: int) -> dict:
        return _random_chain_inputs(self.seed, i, self.STEPS, _random_spin)

    def sizes(self) -> dict:
        """Input size of one op: one branch, its paths, and the support of
        a sum of STEPS values of +-1."""
        return {"branches": 1, "paths.n_paths": 2**self.STEPS, "paths.support_size": self.STEPS + 1}

    def setup(self) -> None:
        """Builds one op's library inputs (chain, functional, meter)."""
        _build_chain(self.inputs(0))
        functional = qpathnet.PathFunctional.weighted_steps([1.0] * self.STEPS)
        qpathnet.MeterSpec(functional, qpathnet.PointerProfile.rectangular(self.STRONG_WIDTH))

    def op(self, i: int, inp: dict) -> dict:
        chain = _build_chain(inp)
        f = qpathnet.PathFunctional.weighted_steps([1.0] * self.STEPS)
        dist = qpathnet.reading_distribution(
            chain, qpathnet.MeterSpec(f, qpathnet.PointerProfile.rectangular(self.STRONG_WIDTH))
        )
        return {
            "chain": chain,
            "functional": f,
            "weak_value": qpathnet.weak_value(chain, f),
            "strong_mean": qpathnet.strong_mean(chain, f),
            "strong_bins": qpathnet.strong_limit_bins(chain, f),
            "relative": qpathnet.relative_amplitudes(chain, f),
            "norm": dist.norm,
            "mean_reading": qpathnet.mean_reading(dist),
            "sweep": qpathnet.weak_limit_report(chain, f, self.WIDTHS),
        }

    def check(self, i: int, inp: dict, out: dict) -> list:
        gates = [_sum_rule(out["chain"], out["functional"], inp)]
        support, amps = ref.additive_amplitudes(*_ref_args(inp), [1.0] * self.STEPS)
        total = amps.sum()
        probs = np.abs(amps) ** 2
        bad = []
        if not _rel_ok(out["weak_value"], (support * amps).sum() / total, EXACT_TOL):
            bad.append("weak_value")
        if not _rel_ok(out["strong_mean"], (support * probs).sum() / probs.sum(), EXACT_TOL):
            bad.append("strong_mean")
        # library support points carry the eigenvalues' rounding; the
        # oracle's are exact integers
        bins = sorted(out["strong_bins"].items())
        rel = sorted(out["relative"].items())
        if len(bins) != support.size or not np.allclose([f for f, _ in bins], support, rtol=0, atol=1e-9):
            bad.append("support")
        else:
            if not all(_rel_ok(b, p, EXACT_TOL) for (_, b), p in zip(bins, probs)):
                bad.append("strong_limit_bins")
            if not all(_rel_ok(r, a / total, EXACT_TOL) for (_, r), a in zip(rel, amps)):
                bad.append("relative_amplitudes")
        rect = lambda d: ref.rectangular_autocorrelation(d, self.STRONG_WIDTH)  # noqa: E731
        norm, mean = ref.moments(support, amps, rect)
        if not _rel_ok(out["norm"], norm, QUADRATURE_TOL) or not _rel_ok(out["mean_reading"], mean, QUADRATURE_TOL):
            bad.append("rectangular_moments")
        for w, got in zip(self.WIDTHS, out["sweep"].means):
            _, mean = ref.moments(support, amps, lambda d, w=w: ref.gaussian_autocorrelation(d, w))
            if not _rel_ok(got, mean, QUADRATURE_TOL):
                bad.append(f"gaussian_mean(w={w:g})")
        gates.append(_gate("closed_form", bad))
        return gates


class JointSample:
    """Kernel- and sampling-bound: a 2601^2 joint grid and 500k trials."""

    name = "joint-sample"
    TRIALS = 500_000
    WIDTH = 1.0
    SCALING_TRIALS = 1_000_000
    SCALING_INPUT = 2**31 - 1  # an op index no timed op reaches

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    @staticmethod
    def _projector(rng) -> np.ndarray:
        """Rank-one projector on a random state: eigenvalues 0 and 1."""
        return (np.eye(2) + _random_spin(rng)) / 2.0

    def inputs(self, i: int) -> dict:
        return _random_chain_inputs(self.seed, i, 2, self._projector)

    def sizes(self) -> dict:
        """Success and failure branches of 4 paths; eigenvalues 0 and 1."""
        return {"branches": 2, "paths.n_paths": 2 * 4, "paths.support_size": 2}

    def meters(self):
        profile = qpathnet.PointerProfile.gaussian(self.WIDTH)
        return [
            qpathnet.MeterSpec(qpathnet.PathFunctional.step_eigenvalue(0), profile),
            qpathnet.MeterSpec(qpathnet.PathFunctional.step_eigenvalue(1), profile),
        ]

    def setup(self) -> None:
        """Builds one op's library inputs (chain and meters)."""
        _build_chain(self.inputs(0))
        self.meters()

    def op(self, i: int, inp: dict) -> dict:
        chain = _build_chain(inp)
        meters = self.meters()
        joint = qpathnet.joint_reading_distribution(chain, meters)
        means = [joint.marginal_mean(0), joint.marginal_mean(1)]
        trials = qpathnet.sample_trials(chain, meters, self.TRIALS, self.seed * 1_000_003 + i, max_workers=1)
        return {
            "chain": chain,
            "meters": meters,
            "norm": joint.norm,
            "means": means,
            "summary": trials.summary(),
        }

    def check(self, i: int, inp: dict, out: dict) -> list:
        gates = [_sum_rule(out["chain"], m.functional, inp) for m in out["meters"]]
        amps, values = ref.path_amplitudes(*_ref_args(inp))
        corr = [lambda d: ref.gaussian_autocorrelation(d, self.WIDTH)] * 2
        norm, means = ref.joint_moments(amps, values, corr)
        fail_inp = dict(inp, post=ref.orthogonal_complement_2(inp["post"]))
        fail_norm, _ = ref.joint_moments(ref.path_amplitudes(*_ref_args(fail_inp))[0], values, corr)
        s = out["summary"]
        bad = []
        if not _rel_ok(out["norm"], norm, QUADRATURE_TOL):
            bad.append("norm")
        for r in range(2):
            if not _rel_ok(out["means"][r], means[r], QUADRATURE_TOL):
                bad.append(f"marginal_mean_{r}")
            if not _rel_ok(s.meters[r].exact_mean, means[r], QUADRATURE_TOL):
                bad.append(f"exact_mean_{r}")
        p = norm / (norm + fail_norm)
        if not _rel_ok(s.exact_success_probability, p, QUADRATURE_TOL):
            bad.append("exact_success_probability")
        gates.append(_gate("closed_form", bad))
        z = [m.z_score for m in s.meters]
        z.append((s.success_rate - p) / math.sqrt(p * (1.0 - p) / s.n_trials))
        ok = all(abs(v) <= MC_Z for v in z)
        gates.append(("monte_carlo", PASS if ok else WRONG, "z = " + ", ".join(f"{v:.2f}" for v in z)))
        return gates

    def scaling(self, tracer, n_workers: int) -> tuple[dict, list]:
        """Draw SCALING_TRIALS at one worker and at n_workers; returns the
        draw-phase seconds per worker count and the bit-identity gate."""
        inp = self.inputs(self.SCALING_INPUT)
        chain = _build_chain(inp)
        meters = self.meters()
        draws, results = {}, {}
        for workers in (1, n_workers):
            op = f"scaling-workers-{workers}"
            tracer.begin_op(op)
            try:
                trials = qpathnet.sample_trials(chain, meters, self.SCALING_TRIALS, self.seed, max_workers=workers)
            finally:
                tracer.end_op()
            draws[workers] = tracer.draw_seconds(op)
            results[workers] = trials
        a, b = results[1], results[n_workers]
        same = np.array_equal(a.readings, b.readings) and np.array_equal(a.branches, b.branches)
        return draws, [("worker_invariance", PASS if same else WRONG, f"1 vs {n_workers} workers bit-identical: {same}")]


class CliPresets:
    """The user's path: `qpathnet run` for 4 presets x 4 modes, then `report`."""

    name = "cli-presets"
    PRESETS = ("projector", "minus-hundred", "difference", "three-box")
    MODES = ("exact", "sweep", "sample", "classical")
    # the scenarios module's tolerance classes, fixed here so that a change to
    # the library's table cannot loosen the gate
    TOLERANCES = {"analytic": 1e-9, "quadrature": 1e-6, "marginal": 1e-3, "sweep": 0.05}

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def inputs(self, i: int) -> dict:
        return {"cli_seed": self.seed * 1_000_003 + i, "dir": self.tmp / f"op-{i}"}

    def setup(self) -> None:
        """Builds the preset documents and their expected tables."""
        self.presets = {}
        for name in self.PRESETS:
            preset = qpathnet.build_preset(name)
            qpathnet.export_config(preset.name, preset.chain, preset.meters,
                                   qpathnet.RunSettings(widths=preset.sweep_widths))
            self.presets[name] = preset

    def sizes(self) -> dict:
        """Sample runs evaluate every branch (dim of them) of each preset."""
        chains = [p.chain for p in self.presets.values()]
        supports = [
            np.unique(m.functional.values(p.chain)).size
            for p in self.presets.values() for m in p.meters
        ]
        return {
            "branches": sum(c.dim for c in chains),
            "paths.n_paths": sum(c.dim * c.n_paths for c in chains),
            "paths.support_size": max(supports),
        }

    def op(self, i: int, inp: dict) -> dict:
        out = inp["dir"]
        codes, logs = {}, {}
        for preset in self.PRESETS:
            for mode in self.MODES:
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    codes[preset, mode] = qpathnet.cli.main(
                        ["run", f"preset:{preset}", str(out / f"{preset}-{mode}"),
                         "--mode", mode, "--seed", str(inp["cli_seed"])]
                    )
                logs[preset, mode] = log.getvalue()
        by_dim: dict = {}
        for (preset, mode), code in codes.items():
            if code == 0:
                by_dim.setdefault(self.presets[preset].chain.dim, []).append(
                    str(out / f"{preset}-{mode}" / "summary.json"))
        report_codes = {}
        for dim, paths in sorted(by_dim.items()):
            with contextlib.redirect_stdout(io.StringIO()):
                report_codes[dim] = qpathnet.cli.main(["report", *paths, "--out", str(out / f"report-dim{dim}")])
        return {"codes": codes, "logs": logs, "report_codes": report_codes}

    def artifact_bytes(self, inp: dict) -> int:
        return sum(f.stat().st_size for f in inp["dir"].rglob("*") if f.is_file())

    def cleanup(self, inp: dict) -> None:
        shutil.rmtree(inp["dir"], ignore_errors=True)

    def check(self, i: int, inp: dict, out: dict) -> list:
        gates = []
        for (preset, mode), code in out["codes"].items():
            gate = f"run {preset} {mode}"
            if code != 0:
                last = out["logs"][preset, mode].strip().splitlines()
                known = KNOWN_FAILURES.get((self.name, preset, mode)) == code
                gates.append((gate, ERROR if known else WRONG,
                              f"exit {code}{' (known failure)' if known else ''}: {last[0] if last else ''}"))
                continue
            # the run's summary must also go through `report`
            report_code = out["report_codes"][self.presets[preset].chain.dim]
            if report_code != 0:
                gates.append((gate, WRONG, f"report over its summaries exited {report_code}"))
                continue
            with open(inp["dir"] / f"{preset}-{mode}" / "summary.json") as fh:
                summary = json.load(fh)
            gates.append(_gate(gate, self._mismatches(self.presets[preset], mode, summary)))
        return gates

    def _mismatches(self, preset, mode: str, s: dict) -> list:
        """Entries of the preset's expected table that the summary misses."""
        got = {}
        if mode == "exact":
            m0 = s["meters"][0]
            got["strong_mean"] = s["strong_mean"]
            got["weak_value_re"] = s["weak_value_re"]
            got["weak_value_im"] = s["weak_value_im"]
            bins0 = _normalized_bins(m0)
            rel0 = {f: re for f, re, _ in m0["relative_amplitudes"]}
            for f, p in bins0.items():
                got[f"strong_bin_{f:g}"] = p
            if 2.0 in rel0 or -2.0 in rel0:
                got["weak_from_relative"] = 2.0 * (rel0.get(2.0, 0.0) - rel0.get(-2.0, 0.0))
            if "weak_marginals" in s:
                m1 = s["meters"][1]
                rel1 = {f: re for f, re, _ in m1["relative_amplitudes"]}
                got["weak_marginal_0"], got["weak_marginal_1"] = s["weak_marginals"]
                # meters 0 and 1 indicate paths 0 and 2; path 1 is what is left
                got["relative_amplitude_0"] = rel0[1.0]
                got["relative_amplitude_2"] = rel1[1.0]
                got["relative_amplitude_1"] = rel0[0.0] - rel1[1.0]
                got["strong_first_indicator_at_1"] = bins0.get(1.0, 0.0)
                got["strong_third_indicator_at_1"] = _normalized_bins(m1).get(1.0, 0.0)
        elif mode == "sweep":
            got["sweep_limit"] = s["means"][-1]
            got["weak_value_re"] = s["weak_value_re"]
            got["weak_value_im"] = s["weak_value_im"]
        bad = []
        for key, value in got.items():
            exp = preset.expected.get(key)
            if exp is None:
                continue
            if exp.kind == "sweep":
                ok = abs(value - exp.value) <= self.TOLERANCES["sweep"] * abs(exp.value)
            else:
                ok = abs(value - exp.value) <= self.TOLERANCES[exp.kind]
            if not ok:
                bad.append(f"{key}={value!r} (expected {exp.value!r}, {exp.kind})")
        if mode == "sample":
            bad += self._sample_mismatches(preset, s)
        elif mode == "classical":
            bad += self._classical_mismatches(preset, s)
        return bad

    @staticmethod
    def _sample_mismatches(preset, s: dict) -> list:
        """Monte-Carlo gate: |z| <= MC_Z for each meter and the success rate
        (the expected table's mc entries are success fractions)."""
        n = s["trials"]
        bad = [f"meter{m['index']} z={m['z_score']:.2f}" for m in s["meters"] if abs(m["z_score"]) > MC_Z]
        targets = [s["exact_success_probability"]]
        if "mc_success_fraction" in preset.expected:
            targets.append(preset.expected["mc_success_fraction"].value)
        for p in targets:
            z = (s["success_rate"] - p) / math.sqrt(p * (1.0 - p) / n)
            if abs(z) > MC_Z:
                bad.append(f"success_rate z={z:.2f} against {p!r}")
        return bad

    @staticmethod
    def _classical_mismatches(preset, s: dict) -> list:
        """The comparator adds path probabilities: its conditional mean is the
        mean over distinguishable paths of the chain."""
        chain = preset.chain
        inp = {
            "hamiltonian": np.asarray(chain.propagator.hamiltonian),
            "pre": np.asarray(chain.pre_state.amplitudes),
            "post": np.asarray(chain.post_state.amplitudes),
            "total_time": chain.total_time,
            "times": [st.time for st in chain.steps],
            "observables": [np.asarray(st.observable.matrix) for st in chain.steps],
        }
        amps, values = ref.path_amplitudes(*_ref_args(inp))
        functional = preset.meters[0].functional
        if functional.rule == "step_eigenvalue":
            path_values = values[functional.params["step"]]
        elif functional.rule == "step_difference":
            path_values = values[functional.params["later"]] - values[functional.params["earlier"]]
        elif functional.rule == "path_indicator":
            # eigenvalues of the preset observables are listed ascending, so
            # numpy's eigh keeps the library's path order
            path_values = np.zeros(amps.size)
            path_values[np.ravel_multi_index(functional.params["path"], (chain.dim,) * chain.n_steps)] = 1.0
        else:
            return [f"no classical oracle for functional rule {functional.rule!r}"]
        bad = []
        if abs(sum(s["probabilities"]) - 1.0) > EXACT_TOL:
            bad.append("path probabilities do not sum to 1")
        want = ref.distinguishable_mean(amps, path_values)
        if not _rel_ok(s["conditional_mean"], want, EXACT_TOL):
            bad.append(f"conditional_mean={s['conditional_mean']!r} (distinguishable paths give {want!r})")
        return bad


def _normalized_bins(meter: dict) -> dict:
    total = sum(m for _, m in meter["strong_bins"])
    return {f: m / total for f, m in meter["strong_bins"]}


WORKLOADS = {w.name: w for w in (LongChain, JointSample, CliPresets)}
