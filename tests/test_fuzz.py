"""Random exported configs through every mode of `qpathnet run`, with the
paper's identities as the oracle.

Each example draws a random chain, one or two meters and their profiles,
exports the scenario with `export_config` and runs it through `cli.main`
in every mode.  Widths are mostly log-uniform in 0.1-3.2; now and then a
width near the top of the Gaussian range (up to 4.74e153) and weights up
to 1e154 keep the extreme-width class covered.
"""

import contextlib
import io
import itertools
import json
import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import path_amplitude_oracle, random_chain
from qpathnet import MeterSpec, PathFunctional, PointerProfile, amplitude_distribution, export_config
from qpathnet.cli import main
from qpathnet.config import RunSettings
from qpathnet.rng import THREADS_ENV

NON_FINITE = re.compile(r"\b(nan|-?inf(inity)?)\b", re.IGNORECASE)
# a refusal names what to change: a meter's width, a sweep width or the grid step
REMEDY = re.compile(r"meters\[\d\]\.profile\.width|run\.widths|run\.grid\.step")


def random_scenario(seed):
    """(exported config, chain, meters) of one random example."""
    rng = np.random.default_rng(seed)
    dim, n_steps = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    chain = random_chain(rng, dim, n_steps)
    # one example in five is extreme: each meter's width lies in
    # [1e153, 4.74e153], where a grid padded by 6 widths reaches past
    # 1.34e154 and its square, and half the weights are scaled up to 1e154
    extreme = rng.uniform() < 0.2
    meters = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.uniform() < 0.5:
            functional = PathFunctional.step_eigenvalue(int(rng.integers(n_steps)))
        else:
            weights = rng.integers(-3, 4, n_steps) if rng.uniform() < 0.5 else rng.uniform(-2.0, 2.0, n_steps)
            if extreme and rng.uniform() < 0.5:
                weights = weights * 10.0 ** rng.uniform(150.0, 154.0)
            functional = PathFunctional.weighted_steps([float(w) for w in weights])
        if extreme:
            width = 10.0 ** rng.uniform(153.0, math.log10(4.74e153))
        else:
            width = 10.0 ** rng.uniform(-1.0, 0.5)
        shape = "gaussian" if rng.uniform() < 0.5 else "rectangular"
        meters.append(MeterSpec(functional, getattr(PointerProfile, shape)(width)))
    run = RunSettings(seed=int(rng.integers(1 << 30)), trials=4000, widths=(0.3, 3.0, 30.0))
    return export_config("fuzz", chain, meters, run), chain, meters


def run_mode(doc, out, mode, threads=1):
    """(exit code, stderr) of one `qpathnet run` of doc into out."""
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(doc))
    stderr = io.StringIO()
    with mock.patch.dict(os.environ, {THREADS_ENV: str(threads)}), contextlib.redirect_stderr(stderr):
        code = main(["run", str(path), str(out), "--mode", mode])
    return code, stderr.getvalue()


def artifacts(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())} if out.exists() else {}


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_random_configs_through_every_mode(seed):
    doc, chain, meters = random_scenario(seed)
    # sum rule: the A(f) of each meter adds up to <post|U|pre>, here from
    # every path's amplitude by scipy's expm
    transition = sum(
        path_amplitude_oracle(chain, path) for path in itertools.product(range(chain.dim), repeat=chain.n_steps)
    )
    for meter in meters:
        total = amplitude_distribution(chain, meter.functional).amplitudes.sum()
        assert abs(total - transition) <= 1e-10 * max(1.0, abs(transition))

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for mode in ("exact", "sweep", "sample", "classical"):
            out = tmp / mode
            code, stderr = run_mode(doc, out, mode)
            assert code in (0, 2, 3), (mode, stderr)
            if code != 0:
                # the known refusals: grids above the cap, each naming its remedy
                assert REMEDY.search(stderr), (mode, stderr)
                continue
            written = artifacts(out)
            for name, data in written.items():
                assert not NON_FINITE.search(data.decode()), (mode, name)
            summary = json.loads(written["summary.json"])
            if mode == "exact":
                for i, meter in enumerate(meters):
                    if meter.profile.shape != "gaussian":
                        continue  # a window's edges between nodes leave a trapezoid error near step / width
                    xs, density = np.loadtxt(out / f"distribution_m{i}.csv", delimiter=",", skiprows=1).T
                    norm = summary["meters"][i]["norm"]
                    assert np.trapezoid(density, xs) == pytest.approx(norm, rel=1e-6, abs=1e-300), i
                for m in summary["meters"]:
                    relative = sum(complex(re_, im_) for _, re_, im_ in m["relative_amplitudes"])
                    scale = sum(abs(complex(re_, im_)) for _, re_, im_ in m["relative_amplitudes"])
                    assert abs(relative - 1.0) <= 1e-10 * max(1.0, scale)
            if mode == "sample":
                for m in summary["meters"]:
                    assert abs(m["z_score"]) < 5.0, m
                assert run_mode(doc, tmp / "sample-2", mode, threads=2)[0] == 0
                assert artifacts(tmp / "sample-2") == written
