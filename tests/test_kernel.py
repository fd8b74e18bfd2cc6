"""The group-then-contract pointer kernel against independent oracles.

Densities are compared with helpers.brute_force_joint_density (explicit
loops over paths and grid points); marginal means of the large chain with
the Gaussian autocorrelation closed form written out here.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_force_joint_density, random_chain
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
    joint_reading_distribution,
    path_amplitudes,
    reading_distribution,
    sample_trials,
)
from qpathnet import meter as meter_module
from qpathnet.cli import main
from qpathnet.meter import MAX_GRID_CELLS

_TEMPLATE_XS = np.linspace(-1.0, 1.0, 41)
_TEMPLATE = (1.0 - np.abs(_TEMPLATE_XS)) * (1.0 + 0.3 * _TEMPLATE_XS)
_TEMPLATE /= math.sqrt(np.trapezoid(_TEMPLATE**2, _TEMPLATE_XS))

SHAPES = ("gaussian", "rectangular", "tabulated")


def _profile(shape, width):
    if shape == "tabulated":
        return PointerProfile.tabulated(_TEMPLATE_XS, _TEMPLATE, width)
    return getattr(PointerProfile, shape)(width)


def _grid_for(values, width, n):
    """n nodes from 6 widths below the lowest value to 6 above the highest."""
    lo, hi = float(np.min(values)) - 6.0 * width, float(np.max(values)) + 6.0 * width
    return Grid(lo, (hi - lo) / (n - 1), n)


def _assert_matches_brute_force(chain, meters, points):
    values = [m.functional.values(chain) for m in meters]
    grids = [_grid_for(v, m.profile.width, points) for v, m in zip(values, meters)]
    joint = joint_reading_distribution(chain, meters, grids)
    brute = brute_force_joint_density(
        path_amplitudes(chain), values, [m.profile for m in meters], [g.xs() for g in grids]
    )
    assert joint.density.shape == brute.shape
    assert np.allclose(joint.density, brute, rtol=1e-10, atol=1e-12)


# grid points per axis keep the brute-force loops small for every R
POINTS = {1: 61, 2: 19, 3: 9}


@given(
    seed=st.integers(0, 2**32 - 1),
    n_meters=st.integers(1, 3),
    shapes=st.lists(st.sampled_from(SHAPES), min_size=3, max_size=3),
    integer_eigenvalues=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_brute_force(seed, n_meters, shapes, integer_eigenvalues):
    rng = np.random.default_rng(seed)
    eigenvalues = [0.0, 1.0] if integer_eigenvalues else None
    chain = random_chain(rng, 2, 3, eigenvalues=eigenvalues)
    functionals = [
        PathFunctional.weighted_steps([1.0, 1.0, 1.0]),
        PathFunctional.step_eigenvalue(1),
        PathFunctional.weighted_steps([2.0, -1.0, 0.0]),
    ]
    widths = rng.uniform(0.3, 2.0, size=3)
    meters = [
        MeterSpec(functionals[r], _profile(shapes[r], widths[r])) for r in range(n_meters)
    ]
    _assert_matches_brute_force(chain, meters, POINTS[n_meters])


@pytest.mark.parametrize("n_meters", [1, 2, 3])
def test_repeated_values_give_fewer_groups_than_paths(n_meters):
    rng = np.random.default_rng(40 + n_meters)
    chain = random_chain(rng, 2, 3, eigenvalues=[0.0, 1.0])
    functionals = [
        PathFunctional.weighted_steps([1.0, 1.0, 1.0]),
        PathFunctional.weighted_steps([1.0, 1.0, 0.0]),
        PathFunctional.step_eigenvalue(2),
    ][:n_meters]
    table = np.stack([f.values(chain) for f in functionals], axis=1)
    assert len(np.unique(table, axis=0)) < chain.n_paths
    meters = [MeterSpec(f, _profile(s, 0.7)) for f, s in zip(functionals, SHAPES)]
    _assert_matches_brute_force(chain, meters, POINTS[n_meters])


@pytest.mark.parametrize("block_cells", [1, 7, 50])
@pytest.mark.parametrize("n_meters", [1, 2, 3])
def test_block_size_is_invisible(monkeypatch, block_cells, n_meters):
    # tiny blocks: one or a few rows of axis 0 per block, ragged last block
    rng = np.random.default_rng(7 * n_meters + block_cells)
    chain = random_chain(rng, 2, 3, eigenvalues=[0.0, 1.0])
    functionals = [
        PathFunctional.weighted_steps([1.0, 1.0, 1.0]),
        PathFunctional.step_eigenvalue(0),
        PathFunctional.weighted_steps([1.0, -1.0, 2.0]),
    ][:n_meters]
    meters = [MeterSpec(f, _profile(s, 0.9)) for f, s in zip(functionals, SHAPES)]
    monkeypatch.setattr(meter_module, "KERNEL_BLOCK_CELLS", block_cells)
    _assert_matches_brute_force(chain, meters, POINTS[n_meters])


def _cancelling_chain():
    """Free two-step spin chain, pre |0>, post |1>, both steps measuring
    sigma_x: the paths (+,+) and (-,-) carry +1/2 and -1/2 and share the
    value 0 of weighted_steps([1, -1]), so that group sums to exactly 0."""
    s = 1.0 / math.sqrt(2.0)
    obs = Observable.from_eigensystem([1.0, -1.0], [[s, s], [s, -s]])
    steps = (MeasurementStep(0.3, obs), MeasurementStep(0.6, obs))
    return MeasurementChain(
        StateVector([1.0, 0.0]), steps, Propagator.free(2), StateVector([0.0, 1.0]), 1.0
    )


@pytest.mark.parametrize("shape", SHAPES)
def test_zero_amplitude_group(shape):
    chain = _cancelling_chain()
    difference = PathFunctional.weighted_steps([1.0, -1.0])
    values, amps = difference.values(chain), path_amplitudes(chain)
    assert amps[values == 0.0].sum() == 0.0
    meters = [
        MeterSpec(difference, _profile(shape, 0.8)),
        MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1.1)),
    ]
    _assert_matches_brute_force(chain, meters, POINTS[2])
    _assert_matches_brute_force(chain, meters[:1], POINTS[1])


def test_ten_step_two_meter_chain_marginal_means():
    """2^10 paths, two Gaussian meters on a 2801^2 grid."""
    width = 1.0
    chain = random_chain(np.random.default_rng(1024), 2, 10, eigenvalues=[1.0, -1.0])
    meters = [
        MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(width)),
        MeterSpec(PathFunctional.step_eigenvalue(9), PointerProfile.gaussian(width)),
    ]
    joint = joint_reading_distribution(chain, meters)
    assert chain.n_paths == 2**10
    assert joint.density.shape == (2801, 2801)

    # int G(x - a) G(x - b) dx = C(a - b) = exp(-(a - b)^2 / 8 w^2) and
    # int x G(x - a) G(x - b) dx = (a + b) / 2 C(a - b); the joint overlap of
    # two paths is the product of the per-axis factors.
    amps = path_amplitudes(chain)
    values = [m.functional.values(chain) for m in meters]
    pair = np.real(amps[:, None] * np.conj(amps[None, :]))
    for v in values:
        pair = pair * np.exp(-((v[:, None] - v[None, :]) ** 2) / (8.0 * width**2))
    norm = pair.sum()
    assert joint.norm == pytest.approx(norm, rel=1e-6)
    for r, v in enumerate(values):
        mean = (pair * (v[:, None] + v[None, :]) / 2.0).sum() / norm
        assert joint.marginal_mean(r) == pytest.approx(mean, rel=1e-6, abs=1e-6)


def _peak_bytes(fn):
    """Raise from fn expected; return the peak traced allocation meanwhile."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"MAX_GRID_CELLS.*profile\.width.*run\.grid\.step"):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridCap:
    def _chain(self):
        return random_chain(np.random.default_rng(3), 2, 2, eigenvalues=[1.0, -1.0])

    def test_narrow_single_meter_fails_before_allocating(self):
        # span 2 at width 1e-6 would be a 4e8-point grid
        meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1e-6))
        assert _peak_bytes(lambda: reading_distribution(self._chain(), meter)) < 1 << 20

    def test_two_narrow_meters_fail_before_allocating(self):
        # two axes of ~4e5 points each: 1.6e11 cells
        meters = [
            MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(1e-3))
            for k in (0, 1)
        ]
        chain = self._chain()
        assert _peak_bytes(lambda: joint_reading_distribution(chain, meters)) < 1 << 20
        assert _peak_bytes(lambda: sample_trials(chain, meters, 10, seed=1)) < 1 << 20

    def test_sampling_buffer_fails_before_allocating(self):
        # one density of ~2e7 cells fits the cap, the three branches' do not
        chain = random_chain(np.random.default_rng(5), 3, 1, eigenvalues=[-1.0, 0.0, 1.0])
        meter = MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(2e-5))
        cells = Grid.cover([-1.0, 1.0], 2e-5).n
        assert cells <= MAX_GRID_CELLS < 3 * cells
        assert _peak_bytes(lambda: sample_trials(chain, [meter], 10, seed=1)) < 1 << 20

    def test_error_names_the_widest_axis(self):
        meters = [
            MeterSpec(PathFunctional.step_eigenvalue(0), PointerProfile.gaussian(1.0)),
            MeterSpec(PathFunctional.step_eigenvalue(1), PointerProfile.gaussian(1e-5)),
        ]
        with pytest.raises(ValueError, match=r"meters\[1\]\.profile\.width \(1e-05\)"):
            joint_reading_distribution(self._chain(), meters)

    def test_cap_is_above_the_largest_benchmark_grid(self):
        assert MAX_GRID_CELLS > 2801**2

    def test_cli_exit_code(self, tmp_path, capsys):
        doc = {
            "name": "too-fine",
            "system": {"dim": 2, "total_time": 1.0},
            "pre_state": [[1.0, 0.0], [0.0, 0.0]],
            "post_state": [[1.0, 0.0], [0.0, 0.0]],
            "steps": [
                {
                    "time": 0.5,
                    "observable": {
                        "eigenvalues": [1.0, -1.0],
                        "basis": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                    },
                }
            ],
            "functionals": [{"name": "first", "rule": "step_eigenvalue", "step": 0}],
            "meters": [{"functional": "first", "profile": {"shape": "gaussian", "width": 1e-6}}],
            "run": {"mode": "exact"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), str(tmp_path / "out")]) == 3
        assert "profile.width" in capsys.readouterr().err
