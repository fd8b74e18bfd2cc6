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
    amplitude_distribution,
    final_pointer_state,
    grouped_amplitudes,
    joint_reading_distribution,
    path_amplitudes,
    reading_distribution,
    sample_trials,
    total_reading_distribution,
)
from qpathnet import meter as meter_module
from qpathnet import sampling as sampling_module
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


# an asymmetric unit template on [-1, 0.4], nonzero at both ends
_ASYMMETRIC_XS = np.linspace(-1.0, 0.4, 29)
_ASYMMETRIC = (1.0 + _ASYMMETRIC_XS) * (0.4 - _ASYMMETRIC_XS) + 0.1
_ASYMMETRIC /= math.sqrt(np.trapezoid(_ASYMMETRIC**2, _ASYMMETRIC_XS))

# first meters whose reach is below the gap of their values, so that bands
# drop groups: the eigenvalues of each step, the profile, and the axis-0 step
# for one meter and for more
BANDED = {
    # nodes k +- 0.5, on the half-jump edges of the integer values k
    "rectangular-edges": ([0.0, 1.0], PointerProfile.rectangular(1.0), (0.25, 0.5)),
    # values 150 apart, over twice the reach of 54.6 widths: nodes between
    # them, such as 75, are reached by no group
    "gaussian-spread": ([0.0, 150.0], PointerProfile.gaussian(1.0), (5.0, 20.0)),
    # nodes k - 1, on the template's left end
    "asymmetric-tabulated": ([0.0, 1.0], PointerProfile.tabulated(_ASYMMETRIC_XS, _ASYMMETRIC), (0.25, 0.5)),
}


def _banded_case(case, n_meters):
    """A chain, its meters and their grids; coarser axis-0 grids and later
    axes of few nodes keep the brute-force loops small for every R."""
    eigenvalues, first, (one, more) = BANDED[case]
    scale = eigenvalues[1]
    chain = random_chain(np.random.default_rng(len(case) + n_meters), 2, 3, eigenvalues=eigenvalues)
    functionals = [
        PathFunctional.weighted_steps([1.0, 1.0, 1.0]),
        PathFunctional.step_eigenvalue(1),
        PathFunctional.weighted_steps([1.0, -1.0, 0.0]),
    ][:n_meters]
    profiles = [first, PointerProfile.gaussian(0.2 * scale), PointerProfile.rectangular(0.3 * scale)][:n_meters]
    steps = [one if n_meters == 1 else more] + [4.0 * p.width for p in profiles[1:]]
    grids = [
        Grid.cover(f.values(chain), p.width, pad=5.0, step=h) for f, p, h in zip(functionals, profiles, steps)
    ]
    return chain, [MeterSpec(f, p) for f, p in zip(functionals, profiles)], grids


@pytest.mark.parametrize("block_cells", [1, 7, 50])
@pytest.mark.parametrize("n_meters", [1, 2, 3])
@pytest.mark.parametrize("case", sorted(BANDED))
def test_banded_blocks_match_brute_force(monkeypatch, case, n_meters, block_cells):
    chain, meters, grids = _banded_case(case, n_meters)
    monkeypatch.setattr(meter_module, "KERNEL_BLOCK_CELLS", block_cells)
    joint = joint_reading_distribution(chain, meters, grids)
    values = [m.functional.values(chain) for m in meters]
    brute = brute_force_joint_density(
        path_amplitudes(chain), values, [m.profile for m in meters], [g.xs() for g in grids]
    )
    assert np.allclose(joint.density, brute, rtol=1e-10, atol=1e-12)
    # only exact zeros are left out: a term dropped above the tolerance's
    # floor would leave a zero where the oracle has none
    assert np.array_equal(joint.density == 0.0, brute == 0.0)
    if case == "gaussian-spread":
        # axis-0 nodes with an empty band hold exact zeros
        assert np.all(joint.density.reshape(grids[0].n, -1) == 0.0, axis=1).any()


def _pointer(columns, keys, profiles, grids):
    """M, one row per amplitude column, from the kernel's blocks; a node no
    block reaches is left NaN."""
    pointer = np.full((columns.shape[1], *(g.n for g in grids)), np.nan, dtype=complex)
    for block, re, im in meter_module._pointer_blocks(columns, keys, profiles, grids):
        pointer.real[:, block], pointer.imag[:, block] = re, im
    return pointer


@pytest.mark.parametrize("block_cells", [1, 7, 50])
@pytest.mark.parametrize("n_meters", [1, 2, 3])
def test_all_zero_amplitude_column(monkeypatch, n_meters, block_cells):
    chain, meters, grids = _banded_case("rectangular-edges", n_meters)
    profiles, axes = [m.profile for m in meters], [g.xs() for g in grids]
    keys, amps = grouped_amplitudes(chain, [m.functional for m in meters])
    columns = np.stack([amps, np.zeros_like(amps), 1j * amps[::-1]], axis=1)
    monkeypatch.setattr(meter_module, "KERNEL_BLOCK_CELLS", block_cells)
    pointer = _pointer(columns, keys, profiles, grids)
    for c in (0, 2):
        brute = brute_force_joint_density(columns[:, c], keys.T, profiles, axes)
        assert np.allclose(np.abs(pointer[c]) ** 2, brute, rtol=1e-10, atol=1e-12)
    assert not pointer[1].any()
    # alone, the zero column leaves no group to contract
    assert not _pointer(columns[:, 1:2], keys, profiles, grids).any()


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("profile", [PointerProfile.gaussian(0.7), PointerProfile.rectangular(0.4)])
def test_total_density_adds_each_branch_in_turn(dim, profile):
    # the density reads one amplitude column at a time: bit for bit each
    # branch's squared pointer state, added in branch order
    chain = random_chain(np.random.default_rng(dim), dim, 3)
    meter = MeterSpec(PathFunctional.weighted_steps([1.0, 0.5, -0.25]), profile)
    total = total_reading_distribution(chain, meter)
    expected = 0.0
    for branch in chain.branches():
        state = final_pointer_state(amplitude_distribution(branch, meter.functional), profile, total.grids[0])
        expected = expected + (state.real * state.real + state.imag * state.imag)
    assert np.array_equal(total.density, expected)


@given(
    shape=st.sampled_from(SHAPES + ("asymmetric-tabulated",)),
    width=st.floats(1e-8, 1e8),
    stretch=st.floats(0.5, 2.0),
    beyond=st.lists(st.floats(1e-15, 1e3), min_size=1, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_samples_are_zero_beyond_the_reach(shape, width, stretch, beyond):
    """The kernel's bands leave out only groups beyond the reach, so samples
    there must be exactly 0.0: no band can drop a nonzero term.  The
    asymmetric template, stretched, ends at -stretch with a nonzero value,
    where width * stretch is rounded."""
    if shape == "asymmetric-tabulated":
        xs, values = _ASYMMETRIC_XS * stretch, _ASYMMETRIC / math.sqrt(stretch)
        profile = PointerProfile.tabulated(xs, values, width)
    else:
        profile = _profile(shape, width)
    reach = profile._reach
    xi = np.array([np.nextafter(reach, math.inf)] + [reach * (1.0 + b) for b in beyond])
    assert np.all(profile.samples(np.concatenate([xi, -xi])) == 0.0)
    if shape == "rectangular":
        # the half-jump edges lie within the reach
        assert np.all(profile.samples(np.array([-width / 2.0, width / 2.0])) > 0.0)


def test_narrow_meter_samples_few_groups_per_node(monkeypatch):
    """256 values one apart, a rectangular meter of width 0.5 on its default
    grid: a block of 128 nodes 0.0025 apart, widened by the reach on both
    sides, spans less than 1, so its band is at most one group and axis 0
    takes at most one sample per node, where a contraction over every group
    takes 256."""
    chain = random_chain(np.random.default_rng(256), 2, 8, eigenvalues=[0.0, 1.0])
    functional = PathFunctional.weighted_steps([2.0**k for k in range(8)])
    assert len(grouped_amplitudes(chain, [functional])[0]) == 256
    evaluated = []
    samples = PointerProfile.samples

    def counted(self, xi):
        evaluated.append(np.size(xi))
        return samples(self, xi)

    monkeypatch.setattr(PointerProfile, "samples", counted)
    dist = reading_distribution(chain, MeterSpec(functional, PointerProfile.rectangular(0.5)))
    assert sum(evaluated) <= dist.grids[0].n
    assert dist.norm > 0.0


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

    def test_two_narrow_meters_sample_from_per_axis_tables(self):
        # the chain-rule draw holds per-axis tables of ~4e5 nodes, not the
        # 1.6e11-cell product grid
        meters = [
            MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(1e-3))
            for k in (0, 1)
        ]
        tracemalloc.start()
        try:
            trials = sample_trials(self._chain(), meters, 10, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trials.n_trials == 10
        assert peak < 64 << 20

    def test_three_meters_sample_above_the_product_grid_cap(self):
        # the product grid's 351^3 = 43243551 cells, held once per branch,
        # are above the cap; the chain rule's tables hold a few thousand cells
        chain = random_chain(np.random.default_rng(7), 2, 3, eigenvalues=[0.0, 1.0])
        meters = [MeterSpec(PathFunctional.step_eigenvalue(k), PointerProfile.gaussian(0.5)) for k in range(3)]
        grids = [Grid.cover([0.0, 1.0], 0.5, step=0.02)] * 3
        assert 2 * math.prod(g.n for g in grids) > MAX_GRID_CELLS
        trials = sample_trials(chain, meters, 1000, seed=3, grids=grids)
        assert trials.readings.shape == (1000, 3)

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


class TestSamplesCountAgainstTheCap:
    """The kernel holds each later axis's samples for every group at once:
    1024 groups on 542 x 511 nodes hold 523k axis-1 samples beside the 277k
    cells of the product grid.  Each cap below is refused only when the
    samples are counted."""

    CELLS, SAMPLES = 542 * 511, 1024 * 511

    def _case(self, monkeypatch, cap):
        chain = random_chain(np.random.default_rng(3), 2, 10, eigenvalues=[0.0, 1.0])
        # binary weights, forwards and reversed: each of the 1024 paths its own group
        weights = [2.0**k for k in range(10)]
        meters = [
            MeterSpec(PathFunctional.weighted_steps(w), PointerProfile.gaussian(1.0)) for w in (weights, weights[::-1])
        ]
        grids = [Grid(-5.0, 1033.0 / (n - 1), n) for n in (542, 511)]
        keys, _ = grouped_amplitudes(chain, [m.functional for m in meters])
        assert len(keys) == 1024 and math.prod(g.n for g in grids) == self.CELLS
        monkeypatch.setattr(meter_module, "MAX_GRID_CELLS", cap)
        return chain, meters, grids, keys

    def test_joint_density_fails_before_allocating(self, monkeypatch):
        cap = 600_000
        assert self.CELLS < cap < self.CELLS + self.SAMPLES
        chain, meters, grids, _ = self._case(monkeypatch, cap)
        assert _peak_bytes(lambda: joint_reading_distribution(chain, meters, grids)) < 1 << 20
        # the axis-1 samples alone exceed the cap: only meter 1's width brings them under it
        with pytest.raises(ValueError, match=r"widen meters\[1\]\.profile\.width \(1\.0\)"):
            joint_reading_distribution(chain, meters, grids)

    def test_product_grid_draw_fails_before_allocating(self, monkeypatch):
        # the law holds the masses of both branches beside the kernel's
        # samples, above this cap; the kernel's own count is below it
        cap = 1_000_000
        assert self.CELLS + self.SAMPLES < cap < 2 * self.CELLS + self.SAMPLES
        chain, meters, grids, keys = self._case(monkeypatch, cap)
        # the later axis's 1024 values make the chain rule's pair tables too many
        classes = [len(np.unique(keys[:, 1]))]
        assert not sampling_module._chain_rule_pays(len(keys), classes, len(chain.branches()), grids, 10)
        assert _peak_bytes(lambda: sample_trials(chain, meters, 10, seed=1, grids=grids)) < 1 << 20


def _law_grid(values, width, rng):
    """A given grid over the values, 40-120 nodes 6 to 7 widths past them."""
    lo = float(np.min(values)) - width * rng.uniform(6.0, 7.0)
    hi = float(np.max(values)) + width * rng.uniform(6.0, 7.0)
    n = int(rng.integers(40, 121))
    return Grid(lo, (hi - lo) / (n - 1), n)


@given(
    seed=st.integers(0, 2**32 - 1),
    n_meters=st.integers(2, 3),
    shapes=st.lists(st.sampled_from(SHAPES), min_size=3, max_size=3),
    default_axis=st.integers(0, 3),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_joint_law_norm_and_marginals_match_the_integrated_density(seed, n_meters, shapes, default_axis):
    # the law integrates each other axis through its grid overlaps, the
    # density through the same trapezoid weights: equal up to rounding.  Two
    # meters may leave one axis to its default grid (about 2400-3000 nodes)
    rng = np.random.default_rng(seed)
    dim, n_steps = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    chain = random_chain(rng, dim, n_steps)
    functionals = [
        PathFunctional.step_eigenvalue(int(rng.integers(n_steps)))
        if rng.random() < 0.5
        else PathFunctional.weighted_steps(rng.integers(-2, 3, n_steps).astype(float).tolist())
        for _ in range(n_meters)
    ]
    meters = [MeterSpec(f, _profile(s, rng.uniform(0.3, 2.0))) for f, s in zip(functionals, shapes)]
    keys, _ = grouped_amplitudes(chain, functionals)
    grids = [_law_grid(keys[:, r], m.profile.width, rng) for r, m in enumerate(meters)]
    if n_meters == 2 and default_axis < 2:
        grids[default_axis] = None
    joint = joint_reading_distribution(chain, meters, grids)
    weights = [g.weights() for g in joint.grids]
    law_norm = joint.norm
    assert "density" not in vars(joint)
    density = joint.density
    assert abs(law_norm - meter_module._integrate(density, weights)) <= 1e-12 * law_norm
    for i in range(n_meters):
        marginal = joint.marginal(i)
        expected = meter_module._integrate(density, [None if r == i else w for r, w in enumerate(weights)])
        assert np.abs(marginal.density - expected).max() <= 1e-12 * expected.max()
        assert joint.marginal_mean(i) == meter_module.mean_reading(marginal)


def _two_projector_meters(seed):
    """A 2-step chain of projectors (eigenvalues 0 and 1), read by one
    Gaussian meter of width 1 per step: default grids of 2601 nodes each."""
    chain = random_chain(np.random.default_rng(seed), 2, 2, eigenvalues=[0.0, 1.0])
    profile = PointerProfile.gaussian(1.0)
    return chain, [MeterSpec(PathFunctional.step_eigenvalue(s), profile) for s in (0, 1)]


def test_joint_law_reads_norm_and_means_without_the_density():
    # the 2601^2 density is 54 MB; the law's forms and kernel blocks a few hundred kB
    chain, meters = _two_projector_meters(11)
    tracemalloc.start()
    try:
        joint = joint_reading_distribution(chain, meters)
        numbers = [joint.norm, joint.marginal_mean(0), joint.marginal_mean(1)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert all(math.isfinite(x) for x in numbers)
    assert joint.density.shape == (2601, 2601)


def test_joint_law_marginal_falls_back_to_the_density(monkeypatch):
    # TestSamplesCountAgainstTheCap's chain: each of its 1024 groups is its
    # own class on either axis, more than the other axis's 511 or 542 nodes,
    # so each marginal integrates the density, exactly as before
    chain = random_chain(np.random.default_rng(3), 2, 10, eigenvalues=[0.0, 1.0])
    weights = [2.0**k for k in range(10)]
    meters = [
        MeterSpec(PathFunctional.weighted_steps(w), PointerProfile.gaussian(1.0)) for w in (weights, weights[::-1])
    ]
    grids = [Grid(-5.0, 1033.0 / (n - 1), n) for n in (542, 511)]
    joint = joint_reading_distribution(chain, meters, grids)

    pair_density = meter_module._pair_density

    def refused(index, values, amps, profiles, grids, a, tables):
        # the density itself is the form on every axis; only an integrated axis is refused
        if a < len(grids):
            raise AssertionError("the class-pair form ran")
        return pair_density(index, values, amps, profiles, grids, a, tables)

    monkeypatch.setattr(meter_module, "_pair_density", refused)
    weights = [g.weights() for g in grids]
    for i in range(2):
        expected = meter_module._integrate(joint.density, [None if r == i else w for r, w in enumerate(weights)])
        assert np.array_equal(joint.marginal(i).density, expected)
    assert joint.norm == joint.marginal(0).norm
