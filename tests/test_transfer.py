"""The walk of grouped_amplitudes against the dense path grouping.

For every functional rule A(f) is propagated over (eigenstate, accumulated
step terms) rows without listing paths; the oracle is the dense grouping of
every path's amplitude by its exact tuple of values (np.unique + np.add.at),
and, for values a few ulps apart, by its tuple of clustered values.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    path_amplitude_oracle,
    random_chain,
    random_hermitian,
    random_spin_chain,
    random_state_vector,
    random_unitary,
)
from qpathnet import (
    MeasurementChain,
    MeasurementStep,
    Observable,
    PathCapError,
    PathFunctional,
    Propagator,
    amplitude_distribution,
    chain_comparator,
    grouped_amplitudes,
    path_amplitudes,
)
from qpathnet import paths
from qpathnet.cli import main


def dense_grouping(chain, functionals):
    values = np.stack([f.values(chain) for f in functionals], axis=1)
    keys, inverse = np.unique(values, axis=0, return_inverse=True)
    amps = np.zeros(len(keys), dtype=complex)
    np.add.at(amps, inverse.reshape(-1), path_amplitudes(chain))
    return keys, amps


def additive_functional(rng, n_steps, integer):
    def weight():
        return float(rng.integers(-2, 3)) if integer else float(rng.normal())

    kinds = ["weighted_steps", "constant"] + (["step_eigenvalue", "step_difference"] if n_steps else [])
    kind = kinds[rng.integers(len(kinds))]
    if kind == "weighted_steps":
        return PathFunctional.weighted_steps([weight() for _ in range(n_steps)])
    if kind == "constant":
        return PathFunctional.constant(weight())
    if kind == "step_eigenvalue":
        return PathFunctional.step_eigenvalue(int(rng.integers(n_steps)))
    return PathFunctional.step_difference(int(rng.integers(n_steps)), int(rng.integers(n_steps)))


def any_functional(rng, chain, integer):
    """A functional of any of the six rules, each drawn with probability 1/6."""
    kind = rng.integers(6)
    if kind == 0:
        return PathFunctional.path_indicator(rng.integers(chain.dim, size=chain.n_steps))
    if kind == 1:
        size = chain.n_paths
        return PathFunctional.from_table(rng.integers(-2, 3, size=size) if integer else rng.normal(size=size))
    return additive_functional(rng, chain.n_steps, integer)


@given(
    st.integers(0, 10_000),
    st.integers(2, 3),
    st.integers(0, 6),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_transfer_table_equals_dense_grouping(seed, dim, n_steps, n_functionals, integer):
    rng = np.random.default_rng(seed)
    eigenvalues = [float(v) for v in rng.integers(-2, 3, size=dim)] if integer else None
    chain = random_chain(rng, dim, n_steps, eigenvalues=eigenvalues)
    functionals = [any_functional(rng, chain, integer) for _ in range(n_functionals)]
    keys, amps = grouped_amplitudes(chain, functionals)
    want_keys, want_amps = dense_grouping(chain, functionals)
    assert keys.shape == want_keys.shape
    assert keys.tobytes() == want_keys.tobytes()
    assert np.max(np.abs(amps - want_amps)) <= 1e-12
    assert abs(amps.sum() - chain.transition_amplitude()) <= 1e-10


def test_dense_rules_group_like_np_unique():
    chain = random_chain(np.random.default_rng(4), 3, 3, eigenvalues=[-1.0, 0.0, 1.0])
    functionals = [
        PathFunctional.path_indicator((0, 2, 1)),
        PathFunctional.step_eigenvalue(1),
        PathFunctional.from_table(np.arange(27) % 4),
    ]
    keys, amps = grouped_amplitudes(chain, functionals)
    want_keys, want_amps = dense_grouping(chain, functionals)
    assert keys.tobytes() == want_keys.tobytes()
    assert np.max(np.abs(amps - want_amps)) <= 1e-12


def clustered_grouping(chain, functionals, tol=1e-9):
    """Dense grouping after clustering each functional's values: walking the
    distinct values upwards, a gap of at most tol continues a cluster, and
    every value stands for the smallest member of its cluster."""
    columns = []
    for f in functionals:
        values = f.values(chain).tolist()
        smallest, previous = {}, None
        for v in sorted(set(values)):
            if previous is None or v - previous > tol:
                first = v
            smallest[v] = first
            previous = v
        columns.append([smallest[v] for v in values])
    groups = {}
    for p, amp in enumerate(path_amplitudes(chain)):
        key = tuple(column[p] for column in columns)
        groups[key] = groups.get(key, 0.0) + amp
    keys = sorted(groups)
    return np.array(keys, dtype=float), np.array([groups[k] for k in keys])


@given(
    st.integers(0, 10_000),
    st.integers(2, 3),
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_values_a_few_ulps_apart_group_as_one(seed, dim, n_steps, n_functionals, ulps):
    rng = np.random.default_rng(seed)
    base = rng.integers(-2, 3, size=dim).astype(float)
    spacing = np.spacing(np.maximum(np.abs(base), 1.0))

    def perturbed():
        return base + rng.integers(-ulps, ulps + 1, size=dim) * spacing

    steps = tuple(
        MeasurementStep((k + 1) / (n_steps + 1), Observable.from_eigensystem(perturbed(), random_unitary(rng, dim)))
        for k in range(n_steps)
    )
    chain = MeasurementChain(
        random_state_vector(rng, dim), steps, Propagator(random_hermitian(rng, dim)), random_state_vector(rng, dim), 1.0
    )

    def functional():
        if rng.random() < 0.25:  # a table's values, a few ulps off integers
            values = rng.integers(-2, 3, size=chain.n_paths) + rng.integers(-ulps, ulps + 1, size=chain.n_paths) * 1e-15
            return PathFunctional.from_table(values)
        return additive_functional(rng, n_steps, integer=True)

    functionals = [functional() for _ in range(n_functionals)]
    keys, amps = grouped_amplitudes(chain, functionals)
    want_keys, want_amps = clustered_grouping(chain, functionals)
    assert keys.shape == want_keys.shape
    assert keys.tobytes() == want_keys.tobytes()
    assert np.max(np.abs(amps - want_amps)) <= 1e-12
    assert abs(amps.sum() - chain.transition_amplitude()) <= 1e-10


def test_rounded_spins_give_the_exact_value_pairs():
    # two meters on a sum of 15 spins and on the first spin: 15 sums for each
    # sign of the first spin, although the rounded eigenvalues give more
    # distinct exact sums
    chain = random_spin_chain(np.random.default_rng(51), 15)
    functionals = [PathFunctional.weighted_steps([1.0] * 15), PathFunctional.step_eigenvalue(0)]
    keys, amps = grouped_amplitudes(chain, functionals)
    assert len(np.unique(functionals[0].values(chain))) > 16
    assert len(keys) == 30
    pairs = sorted((total, first) for first in (-1, 1) for total in range(first - 14, first + 15, 2))
    assert np.allclose(keys, pairs, rtol=0, atol=1e-12)
    assert abs(amps.sum() - chain.transition_amplitude()) <= 1e-10


def test_a_cluster_sums_its_rows_in_value_order():
    # 1000 values within 1000 ulps of 1 form one cluster; its amplitudes add
    # in the order of the sorted values, one pass as a running sum
    values = 1.0 + np.arange(1000) * np.spacing(1.0)
    amps = np.random.default_rng(0).normal(size=(1000, 2)) @ [1.0, 1j]
    dist = paths.group_by_value(values, amps)
    assert dist.support.tolist() == [1.0]
    assert dist.amplitudes.tobytes() == np.add.reduceat(amps, [0]).tobytes()


class TestMergeStop:
    """Weights 1/2, 1/4, ..., 1/64 on the first six steps keep the partial
    sums distinct (and exact), so those merges join no row; the walk merges
    at every step all the same, so equal sums of later unit weights group,
    within MAX_PATHS and beyond it."""

    FIRST = [0.5**j for j in range(1, 7)]

    @staticmethod
    def count_merges(monkeypatch):
        calls = []
        merge = paths._merge_rows

        def counted(cols, amps):
            calls.append(amps.size)
            return merge(cols, amps)

        monkeypatch.setattr(paths, "_merge_rows", counted)
        return calls

    def test_stopped_merges_still_group_equal_sums(self, monkeypatch):
        chain = long_chain(10)
        weights = self.FIRST + [1.0] * 4
        functionals = [PathFunctional.weighted_steps(weights), PathFunctional.step_eigenvalue(9)]
        calls = self.count_merges(monkeypatch)
        keys, amps = grouped_amplitudes(chain, functionals)
        # one merge per step, then one of the final rows: steps 0 to 7 join
        # nothing (a row's eigenstate fixes its last unit term), steps 8 and 9
        # join equal unit sums, so 512 rows remain of the 1024 paths
        assert calls == [2, 4, 8, 16, 32, 64, 128, 256, 512, 768, 512]
        want_keys, want_amps = dense_grouping(chain, functionals)
        assert len(np.unique(keys[:, 0])) == 64 * 5
        assert keys.tobytes() == want_keys.tobytes()
        assert np.max(np.abs(amps - want_amps)) <= 1e-12

    def test_keeps_merging_beyond_the_path_cap(self, monkeypatch):
        chain = long_chain(25)
        weights = self.FIRST + [1.0] * 19
        calls = self.count_merges(monkeypatch)
        dist = amplitude_distribution(chain, PathFunctional.weighted_steps(weights))
        assert len(calls) == 25 + 1
        assert dist.support.size == 64 * 20
        assert abs(dist.total() - chain.transition_amplitude()) <= 1e-10


def long_chain(n_steps=60, seed=5):
    """dim 2, eigenvalues exactly -1 and +1 at every step: 2^60 paths."""
    rng = np.random.default_rng(seed)
    steps = tuple(
        MeasurementStep((k + 1) / (n_steps + 1), Observable.from_eigensystem([-1.0, 1.0], random_unitary(rng, 2)))
        for k in range(n_steps)
    )
    return MeasurementChain(
        random_state_vector(rng, 2), steps, Propagator(random_hermitian(rng, 2)), random_state_vector(rng, 2), 1.0
    )


def peak_bytes(fn, exc):
    tracemalloc.start()
    try:
        with pytest.raises(exc):
            fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLongChain:
    def test_sixty_steps_have_sixty_one_support_points(self):
        chain = long_chain()
        dist = amplitude_distribution(chain, PathFunctional.weighted_steps([1.0] * 60))
        assert dist.support.tolist() == [float(v) for v in range(-60, 61, 2)]
        assert abs(dist.total() - chain.transition_amplitude()) <= 1e-10

    def test_path_indicator_walks_sixty_steps(self):
        # 2^60 paths, but the indicator's walk holds at most 2 x 61 rows
        chain = long_chain()
        path = tuple(int(i) for i in np.random.default_rng(3).integers(2, size=60))
        dist = amplitude_distribution(chain, PathFunctional.path_indicator(path))
        assert dist.support.tolist() == [0.0, 1.0]
        want = path_amplitude_oracle(chain, path)
        assert abs(dist.amplitudes[1] - want) <= 1e-12 * abs(want)
        assert abs(dist.total() - chain.transition_amplitude()) <= 1e-10

    def test_one_path_value_is_its_sixty_term_sum(self):
        chain = long_chain()
        path = tuple(int(i) for i in np.random.default_rng(2).integers(2, size=60))
        want = float(sum(chain.steps[k].observable.eigenvalues[i] for k, i in enumerate(path)))
        assert PathFunctional.weighted_steps([1.0] * 60).value(chain, path) == want

    def test_path_listing_is_refused_before_allocating(self):
        chain = long_chain()
        for operation in (path_amplitudes, chain_comparator):
            with pytest.raises(PathCapError, match="MAX_PATHS"):
                operation(chain)
            assert peak_bytes(lambda: operation(chain), PathCapError) < 1 << 20

    def test_real_weights_hit_the_table_cap_before_the_step_is_built(self):
        # random real weights keep all 2^k partial sums distinct; the walk
        # holds 2^19 rows when step 19 would need 2^20 > MAX_PATHS.  Building
        # that step would hold at least 56 B per new row (amplitude, hop
        # factor, state, value, sort order) beside 40 B per old row.
        functional = PathFunctional.weighted_steps(np.random.default_rng(8).normal(size=60))
        chain = long_chain()
        with pytest.raises(PathCapError, match=r"524288 x 2 rows at step 19"):
            amplitude_distribution(chain, functional)
        refused_step_bytes = (1 << 20) * 56 + (1 << 19) * 40
        assert peak_bytes(lambda: amplitude_distribution(chain, functional), PathCapError) < refused_step_bytes


def long_chain_config(mode, functional=None):
    chain = long_chain()
    steps = [
        {
            "time": step.time,
            "observable": {
                "eigenvalues": step.observable.eigenvalues.tolist(),
                "basis": [
                    [[v.real, v.imag] for v in step.observable.eigenvectors[:, j]] for j in range(2)
                ],
            },
        }
        for step in chain.steps
    ]
    return {
        "name": "sixty-steps",
        "system": {"dim": 2, "total_time": 1.0},
        "pre_state": [[1.0, 0.0], [0.0, 0.0]],
        "post_state": [[0.6, 0.0], [0.8, 0.0]],
        "steps": steps,
        "functionals": [
            dict(functional or {"rule": "weighted_steps", "weights": [1.0] * 60}, name="total")
        ],
        "meters": [{"functional": "total", "profile": {"shape": "gaussian", "width": 1.0}}],
        "run": {"mode": mode},
    }


class TestCli:
    def test_exact_mode_runs_sixty_steps(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(long_chain_config("exact")))
        assert main(["run", str(path), str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["meters"][0]["strong_bins"]) == 61
        assert [f for f, _ in summary["meters"][0]["strong_bins"]] == list(range(-60, 61, 2))

    def test_exact_mode_runs_a_sixty_step_path_indicator(self, tmp_path):
        indicator = {"rule": "path_indicator", "path": [0, 1] * 30}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(long_chain_config("exact", indicator)))
        assert main(["run", str(path), str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [f for f, _ in summary["meters"][0]["strong_bins"]] == [0.0, 1.0]

    def test_classical_mode_names_the_steps(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(long_chain_config("classical")))
        assert main(["run", str(path), str(tmp_path / "out")]) in (2, 3)
        err = capsys.readouterr().err
        assert "MAX_PATHS" in err and "shorten steps" in err
        assert not (tmp_path / "out").exists()


def assert_columns_are_branch_walks(chain, functionals):
    """One walk closed onto every final state gives, column by column, the
    bits of grouped_amplitudes on each branch chain."""
    branches = chain.branches()
    keys, amps = paths._branch_amplitudes(chain, functionals, branches)
    assert amps.shape == (len(keys), len(branches))
    for b, branch in enumerate(branches):
        want_keys, want_amps = grouped_amplitudes(branch, functionals)
        assert keys.tobytes() == want_keys.tobytes()
        assert amps[:, b].tobytes() == want_amps.tobytes()


@given(
    st.integers(0, 10_000),
    st.integers(2, 3),
    st.integers(1, 6),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_each_branch_column_is_its_own_walk(seed, dim, n_steps, n_functionals, integer):
    rng = np.random.default_rng(seed)
    eigenvalues = [float(v) for v in rng.integers(-2, 3, size=dim)] if integer else None
    chain = random_chain(rng, dim, n_steps, eigenvalues=eigenvalues)
    assert_columns_are_branch_walks(chain, [any_functional(rng, chain, integer) for _ in range(n_functionals)])


def test_branch_columns_where_the_walk_stops_merging_and_clusters(monkeypatch):
    # random weights never join, so no merge joins a row; the rounded spin
    # sums of the first column then cluster at the end
    rng = np.random.default_rng(51)
    chain = random_spin_chain(rng, 15)
    functionals = [PathFunctional.weighted_steps([1.0] * 15), PathFunctional.weighted_steps(rng.normal(size=15))]
    rows = []
    merge = paths._merge_rows

    def counted(cols, amps, *args, **kwargs):
        rows.append(len(amps))
        return merge(cols, amps, *args, **kwargs)

    monkeypatch.setattr(paths, "_merge_rows", counted)
    paths._branch_amplitudes(chain, functionals, chain.branches())
    # one merge per step, each of 2^(k+1) rows; then all 2^15 paths once
    # exactly and once after clustering
    assert rows == [2 ** (k + 1) for k in range(15)] + [2**15, 2**15]
    assert_columns_are_branch_walks(chain, functionals)
    assert_columns_are_branch_walks(chain, functionals[:1])


@pytest.mark.parametrize(
    "dim, n_steps, functional",
    [
        (2, 12, lambda rng, chain: PathFunctional.weighted_steps(rng.normal(size=chain.n_steps))),
        (3, 6, lambda rng, chain: PathFunctional.from_table(rng.normal(size=chain.n_paths))),
    ],
)
def test_a_walk_that_joins_no_row_groups_like_np_unique_on_every_branch(dim, n_steps, functional):
    # real weights and table indices keep every partial sum distinct, so the
    # walk's last steps hold hundreds of rows and no merge joins any of them
    rng = np.random.default_rng(17)
    chain = random_chain(rng, dim, n_steps)
    functionals = [functional(rng, chain)]
    branches = chain.branches()
    keys, amps = paths._branch_amplitudes(chain, functionals, branches)
    assert len(keys) == chain.n_paths > 64
    for b, branch in enumerate(branches):
        want_keys, want_amps = dense_grouping(branch, functionals)
        assert keys.tobytes() == want_keys.tobytes()
        assert np.max(np.abs(amps[:, b] - want_amps)) <= 1e-12


def test_a_table_of_2_19_paths_groups_under_the_row_cap():
    # the walk's last step holds 2^19 rows of MAX_PATHS = 10^6; the table's
    # values are distinct integers, so every path is its own group
    chain = long_chain(19)
    functional = PathFunctional.from_table(np.random.default_rng(6).permutation(chain.n_paths))
    tracemalloc.start()
    try:
        keys, amps = grouped_amplitudes(chain, [functional])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == chain.n_paths == 2**19
    assert abs(amps.sum() - chain.transition_amplitude()) <= 1e-10
    assert peak < 100 << 20
