"""Virtual paths of a measurement chain and their amplitude calculus.

A chain fixes a prepared state, an ordered list of intermediate observable
bases with interaction times, a Hamiltonian and a final (selected) state.
Each assignment of one eigenstate per intermediate step is a virtual path
carrying a complex amplitude; grouping amplitudes by the value of a path
functional yields the discrete amplitude distribution from which every
pointer statistic in this package is derived.

A functional that adds one term per step (an eigenvalue times a weight) is
grouped without listing paths: the amplitudes are propagated step by step
over the nodes (eigenstate at step k, value accumulated so far) of the
chain's stochastic network, merging nodes that coincide exactly.  Only the
functionals given as a table over paths need the dense path list.  Either
way, values closer than MERGE_TOL are then joined into one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    TOL_DERIVED,
    Observable,
    Propagator,
    StateVector,
    orthonormal_completion,
)

# Cap on listed virtual paths, and on the rows of one transfer-table step.
MAX_PATHS = 10**6

# The transfer table gives way to dense grouping after a step whose merge
# joins none of at least this many rows.  Sums of rounded +-1 eigenvalues
# join at every step of 32 rows or more (600 random 15-step spin chains);
# sums with random real weights never join.
TABLE_JOIN_ROWS = 64

# Below this total transition amplitude, relative amplitudes are meaningless.
FORBIDDEN_TOL = 1e-14

# Functional values closer than this are one value: grouped_amplitudes joins
# them (eigenvalues from a diagonalisation carry rounding of a few ulps).
MERGE_TOL = 1e-9

VirtualPath = tuple[int, ...]

# Rule names of PathFunctional, in the order its constructors are listed.
FUNCTIONAL_RULES = (
    "step_eigenvalue",
    "weighted_steps",
    "step_difference",
    "path_indicator",
    "table",
    "constant",
)


class ForbiddenTransitionError(ValueError):
    """Raised when the selected transition amplitude is (numerically) zero,
    so relative amplitudes and their weighted means diverge."""


class PathCapError(ValueError):
    """A path list or transfer table above MAX_PATHS, refused before it exists."""


def check_path_count(chain: "MeasurementChain", purpose: str) -> None:
    """Refuse to list the chain's dim^K virtual paths above MAX_PATHS."""
    if chain.n_paths > MAX_PATHS:
        raise PathCapError(
            f"{purpose} lists all {chain.dim}^{chain.n_steps} = {chain.n_paths} virtual paths, "
            f"above the cap MAX_PATHS = {MAX_PATHS}: shorten steps"
        )


@dataclass(frozen=True, eq=False)
class MeasurementStep:
    time: float
    observable: Observable


@dataclass(frozen=True, eq=False)
class MeasurementChain:
    """Pre-selected state, intermediate steps, evolution and final selection.

    `post_complement` optionally lists states completing `post_state` to an
    orthonormal basis; they describe the branches where the final selection
    fails.
    """

    pre_state: StateVector
    steps: tuple[MeasurementStep, ...]
    propagator: Propagator
    post_state: StateVector
    total_time: float
    post_complement: tuple[StateVector, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        dim = self.pre_state.dim
        if self.propagator.dim != dim or self.post_state.dim != dim:
            raise ValueError("pre_state, propagator and post_state must share one dimension")
        if not self.pre_state.is_normalized():
            raise ValueError("pre_state must be normalized")
        if not self.post_state.is_normalized():
            raise ValueError("post_state must be normalized")
        times = [s.time for s in self.steps]
        if any(not 0.0 < t < self.total_time for t in times):
            raise ValueError("step times must lie strictly inside (0, total_time)")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ValueError("step times must be strictly increasing")
        for s in self.steps:
            if s.observable.dim != dim:
                raise ValueError("every step observable must match the chain dimension")
        if self.post_complement is not None:
            comp = tuple(self.post_complement)
            object.__setattr__(self, "post_complement", comp)
            vecs = [self.post_state.amplitudes] + [c.amplitudes for c in comp]
            basis = np.column_stack(vecs)
            gram = basis.conj().T @ basis
            if np.linalg.norm(gram - np.eye(len(vecs))) > TOL_DERIVED:
                raise ValueError("post_state and its completion must be orthonormal")

    @property
    def dim(self) -> int:
        return self.pre_state.dim

    @property
    def n_steps(self) -> int:
        return len(self.steps)

    @property
    def n_paths(self) -> int:
        return self.dim**self.n_steps

    def with_completion(self) -> "MeasurementChain":
        """Attach a deterministic orthonormal completion if none is set."""
        if self.post_complement is not None:
            return self
        return MeasurementChain(
            self.pre_state,
            self.steps,
            self.propagator,
            self.post_state,
            self.total_time,
            orthonormal_completion(self.post_state),
        )

    def with_post_state(self, post: StateVector) -> "MeasurementChain":
        """Same chain up to the final selection (used for failure branches)."""
        return MeasurementChain(
            self.pre_state, self.steps, self.propagator, post, self.total_time
        )

    def branches(self) -> tuple["MeasurementChain", ...]:
        """Success branch followed by one chain per completion state."""
        chain = self.with_completion()
        rest = tuple(chain.with_post_state(c) for c in chain.post_complement)
        return (chain.with_post_state(chain.post_state),) + rest

    def transition_amplitude(self) -> complex:
        """<post| U(total_time) |pre> with no intermediate resolution."""
        evolved = self.propagator.unitary(self.total_time) @ self.pre_state.amplitudes
        return complex(np.vdot(self.post_state.amplitudes, evolved))


class PathFunctional:
    """Real number attached to every virtual path of a chain.

    Built from one of a few rules (an eigenvalue read off at one step, a
    weighted sum of step eigenvalues, an indicator of a single path, or an
    explicit table); evaluated lazily against a chain.
    """

    def __init__(self, rule: str, **params):
        if rule not in FUNCTIONAL_RULES:
            raise ValueError(f"unknown functional rule {rule!r}")
        self.rule = rule
        self.params = params

    @classmethod
    def step_eigenvalue(cls, step: int) -> "PathFunctional":
        """F[path] = eigenvalue selected at the given step (0-based)."""
        return cls("step_eigenvalue", step=int(step))

    @classmethod
    def weighted_steps(cls, weights) -> "PathFunctional":
        """F[path] = sum_k weights[k] * eigenvalue at step k."""
        weights = tuple(float(w) for w in weights)
        if not all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        return cls("weighted_steps", weights=weights)

    @classmethod
    def step_difference(cls, later: int = 1, earlier: int = 0) -> "PathFunctional":
        """Eigenvalue at one step minus the eigenvalue at an earlier one."""
        return cls("step_difference", later=int(later), earlier=int(earlier))

    @classmethod
    def path_indicator(cls, path) -> "PathFunctional":
        """F = 1 on one chosen path, 0 on all others."""
        return cls("path_indicator", path=tuple(int(i) for i in path))

    @classmethod
    def from_table(cls, values) -> "PathFunctional":
        """Explicit values, one per path in enumeration order."""
        values = tuple(float(v) for v in values)
        if not all(np.isfinite(values)):
            raise ValueError("functional values must be finite")
        return cls("table", values=values)

    @classmethod
    def constant(cls, value: float) -> "PathFunctional":
        if not np.isfinite(value):
            raise ValueError("functional values must be finite")
        return cls("constant", value=float(value))

    def step_weights(self, chain: MeasurementChain) -> tuple[np.ndarray, float] | None:
        """(w, c) with F[path] = c + sum_k w[k] * (eigenvalue at step k) for the
        additive rules (step_eigenvalue, weighted_steps, step_difference,
        constant), None for table and path_indicator.

        Raises ValueError when the rule's parameters do not fit the chain, so
        this is also the check that a functional can be evaluated on it.
        """
        k = chain.n_steps

        def check_step(step: int) -> None:
            if not 0 <= step < k:
                raise ValueError(f"step {step} out of range for a chain with {k} steps")

        weights = np.zeros(k)
        if self.rule == "step_eigenvalue":
            check_step(self.params["step"])
            weights[self.params["step"]] = 1.0
        elif self.rule == "weighted_steps":
            if len(self.params["weights"]) != k:
                raise ValueError(f"need {k} weights, got {len(self.params['weights'])}")
            weights[:] = self.params["weights"]
        elif self.rule == "step_difference":
            later, earlier = self.params["later"], self.params["earlier"]
            for step in (later, earlier):
                check_step(step)
            weights[later] += 1.0
            weights[earlier] -= 1.0
        elif self.rule == "path_indicator":
            path = self.params["path"]
            if len(path) != k or any(not 0 <= i < chain.dim for i in path):
                raise ValueError(f"path {path} is not valid for this chain")
            return None
        elif self.rule == "table":
            if len(self.params["values"]) != chain.n_paths:
                raise ValueError(
                    f"table has {len(self.params['values'])} entries, chain has {chain.n_paths} paths"
                )
            if not np.all(np.isfinite(self.params["values"])):
                raise ValueError("functional values must be finite")
            return None
        else:  # the last of FUNCTIONAL_RULES, "constant"; __init__ rejects any other
            return weights, self.params["value"]
        return weights, 0.0

    def values(self, chain: MeasurementChain) -> np.ndarray:
        """Values on all chain paths, in enumeration order.

        Additive rules accumulate c + w[0] e_0 + w[1] e_1 + ... in step order,
        skipping zero weights, the same arithmetic as the transfer table of
        grouped_amplitudes, so both give bit-identical values.
        """
        rule = self.step_weights(chain)
        check_path_count(chain, "PathFunctional.values")
        n, k, dim = chain.n_paths, chain.n_steps, chain.dim
        if self.rule == "path_indicator":
            table = np.zeros(n)
            table[int(np.ravel_multi_index(self.params["path"], (dim,) * k))] = 1.0
            return table
        if self.rule == "table":
            return np.asarray(self.params["values"], dtype=float)
        weights, offset = rule
        total = np.full(n, offset)
        for step in np.flatnonzero(weights):
            shape = [1] * k
            shape[step] = dim
            eigs = chain.steps[step].observable.eigenvalues.reshape(shape)
            total += weights[step] * np.broadcast_to(eigs, (dim,) * k).reshape(-1)
        return total

    def value(self, chain: MeasurementChain, path: VirtualPath) -> float:
        """Value on one path, bit-identical to its entry of values().  The
        additive rules sum its K terms; the others read their table."""
        path = tuple(int(i) for i in path)
        if len(path) != chain.n_steps or any(not 0 <= i < chain.dim for i in path):
            raise ValueError(f"path {path} is not valid for this chain")
        rule = self.step_weights(chain)
        if rule is None:
            return float(self.values(chain)[np.ravel_multi_index(path, (chain.dim,) * chain.n_steps)])
        weights, total = rule
        for step in np.flatnonzero(weights):
            total += weights[step] * chain.steps[step].observable.eigenvalues[path[step]]
        return float(total)


@dataclass(frozen=True, eq=False)
class AmplitudeDistribution:
    """Summed path amplitudes over the distinct values of a functional; every
    statistic of a meter coupled to the functional derives from it."""

    support: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if support.size != amps.size:
            raise ValueError("support and amplitudes must have equal length")
        if support.size and np.any(np.diff(support) <= 0):
            raise ValueError("support values must be sorted and distinct")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "amplitudes", amps)

    def total(self) -> complex:
        return complex(self.amplitudes.sum())

    def _allowed_total(self) -> complex:
        """The total amplitude, refused when the transition is forbidden."""
        total = self.total()
        if abs(total) <= FORBIDDEN_TOL:
            raise ForbiddenTransitionError(
                "total transition amplitude is numerically zero; "
                "relative amplitudes and the weak value diverge"
            )
        return total

    def relative(self) -> dict[float, complex]:
        """Grouped amplitudes divided by the total transition amplitude.

        The returned values always sum to one.  Raises
        ForbiddenTransitionError when the transition amplitude vanishes,
        because the normalization (and with it every weak mean) then
        diverges.
        """
        total = self._allowed_total()
        return {float(f): complex(a / total) for f, a in zip(self.support, self.amplitudes)}

    def weak_value(self) -> complex:
        """Amplitude-weighted mean of the functional, sum_m f_m A_m / sum_m A_m.

        Complex in general; its real part is the large-width limit of the
        mean pointer reading.  Unbounded by the functional's range on a
        nearly forbidden transition.
        """
        return complex(np.sum(self.support * self.amplitudes) / self._allowed_total())

    def strong_mean(self) -> float:
        """Probability-weighted mean in the accurate-measurement limit.

        Amplitudes sharing a functional value are summed before squaring, so
        indistinguishable paths interfere.
        """
        weights = np.abs(self.amplitudes) ** 2
        total = weights.sum()
        if total <= 0.0:
            raise ValueError("all grouped amplitudes vanish; the strong mean is undefined")
        return float(np.sum(self.support * weights) / total)

    def strong_bins(self) -> dict[float, float]:
        """Exact reading masses in the accurate limit: |A(f_m)|^2 per value."""
        return {float(f): float(abs(a) ** 2) for f, a in zip(self.support, self.amplitudes)}

    def strong_probabilities(self) -> dict[float, float]:
        """Strong-limit bins normalized over the selected branch."""
        bins = self.strong_bins()
        total = sum(bins.values())
        if total <= 0.0:
            raise ValueError("all bins vanish; no reading survives the selection")
        return {f: p / total for f, p in bins.items()}


def enumerate_paths(chain: MeasurementChain) -> list[VirtualPath]:
    """All virtual paths, indices varying fastest at the last step.

    A chain with no intermediate steps has exactly one (empty) path.
    """
    if chain.n_steps == 0:
        return [()]
    check_path_count(chain, "enumerate_paths")
    grid = np.indices((chain.dim,) * chain.n_steps).reshape(chain.n_steps, -1).T
    return [tuple(int(i) for i in row) for row in grid]


def path_amplitudes(chain: MeasurementChain) -> np.ndarray:
    """Amplitudes of all paths in enumeration order.

    The amplitude of a path is the product of transition factors
    <post|U|i_K> ... <i_2|U|i_1> <i_1|U|pre> along its eigenstate sequence.
    """
    if chain.n_steps == 0:
        return np.array([chain.transition_amplitude()])
    check_path_count(chain, "path_amplitudes")

    u = chain.propagator.unitary
    steps = chain.steps
    tensor = steps[0].observable.eigenvectors.conj().T @ (
        u(steps[0].time) @ chain.pre_state.amplitudes
    )
    for prev, nxt in zip(steps, steps[1:]):
        hop = nxt.observable.eigenvectors.conj().T @ (
            u(nxt.time - prev.time) @ prev.observable.eigenvectors
        )
        # tensor[..., i_prev] * hop[i_next, i_prev] -> new trailing axis i_next
        tensor = tensor[..., None] * hop.T
    last = steps[-1]
    closing = (
        chain.post_state.amplitudes.conj()
        @ u(chain.total_time - last.time)
        @ last.observable.eigenvectors
    )
    tensor = tensor * closing
    return tensor.reshape(-1)


def path_amplitude(chain: MeasurementChain, path: VirtualPath) -> complex:
    """Amplitude of a single path."""
    path = tuple(path)
    if len(path) != chain.n_steps:
        raise ValueError(f"path length {len(path)} does not match {chain.n_steps} steps")
    if any(not 0 <= i < chain.dim for i in path):
        raise ValueError(f"path indices must lie in [0, {chain.dim})")
    u = chain.propagator.unitary
    steps = chain.steps
    if not steps:
        return chain.transition_amplitude()
    amp = complex(
        np.vdot(
            steps[0].observable.eigenvectors[:, path[0]],
            u(steps[0].time) @ chain.pre_state.amplitudes,
        )
    )
    for k in range(1, len(steps)):
        amp *= complex(
            np.vdot(
                steps[k].observable.eigenvectors[:, path[k]],
                u(steps[k].time - steps[k - 1].time)
                @ steps[k - 1].observable.eigenvectors[:, path[k - 1]],
            )
        )
    amp *= complex(
        np.vdot(
            chain.post_state.amplitudes,
            u(chain.total_time - steps[-1].time) @ steps[-1].observable.eigenvectors[:, path[-1]],
        )
    )
    return amp


def _cluster(values: np.ndarray) -> np.ndarray:
    """Each value replaced by the smallest member of its cluster: along the
    sorted values, neighbours at most MERGE_TOL apart chain into one cluster."""
    order = np.argsort(values)
    ranked = values[order]
    new = np.ones(ranked.size, dtype=bool)
    new[1:] = np.diff(ranked) > MERGE_TOL
    out = np.empty_like(ranked)
    out[order] = ranked[np.flatnonzero(new)][np.cumsum(new) - 1]
    return out


def _merge_rows(cols: list, amps: np.ndarray, kind: str | None = None) -> tuple[list, np.ndarray]:
    """Sum amplitudes over rows whose columns all agree exactly; the rows come
    out sorted by cols[0], then cols[1], ...  (one column: argsort, ~3x
    faster than a one-key lexsort, stable only when kind asks for it; the
    order within a group only changes the order of its sum)"""
    order = np.argsort(cols[0], kind=kind) if len(cols) == 1 else np.lexsort(cols[::-1])
    cols = [c[order] for c in cols]
    new = np.zeros(amps.size, dtype=bool)
    new[0] = True
    for c in cols:
        new[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new)
    return [c[starts] for c in cols], np.add.reduceat(amps[order], starts)


def _merge_clusters(cols: list, amps: np.ndarray) -> tuple[list, np.ndarray]:
    """Rows merged once more after each column's near-equal values are
    clustered, when any are.  The stable sort keeps each group's rows in
    their order, so an already sorted column sums its clusters in order."""
    clustered = [_cluster(c) for c in cols]
    if all(np.array_equal(a, b) for a, b in zip(clustered, cols)):
        return cols, amps
    return _merge_rows(clustered, amps, kind="stable")


def group_by_value(values: np.ndarray, amplitudes: np.ndarray) -> AmplitudeDistribution:
    """Sum amplitudes over clusters of near-equal functional values, by the
    rule of grouped_amplitudes."""
    (support,), amps = _merge_clusters(*_merge_rows([values], amplitudes))
    return AmplitudeDistribution(support, amps)


def _transfer_table(chain: MeasurementChain, rules: list) -> tuple[list, np.ndarray] | None:
    """Grouped amplitudes of additive functionals, given as their step_weights,
    propagated step by step over rows (eigenstate index, accumulated values)
    with exactly equal rows merged after each step.

    The table pays only while partial sums coincide: once a step's merge
    joins none of TABLE_JOIN_ROWS or more rows (random real weights keep
    every sum distinct) and the chain's paths fit MAX_PATHS, returns None,
    as dense grouping is then cheaper than expanding the table to every
    path."""
    u = chain.propagator.unitary
    dim = chain.dim
    state = np.zeros(1, dtype=np.intp)
    accs = [np.array([offset]) for _, offset in rules]
    amps = np.array([1.0 + 0.0j])
    # hop[j, i]: amplitude from eigenstate i of the previous step (the
    # prepared state before step 0) to eigenstate j of this one
    into, prev_time = chain.pre_state.amplitudes[:, None], 0.0
    for k, step in enumerate(chain.steps):
        if state.size * dim > MAX_PATHS:
            raise PathCapError(
                f"the transfer table of A(f) needs {state.size} x {dim} rows at step {k}, "
                f"above the cap MAX_PATHS = {MAX_PATHS}: the functional's weights give too "
                "many distinct partial sums; use commensurate weights or shorten steps"
            )
        vecs = step.observable.eigenvectors
        hop = vecs.conj().T @ (u(step.time - prev_time) @ into)
        amps = (amps[:, None] * hop.T[state]).reshape(-1)
        eigs = step.observable.eigenvalues
        accs = [
            (acc[:, None] + w[k] * eigs).reshape(-1) if w[k] else np.repeat(acc, dim)
            for acc, (w, _) in zip(accs, rules)
        ]
        (state, *accs), merged = _merge_rows([np.tile(np.arange(dim), state.size), *accs], amps)
        if merged.size == amps.size >= TABLE_JOIN_ROWS and chain.n_paths <= MAX_PATHS:
            return None
        amps = merged
        into, prev_time = vecs, step.time
    closing = chain.post_state.amplitudes.conj() @ (u(chain.total_time - prev_time) @ into)
    return _merge_rows(accs, amps * closing[state])


def grouped_amplitudes(chain: MeasurementChain, functionals) -> tuple[np.ndarray, np.ndarray]:
    """Path amplitudes summed over paths sharing one tuple of values.

    Returns keys of shape (groups, R), one column per functional, sorted
    lexicographically, and the summed amplitude of each group.  Values of a
    column closer than MERGE_TOL, chained along the sorted values, count as
    one value, the smallest of them.  When every functional adds one term
    per step (step_weights is not None) the groups come from the transfer
    table and no path is listed, unless the table finds the partial sums
    distinct on a chain within MAX_PATHS; otherwise every path's amplitude
    and values are listed, under the MAX_PATHS cap.
    """
    functionals = list(functionals)
    if not functionals:
        raise ValueError("need at least one functional")
    rules = [f.step_weights(chain) for f in functionals]
    table = _transfer_table(chain, rules) if all(r is not None for r in rules) else None
    if table is None:
        table = _merge_rows([f.values(chain) for f in functionals], path_amplitudes(chain))
    cols, amps = _merge_clusters(*table)
    return np.stack(cols, axis=1), amps


def amplitude_distribution(chain: MeasurementChain, functional: PathFunctional) -> AmplitudeDistribution:
    """Group path amplitudes by the functional's value on each path."""
    keys, amps = grouped_amplitudes(chain, [functional])
    return AmplitudeDistribution(keys[:, 0], amps)


@dataclass(frozen=True, eq=False)
class PathBundle:
    """Weighted superposition of virtual paths of one chain."""

    chain: MeasurementChain
    terms: tuple[tuple[complex, VirtualPath], ...]

    @classmethod
    def from_path(cls, chain: MeasurementChain, path: VirtualPath) -> "PathBundle":
        return cls(chain, ((1.0 + 0.0j, tuple(path)),))

    @property
    def amplitude(self) -> complex:
        return sum(
            (w * path_amplitude(self.chain, p) for w, p in self.terms), start=0.0 + 0.0j
        )

    def value(self, functional: PathFunctional) -> tuple[float | None, bool]:
        """(value, determinate) of the functional on this bundle.

        The value exists only when every constituent path with nonzero weight
        agrees; otherwise (None, False).
        """
        vals = [functional.value(self.chain, p) for w, p in self.terms if w != 0]
        if not vals:
            return None, False
        if max(vals) - min(vals) <= MERGE_TOL:
            return vals[0], True
        return None, False


def combine_paths(
    alpha: complex, p: PathBundle, beta: complex, q: PathBundle
) -> PathBundle:
    """New bundle alpha*p + beta*q; its amplitude is the same combination of
    the constituent amplitudes."""
    if p.chain is not q.chain:
        raise ValueError("cannot combine paths from different chains")
    terms: dict[VirtualPath, complex] = {}
    for scale, bundle in ((complex(alpha), p), (complex(beta), q)):
        for w, path in bundle.terms:
            terms[path] = terms.get(path, 0.0 + 0.0j) + scale * w
    return PathBundle(p.chain, tuple((w, path) for path, w in terms.items()))


def relative_amplitudes(chain: MeasurementChain, functional: PathFunctional) -> dict[float, complex]:
    """AmplitudeDistribution.relative of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional).relative()


def weak_value(chain: MeasurementChain, functional: PathFunctional) -> complex:
    """AmplitudeDistribution.weak_value of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional).weak_value()


def strong_mean(chain: MeasurementChain, functional: PathFunctional) -> float:
    """AmplitudeDistribution.strong_mean of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional).strong_mean()
