"""Virtual paths of a measurement chain and their amplitude calculus.

A chain fixes a prepared state, an ordered list of intermediate observable
bases with interaction times, a Hamiltonian and a final (selected) state.
Each assignment of one eigenstate per intermediate step is a virtual path
carrying a complex amplitude; grouping amplitudes by the value of a path
functional yields the discrete amplitude distribution from which every
pointer statistic in this package is derived.

Every functional adds one term per step and maps the sum to its value at
the end (PathFunctional.step_terms).  Grouping therefore never lists paths:
the amplitudes are walked step by step over the nodes (eigenstate at step k,
terms accumulated so far) of the chain's stochastic network, merging nodes
that coincide exactly.  Values closer than MERGE_TOL are then joined into one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import (
    TOL_DERIVED,
    Observable,
    Propagator,
    StateVector,
    orthonormal_completion,
)

# Cap on listed virtual paths, and on the rows of one step of the walk.
MAX_PATHS = 10**6

# The walk stops merging after a step whose merge joins none of at least this
# many rows, on a chain within MAX_PATHS.  Sums of rounded +-1 eigenvalues
# join at every step of 32 rows or more (600 random 15-step spin chains);
# sums with random real weights, and table indices, never join.
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
    """A path list or a step of the walk above MAX_PATHS, refused before it exists."""


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

    def step_terms(self, chain: MeasurementChain) -> tuple[list, float, Callable | None]:
        """(terms, offset, final) with F[path] = final(offset + sum_k terms[k][i_k]).

        terms[k] is a vector over the eigenstates of step k, or None where the
        step adds nothing; final maps the accumulated sums to values (None is
        the identity).  The additive rules (step_eigenvalue, weighted_steps,
        step_difference, constant) add w[k] * eigenvalues at each step of
        nonzero weight to a constant offset.  path_indicator adds the one-hot
        of the chosen index at each step and tests that all K matched.  table
        adds i * dim**(K-1-k), which sums to the path's enumeration index, and
        looks that index up.

        Raises ValueError when the rule's parameters do not fit the chain, so
        this is also the check that a functional can be evaluated on it.
        """
        k, dim = chain.n_steps, chain.dim

        def check_step(step: int) -> None:
            if not 0 <= step < k:
                raise ValueError(f"step {step} out of range for a chain with {k} steps")

        if self.rule == "path_indicator":
            path = self.params["path"]
            if len(path) != k or any(not 0 <= i < dim for i in path):
                raise ValueError(f"path {path} is not valid for this chain")
            return [np.eye(dim, dtype=np.intp)[i] for i in path], 0, lambda acc: (acc == k).astype(float)
        if self.rule == "table":
            if len(self.params["values"]) != chain.n_paths:
                raise ValueError(
                    f"table has {len(self.params['values'])} entries, chain has {chain.n_paths} paths"
                )
            table = np.asarray(self.params["values"], dtype=float)
            if not np.all(np.isfinite(table)):
                raise ValueError("functional values must be finite")
            return [np.arange(dim) * dim ** (k - 1 - step) for step in range(k)], 0, lambda acc: table[acc]
        weights, offset = np.zeros(k), 0.0
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
        else:  # the last of FUNCTIONAL_RULES, "constant"; __init__ rejects any other
            offset = self.params["value"]
        terms = [w * s.observable.eigenvalues if w else None for w, s in zip(weights, chain.steps)]
        return terms, offset, None

    def values(self, chain: MeasurementChain) -> np.ndarray:
        """Values on all chain paths, in enumeration order.

        Terms accumulate offset + terms[0] + terms[1] + ... in step order, the
        same arithmetic as the walk of grouped_amplitudes, so both give
        bit-identical values.
        """
        terms, offset, final = self.step_terms(chain)
        check_path_count(chain, "PathFunctional.values")
        shape = (chain.dim,) * chain.n_steps
        total = np.full(chain.n_paths, offset)
        for step, term in enumerate(terms):
            if term is not None:
                # trailing unit axes put the term on axis `step` of the path grid
                total += np.broadcast_to(term.reshape((-1,) + (1,) * (chain.n_steps - 1 - step)), shape).reshape(-1)
        return total if final is None else final(total)

    def value(self, chain: MeasurementChain, path: VirtualPath) -> float:
        """Value on one path, bit-identical to its entry of values()."""
        path = tuple(int(i) for i in path)
        if len(path) != chain.n_steps or any(not 0 <= i < chain.dim for i in path):
            raise ValueError(f"path {path} is not valid for this chain")
        terms, total, final = self.step_terms(chain)
        for term, i in zip(terms, path):
            if term is not None:
                total += term[i]
        return float(total if final is None else final(np.asarray(total)))


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


def _edges(chain: MeasurementChain) -> tuple[list, np.ndarray]:
    """Hop matrices of the chain's stochastic network and its closing row.

    hops[k][j, i] = <j_k| U(t_k - t_{k-1}) |i_{k-1}> is the amplitude from
    eigenstate i of step k-1 to eigenstate j of step k, where step -1 is the
    prepared state alone (one column) at time 0; closing[i] = <post| U(T -
    t_K) |i_K> (one entry for a chain with no steps).
    """
    u = chain.propagator.unitary
    into, prev_time = chain.pre_state.amplitudes[:, None], 0.0
    hops = []
    for step in chain.steps:
        vecs = step.observable.eigenvectors
        hops.append(vecs.conj().T @ (u(step.time - prev_time) @ into))
        into, prev_time = vecs, step.time
    closing = chain.post_state.amplitudes.conj() @ (u(chain.total_time - prev_time) @ into)
    return hops, closing


def path_amplitudes(chain: MeasurementChain) -> np.ndarray:
    """Amplitudes of all paths in enumeration order.

    The amplitude of a path is the product of transition factors
    <post|U|i_K> ... <i_2|U|i_1> <i_1|U|pre> along its eigenstate sequence.
    """
    check_path_count(chain, "path_amplitudes")
    hops, closing = _edges(chain)
    tensor = np.ones(1, dtype=complex)
    for hop in hops:
        # tensor[..., i_prev] * hop[i_next, i_prev] -> new trailing axis i_next
        tensor = tensor[..., None] * hop.T
    return (tensor * closing).reshape(-1)


def path_amplitude(chain: MeasurementChain, path: VirtualPath) -> complex:
    """Amplitude of a single path."""
    path = tuple(path)
    if len(path) != chain.n_steps:
        raise ValueError(f"path length {len(path)} does not match {chain.n_steps} steps")
    if any(not 0 <= i < chain.dim for i in path):
        raise ValueError(f"path indices must lie in [0, {chain.dim})")
    hops, closing = _edges(chain)
    amp, prev = 1.0 + 0.0j, 0
    for hop, i in zip(hops, path):
        amp *= hop[i, prev]
        prev = i
    return complex(amp * closing[prev])


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


def grouped_amplitudes(chain: MeasurementChain, functionals) -> tuple[np.ndarray, np.ndarray]:
    """Path amplitudes summed over paths sharing one tuple of values.

    Returns keys of shape (groups, R), one column per functional, sorted
    lexicographically, and the summed amplitude of each group.  Values of a
    column closer than MERGE_TOL, chained along the sorted values, count as
    one value, the smallest of them.

    No path is listed: the amplitudes walk the chain's edges over rows
    (eigenstate, accumulated step_terms of each functional), and rows that
    agree exactly are merged after each step.  Once a step's merge joins
    none of TABLE_JOIN_ROWS or more rows on a chain within MAX_PATHS, the
    walk stops merging and carries on as a plain product, one trailing axis
    per step.  Each functional's final is applied at the end.  A step
    whose rows x dim would exceed MAX_PATHS is refused before it is built.
    """
    functionals = list(functionals)
    if not functionals:
        raise ValueError("need at least one functional")
    rules = [f.step_terms(chain) for f in functionals]
    hops, closing = _edges(chain)
    dim = chain.dim
    accs = [np.array([offset]) for _, offset, _ in rules]
    amps = np.ones(1, dtype=complex)
    # state[r] is the eigenstate of row r; once merging stops it is None and
    # every further step adds a trailing axis, like the path tensor
    state = np.zeros(1, dtype=np.intp)
    for k, hop in enumerate(hops):
        if amps.size * dim > MAX_PATHS:
            raise PathCapError(
                f"the walk of A(f) needs {amps.size} x {dim} rows at step {k}, "
                f"above the cap MAX_PATHS = {MAX_PATHS}: the functionals give too "
                "many distinct partial sums; use commensurate weights or shorten steps"
            )
        amps = amps[..., None] * (hop.T if state is None else hop.T[state])
        accs = [
            np.repeat(acc[..., None], dim, axis=-1) if terms[k] is None else acc[..., None] + terms[k]
            for acc, (terms, _, _) in zip(accs, rules)
        ]
        if state is not None:
            cols = [np.tile(np.arange(dim), state.size), *(acc.reshape(-1) for acc in accs)]
            (merged_state, *merged_accs), merged = _merge_rows(cols, amps.reshape(-1))
            if merged.size == amps.size >= TABLE_JOIN_ROWS and chain.n_paths <= MAX_PATHS:
                state = None
            else:
                state, accs, amps = merged_state, merged_accs, merged
    amps = (amps * (closing if state is None else closing[state])).reshape(-1)
    values = [acc.reshape(-1) if final is None else final(acc.reshape(-1)) for acc, (_, _, final) in zip(accs, rules)]
    cols, amps = _merge_clusters(*_merge_rows(values, amps))
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
