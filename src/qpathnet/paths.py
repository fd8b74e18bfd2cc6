"""Virtual paths of a measurement chain and their amplitude calculus.

A chain fixes a prepared state, an ordered list of intermediate observable
bases with interaction times, a Hamiltonian and a final (selected) state.
Each assignment of one eigenstate per intermediate step is a virtual path
carrying a complex amplitude; grouping amplitudes by the value of a path
functional yields the discrete amplitude distribution from which every
pointer statistic in this package is derived.
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

# Eager path enumeration; keep chains at desk scale.
MAX_PATHS = 10**6

# Below this total transition amplitude, relative amplitudes are meaningless.
FORBIDDEN_TOL = 1e-14

DEFAULT_MERGE_TOL = 1e-9

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


@dataclass(frozen=True)
class MeasurementStep:
    time: float
    observable: Observable


@dataclass(frozen=True)
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
        if dim ** len(self.steps) > MAX_PATHS:
            raise ValueError(
                f"chain has {dim}^{len(self.steps)} virtual paths, above the cap of {MAX_PATHS}"
            )
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

    def values(self, chain: MeasurementChain) -> np.ndarray:
        """Values on all chain paths, in enumeration order."""
        n, k, dim = chain.n_paths, chain.n_steps, chain.dim

        def broadcast_step(step: int, eigs: np.ndarray) -> np.ndarray:
            shape = [1] * k
            shape[step] = dim
            return np.broadcast_to(eigs.reshape(shape), (dim,) * k).reshape(-1)

        if self.rule == "step_eigenvalue":
            step = self.params["step"]
            if not 0 <= step < k:
                raise ValueError(f"step {step} out of range for a chain with {k} steps")
            return broadcast_step(step, chain.steps[step].observable.eigenvalues).copy()
        if self.rule == "weighted_steps":
            weights = self.params["weights"]
            if len(weights) != k:
                raise ValueError(f"need {k} weights, got {len(weights)}")
            total = np.zeros(n)
            for step, w in enumerate(weights):
                total += w * broadcast_step(step, chain.steps[step].observable.eigenvalues)
            return total
        if self.rule == "step_difference":
            later, earlier = self.params["later"], self.params["earlier"]
            for step in (later, earlier):
                if not 0 <= step < k:
                    raise ValueError(f"step {step} out of range for a chain with {k} steps")
            return broadcast_step(later, chain.steps[later].observable.eigenvalues) - broadcast_step(
                earlier, chain.steps[earlier].observable.eigenvalues
            )
        if self.rule == "path_indicator":
            path = self.params["path"]
            if len(path) != k or any(not 0 <= i < dim for i in path):
                raise ValueError(f"path {path} is not valid for this chain")
            table = np.zeros(n)
            table[int(np.ravel_multi_index(path, (dim,) * k))] = 1.0
            return table
        if self.rule == "table":
            table = np.asarray(self.params["values"], dtype=float)
            if table.size != n:
                raise ValueError(f"table has {table.size} entries, chain has {n} paths")
            if not np.all(np.isfinite(table)):
                raise ValueError("functional values must be finite")
            return table.copy()
        # the last of FUNCTIONAL_RULES, "constant"; __init__ rejects any other
        return np.full(n, self.params["value"])

    def value(self, chain: MeasurementChain, path: VirtualPath) -> float:
        idx = int(np.ravel_multi_index(tuple(path), (chain.dim,) * chain.n_steps))
        return float(self.values(chain)[idx])


@dataclass(frozen=True)
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
    grid = np.indices((chain.dim,) * chain.n_steps).reshape(chain.n_steps, -1).T
    return [tuple(int(i) for i in row) for row in grid]


def path_amplitudes(chain: MeasurementChain) -> np.ndarray:
    """Amplitudes of all paths in enumeration order.

    The amplitude of a path is the product of transition factors
    <post|U|i_K> ... <i_2|U|i_1> <i_1|U|pre> along its eigenstate sequence.
    """
    if chain.n_steps == 0:
        return np.array([chain.transition_amplitude()])

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


def group_by_value(
    values: np.ndarray, amplitudes: np.ndarray, merge_tol: float = DEFAULT_MERGE_TOL
) -> AmplitudeDistribution:
    """Sum amplitudes over clusters of equal functional values.

    Values closer than merge_tol end up in one cluster; the cluster keeps its
    smallest member as the support point, so exact values survive grouping.
    """
    if merge_tol < 0:
        raise ValueError("merge_tol must be non-negative")
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    sorted_amps = amplitudes[order]
    boundaries = np.flatnonzero(np.diff(sorted_vals) > merge_tol) + 1
    segments = np.concatenate([[0], boundaries, [values.size]])
    support = sorted_vals[segments[:-1]]
    amps = np.add.reduceat(sorted_amps, segments[:-1])
    return AmplitudeDistribution(support, amps)


def amplitude_distribution(
    chain: MeasurementChain,
    functional: PathFunctional,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> AmplitudeDistribution:
    """Group path amplitudes by the functional's value on each path."""
    return group_by_value(functional.values(chain), path_amplitudes(chain), merge_tol)


@dataclass(frozen=True)
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
        if max(vals) - min(vals) <= DEFAULT_MERGE_TOL:
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


def relative_amplitudes(
    chain: MeasurementChain,
    functional: PathFunctional,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> dict[float, complex]:
    """AmplitudeDistribution.relative of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional, merge_tol).relative()


def weak_value(
    chain: MeasurementChain,
    functional: PathFunctional,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> complex:
    """AmplitudeDistribution.weak_value of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional, merge_tol).weak_value()


def strong_mean(
    chain: MeasurementChain,
    functional: PathFunctional,
    merge_tol: float = DEFAULT_MERGE_TOL,
) -> float:
    """AmplitudeDistribution.strong_mean of the chain's grouped amplitudes."""
    return amplitude_distribution(chain, functional, merge_tol).strong_mean()
