"""Classical comparator: a ball dropped through a network of two-way
connectors.

Each connector has two inlets and two outlets; w[outlet, inlet] is the
probability of leaving via an outlet after entering via an inlet.  Wiring
the connectors into a directed acyclic network defines a set of paths from
the entry to terminal receptacles, each travelled with the product of its
connector probabilities.  Conditional means over path values follow plain
classical statistics, which makes the contrast with interference-grouped
quantum paths explicit.

A list of ClassicalPath entries is the currency of this module: a network
yields one through classical_paths, a quantum chain through
chain_comparator, and means and sampling take either.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import enumerate_paths, path_amplitudes
from .rng import check_trials, inverse_cdf_draws

WEIGHT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class ClassicalConnector:
    """Two-inlet, two-outlet junction with column-stochastic weights."""

    name: str
    weights: np.ndarray  # weights[outlet, inlet]
    blocked: frozenset[int] = frozenset()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (2, 2):
            raise ValueError(f"connector {self.name!r}: weights must be 2x2")
        if np.any(w < -WEIGHT_TOL):
            raise ValueError(f"connector {self.name!r}: weights must be non-negative")
        if np.any(np.abs(w.sum(axis=0) - 1.0) > WEIGHT_TOL):
            raise ValueError(f"connector {self.name!r}: each inlet column must sum to 1")
        if len(self.blocked) > 1:
            raise ValueError(f"connector {self.name!r}: cannot block both outlets")
        w = np.array(w)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "blocked", frozenset(int(b) for b in self.blocked))

    @classmethod
    def uniform(cls, name: str) -> "ClassicalConnector":
        return cls(name, np.full((2, 2), 0.5))

    @classmethod
    def deterministic(cls, name: str) -> "ClassicalConnector":
        """Inlet j always exits via outlet j."""
        return cls(name, np.eye(2))

    def effective_weights(self) -> np.ndarray:
        """Weights with the blocked-outlet rule applied: if an outlet is
        blocked, the remaining one is taken with certainty from both inlets."""
        if not self.blocked:
            return self.weights
        (blocked,) = self.blocked
        w = np.zeros((2, 2))
        w[1 - blocked, :] = 1.0
        return w


# wiring targets
Target = tuple  # ("connector", name, inlet) | ("receptacle", name)


def to_connector(name: str, inlet: int) -> Target:
    return ("connector", name, int(inlet))


def to_receptacle(name: str) -> Target:
    return ("receptacle", name)


@dataclass(frozen=True)
class ClassicalPath:
    """(connector, inlet, outlet) hops from the entry to a receptacle."""

    hops: tuple[tuple[str, int, int], ...]
    receptacle: str
    probability: float


@dataclass(frozen=True, eq=False)
class ClassicalNetwork:
    """Acyclic wiring of connectors with one entry point.

    Every outlet must be wired (to a connector inlet or a receptacle) and no
    inlet may be fed by more than one wire; inlets that are never reached may
    stay unwired.
    """

    connectors: dict[str, ClassicalConnector]
    wiring: dict[tuple[str, int], Target]
    entry: tuple[str, int]
    labels: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        entry_name, entry_inlet = self.entry
        if entry_name not in self.connectors:
            raise ValueError(f"entry connector {entry_name!r} is not defined")
        if entry_inlet not in (0, 1):
            raise ValueError("entry inlet must be 0 or 1")
        seen_inlets: set[tuple[str, int]] = set()
        for (name, outlet), target in self.wiring.items():
            if name not in self.connectors:
                raise ValueError(f"wire from unknown connector {name!r}")
            if outlet not in (0, 1):
                raise ValueError(f"outlet must be 0 or 1, got {outlet} on {name!r}")
            if target[0] == "connector":
                _, tgt_name, tgt_inlet = target
                if tgt_name not in self.connectors:
                    raise ValueError(f"wire into unknown connector {tgt_name!r}")
                key = (tgt_name, int(tgt_inlet))
                if key in seen_inlets:
                    raise ValueError(f"inlet {key} is wired more than once")
                seen_inlets.add(key)
            elif target[0] != "receptacle":
                raise ValueError(f"unknown wiring target {target!r}")
        for name in self.connectors:
            for outlet in (0, 1):
                if (name, outlet) not in self.wiring:
                    raise ValueError(f"outlet ({name!r}, {outlet}) is not wired")
        self._check_acyclic()

    def _check_acyclic(self):
        # connector-level DFS over outlet wires
        adjacency: dict[str, set[str]] = {name: set() for name in self.connectors}
        for (name, _), target in self.wiring.items():
            if target[0] == "connector":
                adjacency[name].add(target[1])
        state: dict[str, int] = {}

        def visit(node: str):
            if state.get(node) == 1:
                raise ValueError(f"network wiring contains a cycle through {node!r}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for nxt in adjacency[node]:
                visit(nxt)
            state[node] = 2

        for name in self.connectors:
            visit(name)


def classical_paths(network: ClassicalNetwork) -> list[ClassicalPath]:
    """Every entry-to-receptacle path with its product probability.

    Probabilities over all paths sum to one.
    """
    out: list[ClassicalPath] = []

    def walk(name: str, inlet: int, hops: list, prob: float):
        conn = network.connectors[name]
        w = conn.effective_weights()
        for outlet in (0, 1):
            p = prob * w[outlet, inlet]
            if p == 0.0:
                continue
            target = network.wiring[(name, outlet)]
            step = hops + [(name, inlet, outlet)]
            if target[0] == "receptacle":
                out.append(ClassicalPath(tuple(step), target[1], p))
            else:
                walk(target[1], target[2], step, p)

    walk(network.entry[0], network.entry[1], [], 1.0)
    return out


def label_values(network: ClassicalNetwork, paths: list[ClassicalPath] | None = None) -> list[float]:
    """Per-path values from connector labels: the sum of the labels of the
    connectors a path traverses (unlabelled connectors contribute zero).

    Differences of layer quantities are expressed by giving the earlier
    layer negated labels.
    """
    if paths is None:
        paths = classical_paths(network)
    return [
        float(sum(network.labels.get(name, 0.0) for name, _, _ in path.hops)) for path in paths
    ]


def classical_mean(
    paths: list[ClassicalPath],
    values,
    condition: set[str] | None = None,
) -> float:
    """Conditional mean of per-path values over runs ending in `condition`.

    `values` is a sequence aligned with `paths`.
    """
    values = list(values)
    if len(values) != len(paths):
        raise ValueError(f"need one value per path ({len(paths)}), got {len(values)}")
    num = 0.0
    den = 0.0
    for path, value in zip(paths, values):
        if condition is not None and path.receptacle not in condition:
            continue
        num += path.probability * value
        den += path.probability
    if den <= 0.0:
        raise ValueError("conditioning set has zero probability")
    return num / den


def classical_sample(
    paths: list[ClassicalPath],
    n_trials: int,
    seed: int,
    max_workers: int | None = None,
) -> np.ndarray:
    """Seeded trial counts per path, aligned with `paths`.

    Sampling is inverse CDF over the exact path distribution, which is the
    law of a ball walking the network at random.
    """
    check_trials(n_trials)
    cdf = np.cumsum([p.probability for p in paths])
    idx = inverse_cdf_draws(cdf, cdf[-1], n_trials, seed, max_workers)
    return np.bincount(idx, minlength=cdf.size)


def two_layer_network(
    entry_weights: np.ndarray,
    first_layer: dict[str, np.ndarray],
    second_layer: dict[str, np.ndarray],
    labels: dict[str, float] | None = None,
) -> ClassicalNetwork:
    """The reference two-layer topology with crossed second-layer wiring.

    The entry connector feeds first-layer connectors a0 (outlet 0) and a1
    (outlet 1).  a0 sends outlet 0 to b0 inlet 0 and outlet 1 to b1 inlet 1;
    a1 sends outlet 0 to b1 inlet 0 and outlet 1 to b0 inlet 1.  b0 drops
    outlet 0 into receptacle f0 and outlet 1 into f1; b1 does the opposite.
    """
    connectors = {
        "in": ClassicalConnector("in", entry_weights),
        "a0": ClassicalConnector("a0", first_layer["a0"]),
        "a1": ClassicalConnector("a1", first_layer["a1"]),
        "b0": ClassicalConnector("b0", second_layer["b0"]),
        "b1": ClassicalConnector("b1", second_layer["b1"]),
    }
    wiring = {
        ("in", 0): to_connector("a0", 0),
        ("in", 1): to_connector("a1", 0),
        ("a0", 0): to_connector("b0", 0),
        ("a0", 1): to_connector("b1", 1),
        ("a1", 0): to_connector("b1", 0),
        ("a1", 1): to_connector("b0", 1),
        ("b0", 0): to_receptacle("f0"),
        ("b0", 1): to_receptacle("f1"),
        ("b1", 0): to_receptacle("f1"),
        ("b1", 1): to_receptacle("f0"),
    }
    return ClassicalNetwork(connectors, wiring, ("in", 0), labels or {})


def uniform_two_layer_network() -> ClassicalNetwork:
    """All connectors fifty-fifty: eight equally likely paths."""
    half = np.full((2, 2), 0.5)
    return two_layer_network(half, {"a0": half, "a1": half}, {"b0": half, "b1": half})


def chain_comparator(chain) -> list[ClassicalPath]:
    """Distinguishable-path twin of a quantum chain: one entry per (final
    branch b, virtual path), travelled with probability |A_{path, b}|^2.

    Entries run branch-major, each branch in path-enumeration order; the
    receptacle is f{b}, and f0 is the success branch.  Hop k of a path is
    (s{k}, index at step k-1, index at step k), entering step 0 at 0.  Paths
    that differ only by interference-grouped values stay distinct here,
    which is exactly the point of the comparison.
    """
    out: list[ClassicalPath] = []
    paths = enumerate_paths(chain)
    for b, branch in enumerate(chain.branches()):
        probs = np.abs(path_amplitudes(branch)) ** 2
        for indices, p in zip(paths, probs):
            hops = tuple((f"s{k}", i, j) for k, (i, j) in enumerate(zip((0,) + indices, indices)))
            out.append(ClassicalPath(hops, f"f{b}", float(p)))
    return out


def comparator_path_key(path: ClassicalPath) -> tuple[tuple[int, ...], bool]:
    """(step indices, selection succeeded) of a chain_comparator entry."""
    return tuple(j for _, _, j in path.hops), path.receptacle == "f0"
