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
from graphlib import CycleError, TopologicalSorter

import numpy as np

from .paths import MAX_PATHS, PathCapError, _format_count, enumerate_paths, path_amplitudes
from .rng import cdf_guide, cdf_index, check_trials, map_chunks, uniform_block

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
        if not set(self.blocked) <= {0, 1}:
            raise ValueError(f"connector {self.name!r}: blocked outlets must be 0 or 1")
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
    # every connector after those its outlets feed, built once by the cycle check
    _order: list[str] = field(init=False, repr=False, compare=False)

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
                if tgt_inlet not in (0, 1):
                    raise ValueError(f"inlet must be 0 or 1, got {tgt_inlet} on {tgt_name!r}")
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
        object.__setattr__(self, "_order", _feed_order(self))


def _feed_order(network: ClassicalNetwork) -> list[str]:
    """Every connector after every connector its outlets feed; a cycle is refused."""
    feeds = {name: [] for name in network.connectors}
    for (name, _), target in network.wiring.items():
        if target[0] == "connector":
            feeds[name].append(target[1])
    try:
        return list(TopologicalSorter(feeds).static_order())
    except CycleError as exc:
        raise ValueError(f"network wiring contains a cycle through {exc.args[1][0]!r}") from None


def _check_path_count(network: ClassicalNetwork) -> None:
    """Refuse a network with more than MAX_PATHS paths of nonzero weight
    from its entry, counted per (connector, inlet) before any is listed."""
    counts: dict[tuple[str, int], int] = {}
    for name in network._order:
        w = network.connectors[name].effective_weights()
        for inlet in (0, 1):
            n = 0
            for outlet in (0, 1):
                target = network.wiring[name, outlet]
                if w[outlet, inlet] != 0.0:
                    n += 1 if target[0] == "receptacle" else counts[target[1], target[2]]
            counts[name, inlet] = n
    entry_name, entry_inlet = network.entry
    n = counts[entry_name, entry_inlet]
    if n > MAX_PATHS:
        raise PathCapError(
            f"the network has {_format_count(n)} paths from its entry, above the cap MAX_PATHS = {MAX_PATHS}: "
            "use fewer connectors in series"
        )


def classical_paths(network: ClassicalNetwork) -> list[ClassicalPath]:
    """Every entry-to-receptacle path with its product probability, outlet 0
    before outlet 1 at each connector.

    Probabilities over all paths sum to one.  More than MAX_PATHS paths
    raise PathCapError before any is listed.
    """
    _check_path_count(network)
    out: list[ClassicalPath] = []
    # (where the ball is, hops so far, probability); popped depth first
    stack = [(to_connector(*network.entry), (), 1.0)]
    while stack:
        target, hops, prob = stack.pop()
        if target[0] == "receptacle":
            out.append(ClassicalPath(hops, target[1], prob))
            continue
        _, name, inlet = target
        w = network.connectors[name].effective_weights()
        for outlet in (1, 0):  # pushed last, outlet 0 is listed first
            p = prob * w[outlet, inlet]
            if p != 0.0:
                stack.append((network.wiring[name, outlet], hops + ((name, inlet, outlet),), p))
    return out


def label_values(network: ClassicalNetwork, paths: list[ClassicalPath]) -> list[float]:
    """Per-path values from connector labels, aligned with paths (those of
    classical_paths): the sum of the labels of the connectors a path
    traverses (unlabelled connectors contribute zero).

    Differences of layer quantities are expressed by giving the earlier
    layer negated labels.
    """
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
    law of a ball walking the network at random: trial i takes the first path
    whose cumulative probability exceeds the total times the stream's uniform
    at position i, so the counts do not depend on how map_chunks splits the
    trials.
    """
    check_trials(n_trials)
    if not paths:
        raise ValueError("no paths to sample")
    cdf = np.cumsum([p.probability for p in paths])
    guide = cdf_guide(cdf, cdf[-1], min(cdf.size, n_trials))
    chunks = map_chunks(
        n_trials, lambda lo, hi: cdf_index(cdf, cdf[-1], uniform_block(seed, lo, hi - lo), guide), max_workers
    )
    return np.bincount(np.concatenate(chunks), minlength=cdf.size)


def chain_comparator(chain) -> list[ClassicalPath]:
    """Distinguishable-path twin of a quantum chain: one entry per (final
    branch b, virtual path), travelled with probability |A_{path, b}|^2.

    Entries run branch-major, each branch in path-enumeration order; the
    receptacle is f{b}, and f0 is the success branch.  Hop k of a path is
    (s{k}, index at step k-1, index at step k), entering step 0 at 0.  Paths
    that differ only by interference-grouped values stay distinct here,
    which is exactly the point of the comparison.
    """
    # one tuple per (step, inlet, outlet) and one hops tuple per path, shared
    # by every branch: a long chain holds millions of entries
    dims = range(chain.dim)
    table = [[[(f"s{k}", i, j) for j in dims] for i in dims] for k in range(chain.n_steps)]
    hops = [
        tuple(table[k][i][j] for k, (i, j) in enumerate(zip((0,) + indices, indices)))
        for indices in enumerate_paths(chain)
    ]
    out: list[ClassicalPath] = []
    for b, branch in enumerate(chain.branches()):
        probs = np.abs(path_amplitudes(branch)) ** 2
        receptacle = f"f{b}"
        out.extend(ClassicalPath(h, receptacle, float(p)) for h, p in zip(hops, probs))
    return out


def comparator_path_key(path: ClassicalPath) -> tuple[tuple[int, ...], bool]:
    """(step indices, selection succeeded) of a chain_comparator entry."""
    return tuple(j for _, _, j in path.hops), path.receptacle == "f0"
