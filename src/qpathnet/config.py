"""Scenario documents: parse-then-validate JSON configs for the runner.

Complex numbers are encoded as [re, im] pairs; states are lists of pairs and
matrices are row-lists of pairs.  Every validation failure names the
offending field and the violated constraint.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .classical import (
    ClassicalConnector,
    ClassicalNetwork,
    ClassicalPath,
    classical_paths,
    label_values,
    to_connector,
    to_receptacle,
)
from .core import Observable, Propagator, StateVector
from .meter import MIN_PAD_WIDTHS, MeterSpec, PointerProfile
from .paths import FUNCTIONAL_RULES, MeasurementChain, MeasurementStep, PathFunctional
from .rng import MAX_TRIALS

# Fewest grid steps per profile width that run.grid.step must give every meter.
MIN_POINTS_PER_WIDTH = 20


class ConfigError(ValueError):
    """Malformed scenario document; the message names the offending field."""


def _fail(where: str, constraint: str):
    raise ConfigError(f"{where}: {constraint}")


def _require(cond: bool, where: str, constraint: str):
    if not cond:
        _fail(where, constraint)


@contextlib.contextmanager
def _field(where: str):
    """Refuse what the engine's constructors raise in the block as a
    ConfigError naming the field; a ConfigError passes unchanged.  Overflow
    is refused too: finite numbers of huge magnitude overflow in the norms."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except ConfigError:
        raise
    except FloatingPointError as exc:
        _fail(where, f"magnitudes too large to check ({exc})")
    except ValueError as exc:
        _fail(where, str(exc))


def _is_number(x) -> bool:
    """A finite JSON number that is not a bool."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _as_complex(value, where: str) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        where,
        "complex numbers are [re, im] pairs",
    )
    re, im = value
    _require(
        _is_number(re) and _is_number(im),
        where,
        "complex parts must be finite numbers",
    )
    return complex(re, im)


def _as_vector(value, where: str) -> np.ndarray:
    _require(isinstance(value, list) and len(value) >= 2, where, "expected a list of [re, im] pairs")
    return np.array([_as_complex(v, f"{where}[{i}]") for i, v in enumerate(value)])


def _as_matrix(value, where: str) -> np.ndarray:
    _require(isinstance(value, list) and value, where, "expected a list of rows")
    rows = [_as_vector(row, f"{where}[{i}]") for i, row in enumerate(value)]
    n = rows[0].size
    _require(all(r.size == n for r in rows) and len(rows) == n, where, "matrix must be square")
    return np.vstack(rows)


def _real(value, where: str, *, positive: bool = False) -> float:
    _require(_is_number(value), where, "expected a finite number")
    if positive:
        _require(value > 0, where, "must be positive")
    return float(value)


def _integer(value, where: str, lo: int, hi: float = math.inf) -> int:
    """An int kept exactly as it is, or an integral float."""
    _real(value, where)
    span = f"from {lo} to {hi}" if hi < math.inf else f"of at least {lo}"
    _require(value == int(value) and lo <= value <= hi, where, f"must be an integer {span}")
    return int(value)


@dataclass(frozen=True)
class RunSettings:
    mode: str = "exact"
    seed: int = 0
    trials: int = 10_000
    widths: tuple[float, ...] = ()
    grid_step: float | None = None
    grid_pad: float | None = None


@dataclass(frozen=True)
class ClassicalSettings:
    paths: tuple[ClassicalPath, ...]
    values: tuple[float, ...] | None = None
    condition: frozenset[str] | None = None


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    name: str
    chain: MeasurementChain | None
    meters: tuple[MeterSpec, ...] = ()
    run: RunSettings = RunSettings()
    classical: ClassicalSettings | None = None


MODES = ("exact", "sweep", "sample", "classical")


def _parse_observable(doc, where: str, dim: int) -> Observable:
    _require(isinstance(doc, dict), where, "expected an object")
    if "matrix" in doc:
        m = _as_matrix(doc["matrix"], f"{where}.matrix")
        _require(m.shape == (dim, dim), f"{where}.matrix", f"must be {dim}x{dim}")
        return Observable.from_matrix(m)
    if "eigenvalues" in doc or "basis" in doc:
        _require("eigenvalues" in doc and "basis" in doc, where, "needs both eigenvalues and basis")
        vals = doc["eigenvalues"]
        _require(isinstance(vals, list) and len(vals) == dim, f"{where}.eigenvalues", f"needs {dim} entries")
        eigenvalues = [_real(v, f"{where}.eigenvalues[{i}]") for i, v in enumerate(vals)]
        basis_doc = doc["basis"]
        _require(isinstance(basis_doc, list) and len(basis_doc) == dim, f"{where}.basis", f"needs {dim} column vectors")
        columns = [_as_vector(col, f"{where}.basis[{i}]") for i, col in enumerate(basis_doc)]
        return Observable.from_eigensystem(eigenvalues, np.column_stack(columns))
    _fail(where, "needs either matrix or eigenvalues+basis")


def _parse_functional(doc, where: str) -> tuple[str, PathFunctional]:
    _require(isinstance(doc, dict), where, "expected an object")
    name = doc.get("name")
    _require(isinstance(name, str) and name, f"{where}.name", "functionals need a nonempty name")
    rule = doc.get("rule")
    _require(rule in FUNCTIONAL_RULES, f"{where}.rule", f"must be one of {sorted(FUNCTIONAL_RULES)}")
    if rule == "step_eigenvalue":
        return name, PathFunctional.step_eigenvalue(_integer(doc.get("step", None), f"{where}.step", 0))
    if rule == "weighted_steps":
        weights = doc.get("weights")
        _require(isinstance(weights, list) and weights, f"{where}.weights", "needs a list of weights")
        return name, PathFunctional.weighted_steps(
            [_real(w, f"{where}.weights[{i}]") for i, w in enumerate(weights)]
        )
    if rule == "step_difference":
        later = _integer(doc.get("later", 1), f"{where}.later", 0)
        earlier = _integer(doc.get("earlier", 0), f"{where}.earlier", 0)
        return name, PathFunctional.step_difference(later, earlier)
    if rule == "path_indicator":
        path = doc.get("path")
        _require(isinstance(path, list) and path, f"{where}.path", "needs a list of step indices")
        return name, PathFunctional.path_indicator([_integer(i, f"{where}.path[{k}]", 0) for k, i in enumerate(path)])
    if rule == "table":
        values = doc.get("values")
        _require(isinstance(values, list) and values, f"{where}.values", "needs one value per path")
        return name, PathFunctional.from_table(
            [_real(v, f"{where}.values[{i}]") for i, v in enumerate(values)]
        )
    return name, PathFunctional.constant(_real(doc.get("value", None), f"{where}.value"))


def _parse_profile(doc, where: str) -> PointerProfile:
    _require(isinstance(doc, dict), where, "expected an object")
    shape = doc.get("shape")
    _require(shape in ("gaussian", "rectangular", "tabulated"), f"{where}.shape", "must be gaussian, rectangular or tabulated")
    width = _real(doc.get("width", None), f"{where}.width", positive=True)
    if shape == "gaussian":
        with _field(f"{where}.width"):
            return PointerProfile.gaussian(width)
    if shape == "rectangular":
        return PointerProfile.rectangular(width)
    xs = doc.get("xs")
    values = doc.get("values")
    _require(isinstance(xs, list) and isinstance(values, list), f"{where}", "tabulated profiles need xs and values")
    with _field(where):
        return PointerProfile.tabulated(
            [_real(x, f"{where}.xs[{i}]") for i, x in enumerate(xs)],
            [_real(v, f"{where}.values[{i}]") for i, v in enumerate(values)],
            width,
        )


def _parse_wire_end(text, where: str):
    _require(isinstance(text, str) and text, where, "expected 'connector.port' or a receptacle name")
    if "." in text:
        name, _, port = text.rpartition(".")
        _require(port in ("0", "1"), where, "port must be 0 or 1")
        return name, int(port)
    return text, None


def _parse_classical(doc, where: str) -> ClassicalSettings:
    _require(isinstance(doc, dict), where, "expected an object")
    conn_doc = doc.get("connectors")
    _require(isinstance(conn_doc, dict) and conn_doc, f"{where}.connectors", "needs at least one connector")
    connectors = {}
    for name, body in conn_doc.items():
        w = f"{where}.connectors.{name}"
        _require("." not in name, w, "connector names must not contain '.'")
        _require(isinstance(body, dict), w, "expected an object")
        rows = body.get("weights")
        _require(
            isinstance(rows, list) and len(rows) == 2 and all(isinstance(r, list) and len(r) == 2 for r in rows),
            f"{w}.weights",
            "needs a 2x2 matrix of numbers",
        )
        weights = np.array([[_real(rows[r][c], f"{w}.weights[{r}][{c}]") for c in (0, 1)] for r in (0, 1)])
        blocked = body.get("blocked", [])
        _require(isinstance(blocked, list), f"{w}.blocked", "expected a list of outlets")
        blocked = frozenset(_integer(b, f"{w}.blocked[{i}]", 0, 1) for i, b in enumerate(blocked))
        with _field(w):
            connectors[name] = ClassicalConnector(name, weights, blocked)

    wiring_doc = doc.get("wiring")
    _require(isinstance(wiring_doc, dict) and wiring_doc, f"{where}.wiring", "needs outlet wires")
    wiring = {}
    for key, target in wiring_doc.items():
        w = f"{where}.wiring.{key}"
        src_name, src_port = _parse_wire_end(key, w)
        _require(src_port is not None, w, "wire sources are 'connector.outlet'")
        tgt_name, tgt_port = _parse_wire_end(target, w)
        if tgt_port is None:
            _require(tgt_name not in connectors, w, "receptacle name collides with a connector")
            wiring[(src_name, src_port)] = to_receptacle(tgt_name)
        else:
            wiring[(src_name, src_port)] = to_connector(tgt_name, tgt_port)

    entry_name, entry_port = _parse_wire_end(doc.get("entry", ""), f"{where}.entry")
    _require(entry_port is not None, f"{where}.entry", "entry is 'connector.inlet'")

    labels_doc = doc.get("labels", {})
    _require(isinstance(labels_doc, dict), f"{where}.labels", "expected an object")
    labels = {}
    for name, value in labels_doc.items():
        _require(name in connectors, f"{where}.labels.{name}", "labels an unknown connector")
        labels[name] = _real(value, f"{where}.labels.{name}")

    with _field(where):
        network = ClassicalNetwork(connectors, wiring, (entry_name, entry_port), labels)
        paths = classical_paths(network)
    values = doc.get("values")
    if values is not None:
        _require(isinstance(values, list), f"{where}.values", "expected a list")
        values = tuple(_real(v, f"{where}.values[{i}]") for i, v in enumerate(values))
        _require(len(values) == len(paths), f"{where}.values", f"needs one value per path ({len(paths)})")
    elif labels:
        values = tuple(label_values(network, paths))
    condition = doc.get("condition")
    if condition is not None:
        _require(isinstance(condition, list) and condition, f"{where}.condition", "expected a nonempty list")
        receptacles = {target[1] for target in wiring.values() if target[0] == "receptacle"}
        for i, c in enumerate(condition):
            _require(
                isinstance(c, str) and c in receptacles,
                f"{where}.condition[{i}]",
                f"must name a receptacle of the wiring, one of {sorted(receptacles)}",
            )
        condition = frozenset(condition)
    return ClassicalSettings(tuple(paths), values, condition)


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate a scenario document and build the engine objects."""
    _require(isinstance(doc, dict), "config", "top level must be an object")
    name = doc.get("name", "scenario")
    _require(isinstance(name, str) and name, "name", "must be a nonempty string")

    run_doc = doc.get("run", {})
    _require(isinstance(run_doc, dict), "run", "expected an object")
    mode = run_doc.get("mode", "exact")
    _require(mode in MODES, "run.mode", f"must be one of {MODES}")
    widths = run_doc.get("widths", [])
    _require(isinstance(widths, list), "run.widths", "expected a list")
    widths = tuple(_real(w, f"run.widths[{i}]", positive=True) for i, w in enumerate(widths))
    for i, w in enumerate(widths):
        with _field(f"run.widths[{i}]"):
            PointerProfile.gaussian(w)  # the sweep's profile
    _require(all(a < b for a, b in zip(widths, widths[1:])), "run.widths", "must be strictly increasing")
    _require(mode != "sweep" or bool(widths), "run.widths", "sweep mode needs a list of widths")
    grid_doc = run_doc.get("grid", {})
    _require(isinstance(grid_doc, dict), "run.grid", "expected an object")
    grid_step = grid_doc.get("step")
    if grid_step is not None:
        grid_step = _real(grid_step, "run.grid.step", positive=True)
    grid_pad = grid_doc.get("pad")
    if grid_pad is not None:
        grid_pad = _real(grid_pad, "run.grid.pad")
        _require(grid_pad >= MIN_PAD_WIDTHS, "run.grid.pad", f"must be at least {MIN_PAD_WIDTHS} profile widths")
    run = RunSettings(
        mode=mode,
        seed=_integer(run_doc.get("seed", 0), "run.seed", 0),
        trials=_integer(run_doc.get("trials", 10_000), "run.trials", 1, MAX_TRIALS),
        widths=widths,
        grid_step=grid_step,
        grid_pad=grid_pad,
    )

    classical = None
    if "classical" in doc:
        classical = _parse_classical(doc["classical"], "classical")

    if "system" not in doc:
        _require(
            mode == "classical" and classical is not None,
            "system",
            "required unless run.mode is classical with a classical section",
        )
        return ScenarioConfig(name, None, (), run, classical)

    system = doc["system"]
    _require(isinstance(system, dict), "system", "expected an object")
    dim = _integer(system.get("dim"), "system.dim", 2)
    total_time = _real(system.get("total_time", 1.0), "system.total_time", positive=True)

    def state_field(key: str) -> np.ndarray:
        vec = _as_vector(doc.get(key), key)
        _require(vec.size == dim, key, f"needs {dim} components")
        with _field(key):
            norm = np.linalg.norm(vec)
        _require(abs(norm - 1.0) <= 1e-6, key, "must be normalized")
        # renormalize only when needed, so exact documents round-trip bit-for-bit
        return vec if abs(norm**2 - 1.0) <= 1e-12 else vec / norm

    pre = state_field("pre_state")
    post = state_field("post_state")
    # built after the states, whose sizes bound dim
    if "hamiltonian" in system:
        h = _as_matrix(system["hamiltonian"], "system.hamiltonian")
        _require(h.shape == (dim, dim), "system.hamiltonian", f"must be {dim}x{dim}")
        with _field("system.hamiltonian"):
            prop = Propagator(h)
    else:
        prop = Propagator.free(dim)

    steps_doc = doc.get("steps")
    _require(isinstance(steps_doc, list) and steps_doc, "steps", "needs at least one step")
    steps = []
    for i, step_doc in enumerate(steps_doc):
        w = f"steps[{i}]"
        _require(isinstance(step_doc, dict), w, "expected an object")
        t = _real(step_doc.get("time", None), f"{w}.time")
        _require(0.0 < t < total_time, f"{w}.time", f"must lie strictly inside (0, {total_time})")
        with _field(f"{w}.observable"):
            obs = _parse_observable(step_doc.get("observable"), f"{w}.observable", dim)
        steps.append(MeasurementStep(t, obs))
    times = [s.time for s in steps]
    _require(all(t2 > t1 for t1, t2 in zip(times, times[1:])), "steps", "times must be strictly increasing")

    with _field("steps"):
        chain = MeasurementChain(StateVector(pre), tuple(steps), prop, StateVector(post), total_time)
    if "post_complement" in doc:
        comp_doc = doc["post_complement"]
        _require(isinstance(comp_doc, list), "post_complement", "expected a list of states")
        complement = tuple(
            StateVector(_as_vector(v, f"post_complement[{i}]")) for i, v in enumerate(comp_doc)
        )
        with _field("post_complement"):
            chain = replace(chain, post_complement=complement)

    functionals: dict[str, PathFunctional] = {}
    functionals_doc = doc.get("functionals", [])
    _require(isinstance(functionals_doc, list), "functionals", "expected a list")
    for i, fdoc in enumerate(functionals_doc):
        fname, functional = _parse_functional(fdoc, f"functionals[{i}]")
        _require(fname not in functionals, f"functionals[{i}].name", "duplicate functional name")
        # fail fast on rules inconsistent with the chain
        with _field(f"functionals[{i}]"):
            functional.step_terms(chain)
        functionals[fname] = functional

    meters = []
    meters_doc = doc.get("meters", [])
    _require(isinstance(meters_doc, list), "meters", "expected a list")
    for i, mdoc in enumerate(meters_doc):
        w = f"meters[{i}]"
        _require(isinstance(mdoc, dict), w, "expected an object")
        fname = mdoc.get("functional")
        _require(
            isinstance(fname, str) and fname in functionals, f"{w}.functional", "references an undefined functional"
        )
        profile = _parse_profile(mdoc.get("profile"), f"{w}.profile")
        meters.append(MeterSpec(functionals[fname], profile))
    if mode != "classical":
        _require(bool(meters), "meters", "needs at least one meter")
    for i, meter in enumerate(meters):
        _require(
            run.grid_step is None or run.grid_step <= meter.profile.width / MIN_POINTS_PER_WIDTH,
            "run.grid.step",
            f"{run.grid_step} cannot resolve meters[{i}].profile.width ({meter.profile.width}): "
            f"must be at most width / {MIN_POINTS_PER_WIDTH}",
        )

    return ScenarioConfig(name, chain, tuple(meters), run, classical)


def read_document(path):
    """The JSON scenario document at path, unvalidated."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    return parse_config(read_document(path))


def _complex_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _vector_doc(v: np.ndarray) -> list:
    return [_complex_pair(z) for z in np.asarray(v).ravel()]


def _matrix_doc(m: np.ndarray) -> list:
    return [[_complex_pair(z) for z in row] for row in np.asarray(m)]


def _functional_doc(name: str, functional: PathFunctional) -> dict:
    out = {"name": name, "rule": functional.rule}
    for key, value in functional.params.items():
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _profile_doc(profile: PointerProfile) -> dict:
    out = {"shape": profile.shape, "width": profile.width}
    if profile.shape == "tabulated":
        out.update(xs=profile.template_xs.tolist(), values=profile.template_values.tolist())
    return out


def export_config(
    name: str,
    chain: MeasurementChain,
    meters,
    run: RunSettings = RunSettings(),
) -> dict:
    """Serialize a chain and meters into the scenario document format.

    Round trip is exact: floats are emitted at full precision, so parsing
    the document rebuilds identical engine inputs.
    """
    meters = list(meters)
    doc: dict = {
        "name": name,
        "system": {
            "dim": chain.dim,
            "total_time": chain.total_time,
            "hamiltonian": _matrix_doc(chain.propagator.hamiltonian),
        },
        "pre_state": _vector_doc(chain.pre_state.amplitudes),
        "post_state": _vector_doc(chain.post_state.amplitudes),
        "steps": [
            {
                "time": step.time,
                "observable": {
                    "eigenvalues": [float(v) for v in step.observable.eigenvalues],
                    "basis": [
                        _vector_doc(step.observable.eigenvectors[:, j])
                        for j in range(step.observable.dim)
                    ],
                },
            }
            for step in chain.steps
        ],
        "functionals": [_functional_doc(f"f{i}", m.functional) for i, m in enumerate(meters)],
        "meters": [
            {"functional": f"f{i}", "profile": _profile_doc(m.profile)} for i, m in enumerate(meters)
        ],
        "run": {
            "mode": run.mode,
            "seed": run.seed,
            "trials": run.trials,
            "widths": list(run.widths),
        },
    }
    grid = {key: value for key, value in (("step", run.grid_step), ("pad", run.grid_pad)) if value is not None}
    if grid:
        doc["run"]["grid"] = grid
    if chain.post_complement is not None:
        doc["post_complement"] = [_vector_doc(c.amplitudes) for c in chain.post_complement]
    return doc
