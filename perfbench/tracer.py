"""Span recorder for the traced benchmark run.

The tracer wraps public functions of each qpathnet layer, in every
`qpathnet.*` namespace that binds them (cli and scenarios import meter and
paths functions by name), and restores the originals on exit.  A span is
recorded only while an op is active, so reference checks run between ops
stay out of the trace.  Spans live in memory until the run ends.

Self time is a span's duration minus the part of it covered by its child
spans.  Spans opened on worker threads (rng.uniform_block inside sampling
workers) take the innermost span open on the op's own thread as parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute) pairs; "Class.method" patches the class attribute.
TRACED = (
    ("core", "Propagator.unitary"),
    ("paths", "PathFunctional.values"),
    ("paths", "path_amplitudes"),
    ("paths", "group_by_value"),
    ("paths", "amplitude_distribution"),
    ("paths", "relative_amplitudes"),
    ("paths", "weak_value"),
    ("paths", "strong_mean"),
    ("meter", "final_pointer_state"),
    ("meter", "reading_distribution"),
    ("meter", "total_reading_distribution"),
    ("meter", "mean_reading"),
    ("meter", "JointDistribution.marginal"),
    ("meter", "joint_reading_distribution"),
    ("meter", "strong_limit_bins"),
    ("meter", "strong_limit_probabilities"),
    ("meter", "weak_limit_report"),
    ("meter", "PointerDistribution.write_csv"),
    ("sampling", "sample_trials"),
    ("sampling", "TrialSet.summary"),
    ("sampling", "TrialSet.write_csv"),
    ("rng", "uniform_block"),
    ("classical", "classical_paths"),
    ("classical", "classical_mean"),
    ("classical", "chain_comparator"),
    ("classical", "comparator_path_key"),
    ("scenarios", "build_preset"),
    ("config", "parse_config"),
    ("config", "load_config"),
    ("config", "export_config"),
    ("cli", "run"),
    ("cli", "report"),
    ("cli", "main"),
)

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "paths.path_amplitudes.self_s": ("paths.path_amplitudes",),
    "paths.functional_values.self_s": ("paths.PathFunctional.values",),
    "paths.group_by_value.self_s": ("paths.group_by_value",),
    "meter.final_pointer_state.self_s": ("meter.final_pointer_state",),
    "meter.moments.self_s": ("meter.mean_reading", "meter.JointDistribution.marginal"),
    "meter.joint_reading_distribution.self_s": ("meter.joint_reading_distribution",),
    "sampling.sample_trials.self_s": ("sampling.sample_trials",),
    "rng.uniform_block.self_s": ("rng.uniform_block",),
    "cli.run.self_s": ("cli.run",),
    "cli.report.self_s": ("cli.report",),
    "cli.write.self_s": (
        "meter.PointerDistribution.write_csv",
        "sampling.TrialSet.write_csv",
        "cli.json.dump",
    ),
    "config.parse.self_s": ("config.parse_config", "config.load_config", "config.export_config"),
    "scenarios.build_preset.self_s": ("scenarios.build_preset",),
    "classical.self_s": (
        "classical.classical_paths",
        "classical.classical_mean",
        "classical.chain_comparator",
        "classical.comparator_path_key",
    ),
    "core.unitary.self_s": ("core.Propagator.unitary",),
}

# bytes per grid cell of the seed's joint kernel: one complex outer-product
# term per path, plus the complex pointer sum and the real density
TERM_BYTES = 16
POINTER_BYTES = 16 + 8


@dataclass(frozen=True)
class Span:
    op: object
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


class _JsonProxy:
    """Stands in for the json module inside cli so summary dumps are spans."""

    def __init__(self, module, dump):
        self._module = module
        self.dump = dump

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = None
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- op scope -------------------------------------------------------
    def begin_op(self, op) -> None:
        self._local.stack = self._owner_stack = []
        self.op = op

    def end_op(self) -> None:
        self.op = None

    def count(self, op, name: str, value: float) -> None:
        with self._lock:
            self.counts[op][name] += value

    # -- wrapping --------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            with tracer._lock:
                span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(Span(op, span_id, parent, name, start, end))
            if on_result is not None:
                on_result(op, args, kwargs, result)
            return result

        return traced

    def _counters(self):
        def path_amplitudes(op, args, kwargs, result):
            self.count(op, "paths.path_amplitudes.calls", 1)

        def grid(op, args, kwargs, result):
            self.count(op, "meter.grid_cells", result.density.size)

        def joint(op, args, kwargs, result):
            cells = result.density.size
            self.count(op, "meter.grid_cells", cells)
            self.count(op, "meter.kernel_bytes", cells * (args[0].n_paths * TERM_BYTES + POINTER_BYTES))

        def trials(op, args, kwargs, result):
            self.count(op, "sampling.trials", result.n_trials)

        def unitary(op, args, kwargs, result):
            self.count(op, "core.unitary.calls", 1)

        return {
            "paths.path_amplitudes": path_amplitudes,
            "meter.reading_distribution": grid,
            "meter.joint_reading_distribution": joint,
            "sampling.sample_trials": trials,
            "core.Propagator.unitary": unitary,
        }

    def __enter__(self):
        counters = self._counters()
        modules = {n: m for n, m in sys.modules.items() if n == "qpathnet" or n.startswith("qpathnet.")}
        for layer, attr in TRACED:
            module = modules[f"qpathnet.{layer}"]
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self.wrap(name, original, counters.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counters.get(name))
            for namespace in modules.values():
                if namespace.__dict__.get(attr) is original:
                    self._patch(namespace, attr, original, wrapped)
        cli = modules["qpathnet.cli"]
        json_module = cli.json
        self._patch(cli, "json", json_module, _JsonProxy(json_module, self.wrap("cli.json.dump", json_module.dump)))
        return self

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # -- analysis --------------------------------------------------------
    def self_times(self) -> dict:
        """{op: {span name: summed self time}}."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[s.op][s.name] += (s.end - s.start) - covered
        return out

    def draw_seconds(self, op) -> float:
        """Wall time of the draw phase of the op's sample_trials call: from
        the first uniform_block span to the end of sample_trials."""
        spans = [s for s in self.spans if s.op == op]
        outer = max((s for s in spans if s.name == "sampling.sample_trials"), key=lambda s: s.end)
        first = min(s.start for s in spans if s.name == "rng.uniform_block")
        return outer.end - first

    def to_json(self) -> list:
        return [
            {"op": s.op, "id": s.span_id, "parent": s.parent, "name": s.name,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]
