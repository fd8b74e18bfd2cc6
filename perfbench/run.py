"""qpathnet benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory and nowhere else.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the run
spends half its time untraced and half traced, and reports the per-layer
metrics (per traced op) plus the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 21

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import qpathnet; print(time.perf_counter() - t)"
)


def _import_library():
    if not (SRC / "qpathnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no qpathnet sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import qpathnet

    if Path(qpathnet.__file__).resolve().parent != SRC / "qpathnet":
        raise SystemExit(f"error: imported qpathnet from {qpathnet.__file__}, not from {SRC}")


def _keep_freed_memory() -> bool:
    """Makes glibc serve every allocation from its heap and keep freed
    memory there; returns whether it could.

    By default each large numpy array is a fresh mmap whose pages the kernel
    faults in and zeroes, and is unmapped again when freed.  That kernel
    work was 30-40% of an op on joint-sample and cli-presets, and its cost
    moved with the load on the host far more than the op's own work did.
    Reused heap pages take no faults.
    """
    import ctypes

    m_trim_threshold, m_mmap_max = -1, -4
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


def _setup_seconds(workload) -> float:
    """One set-up: `import qpathnet` in a fresh interpreter plus one build
    of the workload's inputs."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    t0 = time.perf_counter()
    workload.setup()
    return float(proc.stdout.strip().splitlines()[-1]) + time.perf_counter() - t0


class Runner:
    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.next_op = 0
        self.attempted = 0
        self.failures: Counter = Counter()
        self.incorrect = False

    def one(self, traced: bool) -> float:
        """Run op next_op with its checks; returns its latency."""
        i = self.next_op
        self.next_op += 1
        w = self.workload
        inp = w.inputs(i)
        gc.collect()  # garbage of earlier ops is not this op's cost
        if traced:
            self.tracer.begin_op(i)
        try:
            t0 = time.perf_counter()
            out = w.op(i, inp)
            latency = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.end_op()
        self.record(w.check(i, inp, out))
        if traced and hasattr(w, "artifact_bytes"):
            self.tracer.count(i, "cli.artifact_bytes", w.artifact_bytes(inp))
        if hasattr(w, "cleanup"):
            w.cleanup(inp)
        return latency

    def record(self, gates) -> None:
        from workloads import PASS, WRONG

        for gate, status, detail in gates:
            self.attempted += 1
            if status != PASS:
                self.failures[f"{gate} ({status}): {detail}"] += 1
                self.incorrect |= status == WRONG

    def loop(self, seconds: float, traced: bool = False, between=None) -> tuple[list[float], list[int]]:
        """Closed loop for `seconds`; `between(elapsed)` runs after each op,
        untimed."""
        latencies, ops = [], []
        start = time.perf_counter()
        while not latencies or time.perf_counter() - start < seconds:
            ops.append(self.next_op)
            latencies.append(self.one(traced))
            if between is not None:
                between(time.perf_counter() - start)
        return latencies, ops


def end_to_end(runner: Runner, seconds: float, first_setup_s: float) -> tuple[dict, list[str]]:
    # Set-ups are spread over the run, one due per 1/SETUP_REPEATS of it, so
    # the median sees the same machine as the ops instead of its first
    # seconds.  Those that fall due during an op run after it.
    setups = [first_setup_s]

    def setup_when_due(elapsed: float) -> None:
        while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(_setup_seconds(runner.workload))

    latencies, _ = runner.loop(seconds, between=setup_when_due)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s_p50": (statistics.median(latencies), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"ops timed: {len(latencies)} (latency summed {sum(latencies):.3f} s); set-ups timed: {len(setups)}",
        "latencies (s): " + " ".join(f"{x:.4f}" for x in latencies),
    ]
    return metrics, notes


def per_layer(runner: Runner, workload, seconds: float, nproc: int) -> tuple[dict, list[str]]:
    from tracer import SELF_TIME_METRICS

    tracer = runner.tracer
    untraced, _ = runner.loop(seconds / 2.0)
    with tracer:
        traced, ops = runner.loop(seconds / 2.0, traced=True)
        draws = {}
        if hasattr(workload, "scaling"):
            draws, gates = workload.scaling(tracer, nproc)
            runner.record(gates)
    selfs = tracer.self_times()
    n = len(ops)

    def per_op(values) -> float:
        return sum(values) / n

    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = (per_op(sum(selfs[i].get(s, 0.0) for s in names) for i in ops), "s")
    counts = tracer.counts
    for metric, unit in (
        ("paths.path_amplitudes.calls", "count"),
        ("meter.grid_cells", "count"),
        ("meter.kernel_bytes", "B"),
        ("sampling.trials", "count"),
        ("cli.artifact_bytes", "B"),
        ("core.unitary.calls", "count"),
    ):
        metrics[metric] = (per_op(counts[i][metric] for i in ops), unit)
    sizes = workload.sizes()
    metrics["paths.n_paths"] = (sizes["paths.n_paths"], "count")
    metrics["paths.support_size"] = (sizes["paths.support_size"], "count")
    calls = metrics["paths.path_amplitudes.calls"][0]
    metrics["paths.path_amplitudes.calls_per_branch"] = (calls / sizes["branches"], "calls/branch")
    metrics["sampling.draw_s.workers_1"] = (draws.get(1, 0.0), "s")
    metrics["sampling.draw_s.workers_N"] = (draws.get(nproc, 0.0), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    notes = [
        f"ops untraced: {len(untraced)}, traced: {n}; per-layer values are means per traced op",
        f"sampling.draw_s.workers_N uses N = {nproc} (nproc)"
        + ("" if draws else "; this workload does not run the scaling check"),
        "meter.kernel_bytes is computed from array sizes: cells x (paths x 16 + 24) per joint call",
    ]
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{workload.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed, "spans": tracer.to_json()}, fh)
    notes.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # One client: numpy's BLAS runs on the calling thread.  Its idle worker
    # threads would otherwise spin beside the timed thread after every call
    # and add their start-up to every import the set-up times.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    heap_only = _keep_freed_memory()
    _import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    # sampling runs on one worker unless the scaling check asks for more
    os.environ.pop("QPATHNET_THREADS", None)
    nproc = len(os.sched_getaffinity(0))

    tmp = TMP / f"{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp)
        setup_s = _setup_seconds(workload)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        runner = Runner(workload, tracer)
        runner.one(traced=False)  # warm-up: checked, not timed
        if args.trace:
            metrics, notes = per_layer(runner, workload, args.seconds, nproc)
        else:
            metrics, notes = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.is_dir() and not any(TMP.iterdir()):
            TMP.rmdir()

    failed = sum(runner.failures.values())
    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"python {sys.version.split()[0]}, numpy {numpy.__version__}, nproc {nproc}, "
          f"{'heap-only allocation' if heap_only else 'default allocation (mallopt unavailable)'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    for note in notes:
        print(f"  note: {note}")
    print(f"  checks: {runner.attempted} attempted, {failed} failed "
          f"(fail_ratio {failed / runner.attempted:.6g})")
    for message, count in sorted(runner.failures.items()):
        print(f"  failed x{count}: {message}")
    result = {
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
