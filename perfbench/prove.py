"""Run the benchmark as two sets over seeds 1-10 and check that they agree.

    python3 perfbench/prove.py [--baseline FILE]

For each workload, runs `perfbench/run.py` once per seed and set, with the
run length from BENCHMARK.json; the two sets alternate run by run, so both
see the same machine.  For every end-to-end metric and set it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound, and how far the second set's
median lies from the first's, also against the bound.  It exits 1 when a
run is incorrect or any spread or median gap exceeds its bound.  Then one
traced run per workload, on the first seed, gives the per-layer metrics.
--baseline writes all of it, with the Python and numpy versions and nproc,
to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SEEDS = range(1, 11)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    out = {"workloads": {}}
    ok = True
    for name in (w["name"] for w in bench["workloads"]):
        sets = [[] for _ in range(SETS)]
        for seed in SEEDS:
            for runs in sets:
                runs.append(run_once(name, seed, seconds, 0))
        every = [r for runs in sets for r in runs]
        entry = {
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "correct": all(r["correct"] for r in every),
            "wall_s_max": max(r["wall_s"] for r in every),
            "sets": [{} for _ in sets],
            "median_gap": {},
        }
        ok &= entry["correct"]
        print(f"{name}: {entry['attempted']} checks, {entry['failed']} failed, "
              f"correct={entry['correct']}, slowest run {entry['wall_s_max']:.1f} s wall")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            for k, runs in enumerate(sets):
                stats = spread([r["metrics"][key]["value"] for r in runs])
                entry["sets"][k][key] = stats
                within = stats["spread"] <= bound
                ok &= within
                flag = "ok" if stats["spread"] <= bound / 3 else ("within bound" if within else "TOO WIDE")
                print(f"  {key:<12} set {k + 1} median {stats['median']:.6g} {metric['unit']:<4} "
                      f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.4f} "
                      f"bound {bound} {flag}")
            first, second = (entry["sets"][k][key]["median"] for k in (0, 1))
            gap = second / first - 1.0
            entry["median_gap"][key] = gap
            within = abs(gap) <= bound
            ok &= within
            print(f"  {key:<12} set 2 median is {gap:+.4f} of set 1's, bound {bound} "
                  f"{'agree' if within else 'DISAGREE'}")
        traced = run_once(name, SEEDS[0], seconds, 1)
        ok &= traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_seed"] = SEEDS[0]
        for k, v in traced["metrics"].items():
            print(f"  {k:<42} {v['value']:.6g} {v['unit']}")
        out["workloads"][name] = entry
    if args.baseline:
        import numpy

        out = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "run_seconds": seconds,
            "seeds": list(SEEDS),
            **out,
        }
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
