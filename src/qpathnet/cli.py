"""Command line runner: execute scenario configs or presets, emit artifacts.

    qpathnet run <config.json | preset:NAME> --out DIR [--mode ...] [...]
    qpathnet report <summary.json> [...] [--out DIR]

Exit codes: 0 success, 2 malformed config, 3 engine failure (for instance a
forbidden transition where a weak mean is requested).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from .classical import chain_comparator, classical_mean
from .config import (
    ClassicalSettings,
    ConfigError,
    RunSettings,
    ScenarioConfig,
    export_config,
    parse_config,
    read_document,
)
from .meter import (
    GRID_PAD_WIDTHS,
    Grid,
    GridCapError,
    _distribution,
    mean_reading,
    pointer_distribution,
    weak_limit_report,
)
from .paths import ForbiddenTransitionError, group_by_value, grouped_amplitudes
from .sampling import sample_trials
from .scenarios import build_preset

DIGITS = 12  # significant digits in rendered reports


def _fmt(x) -> str:
    return f"{float(x):.{DIGITS}g}"


def _load(source: str, args=None) -> ScenarioConfig:
    """Parse the config file or preset once, with the run flags in args (if
    given) written into its run section first, so flags and file fields pass
    the same validation."""
    if source.startswith("preset:"):
        preset = build_preset(source.removeprefix("preset:"))
        doc = export_config(
            preset.name,
            preset.chain,
            preset.meters,
            RunSettings(widths=preset.sweep_widths),
        )
    else:
        doc = read_document(source)
    # sections that are not objects are left for parse_config to refuse
    run_doc = doc.get("run", {}) if isinstance(doc, dict) else None
    if args is not None and isinstance(run_doc, dict):
        run_doc = _with_flags(run_doc, mode=args.mode, seed=args.seed, trials=args.trials)
        if isinstance(run_doc.get("grid", {}), dict):
            run_doc["grid"] = _with_flags(run_doc.get("grid", {}), step=args.grid_step, pad=args.grid_extent)
        doc = {**doc, "run": run_doc}
    return parse_config(doc)


def _with_flags(section: dict, **flags) -> dict:
    """A copy of a document section with every flag that was given set."""
    return {**section, **{key: value for key, value in flags.items() if value is not None}}


def _grid(config: ScenarioConfig, support, width: float) -> Grid:
    """A meter's reading grid under run.grid, covering the A(f) support."""
    pad = GRID_PAD_WIDTHS if config.run.grid_pad is None else config.run.grid_pad
    return Grid.cover(support, width, pad=pad, step=config.run.grid_step)


def _run_exact(config: ScenarioConfig, out: Path) -> dict:
    chain = config.chain
    meters = config.meters
    summary: dict = {"name": config.name, "mode": "exact", "dim": chain.dim, "meters": []}
    # one walk of all meters: each meter's A(f) and the joint density read its keys
    keys, grouped = grouped_amplitudes(chain, [m.functional for m in meters])
    grids = []
    for i, meter in enumerate(meters):
        amps = group_by_value(keys[:, i], grouped)
        grid = _grid(config, amps.support, meter.profile.width)
        grids.append(grid)
        try:
            dist = pointer_distribution(amps, meter.profile, grid)
        except GridCapError as exc:
            raise exc.for_meter(i) from None
        csv_name = f"distribution_m{i}.csv"
        dist.write_csv(out / csv_name)
        entry = {
            "index": i,
            "shape": meter.profile.shape,
            "width": meter.profile.width,
            "norm": dist.norm,
            "mean_reading": mean_reading(dist),
            "strong_mean": amps.strong_mean(),
            "strong_bins": [[f, m] for f, m in sorted(amps.strong_bins().items())],
            "distribution_csv": csv_name,
        }
        try:
            wv = amps.weak_value()
            rel = [[f, a.real, a.imag] for f, a in sorted(amps.relative().items())]
            entry.update(weak_value_re=wv.real, weak_value_im=wv.imag, relative_amplitudes=rel)
        except ForbiddenTransitionError as exc:
            entry.update(
                weak_value_re=None, weak_value_im=None, relative_amplitudes=None, weak_unavailable=str(exc)
            )
        summary["meters"].append(entry)
    head = summary["meters"][0]
    for key in ("strong_mean", "weak_value_re", "weak_value_im", "norm", "mean_reading", "weak_unavailable"):
        if key in head:
            summary[key] = head[key]
    if len(meters) >= 2:
        joint = _distribution(keys, grouped, [m.profile for m in meters], grids)
        summary["weak_marginals"] = [joint.marginal_mean(r) for r in range(len(meters))]
    return summary


def _run_sweep(config: ScenarioConfig, out: Path) -> dict:
    widths = config.run.widths
    if not widths:
        raise ConfigError("run.widths: sweep mode needs a list of widths")
    report = weak_limit_report(config.chain, config.meters[0].functional, widths)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["width", "mean", "abs_error"])
        for w, m, e in zip(report.widths, report.means, report.errors):
            writer.writerow([repr(w), repr(m), repr(e)])
    return {
        "name": config.name,
        "mode": "sweep",
        "dim": config.chain.dim,
        "widths": list(report.widths),
        "means": list(report.means),
        "errors": list(report.errors),
        "limit": report.limit,
        "weak_value_re": report.weak.real,
        "weak_value_im": report.weak.imag,
        "monotone": report.monotone,
        "sweep_csv": "sweep.csv",
    }


def _run_sample(config: ScenarioConfig, out: Path) -> dict:
    chain, meters = config.chain, list(config.meters)
    keys, _ = grouped_amplitudes(chain, [m.functional for m in meters])
    grids = [_grid(config, keys[:, r], m.profile.width) for r, m in enumerate(meters)]
    try:
        trials = sample_trials(chain, meters, config.run.trials, config.run.seed, grids=grids)
    except GridCapError as exc:
        raise exc.for_meter(0) from None
    trials.write_csv(out / "trials.csv")
    s = trials.summary()
    return {
        "name": config.name,
        "mode": "sample",
        "dim": config.chain.dim,
        "seed": config.run.seed,
        "trials": s.n_trials,
        "success_count": s.n_success,
        "success_rate": s.success_rate,
        "exact_success_probability": s.exact_success_probability,
        "meters": [
            {
                "index": i,
                "empirical_mean": m.conditional_mean,
                "standard_error": m.standard_error,
                "exact_mean": m.exact_mean,
                "z_score": m.z_score,
            }
            for i, m in enumerate(s.meters)
        ],
        "trials_csv": "trials.csv",
    }


def _classical_settings(config: ScenarioConfig) -> ClassicalSettings:
    if config.classical is not None:
        return config.classical
    # the chain's distinguishable-path twin, one entry per (branch, path)
    chain = config.chain
    paths = tuple(chain_comparator(chain))
    values = None
    if config.meters:
        per_path = config.meters[0].functional.values(chain)
        values = tuple(np.tile(per_path, len(paths) // chain.n_paths).tolist())
    return ClassicalSettings(paths, values, frozenset({"f0"}))


def _run_classical(config: ScenarioConfig, out: Path) -> dict:
    settings = _classical_settings(config)
    paths = settings.paths
    with open(out / "classical_paths.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "receptacle", "probability", "value"])
        for i, p in enumerate(paths):
            hops = "|".join(f"{name}:{inlet}->{outlet}" for name, inlet, outlet in p.hops)
            value = settings.values[i] if settings.values is not None else ""
            writer.writerow([hops, p.receptacle, repr(p.probability), value])
    summary = {
        "name": config.name,
        "mode": "classical",
        "dim": config.chain.dim if config.chain is not None else None,
        "n_paths": len(paths),
        "probabilities": [p.probability for p in paths],
        "receptacles": sorted({p.receptacle for p in paths}),
        "paths_csv": "classical_paths.csv",
    }
    if settings.values is not None:
        condition = settings.condition or {p.receptacle for p in paths}
        summary["condition"] = sorted(condition)
        summary["conditional_mean"] = classical_mean(paths, settings.values, set(condition))
    return summary


def run(source: str, out_dir, args=None) -> dict:
    """Execute one scenario and write its artifacts; returns the summary."""
    config = _load(source, args)
    mode = config.run.mode
    if mode != "classical" and config.chain is None:
        raise ConfigError(f"run.mode: mode {mode!r} needs a quantum system section")
    runner = {
        "exact": _run_exact,
        "sweep": _run_sweep,
        "sample": _run_sample,
        "classical": _run_classical,
    }[mode]
    # artifacts are staged in a hidden directory inside the output, on its
    # own filesystem, and move up only once the whole run has succeeded; a
    # failed run removes them and every directory it created
    out = Path(out_dir).resolve()
    created = None
    for directory in (out, *out.parents):
        if directory.exists():
            break
        created = directory
    out.mkdir(parents=True, exist_ok=True)
    staging = out / f".partial-{os.urandom(4).hex()}"
    staging.mkdir()
    try:
        summary = runner(config, staging)
        with open(staging / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
        for artifact in staging.iterdir():
            os.replace(artifact, out / artifact.name)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return summary


_METRIC_ORDER = (
    "strong_mean",
    "weak_value_re",
    "weak_value_im",
    "norm",
    "mean_reading",
    "limit",
    "success_rate",
    "exact_success_probability",
    "conditional_mean",
)


def report(summary_paths, out_dir=None) -> str:
    """Consolidate run summaries into one table (and plot-ready CSV files)."""
    summaries = []
    for path in summary_paths:
        with open(path) as fh:
            summaries.append((Path(path), json.load(fh)))
    dims = {s.get("dim") for _, s in summaries if s.get("dim") is not None}
    if len(dims) > 1:
        raise ValueError(f"refusing to mix summaries of different dimensions: {sorted(dims)}")

    rows: list[tuple[str, str, str]] = []
    for path, s in summaries:
        label = f"{s.get('name', path.stem)}/{s.get('mode', '?')}"
        for metric in _METRIC_ORDER:
            if metric in s and isinstance(s[metric], (int, float)):
                rows.append((label, metric, _fmt(s[metric])))
        if "weak_marginals" in s:
            for i, v in enumerate(s["weak_marginals"]):
                rows.append((label, f"weak_marginal_{i}", _fmt(v)))
        for m in s.get("meters", []):
            if "empirical_mean" in m:
                i = m["index"]
                rows.append((label, f"meter{i}_empirical_mean", _fmt(m["empirical_mean"])))
                rows.append((label, f"meter{i}_standard_error", _fmt(m["standard_error"])))
                rows.append((label, f"meter{i}_z_score", _fmt(m["z_score"])))

    # pair empirical and exact runs of one scenario: z-score of the sampled
    # conditional mean against the exact mean reading
    by_name: dict[str, dict[str, dict]] = {}
    for _, s in summaries:
        by_name.setdefault(s.get("name", ""), {})[s.get("mode", "")] = s
    for name, modes in sorted(by_name.items()):
        if "sample" in modes and "exact" in modes:
            sample, exact = modes["sample"], modes["exact"]
            for m_s, m_e in zip(sample.get("meters", []), exact.get("meters", [])):
                se = m_s.get("standard_error") or 0.0
                if se:
                    z = (m_s["empirical_mean"] - m_e["mean_reading"]) / se
                    rows.append(
                        (f"{name}/sample-vs-exact", f"meter{m_s['index']}_z_score", _fmt(z))
                    )

    width_a = max((len(r[0]) for r in rows), default=6)
    width_b = max((len(r[1]) for r in rows), default=6)
    lines = [f"{'source':<{width_a}}  {'metric':<{width_b}}  value"]
    lines += [f"{a:<{width_a}}  {b:<{width_b}}  {c}" for a, b, c in rows]
    table = "\n".join(lines)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "report.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["source", "metric", "value"])
            writer.writerows(rows)
        for path, s in summaries:
            if s.get("mode") == "sweep":
                with open(out / f"plot_{s['name']}_sweep.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["width", "mean"])
                    for w, m in zip(s["widths"], s["means"]):
                        writer.writerow([repr(w), repr(m)])
            elif s.get("mode") == "exact":
                src = path.parent / s["meters"][0]["distribution_csv"]
                if src.exists():
                    (out / f"plot_{s['name']}_distribution.csv").write_text(src.read_text())
        (out / "report.txt").write_text(table + "\n")
    return table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpathnet",
        description="Pointer statistics of sequential measurements on small quantum systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config or preset")
    p_run.add_argument("source", help="path to a config JSON, or preset:NAME")
    p_run.add_argument("out", nargs="?", default=None, help="output directory (or use --out)")
    p_run.add_argument("--out", dest="out_flag", default=None)
    p_run.add_argument("--mode", choices=("exact", "sweep", "sample", "classical"), default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--grid-step", type=float, default=None)
    p_run.add_argument("--grid-extent", type=float, default=None, help="grid padding in profile widths")

    p_report = sub.add_parser("report", help="consolidate run summaries")
    p_report.add_argument("summaries", nargs="+")
    p_report.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            out = args.out_flag or args.out
            if out is None:
                print("error: run needs an output directory", file=sys.stderr)
                return 2
            summary = run(args.source, out, args)
            print(f"wrote {summary['mode']} artifacts for {summary['name']!r} to {out}")
            return 0
        table = report(args.summaries, args.out)
        print(table)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ForbiddenTransitionError as exc:
        print(
            f"engine error: {exc}\n"
            "remedy: choose pre/post states with a nonzero overlap, or use the "
            "strong-limit bins instead of a weak mean",
            file=sys.stderr,
        )
        return 3
    except (ValueError, OSError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
