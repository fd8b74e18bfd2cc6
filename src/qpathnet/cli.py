"""Command line runner: execute scenario configs or presets, emit artifacts.

    qpathnet run <config.json | preset:NAME> --out DIR [--mode ...] [...]
    qpathnet report <summary.json> [...] [--out DIR]

Exit codes: 0 success, 2 malformed config, 3 engine failure (for instance a
forbidden transition where a weak mean is requested).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
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
    _is_number,
    export_config,
    parse_config,
    read_document,
)
from .meter import _moments, _place_grids, pointer_distribution, weak_limit_report
from .paths import ForbiddenTransitionError, _branch_amplitudes, group_by_value, grouped_amplitudes
from .sampling import sample_trials
from .scenarios import build_preset

DIGITS = 12  # significant digits in rendered reports


def _fmt(x) -> str:
    return f"{float(x):.{DIGITS}g}"


def _finite(x: float) -> float | None:
    """x, or None (JSON null) where it is not finite."""
    return x if np.isfinite(x) else None


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


def _run_exact(config: ScenarioConfig, out: Path) -> dict:
    chain = config.chain
    meters = config.meters
    summary: dict = {"meters": []}
    # one walk of all meters: each meter's A(f), its grid and the weak
    # marginals read its keys, whose column i spans meter i's support
    keys, grouped = grouped_amplitudes(chain, [m.functional for m in meters])
    grids = _place_grids(keys, [m.profile for m in meters], pad=config.run.grid_pad, step=config.run.grid_step)
    for i, meter in enumerate(meters):
        amps = group_by_value(keys[:, i], grouped)
        dist = pointer_distribution(amps, meter.profile, grids[i])
        csv_name = f"distribution_m{i}.csv"
        dist.write_csv(out / csv_name)
        norms, (mean,) = _moments(amps.support[:, None], amps.amplitudes, [meter.profile])
        entry = {
            "index": i,
            "shape": meter.profile.shape,
            "width": meter.profile.width,
            "norm": float(norms[0]),
            "mean_reading": mean,
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
        summary["weak_marginals"] = list(_moments(keys, grouped, [m.profile for m in meters])[1])
    return summary


def _run_sweep(config: ScenarioConfig, out: Path) -> dict:
    report = weak_limit_report(config.chain, config.meters[0].functional, config.run.widths)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["width", "mean", "abs_error"])
        for w, m, e in zip(report.widths, report.means, report.errors):
            writer.writerow([repr(w), repr(m), repr(e)])
    return {
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
    # the walk onto every branch places the grids; sample_trials draws from
    # the same walk, kept on the chain
    keys, _ = _branch_amplitudes(chain, [m.functional for m in meters], chain.branches())
    grids = _place_grids(keys, [m.profile for m in meters], pad=config.run.grid_pad, step=config.run.grid_step)
    trials = sample_trials(chain, meters, config.run.trials, config.run.seed, grids)
    trials.write_csv(out / "trials.csv")
    s = trials.summary()
    return {
        "seed": config.run.seed,
        "trials": s.n_trials,
        "success_count": s.n_success,
        "success_rate": s.success_rate,
        "exact_success_probability": s.exact_success_probability,
        "meters": [
            {
                "index": i,
                "empirical_mean": _finite(m.conditional_mean),
                "standard_error": _finite(m.standard_error),
                "exact_mean": _finite(m.exact_mean),
                "z_score": _finite(m.z_score),
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
    runner = {
        "exact": _run_exact,
        "sweep": _run_sweep,
        "sample": _run_sample,
        "classical": _run_classical,
    }[config.run.mode]
    dim = config.chain.dim if config.chain is not None else None
    with _staged(out_dir) as staging:
        summary = {"name": config.name, "mode": config.run.mode, "dim": dim, **runner(config, staging)}
        with open(staging / "summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, allow_nan=False)
    return summary


@contextlib.contextmanager
def _staged(out_dir):
    """A hidden directory inside out_dir, on the output's own filesystem,
    to write artifacts into; they move up into out_dir only once the block
    has succeeded.  A failed block removes them and every directory it
    created."""
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
        yield staging
        for artifact in staging.iterdir():
            os.replace(artifact, out / artifact.name)
    except BaseException:
        if created is not None:
            shutil.rmtree(created, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)


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


def _is_file_name(x) -> bool:
    """A string that names one entry of a directory: one path component."""
    return isinstance(x, str) and x not in ("", ".", "..") and Path(x).name == x


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_str(x) -> bool:
    return isinstance(x, str)


def _or_null(test):
    return lambda x: x is None or test(x)


def _list_of(test):
    return lambda x: isinstance(x, list) and all(map(test, x))


def _load_summary(path: Path) -> dict:
    """A run summary, refused with a ValueError that names the file and the
    keys when a value that report prints, pairs or names a file by is
    malformed.  A number may be null, as _finite writes a non-finite one,
    or absent; report skips it."""
    with open(path) as fh:
        s = json.load(fh)
    if not isinstance(s, dict):
        raise ValueError(f"{path}: a summary must be a JSON object")
    meters = s.get("meters", [])
    if not isinstance(meters, list) or not all(isinstance(m, dict) for m in meters):
        raise ValueError(f"{path}: meters must be a list of objects")
    mode = s.get("mode")
    number = _or_null(_is_number)
    # (key, value, test, what the test asks for)
    fields = [
        ("mode", s.get("mode", ""), _is_str, "a string"),
        ("dim", s.get("dim"), _or_null(_is_int), "an integer"),
        ("weak_marginals", s.get("weak_marginals", []), _list_of(number), "a list of numbers or nulls"),
    ]
    if mode in ("sweep", "exact"):
        # the plot files of these modes are named after the scenario
        fields.append(("name", s.get("name"), _is_file_name, "a file name"))
    else:
        fields.append(("name", s.get("name", ""), _is_str, "a string"))
    fields += [(key, s.get(key), number, "a number or null") for key in _METRIC_ORDER]
    for i, m in enumerate(meters):
        fields.append((f"meters[{i}].index", m.get("index"), _is_int, "an integer"))
        for key in ("mean_reading", "empirical_mean", "standard_error", "z_score"):
            fields.append((f"meters[{i}].{key}", m.get(key), number, "a number or null"))
    if mode == "sweep":
        fields += [(key, s.get(key), _list_of(_is_number), "a list of numbers") for key in ("widths", "means")]
    elif mode == "exact":
        head = meters[0] if meters else {}
        fields.append(("meters[0].distribution_csv", head.get("distribution_csv"), _is_file_name, "a file name"))
    bad: dict[str, list[str]] = {}
    for key, value, test, what in fields:
        if not test(value):
            bad.setdefault(what, []).append(key)
    if bad:
        raise ValueError(f"{path}: " + "; ".join(f"{', '.join(keys)}: expected {what}" for what, keys in bad.items()))
    return s


def _drawn_means(exact: dict) -> list:
    """Each meter's exact mean under the law that a sample of the same
    scenario draws: one meter reads mean_reading, while two or more are
    drawn jointly, and meter i reads weak_marginals[i]."""
    meters = exact.get("meters", [])
    if len(meters) >= 2:
        return exact.get("weak_marginals", [])
    return [m.get("mean_reading") for m in meters]


def report(summary_paths, out_dir=None) -> str:
    """Consolidate run summaries into one table (and plot-ready CSV files)."""
    summaries = [(Path(path), _load_summary(Path(path))) for path in summary_paths]
    dims = {s.get("dim") for _, s in summaries if s.get("dim") is not None}
    if len(dims) > 1:
        raise ValueError(f"refusing to mix summaries of different dimensions: {sorted(dims)}")

    rows: list[tuple[str, str, str]] = []
    for path, s in summaries:
        label = f"{s.get('name', path.stem)}/{s.get('mode', '?')}"
        for metric in _METRIC_ORDER:
            if s.get(metric) is not None:
                rows.append((label, metric, _fmt(s[metric])))
        for i, v in enumerate(s.get("weak_marginals", [])):
            if v is not None:
                rows.append((label, f"weak_marginal_{i}", _fmt(v)))
        for m in s.get("meters", []):
            for metric in ("empirical_mean", "standard_error", "z_score"):
                if m.get(metric) is not None:
                    rows.append((label, f"meter{m['index']}_{metric}", _fmt(m[metric])))

    # pair empirical and exact runs of one scenario: z-score of each sampled
    # conditional mean against the exact mean of the law it was drawn from
    by_name: dict[str, dict[str, dict]] = {}
    for _, s in summaries:
        by_name.setdefault(s.get("name", ""), {})[s.get("mode", "")] = s
    for name, modes in sorted(by_name.items()):
        if "sample" in modes and "exact" in modes:
            for m_s, exact_mean in zip(modes["sample"].get("meters", []), _drawn_means(modes["exact"])):
                mean, se = m_s.get("empirical_mean"), m_s.get("standard_error")
                if mean is not None and exact_mean is not None and se:
                    z = (mean - exact_mean) / se
                    rows.append((f"{name}/sample-vs-exact", f"meter{m_s['index']}_z_score", _fmt(z)))

    width_a = max((len(r[0]) for r in rows), default=6)
    width_b = max((len(r[1]) for r in rows), default=6)
    lines = [f"{'source':<{width_a}}  {'metric':<{width_b}}  value"]
    lines += [f"{a:<{width_a}}  {b:<{width_b}}  {c}" for a, b, c in rows]
    table = "\n".join(lines)

    if out_dir is not None:
        with _staged(out_dir) as out:
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
                        shutil.copyfile(src, out / f"plot_{s['name']}_distribution.csv")
            (out / "report.txt").write_text(table + "\n")
    return table


@functools.cache
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
            print(f"wrote {summary['mode']} artifacts for {summary['name']!r} to {out}", flush=True)
            return 0
        table = report(args.summaries, args.out)
        print(table, flush=True)
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
    except BrokenPipeError:
        # stdout's reader left early (report ... | head): the rest goes nowhere, not fail again at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError) as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
