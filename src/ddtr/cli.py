"""Experiment harness: run solver configurations over seeds, log one CSV row
per iteration, and aggregate per-iteration quartiles across runs.

Configs are plain JSON documents.  Per-run CSVs have a fixed, documented
column order with floats serialized to 17 significant digits so they
round-trip exactly; reruns with the same config and seed are bit-identical,
also when seeds execute in parallel worker processes.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, problems, tr
from .core import ConfigurationError, make_rng

OUTPUT_ROOT_ENV = "DDTR_OUTPUT_ROOT"
PROBLEMS = ("synthetic", "dro")
SOLVERS = ("tr", *baselines.METHODS)

TR_COLUMNS = [f.name for f in fields(tr.IterationRecord)]
BASELINE_COLUMNS = [f.name for f in fields(baselines.BaselineRecord)]


@dataclass(frozen=True)
class RunConfig:
    problem: str
    solver: str
    seeds: list[int]
    output_dir: str
    max_iters: int
    log_oracle_diagnostics: bool
    problem_params: dict
    solver_params: dict


def _types(cls, *excluded) -> dict:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.name not in excluded}


# The accepted keys, each with the type of its value, are the fields of the
# dataclasses the values go to, plus the keys that pick the start ball and,
# for dro, the data set.
_START_KEYS = {"x0_center": Union[float, list[float]], "x0_radius": float}
_DRO_TERMS = _types(problems.DROProblem, "features", "labels")
_DRO_SOURCE_KEYS = {
    "csv_path": str, "label_column": str, "feature_columns": list[str], "n_rows": int,
    "n_features": int, "data_seed": int, "diag_samples": int,
}
TOP_KEYS = _types(RunConfig).keys()
PROBLEM_KEYS = {
    "synthetic": _types(problems.SyntheticProblem) | _START_KEYS,
    "dro": _DRO_TERMS | _DRO_SOURCE_KEYS | _START_KEYS,
}
SOLVER_KEYS = dict.fromkeys(
    baselines.METHODS, _types(baselines.BaselineConfig, "seed", "max_iters", "method")
)
SOLVER_KEYS["tr"] = dict(_types(tr.TRConfig, "seed", "max_iters"), llr_count=int, value_count=int)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a type: an int fits a float, a bool only a
    bool, a NaN or an infinity nothing, and an object a dataclass whose
    fields its values fit. The one such dataclass is a SampleSchedule, whose
    ``fixed`` is ``*_count``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(value, arm) for arm in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, *args) for v in value)
    if is_dataclass(hint):
        types = _types(hint, "fixed")
        return isinstance(value, dict) and all(
            key in types and _fits(v, types[key]) for key, v in value.items()
        )
    if isinstance(value, bool):
        return hint is bool
    if isinstance(value, float) and not math.isfinite(value):  # json.load reads NaN, Infinity
        return False
    return isinstance(value, (int, float) if hint is float else hint)


def parse_run_config(doc: dict) -> RunConfig:
    """Validate a config document, reporting every offending key and value at once."""
    errors = [f"unknown key {key!r}" for key in sorted(set(doc) - TOP_KEYS)]
    problem = doc.get("problem")
    if problem not in PROBLEMS:
        errors.append(f"'problem' must be one of {PROBLEMS}, got {problem!r}")
    solver = doc.get("solver")
    if solver not in SOLVERS:
        errors.append(f"'solver' must be one of {SOLVERS}, got {solver!r}")
    seeds = doc.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        errors.append("'seeds' must be a nonempty list of integers")
    max_iters = doc.get("max_iters", 300)
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 0:
        errors.append(f"'max_iters' must be a nonnegative integer, got {max_iters!r}")
    log_diagnostics = doc.get("log_oracle_diagnostics", True)
    if not isinstance(log_diagnostics, bool):
        errors.append(f"'log_oracle_diagnostics' must be true or false, got {log_diagnostics!r}")
    for section, allowed in (
        ("problem_params", PROBLEM_KEYS.get(problem)), ("solver_params", SOLVER_KEYS.get(solver))
    ):
        params = doc.get(section, {})
        if not isinstance(params, dict):
            errors.append(f"{section!r} must be an object, got {params!r}")
        elif allowed is not None:
            for key, value in sorted(params.items()):
                hint = allowed.get(key)
                if hint is None:
                    errors.append(f"unknown {section} key {key!r}")
                elif key in ("label_column", "feature_columns") and "csv_path" not in params:
                    errors.append(f"{section} key {key!r} needs a 'csv_path'")
                elif not _fits(value, hint):
                    name = hint.__name__ if isinstance(hint, type) else str(hint)
                    errors.append(f"{section} key {key!r} must be {name}, got {value!r}")
    if errors:
        raise ConfigurationError("invalid config: " + "; ".join(errors))
    config = RunConfig(
        problem=problem,
        solver=solver,
        seeds=list(seeds),
        output_dir=str(doc.get("output_dir", "runs")),
        max_iters=max_iters,
        log_oracle_diagnostics=log_diagnostics,
        problem_params=dict(doc.get("problem_params", {})),
        solver_params=dict(doc.get("solver_params", {})),
    )
    try:
        # Building what the config describes runs the checks of every value,
        # so a config that does not build fails here, before any seed runs.
        (build_tr_config if solver == "tr" else build_baseline_config)(config, seeds[0])
        build_instance(config)
    except ValueError as exc:
        raise ConfigurationError(f"invalid config: {exc}") from None
    return config


def _resolve_output_dir(output_dir: str) -> Path:
    path = Path(output_dir)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def build_instance(config: RunConfig) -> problems.Instance:
    params = dict(config.problem_params)
    start = {key: params.pop(key) for key in _START_KEYS.keys() & set(params)}
    if "x0_center" in start:
        start["x0_center"] = np.atleast_1d(np.asarray(start["x0_center"], dtype=float))
    if config.problem == "synthetic":
        instance = problems.synthetic_instance(problems.SyntheticProblem(**params))
    else:
        terms = {key: params.pop(key) for key in _DRO_TERMS.keys() & set(params)}
        diag_samples = params.pop("diag_samples", 5000)
        csv_path = params.pop("csv_path", None)
        n_rows = params.pop("n_rows", 200)
        n_features = params.pop("n_features", 5)
        data_seed = params.pop("data_seed", 0)
        if csv_path is not None:
            # What is left are the loader's own keywords. An explicit n_rows always
            # goes to subsample, which rejects one above the file's rows.
            dro = problems.load_credit_csv(csv_path, **params)
            if n_rows < dro.n_rows or "n_rows" in config.problem_params:
                dro = problems.subsample(dro, n_rows, data_seed)
        else:
            dro = problems.generate_synthetic_credit(n_rows, n_features, data_seed)
        # The terms go on after the subsample, which recomputes the default
        # lambda2 for the new N: an explicit lambda2 is kept.
        instance = problems.dro_instance(replace(dro, **terms), diag_samples=diag_samples)
    return replace(instance, **start)


def build_tr_config(config: RunConfig, seed: int) -> tr.TRConfig:
    params = dict(config.solver_params)
    for name in ("llr", "value"):
        count, schedule = f"{name}_count", f"{name}_schedule"
        if count in params:
            params[schedule] = tr.SampleSchedule(fixed=int(params.pop(count)))
        elif schedule in params:
            params[schedule] = tr.SampleSchedule(fixed=None, **params[schedule])
    return tr.TRConfig(max_iters=config.max_iters, seed=seed, **params)


def build_baseline_config(config: RunConfig, seed: int) -> baselines.BaselineConfig:
    return baselines.BaselineConfig(
        method=config.solver, max_iters=config.max_iters, seed=seed, **config.solver_params
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, np.ndarray):
        return ";".join(f"{float(v):.17g}" for v in value)
    return str(value)


def _write_csv(path: Path, columns: list[str], records) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, col)) for col in columns])


@cache
def _pin_malloc_thresholds() -> None:
    """Pin glibc's malloc thresholds, once per process. Left dynamic, they follow
    the largest block freed so far, and the arrays of a few MB that each iteration
    frees are then often given back to the OS and faulted in again. Where libc
    has no ``mallopt``, this does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 16 << 20)  # M_MMAP_THRESHOLD, from glibc's malloc.h
    mallopt(-1, 32 << 20)  # M_TRIM_THRESHOLD


def run_one(config: RunConfig, seed: int, out_dir: str) -> dict:
    """Execute a single seeded run and write its CSV; returns a summary entry."""
    _pin_malloc_thresholds()
    instance = build_instance(config)
    diagnostics = instance.diagnostics if config.log_oracle_diagnostics else None
    start_rng = make_rng(seed)
    x0, y0 = instance.draw_start(start_rng)
    csv_path = Path(out_dir) / f"{config.problem}_{config.solver}_seed{seed}.csv"
    t0 = time.perf_counter()
    entry = {"seed": seed, "csv": csv_path.name, "x0": [float(v) for v in x0]}
    if config.solver == "tr":
        state, history = tr.solve(
            x0, instance.problem, instance.oracle, build_tr_config(config, seed), diagnostics
        )
        _write_csv(csv_path, TR_COLUMNS, history)
        entry.update(
            final_x=[float(v) for v in state.x],
            final_delta=state.delta,
            iterations=len(history),
            final_grad_norm_surrogate=history[-1].grad_norm_surrogate if history else math.nan,
            diverged=False,
            termination=state.termination,
        )
    else:
        state, history = baselines.run_baseline(
            x0, y0, instance.problem, instance.oracle,
            build_baseline_config(config, seed), diagnostics,
        )
        _write_csv(csv_path, BASELINE_COLUMNS, history)
        entry.update(
            final_x=[float(v) for v in state.x],
            iterations=len(history),
            final_grad_norm_est=history[-1].grad_norm_est if history else math.nan,
            diverged=bool(state.diverged),
            termination="diverged" if state.diverged else "max_iters",
        )
    if instance.diagnostics is not None:
        if not entry["diverged"]:
            # A seed sequence of its own: every solver generator is spawned from
            # make_rng(seed), so none of their draws repeat here.
            diag_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 1])))
            final_x = np.asarray(entry["final_x"])
            phi, grad_norm = instance.diagnostics.evaluate(final_x, diag_rng)
            entry["final_oracle_phi"] = phi
            entry["final_oracle_grad_norm"] = grad_norm
        entry["oracle_samples"] = instance.diagnostics.sample_count  # behind each oracle_* value
    entry["wall_time_s"] = time.perf_counter() - t0
    return entry


def _run_seed(config: RunConfig, out_dir: str, seed: int) -> dict:
    """One seed's summary entry; an error is recorded, so sibling seeds run on."""
    try:
        return run_one(config, seed, out_dir)
    except Exception as exc:
        return {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}


def run(config: RunConfig, workers: int = 1) -> int:
    """Execute one run per seed; returns a process exit status."""
    out_dir = _resolve_output_dir(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    job = partial(_run_seed, config, str(out_dir))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(job, config.seeds))
    else:
        entries = list(map(job, config.seeds))
    summary = {"config": asdict(config), "runs": entries}
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return 1 if any("error" in e for e in entries) else 0


_METRIC_PREFERENCE = ("oracle_grad_norm", "grad_norm_surrogate", "grad_norm_est")


class SchemaError(ValueError):
    pass


def _load_metric_rows(path: Path, metric: Optional[str]) -> tuple[str, dict[int, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty CSV")
        if "k" not in reader.fieldnames:
            raise SchemaError(f"{path}: missing column 'k'")
        if metric is None:
            for candidate in _METRIC_PREFERENCE:
                if candidate in reader.fieldnames:
                    metric = candidate
                    break
            else:
                raise SchemaError(f"{path}: no known metric column in {reader.fieldnames}")
        elif metric not in reader.fieldnames:
            raise SchemaError(f"{path}: missing column {metric!r}")
        def cell(row, column, kind):
            try:
                return kind(row[column])
            except (TypeError, ValueError) as exc:
                raise SchemaError(f"{path}:{reader.line_num}: column {column!r}: {exc}") from None

        rows = {cell(row, "k", int): cell(row, metric, float) for row in reader}
        return metric, rows


def summarize(
    run_dirs: list[str], metric: Optional[str] = None, output: Optional[str] = None
) -> None:
    """Aggregate per-iteration median and quartiles of a metric across the
    run CSVs found in each directory, as CSV to the path ``output`` or to
    stdout. Every run CSV is read first, so a bad one writes nothing."""
    rows = [["dir", "metric", "k", "n_runs", "q25", "median", "q75"]]
    for run_dir in run_dirs:
        directory = Path(run_dir)
        paths = sorted(p for p in directory.glob("*.csv") if p.name != "aggregate.csv")
        if not paths:
            raise SchemaError(f"{directory}: no run CSVs found")
        chosen = metric
        per_run = []
        for path in paths:
            chosen_here, by_k = _load_metric_rows(path, chosen)
            if chosen is None:
                chosen = chosen_here
            per_run.append(by_k)
        all_k = sorted(set().union(*(by_k.keys() for by_k in per_run)))
        for k in all_k:
            values = [by_k[k] for by_k in per_run if k in by_k]
            finite = [v for v in values if math.isfinite(v)]
            if not finite:
                continue
            q25, med, q75 = np.percentile(finite, [25, 50, 75])
            rows.append([str(directory), chosen, k, len(finite), _fmt(q25), _fmt(med), _fmt(q75)])
    if output is None:
        csv.writer(sys.stdout).writerows(rows)
    else:
        with open(output, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ddtr", description="Trust-region minimax experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a JSON run configuration")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--seed-override", help="comma-separated seeds replacing the config's")
    p_run.add_argument("--max-iters", type=int, help="override iteration budget")
    p_run.add_argument("--output-dir", help="override output directory")
    p_run.add_argument("--workers", type=int, default=1, help="parallel seed workers")

    p_sum = sub.add_parser("summarize", help="aggregate per-iteration quartiles")
    p_sum.add_argument("dirs", nargs="+", help="run directories")
    p_sum.add_argument("--metric", help="metric column (default: auto-detect)")
    p_sum.add_argument("--output", help="write the aggregate CSV here instead of stdout")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
            if args.seed_override:
                try:
                    doc["seeds"] = [int(s) for s in args.seed_override.split(",")]
                except ValueError:
                    raise ConfigurationError(
                        f"--seed-override must be comma-separated integers, "
                        f"got {args.seed_override!r}"
                    ) from None
            if args.max_iters is not None:
                doc["max_iters"] = args.max_iters
            if args.output_dir is not None:
                doc["output_dir"] = args.output_dir
            config = parse_run_config(doc)
            return run(config, workers=max(1, args.workers))
        if args.command == "summarize":
            summarize(args.dirs, metric=args.metric, output=args.output)
            return 0
    except (ConfigurationError, SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
