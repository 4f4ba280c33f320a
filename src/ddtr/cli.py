"""Experiment harness: run solver configurations over seeds and log one CSV
row per iteration. ``summarize`` and ``compare`` read the runs back through
``report``, which only those commands import.

Configs are plain JSON documents.  Per-run CSVs have a fixed, documented
column order with floats serialized to 17 significant digits so they
round-trip exactly; reruns with the same config and seed are bit-identical,
also when seeds execute in parallel worker processes.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from functools import cached_property, partial
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import baselines, problems, tr
from .core import ConfigurationError, SchemaError, make_rng

OUTPUT_ROOT_ENV = "DDTR_OUTPUT_ROOT"
PROBLEMS = ("synthetic", "dro")
SOLVERS = ("tr", *baselines.METHODS)

COLUMNS = dict.fromkeys(baselines.METHODS, [f.name for f in fields(baselines.BaselineRecord)])
COLUMNS["tr"] = [f.name for f in fields(tr.IterationRecord)]


@dataclass(frozen=True)
class RunConfig:
    problem: str
    solver: str
    seeds: list[int]
    output_dir: str = "runs"
    max_iters: int = 300
    log_oracle_diagnostics: bool = True
    problem_params: dict = field(default_factory=dict)
    solver_params: dict = field(default_factory=dict)

    @cached_property
    def dataset(self) -> Union[problems.SyntheticProblem, problems.DROProblem]:
        """What ``build_instance`` wires up: the synthetic problem, or the dro data
        set after its load, subsample and terms. Built once, on first use; pickling
        carries it to pool workers, and ``asdict`` leaves it out. The seeds share
        its arrays, so nothing may write into them."""
        params = {key: value for key, value in self.problem_params.items()
                  if key not in _START_KEYS and key != "diag_samples"}
        if self.problem == "synthetic":
            return problems.SyntheticProblem(**params)
        terms = {key: params.pop(key) for key in _DRO_TERMS.keys() & set(params)}
        csv_path = params.pop("csv_path", None)
        n_rows = params.pop("n_rows", 200)
        n_features = params.pop("n_features", 5)
        data_seed = params.pop("data_seed", 0)
        if csv_path is not None:
            from . import ingest  # imported here: a generated data set reads no file

            # What is left are the loader's own keywords. An explicit n_rows always
            # goes to subsample, which rejects one above the file's rows.
            dro = ingest.load_credit_csv(csv_path, **params)
            if n_rows < dro.n_rows or "n_rows" in self.problem_params:
                dro = ingest.subsample(dro, n_rows, data_seed)
        else:
            dro = problems.generate_synthetic_credit(n_rows, n_features, data_seed)
        # The terms go on after the subsample, which recomputes the default
        # lambda2 for the new N: an explicit lambda2 is kept.
        return replace(dro, **terms)


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
    "n_features": int, "data_seed": int,
    "diag_samples": int,  # accepted and ignored: the dro diagnostic is exact
}
_TOP_TYPES = _types(RunConfig)
TOP_KEYS = _TOP_TYPES.keys()
PROBLEM_KEYS = {
    "synthetic": _types(problems.SyntheticProblem) | _START_KEYS,
    "dro": _DRO_TERMS | _DRO_SOURCE_KEYS | _START_KEYS,
}
_BASELINE_TYPES = _types(baselines.BaselineConfig)
SOLVER_KEYS = {
    method: {key: _BASELINE_TYPES[key] for key in keys}
    for method, keys in baselines.METHOD_KEYS.items()
}
SOLVER_KEYS["tr"] = dict(_types(tr.TRConfig, "seed", "max_iters"), llr_count=int, value_count=int)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a type: an int fits a float, a bool only a
    bool, a NaN or an infinity nothing, and an object a dataclass whose
    fields its values fit. The one such dataclass is a SampleSchedule, which
    ``*_count`` spells for a fixed count as ``minimum = maximum``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return any(_fits(value, arm) for arm in args)
    if origin is list:
        return isinstance(value, list) and all(_fits(v, *args) for v in value)
    if is_dataclass(hint):
        types = _types(hint)
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
    if not isinstance(doc, dict):
        raise ConfigurationError(f"invalid config: a config is a JSON object, got {doc!r}")
    errors = [f"unknown key {key!r}" for key in sorted(set(doc) - TOP_KEYS)]
    problem, solver, seeds = doc.get("problem"), doc.get("solver"), doc.get("seeds")
    if problem not in PROBLEMS:
        errors.append(f"'problem' must be one of {PROBLEMS}, got {problem!r}")
    if solver not in SOLVERS:
        errors.append(f"'solver' must be one of {SOLVERS}, got {solver!r}")
    if not (_fits(seeds, _TOP_TYPES["seeds"]) and seeds and min(seeds) >= 0):
        errors.append(f"'seeds' must be a nonempty list of integers >= 0, got {seeds!r}")
    elif len(set(seeds)) < len(seeds):  # a repeat would run twice into one CSV
        errors.append(f"'seeds' must be distinct, got {seeds!r}")
    if doc.get("output_dir") == "":  # Path("") is the current directory
        errors.append("'output_dir' must be a nonempty path, got ''")
    for key in sorted(doc.keys() & TOP_KEYS - {"problem", "solver", "seeds"}):
        if not _fits(doc[key], _TOP_TYPES[key]):
            errors.append(f"{key!r} must be {_TOP_TYPES[key].__name__}, got {doc[key]!r}")
    for section, owner, allowed in (
        ("problem_params", problem, PROBLEM_KEYS.get(problem)),
        ("solver_params", solver, SOLVER_KEYS.get(solver)),
    ):
        params = doc.get(section, {})
        if allowed is None or not isinstance(params, dict):
            continue  # reported above
        for key, value in sorted(params.items()):
            hint = allowed.get(key)
            if hint is None:
                errors.append(f"unknown {section} key {key!r} for {owner!r}")
            elif key in ("label_column", "feature_columns") and "csv_path" not in params:
                errors.append(f"{section} key {key!r} needs a 'csv_path'")
            elif key == "n_features" and "csv_path" in params:
                errors.append(f"{section} key {key!r} is not read with a 'csv_path'")
            elif not _fits(value, hint):
                name = hint.__name__ if isinstance(hint, type) else str(hint)
                errors.append(f"{section} key {key!r} must be {name}, got {value!r}")
    if errors:
        raise ConfigurationError("invalid config: " + "; ".join(errors))
    config = RunConfig(**copy.deepcopy(doc))  # not aliasing the caller's lists and dicts
    try:
        # Building what the config describes checks every value, so a config that does
        # not build fails here, before any seed runs; the run reuses its data set.
        built = (build_tr_config if solver == "tr" else build_baseline_config)(config, seeds[0])
        n = build_instance(config).problem.n
        # The fit needs n + 1 points, and an iteration asks for min(n + 5, maximum) or more.
        if solver == "tr" and (n_llr := built.llr_schedule.maximum) < n + 1:
            raise ConfigurationError(
                f"'llr_count' or the 'llr_schedule' maximum must be >= n + 1 = {n + 1}, got {n_llr}"
            )
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
    params = config.problem_params
    start = {key: params[key] for key in _START_KEYS.keys() & set(params)}
    if "x0_center" in start:
        start["x0_center"] = np.atleast_1d(np.asarray(start["x0_center"], dtype=float))
    if config.problem == "synthetic":
        instance = problems.synthetic_instance(config.dataset)
    else:
        instance = problems.dro_instance(config.dataset)
    return replace(instance, **start)


def build_tr_config(config: RunConfig, seed: int) -> tr.TRConfig:
    params = dict(config.solver_params)
    for name in ("llr", "value"):
        count, schedule = f"{name}_count", f"{name}_schedule"
        if count in params:  # a fixed count is a schedule whose bounds meet
            if schedule in params:
                raise ConfigurationError(f"give {count!r} or {schedule!r}, not both")
            params[schedule] = dict.fromkeys(("minimum", "maximum"), params.pop(count))
        if schedule in params:
            params[schedule] = tr.SampleSchedule(**params[schedule])
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


def run_one(config: RunConfig, seed: int, out_dir: str) -> dict:
    """Execute a single seeded run and write its CSV; returns a summary entry.
    A solver that raises leaves the rows it recorded (a header alone if none)
    in place of any earlier run's CSV, and the error goes on to the caller."""
    instance = build_instance(config)
    diagnostics = instance.diagnostics if config.log_oracle_diagnostics else None
    start_rng = make_rng(seed)
    x0, y0 = instance.draw_start(start_rng)
    csv_path = Path(out_dir) / f"{config.problem}_{config.solver}_seed{seed}.csv"
    t0 = time.perf_counter()
    entry = {"seed": seed, "csv": csv_path.name, "x0": [float(v) for v in x0]}
    history = []
    try:
        if config.solver == "tr":
            state, _ = tr.solve(
                x0, instance.problem, instance.oracle, build_tr_config(config, seed), diagnostics,
                history.append,
            )
        else:
            state, _ = baselines.run_baseline(
                x0, y0, instance.problem, instance.oracle,
                build_baseline_config(config, seed), diagnostics, history.append,
            )
    except Exception:  # a KeyboardInterrupt or other BaseException writes nothing
        _write_csv(csv_path, COLUMNS[config.solver], history)
        raise
    _write_csv(csv_path, COLUMNS[config.solver], history)
    entry.update(
        final_x=[float(v) for v in state.x],
        iterations=len(history),
        termination=state.termination,
    )
    if instance.diagnostics is not None:
        if state.termination != "diverged":
            # A seed sequence of its own: every solver generator is spawned from
            # make_rng(seed), so none of their draws repeat here.
            diag_rng = make_rng([seed, 1])
            phi, grad_norm = instance.diagnostics.evaluate(state.x, diag_rng)
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
    config.dataset  # built once here: each seed and pool worker gets it with the config
    out_dir = _resolve_output_dir(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    job = partial(_run_seed, config, str(out_dir))
    workers = min(workers, len(config.seeds))  # a pool starts every worker at once
    if workers > 1:
        # Imported here: the process pool loads multiprocessing, socket and
        # more, which a serial run never uses.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = list(pool.map(job, config.seeds))
    else:
        entries = list(map(job, config.seeds))
    summary = {"config": asdict(config), "runs": entries}
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    failed = [e for e in entries if "error" in e]
    for entry in failed:
        print(f"error: seed {entry['seed']}: {entry['error']}", file=sys.stderr)
    return 1 if failed else 0


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

    p_cmp = sub.add_parser("compare", help="compare the runs of two output directories")
    p_cmp.add_argument("dirs", nargs=2, metavar="DIR", help="two run directories")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config, encoding="utf-8") as fh:
                try:
                    doc = json.load(fh)
                except ValueError as exc:  # not UTF-8, or not JSON
                    raise ConfigurationError(f"{args.config}: {exc}") from None
            overrides = {}
            if args.seed_override is not None:
                try:
                    overrides["seeds"] = [int(s) for s in args.seed_override.split(",")]
                except ValueError:
                    raise ConfigurationError(
                        f"--seed-override must be comma-separated integers, "
                        f"got {args.seed_override!r}"
                    ) from None
            if args.max_iters is not None:
                overrides["max_iters"] = args.max_iters
            if args.output_dir is not None:
                overrides["output_dir"] = args.output_dir
            # A document that is no object takes no override; parse_run_config rejects it.
            config = parse_run_config(doc | overrides if isinstance(doc, dict) else doc)
            return run(config, workers=max(1, args.workers))
        from . import report  # imported here: a run neither summarizes nor compares

        if args.command == "summarize":
            report.summarize(args.dirs, metric=args.metric, output=args.output)
            return 0
        return 0 if report.compare(*args.dirs) else 1
    except (ConfigurationError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
