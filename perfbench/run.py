"""Solver benchmark: end-to-end time and oracle draws, per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth-tr --seed 1 --seconds 30 --trace 0

One operation is one seeded solver run through ``ddtr.cli.run_one``,
executed serially in this process with its CSV written to a scratch
directory.  ``--seconds`` sets the number of operations (see
``workloads.Workload.ops``).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs each of the first half of those operations untraced and
traced, back to back, and reports the per-layer metrics.  The last line of
standard output is one JSON object; the lines before it are a readable
report, and the full record (per-operation CSV digests, provenance, layer
self times) is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import glob
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from tracing import EVALUATORS, OpProbe, TargetReached, Tracer, patched
from workloads import DEV_SEEDS, HELD_OUT_SEEDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 5
# Share of the operations dropped at each end before the times are averaged.
TRIM_SHARE = 0.1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_TIMEOUT_S = 60


@dataclass
class OpResult:
    seed: int
    solver: str
    wall_s: float
    tts_s: float
    draws_to_tol: int
    oracle_draws: int
    tts_samples: tuple[float, ...] = ()  # each timing of the way to the target
    target_only: bool = False  # run only until the target was met
    digest: Optional[str] = None
    failure: Optional[str] = None  # why the operation failed, if it did
    defect: Optional[str] = None  # output that contradicts itself
    iters: int = 0
    accepted: int = 0
    reject_descent: int = 0
    reject_ratio: int = 0
    reject_degenerate: int = 0
    tail_iters: int = 0
    post_target_iters: int = 0


def load_ddtr():
    """Import ddtr from this checkout's ``src``, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "ddtr" / "__init__.py").is_file():
        raise ImportError(f"no ddtr sources under {src}")
    sys.path.insert(0, str(src))
    import ddtr
    import ddtr.baselines
    import ddtr.cli
    import ddtr.llr
    import ddtr.tr

    if Path(ddtr.__file__).resolve().parent != (src / "ddtr").resolve():
        raise ImportError(f"ddtr was imported from {ddtr.__file__}, not from {src}")
    return ddtr


def _finite_vector(text: str) -> bool:
    return all(math.isfinite(float(v)) for v in text.split(";"))


def check_op(result: OpResult, entry: dict, csv_bytes: bytes, workload, probe: OpProbe) -> None:
    """Fill in digest, outcome counts, failure and output defects of one operation."""
    result.digest = hashlib.sha256(csv_bytes).hexdigest()
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    if len(rows) != entry["iterations"]:
        result.defect = f"{len(rows)} CSV rows for {entry['iterations']} iterations"
        return
    if rows and [float(v) for v in rows[-1]["x_after"].split(";")] != entry["final_x"]:
        result.defect = "last CSV x_after differs from the reported final x"
        return
    columns = ("x_before", "x_after") if result.solver == "tr" else ("x_after",)
    if not all(_finite_vector(row[c]) for row in rows for c in columns):
        result.failure = "non-finite iterate"
    elif not all(math.isfinite(v) for v in entry["final_x"]):
        result.failure = "non-finite final iterate"
    result.iters = len(rows)
    if result.solver != "tr":
        return
    last_accepted = -1
    for row in rows:
        if row["accepted"] == "1":
            result.accepted += 1
            last_accepted = int(row["k"])
        elif row["descent_ok"] == "0" and row["descent_lhs"] == "nan":
            result.reject_degenerate += 1
        elif row["descent_ok"] == "0":
            result.reject_descent += 1
        else:
            result.reject_ratio += 1
    result.tail_iters = len(rows) - 1 - last_accepted
    if probe.hit is not None:
        result.post_target_iters = max(0, len(rows) - probe.hit[2])
    if workload.gated and result.failure is None:
        first = (float(rows[0]["oracle_phi"]), float(rows[0]["oracle_grad_norm"]))
        final = (entry["final_oracle_phi"], entry["final_oracle_grad_norm"])
        if not workload.target(entry["final_x"], *final, first):
            result.failure = "final iterate outside the accuracy target"


def run_pass(
    ddtr, workload, ops, scratch: Path, tracer: Optional[Tracer],
    tts_timings: int = 1, target_ops=(),
) -> tuple[list[OpResult], float]:
    """Run the operations serially; returns their results and the pass wall time.

    With ``tts_timings`` > 1, each operation that meets its target is run
    ``tts_timings - 1`` times more, each time stopped once the target is met,
    and its ``tts_s`` is the least of its timings: a repeat is the same seeded
    work, so the minimum drops the pauses the machine adds to a window of a
    few tens of milliseconds.  ``target_ops`` are further operations that are
    only run until their target is met, ``tts_timings`` times each; they add
    samples of ``tts_s`` and ``draws_to_tol`` and nothing else.
    """
    cli = ddtr.cli
    build_instance = cli.build_instance
    current: dict = {}

    def instrumented_build(config):
        instance = current["probe"].instrument(build_instance(config))
        return tracer.instrument(instance) if tracer is not None else instance

    def to_target(config, seed: int, times: int):
        """Up to ``times`` runs of one operation, each stopped at its target;
        returns ``(probe, wall)`` of each and the error of a run that raised."""
        runs = []
        for _ in range(times):
            probe = current["probe"] = OpProbe(workload.target, stop=True)
            t0 = time.perf_counter()
            try:
                cli.run_one(config, seed, str(scratch))
            except TargetReached:
                pass
            except Exception as exc:  # an operation that raises is counted as failed
                return runs + [(probe, time.perf_counter() - t0)], f"{type(exc).__name__}: {exc}"
            runs.append((probe, time.perf_counter() - t0))
            if probe.hit is None:  # ran to the end without meeting the target
                break
        return runs, None

    def take_fastest(result: OpResult, hits) -> None:
        if any(hit is None or hit[1:] != hits[0][1:] for hit in hits):
            result.defect = "timings of one seeded run met the target at different iterations"
            return
        result.tts_samples = tuple(hit[0] for hit in hits)
        result.tts_s = min(result.tts_samples)

    def full_run(config, seed: int) -> OpResult:
        probe = current["probe"] = OpProbe(workload.target)
        entry, error = None, None
        t0 = time.perf_counter()
        try:
            entry = cli.run_one(config, seed, str(scratch))
        except Exception as exc:  # an operation that raises is counted as failed
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        tts, draws_to_tol = probe.to_target(wall)
        result = OpResult(seed, config.solver, wall, tts, draws_to_tol, probe.rows)
        if error is not None:
            result.failure = error
        else:
            csv_path = scratch / entry["csv"]
            check_op(result, entry, csv_path.read_bytes(), workload, probe)
            csv_path.unlink()
        if error is None and probe.hit is not None and tts_timings > 1:
            runs, error = to_target(config, seed, tts_timings - 1)
            if error is not None:
                result.defect = f"a run stopped at the target raised {error}"
            else:
                take_fastest(result, [probe.hit] + [p.hit for p, _ in runs])
        return result

    def target_only_run(config, seed: int) -> OpResult:
        runs, error = to_target(config, seed, tts_timings)
        probe, wall = runs[0]
        tts, draws_to_tol = probe.to_target(wall)
        result = OpResult(seed, config.solver, wall, tts, draws_to_tol, probe.rows,
                          target_only=True)
        if error is not None:
            result.failure = error
        elif probe.hit is None:
            if workload.gated:
                result.failure = "never met the accuracy target"
        else:
            take_fastest(result, [p.hit for p, _ in runs])
        return result

    patches = [(cli, "build_instance", instrumented_build)]
    if tracer is not None:
        patches += tracer.module_patches(ddtr)
    configs = [(cli.parse_run_config(doc), seed) for doc, seed in ops]
    target_configs = [(cli.parse_run_config(doc), seed) for doc, seed in target_ops]
    per = len(target_configs) // len(configs)
    results = []
    start = time.perf_counter()
    with patched(patches):
        for i, (config, seed) in enumerate(configs):
            results.append(full_run(config, seed))
            # Target-only runs follow the operation they belong to, so that each
            # spell of a shared machine's speed weighs on both kinds alike.
            for target_config, target_seed in target_configs[i * per : (i + 1) * per]:
                results.append(target_only_run(target_config, target_seed))
    return results, time.perf_counter() - start


def measure_setup(workload, seed: int) -> list[float]:
    """``import ddtr`` + ``build_instance`` + ``draw_start`` in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def blas_threads() -> Optional[int]:
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def provenance(args, ops, target_ops) -> dict:
    import numpy
    import scipy

    return {
        "benchmark_seed": args.seed,
        "workload_seeds": [seed for _, seed in ops],
        "target_only_seeds": [seed for _, seed in target_ops],
        "dev_seeds": list(DEV_SEEDS),
        "held_out_seeds": list(HELD_OUT_SEEDS),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def trimmed_mean(values, share: float = TRIM_SHARE) -> float:
    """Mean of the values left after dropping ``share`` of them at each end."""
    values = sorted(values)
    cut = int(len(values) * share)
    return statistics.fmean(values[cut : len(values) - cut])


def end_to_end_metrics(results, setup, peak_rss_mb) -> dict:
    """Trimmed means over operations for the times and draws to target: the
    trim drops the few runs that never meet their target (censored), and
    unlike a median the mean moves smoothly when the share of operations run
    in a slow spell of the machine, or met the target at one iteration more,
    changes.  The plain mean for ``oracle_draws``, which is total draws per
    operation.  Operations run only until their target count towards
    ``tts_s`` and ``draws_to_tol`` alone."""
    full = [r for r in results if not r.target_only]
    return {
        "wall_s": (trimmed_mean(r.wall_s for r in full), "s"),
        "tts_s": (trimmed_mean(r.tts_s for r in results), "s"),
        "draws_to_tol": (trimmed_mean(r.draws_to_tol for r in results), "count"),
        "oracle_draws": (statistics.fmean(r.oracle_draws for r in full), "count"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer: Tracer, results, untraced, cpu_s: float) -> dict:
    extra = tracer.extra
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    def span(name, rows=False, self_s=False):
        calls, seconds, own, nrows = tracer.stat(name)
        put(f"{name}.calls", calls, "count")
        put(f"{name}.s", seconds, "s")
        if rows:
            put(f"{name}.rows", nrows, "count")
        if self_s:
            put(f"{name}.self_s", own, "s")

    span("core.sample", rows=True)
    span("llr.poised", self_s=True)
    put("llr.poised.redraw_rows", extra["redraw_rows"], "count")
    span("llr.fit")
    span("inner.solve")
    put("inner.solve.iters", extra["inner_iters"], "count")
    put("inner.solve.failed", extra["inner_failed"], "count")
    for g in EVALUATORS:
        span(f"problems.{g}", rows=True)
    span("problems.diag")
    diag_calls = tracer.stat("problems.diag")[0]
    put("problems.diag.draws", extra["diag_draws"], "count")
    repeat_frac = extra["diag_repeats"] / diag_calls if diag_calls else 0.0
    put("problems.diag.repeat_x_frac", repeat_frac, "ratio")
    iters = sum(r.iters for r in results if r.solver == "tr")
    accepted = sum(r.accepted for r in results)
    put("tr.iters", iters, "count")
    put("tr.accepted", accepted, "count")
    put("tr.reject.descent", sum(r.reject_descent for r in results), "count")
    put("tr.reject.ratio", sum(r.reject_ratio for r in results), "count")
    put("tr.reject.degenerate", sum(r.reject_degenerate for r in results), "count")
    put("tr.accept_frac", accepted / iters if iters else 0.0, "ratio")
    put("tr.tail_iters", sum(r.tail_iters for r in results), "count")
    put("tr.post_target_iters", sum(r.post_target_iters for r in results), "count")
    put("tr.iterate.self_s", tracer.stat("tr.iterate")[2], "s")
    put("tr.surrogate.s", tracer.stat("tr.surrogate")[1], "s")
    span("tr.estimate_value")
    span("baselines.step", self_s=True)
    put("cli.self_s", tracer.stat("cli.run_one")[2], "s")
    put("run.cpu_s", cpu_s, "s")
    traced_wall = sum(r.wall_s for r in results)
    put("trace.overhead_frac", traced_wall / sum(r.wall_s for r in untraced) - 1.0, "ratio")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # One BLAS thread, set before numpy loads and inherited by the set-up
    # probes: with two threads on a 2-core machine dro-tr ran 22% slower and
    # its wall time spread twice as much; the CSVs are identical either way.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    try:
        ddtr = load_ddtr()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed, args.seconds)
    target_ops = workload.target_ops(args.seed, args.seconds)
    if args.trace:
        ops, target_ops = ops[: math.ceil(len(ops) / 2)], []
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    report = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args, ops, target_ops)}
    defects = []

    setup = [] if args.trace else measure_setup(workload, ops[0][1])
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        scratch = Path(scratch)
        if args.trace:
            tracer = Tracer()
            untraced, measured, traced_wall, cpu_s = [], [], 0.0, 0.0
            # Each operation runs untraced and traced back to back, in
            # alternating order, so drift in machine speed and the cold first
            # run fall on both sides alike.
            for i, op in enumerate(ops):
                for side in (None, tracer) if i % 2 == 0 else (tracer, None):
                    cpu0 = time.process_time()
                    results, wall = run_pass(ddtr, workload, [op], scratch, side)
                    if side is None:
                        untraced += results
                        cpu_s += time.process_time() - cpu0
                    else:
                        measured += results
                        traced_wall += wall
            if [r.digest for r in measured] != [r.digest for r in untraced]:
                defects.append("traced CSV digests differ from the untraced ones")
            layers = tracer.self_seconds_by_layer()
            layers["driver"] = traced_wall - tracer.top_seconds
            if abs(sum(layers.values()) - traced_wall) > 1e-6 * traced_wall:
                defects.append("layer self times do not add up to the traced wall time")
            report["self_s_by_layer"] = layers
            report["traced_wall_s"] = traced_wall
            metrics = layer_metrics(tracer, measured, untraced, cpu_s)
            with gzip.open(out_dir / f"{run_id}.spans.json.gz", "wt", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "parent", "start", "end"],
                           "spans": tracer.spans}, fh)
        else:
            measured, _ = run_pass(
                ddtr, workload, ops, scratch, None,
                workload.tts_timings, target_ops,
            )
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = end_to_end_metrics(measured, setup, peak_rss_mb)
            report["setup_s_samples"] = setup
            for name, (value, _) in metrics.items():
                if not (math.isfinite(value) and value > 0):
                    defects.append(f"{name} is {value}")

    defects += [f"seed {r.seed} {r.solver}: {r.defect}" for r in measured if r.defect]
    failed = [r for r in measured if r.failure]
    report["ops"] = [asdict(r) for r in measured]
    report["defects"] = defects
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (out_dir / f"{run_id}.json").write_text(json.dumps(report, indent=1))

    print(f"workload {workload.name}  benchmark seed {args.seed}  trace {args.trace}")
    target_only = sum(r.target_only for r in measured)
    print(f"operations failed/attempted: {len(failed)}/{len(measured)}"
          f" ({target_only} of them run only until the target was met)")
    for r in failed:
        print(f"  failed: seed {r.seed} {r.solver}: {r.failure}")
    for defect in defects:
        print(f"  defect: {defect}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    walls = sorted(r.wall_s for r in measured if not r.target_only)
    print(f"per-operation wall time (s): median {statistics.median(walls):.4f}, "
          f"mean {statistics.fmean(walls):.4f}, max {walls[-1]:.4f} over {len(walls)} operations")
    if args.trace:
        print("self time by layer (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in report["self_s_by_layer"].items())
            + f"; traced wall {report['traced_wall_s']:.3f}")
    for r in measured:
        if not r.target_only:
            print(f"  digest seed {r.seed} {r.solver}: {r.digest}")
    print("provenance " + json.dumps(report["provenance"]))
    print(json.dumps({
        "correct": not defects,
        "attempted": len(measured),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
