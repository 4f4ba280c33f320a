"""The benchmark under ``perfbench/`` runs against this tree.

It patches module attributes (``tr.estimate_value``, ``baselines.spd_step``,
...) and reads instance and record fields by name, so a rename in ``src/``
breaks it without failing any other test. Among them are the two run
entry points, ``tr.solve`` and ``baselines.run_baseline``, which stay thin
callers of ``core.drive``, and the steps it runs, ``tr.iterate``,
``spd_step`` and ``asgda_step``. Each workload's configs run here
through ``run.run_pass`` once untraced and once traced, as a benchmark run
does, and must give the same CSVs with no failure or defect. The traced
pass must also see every layer the workload exercises, and one driver step
call per CSV row: a driver that bypassed a patched name would read 0 there.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_SEED = 1001  # the first operation seed of benchmark seed 1
TR_SPANS = (
    "core.sample", "llr.poised", "llr.fit", "inner.solve", "tr.surrogate", "tr.estimate_value",
    "tr.iterate", "tr.solve", "cli.run_one", "problems.diag",
)
# The spans each workload's runs go through. The DRO binding is fused, so
# the per-draw evaluators of the problems.* spans are not called there.
EXERCISED = {
    "synth-tr": TR_SPANS + ("problems.loss", "problems.grad1", "problems.grad2", "problems.grad3"),
    "dro-tr": TR_SPANS,
    "dro-base": ("core.sample", "problems.diag", "baselines.step", "baselines.run", "cli.run_one"),
}


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, with ``perfbench/`` importable while it is used."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in {"perfbench_run", "tracing", "workloads"} - saved_modules:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["synth-tr", "dro-tr", "dro-base"])
def test_workload_runs_untraced_and_traced(bench, tmp_path, name):
    ddtr = bench.load_ddtr()
    workload = bench.WORKLOADS[name]
    ops = [(doc, RUN_SEED) for doc in workload.docs]
    untraced, _ = bench.run_pass(ddtr, workload, ops, tmp_path, None)
    tracer = bench.Tracer()
    traced, _ = bench.run_pass(ddtr, workload, ops, tmp_path, tracer)
    for result in untraced + traced:
        assert result.failure is None and result.defect is None, result
    assert [r.digest for r in traced] == [r.digest for r in untraced]
    metrics = bench.layer_metrics(tracer, traced, untraced, cpu_s=0.0)
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert [span for span in EXERCISED[name] if tracer.stat(span)[0] == 0] == []
    tr_rows = sum(r.iters for r in traced if r.solver == "tr")
    assert tracer.stat("tr.iterate")[0] == tr_rows
    assert tracer.stat("baselines.step")[0] == sum(r.iters for r in traced) - tr_rows
