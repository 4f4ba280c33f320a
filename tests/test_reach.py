"""Reach gate: how many seeded runs of the shipped TR configs get close to
stationary, measured by the ground-truth gradient norm they log.

A run reaches a tolerance when any of its rows has ``oracle_grad_norm``
below it (the benchmark's convention). Each case runs ``tr.solve`` as
``cli.run_one`` does, seed by seed, and checks the count of runs that reach
against a floor derived from the count recorded here:
``ceil(c - 2 SE)`` with ``SE = sqrt(n p (1 - p))`` and ``p = (c + 1) / (n + 2)``,
so ``p`` stays inside (0, 1) when ``c`` is 0 or ``n``. A change that loses
more reach than two binomial standard errors fails here; a change that gains
reach raises the recorded counts and says so.

Recorded on x86_64 with numpy 2.4 and one BLAS thread:

* synthetic, ``configs/synthetic_tr.json`` at 300 iterations, seeds 1-40:
  |Phi'| < 0.5 / 0.1 / 0.02 reached by 40 / 25 / 10 runs, floors 39 / 19 / 5;
* DRO, ``configs/dro_tr.json`` at 30 iterations, seeds 1-10: a gradient norm
  below 0.1 times row 0's reached by 10 runs, floor 9;
* noisy DRO, the same with ``noise_sigma`` 0.5, whose exact diagnostic is
  the ground truth: below 0.1 / 0.001 times row 0's reached by 10 / 7 runs,
  floors 9 / 5.

The ablation that freezes the learned map (``llr.fit`` returns ``b1 = 0``)
is gated from above, by ``floor(c + 2 SE)``: on synthetic, seeds 1-20, it
reaches 0 / 0 / 0 runs, ceilings 1 / 1 / 1.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from ddtr import llr
from ddtr.cli import build_instance, build_tr_config, parse_run_config
from ddtr.core import make_rng
from ddtr.tr import solve

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def floor(count: int, runs: int) -> int:
    p = (count + 1) / (runs + 2)
    return math.ceil(count - 2.0 * math.sqrt(runs * p * (1.0 - p)))


def ceiling(count: int, runs: int) -> int:
    p = (count + 1) / (runs + 2)
    return math.floor(count + 2.0 * math.sqrt(runs * p * (1.0 - p)))


def oracle_grad_norms(name: str, max_iters: int, seed: int, **problem_params) -> list[float]:
    doc = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    doc["problem_params"] = {**doc.get("problem_params", {}), **problem_params}
    config = parse_run_config({**doc, "max_iters": max_iters, "seeds": [seed]})
    inst = build_instance(config)
    x0, _ = inst.draw_start(make_rng(seed))
    tr_config = build_tr_config(config, seed)
    _, history = solve(x0, inst.problem, inst.oracle, tr_config, inst.diagnostics)
    return [rec.oracle_grad_norm for rec in history]


def test_floors_as_recorded():
    assert [floor(c, 40) for c in (40, 25, 10)] == [39, 19, 5]
    assert floor(10, 10) == 9 and floor(7, 10) == 5
    assert ceiling(0, 20) == 1


def test_synthetic_reach():
    # Recorded reach per tolerance: 40 / 25 / 10 of 40.
    recorded = {0.5: 40, 0.1: 25, 0.02: 10}
    seeds = range(1, 41)
    lowest = [min(oracle_grad_norms("synthetic_tr.json", 300, s)) for s in seeds]
    reach = {tol: sum(g < tol for g in lowest) for tol in recorded}
    for tol, count in recorded.items():
        assert reach[tol] >= floor(count, len(seeds)), (tol, reach)


def test_frozen_map_synthetic_reach(monkeypatch):
    # What learning the map buys: a surrogate that ignores how the
    # distribution moves with x, as repeated risk minimization does. Recorded
    # reach 0 / 0 / 0 of 20 (median run 119 iterations), where ddtr reaches
    # 20 / 11 / 4 on the same seeds; test_synthetic_reach gates ddtr's own.
    fit = llr.fit

    def frozen(samples):
        model = fit(samples)
        return dataclasses.replace(model, b1=np.zeros_like(model.b1))

    monkeypatch.setattr(llr, "fit", frozen)
    seeds = range(1, 21)
    lowest = [min(oracle_grad_norms("synthetic_tr.json", 300, s)) for s in seeds]
    for tol in (0.5, 0.1, 0.02):
        reach = sum(g < tol for g in lowest)
        assert reach <= ceiling(0, len(seeds)), (tol, reach)


def test_dro_reach():
    # Recorded reach at 0.1 of row 0's gradient norm: 10 of 10.
    seeds = range(1, 11)
    reached = 0
    for seed in seeds:
        norms = oracle_grad_norms("dro_tr.json", 30, seed)
        reached += min(norms) < 0.1 * norms[0]
    assert reached >= floor(10, len(seeds))


def test_noisy_dro_reach():
    # Recorded reach at 0.1 / 0.001 of row 0's gradient norm: 10 / 7 of 10.
    recorded = {1e-1: 10, 1e-3: 7}
    seeds = range(1, 11)
    ratios = []
    for seed in seeds:
        norms = oracle_grad_norms("dro_tr.json", 30, seed, noise_sigma=0.5)
        ratios.append(min(norms) / norms[0])
    for tol, count in recorded.items():
        assert sum(r < tol for r in ratios) >= floor(count, len(seeds)), (tol, ratios)
