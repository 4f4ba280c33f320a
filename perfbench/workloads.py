"""The benchmark's workloads: which solver runs make up one benchmark run.

One operation is one seeded solver run, described by a ``ddtr run`` config
document and a seed.  The documents are copies of the repository configs at
the commit that defined the benchmark, so a later edit to ``configs/`` does
not silently change what is measured.  See README.md for why each workload
exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Claims are confirmed on these benchmark seeds; the seeds 1-10 are the ones
# used while a change is being written.
DEV_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = tuple(range(101, 111))

# Each benchmark seed owns a block of this many operation seeds.
SEED_BLOCK = 1000

SYNTH_TR = {
    "problem": "synthetic",
    "solver": "tr",
    "seeds": [1],
    "max_iters": 300,
    "log_oracle_diagnostics": True,
    "solver_params": {
        "delta0": 1.0,
        "delta_max": 2.0,
        "gamma": 2.0,
        "eta1": 0.25,
        "eta2": 0.1,
        "llr_count": 300,
        "value_count": 100,
    },
}

DRO_PARAMS = {"n_rows": 200, "n_features": 5, "data_seed": 0, "diag_samples": 5000}

# configs/dro_tr.json with 25 iterations in place of 100: the target is met
# by k = 6-16, and a 25-iteration run is short enough that one benchmark run
# holds several operations, which keeps time-to-target steady across seeds.
DRO_TR = {
    "problem": "dro",
    "solver": "tr",
    "seeds": [1],
    "max_iters": 25,
    "log_oracle_diagnostics": True,
    "problem_params": DRO_PARAMS,
    "solver_params": {"llr_count": 300, "value_count": 100},
}

DRO_BASE_METHODS = ("spd-constant", "asgda")


def _dro_base(method: str) -> dict:
    return {
        "problem": "dro",
        "solver": method,
        "seeds": [1],
        "max_iters": 60,
        "log_oracle_diagnostics": True,
        "problem_params": DRO_PARAMS,
        "solver_params": {"batch": 500},
    }


STATIONARY_POINTS = (0.0, 1.0, -1.0)


def synthetic_target(x, phi: float, grad: float, first: tuple[float, float]) -> bool:
    """Acceptance criterion 1: |Phi'(x)| < 0.5 and x within 0.3 of a stationary point."""
    return grad < 0.5 and min(abs(float(x[0]) - p) for p in STATIONARY_POINTS) < 0.3


def dro_target(x, phi: float, grad: float, first: tuple[float, float]) -> bool:
    """Acceptance criterion 4: Phi down at least 20% and the gradient norm under
    half its value at k = 0 (``first`` is the evaluation at x_0)."""
    phi0, grad0 = first
    return phi0 - phi >= 0.2 * abs(phi0) and grad < 0.5 * grad0


@dataclass(frozen=True)
class Workload:
    name: str
    # Nominal wall time of one operation at the defining commit on a 2-core
    # x86_64 machine with one BLAS thread.  ``--seconds`` is turned into an operation count with
    # it, so every commit runs the same operations and every count repeats.
    op_seconds: float
    target: Callable
    # Whether ending outside the target makes an operation fail (TR runs).
    gated: bool
    docs: tuple[dict, ...]
    # For targets met within milliseconds: how often the way to the target is
    # timed in each operation (the least timing counts), and how many further
    # run seeds per operation are run only until the target is met, for more
    # samples of time and draws to target (see ``run.run_pass``).
    tts_timings: int = 1
    target_only: int = 0

    def ops(self, seed: int, seconds: int) -> list[tuple[dict, int]]:
        """The (config document, run seed) pairs of one benchmark run.

        Operation ``i`` cycles through ``docs`` and uses run seed
        ``seed * SEED_BLOCK + i // len(docs) + 1``.
        """
        count = max(1, round(seconds / self.op_seconds))
        per = len(self.docs)
        if count * (1 + self.target_only) > SEED_BLOCK * per:
            raise ValueError(f"{count} operations exceed the seed block")
        return [
            (self.docs[i % per], seed * SEED_BLOCK + i // per + 1) for i in range(count)
        ]

    def target_ops(self, seed: int, seconds: int) -> list[tuple[dict, int]]:
        """The operations run only until their target is met: ``target_only``
        per operation of ``ops``, on the run seeds that follow theirs."""
        ops = self.ops(seed, seconds)
        first = ops[-1][1] + 1
        return [
            (self.docs[i % len(self.docs)], first + i // len(self.docs))
            for i in range(len(ops) * self.target_only)
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # 0.79 s for the run itself, about 0.25 s for a second timing of the
        # way to the target in it and for four target-only runs, timed twice.
        Workload(
            "synth-tr", 1.05, synthetic_target, True, (SYNTH_TR,),
            tts_timings=2, target_only=4,
        ),
        Workload("dro-tr", 3.0, dro_target, True, (DRO_TR,)),
        Workload(
            "dro-base", 7.5, dro_target, False,
            tuple(_dro_base(m) for m in DRO_BASE_METHODS),
        ),
    )
}
