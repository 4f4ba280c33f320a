"""Trust-region driver for minimax problems with decision-dependent sampling.

One iteration: fit a local linear regression of the distribution map inside
the current ball, maximize the surrogate scenario average in y, take the
radius-length step along the negative surrogate x-gradient, require the
surrogate sufficient-descent inequality to hold, estimate the primal value at
the old and trial points with fresh oracle samples, and accept or reject on
the actual-to-predicted reduction ratio together with a gradient-versus-radius
test.  Accepted steps grow the radius (capped), rejected ones shrink it.
``solve`` runs the iterations on ``core.drive``, the run loop it shares with
the baselines: a run ends after ``max_iters`` iterations, or earlier once the
radius falls below the relative floor ``delta_min * max(1, ||x||)`` or
underflows to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import llr
from .core import (
    ConfigurationError,
    DistributionOracle,
    Evaluation,
    OracleDiagnostics,
    ProblemSpec,
    as_vector,
    drive,
    norm,
)
from .inner import maximize_over_scenarios

INNER_EPS_FLOOR = 1e-12  # least inner-solve tolerance
GRAD_FLOOR = 1e-12  # least surrogate gradient norm that gives a trial step
PRED_FLOOR = 1e-14  # least predicted reduction that gives a ratio test


@dataclass(frozen=True)
class SampleSchedule:
    """Per-iteration sample count ``ceil(coeff * max(delta**-power, 1))``
    clamped to [minimum, maximum], growing as the radius shrinks.

    A fixed count N, the regime of the reported experiments, is
    ``minimum = maximum = N``.
    """

    coeff: float = 1.0
    power: float = 4.0
    minimum: int = 10
    maximum: int = 5000

    def __post_init__(self):
        if not (1 <= self.minimum <= self.maximum):
            raise ConfigurationError("sample count needs 1 <= minimum <= maximum")
        if math.isnan(self.coeff) or math.isnan(self.power):
            raise ConfigurationError("coeff and power must not be NaN")

    def count(self, delta: float) -> int:
        try:
            raw = math.ceil(self.coeff * max(float(delta) ** -self.power, 1.0))
        except (OverflowError, ZeroDivisionError):  # past the float range, or delta = 0
            return self.maximum
        return int(min(max(raw, self.minimum), self.maximum))


@dataclass(frozen=True)
class TRConfig:
    delta0: float = 1.0
    delta_max: float = 2.0
    gamma: float = 2.0
    eta1: float = 0.25
    eta2: float = 0.1
    kappa_dcp: float = 1e-3
    llr_schedule: SampleSchedule = SampleSchedule(minimum=300, maximum=300)
    value_schedule: SampleSchedule = SampleSchedule(minimum=100, maximum=100)
    inner_eps_coeff: float = 0.1
    lambda_max: float = 100.0
    max_iters: int = 300
    seed: int = 0
    # Relative radius floor: a run stops once delta < delta_min * max(1, ||x||),
    # where steps no longer move x in any printed digit. 0 gives fixed-length runs.
    delta_min: float = math.sqrt(np.finfo(float).eps)

    def __post_init__(self):
        if not (0 < self.delta0 < self.delta_max):
            raise ConfigurationError("need 0 < delta0 < delta_max")
        if not self.gamma > 1:
            raise ConfigurationError("gamma must exceed 1")
        if not (0 < self.eta1 < 1):
            raise ConfigurationError("eta1 must lie in (0, 1)")
        if not self.eta2 > 0:
            raise ConfigurationError("eta2 must be positive")
        if not self.kappa_dcp > 0:
            raise ConfigurationError("kappa_dcp must be positive")
        if not self.inner_eps_coeff > 0:
            raise ConfigurationError("inner_eps_coeff must be positive")
        if not self.lambda_max > 1:
            raise ConfigurationError("lambda_max must exceed 1")
        if not self.max_iters >= 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if not self.delta_min >= 0:
            raise ConfigurationError("delta_min must be nonnegative")

    def inner_eps(self, delta: float) -> float:
        return max(self.inner_eps_coeff * min(delta, delta**2), INNER_EPS_FLOOR)


@dataclass(frozen=True)
class IterationRecord:
    """One iteration; the field order is the CSV column order."""

    k: int
    delta: float
    delta_next: float
    rho: float
    grad_norm_surrogate: float
    v_k: float
    v_k_half: float
    accepted: bool
    descent_lhs: float
    descent_rhs: float
    descent_ok: bool
    n_llr: int
    n_value: int
    b1_frobenius: float
    oracle_phi: float
    oracle_grad_norm: float
    x_before: np.ndarray
    x_after: np.ndarray


@dataclass(frozen=True)
class TRState:
    x: np.ndarray
    delta: float
    k: int
    y_warm: np.ndarray
    # Why ``solve`` stopped: "radius_floor" or "max_iters".
    termination: Optional[str] = None


def surrogate_value_and_xgrad(
    model: llr.LLRModel, evaluation: Evaluation, y: np.ndarray
) -> tuple[float, np.ndarray]:
    """Surrogate value and its x-gradient at (x, y), exact over the scenarios bound at x.

    The gradient carries the chain-rule correction through the fitted map:
    ``mean(grad1) + b1 @ mean(grad3)``.
    """
    return float(evaluation.loss(y)), evaluation.grad1(y) + model.b1 @ evaluation.grad3(y)


def estimate_value(
    problem: ProblemSpec,
    oracle: DistributionOracle,
    x: np.ndarray,
    count: int,
    inner_eps: float,
    y_warm: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Sample-average estimate of the primal value at x: the average loss of
    ``count`` fresh draws at their maximizer in y, found from ``y_warm`` to
    tolerance ``inner_eps``."""
    x = as_vector(x, problem.n, "x")
    draws = oracle.sample(x, count, rng)
    report = maximize_over_scenarios(problem, x, draws, y_warm, inner_eps)
    return float(report.evaluation.loss(report.maximizer))


def acceptance_update(
    rho: float, grad_norm: float, delta: float, config: TRConfig
) -> tuple[bool, float]:
    """The two-condition acceptance rule and the matching radius update."""
    accepted = (rho >= config.eta1) and (grad_norm >= config.eta2 * delta)
    if accepted:
        delta_next = min(config.gamma * delta, config.delta_max)
    else:
        delta_next = delta / config.gamma
    return accepted, delta_next


def iterate(
    state: TRState,
    problem: ProblemSpec,
    oracle: DistributionOracle,
    config: TRConfig,
    rng: np.random.Generator,
    diagnostics: Optional[OracleDiagnostics] = None,
) -> tuple[TRState, IterationRecord]:
    """Run one full trust-region iteration; return the next state and the iteration's record."""
    llr_rng, vk_rng, vh_rng, diag_rng = rng.spawn(4)
    x, delta, k = state.x, state.delta, state.k
    # Ground truth at the iterate. Whatever it draws comes from diag_rng, which
    # no other phase uses, so logging it leaves the run's decisions unchanged.
    oracle_phi = math.nan
    oracle_grad = math.nan
    if diagnostics is not None:
        oracle_phi, oracle_grad = diagnostics.evaluate(x, diag_rng)

    # At least n + 5 points, or all the schedule allows: a fixed count as given.
    n_llr = max(config.llr_schedule.count(delta), min(problem.n + 5, config.llr_schedule.maximum))
    # The model keeps the set's responses and points. It is the scenario set
    # of both surrogate solves, which a fused binding evaluates unbuilt.
    model = llr.fit(llr.generate_poised_set(oracle, x, delta, n_llr, config.lambda_max, llr_rng))

    eps = config.inner_eps(delta)
    rep_old = maximize_over_scenarios(problem, x, model, state.y_warm, eps)
    l_old, g = surrogate_value_and_xgrad(model, rep_old.evaluation, rep_old.maximizer)
    y_old = rep_old.maximizer
    del rep_old  # its binding holds arrays with one row per scenario
    grad_norm = norm(g)
    descent_rhs = config.kappa_dcp * grad_norm * min(delta, 1.0)

    # Defaults of an iteration that ends before the value estimates: it is
    # unsuccessful, so x and the inner warm start stay where they are.
    rho, v_k, v_half, descent_lhs = -math.inf, math.nan, math.nan, math.nan
    n_value, descent_ok = 0, False
    x_trial, y_trial = x, state.y_warm
    # Below the floor, or at an infinite or NaN norm, there is no usable
    # direction; the eta2 test would reject a step below the floor anyway.
    if GRAD_FLOOR <= grad_norm < math.inf:
        x_trial = x - delta * g / grad_norm
        rep_trial = maximize_over_scenarios(problem, x_trial, model, y_old, eps)
        y_trial = rep_trial.maximizer
        l_new = float(rep_trial.evaluation.loss(y_trial))
        del rep_trial
        pred = l_old - l_new
        descent_lhs = pred if math.isfinite(l_new) else math.nan
        # A step failing the descent requirement is unsuccessful, so the
        # shrinking radius improves the surrogate. Below PRED_FLOOR no value
        # estimate could give a ratio, so none is drawn.
        descent_ok = pred >= descent_rhs
        if descent_ok and abs(pred) >= PRED_FLOOR:
            n_value = config.value_schedule.count(delta)
            v_k = estimate_value(problem, oracle, x, n_value, eps, y_old, vk_rng)
            v_half = estimate_value(problem, oracle, x_trial, n_value, eps, y_trial, vh_rng)
            rho = (v_k - v_half) / pred

    accepted, delta_next = acceptance_update(rho, grad_norm, delta, config)
    x_next, y_next = (x_trial, y_trial) if accepted else (x, state.y_warm)
    record = IterationRecord(
        k=k,
        delta=delta,
        delta_next=delta_next,
        rho=rho,
        grad_norm_surrogate=grad_norm,
        v_k=v_k,
        v_k_half=v_half,
        accepted=accepted,
        descent_lhs=descent_lhs,
        descent_rhs=descent_rhs,
        descent_ok=descent_ok,
        n_llr=n_llr,
        n_value=n_value,
        b1_frobenius=norm(model.b1),
        oracle_phi=oracle_phi,
        oracle_grad_norm=oracle_grad,
        x_before=x,
        x_after=x_next,
    )
    return replace(state, x=x_next, delta=delta_next, k=k + 1, y_warm=y_next), record


def solve(
    x0: np.ndarray,
    problem: ProblemSpec,
    oracle: DistributionOracle,
    config: TRConfig,
    diagnostics: Optional[OracleDiagnostics] = None,
    on_record: Optional[Callable[[IterationRecord], object]] = None,
) -> tuple[TRState, list[IterationRecord]]:
    """Iterate until the radius falls below its floor or to 0, or for
    ``config.max_iters`` iterations; return the final state, whose ``termination``
    says which, and the records, unless each went to ``on_record``."""
    x0 = as_vector(x0, problem.n, "x0")
    state = TRState(x=x0, delta=config.delta0, k=0, y_warm=problem.inner_domain.center())
    history = []

    def stop(state: TRState) -> Optional[str]:
        if state.k >= config.max_iters:  # first: a last step may take delta below the floor
            return "max_iters"
        if state.delta < config.delta_min * max(1.0, norm(state.x)) or state.delta == 0.0:
            return "radius_floor"  # 0 also with delta_min = 0

    return drive(
        state, lambda state, rng: iterate(state, problem, oracle, config, rng, diagnostics),
        stop, config.seed, on_record or history.append,
    ), history
