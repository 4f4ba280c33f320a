"""Simplified reference baselines: stochastic primal-dual iteration and
stochastic gradient descent ascent with an online-learned affine location
model.  These reproduce the qualitative comparison behavior only; they are
not faithful reimplementations of the cited originals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .core import (
    ConfigurationError,
    DistributionOracle,
    OracleDiagnostics,
    ProblemSpec,
    as_vector,
    drive,
    norm,
)

# The BaselineConfig fields each method reads, and so the keys a run config may give it.
METHOD_KEYS = {
    "asgda": ("eta", "eta_y", "forget", "batch"),
    "spd-constant": ("eta", "batch"),
    "spd-dynamic": ("dyn_a", "dyn_b", "batch"),
}
METHODS = tuple(METHOD_KEYS)
RIDGE = 1e-8  # Tikhonov term of the online regression's solve
DIVERGENCE_NORM = 1e8  # a run whose iterate norm passes this has diverged


@dataclass(frozen=True)
class BaselineConfig:
    method: str = "spd-constant"
    eta_y: float = 1e-1  # asgda y-stepsize
    eta: float = 1e-3  # x-stepsize of spd-constant and asgda, spd-constant's y-stepsize
    dyn_a: float = 1000.0  # spd dynamic stepsize 1 / (a + b k)
    dyn_b: float = 10.0
    batch: int = 500
    max_iters: int = 5000
    seed: int = 0
    forget: float = 0.99  # exponential forgetting for the online regression

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(f"method must be one of {METHODS}, got {self.method!r}")
        if not all(v > 0 for v in (self.eta_y, self.eta, self.dyn_a)):
            raise ConfigurationError("stepsizes and dyn_a must be positive")
        if not self.dyn_b >= 0:
            raise ConfigurationError("dyn_b must be nonnegative")
        if not self.batch >= 1:
            raise ConfigurationError("batch must be >= 1")
        if not self.max_iters >= 0:
            raise ConfigurationError("max_iters must be nonnegative")
        if not (0 < self.forget <= 1):
            raise ConfigurationError("forget must lie in (0, 1]")

    def stepsize(self, k: int) -> float:
        """The x-stepsize of step k."""
        if self.method == "spd-dynamic":
            return 1.0 / (self.dyn_a + self.dyn_b * k)
        return self.eta


@dataclass(frozen=True)
class OnlineAffineModel:
    """Recursive least squares for omega ~ A^T x + c with forgetting.

    Sufficient statistics over augmented inputs z = (x, 1) are discounted by
    the forgetting factor once per batch; the solve is ridge-stabilized so a
    single-support design (all draws at one x) stays well posed.
    """

    zz: np.ndarray  # (n + 1, n + 1)
    zw: np.ndarray  # (n + 1, d)

    @staticmethod
    def empty(n: int, d: int) -> "OnlineAffineModel":
        return OnlineAffineModel(zz=np.zeros((n + 1, n + 1)), zw=np.zeros((n + 1, d)))

    def update(self, x: np.ndarray, draws: np.ndarray, forget: float) -> "OnlineAffineModel":
        z = np.append(x, 1.0)
        count = draws.shape[0]
        # A stride-0 batch (see core.DistributionOracle) repeats one row.
        total = count * draws[0] if draws.strides[0] == 0 else draws.sum(axis=0)
        return OnlineAffineModel(
            zz=forget * self.zz + count * np.outer(z, z),
            zw=forget * self.zw + z[:, None] * total[None, :],
        )

    def chain(self, v: np.ndarray) -> np.ndarray:
        """``A @ v`` for the fitted slope A (n, d), from one (n + 1)-dimensional solve."""
        n = self.zz.shape[0] - 1
        return np.linalg.solve(self.zz + RIDGE * np.eye(n + 1), self.zw @ v)[:n]


@dataclass(frozen=True)
class BaselineState:
    x: np.ndarray
    y: np.ndarray
    k: int
    model: Optional[OnlineAffineModel]
    # Why the run stopped: "diverged", set by the step that diverged, or "max_iters".
    termination: Optional[str] = None


@dataclass(frozen=True)
class BaselineRecord:
    """One step; the field order is the CSV column order."""

    k: int
    stepsize: float
    grad_norm_est: float
    oracle_phi: float
    oracle_grad_norm: float
    x_after: np.ndarray


def _diverged(x: np.ndarray, y: np.ndarray) -> bool:
    # A non-finite entry makes the norm infinite or NaN: diverged either way.
    return not norm(np.concatenate([x, y])) <= DIVERGENCE_NORM


def _descend_ascend(
    state: BaselineState, problem: ProblemSpec, gx, gy, eta_x: float, eta_y: float, **changes
) -> BaselineState:
    """The next state: x down by ``eta_x * gx``, y up by ``eta_y * gy``, then projected."""
    with np.errstate(over="ignore"):  # a step past the float range is inf: diverged
        x = state.x - eta_x * gx
        y = state.y + eta_y * gy
    # Projection requires finite input; a non-finite dual iterate is kept as
    # it is, so the divergence check ends the run.
    if np.all(np.isfinite(y)):
        y = problem.inner_domain.project(y)
    ended = "diverged" if _diverged(x, y) else None
    return replace(state, x=x, y=y, k=state.k + 1, termination=ended, **changes)


def spd_step(
    state: BaselineState,
    problem: ProblemSpec,
    oracle: DistributionOracle,
    config: BaselineConfig,
    rng: np.random.Generator,
) -> BaselineState:
    """One stochastic primal-dual step; the x-gradient ignores the sampling
    distribution's dependence on x."""
    eta = config.stepsize(state.k)
    evaluation = problem.bind(state.x, oracle.sample(state.x, config.batch, rng))
    gx, gy = evaluation.grad1(state.y), evaluation.grad2(state.y)
    return _descend_ascend(state, problem, gx, gy, eta, eta)


def asgda_step(
    state: BaselineState,
    problem: ProblemSpec,
    oracle: DistributionOracle,
    config: BaselineConfig,
    rng: np.random.Generator,
) -> BaselineState:
    """One adaptive descent-ascent step: chain-rule-corrected x-gradient under
    the current global affine estimate of the map, then a model update."""
    draws = oracle.sample(state.x, config.batch, rng)
    evaluation = problem.bind(state.x, draws)
    gx = evaluation.grad1(state.y) + state.model.chain(evaluation.grad3(state.y))
    return _descend_ascend(
        state, problem, gx, evaluation.grad2(state.y), config.stepsize(state.k), config.eta_y,
        model=state.model.update(state.x, draws, config.forget),
    )


def run_baseline(
    x0: np.ndarray,
    y0: Optional[np.ndarray],
    problem: ProblemSpec,
    oracle: DistributionOracle,
    config: BaselineConfig,
    diagnostics: Optional[OracleDiagnostics] = None,
    on_record: Optional[Callable[[BaselineRecord], object]] = None,
) -> tuple[BaselineState, list[BaselineRecord]]:
    """Iterate the chosen baseline until divergence or the iteration budget;
    return the final state, whose ``termination`` says which, and the records,
    unless each went to ``on_record``.

    Divergence (iterate norm above the threshold, or a non-finite value) stops
    the run after that step's record; it is not an exception.
    """
    x0 = as_vector(x0, problem.n, "x0")
    y0 = problem.inner_domain.center() if y0 is None else as_vector(y0, problem.m, "y0")
    y0 = problem.inner_domain.project(y0)
    model = OnlineAffineModel.empty(problem.n, problem.d) if config.method == "asgda" else None
    state = BaselineState(x=x0, y=y0, k=0, model=model)
    history = []
    step = asgda_step if config.method == "asgda" else spd_step

    def record_step(state: BaselineState, rng: np.random.Generator):
        step_rng, diag_rng = rng.spawn(2)
        eta = config.stepsize(state.k)
        after = step(state, problem, oracle, config, step_rng)
        grad_norm = norm((after.x - state.x) / eta)
        oracle_phi = oracle_grad = math.nan
        if diagnostics is not None and after.termination is None:
            oracle_phi, oracle_grad = diagnostics.evaluate(state.x, diag_rng)
        return after, BaselineRecord(state.k, eta, grad_norm, oracle_phi, oracle_grad, after.x)

    def stop(state: BaselineState) -> Optional[str]:
        return state.termination or ("max_iters" if state.k >= config.max_iters else None)

    return drive(state, record_step, stop, config.seed, on_record or history.append), history
