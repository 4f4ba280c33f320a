"""Simplified reference baselines: stochastic primal-dual iteration and
stochastic gradient descent ascent with an online-learned affine location
model.  These reproduce the qualitative comparison behavior only; they are
not faithful reimplementations of the cited originals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    ConfigurationError,
    DistributionOracle,
    OracleDiagnostics,
    ProblemSpec,
    as_vector,
    make_rng,
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
        return OnlineAffineModel(
            zz=forget * self.zz + count * np.outer(z, z),
            zw=forget * self.zw + z[:, None] * draws.sum(axis=0)[None, :],
        )

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.zz.shape[0] - 1
        theta = np.linalg.solve(self.zz + RIDGE * np.eye(n + 1), self.zw)
        return theta[:n], theta[n]  # A (n, d), c (d,)


@dataclass(frozen=True)
class BaselineState:
    x: np.ndarray
    y: np.ndarray
    k: int
    model: Optional[OnlineAffineModel]
    # Why ``run_baseline`` stopped: "diverged" or "max_iters".
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
    gx = evaluation.grad1(state.y)
    gy = evaluation.grad2(state.y)
    with np.errstate(over="ignore"):  # a step past the float range is inf: diverged
        x_new = state.x - eta * gx
        y_new = state.y + eta * gy
    y_new = _safe_project(problem, y_new)
    return replace(
        state,
        x=x_new,
        y=y_new,
        k=state.k + 1,
    )


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
    a_hat, _ = state.model.coefficients()
    evaluation = problem.bind(state.x, draws)
    gx = evaluation.grad1(state.y) + a_hat @ evaluation.grad3(state.y)
    gy = evaluation.grad2(state.y)
    with np.errstate(over="ignore"):  # a step past the float range is inf: diverged
        x_new = state.x - config.stepsize(state.k) * gx
        y_new = state.y + config.eta_y * gy
    y_new = _safe_project(problem, y_new)
    model = state.model.update(state.x, draws, config.forget)
    return replace(
        state,
        x=x_new,
        y=y_new,
        k=state.k + 1,
        model=model,
    )


def _safe_project(problem: ProblemSpec, y: np.ndarray) -> np.ndarray:
    # Projection requires finite input; a non-finite dual iterate is kept as
    # it is, so the divergence check ends the run.
    if not np.all(np.isfinite(y)):
        return y
    return problem.inner_domain.project(y)


def run_baseline(
    x0: np.ndarray,
    y0: Optional[np.ndarray],
    problem: ProblemSpec,
    oracle: DistributionOracle,
    config: BaselineConfig,
    diagnostics: Optional[OracleDiagnostics] = None,
) -> tuple[BaselineState, list[BaselineRecord]]:
    """Iterate the chosen baseline until divergence or the iteration budget;
    return the final state, whose ``termination`` says which, plus the history.

    Divergence (iterate norm above the threshold, or a non-finite value) stops
    the run; it is not an exception.
    """
    rng = make_rng(config.seed)
    x0 = as_vector(x0, problem.n, "x0")
    y0 = problem.inner_domain.center() if y0 is None else as_vector(y0, problem.m, "y0")
    y0 = problem.inner_domain.project(y0)
    model = OnlineAffineModel.empty(problem.n, problem.d) if config.method == "asgda" else None
    state = BaselineState(x=x0, y=y0, k=0, model=model)
    history = []
    step = asgda_step if config.method == "asgda" else spd_step

    for _ in range(config.max_iters):
        step_rng, diag_rng = rng.spawn(2)
        prev_x = state.x
        eta = config.stepsize(state.k)
        state = step(state, problem, oracle, config, step_rng)
        diverged = _diverged(state.x, state.y)
        grad_norm = norm((state.x - prev_x) / eta)
        oracle_phi = math.nan
        oracle_grad = math.nan
        if diagnostics is not None and not diverged:
            oracle_phi, oracle_grad = diagnostics.evaluate(prev_x, diag_rng)
        history.append(
            BaselineRecord(
                k=state.k - 1,
                stepsize=eta,
                grad_norm_est=grad_norm,
                oracle_phi=oracle_phi,
                oracle_grad_norm=oracle_grad,
                x_after=state.x,
            )
        )
        if diverged:
            return replace(state, termination="diverged"), history
    return replace(state, termination="max_iters"), history
