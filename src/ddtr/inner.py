"""Inexact inner maximization over scenario averages.

Projected gradient ascent with fixed stepsize ``1/ell`` on the scenario
average ``g(y) = mean_j l(x, y, omega_j)``, which inherits the problem's
``mu``-strong concavity and ``ell``-smoothness in ``y``.  The stopping rule
certifies the distance to the exact maximizer: with step ``1/ell`` the ascent
map is a contraction with factor ``q = sqrt((ell - mu) / (ell + mu))``, and
``q / (1 - q) <= ell/mu + 1``, so

    ||y_{t+1} - y*|| <= (ell/mu + 1) * ||y_{t+1} - y_t||.

Stopping once the right-hand side drops below the requested tolerance
therefore guarantees the returned point is within that tolerance of ``y*``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    ContractViolationError,
    Evaluation,
    InnerConvergenceError,
    ProblemSpec,
    as_vector,
)


@dataclass(frozen=True)
class InnerSolveReport:
    maximizer: np.ndarray
    iterations: int
    evaluation: Evaluation  # the binding of (x, scenarios) that every step called


def maximize_over_scenarios(
    problem: ProblemSpec,
    x: np.ndarray,
    scenarios,
    y_init: np.ndarray,
    epsilon: float,
    max_iters: int = 100_000,
) -> InnerSolveReport:
    """Maximize the scenario-average loss over the inner domain.

    ``scenarios`` is an ``(S, d)`` array or a fitted model (see ``core``),
    bound once at ``x``. Returns a point within ``epsilon`` of the exact
    maximizer of ``mean_j l(x, y, scenarios[j])``; raises ``InnerConvergenceError`` (with
    the partial report attached) if the certificate does not fire within
    ``max_iters`` iterations.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if max_iters < 1:
        raise ConfigurationError("max_iters must be at least 1")
    shape = np.shape(scenarios)  # reads a model's shape without building its rows
    if len(shape) != 2 or shape[0] < 1 or shape[1] != problem.d:
        raise ContractViolationError(
            f"scenarios must have shape (S, {problem.d}) with S >= 1, got {shape}"
        )
    x = as_vector(x, problem.n, "x")
    domain = problem.inner_domain
    y = domain.project(as_vector(y_init, problem.m, "y_init"))
    evaluation = problem.bind(x, scenarios)

    step = 1.0 / problem.ell
    cert_factor = problem.ell / problem.mu + 1.0

    for t in range(1, max_iters + 1):
        grad = evaluation.grad2(y)
        y_next = domain.project(y + step * grad)
        step_norm = float(np.linalg.norm(y_next - y))
        y = y_next
        if cert_factor * step_norm <= epsilon:
            return InnerSolveReport(y, t, evaluation)
    raise InnerConvergenceError(
        f"inner maximizer failed to certify tolerance {epsilon} in {max_iters} iterations",
        report=InnerSolveReport(y, max_iters, evaluation),
    )
