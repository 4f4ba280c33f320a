"""Local linear regression of the distribution map inside a trust region.

Responses ``omega_i`` drawn at points ``x_i = center + radius * u_i`` (with
``u_i`` uniform in the unit ball) are fit with an affine model
``omega ~ b1^T x + b0``; the residual empirical distribution defines the
surrogate scenarios used by the driver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DistributionOracle,
    PoisednessError,
    SingularFitError,
    as_vector,
    uniform_ball_sample,
)


@dataclass(frozen=True)
class PoisedSampleSet:
    """Regression data with a condition measure of its scaled design.

    ``offsets`` are the exact unit-ball draws, kept so the scaled design
    ``[offsets, 1]`` stays well posed even when ``radius`` is at the floating
    point noise floor of ``center``.  ``poisedness_metric`` is that design's
    2-norm condition number, which is scale invariant.
    """

    points: np.ndarray  # (count, n)
    responses: np.ndarray  # (count, d)
    offsets: np.ndarray  # (count, n), points = center + radius * offsets
    center: np.ndarray  # (n,)
    radius: float
    poisedness_metric: float


@dataclass(frozen=True)
class LLRModel:
    """Fitted slope/intercept plus the residual set defining the surrogate."""

    b1: np.ndarray  # (n, d)
    b0: np.ndarray  # (d,)
    residuals: np.ndarray  # (count, d)
    center: np.ndarray  # (n,)
    radius: float

    @property
    def count(self) -> int:
        return self.residuals.shape[0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = as_vector(x, self.b1.shape[0], "x")
        return self.b1.T @ x + self.b0

    def surrogate_scenarios(self, x: np.ndarray) -> np.ndarray:
        """The scenario values ``predict(x) + e_i``, shape (count, d).

        Averaging the loss over these rows realizes the surrogate expectation
        exactly: the residual empirical distribution is finite.
        """
        return self.predict(x)[None, :] + self.residuals


def _design(offsets: np.ndarray) -> np.ndarray:
    return np.column_stack([offsets, np.ones(offsets.shape[0])])


def generate_poised_set(
    oracle: DistributionOracle,
    center: np.ndarray,
    radius: float,
    count: int,
    lambda_max: float,
    rng: np.random.Generator,
    max_rounds: int = 50,
) -> PoisedSampleSet:
    """Sample regression points in B(center, radius) until well conditioned.

    Points are drawn uniformly from the ball; if the scaled design's condition
    number exceeds ``lambda_max``, the highest-leverage point is redrawn (with
    a fresh response) for up to ``max_rounds`` rounds.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = center.shape[0]
    if count < n + 1:
        raise ConfigurationError(f"regression needs count >= n + 1 = {n + 1}, got {count}")
    if radius <= 0:
        raise ConfigurationError("radius must be positive")
    if lambda_max <= 1:
        raise ConfigurationError("lambda_max must exceed 1")

    offsets = uniform_ball_sample(np.zeros(n), 1.0, count, rng)
    points = center + radius * offsets
    responses = oracle.sample_at(points, rng)

    best = np.inf
    for _ in range(max_rounds + 1):
        design = _design(offsets)
        sv = np.linalg.svd(design, compute_uv=False)
        cond = np.inf if sv[-1] == 0.0 else float(sv[0] / sv[-1])
        best = min(best, cond)
        if cond <= lambda_max:
            return PoisedSampleSet(points, responses, offsets, center, float(radius), cond)
        q, _ = np.linalg.qr(design)
        worst = int(np.argmax(np.sum(q**2, axis=1)))
        offsets[worst] = uniform_ball_sample(np.zeros(n), 1.0, 1, rng)[0]
        points[worst] = center + radius * offsets[worst]
        responses[worst] = oracle.sample(points[worst], 1, rng)[0]
    raise PoisednessError(
        f"condition target {lambda_max} not met after {max_rounds} rounds", best_metric=best
    )


def fit(samples: PoisedSampleSet) -> LLRModel:
    """Least-squares fit of the affine model, via QR of the scaled design.

    The fit runs in centered/scaled coordinates for stability and is mapped
    back to raw coordinates; residuals satisfy the reconstruction identity
    ``predict(x_i) + e_i = omega_i`` and have zero empirical mean.
    """
    n = samples.offsets.shape[1]
    design = _design(samples.offsets)
    q, r = np.linalg.qr(design)
    diag = np.abs(np.diag(r))
    if np.min(diag) <= 1e-13 * max(np.max(diag), 1.0):
        raise SingularFitError("rank-deficient regression design")
    # Column-major: the layout sets how b1 @ grad3 and b1.T @ x round.
    coef = np.asfortranarray(np.linalg.solve(r, q.T @ samples.responses))  # (n + 1, d)
    residuals = design @ coef  # the fitted values, replaced by the residuals
    np.subtract(samples.responses, residuals, out=residuals)
    b1 = coef[:n] / samples.radius
    b0 = coef[n] - b1.T @ samples.center
    return LLRModel(b1=b1, b0=b0, residuals=residuals, center=samples.center, radius=samples.radius)
