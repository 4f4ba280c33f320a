"""Local linear regression of the distribution map inside a trust region.

Responses ``omega_i`` drawn at points ``x_i = center + radius * u_i`` (with
``u_i`` uniform in the unit ball) are fit with an affine model of slope ``b1``.
The surrogate scenarios at x, the fitted map plus the residuals, are the
responses carried along that slope, ``omega_i + b1^T (x - x_i)``. A fitted
model is itself the scenario set: it is bound at x unbuilt, and ``rows(x)``
builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ConfigurationError,
    DistributionOracle,
    PoisednessError,
    SingularFitError,
    uniform_ball_sample,
)

POISED_ROUNDS = 50  # most redraws of generate_poised_set before it gives up


@dataclass(frozen=True)
class PoisedSampleSet:
    """Regression data with a condition measure of its scaled design.

    ``offsets`` are the exact unit-ball draws, kept so the scaled design
    ``[offsets, 1]`` stays well posed even when ``radius`` is at the floating
    point noise floor of the center.  ``poisedness_metric`` is that design's
    2-norm condition number, which is scale invariant.  ``factors`` are its
    reduced QR factors ``(q, r)``, which ``fit`` reuses (the fitted values are
    ``q @ (q.T @ responses)``).
    """

    points: np.ndarray  # (count, n)
    responses: np.ndarray  # (count, d)
    offsets: np.ndarray  # (count, n), points = center + radius * offsets
    radius: float
    poisedness_metric: float
    factors: tuple = field(repr=False, compare=False)  # (q, r)


@dataclass(frozen=True)
class LLRModel:
    """The fitted slope and the sample set's ``responses`` and ``points`` (not
    copies). As a scenario set of ``shape`` (count, d), its row i at x is
    ``responses[i] + b1.T @ (x - points[i])``. Averaging the loss over the rows
    realizes the surrogate expectation exactly: the residual empirical
    distribution is finite."""

    b1: np.ndarray  # (n, d)
    responses: np.ndarray  # (count, d)
    points: np.ndarray  # (count, n)

    @property
    def shape(self) -> tuple[int, int]:
        return self.responses.shape

    def rows(self, x: np.ndarray) -> np.ndarray:
        """The scenarios at ``x``, built as ``(x - points) @ b1 + responses``
        in a new array."""
        rows = (x - self.points) @ self.b1
        rows += self.responses
        return rows


def generate_poised_set(
    oracle: DistributionOracle,
    center: np.ndarray,
    radius: float,
    count: int,
    lambda_max: float,
    rng: np.random.Generator,
) -> PoisedSampleSet:
    """Sample regression points in B(center, radius) until well conditioned.

    Points are drawn uniformly from the ball; if the scaled design's condition
    number exceeds ``lambda_max``, the highest-leverage point is redrawn (with
    a fresh response) for up to ``POISED_ROUNDS`` rounds.
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
    responses = oracle.sample(points, count, rng)

    best = np.inf
    for _ in range(POISED_ROUNDS + 1):
        # The reduced QR factors of the scaled design [offsets, 1]; r has its singular values.
        factors = q, r = tuple(np.linalg.qr(np.column_stack([offsets, np.ones(count)])))
        cond = float(np.linalg.cond(r))
        best = min(best, cond)
        if cond <= lambda_max:
            return PoisedSampleSet(points, responses, offsets, float(radius), cond, factors)
        worst = int(np.argmax(np.sum(q**2, axis=1)))
        offsets[worst] = uniform_ball_sample(np.zeros(n), 1.0, 1, rng)[0]
        points[worst] = center + radius * offsets[worst]
        responses[worst] = oracle.sample(points[worst], 1, rng)[0]
    raise PoisednessError(
        f"condition target {lambda_max} not met after {POISED_ROUNDS} rounds", best_metric=best
    )


def fit(samples: PoisedSampleSet) -> LLRModel:
    """Least-squares slope of the affine model, via QR of the scaled design.

    The fit runs in centered/scaled coordinates for stability and its slope is
    mapped back to raw coordinates. No intercept is kept: a surrogate row
    carries its own response along the slope, reproducing it at its point.
    """
    n = samples.offsets.shape[1]
    q, r = samples.factors
    diag = np.abs(np.diag(r))
    if np.min(diag) <= 1e-13 * max(np.max(diag), 1.0):
        raise SingularFitError("rank-deficient regression design")
    # Column-major: the layout sets how b1 @ grad3 and (x - points) @ b1 round.
    coef = np.asfortranarray(np.linalg.solve(r, q.T @ samples.responses))  # (n + 1, d)
    return LLRModel(coef[:n] / samples.radius, samples.responses, samples.points)
