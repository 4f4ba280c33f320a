"""Shared builders for the test suite."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ddtr.core import Box, DistributionOracle, ProblemSpec
from ddtr.problems import DROProblem, dro_instance, expit
from ddtr.tr import surrogate_value_and_xgrad


def quadratic_problem(weights, domain) -> ProblemSpec:
    """Separable concave quadratic: l(x, y, w) = -0.5 * sum_j a_j (y_j - w_j)^2.

    The scenario average over draws {w_s} is maximized (before projection) at
    the componentwise mean, so constrained maximizers are known in closed form
    for boxes (componentwise clamp) and, when the weights are equal, for the
    simplex (one Euclidean projection).
    """
    a = np.asarray(weights, dtype=float)
    m = a.shape[0]

    def loss(x, y, w):
        return -0.5 * np.sum(a * (y[None, :] - w) ** 2, axis=1)

    def grad1(x, y, w):
        return np.zeros((w.shape[0], 1))

    def grad2(x, y, w):
        return -a[None, :] * (y[None, :] - w)

    def grad3(x, y, w):
        return a[None, :] * (y[None, :] - w)

    return ProblemSpec(
        n=1,
        m=m,
        d=m,
        loss=loss,
        grad1=grad1,
        grad2=grad2,
        grad3=grad3,
        inner_domain=domain,
        mu=float(a.min()),
        ell=float(a.max()),
    )


def affine_map_problem(slope=1.0, intercept=-3.0, box_half=1.0) -> tuple[ProblemSpec, DistributionOracle]:
    """Deterministic instance with an affine map: w = slope * x + intercept,
    l(x, y, w) = w^2 - y^2.  The primal function is (slope*x + intercept)^2,
    minimized where the map crosses zero."""

    def loss(x, y, w):
        return w[:, 0] ** 2 - y[0] ** 2

    def grad1(x, y, w):
        return np.zeros((w.shape[0], 1))

    def grad2(x, y, w):
        return np.full((w.shape[0], 1), -2.0 * y[0])

    def grad3(x, y, w):
        return 2.0 * w

    problem = ProblemSpec(
        n=1,
        m=1,
        d=1,
        loss=loss,
        grad1=grad1,
        grad2=grad2,
        grad3=grad3,
        inner_domain=Box(np.array([-box_half]), np.array([box_half])),
        mu=2.0,
        ell=2.0,
    )
    oracle = DistributionOracle(
        d=1, sampler=lambda x, count, rng: np.full((count, 1), slope * x[0] + intercept)
    )
    return problem, oracle


def scalar_oracle(fn, sigma=0.0) -> DistributionOracle:
    """1-d oracle drawing fn(x) + sigma * noise."""

    def sampler(x, count, rng):
        return fn(x[0]) + sigma * rng.standard_normal((count, 1))

    return DistributionOracle(d=1, sampler=sampler)


def in_domain(domain, y) -> bool:
    """Whether y lies in a Box (to 1e-12) or a Simplex (to 1e-9), checked
    against the bounds and the unit sum, not through ``project``."""
    y = np.asarray(y, dtype=float)
    if isinstance(domain, Box):
        tol = 1e-12
        return bool(np.all(y >= domain.lower - tol) and np.all(y <= domain.upper + tol))
    tol = 1e-9
    return bool(np.all(y >= -tol) and abs(float(np.sum(y)) - 1.0) <= tol)


def directional_fd(f, x, v, h=1e-6):
    """Central finite difference of scalar f along direction v."""
    return (f(x + h * v) - f(x - h * v)) / (2.0 * h)


def dro_inner_exact_check(
    dro: DROProblem,
    x: np.ndarray,
    y: np.ndarray,
    sample_indices: Optional[Sequence[int]] = None,
) -> float:
    """Independent straight-line evaluation of the robust objective.

    Computes the objective with decision-dependent features over the selected
    rows (all rows by default) using scalar arithmetic only, as a test oracle
    for the vectorized evaluators.  When a subset of K rows is selected, y
    must lie in the K-simplex and N is replaced by K throughout.
    """
    indices = range(dro.n_rows) if sample_indices is None else list(sample_indices)
    for i in indices:
        if not (0 <= i < dro.n_rows):
            raise IndexError(f"sample index {i} out of range [0, {dro.n_rows})")
    k_rows = len(list(indices))
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for pos, i in enumerate(indices):
        a_i = [
            dro.features[i, j] + dro.shift_scale * math.sin(x[j])
            for j in range(dro.n_features)
        ]
        z = sum(a_i[j] * x[j] for j in range(dro.n_features))
        total += y[pos] * math.log(1.0 + math.exp(-dro.labels[i] * z))
    f = dro.lambda1 * sum(
        dro.alpha * x[j] ** 2 / (1.0 + dro.alpha * x[j] ** 2) for j in range(len(x))
    )
    g = 0.5 * dro.lambda2 * sum((k_rows * y[pos] - 1.0) ** 2 for pos in range(k_rows))
    return total / k_rows + f - g


def dro_mc_reference(dro: DROProblem, x, rng, diag_samples: int = 5000) -> tuple[float, float]:
    """The DRO diagnostic estimator over ``diag_samples`` drawn rows, with no
    shortcut for noiseless draws: the primal value and gradient norm of the
    sample average, its inner maximum solved by one simplex projection.
    """
    inst = dro_instance(dro, diag_samples=diag_samples)
    problem, oracle = inst.problem, inst.oracle
    N, n = dro.n_rows, dro.n_features
    b, lam1, lam2, alpha = dro.labels, dro.lambda1, dro.lambda2, dro.alpha
    q = alpha * x**2
    f_value = lam1 * float(np.sum(q / (1.0 + q)))
    f_grad = lam1 * 2.0 * alpha * x / (1.0 + alpha * x**2) ** 2
    a = oracle.sample(x, diag_samples, rng).reshape(-1, N, n)
    margins = -b[None, :] * (a @ x)
    mean_losses = np.mean(np.logaddexp(0.0, margins), axis=0)  # (N,)
    y_star = problem.inner_domain.project(1.0 / N + mean_losses / (lam2 * N**3))
    reg = 0.5 * lam2 * float(np.sum((N * y_star - 1.0) ** 2))
    value = float(mean_losses @ y_star / N + f_value - reg)
    coef = (-b * y_star)[None, :] * expit(margins) / N  # (S, N)
    g1 = np.mean(np.einsum("sN,sNn->sn", coef, a), axis=0) + f_grad
    g3_rows = np.mean(coef, axis=0)[:, None] * x[None, :]  # (N, n)
    chain = dro.shift_scale * np.cos(x) * np.sum(g3_rows, axis=0)
    return value, float(np.linalg.norm(g1 + chain))


def surrogate_at(problem: ProblemSpec, model, x, y):
    """``tr.surrogate_value_and_xgrad`` at (x, y), bound to the model's
    surrogate scenarios at x as the trust-region iteration binds them."""
    return surrogate_value_and_xgrad(model, problem.bind(x, model.surrogate_scenarios(x)), y)


def dro_reference_evaluators(dro: DROProblem) -> dict:
    """The DRO loss and gradients as four straight-line functions of
    ``(x, y, w)``, each computing its margins afresh: a reference for the
    shared-margin evaluation of ``dro_instance``, which must match it bit for bit."""
    N, n = dro.n_rows, dro.n_features
    b, lam1, lam2, alpha = dro.labels, dro.lambda1, dro.lambda2, dro.alpha

    def margins_of(x, w):
        a = w.reshape(-1, N, n)
        return a, -b[None, :] * (a @ x)

    def f_value(x):
        q = alpha * x**2
        return lam1 * float(np.sum(q / (1.0 + q)))

    def f_grad(x):
        return lam1 * 2.0 * alpha * x / (1.0 + alpha * x**2) ** 2

    def loss(x, y, w):
        _, margins = margins_of(x, w)
        reg = 0.5 * lam2 * float(np.sum((N * y - 1.0) ** 2))
        return np.logaddexp(0.0, margins) @ y / N + f_value(x) - reg

    def grad1(x, y, w):
        a, margins = margins_of(x, w)
        coef = (-b * y)[None, :] * expit(margins) / N
        return np.einsum("sN,sNn->sn", coef, a) + f_grad(x)

    def grad2(x, y, w):
        _, margins = margins_of(x, w)
        return np.logaddexp(0.0, margins) / N - (lam2 * N * (N * y - 1.0))[None, :]

    def grad3(x, y, w):
        _, margins = margins_of(x, w)
        coef = (-b * y)[None, :] * expit(margins) / N
        return (coef[:, :, None] * x[None, None, :]).reshape(-1, N * n)

    return {"loss": loss, "grad1": grad1, "grad2": grad2, "grad3": grad3}
