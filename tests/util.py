"""Shared builders for the test suite."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

import ddtr
from ddtr.baselines import RIDGE, OnlineAffineModel
from ddtr.core import Box, DistributionOracle, ProblemSpec, Simplex
from ddtr.llr import LLRModel
from ddtr.problems import DROProblem, dro_instance, expit, softplus
from ddtr.tr import surrogate_value_and_xgrad


def _fresh(*argv: str, check: bool) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports this ddtr, so no
    earlier test's imports, allocations or warning filters carry over."""
    src = str(Path(ddtr.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=check,
    )


def fresh_python(code: str, *args: str) -> str:
    """The stdout of ``python -c code *args`` in a fresh interpreter."""
    return _fresh("-c", code, *args, check=True).stdout


def fresh_cli(*args: str, start_method: Optional[str] = None) -> subprocess.CompletedProcess:
    """``python -m ddtr.cli *args`` in a fresh interpreter, as a shell runs it:
    through the module's own entry point. With a ``start_method``, the
    interpreter sets it as multiprocessing's and then calls ``cli.main``."""
    if start_method is None:
        return _fresh("-m", "ddtr.cli", *args, check=False)
    code = ("import multiprocessing, sys; from ddtr import cli; "
            "multiprocessing.set_start_method(sys.argv[1]); sys.exit(cli.main(sys.argv[2:]))")
    return _fresh("-c", code, start_method, *args, check=False)


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


def affine_fit(model: OnlineAffineModel) -> np.ndarray:
    """The online model's full fit ``[A; c]``, shape (n + 1, d): its ridge solve
    against every column of ``zw``, a reference for ``chain(v) = A @ v``."""
    n = model.zz.shape[0] - 1
    return np.linalg.solve(model.zz + RIDGE * np.eye(n + 1), model.zw)


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

    def sampler(x, count, rng):
        if x.ndim == 1:
            return np.full((count, 1), slope * x[0] + intercept)
        return slope * x[:, :1] + intercept  # one multiply and one add: rounds as per row

    return problem, DistributionOracle(d=1, sampler=sampler)


def scalar_oracle(fn, sigma=0.0) -> DistributionOracle:
    """1-d oracle drawing fn(x) + sigma * noise; a batch of points applies
    the scalar fn row by row, so each row rounds as a one-point draw does."""

    def sampler(x, count, rng):
        means = np.array([[fn(row[0])] for row in np.atleast_2d(x)])
        return means + sigma * rng.standard_normal((count, 1))

    return DistributionOracle(d=1, sampler=sampler)


def record_bytes(record) -> tuple:
    """A run record's fields as bytes: equal records compare equal, NaNs included."""
    return tuple(np.asarray(getattr(record, f.name)).tobytes() for f in fields(record))


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


def dro_rows_reference(dro: DROProblem, x, rows, weights) -> tuple[float, float]:
    """The primal value and gradient norm of the DRO objective's weighted mean
    over ``rows``, an ``(S, N, n)`` array of draws of the shifted features with
    a weight each, its inner maximum solved by one simplex projection; a
    straight-line form with no shortcut for repeated rows."""
    N = dro.n_rows
    b, lam1, lam2, alpha = dro.labels, dro.lambda1, dro.lambda2, dro.alpha
    q = alpha * x**2
    f_value = lam1 * float(np.sum(q / (1.0 + q)))
    f_grad = lam1 * 2.0 * alpha * x / (1.0 + alpha * x**2) ** 2
    margins = -b[None, :] * (rows @ x)
    mean_losses = weights @ softplus(margins)  # (N,)
    y_star = Simplex(N).project(1.0 / N + mean_losses / (lam2 * N**3))
    reg = 0.5 * lam2 * float(np.sum((N * y_star - 1.0) ** 2))
    value = float(mean_losses @ y_star / N + f_value - reg)
    coef = (-b * y_star)[None, :] * expit(margins) / N  # (S, N)
    g1 = np.einsum("s,sN,sNn->n", weights, coef, rows) + f_grad
    g3_rows = (weights @ coef)[:, None] * x[None, :]  # (N, n)
    chain = dro.shift_scale * np.cos(x) * np.sum(g3_rows, axis=0)
    return value, float(np.linalg.norm(g1 + chain))


def dro_mc_reference(dro: DROProblem, x, rng, draws: int = 5000) -> tuple[float, float]:
    """The Monte-Carlo estimate of the DRO diagnostic over ``draws`` rows drawn
    from the oracle, equally weighted."""
    rows = dro_instance(dro).oracle.sample(x, draws, rng).reshape(draws, dro.n_rows, -1)
    return dro_rows_reference(dro, x, rows, np.full(draws, 1.0 / draws))


def trapezoid_nodes(step: float, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """The trapezoidal rule for a standard normal law: nodes ``step`` apart on
    ``[-half_width, half_width]``, weights that sum to 1."""
    z = np.arange(-math.floor(half_width / step), math.floor(half_width / step) + 1) * step
    weights = np.exp(-0.5 * z**2)
    return z, weights / weights.sum()


def dro_nodes_reference(dro: DROProblem, x, z, weights) -> tuple[float, float]:
    """The DRO diagnostic by a quadrature rule for the noise along x, whose
    nodes ``z`` are in units of sigma; noise orthogonal to x moves no margin."""
    shifted = dro.features + dro.shift_scale * np.sin(x)
    rows = shifted + (dro.noise_sigma * z)[:, None, None] * (x / (np.linalg.norm(x) or 1.0))
    return dro_rows_reference(dro, x, rows, weights)


def dro_one_row_reference(dro: DROProblem, x) -> tuple[float, float]:
    """The noiseless DRO diagnostic as the binding over one drawn row, through
    the binding's own calls: the value and gradient norm bit for bit."""
    inst = dro_instance(dro)
    N, n = dro.n_rows, dro.n_features
    bound = inst.problem.bind(x, inst.oracle.sample(x, 1, ddtr.make_rng(0)))
    y_star = inst.problem.inner_domain.project(1.0 / N + bound.m_loss / (dro.lambda2 * N**2))
    chain = dro.shift_scale * np.cos(x) * bound.grad3(y_star).reshape(N, n).sum(0)
    return float(bound.loss(y_star)), float(np.linalg.norm(bound.grad1(y_star) + chain))


def fitted_map(model: LLRModel, x) -> np.ndarray:
    """The model's fitted affine map at x, shape (d,): the mean of its
    surrogate rows there, since a least-squares fit with an intercept passes
    through the centroid of its data (the residuals have zero mean)."""
    return model.rows(x).mean(axis=0)


def llr_model(b1, b0, residuals) -> LLRModel:
    """An ``LLRModel`` of slope ``b1`` fit on points at the origin, so each
    response is ``b0 + residual`` and so is each surrogate row at the origin."""
    b1, b0, residuals = (np.asarray(v, dtype=float) for v in (b1, b0, residuals))
    return LLRModel(b1, b0 + residuals, np.zeros((residuals.shape[0], b1.shape[0])))


def surrogate_at(problem: ProblemSpec, model, x, y):
    """``tr.surrogate_value_and_xgrad`` at (x, y), bound to the model at x
    as the trust-region iteration binds it."""
    return surrogate_value_and_xgrad(model, problem.bind(x, model), y)


def dro_reference_evaluators(dro: DROProblem) -> dict:
    """The DRO loss and gradients as four straight-line functions of
    ``(x, y, w)``, each computing its margins afresh: a reference for the
    shared-margin evaluation of ``dro_instance``, whose means must match these
    per-draw arrays' ``np.mean`` to within rounding."""
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
        return softplus(margins) @ y / N + f_value(x) - reg

    def grad1(x, y, w):
        a, margins = margins_of(x, w)
        coef = (-b * y)[None, :] * expit(margins) / N
        return np.einsum("sN,sNn->sn", coef, a) + f_grad(x)

    def grad2(x, y, w):
        _, margins = margins_of(x, w)
        return softplus(margins) / N - (lam2 * N * (N * y - 1.0))[None, :]

    def grad3(x, y, w):
        _, margins = margins_of(x, w)
        coef = (-b * y)[None, :] * expit(margins) / N
        return (coef[:, :, None] * x[None, None, :]).reshape(-1, N * n)

    return {"loss": loss, "grad1": grad1, "grad2": grad2, "grad3": grad3}
