"""Benchmark problems: a scalar synthetic instance with a closed-form primal
function, and a distributionally robust logistic-regression instance whose
features shift with the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    Box,
    ConfigurationError,
    DistributionOracle,
    OracleDiagnostics,
    ProblemSpec,
    Simplex,
    scenario_mean,
    uniform_ball_sample,
)


@dataclass(frozen=True)
class Instance:
    """A runnable pairing of problem, sampler, ground-truth diagnostics and
    the default initial-point ball.

    When ``y0_center`` is set, the starting pair (x0, y0) is drawn jointly
    from one ball around (x0_center, y0_center); otherwise only x0 is drawn
    and the inner iterate starts at the domain center.
    """

    problem: ProblemSpec
    oracle: DistributionOracle
    diagnostics: Optional[OracleDiagnostics]
    x0_center: np.ndarray
    x0_radius: float
    y0_center: Optional[np.ndarray] = None

    def __post_init__(self):
        problem, radius = self.problem, self.x0_radius
        for name, center, size in (
            ("x0_center", self.x0_center, problem.n), ("y0_center", self.y0_center, problem.m)
        ):
            if center is not None and np.shape(center) != (size,):
                raise ConfigurationError(f"{name} has shape {np.shape(center)}, not {(size,)}")
        if not 0 < radius < np.inf:
            raise ConfigurationError(f"x0_radius must be finite and positive, got {radius!r}")

    def draw_start(self, rng: np.random.Generator) -> tuple[np.ndarray, Optional[np.ndarray]]:
        if self.y0_center is None:
            return uniform_ball_sample(self.x0_center, self.x0_radius, 1, rng)[0], None
        joint = np.concatenate([self.x0_center, self.y0_center])
        point = uniform_ball_sample(joint, self.x0_radius, 1, rng)[0]
        n = self.x0_center.shape[0]
        return point[:n], self.problem.inner_domain.project(point[n:])


# ---------------------------------------------------------------------------
# Synthetic scalar problem: loss x^2 - 2(x+y)w - y^2, w = x^3 + noise.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticProblem:
    noise_sigma: float = 1.0
    half_width: float = 125.0

    def __post_init__(self):
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be nonnegative")
        if self.half_width <= 0:
            raise ConfigurationError("half_width must be positive")


def synthetic_primal(x: float, half_width: float = 125.0) -> tuple[float, float]:
    """Closed-form primal value max_{|y| <= h} {x^2 - 2(x+y)x^3 - y^2} and
    the derivative of its active branch, as ``(value, derivative)``.

    The inner maximizer is y = -x^3 clamped to the box, which splits the
    formula into three branches meeting at |x| = h**(1/3).
    """
    if abs(x) <= half_width ** (1.0 / 3.0):
        return x**2 - 2 * x**4 + x**6, 2 * x - 8 * x**3 + 6 * x**5
    s = half_width if x > 0 else -half_width  # y = -s; the sign flip rounds exactly
    return x**2 - 2 * x**4 + 2 * s * x**3 - half_width**2, 2 * x - 8 * x**3 + 6 * s * x**2


def synthetic_instance(params: SyntheticProblem = SyntheticProblem()) -> Instance:
    h = params.half_width
    sigma = params.noise_sigma

    def loss(x, y, w):
        return x[0] ** 2 - 2.0 * (x[0] + y[0]) * w[:, 0] - y[0] ** 2

    def grad1(x, y, w):
        return (2.0 * x[0] - 2.0 * w[:, 0])[:, None]

    def grad2(x, y, w):
        return (-2.0 * w[:, 0] - 2.0 * y[0])[:, None]

    def grad3(x, y, w):
        return np.full((w.shape[0], 1), -2.0 * (x[0] + y[0]))

    problem = ProblemSpec(
        n=1,
        m=1,
        d=1,
        loss=loss,
        grad1=grad1,
        grad2=grad2,
        grad3=grad3,
        inner_domain=Box(np.array([-h]), np.array([h])),
        mu=2.0,
        ell=2.0,
    )

    def sampler(x, count, rng):
        # float_power rounds each row like the scalar x[0] ** 3; ``**`` on an
        # array can differ from it in the last bit.
        cubes = np.float_power(np.atleast_2d(x)[:, :1], 3)
        return cubes + sigma * rng.standard_normal((count, 1))

    oracle = DistributionOracle(d=1, sampler=sampler)

    def closed_form(x, rng):  # exact: ignores rng and draws nothing
        value, derivative = synthetic_primal(float(x[0]), h)
        return value, abs(derivative)

    return Instance(
        problem=problem,
        oracle=oracle,
        diagnostics=OracleDiagnostics(closed_form),
        x0_center=np.array([10.0]),
        x0_radius=0.5,
        y0_center=np.array([10.0]),
    )


# ---------------------------------------------------------------------------
# Distributionally robust logistic regression over the simplex.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DROProblem:
    """Robust logistic regression whose features respond to the classifier.

    The objective is (1/N) sum_i y_i log(1 + exp(-b_i a_i(x)^T x)) + f(x) - g(y)
    with a_i(x) = a0_i + shift_scale * sin(x) componentwise,
    f(x) = lambda1 * sum_j alpha x_j^2 / (1 + alpha x_j^2) and
    g(y) = 0.5 * lambda2 * ||N y - 1||^2 over the probability simplex.
    """

    features: np.ndarray  # (N, n) base features a0_i
    labels: np.ndarray  # (N,) in {-1, +1}
    shift_scale: float = 5.0
    lambda1: float = 1.0
    lambda2: Optional[float] = None  # defaults to 10 / N^2
    alpha: float = 1.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != labels.shape[0]:
            raise ConfigurationError("features must be (N, n) with one label per row")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ConfigurationError("labels must be -1 or +1")
        if self.noise_sigma < 0:
            raise ConfigurationError("noise_sigma must be nonnegative")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if self.lambda2 is None:
            object.__setattr__(self, "lambda2", 10.0 / feats.shape[0] ** 2)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


def expit(z):
    out = np.negative(z, out=np.empty(np.shape(z)))  # one temporary, as in softplus
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the exact limit 0
        np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


SOFTPLUS_BLOCK = 1 << 12  # most elements of one max(z, 0) temporary in softplus (32 KB)


def softplus(z):
    """log(1 + e^z) of a float array as ``max(z, 0) + log1p(e^-|z|)``, within
    2 ulp of numpy's ``logaddexp(0, z)``, which evaluates the same identity one
    element at a time through the scalar libm; here numpy's vectorized exp and
    log1p run in place on the result, and ``max(z, 0)`` is added to it in
    blocks of rows of at most ``SOFTPLUS_BLOCK`` elements (or one row), so a
    large array needs no temporary of its own size. Returns a new array; ``z``
    is not changed."""
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    rows = max(1, SOFTPLUS_BLOCK * len(out) // max(out.size, 1))  # block // row size
    for start in range(0, len(out), rows):
        out[start : start + rows] += np.maximum(z[start : start + rows], 0.0)
    return out


def _f_value(x, lambda1, alpha):
    q = alpha * x**2
    return lambda1 * float(np.sum(q / (1.0 + q)))

def _f_grad(x, lambda1, alpha):
    return lambda1 * 2.0 * alpha * x / (1.0 + alpha * x**2) ** 2


def _check_count(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value!r}")


def _row_rng(n_rows: int, seed: int) -> np.random.Generator:
    """The generator of a data set's ``n_rows`` rows; ``seed`` is a config's ``data_seed``."""
    _check_count("n_rows", n_rows, 2)
    _check_count("data_seed", seed, 0)
    return np.random.Generator(np.random.Philox(seed))


def dro_instance(dro: DROProblem, diag_samples: int = 5000) -> Instance:
    _check_count("diag_samples", diag_samples, 1)
    if not dro.lambda2 > 0:  # the modulus of strong concavity in y is lambda2 N^2
        raise ConfigurationError(f"lambda2 must be positive, got {dro.lambda2}")
    N, n = dro.n_rows, dro.n_features
    d = N * n
    neg_b = -dro.labels
    lam1, lam2, alpha = dro.lambda1, dro.lambda2, dro.alpha

    class DROEvaluation:
        """The loss and gradients at one (x, w) as means over the draws (see
        ``core.Evaluation``). The margins -b * (a(x) x) are computed once, and
        the loss is linear in y given them: each method is a product with y of
        one of three means over the draws that do not depend on y, each taken
        on first use. They are of softplus(margins) (within 2 ulp of numpy's
        ``logaddexp(0, margins)``), of expit(margins) and of expit(margins) * a,
        each over N.

        Noiseless draws at one x are copies of one row, passed as a view with
        stride 0 (see ``sampler``). They are evaluated on that row, whose
        means are the row's own.

        A surrogate scenario set (``llr.SurrogateScenarios``) at x_w is
        evaluated on its factors, row s being omega_s + b1^T (x_w - p_s): the
        margins gain (x_w - P) @ (B1 x) and m_siga gains sig^T (x_w - P)
        contracted with B1, where B1 is b1 as (n, N, n). No (S, d) array is
        built.
        """

        def __init__(self, x, w):
            self.x, self.affine = x, None  # (x - P, B1) of a surrogate set
            if isinstance(w, np.ndarray):
                self.a = (w[:1] if w.strides[0] == 0 else w).reshape(-1, N, n)  # S = 1 for copies
            else:
                model = w.model
                self.a = model.responses.reshape(-1, N, n)  # (S, N, n), the omegas
                self.affine = w.x - model.points, model.b1.reshape(n, N, n)
            self.margins = self.a @ x  # (S, N)
            if self.affine is not None:
                shift, b1 = self.affine
                self.margins += shift @ (b1 @ x)
            self.margins *= neg_b

        sig = cached_property(lambda self: expit(self.margins))
        m_loss = cached_property(lambda self: scenario_mean(softplus(self.margins)) / N)  # (N,)
        m_sig = cached_property(lambda self: scenario_mean(self.sig) / N)  # (N,)

        @cached_property
        def m_siga(self):  # (N, n)
            total = np.einsum("sN,sNn->Nn", self.sig, self.a)
            if self.affine is not None:
                shift, b1 = self.affine
                total += np.einsum("Nk,kNn->Nn", self.sig.T @ shift, b1)
            return total / (self.a.shape[0] * N)

        def loss(self, y):
            reg = 0.5 * lam2 * float(np.sum((N * y - 1.0) ** 2))
            return self.m_loss @ y + _f_value(self.x, lam1, alpha) - reg

        def grad1(self, y):
            return (neg_b * y) @ self.m_siga + _f_grad(self.x, lam1, alpha)

        def grad2(self, y):
            return self.m_loss - lam2 * N * (N * y - 1.0)

        def grad3(self, y):
            return ((neg_b * y * self.m_sig)[:, None] * self.x).reshape(d)

    problem = ProblemSpec(
        n=n,
        m=N,
        d=d,
        inner_domain=Simplex(N),
        mu=lam2 * N**2,
        ell=lam2 * N**2,
        fused=DROEvaluation,
    )

    base = dro.features

    def sampler(x, count, rng):
        draws = np.repeat(dro.shift_scale * np.sin(np.atleast_2d(x))[:, None, :], N, axis=1)
        draws += base  # in place, not broadcast: that sum loops over rows of length n
        if dro.noise_sigma > 0:
            noise = rng.standard_normal((count, N, n))
            noise *= dro.noise_sigma
            draws = np.add(noise, draws, out=noise)  # draws + sigma * noise, in one array
        if draws.shape[0] < count:
            # Noiseless draws at one x: copies of one row, as a read-only view
            # with stride 0 on the first axis.
            draws = np.broadcast_to(draws, (count, N, n))
        return draws.reshape(count, d)

    oracle = DistributionOracle(d=d, sampler=sampler)

    # Without noise the draws at x are copies of one row, so the diagnostic
    # is exact on that one row and draws no Monte-Carlo sample.
    noiseless = dro.noise_sigma == 0

    def mc_evaluate(x, rng):
        # Primal value and gradient norm over the drawn rows. The y-part of the objective,
        # m_loss^T y - (lam2 N^2 / 2) ||y - uniform||^2, is an isotropic quadratic whose
        # constrained maximizer is one simplex projection.
        rows = DROEvaluation(x, oracle.sample(x, 1 if noiseless else diag_samples, rng))
        y_star = problem.inner_domain.project(1.0 / N + rows.m_loss / (lam2 * N**2))
        chain = dro.shift_scale * np.cos(x) * rows.grad3(y_star).reshape(N, n).sum(0)
        return float(rows.loss(y_star)), float(np.linalg.norm(rows.grad1(y_star) + chain))

    return Instance(
        problem=problem,
        oracle=oracle,
        diagnostics=OracleDiagnostics(mc_evaluate, sample_count=0 if noiseless else diag_samples),
        x0_center=np.full(n, 2.0),
        x0_radius=0.5,
    )


def generate_synthetic_credit(n_rows: int, n_features: int, seed: int) -> DROProblem:
    """Gaussian features with labels from a planted logistic model.

    Deterministic given the seed; stands in for the external credit data set.
    """
    rng = _row_rng(n_rows, seed)
    _check_count("n_features", n_features, 1)
    feats = rng.standard_normal((n_rows, n_features))
    planted = rng.standard_normal(n_features)
    probs = expit(feats @ planted)
    labels = np.where(rng.uniform(size=n_rows) < probs, 1.0, -1.0)
    feats = (feats - feats.mean(axis=0)) / feats.std(axis=0)
    return DROProblem(features=feats, labels=labels)
