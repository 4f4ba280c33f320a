"""Benchmark problems: a scalar synthetic instance with a closed-form primal
function, and a distributionally robust logistic-regression instance whose
features shift with the classifier.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .core import (
    Box,
    ConfigurationError,
    DistributionOracle,
    IngestionError,
    OracleDiagnostics,
    ProblemSpec,
    Simplex,
    uniform_ball_sample,
)

log = logging.getLogger(__name__)


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


def synthetic_primal(x: float, half_width: float = 125.0) -> float:
    """Closed-form primal value max_{|y| <= h} {x^2 - 2(x+y)x^3 - y^2}.

    The inner maximizer is y = -x^3 clamped to the box, which splits the
    formula into three branches meeting at |x| = h**(1/3).
    """
    knee = half_width ** (1.0 / 3.0)
    if x > knee:
        return x**2 - 2 * x**4 + 2 * half_width * x**3 - half_width**2
    if x < -knee:
        return x**2 - 2 * x**4 - 2 * half_width * x**3 - half_width**2
    return x**2 - 2 * x**4 + x**6


def synthetic_primal_grad(x: float, half_width: float = 125.0) -> float:
    """Derivative of the active branch of the closed-form primal."""
    knee = half_width ** (1.0 / 3.0)
    if x > knee:
        return 2 * x - 8 * x**3 + 6 * half_width * x**2
    if x < -knee:
        return 2 * x - 8 * x**3 - 6 * half_width * x**2
    return 2 * x - 8 * x**3 + 6 * x**5


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

    oracle = DistributionOracle(d=1, sampler=sampler, batched=True)

    def closed_form(x, rng):  # ignores rng, so evaluate spawns no generators
        x0 = float(x[0])
        return synthetic_primal(x0, h), abs(synthetic_primal_grad(x0, h))

    diagnostics = OracleDiagnostics(
        value=lambda x, rng: closed_form(x, rng)[0],
        grad_norm=lambda x, rng: closed_form(x, rng)[1],
        sample_count=0,
        value_and_grad_norm=closed_form,
    )
    return Instance(
        problem=problem,
        oracle=oracle,
        diagnostics=diagnostics,
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
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the exact limit 0
        return 1.0 / (1.0 + np.exp(-z))


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
    b, neg_b = dro.labels, -dro.labels
    lam1, lam2, alpha = dro.lambda1, dro.lambda2, dro.alpha

    class DROEvaluation:
        """The loss and gradients at one (x, w) as means over the draws (see
        ``core.Evaluation``): the margins -b * (a(x) x) are computed once, their
        logaddexp and expit on first use, and the coefficients of grad1 and
        grad3 once per y. The ``*_rows`` methods give one row per draw.

        Noiseless draws at one x are copies of one row, passed as a view with
        stride 0 (see ``sampler``). They are evaluated on that row, and each
        mean is taken over a stride-0 view with one row per draw; numpy
        reduces such a view over its rows in the order it reduces C-ordered
        copies, so the means are the copies' bit for bit.
        """

        def __init__(self, x, w):
            self.count = w.shape[0]
            if w.strides[0] == 0:
                w = w[:1]
            self.x, self.a = x, w.reshape(-1, N, n)  # (S, N, n), S = 1 for copies
            self.margins = self.a @ x  # (S, N)
            self.margins *= neg_b
            self.coef_y = None, None  # (y bytes, coef) of the last y

        losses = cached_property(lambda self: np.logaddexp(0.0, self.margins))
        losses_n = cached_property(lambda self: self.losses / N)
        sig = cached_property(lambda self: expit(self.margins))

        def per_draw(self, rows):
            return np.broadcast_to(rows, (self.count,) + rows.shape[1:])

        def coef(self, y):  # (S, N)
            if self.coef_y[0] != y.tobytes():
                self.coef_y = y.tobytes(), (-b * y)[None, :] * self.sig / N
            return self.coef_y[1]

        def loss_rows(self, y):
            reg = 0.5 * lam2 * float(np.sum((N * y - 1.0) ** 2))
            # The product runs over every draw: BLAS may round a row of a
            # matrix-vector product differently by its place in the matrix.
            losses = np.ascontiguousarray(self.per_draw(self.losses))
            return losses @ y / N + _f_value(self.x, lam1, alpha) - reg

        def grad1_rows(self, y):
            g1 = np.einsum("sN,sNn->sn", self.coef(y), self.a) + _f_grad(self.x, lam1, alpha)
            return self.per_draw(g1)

        def grad2_rows(self, y):
            return self.per_draw(self.losses_n - (lam2 * N * (N * y - 1.0))[None, :])

        def grad3_rows(self, y):
            return self.per_draw((self.coef(y)[:, :, None] * self.x[None, None, :]).reshape(-1, d))

        def loss(self, y):
            return np.mean(self.loss_rows(y), axis=0)

        def grad1(self, y):
            return np.mean(self.grad1_rows(y), axis=0)

        def grad2(self, y):
            return np.mean(self.grad2_rows(y), axis=0)

        def grad3(self, y):
            # Column j of the (N, n) mean is the mean of coef * x[j]: numpy adds
            # an (S, N) array over axis 0 row by row, as it adds the (S, N * n)
            # one, so that array is never built. One row (a batch of copies) is
            # cheaper whole, and with N = 1 numpy would add pairwise.
            if N == 1 or self.a.shape[0] == 1:
                return np.mean(self.grad3_rows(y), axis=0)
            coef, g3 = self.coef(y), np.empty((N, n))
            for j in range(n):
                g3[:, j] = np.mean(self.per_draw(coef * self.x[j]), axis=0)
            return g3.reshape(d)

    problem = ProblemSpec(
        n=n,
        m=N,
        d=d,
        loss=lambda x, y, w: DROEvaluation(x, w).loss_rows(y),
        grad1=lambda x, y, w: DROEvaluation(x, w).grad1_rows(y),
        grad2=lambda x, y, w: DROEvaluation(x, w).grad2_rows(y),
        grad3=lambda x, y, w: DROEvaluation(x, w).grad3_rows(y),
        inner_domain=Simplex(N),
        mu=lam2 * N**2,
        ell=lam2 * N**2,
        fused=DROEvaluation,
    )

    base = dro.features

    def sampler(x, count, rng):
        draws = base[None] + dro.shift_scale * np.sin(np.atleast_2d(x))[:, None, :]
        if dro.noise_sigma > 0:
            draws = draws + dro.noise_sigma * rng.standard_normal((count, N, n))
        if draws.shape[0] < count:
            # Noiseless draws at one x: copies of one row, as a read-only view
            # with stride 0 on the first axis.
            draws = np.broadcast_to(draws, (count, N, n))
        return draws.reshape(count, d)

    oracle = DistributionOracle(d=d, sampler=sampler, batched=True)

    # Without noise the diag_samples draws are copies of one row that depends
    # on x alone. Each per-row result is computed on that row and repeated, so
    # the means add the same numbers in the same order as over diag_samples
    # drawn rows. A rejected trust-region step keeps x bitwise, so the last
    # result (two floats, never the draws) is served again at a repeated x.
    noiseless = dro.noise_sigma == 0

    def mean(per_row):
        if noiseless:
            per_row = np.repeat(per_row, diag_samples, axis=0)
        return np.mean(per_row, axis=0)

    def mc_evaluate(x, rng):
        # Monte-Carlo estimate of the primal value and gradient norm, with the
        # inner maximum solved in closed form: the y-part of the objective is
        # mean_losses^T y / N - (lam2 N^2 / 2) ||y - uniform||^2, an isotropic
        # quadratic whose constrained maximizer is one simplex projection.
        rows = DROEvaluation(x, oracle.sample(x, 1 if noiseless else diag_samples, rng))
        mean_losses = mean(rows.losses)  # (N,)
        y_star = problem.inner_domain.project(1.0 / N + mean_losses / (lam2 * N**3))
        reg = 0.5 * lam2 * float(np.sum((N * y_star - 1.0) ** 2))
        value = float(mean_losses @ y_star / N + _f_value(x, lam1, alpha) - reg)
        coef = rows.coef(y_star)  # (S, N)
        g1 = mean(np.einsum("sN,sNn->sn", coef, rows.a)) + _f_grad(x, lam1, alpha)
        g3_rows = mean(coef)[:, None] * x[None, :]  # (N, n)
        chain = dro.shift_scale * np.cos(x) * np.sum(g3_rows, axis=0)
        return value, float(np.linalg.norm(g1 + chain))

    last_key, last_result = None, None

    def mc_value_and_grad_norm(x, rng):
        nonlocal last_key, last_result
        if not noiseless:
            return mc_evaluate(x, rng)
        key = np.asarray(x, dtype=float).tobytes()
        if key != last_key:
            last_key, last_result = key, mc_evaluate(x, rng)
        return last_result

    diagnostics = OracleDiagnostics(
        value=lambda x, rng: mc_value_and_grad_norm(x, rng)[0],
        grad_norm=lambda x, rng: mc_value_and_grad_norm(x, rng)[1],
        sample_count=diag_samples,
        value_and_grad_norm=mc_value_and_grad_norm,
    )
    return Instance(
        problem=problem,
        oracle=oracle,
        diagnostics=diagnostics,
        x0_center=np.full(n, 2.0),
        x0_radius=0.5,
    )


# ---------------------------------------------------------------------------
# Data ingestion for the robust regression experiment.
# ---------------------------------------------------------------------------

_MISSING = {"", "na", "nan", "null"}


def load_credit_csv(
    path,
    label_column: str = "SeriousDlqin2yrs",
    feature_columns: Optional[Sequence[str]] = None,
) -> DROProblem:
    """Build a DROProblem from a credit-scoring CSV.

    Expected schema: a header row; one label column with values {0, 1}
    (mapped to {-1, +1}); every other listed column numeric.  Rows with
    missing values are dropped with a warning; features are standardized to
    zero mean and unit variance per column.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestionError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        if label_column not in header:
            raise IngestionError(f"{path}: label column {label_column!r} not in header")
        label_idx = header.index(label_column)
        if feature_columns is None:
            feat_idx = [i for i in range(len(header)) if i != label_idx]
        else:
            missing = [c for c in feature_columns if c not in header]
            if missing:
                raise IngestionError(f"{path}: feature columns not in header: {missing}")
            feat_idx = [header.index(c) for c in feature_columns]
        if not feat_idx:
            raise IngestionError(f"{path}: no feature columns")

        rows, labels, dropped = [], [], 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestionError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            cells = [row[i].strip() for i in feat_idx] + [row[label_idx].strip()]
            if any(c.lower() in _MISSING for c in cells):
                dropped += 1
                log.warning("%s:%d: dropping row with missing value", path, lineno)
                continue
            try:
                feats = [float(row[i]) for i in feat_idx]
                raw_label = float(row[label_idx])
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: non-numeric value ({exc})") from None
            if raw_label not in (0.0, 1.0):
                raise IngestionError(
                    f"{path}:{lineno}: label must be 0 or 1, got {raw_label}"
                )
            rows.append(feats)
            labels.append(2.0 * raw_label - 1.0)

    if not rows:
        raise IngestionError(f"{path}: no usable rows (dropped {dropped})")
    feats = np.asarray(rows)
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    std[std == 0.0] = 1.0
    log.info(
        "%s: loaded %d rows x %d features (%d dropped)", path, len(rows), feats.shape[1], dropped
    )
    return DROProblem(features=(feats - mean) / std, labels=np.asarray(labels))


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


def subsample(dro: DROProblem, n_rows: int, seed: int) -> DROProblem:
    """Deterministically subsample rows (without replacement) of a data set.

    ``lambda2`` is recomputed as its default 10 / N^2 for the new N; a caller
    with an explicit ``lambda2`` applies it to the result.
    """
    rng = _row_rng(n_rows, seed)
    if n_rows > dro.n_rows:
        raise ConfigurationError(f"cannot subsample {n_rows} of {dro.n_rows} rows")
    idx = np.sort(rng.choice(dro.n_rows, size=n_rows, replace=False))
    return replace(dro, features=dro.features[idx], labels=dro.labels[idx], lambda2=None)
