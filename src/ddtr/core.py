"""Problem abstractions, inner-domain geometry and shared numeric helpers.

Conventions used throughout the package:

* all vectors are dense float64 numpy arrays; ``x`` has shape ``(n,)``,
  ``y`` has shape ``(m,)`` and a batch of random draws has shape ``(S, d)``;
* the per-draw loss and gradients are vectorized over the random variable:
  they take ``(x, y, omegas)`` with ``omegas`` of shape ``(S, d)`` and
  return arrays of shape ``(S,)``, ``(S, n)``, ``(S, m)`` and ``(S, d)``
  respectively;
* every caller evaluates a problem through ``ProblemSpec.bind``, which binds
  one ``(x, omegas)``; ``omegas`` is an ``(S, d)`` array of draws or a fitted
  ``llr.LLRModel`` of that ``shape``, whose scenarios are its ``rows(x)`` at
  the binding's own x. The binding's ``loss(y)`` ...
  ``grad3(y)`` return the scenario means of the per-draw loss and gradients,
  of shapes ``()``, ``(n,)``, ``(m,)`` and ``(d,)``: ``np.mean`` of the
  per-draw array over axis 0, bit for bit for ``Evaluation``, to within
  rounding if ``fused``;
* every stochastic operation takes an explicit ``numpy.random.Generator``
  from ``make_rng``'s counter-based bit generator, so reruns with the
  same seed are bit-identical and generators can be split deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np


class ContractViolationError(ValueError):
    """An argument violates a documented interface contract (e.g. wrong shape)."""


class ConfigurationError(ValueError):
    """A configuration value is outside its admissible range."""


class PoisednessError(RuntimeError):
    """The sample-set conditioning target could not be met."""

    def __init__(self, message: str, best_metric: float):
        super().__init__(message)
        self.best_metric = best_metric


class SingularFitError(RuntimeError):
    """The regression design is rank deficient."""


class InnerConvergenceError(RuntimeError):
    """The inner maximizer hit its iteration cap before certifying accuracy."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class IngestionError(ValueError):
    """A data file could not be parsed into a usable problem instance."""


class SchemaError(ValueError):
    """A run CSV or summary.json cannot be read back as run output."""


def make_rng(seed: Union[int, Sequence[int]]) -> np.random.Generator:
    """Counter-based Philox generator seeded by an integer or a sequence of integers."""
    return np.random.Generator(np.random.Philox(seed))


def drive(state, step: Callable, stop: Callable, seed, on_record: Callable):
    """Step until ``stop(state)`` names the termination; each record goes to ``on_record``."""
    rng = make_rng(seed)
    while (termination := stop(state)) is None:
        state, record = step(state, rng)
        on_record(record)
    return replace(state, termination=termination)


def as_vector(v, dim: int, name: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (dim,):
        raise ContractViolationError(f"{name} must have shape ({dim},), got {v.shape}")
    if not np.isfinite(v).all():
        raise ContractViolationError(f"{name} must be finite")
    return v


def scenario_mean(a: np.ndarray) -> np.ndarray:
    """``np.mean(a, axis=0)`` bit for bit, without its wrapper's per-call cost."""
    return np.add.reduce(a, axis=0) / a.shape[0]


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector (Frobenius of a matrix), finite whenever
    every entry is: a sum of squares that overflows, past entries of about
    1.3e154, is taken again over the entries divided by the largest."""
    with np.errstate(over="ignore"):
        result = float(np.linalg.norm(v))
    if result == math.inf and np.isfinite(v).all():
        scale = float(np.max(np.abs(v)))
        result = scale * float(np.linalg.norm(v / scale))
    return result


@dataclass(frozen=True)
class Box:
    """Axis-aligned box ``[lower, upper]`` in R^m."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise ConfigurationError("box requires lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def project(self, y: np.ndarray) -> np.ndarray:
        y = as_vector(y, self.dim, "y")
        return np.minimum(np.maximum(y, self.lower), self.upper)  # np.clip for finite y

    def center(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)


@dataclass(frozen=True)
class Simplex:
    """The probability simplex {y >= 0 : sum(y) = 1} in R^dim."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError("simplex dimension must be >= 1")

    def project(self, y: np.ndarray) -> np.ndarray:
        # Sort-based exact Euclidean projection, O(m log m)
        # (Held/Wolfe/Crowder; see also Duchi et al. 2008).
        y = as_vector(y, self.dim, "y")
        u = np.sort(y)[::-1]
        # The threshold (1 - css) / j loses about eps * max|y| to rounding, so
        # the sums are taken only over entries within [-1, 1].
        if u[0] <= 1.0 and u[-1] >= -1.0:
            css = np.cumsum(u)
            j = np.arange(1, self.dim + 1)
            cand = u + (1.0 - css) / j
            rho = np.nonzero(cand > 0)[0][-1]  # cand[0] is about 1
            theta = (1.0 - css[rho]) / (rho + 1.0)
            return np.maximum(y + theta, 0.0)
        # The same projection is that of y - max(y), whose theta is <= 1, so
        # every entry below -1 projects to 0 and may be raised to -1.
        with np.errstate(over="ignore"):
            shifted = y - u[0]
        return self.project(np.maximum(shifted, -1.0))

    def center(self) -> np.ndarray:
        return np.full(self.dim, 1.0 / self.dim)


InnerDomain = Union[Box, Simplex]


@dataclass(frozen=True)
class ProblemSpec:
    """A minimax instance: its geometry and its loss with three partial gradients.

    The loss is given as a ``fused(x, omegas)`` binding, or as four per-draw
    callables that the default binding, ``Evaluation``, averages:
    ``loss(x, y, omegas)`` evaluates the integrand on a batch of scenarios and
    ``grad1``/``grad2``/``grad3`` are its partial gradients with respect to
    the first (x), second (y) and third (omega) block.  ``mu`` is the strong
    concavity modulus of the loss in ``y`` over the inner domain and ``ell``
    an upper bound on the smoothness (gradient Lipschitz constant) of any
    scenario average in ``y``; both are per-problem constants used by the
    inner maximizer.
    """

    n: int
    m: int
    d: int
    inner_domain: InnerDomain
    mu: float
    ell: float
    loss: Optional[Callable[..., np.ndarray]] = None
    grad1: Optional[Callable[..., np.ndarray]] = None
    grad2: Optional[Callable[..., np.ndarray]] = None
    grad3: Optional[Callable[..., np.ndarray]] = None
    fused: Optional[Callable[[np.ndarray, np.ndarray], Evaluation]] = None

    def bind(self, x: np.ndarray, omegas) -> Evaluation:
        """The loss and gradients at one ``(x, omegas)`` as functions of ``y``;
        ``omegas`` is an array of draws or a fitted model (module docstring)."""
        return Evaluation(self, x, omegas) if self.fused is None else self.fused(x, omegas)

    def __post_init__(self):
        if min(self.n, self.m, self.d) < 1:
            raise ConfigurationError("dimensions must be positive")
        if self.mu <= 0:
            raise ConfigurationError("mu must be positive")
        if self.ell < self.mu:
            raise ConfigurationError("ell must be at least mu")
        if getattr(self.inner_domain, "dim") != self.m:
            raise ConfigurationError("inner domain dimension must equal m")
        if self.fused is None and None in (self.loss, self.grad1, self.grad2, self.grad3):
            raise ConfigurationError("a problem without a fused binding needs all four callables")


class Evaluation:
    """The default binding: a problem's per-draw callables at one ``(x, omegas)``,
    averaged over the scenarios. A ``fused`` binding's methods must return what
    these would return for its problem's per-draw loss and gradients to within
    rounding, each a function of ``y`` alone, with the same bits in any call order.
    A binding may hold arrays derived from ``omegas``: do not mutate them in use.
    This one builds a model's rows at ``x``, once."""

    def __init__(self, problem: ProblemSpec, x: np.ndarray, omegas):
        rows = omegas.rows(x) if hasattr(omegas, "rows") else np.asarray(omegas)
        self.problem, self.x, self.omegas = problem, x, rows

    def loss(self, y: np.ndarray) -> np.ndarray:
        return scenario_mean(self.problem.loss(self.x, y, self.omegas))

    def grad1(self, y: np.ndarray) -> np.ndarray:
        return scenario_mean(self.problem.grad1(self.x, y, self.omegas))

    def grad2(self, y: np.ndarray) -> np.ndarray:
        return scenario_mean(self.problem.grad2(self.x, y, self.omegas))

    def grad3(self, y: np.ndarray) -> np.ndarray:
        return scenario_mean(self.problem.grad3(self.x, y, self.omegas))


@dataclass(frozen=True)
class DistributionOracle:
    """Black-box sampler producing i.i.d. draws from D(x) for any query x.

    ``sampler(x, count, rng)`` takes one point, ``x`` of shape ``(n,)``, and
    returns ``count`` draws at it; or ``count`` points, ``x`` of shape
    ``(count, n)``, and returns a new, writable array holding one draw per
    row, equal bit for bit to the single-row draws ``sampler(x[i], 1, rng)``
    taken in row order.  Either way it must return a finite array of shape
    ``(count, d)``; ``sample`` raises on any other.  Draws with an identical
    generator state are bit-identical; callers never share one generator
    across threads.  The draws at one point may be read-only with rows that
    share memory, such as a view with stride 0 that repeats one row; callers
    must not write into it.  A binding may evaluate such a batch once (the
    ``dro`` one does).
    """

    d: int
    sampler: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]

    def sample(self, x: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
        if count < 1:
            raise ConfigurationError("sample count must be >= 1")
        draws = np.asarray(self.sampler(x, count, rng), dtype=float)
        if draws.shape != (count, self.d):
            raise ContractViolationError(
                f"oracle returned shape {draws.shape}, expected ({count}, {self.d})"
            )
        # A NaN or inf draw would poison every fit and mean it enters. Rows
        # that share memory (stride 0) are checked once.
        if not np.isfinite(draws[:1] if draws.strides[0] == 0 else draws).all():
            raise ContractViolationError("oracle returned a non-finite draw")
        return draws


@dataclass(frozen=True)
class OracleDiagnostics:
    """Ground truth logged alongside the run when available.

    ``value_and_grad_norm(x, rng)`` returns the primal value and its gradient
    norm at ``x``; ``evaluate`` calls it with the caller's generator and spawns
    none.  ``sample_count`` is the draws one call takes, 0 for an exact
    diagnostic: both shipped ones are exact and ignore ``rng``, the synthetic
    closed form and the dro quadrature.  ddtr never calls ``value`` or
    ``grad_norm``: they exist only because the benchmark's tracer
    (``perfbench/tracing.py``) replaces them by name.  The tracer also
    patches ``tr.solve``, ``baselines.run_baseline`` and the steps
    ``tr.iterate``, ``spd_step`` and ``asgda_step``, so these keep their
    names although ``drive`` runs every loop, and a run looks its step up
    in its module rather than binding it at import.
    """

    value_and_grad_norm: Callable[[np.ndarray, np.random.Generator], tuple[float, float]]
    value: Optional[Callable[[np.ndarray, np.random.Generator], float]] = None
    grad_norm: Optional[Callable[[np.ndarray, np.random.Generator], float]] = None
    sample_count: int = 0

    def evaluate(self, x: np.ndarray, rng: np.random.Generator) -> tuple[float, float]:
        phi, grad = self.value_and_grad_norm(x, rng)
        return float(phi), float(grad)


def uniform_ball_sample(
    center: np.ndarray, radius: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` points uniformly from the closed ball B(center, radius).

    Gaussian direction normalized to the sphere, scaled by U^(1/n) for exact
    uniformity in any dimension.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = center.shape[0]
    if radius <= 0:
        raise ConfigurationError("ball radius must be positive")
    if count < 1:
        raise ConfigurationError("sample count must be >= 1")
    g = rng.standard_normal((count, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / n)
    return center + r * g / norms
