"""Instrumentation of ddtr from the outside.

Nothing under ``src/`` knows about it.  Two kinds of callable are replaced
for the duration of one benchmark pass and restored afterwards:

* the callables held by a built instance (the problem's loss and gradients,
  the oracle's sampler, the diagnostics), through ``dataclasses.replace``;
* module attributes that the drivers look up at call time
  (``llr.generate_poised_set``, ``tr.iterate``, ``cli.run_one``, ...).

``OpProbe`` is the only hook of an untraced pass: it counts the rows the
solver draws from the oracle and stamps the first diagnostics evaluation
whose iterate meets the workload's accuracy target.  ``Tracer`` adds the
per-layer spans of a traced pass.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Optional

EVALUATORS = ("loss", "grad1", "grad2", "grad3")
DIAGNOSTIC_CALLABLES = ("value", "grad_norm", "value_and_grad_norm")


@contextmanager
def patched(replacements):
    """Set ``(module, attribute, value)`` triples, restoring the originals on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class TargetReached(BaseException):
    """Raised by a stopping ``OpProbe`` to end a run once its target is met.

    A ``BaseException``, so no ``except Exception`` on the way out catches it.
    """


class OpProbe:
    """Outside view of one operation: solver oracle rows and time to target.

    Diagnostics are evaluated once per iteration at ``x_k`` (and once more at
    the final iterate by ``cli.run_one``).  The stamp is taken when the first
    evaluation whose iterate meets the target returns, and carries the rows
    the solver had drawn by then.  With ``stop=True`` the probe then raises
    ``TargetReached``, which ends the run there: a repeat of a seeded run that
    only times the way to its target.
    """

    def __init__(self, target: Callable, stop: bool = False):
        self.target = target
        self.stop = stop
        self.start = time.perf_counter()
        self.rows = 0
        self.evals = 0
        self.first: Optional[tuple[float, float]] = None
        self.hit: Optional[tuple[float, int, int]] = None  # (seconds, rows, evaluation index)
        self.last: Optional[tuple[float, int]] = None  # (seconds, rows)
        self._value: Optional[tuple[bytes, float]] = None

    def instrument(self, instance):
        sampler = instance.oracle.sampler

        def counted(x, count, rng):
            self.rows += count
            return sampler(x, count, rng)

        diag = instance.diagnostics
        hooks = {}
        if diag.value_and_grad_norm is not None:

            def value_and_grad_norm(x, rng):
                phi, grad = diag.value_and_grad_norm(x, rng)
                self._record(x, float(phi), float(grad))
                return phi, grad

            hooks["value_and_grad_norm"] = value_and_grad_norm

        # value and grad_norm are also called one after the other at one x
        # (OracleDiagnostics.evaluate without a joint callable; the baselines).
        def value(x, rng):
            phi = diag.value(x, rng)
            self._value = (x.tobytes(), float(phi))
            return phi

        def grad_norm(x, rng):
            grad = diag.grad_norm(x, rng)
            if self._value is not None and self._value[0] == x.tobytes():
                self._record(x, self._value[1], float(grad))
                self._value = None
            return grad

        hooks.update(value=value, grad_norm=grad_norm)
        self.start = time.perf_counter()
        return replace(
            instance,
            oracle=replace(instance.oracle, sampler=counted),
            diagnostics=replace(diag, **hooks),
        )

    def _record(self, x, phi: float, grad: float) -> None:
        now = time.perf_counter() - self.start
        if self.first is None:
            self.first = (phi, grad)
        if self.hit is None and self.target(x, phi, grad, self.first):
            self.hit = (now, self.rows, self.evals)
            if self.stop:
                raise TargetReached
        self.evals += 1
        self.last = (now, self.rows)

    def to_target(self, fallback_seconds: float) -> tuple[float, int]:
        """Seconds and solver rows until the target was met; an operation that
        never meets it is censored at its last evaluation."""
        if self.hit is not None:
            return self.hit[0], self.hit[1]
        if self.last is not None:
            return self.last
        return fallback_seconds, self.rows


class Tracer:
    """Per-layer calls, rows, busy time and self time, kept in memory.

    A layer's self time is its span time minus the time of its child spans.
    Spans of the hot leaf layers (sampler, evaluators) are only aggregated;
    every other span is kept as ``(id, name, parent id, start, end)``.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, self seconds, rows]
        self.extra: Counter = Counter()
        self.spans: list[tuple] = []
        self.seen: set = set()  # (diagnostic callable, x bytes) in the current operation
        self._root = [0.0, -1]  # [child seconds, span id]
        self._stack = [self._root]
        self._ids = itertools.count()
        self.stat("core.sample")

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    @property
    def top_seconds(self) -> float:
        """Time spent inside top-level spans."""
        return self._root[0]

    def wrap(self, name: str, fn: Callable, rows: Optional[Callable] = None, span: bool = True):
        stat = self.stat(name)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, next(ids) if span else parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if rows is not None:
                    stat[3] += rows(args)
                if span:
                    spans.append((frame[1], name, parent[1], start, end))

        return traced

    def instrument(self, instance):
        """Wrap the instance callables; starts a new operation."""
        self.seen = set()
        problem = instance.problem
        evaluators = {
            g: self.wrap(f"problems.{g}", getattr(problem, g), rows=_omega_rows, span=False)
            for g in EVALUATORS
        }
        sampler = self.wrap("core.sample", instance.oracle.sampler, rows=_count_rows, span=False)
        diag = instance.diagnostics
        hooks = {
            key: self.wrap("problems.diag", self._diagnostic(key, fn, diag.sample_count))
            for key in DIAGNOSTIC_CALLABLES
            if (fn := getattr(diag, key)) is not None
        }
        return replace(
            instance,
            problem=replace(problem, **evaluators),
            oracle=replace(instance.oracle, sampler=sampler),
            diagnostics=replace(diag, **hooks),
        )

    def _diagnostic(self, key: str, fn: Callable, draws: int):
        def diagnostic(x, rng):
            seen_key = (key, x.tobytes())
            if seen_key in self.seen:
                self.extra["diag_repeats"] += 1
            else:
                self.seen.add(seen_key)
            self.extra["diag_draws"] += draws
            return fn(x, rng)

        return diagnostic

    def module_patches(self, ddtr) -> list[tuple]:
        """The ``(module, attribute, replacement)`` triples of a traced pass."""
        cli, tr, llr, baselines = ddtr.cli, ddtr.tr, ddtr.llr, ddtr.baselines
        sample_rows = self.stats["core.sample"]
        extra = self.extra

        generate = llr.generate_poised_set

        def poised(oracle, center, radius, count, *args, **kwargs):
            before = sample_rows[3]
            result = generate(oracle, center, radius, count, *args, **kwargs)
            extra["redraw_rows"] += sample_rows[3] - before - count
            return result

        maximize = tr.maximize_over_scenarios
        convergence_error = ddtr.InnerConvergenceError

        def inner(*args, **kwargs):
            try:
                report = maximize(*args, **kwargs)
            except convergence_error:
                extra["inner_failed"] += 1
                raise
            extra["inner_iters"] += report.iterations
            return report

        plain = [
            (llr, "fit", "llr.fit"),
            (tr, "surrogate_value_and_xgrad", "tr.surrogate"),
            (tr, "estimate_value", "tr.estimate_value"),
            (tr, "iterate", "tr.iterate"),
            (tr, "solve", "tr.solve"),
            (baselines, "spd_step", "baselines.step"),
            (baselines, "asgda_step", "baselines.step"),
            (baselines, "run_baseline", "baselines.run"),
            (cli, "run_one", "cli.run_one"),
        ]
        return [
            (llr, "generate_poised_set", self.wrap("llr.poised", poised)),
            (tr, "maximize_over_scenarios", self.wrap("inner.solve", inner)),
        ] + [(module, attr, self.wrap(name, getattr(module, attr))) for module, attr, name in plain]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Self time summed per module prefix (``core``, ``llr``, ...)."""
        layers: dict[str, float] = {}
        for name, (_, _, self_s, _) in self.stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + self_s
        return layers


def _count_rows(args) -> int:
    return args[1]


def _omega_rows(args) -> int:
    return len(args[2])
