import math
from dataclasses import replace

import numpy as np
import pytest

from ddtr.baselines import (
    RIDGE,
    BaselineConfig,
    BaselineState,
    OnlineAffineModel,
    _diverged,
    asgda_step,
    run_baseline,
    spd_step,
)
from ddtr.core import (
    Box,
    ConfigurationError,
    DistributionOracle,
    ProblemSpec,
    Simplex,
    make_rng,
)
from ddtr.problems import dro_instance, generate_synthetic_credit, synthetic_instance

from util import affine_fit, in_domain, quadratic_problem, record_bytes


def affine_oracle(slope, intercept, sigma=0.0):
    slope = np.atleast_2d(np.asarray(slope, dtype=float))  # (n, d)

    def mean(x):
        return slope.T @ x + np.atleast_1d(intercept)

    def sampler(x, count, rng):
        # A batch of points takes the one-point mean row by row.
        draws = np.tile(mean(x), (count, 1)) if x.ndim == 1 else np.array([mean(row) for row in x])
        if sigma > 0:
            draws = draws + sigma * rng.standard_normal(draws.shape)
        return draws

    return DistributionOracle(d=slope.shape[1], sampler=sampler)


class TestConfig:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            BaselineConfig(method="sgd")

    def test_dynamic_stepsize_schedule(self):
        config = BaselineConfig(method="spd-dynamic", dyn_a=1000.0, dyn_b=10.0)
        assert config.stepsize(0) == pytest.approx(1e-3)
        assert config.stepsize(100) == pytest.approx(1.0 / 2000.0)

    def test_constant_stepsize(self):
        config = BaselineConfig(method="spd-constant", eta=1e-2)
        assert config.stepsize(57) == pytest.approx(1e-2)

    @pytest.mark.parametrize("field", ["eta_y", "eta", "dyn_a", "dyn_b", "forget"])
    def test_config_rejects_nan(self, field):
        # A NaN fails every comparison, so each check must be one that NaN fails.
        with pytest.raises(ConfigurationError):
            BaselineConfig(**{field: math.nan})

    @pytest.mark.parametrize("dyn_a, dyn_b", [(0.0, 10.0), (-5.0, 10.0), (1000.0, -1.0)])
    def test_dynamic_coefficients_validated(self, dyn_a, dyn_b):
        # dyn_a = 0 divided by zero at step 0; a negative one gave a negative stepsize.
        with pytest.raises(ConfigurationError, match="dyn_"):
            BaselineConfig(method="spd-dynamic", dyn_a=dyn_a, dyn_b=dyn_b)


    def test_negative_max_iters_rejected(self):
        # It built and ran 0 steps; TRConfig rejects it too.
        with pytest.raises(ConfigurationError, match="max_iters"):
            BaselineConfig(max_iters=-1)


class TestSPD:
    def test_dual_ascent_contracts_to_interior_maximizer(self):
        # Pure -|y|^2 objective: gradient ascent in y pulls toward 0.
        problem = quadratic_problem([2.0, 2.0], Box(np.full(2, -4.0), np.full(2, 4.0)))
        oracle = affine_oracle(np.zeros((1, 2)), np.zeros(2))
        config = BaselineConfig(method="spd-constant", eta=0.2, batch=4, seed=0)
        state = BaselineState(
            x=np.zeros(1), y=np.array([3.0, -2.5]), k=0, model=None
        )
        for _ in range(60):
            state = spd_step(state, problem, oracle, config, make_rng(state.k))
        assert np.linalg.norm(state.y) < 1e-3

    def test_projection_applied_every_update(self):
        problem = quadratic_problem([1.0, 1.0, 1.0], Simplex(3))
        oracle = affine_oracle(np.zeros((1, 3)), np.array([5.0, 0.0, 0.0]))
        config = BaselineConfig(method="spd-constant", eta=0.5, batch=2, seed=0)
        state = BaselineState(
            x=np.zeros(1), y=np.full(3, 1 / 3), k=0, model=None
        )
        for _ in range(20):
            state = spd_step(state, problem, oracle, config, make_rng(state.k))
            assert in_domain(Simplex(3), state.y)

    def test_diverges_on_synthetic_from_ten(self):
        inst = synthetic_instance()
        for method in ("spd-constant", "spd-dynamic"):
            config = BaselineConfig(method=method, batch=500, max_iters=5000, seed=1)
            state, history = run_baseline(
                np.array([10.0]), np.array([10.0]), inst.problem, inst.oracle, config
            )
            assert state.termination == "diverged"
            assert len(history) < 5000

    def test_huge_step_diverges_without_overflow(self):
        # One step takes x to about 2e163, whose square overflows: the run
        # ends diverged with no floating-point warning, which pytest raises.
        inst = synthetic_instance()
        config = BaselineConfig(method="spd-constant", eta=1e160, batch=5, max_iters=3, seed=1)
        x0, y0 = inst.draw_start(make_rng(1))
        state, history = run_baseline(x0, y0, inst.problem, inst.oracle, config, inst.diagnostics)
        assert state.termination == "diverged" and len(history) == 1
        assert abs(state.x[0]) > 1e160 and math.isfinite(history[0].grad_norm_est)

    @pytest.mark.parametrize("method", ["spd-constant", "asgda"])
    def test_step_past_the_float_range_diverges_without_overflow(self, method):
        # eta * gx passes the float range: x becomes infinite and the run
        # ends diverged, with no overflow warning, which pytest raises.
        inst = synthetic_instance()
        config = BaselineConfig(method=method, eta=1e306, batch=5, max_iters=3, seed=1)
        x0, y0 = inst.draw_start(make_rng(1))
        state, history = run_baseline(x0, y0, inst.problem, inst.oracle, config, inst.diagnostics)
        assert state.termination == "diverged" and len(history) == 1
        assert np.isinf(state.x[0])

    def test_divergence_threshold(self):
        assert _diverged(np.array([1e9]), np.zeros(1))
        assert not _diverged(np.array([1e7]), np.zeros(1))
        assert _diverged(np.array([np.nan]), np.zeros(1))
        assert _diverged(np.array([0.0]), np.array([np.inf]))

    def test_non_finite_dual_ends_the_run(self):
        # x climbs by eta a step, and grad2 is infinite once x > 1: the dual
        # step from x = 1.05 is not finite, and that row is the run's last.
        def per_draw(value):
            return lambda x, y, w: np.full((w.shape[0], 1), value(x))

        problem = ProblemSpec(
            n=1, m=1, d=1, inner_domain=Box(np.full(1, -1.0), np.full(1, 1.0)), mu=1.0, ell=1.0,
            loss=lambda x, y, w: np.zeros(w.shape[0]), grad1=per_draw(lambda x: -1.0),
            grad2=per_draw(lambda x: math.inf if x[0] > 1 else 0.0), grad3=per_draw(lambda x: 0.0),
        )
        oracle = affine_oracle(np.zeros((1, 1)), np.zeros(1))
        config = BaselineConfig(method="spd-constant", eta=0.1, batch=2, max_iters=20, seed=0)
        state, history = run_baseline(np.array([0.45]), None, problem, oracle, config)
        assert state.termination == "diverged"
        assert len(history) == 7 and not np.all(np.isfinite(state.y))


class TestASGDA:
    def test_online_model_recovers_affine_truth(self):
        # Noiseless affine map and a wandering x: the recursive fit should
        # land on the exact coefficients.
        slope = np.array([[1.5, -0.5], [0.25, 2.0]])  # n=2, d=2
        intercept = np.array([0.3, -1.0])
        oracle = affine_oracle(slope, intercept)
        model = OnlineAffineModel.empty(2, 2)
        rng = make_rng(0)
        for k in range(100):
            x = rng.normal(size=2)
            draws = oracle.sample(x, 8, rng)
            model = model.update(x, draws, forget=0.99)
        theta = affine_fit(model)
        assert np.allclose(theta[:2], slope, atol=1e-6)
        assert np.allclose(theta[2], intercept, atol=1e-6)
        # chain(e_j) = A @ e_j is column j of the slope.
        for j, e_j in enumerate(np.eye(2)):
            assert np.allclose(model.chain(e_j), slope[:, j], atol=1e-6)

    def test_chain_is_the_slope_of_the_full_fit(self):
        # On a well-conditioned design, the one-vector solve gives the fit's
        # A @ v to rounding.
        n, d = 3, 7
        oracle = affine_oracle(np.arange(n * d).reshape(n, d) / 10.0, np.ones(d), sigma=0.5)
        model = OnlineAffineModel.empty(n, d)
        rng = make_rng(2)
        for _ in range(30):
            x = rng.normal(size=n)
            model = model.update(x, oracle.sample(x, 4, rng), forget=0.99)
        assert np.linalg.cond(model.zz + RIDGE * np.eye(n + 1)) < 1e3
        theta = affine_fit(model)
        for _ in range(5):
            v = rng.normal(size=d)
            expected = theta[:n] @ v
            assert np.linalg.norm(model.chain(v) - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_stride_zero_batch_adds_count_times_its_row(self):
        rng = make_rng(4)
        n, d = 5, 1000
        x, row = rng.normal(size=n), rng.normal(size=d)
        z = np.append(x, 1.0)
        empty = OnlineAffineModel.empty(n, d)
        strided = empty.update(x, np.broadcast_to(row, (500, d)), forget=0.99)
        assert np.array_equal(strided.zw, np.outer(z, 500 * row))
        tiled = empty.update(x, np.tile(row, (500, 1)), forget=0.99)
        assert np.array_equal(strided.zz, tiled.zz)
        assert np.linalg.norm(strided.zw - tiled.zw) <= 1e-13 * np.linalg.norm(tiled.zw)

    def test_step_matches_deterministic_gda_once_model_exact(self):
        # After the model converges on a noiseless affine map, one asgda step
        # must equal the hand-written chain-rule gradient update.
        slope = np.array([[2.0]])
        intercept = np.array([-6.0])
        oracle = affine_oracle(slope, intercept)
        problem = synthetic_instance().problem
        config = BaselineConfig(method="asgda", eta=1e-3, eta_y=1e-1, batch=4, seed=0)
        state = BaselineState(
            x=np.array([2.0]), y=np.array([1.0]), k=0,
            model=OnlineAffineModel.empty(1, 1),
        )
        rng = make_rng(1)
        for _ in range(50):
            state = asgda_step(state, problem, oracle, config, rng)
        assert state.model.chain(np.ones(1))[0] == pytest.approx(2.0, abs=1e-6)

        x, y = state.x.copy(), state.y.copy()
        w = slope.T @ x + intercept
        g1 = 2.0 * x[0] - 2.0 * w[0]
        g3 = -2.0 * (x[0] + y[0])
        expected_x = x[0] - config.eta * (g1 + 2.0 * g3)
        state = asgda_step(state, problem, oracle, config, rng)
        assert state.x[0] == pytest.approx(expected_x, abs=1e-5)

    def test_diverges_on_synthetic_from_ten(self):
        inst = synthetic_instance()
        config = BaselineConfig(
            method="asgda", eta=1e-3, eta_y=1e-1, batch=500, max_iters=5000, seed=2
        )
        state, history = run_baseline(
            np.array([10.0]), np.array([10.0]), inst.problem, inst.oracle, config
        )
        assert state.termination == "diverged"
        assert len(history) < 5000

    def test_eta_sets_the_x_step(self):
        inst = synthetic_instance()
        runs = [
            run_baseline(
                np.array([1.0]), None, inst.problem, inst.oracle,
                BaselineConfig(method="asgda", batch=32, max_iters=5, seed=3, **params),
            )[1]
            for params in ({}, {"eta": 0.5})
        ]
        assert [r.stepsize for r in runs[1]] == [0.5] * 5
        assert runs[0][-1].x_after.tobytes() != runs[1][-1].x_after.tobytes()

    def test_y_stays_in_domain(self):
        inst = synthetic_instance()
        config = BaselineConfig(method="asgda", batch=32, max_iters=40, seed=3)
        state = BaselineState(
            x=np.array([1.0]), y=np.array([10.0]), k=0,
            model=OnlineAffineModel.empty(1, 1),
        )
        rng = make_rng(5)
        for _ in range(40):
            state = asgda_step(state, inst.problem, inst.oracle, config, rng)
            assert in_domain(inst.problem.inner_domain, state.y)
            if _diverged(state.x, state.y):
                break


def spied_dro_asgda_solves(monkeypatch, steps: int) -> list:
    """``(matrix, rhs, solution)`` of every ``np.linalg.solve`` made by
    ``steps`` asgda steps on the noiseless DRO instance of the baselines
    benchmark (N = 200, n = 5, d = 1000, batch 500) from run seed 1's start."""
    inst = dro_instance(generate_synthetic_credit(200, 5, 0))
    problem = inst.problem
    solve, calls = np.linalg.solve, []

    def spy(a, b):
        t = solve(a, b)
        calls.append((a, b, t))
        return t

    monkeypatch.setattr(np.linalg, "solve", spy)
    x0, _ = inst.draw_start(make_rng(1))
    state = BaselineState(
        x=x0, y=problem.inner_domain.center(), k=0,
        model=OnlineAffineModel.empty(problem.n, problem.d),
    )
    config, rng = BaselineConfig(method="asgda"), make_rng(1)
    for _ in range(steps):
        state = asgda_step(state, problem, inst.oracle, config, rng)
    return calls


class TestASGDASolve:
    def test_step_solves_for_one_vector(self, monkeypatch):
        # The step reads the model only as A @ grad3: one (n + 1) right-hand
        # side a step, never the (n + 1, d) fit of every column.
        calls = spied_dro_asgda_solves(monkeypatch, 5)
        assert len(calls) == 5
        assert [b.shape for _, b, _ in calls] == [(6,)] * 5

    def test_ill_conditioned_solve_is_backward_stable(self, monkeypatch):
        # All draws of a step come at one x, so the design is rank one a step
        # and zz + RIDGE I is near singular (cond 1e12 here). The solve must
        # still be backward stable: its residual is rounding of the matrix.
        calls = spied_dro_asgda_solves(monkeypatch, 9)
        eps = np.finfo(float).eps
        for a, b, t in calls[1:]:  # after 1-8 model updates; the first is at RIDGE I
            assert np.linalg.cond(a) >= 1e8
            bound = 10 * a.shape[0] * eps * np.linalg.norm(a, 2) * np.linalg.norm(t)
            assert np.linalg.norm(a @ t - b) <= bound


class TestRunBaseline:
    def test_reproducible(self):
        inst = synthetic_instance()
        config = BaselineConfig(method="spd-constant", batch=16, max_iters=30, seed=11)
        a = run_baseline(np.array([1.0]), None, inst.problem, inst.oracle, config)[1]
        b = run_baseline(np.array([1.0]), None, inst.problem, inst.oracle, config)[1]
        assert len(a) == len(b)
        for ra, rb in zip(a, b):
            assert ra.x_after.tobytes() == rb.x_after.tobytes()

    def test_records_oracle_diagnostics(self):
        inst = synthetic_instance()
        config = BaselineConfig(method="spd-constant", eta=1e-5, batch=8, max_iters=5, seed=0)
        state, history = run_baseline(
            np.array([1.0]), None, inst.problem, inst.oracle, config, inst.diagnostics
        )
        assert all(np.isfinite(r.oracle_phi) for r in history)
        assert state.termination == "max_iters" and len(history) == 5

    def test_divergence_on_the_last_allowed_step_reads_diverged(self):
        # From x0 = 10, spd-constant diverges at its seventh step: with a
        # budget of seven the divergence still names the end, and the step
        # that diverged keeps its row, with no diagnostics.
        inst = synthetic_instance()
        config = BaselineConfig(method="spd-constant", batch=500, max_iters=5000, seed=1)
        _, full = run_baseline(
            np.array([10.0]), None, inst.problem, inst.oracle, config, inst.diagnostics
        )
        assert len(full) == 7
        state, history = run_baseline(
            np.array([10.0]), None, inst.problem, inst.oracle, replace(config, max_iters=7),
            inst.diagnostics,
        )
        assert state.termination == "diverged" and len(history) == 7
        assert math.isnan(history[-1].oracle_phi) and math.isnan(history[-1].oracle_grad_norm)
        assert all(math.isfinite(r.oracle_phi) for r in history[:-1])

    @pytest.mark.parametrize("method", ["spd-constant", "asgda"])
    def test_on_record_gets_the_records_of_a_plain_run(self, method):
        # From x0 = 10 both methods diverge: the streamed records end with that row.
        inst = synthetic_instance()
        config = BaselineConfig(method=method, batch=500, max_iters=5000, seed=1)
        args = (np.array([10.0]), None, inst.problem, inst.oracle, config, inst.diagnostics)
        state, history = run_baseline(*args)
        streamed = []
        streamed_state, rest = run_baseline(*args, streamed.append)
        assert rest == [] and streamed_state.termination == state.termination == "diverged"
        assert [record_bytes(r) for r in streamed] == [record_bytes(r) for r in history]

    @pytest.mark.parametrize("method", ["spd-constant", "asgda"])
    def test_zero_iterations(self, method):
        inst = synthetic_instance()
        config = BaselineConfig(method=method, max_iters=0, seed=1)
        state, history = run_baseline(np.array([1.0]), None, inst.problem, inst.oracle, config)
        assert state.termination == "max_iters" and history == [] and state.k == 0
