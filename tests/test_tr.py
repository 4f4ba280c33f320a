import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ddtr.core import (
    Box,
    ConfigurationError,
    DistributionOracle,
    OracleDiagnostics,
    ProblemSpec,
    make_rng,
    norm,
)
from ddtr.llr import fit, generate_poised_set
from ddtr.problems import (
    dro_instance,
    generate_synthetic_credit,
    synthetic_instance,
    synthetic_primal,
)
from ddtr.tr import (
    GRAD_FLOOR,
    PRED_FLOOR,
    SampleSchedule,
    TRConfig,
    TRState,
    estimate_value,
    iterate,
    solve,
)

from util import affine_map_problem, directional_fd, llr_model, scalar_oracle, surrogate_at


def small_config(**kw):
    defaults = dict(
        llr_schedule=SampleSchedule(minimum=40, maximum=40),
        value_schedule=SampleSchedule(minimum=40, maximum=40),
        max_iters=20,
        seed=0,
    )
    defaults.update(kw)
    return TRConfig(**defaults)


def x_free_problem(grad1_value):
    """A loss of y alone whose grad1 is the constant ``grad1_value`` and grad3
    is 0: the surrogate x-gradient is that constant, and a step never
    changes the surrogate value."""
    problem = ProblemSpec(
        n=1,
        m=1,
        d=1,
        loss=lambda x, y, w: np.full(w.shape[0], -y[0] ** 2),
        grad1=lambda x, y, w: np.full((w.shape[0], 1), grad1_value),
        grad2=lambda x, y, w: np.full((w.shape[0], 1), -2.0 * y[0]),
        grad3=lambda x, y, w: np.zeros((w.shape[0], 1)),
        inner_domain=Box(np.array([-1.0]), np.array([1.0])),
        mu=2.0,
        ell=2.0,
    )
    oracle = DistributionOracle(d=1, sampler=lambda x, count, rng: rng.standard_normal((count, 1)))
    return problem, oracle


def linear_problem(slope):
    """x_free_problem's oracle and y-part with the loss ``slope @ x - y^2``:
    the surrogate x-gradient is ``slope``, and a step of length delta along
    its negative predicts a reduction of ``delta * ||slope||``."""
    slope = np.asarray(slope, dtype=float)
    problem, oracle = x_free_problem(0.0)
    problem = replace(
        problem,
        n=slope.size,
        loss=lambda x, y, w: np.full(w.shape[0], slope @ x - y[0] ** 2),
        grad1=lambda x, y, w: np.tile(slope, (w.shape[0], 1)),
    )
    return problem, oracle


def fitted_model(fn, center, radius=0.5, count=40, sigma=0.0, seed=3):
    samples = generate_poised_set(
        scalar_oracle(fn, sigma=sigma), center, radius, count, 100.0, make_rng(seed)
    )
    return fit(samples)


class TestSurrogateValueAndXGrad:
    def test_omega_independent_loss_has_no_chain_term(self):
        # With a loss that ignores w, the chain term must vanish even though
        # the fitted slope is nonzero.
        from ddtr.core import ProblemSpec

        problem = ProblemSpec(
            n=1, m=1, d=1,
            loss=lambda x, y, w: np.full(w.shape[0], (x[0] - 1.0) ** 2 - y[0] ** 2),
            grad1=lambda x, y, w: np.full((w.shape[0], 1), 2.0 * (x[0] - 1.0)),
            grad2=lambda x, y, w: np.full((w.shape[0], 1), -2.0 * y[0]),
            grad3=lambda x, y, w: np.zeros((w.shape[0], 1)),
            inner_domain=Box(np.array([-5.0]), np.array([5.0])),
            mu=2.0,
            ell=2.0,
        )
        model = fitted_model(lambda x: 2.0 * x + 1.0, np.array([0.0]))
        x = np.array([4.0])
        value, grad = surrogate_at(problem, model, x, np.zeros(1))
        assert grad[0] == pytest.approx(2.0 * (x[0] - 1.0))

    def test_zero_slope_reduces_to_grad1_average(self):
        inst = synthetic_instance()
        model = llr_model(np.zeros((1, 1)), [5.0], [[-1.0], [1.0], [0.0]])
        x, y = np.array([2.0]), np.array([0.5])
        value, grad = surrogate_at(inst.problem, model, x, y)
        scen = model.rows(x)
        expected = np.mean(inst.problem.grad1(x, y, scen), axis=0)
        assert np.allclose(grad, expected)

    def test_matches_finite_differences_on_synthetic(self):
        inst = synthetic_instance()
        model = fitted_model(lambda x: x**3, np.array([2.0]), sigma=1.0, seed=11)
        y = np.array([-7.5])

        def value_at(x):
            return surrogate_at(inst.problem, model, x, y)[0]

        x = np.array([2.1])
        _, grad = surrogate_at(inst.problem, model, x, y)
        fd = directional_fd(value_at, x, np.array([1.0]))
        assert grad[0] == pytest.approx(fd, rel=1e-6)

    def test_matches_finite_differences_on_random_models(self):
        inst = synthetic_instance()
        rng = make_rng(29)
        for trial in range(20):
            center = rng.normal(size=1)
            model = fitted_model(
                lambda x: np.sin(x) * x**2,
                center,
                radius=float(rng.uniform(0.2, 1.5)),
                sigma=0.5,
                seed=trial,
            )
            x = center + rng.normal(size=1) * 0.3
            y = rng.normal(size=1) * 3.0
            _, grad = surrogate_at(inst.problem, model, x, y)
            fd = directional_fd(
                lambda z: surrogate_at(inst.problem, model, z, y)[0],
                x,
                np.array([1.0]),
            )
            assert grad[0] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_dro_iteration_builds_no_scenario_array(self):
        # On the benchmark shape (N = 200, n = 5, d = 1000) with 300 regression
        # points, a whole iteration holds one (S, d) array, the model's
        # responses, and arrays of (S, N): the surrogate scenario sets stay
        # factored. At 2.62x the parent built them twice, on top of the
        # residuals.
        inst = dro_instance(generate_synthetic_credit(200, 5, 0))
        x = np.full(5, 2.0)
        model = fit(generate_poised_set(inst.oracle, x, 1.0, 300, 100.0, make_rng(1)))
        assert model.responses.shape == (300, 1000)
        state = TRState(x=x, delta=1.0, k=0, y_warm=inst.problem.inner_domain.center())
        args = (state, inst.problem, inst.oracle, TRConfig(), make_rng(2), inst.diagnostics)
        iterate(*args)  # warm-up
        tracemalloc.start()
        try:
            _, record = iterate(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert record.n_llr == 300 and record.n_value > 0  # both inner solves and the estimates
        assert peak < 1.75 * model.responses.nbytes, peak / model.responses.nbytes


class TestEstimateValue:
    def test_deterministic_value_is_exact(self):
        # Deterministic map and a loss whose maximum in y equals w^2 exactly.
        problem, oracle = affine_map_problem(slope=1.0, intercept=-3.0)
        value = estimate_value(
            problem, oracle, np.array([5.0]), 10, 1e-8, np.zeros(1), make_rng(0)
        )
        assert value == pytest.approx(4.0, abs=1e-12)

    def test_synthetic_near_stationary_value(self):
        inst = synthetic_instance()
        value = estimate_value(
            inst.problem, inst.oracle, np.array([1.0]), 10_000, 1e-6,
            np.zeros(1), make_rng(1),
        )
        assert abs(value - 0.0) < 0.2

    def test_zero_count_rejected(self):
        inst = synthetic_instance()
        with pytest.raises(ConfigurationError):
            estimate_value(
                inst.problem, inst.oracle, np.array([1.0]), 0, 1e-6, np.zeros(1), make_rng(0)
            )


class TestIterate:
    def test_history_invariants_on_synthetic(self):
        inst = synthetic_instance()
        config = small_config(max_iters=60, seed=2)
        state, history = solve(np.array([3.0]), inst.problem, inst.oracle, config)
        assert len(history) == 60
        for rec in history:
            assert 0.0 < rec.delta <= config.delta_max
            assert 0.0 < rec.delta_next <= config.delta_max
            ratio = rec.delta_next / rec.delta
            assert (
                ratio == pytest.approx(config.gamma)
                or ratio == pytest.approx(1.0 / config.gamma)
                or rec.delta_next == pytest.approx(config.delta_max)
            )
            expected_accept = (rec.rho >= config.eta1) and (
                rec.grad_norm_surrogate >= config.eta2 * rec.delta
            )
            assert rec.accepted == expected_accept
            if rec.accepted:
                assert rec.descent_lhs >= rec.descent_rhs
                assert math.isfinite(rec.v_k) and math.isfinite(rec.v_k_half)
            else:
                assert np.array_equal(rec.x_after, rec.x_before)

    def test_rejected_iteration_keeps_x_bitwise(self):
        inst = synthetic_instance()
        config = small_config(max_iters=120, seed=5)
        state, history = solve(np.array([9.8]), inst.problem, inst.oracle, config)
        rejected = [r for r in history if not r.accepted]
        assert rejected, "expected at least one rejected iteration"
        for rec in rejected:
            assert rec.x_after.tobytes() == rec.x_before.tobytes()

    def test_value_estimates_skipped_on_descent_failure(self):
        inst = synthetic_instance()
        config = small_config(max_iters=200, seed=8)
        _, history = solve(np.array([9.8]), inst.problem, inst.oracle, config)
        skipped = [r for r in history if not r.descent_ok]
        for rec in skipped:
            assert rec.rho == -math.inf
            assert math.isnan(rec.v_k) and math.isnan(rec.v_k_half)
            assert not rec.accepted


    def test_diagnostics_come_before_the_regression_set(self):
        # The diagnostics draw from a generator of their own and feed nothing
        # back, so they are evaluated first and free their arrays before the
        # regression set is drawn. The stub logs the rows served so far.
        inst = synthetic_instance()
        served = []

        def sampler(x, count, rng):
            served.append(count)
            return inst.oracle.sampler(x, count, rng)

        oracle = DistributionOracle(d=1, sampler=sampler)
        diagnostics = OracleDiagnostics(lambda x, rng: (sum(served), 0.0))
        state = TRState(x=np.array([3.0]), delta=1.0, k=0, y_warm=np.array([0.0]))
        _, rec = iterate(state, inst.problem, oracle, small_config(), make_rng(1), diagnostics)
        assert rec.oracle_phi == 0.0
        assert sum(served) >= rec.n_llr > 0

    def test_degenerate_gradient_exit(self):
        # The loss ignores x and w, so grad1 = grad3 = 0 and the surrogate
        # x-gradient vanishes: the iteration stops before any trial step.
        problem, oracle = x_free_problem(0.0)
        config = small_config()
        x, y_warm = np.array([0.3]), np.array([0.7])
        state = TRState(x=x, delta=0.5, k=0, y_warm=y_warm)
        after, rec = iterate(state, problem, oracle, config, make_rng(1))
        assert rec.grad_norm_surrogate < GRAD_FLOOR
        assert rec.rho == -math.inf
        assert math.isnan(rec.v_k) and math.isnan(rec.v_k_half)
        assert math.isnan(rec.descent_lhs)
        assert not rec.descent_ok and not rec.accepted
        assert rec.n_value == 0
        assert rec.delta_next == 0.5 / config.gamma == after.delta
        assert after.x.tobytes() == x.tobytes() == rec.x_after.tobytes()
        assert after.y_warm.tobytes() == y_warm.tobytes()

    def test_no_value_draws_below_the_predicted_reduction_floor(self):
        # The loss rises by 1e-15 per unit of x, so the trial step passes the
        # descent test (kappa_dcp 1e-20) with a predicted reduction of about
        # 5e-16, below PRED_FLOOR: no ratio can be formed, so the oracle serves
        # only the regression rows and the step is rejected.
        problem, base = x_free_problem(1.0)
        rising = lambda x, y, w: np.full(w.shape[0], 1e-15 * x[0] - y[0] ** 2)  # noqa: E731
        problem = replace(problem, loss=rising)
        served = []

        def sampler(x, count, rng):
            served.append(count)
            return base.sampler(x, count, rng)

        oracle = DistributionOracle(d=1, sampler=sampler)
        config = small_config(kappa_dcp=1e-20)
        state = TRState(x=np.array([0.3]), delta=0.5, k=0, y_warm=np.array([0.0]))
        after, rec = iterate(state, problem, oracle, config, make_rng(1))
        assert rec.descent_ok and 0.0 < rec.descent_lhs < PRED_FLOOR
        assert sum(served) == rec.n_llr == 40
        assert rec.n_value == 0 and math.isnan(rec.v_k) and math.isnan(rec.v_k_half)
        assert rec.rho == -math.inf and not rec.accepted
        assert after.x.tobytes() == state.x.tobytes()

    def test_huge_finite_gradient_gives_a_trial_step(self):
        # A finite surrogate x-gradient whose square overflows has a finite
        # norm: the iteration takes its trial step (the loss ignores x, so
        # the step then fails the descent test).
        problem, oracle = x_free_problem(1e200)
        config = small_config()
        state = TRState(x=np.array([0.3]), delta=0.5, k=0, y_warm=np.array([0.0]))
        _, rec = iterate(state, problem, oracle, config, make_rng(1))
        assert rec.grad_norm_surrogate == 1e200
        assert rec.descent_lhs == 0.0
        assert rec.descent_rhs == config.kappa_dcp * 1e200 * 0.5
        assert not rec.descent_ok and not rec.accepted and rec.n_value == 0

    @pytest.mark.parametrize(
        "slope, delta, step",
        [
            ([3.0, 4.0], 1.0, [-0.6, -0.8]),
            ([0.0, 5.0], 2.0, [0.0, -2.0]),
            # The squares of these overflow; the norm and the step must not.
            ([1e200], 1.0, [-1.0]),
            ([3e200, -4e200], 2.0, [-1.2, 1.6]),
        ],
        ids=["normalization", "axis_direction", "huge_finite_gradient", "huge_finite_gradient_2d"],
    )
    def test_accepted_step_has_the_radius_length(self, slope, delta, step):
        # The trial step from x = 0 is x_after itself once it is accepted.
        problem, oracle = linear_problem(slope)
        config = small_config()
        state = TRState(x=np.zeros(len(slope)), delta=delta, k=0, y_warm=np.array([0.0]))
        _, rec = iterate(state, problem, oracle, config, make_rng(1))
        assert rec.accepted and np.all(np.isfinite(rec.x_after))
        assert rec.x_after == pytest.approx(step, rel=1e-14, abs=0.0)
        assert norm(rec.x_after) == pytest.approx(delta, rel=1e-14)
        assert rec.descent_rhs == config.kappa_dcp * rec.grad_norm_surrogate * min(delta, 1.0)

    @pytest.mark.parametrize(
        "delta, kappa_dcp, holds",
        [
            (0.5, 0.5, True),
            (0.5, 2.0, False),
            # Past delta = 1 the threshold is kappa * grad_norm * 1, not * delta.
            (3.0, 2.9, True),
            (3.0, 3.1, False),
        ],
        ids=["holds", "fails", "radius_clamped_at_one_holds", "radius_clamped_at_one_fails"],
    )
    def test_sufficient_descent_threshold(self, delta, kappa_dcp, holds):
        # A loss of slope 1 in x: a step of length delta predicts a reduction of delta.
        problem, oracle = linear_problem([1.0])
        config = small_config(kappa_dcp=kappa_dcp)
        state = TRState(x=np.array([0.3]), delta=delta, k=0, y_warm=np.array([0.0]))
        _, rec = iterate(state, problem, oracle, config, make_rng(1))
        assert rec.grad_norm_surrogate == 1.0
        assert rec.descent_lhs == pytest.approx(delta, rel=1e-12)
        assert rec.descent_rhs == kappa_dcp * min(delta, 1.0)
        assert rec.descent_ok == (rec.descent_lhs >= rec.descent_rhs) == holds
        assert rec.n_value == (40 if holds else 0)

    def test_descent_record_on_every_row(self):
        # From delta0 > 1 the first rows have delta > 1, where the threshold
        # clamps the radius at 1.
        inst = synthetic_instance()
        config = small_config(delta0=1.5, max_iters=60, seed=2)
        _, history = solve(np.array([9.8]), inst.problem, inst.oracle, config)
        assert any(r.delta > 1 for r in history)
        assert {r.descent_ok for r in history if math.isfinite(r.descent_lhs)} == {True, False}
        for rec in history:
            rhs = config.kappa_dcp * rec.grad_norm_surrogate * min(rec.delta, 1.0)
            assert rec.descent_rhs == rhs
            if math.isfinite(rec.descent_lhs):
                assert rec.descent_ok == (rec.descent_lhs >= rec.descent_rhs)


class TestSolve:
    def test_zero_iterations(self):
        inst = synthetic_instance()
        state, history = solve(
            np.array([2.0]), inst.problem, inst.oracle, small_config(max_iters=0)
        )
        assert history == []
        assert state.x[0] == pytest.approx(2.0)
        assert state.k == 0

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_gradient_rejects_iterations(self, value):
        # A surrogate x-gradient of infinite or NaN norm gives no trial step:
        # each iteration is unsuccessful and halves the radius, and x stays.
        problem, oracle = x_free_problem(value)
        state, history = solve(np.array([0.3]), problem, oracle, small_config(max_iters=4))
        assert state.termination == "max_iters" and len(history) == 4
        for k, rec in enumerate(history):
            np.testing.assert_equal(rec.grad_norm_surrogate, value)
            assert not rec.descent_ok and not rec.accepted and rec.n_value == 0
            assert rec.delta_next == rec.delta / 2.0 == 0.5 ** (k + 1)
        assert state.x.tobytes() == np.array([0.3]).tobytes()

    def test_deterministic_affine_map_instance_converges(self):
        # Noiseless map w = x - 3 with loss w^2 - y^2: the primal function is
        # (x - 3)^2, so iterates should approach x = 3.
        problem, oracle = affine_map_problem(slope=1.0, intercept=-3.0)
        config = small_config(
            max_iters=100, seed=4, llr_schedule=SampleSchedule(minimum=12, maximum=12)
        )
        state, history = solve(np.array([0.0]), problem, oracle, config)
        assert abs(state.x[0] - 3.0) < 0.05

    def test_reproducible_histories(self):
        inst = synthetic_instance()
        runs = []
        for _ in range(2):
            _, history = solve(
                np.array([8.0]), inst.problem, inst.oracle, small_config(max_iters=25, seed=77)
            )
            runs.append(history)
        for a, b in zip(*runs):
            assert a.x_after.tobytes() == b.x_after.tobytes()
            assert a.rho == b.rho or (math.isnan(a.rho) and math.isnan(b.rho))
            assert a.delta == b.delta and a.v_k == b.v_k or (math.isnan(a.v_k) and math.isnan(b.v_k))

    @staticmethod
    def floor(config, x):
        return config.delta_min * max(1.0, float(np.linalg.norm(x)))

    def test_radius_floor_ends_the_run(self):
        inst = synthetic_instance()
        config = small_config(max_iters=300, seed=3)
        state, history = solve(np.array([9.8]), inst.problem, inst.oracle, config)
        assert state.termination == "radius_floor"
        assert len(history) < config.max_iters
        assert all(rec.delta >= self.floor(config, rec.x_before) for rec in history)
        assert history[-1].delta_next < self.floor(config, history[-1].x_after)
        assert state.delta == history[-1].delta_next

    def test_zero_floor_runs_every_iteration(self):
        inst = synthetic_instance()
        config = small_config(max_iters=300, seed=3)
        _, floored = solve(np.array([9.8]), inst.problem, inst.oracle, config)
        state, history = solve(
            np.array([9.8]), inst.problem, inst.oracle, replace(config, delta_min=0.0)
        )
        assert state.termination == "max_iters"
        assert len(history) == config.max_iters
        # The floor only ends the run: up to there both runs are the same.
        assert [r.x_after.tobytes() for r in floored] == [
            r.x_after.tobytes() for r in history[: len(floored)]
        ]

    @pytest.mark.parametrize(
        "llr_schedule",
        [SampleSchedule(minimum=40, maximum=40), SampleSchedule()],
        ids=["fixed", "adaptive"],
    )
    def test_radius_underflow_ends_the_run(self, llr_schedule):
        # With gamma = 1e200 two rejections take delta below the smallest
        # subnormal, to 0.0, where a zero floor does not stop the run.
        problem, oracle = affine_map_problem()
        config = small_config(
            max_iters=40, seed=3, gamma=1e200, delta_min=0.0, llr_schedule=llr_schedule
        )
        state, history = solve(np.array([0.0]), problem, oracle, config)
        assert state.termination == "radius_floor"
        assert len(history) < config.max_iters
        assert all(rec.delta > 0 for rec in history)
        assert state.delta == history[-1].delta_next == 0.0

    @pytest.mark.parametrize("delta_min", [-1e-8, math.nan])
    def test_negative_delta_min_rejected(self, delta_min):
        with pytest.raises(ConfigurationError, match="delta_min"):
            TRConfig(delta_min=delta_min)

    def test_gradient_trend_improves_across_seeds(self):
        # Statistical sanity: for every seed, the median true gradient over
        # the last 10 iterations is below its median over the first 10.
        inst = synthetic_instance()
        for seed in range(1, 6):
            x0 = 10.0 + 0.3 * make_rng(seed).uniform(-1, 1)
            config = TRConfig(
                llr_schedule=SampleSchedule(minimum=300, maximum=300),
                value_schedule=SampleSchedule(minimum=100, maximum=100),
                max_iters=300,
                seed=seed,
            )
            _, history = solve(np.array([x0]), inst.problem, inst.oracle, config)
            grads = [abs(synthetic_primal(float(r.x_after[0]))[1]) for r in history]
            assert np.median(grads[-10:]) < np.median(grads[:10])


class TestSampleSchedule:
    def test_fixed(self):
        # A fixed count is bounds that meet, at any radius: also past the
        # float range of delta ** -4, and at 0.
        for delta in [2.0, 1.0, 0.3, 0.01, 2.0**-256, 2.0**-1074, 0.0]:
            assert SampleSchedule(minimum=300, maximum=300).count(delta) == 300

    def test_adaptive_regression_count_floors_at_dimension(self):
        # With an adaptive schedule the regression count never drops below
        # n + 5 even when the schedule's own minimum is lower.
        inst = synthetic_instance()
        config = small_config(
            max_iters=1,
            llr_schedule=SampleSchedule(coeff=1.0, power=4.0, minimum=2),
        )
        _, history = solve(np.array([2.0]), inst.problem, inst.oracle, config)
        assert history[0].n_llr == inst.problem.n + 5

    @pytest.mark.parametrize("maximum", [2, 5])
    def test_adaptive_regression_count_capped_at_maximum(self, maximum):
        # Below n + 5 the schedule's maximum wins; the fit needs only n + 1 = 2.
        inst = synthetic_instance()
        config = small_config(
            max_iters=3, llr_schedule=SampleSchedule(minimum=1, maximum=maximum)
        )
        _, history = solve(np.array([2.0]), inst.problem, inst.oracle, config)
        assert [rec.n_llr for rec in history] == [maximum] * 3

    def test_adaptive_growth_and_clamp(self):
        sched = SampleSchedule(coeff=1.0, power=4.0, minimum=10, maximum=5000)
        assert sched.count(1.0) == 10
        assert sched.count(0.3) == math.ceil(0.3**-4)
        assert sched.count(0.01) == 5000

    @pytest.mark.parametrize("delta", [2.0**-256, 2.0**-1074, np.float64(2.0**-256), 0.0])
    def test_adaptive_count_at_tiny_radius_is_maximum(self, delta):
        # delta ** -4 is past the float range here, or undefined at 0.
        assert SampleSchedule().count(delta) == 5000

    @pytest.mark.parametrize(
        "field",
        ["delta0", "delta_max", "gamma", "eta1", "eta2", "kappa_dcp", "inner_eps_coeff", "lambda_max"],
    )
    def test_config_rejects_nan(self, field):
        # A NaN fails every comparison, so each check must be one that NaN fails.
        with pytest.raises(ConfigurationError):
            TRConfig(**{field: math.nan})

    @pytest.mark.parametrize("value", [0.0, -0.1])
    def test_config_rejects_nonpositive_inner_eps_coeff(self, value):
        # Else a negative coefficient falls silently to the 1e-12 floor.
        with pytest.raises(ConfigurationError, match="inner_eps_coeff"):
            TRConfig(inner_eps_coeff=value)

    @pytest.mark.parametrize(
        "fields",
        [{"minimum": math.nan, "maximum": math.nan}, {"coeff": math.nan}, {"power": math.nan}],
        ids=["fixed", "coeff", "power"],
    )
    def test_schedule_rejects_nan(self, fields):
        # A NaN coeff or power made count() raise ValueError mid-run; a fixed
        # count is minimum = maximum.
        with pytest.raises(ConfigurationError):
            SampleSchedule(**fields)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TRConfig(delta0=3.0, delta_max=2.0)
        with pytest.raises(ConfigurationError):
            TRConfig(gamma=1.0)
        with pytest.raises(ConfigurationError):
            TRConfig(eta1=1.5)
