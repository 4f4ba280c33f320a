import numpy as np
import pytest

from ddtr.core import Box, ConfigurationError, InnerConvergenceError, Simplex, make_rng
from ddtr.inner import maximize_over_scenarios
from ddtr.problems import synthetic_instance

from util import in_domain, quadratic_problem

BIG_BOX = Box(np.array([-125.0]), np.array([125.0]))


def solve_quadratic(center, domain, weights=None, epsilon=1e-6, y_init=None):
    weights = np.ones(len(center)) if weights is None else np.asarray(weights)
    problem = quadratic_problem(weights, domain)
    scenarios = np.atleast_2d(np.asarray(center, dtype=float))
    y0 = domain.center() if y_init is None else np.asarray(y_init, dtype=float)
    return maximize_over_scenarios(problem, np.zeros(1), scenarios, y0, epsilon)


class TestClosedFormCases:
    def test_interior_maximizer(self):
        report = solve_quadratic([3.0], BIG_BOX, weights=[2.0], epsilon=1e-6)
        assert abs(report.maximizer[0] - 3.0) <= 1e-6

    def test_boundary_maximizer(self):
        report = solve_quadratic([200.0], BIG_BOX, weights=[2.0], epsilon=1e-6)
        assert abs(report.maximizer[0] - 125.0) <= 1e-6

    def test_synthetic_scenario_average(self):
        # Scenario mean exactly 8 at x = 2: the inner objective is
        # x^2 - 2(x+y)*8 - y^2, maximized at y = -8 inside the box.
        inst = synthetic_instance()
        scenarios = np.array([[7.0], [9.0]])
        report = maximize_over_scenarios(
            inst.problem, np.array([2.0]), scenarios, np.array([0.0]), 1e-8
        )
        assert abs(report.maximizer[0] + 8.0) <= 1e-8

    def test_simplex_uniform_maximizer(self):
        # The negated distributional regularizer -||N y - 1||^2 peaks at the
        # uniform vector.
        report = solve_quadratic([1 / 3, 1 / 3, 1 / 3], Simplex(3), epsilon=1e-8,
                                 y_init=[0.7, 0.2, 0.1])
        assert np.allclose(report.maximizer, 1 / 3, atol=1e-8)

    def test_maximizer_stays_in_domain(self):
        report = solve_quadratic([0.9, 0.05, 0.05], Simplex(3), epsilon=1e-7)
        assert in_domain(Simplex(3), report.maximizer)


class TestCertificate:
    def test_fixed_point_returns_after_one_iteration(self):
        report = solve_quadratic([3.0], BIG_BOX, epsilon=1e-6, y_init=[3.0])
        assert report.iterations == 1
        assert report.maximizer.tobytes() == np.array([3.0]).tobytes()

    def test_certificate_sound_on_random_quadratics(self):
        # 50 random strongly concave quadratics with known maximizers over
        # boxes (diagonal weights: clamp) and simplices (equal weights:
        # Euclidean projection).
        rng = make_rng(123)
        for trial in range(50):
            m = int(rng.integers(1, 6))
            epsilon = 10.0 ** rng.uniform(-6, -2)
            target = rng.normal(size=m) * 2.0
            if trial % 2 == 0:
                weights = rng.uniform(0.5, 8.0, size=m)
                domain = Box(np.full(m, -1.5), np.full(m, 1.5))
                truth = np.clip(target, -1.5, 1.5)
            else:
                weights = np.full(m, rng.uniform(0.5, 8.0))
                domain = Simplex(m)
                truth = domain.project(target)
            problem = quadratic_problem(weights, domain)
            report = maximize_over_scenarios(
                problem, np.zeros(1), target[None, :], domain.center(), epsilon
            )
            assert np.linalg.norm(report.maximizer - truth) <= epsilon

    def test_monotone_ascent(self):
        # The iterate after t steps is the maximizer of a solve capped at
        # t iterations; the cap's error carries it in its report.
        problem = quadratic_problem([1.0, 10.0], Box(np.full(2, -2.0), np.full(2, 2.0)))
        scenarios = np.array([[1.4, -0.8], [0.2, 0.6], [1.0, 1.0]])
        y0 = np.array([-2.0, -2.0])
        full = maximize_over_scenarios(problem, np.zeros(1), scenarios, y0, 1e-9)
        values = []
        for t in range(1, full.iterations + 1):
            try:
                report = maximize_over_scenarios(
                    problem, np.zeros(1), scenarios, y0, 1e-9, max_iters=t
                )
            except InnerConvergenceError as exc:
                report = exc.report
            assert report.iterations == t
            values.append(float(np.mean(problem.loss(np.zeros(1), report.maximizer, scenarios))))
        assert report.maximizer.tobytes() == full.maximizer.tobytes()
        assert len(values) > 2
        assert np.all(np.diff(values) >= -1e-12)


class TestContracts:
    def test_nonpositive_epsilon(self):
        with pytest.raises(ConfigurationError):
            solve_quadratic([0.0], BIG_BOX, epsilon=0.0)

    def test_iteration_cap_raises_with_report(self):
        problem = quadratic_problem([1.0, 100.0], Box(np.full(2, -5.0), np.full(2, 5.0)))
        with pytest.raises(InnerConvergenceError) as exc_info:
            maximize_over_scenarios(
                problem, np.zeros(1), np.array([[4.0, -4.0]]), np.zeros(2), 1e-12,
                max_iters=3,
            )
        report = exc_info.value.report
        assert report is not None and report.iterations == 3

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_no_iterations_rejected(self, max_iters):
        with pytest.raises(ConfigurationError, match="max_iters must be at least 1"):
            maximize_over_scenarios(
                quadratic_problem([1.0], BIG_BOX), np.zeros(1), np.zeros((1, 1)), np.zeros(1),
                1e-6, max_iters=max_iters,
            )

    def test_scenario_shape_validated(self):
        problem = quadratic_problem([1.0], BIG_BOX)
        with pytest.raises(Exception):
            maximize_over_scenarios(
                problem, np.zeros(1), np.zeros((3, 2)), np.zeros(1), 1e-6
            )
