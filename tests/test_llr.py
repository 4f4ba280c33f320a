import numpy as np
import pytest

from ddtr.core import ConfigurationError, DistributionOracle, PoisednessError, make_rng
from ddtr.llr import PoisedSampleSet, fit, generate_poised_set
from ddtr.problems import dro_instance, generate_synthetic_credit, synthetic_instance

from util import llr_model, scalar_oracle


def coordinate_sum(x, count, rng):
    """Noiseless draws of sum(x); a batch of points is summed row by row."""
    return np.full((count, 1), x.sum()) if x.ndim == 1 else np.array([[row.sum()] for row in x])


def make_set(oracle, center, radius, count, seed=0, lambda_max=100.0):
    return generate_poised_set(oracle, center, radius, count, lambda_max, make_rng(seed))


class TestGeneratePoisedSet:
    def test_condition_target_met(self):
        samples = make_set(scalar_oracle(lambda x: x), np.array([0.0]), 1.0, 10)
        assert samples.poisedness_metric <= 100.0
        assert np.all(np.linalg.norm(samples.points, axis=1) <= 1.0 + 1e-12)

    def test_minimal_count_full_rank(self):
        def sampler(x, count, rng):
            return np.tile(x, (count, 1)) if x.ndim == 1 else x.copy()

        oracle = DistributionOracle(d=2, sampler=sampler)
        samples = generate_poised_set(
            oracle, np.array([1.0, -1.0]), 0.5, 3, 100.0, make_rng(4)
        )
        design = np.column_stack([samples.offsets, np.ones(3)])
        sv = np.linalg.svd(design, compute_uv=False)
        assert sv[-1] > 0
        assert samples.poisedness_metric <= 100.0

    def test_underdetermined_rejected(self):
        with pytest.raises(ConfigurationError):
            make_set(scalar_oracle(lambda x: x), np.array([0.0, 0.0]), 1.0, 2)

    def test_responses_drawn_at_points(self):
        samples = make_set(scalar_oracle(lambda x: x**3), np.array([2.0]), 0.5, 12)
        assert np.allclose(samples.responses[:, 0], samples.points[:, 0] ** 3)

    def test_resampling_repairs_bad_initial_draw(self):
        # Seed 1's minimal 2-d design starts at condition ~77; redrawing the
        # worst-leverage point must bring it under the target.
        oracle = DistributionOracle(d=1, sampler=coordinate_sum)
        samples = generate_poised_set(oracle, np.zeros(2), 1.0, 3, 12.0, make_rng(1))
        assert samples.poisedness_metric <= 12.0

    def test_unreachable_target_reports_best_metric(self):
        # The [u, 1] design cannot reach condition 1.05; the error carries the
        # best metric seen across redraw rounds.
        oracle = scalar_oracle(lambda x: x)
        with pytest.raises(PoisednessError) as exc:
            generate_poised_set(oracle, np.zeros(1), 1.0, 10, 1.05, make_rng(0))
        assert np.isfinite(exc.value.best_metric)
        assert exc.value.best_metric > 1.05


def poised_cases():
    """Sets at the benchmark sizes, and a minimal 2-d one built after redraws."""
    synthetic = synthetic_instance().oracle
    dro = dro_instance(generate_synthetic_credit(200, 5, 0), diag_samples=10).oracle
    redrawn = DistributionOracle(d=1, sampler=coordinate_sum)
    return [
        generate_poised_set(synthetic, np.array([1.5]), 0.3, 300, 100.0, make_rng(seed))
        for seed in range(10)
    ] + [
        generate_poised_set(dro, np.full(5, 2.0), 1.0, 300, 100.0, make_rng(7)),
        generate_poised_set(redrawn, np.zeros(2), 1.0, 3, 12.0, make_rng(1)),
    ]


class TestPoisedSetFactors:
    """The poised set is factored once; ``fit`` reuses that factorization."""

    def test_metric_is_the_design_condition_number(self):
        for samples in poised_cases():
            design = np.column_stack([samples.offsets, np.ones(samples.offsets.shape[0])])
            sv = np.linalg.svd(design, compute_uv=False)
            assert samples.poisedness_metric == pytest.approx(sv[0] / sv[-1], rel=1e-12, abs=0)

    def test_fit_equals_fit_of_the_same_data_rebuilt_by_hand(self):
        for samples in poised_cases():
            offsets = samples.offsets.copy()
            design = np.column_stack([offsets, np.ones(offsets.shape[0])])
            factors = (design, *np.linalg.qr(design))
            # The stored factors are those of the offsets' design.
            assert len(samples.factors) == 3
            for stored, fresh in zip(samples.factors, factors):
                assert stored.shape == fresh.shape and stored.tobytes() == fresh.tobytes()
            rebuilt = PoisedSampleSet(
                samples.points.copy(),
                samples.responses.copy(),
                offsets,
                samples.center.copy(),
                samples.radius,
                samples.poisedness_metric,
                factors,
            )
            got, want = fit(samples), fit(rebuilt)
            for name in ("b1", "b0", "residuals"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestFit:
    def test_exact_affine_recovery(self):
        samples = make_set(scalar_oracle(lambda x: 3.0 * x + 2.0), np.array([0.0]), 1.0, 10)
        model = fit(samples)
        assert model.b1[0, 0] == pytest.approx(3.0, abs=1e-10)
        assert model.b0[0] == pytest.approx(2.0, abs=1e-10)
        assert np.all(np.abs(model.residuals) < 1e-10)

    def test_noisy_cubic_recovers_local_slope(self):
        # Local slope of x^3 at x = 10 is 300; with 300 samples in B(10, 0.1)
        # and unit noise the slope estimate lands within 3 standard errors.
        samples = make_set(
            scalar_oracle(lambda x: x**3, sigma=1.0), np.array([10.0]), 0.1, 300, seed=7
        )
        model = fit(samples)
        # Independent route: normal equations on the raw design.
        design = np.column_stack([samples.points, np.ones(300)])
        theta = np.linalg.solve(design.T @ design, design.T @ samples.responses)
        assert model.b1[0, 0] == pytest.approx(theta[0, 0], rel=1e-8)
        se = 1.0 / np.sqrt(300 * samples.points[:, 0].var())
        assert abs(model.b1[0, 0] - 300.0) < 3.0 * se

    def test_taylor_bound_flat_cubic(self):
        # Best local slope of x^3 at 0 over radius 0.01 is O(radius^2).
        samples = make_set(scalar_oracle(lambda x: x**3), np.array([0.0]), 0.01, 50)
        model = fit(samples)
        assert abs(model.b1[0, 0]) <= 1e-3

    def test_mean_zero_residuals(self):
        samples = make_set(
            scalar_oracle(lambda x: np.sin(x), sigma=0.5), np.array([1.0]), 0.7, 40, seed=3
        )
        model = fit(samples)
        assert np.all(np.abs(model.residuals.mean(axis=0)) < 1e-10)

    def test_responses_left_unchanged(self):
        # The fit writes its residuals into its own product, never into the
        # sample set, whose responses may be a caller's array.
        samples = make_set(
            scalar_oracle(lambda x: np.sin(x), sigma=0.5), np.array([1.0]), 0.7, 40, seed=3
        )
        before = samples.responses.copy()
        model = fit(samples)
        assert samples.responses.tobytes() == before.tobytes()
        assert not np.shares_memory(model.residuals, samples.responses)

    def test_reconstruction_identity(self):
        samples = make_set(
            scalar_oracle(lambda x: x**2, sigma=0.3), np.array([2.0]), 0.5, 25, seed=5
        )
        model = fit(samples)
        rebuilt = np.array([model.predict(p) for p in samples.points]) + model.residuals
        assert np.allclose(rebuilt, samples.responses, atol=1e-9)

    def test_translation_equivariance(self):
        samples = make_set(
            scalar_oracle(lambda x: x**3, sigma=1.0), np.array([1.0]), 0.5, 30, seed=9
        )
        shifted = type(samples)(
            points=samples.points,
            responses=samples.responses + 7.5,
            offsets=samples.offsets,
            center=samples.center,
            radius=samples.radius,
            poisedness_metric=samples.poisedness_metric,
            factors=samples.factors,
        )
        base, moved = fit(samples), fit(shifted)
        assert np.allclose(moved.b1, base.b1, atol=1e-10)
        assert np.allclose(moved.b0, base.b0 + 7.5, atol=1e-10)
        assert np.allclose(moved.residuals, base.residuals, atol=1e-10)

    def test_matches_brute_force_on_random_instances(self):
        rng = make_rng(21)
        for trial in range(20):
            n = int(rng.integers(1, 4))
            d = int(rng.integers(1, 3))
            count = int(rng.integers(n + 2, 13))

            def mean(x):
                return np.sin(x[:d].sum()) + x.sum() ** 2

            def sampler(x, cnt, r):
                # A batch of points takes the one-point mean row by row.
                means = np.array([[mean(row)] for row in np.atleast_2d(x)])
                return means + r.normal(size=(cnt, d))

            oracle = DistributionOracle(d=d, sampler=sampler)
            samples = generate_poised_set(
                oracle, rng.normal(size=n), 0.8, count, 200.0, make_rng(trial)
            )
            model = fit(samples)
            design = np.column_stack([samples.points, np.ones(count)])
            theta, *_ = np.linalg.lstsq(design, samples.responses, rcond=None)
            obj_fit = np.sum(
                (samples.responses - (samples.points @ model.b1 + model.b0)) ** 2
            )
            obj_ref = np.sum((samples.responses - design @ theta) ** 2)
            assert obj_fit == pytest.approx(obj_ref, rel=1e-8, abs=1e-12)


class TestPredictAndScenarios:
    def constant_model(self, c):
        return llr_model(np.zeros((2, 1)), [c], np.zeros((4, 1)))

    def test_constant_model(self):
        model = self.constant_model(5.0)
        for x in ([0.0, 0.0], [3.0, -1.0]):
            assert model.predict(np.array(x))[0] == pytest.approx(5.0)

    def test_affine_arithmetic(self):
        model = llr_model([[3.0]], [2.0], np.zeros((3, 1)))
        assert model.predict(np.array([4.0]))[0] == pytest.approx(14.0)

    def test_training_point_reconstruction(self):
        samples = make_set(
            scalar_oracle(lambda x: x**2, sigma=0.2), np.array([1.0]), 0.4, 15, seed=2
        )
        model = fit(samples)
        i = 4
        assert model.predict(samples.points[i])[0] + model.residuals[i, 0] == pytest.approx(
            samples.responses[i, 0], abs=1e-9
        )

    def test_scenarios_reconstruct_training_responses(self):
        samples = make_set(
            scalar_oracle(lambda x: x**2, sigma=0.2), np.array([1.0]), 0.4, 15, seed=2
        )
        model = fit(samples)
        i = 7
        scenarios = model.surrogate_scenarios(samples.points[i])
        assert scenarios.shape == (15, 1)
        rows = np.asarray(scenarios)  # predict(x) + residuals, bit for bit
        assert rows.tobytes() == (model.predict(samples.points[i]) + model.residuals).tobytes()
        assert rows[i, 0] == pytest.approx(samples.responses[i, 0], abs=1e-9)

    def test_zero_residuals_collapse_scenarios(self):
        model = self.constant_model(1.5)
        scen = np.asarray(model.surrogate_scenarios(np.array([0.3, 0.4])))
        assert scen.shape == (4, 1) and np.allclose(scen, 1.5)

    def test_scenario_mean_equals_prediction(self):
        samples = make_set(
            scalar_oracle(lambda x: x**3, sigma=1.0), np.array([2.0]), 0.5, 40, seed=13
        )
        model = fit(samples)
        x = np.array([2.2])
        scen = np.asarray(model.surrogate_scenarios(x))
        assert scen.mean(axis=0) == pytest.approx(model.predict(x), abs=1e-10)


def test_local_accuracy_scales_quadratically():
    # For the cubic map, the worst prediction error over the fitting ball
    # shrinks like radius^2 when the sample count follows radius^-4.
    center = np.array([1.0])
    errors = []
    for radius in (0.4, 0.2, 0.1):
        count = int(np.ceil(radius**-4))
        samples = make_set(scalar_oracle(lambda x: x**3), center, radius, count, seed=17)
        model = fit(samples)
        grid = np.linspace(center[0] - radius, center[0] + radius, 801)
        preds = model.b1[0, 0] * grid + model.b0[0]
        errors.append(np.max(np.abs(grid**3 - preds)))
    for big, small in zip(errors, errors[1:]):
        assert 2.0 <= big / small <= 8.0
