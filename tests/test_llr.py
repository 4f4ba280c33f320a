import numpy as np
import pytest

from ddtr.core import (
    ConfigurationError, DistributionOracle, PoisednessError, SingularFitError, make_rng,
)
from ddtr.llr import PoisedSampleSet, fit, generate_poised_set
from ddtr.problems import dro_instance, generate_synthetic_credit, synthetic_instance

from util import fitted_map, llr_model, scalar_oracle


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


def rank_deficient_set():
    """Three points at one offset: the design [offsets, 1] has two parallel columns."""
    offsets = np.full((3, 1), 0.5)
    factors = tuple(np.linalg.qr(np.column_stack([offsets, np.ones(3)])))
    return PoisedSampleSet(offsets, np.zeros((3, 1)), offsets, 1.0, np.inf, factors)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: make_set(scalar_oracle(abs), np.zeros(1), 0.0, 5), ConfigurationError,
         "radius must be positive"),
        (lambda: make_set(scalar_oracle(abs), np.zeros(1), -1.0, 5), ConfigurationError,
         "radius must be positive"),
        (lambda: make_set(scalar_oracle(abs), np.zeros(1), 1.0, 5, lambda_max=1.0),
         ConfigurationError, "lambda_max must exceed 1"),
        (lambda: fit(rank_deficient_set()), SingularFitError, "rank-deficient"),
    ],
    ids=["radius-0", "radius-negative", "lambda_max-1", "singular-fit"],
)
def test_input_check_rejects(build, error, match):
    with pytest.raises(error, match=match):
        build()


def poised_cases():
    """Sets at the benchmark sizes, and a minimal 2-d one built after redraws."""
    synthetic = synthetic_instance().oracle
    dro = dro_instance(generate_synthetic_credit(200, 5, 0)).oracle
    redrawn = DistributionOracle(d=1, sampler=coordinate_sum)
    return [
        generate_poised_set(synthetic, np.array([1.5]), 0.3, 300, 100.0, make_rng(seed))
        for seed in range(10)
    ] + [
        generate_poised_set(dro, np.full(5, 2.0), 1.0, 300, 100.0, make_rng(7)),
        generate_poised_set(redrawn, np.zeros(2), 1.0, 3, 12.0, make_rng(1)),
    ]


def residuals(samples):
    """The regression residuals, ``responses - q (q.T responses)`` from the
    sample set's factors."""
    q, _ = samples.factors
    return samples.responses - q @ (q.T @ samples.responses)


def lstsq_map(samples, x):
    """The least-squares affine map of the samples at x, by ``np.linalg.lstsq``
    on the raw design: a reference independent of ``fit``."""
    design = np.column_stack([samples.points, np.ones(samples.points.shape[0])])
    theta, *_ = np.linalg.lstsq(design, samples.responses, rcond=None)
    return np.append(x, 1.0) @ theta


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
            factors = tuple(np.linalg.qr(np.column_stack([offsets, np.ones(offsets.shape[0])])))
            # The stored factors are the QR factors of the offsets' design.
            assert len(samples.factors) == 2
            for stored, fresh in zip(samples.factors, factors):
                assert stored.shape == fresh.shape and stored.tobytes() == fresh.tobytes()
            rebuilt = PoisedSampleSet(
                samples.points.copy(),
                samples.responses.copy(),
                offsets,
                samples.radius,
                samples.poisedness_metric,
                factors,
            )
            got, want = fit(samples), fit(rebuilt)
            x = samples.points[0] + 0.25 * samples.radius
            for a, b in (
                (got.b1, want.b1),
                (got.rows(x), want.rows(x)),
            ):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFit:
    def test_exact_affine_recovery(self):
        samples = make_set(scalar_oracle(lambda x: 3.0 * x + 2.0), np.array([0.0]), 1.0, 10)
        model = fit(samples)
        assert model.b1[0, 0] == pytest.approx(3.0, abs=1e-10)
        assert fitted_map(model, np.zeros(1))[0] == pytest.approx(2.0, abs=1e-10)  # the intercept
        assert np.all(np.abs(residuals(samples)) < 1e-10)

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
        # The design's column of ones puts the residuals at zero mean, so the
        # surrogate rows at a point average to the fitted map there.
        samples = make_set(
            scalar_oracle(lambda x: np.sin(x), sigma=0.5), np.array([1.0]), 0.7, 40, seed=3
        )
        assert np.all(np.abs(residuals(samples).mean(axis=0)) < 1e-10)
        x = np.array([1.2])
        assert fitted_map(fit(samples), x) == pytest.approx(lstsq_map(samples, x), abs=1e-10)

    def test_responses_left_unchanged(self):
        # The model keeps the sample set's responses, and building its rows
        # writes into a new array, never into them, which may be a caller's.
        samples = make_set(
            scalar_oracle(lambda x: np.sin(x), sigma=0.5), np.array([1.0]), 0.7, 40, seed=3
        )
        before = samples.responses.copy()
        model = fit(samples)
        assert model.responses is samples.responses and model.points is samples.points
        rows = model.rows(np.array([1.3]))
        assert samples.responses.tobytes() == before.tobytes()
        assert not np.shares_memory(rows, samples.responses)

    def test_reconstruction_identity(self):
        # The rows' mean at each regression point is the least-squares fitted
        # value there, q (q.T responses), and adding the residual gives the
        # response back.
        samples = make_set(
            scalar_oracle(lambda x: x**2, sigma=0.3), np.array([2.0]), 0.5, 25, seed=5
        )
        model = fit(samples)
        fitted = np.array([fitted_map(model, p) for p in samples.points])
        q, _ = samples.factors
        assert np.allclose(fitted, q @ (q.T @ samples.responses), atol=1e-9)
        assert np.allclose(fitted + residuals(samples), samples.responses, atol=1e-9)

    def test_translation_equivariance(self):
        samples = make_set(
            scalar_oracle(lambda x: x**3, sigma=1.0), np.array([1.0]), 0.5, 30, seed=9
        )
        shifted = type(samples)(
            points=samples.points,
            responses=samples.responses + 7.5,
            offsets=samples.offsets,
            radius=samples.radius,
            poisedness_metric=samples.poisedness_metric,
            factors=samples.factors,
        )
        base, moved = fit(samples), fit(shifted)
        x = np.array([1.1])
        assert np.allclose(moved.b1, base.b1, atol=1e-10)
        assert np.allclose(fitted_map(moved, x), fitted_map(base, x) + 7.5, atol=1e-10)
        assert np.allclose(residuals(shifted), residuals(samples), atol=1e-10)

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
            fitted = np.array([fitted_map(model, p) for p in samples.points])
            obj_fit = np.sum((samples.responses - fitted) ** 2)
            obj_ref = np.sum((samples.responses - design @ theta) ** 2)
            assert obj_fit == pytest.approx(obj_ref, rel=1e-8, abs=1e-12)


class TestPredictAndScenarios:
    """The fitted map, read as the mean of the surrogate rows, and the rows."""

    def constant_model(self, c):
        return llr_model(np.zeros((2, 1)), [c], np.zeros((4, 1)))

    def test_constant_model(self):
        model = self.constant_model(5.0)
        for x in ([0.0, 0.0], [3.0, -1.0]):
            assert fitted_map(model, np.array(x))[0] == pytest.approx(5.0)

    def test_affine_arithmetic(self):
        model = llr_model([[3.0]], [2.0], np.zeros((3, 1)))
        assert fitted_map(model, np.array([4.0]))[0] == pytest.approx(14.0)

    def test_training_point_reconstruction(self):
        # At a regression point, that point's row is its response exactly:
        # (x - points[i]) is 0, so the slope adds nothing.
        samples = make_set(
            scalar_oracle(lambda x: x**2, sigma=0.2), np.array([1.0]), 0.4, 15, seed=2
        )
        model = fit(samples)
        for i in range(15):
            rows = model.rows(samples.points[i])
            assert rows[i].tobytes() == samples.responses[i].tobytes()

    def test_scenarios_reconstruct_training_responses(self):
        samples = make_set(
            scalar_oracle(lambda x: x**2, sigma=0.2), np.array([1.0]), 0.4, 15, seed=2
        )
        model = fit(samples)
        i = 7
        x = samples.points[i]
        assert model.shape == (15, 1)
        rows = model.rows(x)  # responses + (x - points) @ b1, bit for bit
        assert rows.tobytes() == (model.responses + (x - model.points) @ model.b1).tobytes()
        assert rows[i, 0] == samples.responses[i, 0]

    def test_zero_residuals_collapse_scenarios(self):
        model = self.constant_model(1.5)
        scen = model.rows(np.array([0.3, 0.4]))
        assert scen.shape == (4, 1) and np.allclose(scen, 1.5)

    def test_scenario_mean_equals_prediction(self):
        samples = make_set(
            scalar_oracle(lambda x: x**3, sigma=1.0), np.array([2.0]), 0.5, 40, seed=13
        )
        model = fit(samples)
        x = np.array([2.2])
        scen = model.rows(x)
        assert scen.mean(axis=0) == pytest.approx(lstsq_map(samples, x), abs=1e-10)


class TestOneFormula:
    """Surrogate rows are ``responses + (x - points) @ b1``, one formula for
    every reader of a model."""

    def test_rows_are_the_formula_bit_for_bit(self):
        for samples in poised_cases():
            model = fit(samples)
            points = samples.points
            for i, x in enumerate([*points, points.mean(axis=0), points[0] + samples.radius]):
                assert model.shape == samples.responses.shape  # before any row is built
                rows = model.rows(x)
                want = model.responses + (x - model.points) @ model.b1
                assert rows.shape == want.shape and rows.tobytes() == want.tobytes()
                if i < len(points):
                    # At its own point a row is its response exactly: the slope
                    # multiplies x - points[i] = 0.
                    assert rows[i].tobytes() == samples.responses[i].tobytes()

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6])
    def test_rows_within_two_ulps_of_long_double(self, delta):
        # On the synthetic map at x = 10, where x^3 is large against the
        # slope's reach, no row cancels: each lies within 2 ulps of the same
        # formula evaluated in long double (an intercept form, omega ~ b1 x +
        # b0, would cancel and lose up to 2000 ulps at delta = 1e-6).
        oracle = synthetic_instance().oracle
        x = np.array([10.0])
        ld = np.longdouble
        for seed in range(20):
            model = fit(generate_poised_set(oracle, x, delta, 300, 100.0, make_rng(seed)))
            rows = model.rows(x)
            ref = model.responses.astype(ld) + (x.astype(ld) - model.points.astype(ld)) @ (
                model.b1.astype(ld)
            )
            ulps = np.abs(rows.astype(ld) - ref) / np.spacing(np.abs(rows))
            assert float(ulps.max()) <= 2.0, f"seed {seed}: {float(ulps.max()):.1f} ulps"


def test_local_accuracy_scales_quadratically():
    # For the cubic map, the worst error of the fitted map over the fitting
    # ball shrinks like radius^2 when the sample count follows radius^-4.
    center = np.array([1.0])
    errors = []
    for radius in (0.4, 0.2, 0.1):
        count = int(np.ceil(radius**-4))
        samples = make_set(scalar_oracle(lambda x: x**3), center, radius, count, seed=17)
        model = fit(samples)
        grid = np.linspace(center[0] - radius, center[0] + radius, 801)
        preds = np.array([fitted_map(model, np.array([g]))[0] for g in grid])
        errors.append(np.max(np.abs(grid**3 - preds)))
    for big, small in zip(errors, errors[1:]):
        assert 2.0 <= big / small <= 8.0
