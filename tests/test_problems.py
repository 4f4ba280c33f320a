import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest

from ddtr.cli import build_instance, parse_run_config
from ddtr.core import (
    Box,
    ConfigurationError,
    DistributionOracle,
    Evaluation,
    IngestionError,
    Simplex,
    make_rng,
)
from ddtr.ingest import load_credit_csv, subsample
from ddtr.llr import fit, generate_poised_set
from ddtr.tr import IterationRecord, SampleSchedule, TRConfig, solve
from ddtr.problems import (
    DROProblem,
    SyntheticProblem,
    dro_instance,
    expit,
    generate_synthetic_credit,
    normal_nodes,
    softplus,
    synthetic_instance,
    synthetic_primal,
)

from util import (
    directional_fd,
    dro_inner_exact_check,
    dro_mc_reference,
    dro_nodes_reference,
    dro_one_row_reference,
    dro_reference_evaluators,
    quadratic_problem,
    trapezoid_nodes,
)

NOISY_DRO = replace(generate_synthetic_credit(40, 3, 7), noise_sigma=0.5)


class TestSyntheticPrimal:
    def test_zero(self):
        assert synthetic_primal(0.0)[0] == pytest.approx(0.0)

    def test_stationary_value_at_one(self):
        assert synthetic_primal(1.0)[0] == pytest.approx(0.0)

    def test_branch_continuity_at_knee(self):
        middle = 5.0**2 - 2 * 5.0**4 + 5.0**6
        upper = 5.0**2 - 2 * 5.0**4 + 250 * 5.0**3 - 15625
        assert middle == pytest.approx(14400.0)
        assert upper == pytest.approx(14400.0)
        assert synthetic_primal(5.0)[0] == pytest.approx(14400.0)
        assert synthetic_primal(5.0 + 1e-9)[0] == pytest.approx(14400.0, abs=1e-4)

    def test_matches_brute_force_grid(self):
        rng = make_rng(2)
        ys = np.linspace(-125.0, 125.0, 100_001)
        for x in rng.uniform(-6.0, 6.0, size=50):
            values = x**2 - 2.0 * (x + ys) * x**3 - ys**2
            assert synthetic_primal(float(x))[0] == pytest.approx(values.max(), abs=1e-4)

    def test_gradient_at_stationary_points(self):
        for x in (0.0, 1.0, -1.0):
            assert synthetic_primal(x)[1] == pytest.approx(0.0)

    def test_gradient_middle_branch_value(self):
        assert synthetic_primal(2.0)[1] == pytest.approx(132.0)

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(4)
        for x in rng.uniform(-8.0, 8.0, size=60):
            x = float(x)
            if abs(abs(x) - 5.0) < 1e-2:
                continue
            fd = (synthetic_primal(x + 1e-6)[0] - synthetic_primal(x - 1e-6)[0]) / 2e-6
            assert synthetic_primal(x)[1] == pytest.approx(fd, rel=1e-6, abs=1e-4)


class TestSyntheticInstance:
    def test_oracle_mean(self):
        inst = synthetic_instance()
        draws = inst.oracle.sample(np.array([2.0]), 100_000, make_rng(0))
        assert abs(draws.mean() - 8.0) < 5.0 / math.sqrt(100_000)

    def test_oracle_reproducible(self):
        inst = synthetic_instance()
        a = inst.oracle.sample(np.array([1.5]), 64, make_rng(3))
        b = inst.oracle.sample(np.array([1.5]), 64, make_rng(3))
        assert np.array_equal(a, b)

    def test_grad2_vanishes_at_interior_maximizer(self):
        inst = synthetic_instance()
        w = np.array([[8.0]])
        g = inst.problem.grad2(np.array([2.0]), np.array([-8.0]), w)
        assert np.allclose(g, 0.0)

    def test_gradients_match_finite_differences(self):
        inst = synthetic_instance()
        rng = make_rng(8)
        for _ in range(100):
            x = rng.normal(size=1) * 3.0
            y = rng.normal(size=1) * 3.0
            w = rng.normal(size=(1, 1)) * 4.0
            g1 = inst.problem.grad1(x, y, w)[0, 0]
            g2 = inst.problem.grad2(x, y, w)[0, 0]
            g3 = inst.problem.grad3(x, y, w)[0, 0]
            fd1 = directional_fd(lambda z: inst.problem.loss(z, y, w)[0], x, np.ones(1))
            fd2 = directional_fd(lambda z: inst.problem.loss(x, z, w)[0], y, np.ones(1))
            fd3 = (
                inst.problem.loss(x, y, w + 1e-6)[0] - inst.problem.loss(x, y, w - 1e-6)[0]
            ) / 2e-6
            assert g1 == pytest.approx(fd1, rel=1e-5, abs=1e-6)
            assert g2 == pytest.approx(fd2, rel=1e-5, abs=1e-6)
            assert g3 == pytest.approx(fd3, rel=1e-5, abs=1e-6)

    @pytest.mark.parametrize(
        "build, reference",
        [
            (
                synthetic_instance,
                lambda x, rng: (synthetic_primal(x[0])[0], abs(synthetic_primal(x[0])[1])),
            ),
            (
                lambda: dro_instance(generate_synthetic_credit(40, 3, 7)),
                lambda x, rng: dro_mc_reference(generate_synthetic_credit(40, 3, 7), x, rng, 1),
            ),
            (
                lambda: dro_instance(NOISY_DRO),
                lambda x, rng: dro_nodes_reference(NOISY_DRO, x, *trapezoid_nodes(0.01, 12.0)),
            ),
        ],
        ids=["synthetic", "dro", "dro-noisy"],
    )
    def test_diagnostics_evaluate_closed_form_without_spawning(self, build, reference):
        # evaluate hands the caller's generator to the joint callable and
        # returns its pair as floats; it spawns no child generator.
        inst = build()
        joint, passed = inst.diagnostics.value_and_grad_norm, []

        def spy(x, rng):
            passed.append(rng)
            return joint(x, rng)

        diag = replace(inst.diagnostics, value_and_grad_norm=spy)
        for i, v in enumerate((-6.0, -1.2, 0.0, 1.3, 5.0 + 1e-9)):
            x, rng = np.full(inst.problem.n, v), make_rng(i)
            got = diag.evaluate(x, rng)
            assert passed[-1] is rng and rng.bit_generator.seed_seq.n_children_spawned == 0
            assert got == joint(x, make_rng(i))
            np.testing.assert_allclose(got, reference(x, make_rng(i)), rtol=1e-12, atol=0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SyntheticProblem(noise_sigma=-1.0)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("x0_center", np.zeros(2)), ("x0_center", np.float64(1.0)), ("x0_radius", 0.0),
            ("x0_radius", -1.0), ("x0_radius", math.inf), ("x0_radius", math.nan),
            ("y0_center", np.zeros(2)),
        ],
    )
    def test_start_ball_validation(self, key, value):
        with pytest.raises(ConfigurationError, match=key):
            replace(synthetic_instance(), **{key: value})


@pytest.fixture(scope="module")
def small_dro():
    return generate_synthetic_credit(40, 3, 7)


class TestDROProblem:
    def test_default_lambda2_and_mu(self, small_dro):
        assert small_dro.lambda2 == pytest.approx(10.0 / 40**2)
        inst = dro_instance(small_dro)
        assert inst.problem.mu == pytest.approx(small_dro.lambda2 * 40**2)
        assert isinstance(inst.problem.inner_domain, Simplex)

    def test_inner_strong_concavity_modulus(self, small_dro):
        # The y-Hessian of the loss is exactly -lambda2 N^2 I.
        inst = dro_instance(small_dro)
        N = small_dro.n_rows
        rng = make_rng(1)
        x = rng.normal(size=3)
        bound = inst.problem.bind(x, inst.oracle.sample(x, 1, rng))
        y1 = Simplex(N).project(rng.normal(size=N))
        y2 = Simplex(N).project(rng.normal(size=N))
        dg = bound.grad2(y1) - bound.grad2(y2)
        assert np.allclose(dg, -inst.problem.mu * (y1 - y2), atol=1e-10)

    def test_gradients_match_finite_differences(self, small_dro):
        inst = dro_instance(small_dro)
        problem = inst.problem
        rng = make_rng(15)
        for _ in range(100):
            x = rng.normal(size=problem.n)
            y = Simplex(problem.m).project(rng.normal(size=problem.m) * 0.3)
            w = inst.oracle.sample(x, 1, rng) + 0.1 * rng.normal(size=(1, problem.d))
            vx = rng.normal(size=problem.n)
            vx /= np.linalg.norm(vx)
            vy = rng.normal(size=problem.m)
            vy /= np.linalg.norm(vy)
            vw = rng.normal(size=problem.d)
            vw /= np.linalg.norm(vw)
            bound = problem.bind(x, w)
            g1 = bound.grad1(y) @ vx
            g2 = bound.grad2(y) @ vy
            g3 = bound.grad3(y) @ vw
            fd1 = directional_fd(lambda z: problem.bind(z, w).loss(y), x, vx)
            fd2 = directional_fd(bound.loss, y, vy)
            fd3 = (
                problem.bind(x, w + 1e-6 * vw).loss(y) - problem.bind(x, w - 1e-6 * vw).loss(y)
            ) / 2e-6
            assert g1 == pytest.approx(fd1, rel=1e-5, abs=1e-8)
            assert g2 == pytest.approx(fd2, rel=1e-5, abs=1e-8)
            assert g3 == pytest.approx(fd3, rel=1e-5, abs=1e-8)

    def test_oracle_noise_knob(self, small_dro):
        noisy = DROProblem(
            features=small_dro.features,
            labels=small_dro.labels,
            noise_sigma=0.5,
        )
        inst = dro_instance(noisy)
        draws = inst.oracle.sample(np.zeros(3), 200, make_rng(2))
        assert draws.std(axis=0).mean() == pytest.approx(0.5, rel=0.15)

    def test_diagnostics_grad_matches_fd_of_value(self, small_dro):
        inst = dro_instance(small_dro)
        x = np.array([0.6, -0.2, 1.1])
        value = inst.diagnostics.value_and_grad_norm
        grad_norm = value(x, make_rng(5))[1]
        n = x.shape[0]
        fd = np.zeros(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1e-6
            fd[j] = (value(x + e, make_rng(5))[0] - value(x - e, make_rng(5))[0]) / 2e-6
        assert grad_norm == pytest.approx(np.linalg.norm(fd), rel=1e-6)

    def test_label_validation(self):
        with pytest.raises(ConfigurationError):
            DROProblem(features=np.zeros((3, 2)), labels=np.array([0.0, 1.0, 1.0]))

    def test_negative_noise_rejected(self, small_dro):
        # The sampler only adds noise for noise_sigma > 0, so a negative value
        # was silently taken as 0.
        with pytest.raises(ConfigurationError, match="noise_sigma"):
            DROProblem(features=small_dro.features, labels=small_dro.labels, noise_sigma=-0.1)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda dro: {"labels": dro.labels[:-1]}, "one label per row"),
            (lambda dro: {"features": dro.features[:, 0]}, "one label per row"),
            # f(x) has a pole at |x_j| = 2 here; a dro run with this alpha exited 0.
            (lambda dro: {"alpha": -0.25}, "alpha must be finite and nonnegative"),
            (lambda dro: {"alpha": math.inf}, "alpha must be finite"),
            (lambda dro: {"lambda1": -math.inf}, "lambda1 must be finite"),
        ],
        ids=["labels", "features-1d", "alpha-negative", "alpha-inf", "lambda1-inf"],
    )
    def test_bad_term_rejected(self, small_dro, edit, match):
        with pytest.raises(ConfigurationError, match=match):
            replace(small_dro, **edit(small_dro))


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda dro: SyntheticProblem(noise_sigma=math.nan), "noise_sigma"),
        (lambda dro: SyntheticProblem(half_width=math.nan), "half_width"),
        (lambda dro: replace(dro, noise_sigma=math.nan), "noise_sigma"),
        (lambda dro: replace(dro, alpha=math.nan), "alpha"),
        (lambda dro: replace(dro, lambda1=math.nan), "lambda1"),
    ],
    ids=["synthetic-noise_sigma", "synthetic-half_width", "dro-noise_sigma", "dro-alpha",
         "dro-lambda1"],
)
def test_nan_parameter_rejected(small_dro, build, key):
    # NaN passes a `< 0` or `<= 0` check: a NaN-noise synthetic problem would
    # fail only at its first draw, and a dro sampler would draw noiseless rows
    # while its diagnostic integrated over a NaN noise scale.
    with pytest.raises(ConfigurationError, match=key):
        build(small_dro)


def counted_sample():
    return mock.patch.object(
        DistributionOracle, "sample", autospec=True, side_effect=DistributionOracle.sample
    )


def diagnostics(dro):
    return dro_instance(dro).diagnostics


class TestDRODiagnosticsRepeatedX:
    """The diagnostic keeps nothing between calls: a call at an ``x`` seen
    before gives what a fresh instance gives there."""

    X = np.array([0.6, -0.2, 1.1])
    OTHER = np.array([0.5, 0.3, -0.4])

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_repeat_is_bitwise_equal(self, small_dro, sigma):
        diag = diagnostics(replace(small_dro, noise_sigma=sigma))
        first = diag.value_and_grad_norm(self.X, make_rng(1))
        assert diag.value_and_grad_norm(self.X.copy(), make_rng(2)) == first

    def test_return_to_earlier_point_matches_fresh_instance(self, small_dro):
        diag = diagnostics(small_dro)
        diag.value_and_grad_norm(self.X, make_rng(1))
        diag.value_and_grad_norm(self.OTHER, make_rng(1))
        again = diag.value_and_grad_norm(self.X, make_rng(1))
        assert again == diagnostics(small_dro).value_and_grad_norm(self.X, make_rng(1))

    def test_mutated_input_is_not_served_stale(self, small_dro):
        diag = diagnostics(small_dro)
        x = self.X.copy()
        diag.value_and_grad_norm(x, make_rng(1))
        x[:] = self.OTHER
        got = diag.value_and_grad_norm(x, make_rng(1))
        assert got == diagnostics(small_dro).value_and_grad_norm(self.OTHER, make_rng(1))


class TestDRODiagnosticsOneRow:
    """Without noise the diagnostic's one node is the drawn row: bitwise the
    binding over one drawn row, whatever ``diag_samples`` a config gives, and
    the reference estimator over one row or over copies of it up to rounding."""

    @staticmethod
    def points():
        rng = make_rng(11)
        return [rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 1.0) for _ in range(100)]

    @pytest.mark.parametrize("diag_samples", [1, 7, 5000])
    def test_bitwise_equal_to_one_drawn_row(self, small_dro, diag_samples):
        params = {"n_rows": 40, "n_features": 3, "data_seed": 7, "diag_samples": diag_samples}
        doc = {"problem": "dro", "solver": "tr", "seeds": [1], "problem_params": params}
        diag = build_instance(parse_run_config(doc)).diagnostics
        for i, x in enumerate(self.points()):
            got = diag.value_and_grad_norm(x, make_rng(i))
            assert got == dro_one_row_reference(small_dro, x)
            want = dro_mc_reference(small_dro, x, make_rng(i), 1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("draws", [1, 7, 5000])
    def test_close_to_drawn_rows(self, small_dro, draws):
        diag = diagnostics(small_dro)
        for i, x in enumerate(self.points()):
            got = diag.value_and_grad_norm(x, make_rng(i))
            want = dro_mc_reference(small_dro, x, make_rng(i), draws)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("diag_samples", [0, -5, 2.5, "abc", True, None])
    def test_invalid_diag_samples_rejected(self, small_dro, diag_samples):
        # The instance takes no diag_samples at all: its diagnostic draws nothing.
        with pytest.raises(TypeError, match="diag_samples"):
            dro_instance(small_dro, diag_samples=diag_samples)


class TestDRODiagnosticsExact:
    """With noise the diagnostic takes each margin's mean over its normal law
    at the nodes of ``normal_nodes``: to rounding what a finer and wider rule
    gives, and what the 200-node Gauss-Hermite rule gives where that rule
    converges; within 4 standard errors of the Monte-Carlo estimate. It draws
    nothing and ignores its generator."""

    @staticmethod
    def points(n):
        # Three around the dro start ball's center (2, ..., 2), three nearer 0.
        rng = make_rng(12)
        return [2.0 + 0.3 * rng.normal(size=n) for _ in range(3)] + [
            rng.normal(size=n) for _ in range(3)
        ]

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("shape", [(40, 3, 7), (200, 5, 0)], ids=["40x3", "200x5"])
    def test_equals_a_finer_wider_rule(self, shape, sigma):
        dro = replace(generate_synthetic_credit(*shape), noise_sigma=sigma)
        diag = diagnostics(dro)
        for x in self.points(dro.n_features):
            step = 0.1 / max(1.0, sigma * np.linalg.norm(x))  # a quarter of the rule's
            want = dro_nodes_reference(dro, x, *trapezoid_nodes(step, 12.0))
            np.testing.assert_allclose(diag.value_and_grad_norm(x, None), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("sigma", [0.1, 0.5])
    def test_equals_gauss_hermite_where_it_converges(self, sigma):
        # At sigma = 2 the 200-node rule itself is off by about 5e-10 here.
        from numpy.polynomial.hermite_e import hermegauss

        z, weights = hermegauss(200)
        dro = replace(generate_synthetic_credit(200, 5, 0), noise_sigma=sigma)
        diag = diagnostics(dro)
        for x in self.points(5):
            want = dro_nodes_reference(dro, x, z, weights / weights.sum())
            np.testing.assert_allclose(diag.value_and_grad_norm(x, None), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    def test_within_4_se_of_monte_carlo(self, small_dro, sigma):
        # 100,000 draws as 20 estimates of 5,000: an estimate's bias, of order
        # 1 / 5000, is far below the spread of their mean.
        dro = replace(small_dro, noise_sigma=sigma)
        diag = diagnostics(dro)
        for i, x in enumerate(self.points(3)[::2]):
            rng = make_rng([13, i])
            estimates = np.array([dro_mc_reference(dro, x, rng, 5000) for _ in range(20)])
            se = estimates.std(axis=0, ddof=1) / math.sqrt(len(estimates))
            gap = np.abs(diag.value_and_grad_norm(x, None) - estimates.mean(axis=0))
            assert np.all(gap <= 4.0 * se), (i, gap / se)

    def test_grad_matches_fd_of_value(self):
        # The noise's share of the gradient, Stein's term, comes from grad1
        # over the node rows.
        value = diagnostics(replace(NOISY_DRO, noise_sigma=2.0)).value_and_grad_norm
        x = np.array([0.6, -0.2, 1.1])
        fd = [
            (value(x + e, None)[0] - value(x - e, None)[0]) / 2e-6 for e in 1e-6 * np.eye(3)
        ]
        assert value(x, None)[1] == pytest.approx(np.linalg.norm(fd), rel=1e-6)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_draws_nothing(self, small_dro, sigma):
        diag = diagnostics(replace(small_dro, noise_sigma=sigma))
        rng = make_rng(1)
        with counted_sample() as sample:
            diag.value_and_grad_norm(np.array([0.6, -0.2, 1.1]), rng)
        assert sample.call_count == 0 and diag.sample_count == 0
        assert rng.random() == make_rng(1).random()  # its generator is where it was

    def test_noise_leaves_the_origin_alone(self, small_dro):
        # Every margin is 0 at x = 0 whatever the noise: one node, no 0 / 0.
        x = np.zeros(3)
        noisy = diagnostics(NOISY_DRO).value_and_grad_norm(x, None)
        assert noisy == diagnostics(small_dro).value_and_grad_norm(x, None)

    def test_nodes(self):
        for scale in (0.0, 0.3, 1.0, 9.0, 44.0, 1e300, math.inf):
            z, weights = normal_nodes(scale)
            assert np.array_equal(z, -z[::-1]) and weights.sum() == pytest.approx(1.0, rel=1e-15)
            assert len(z) == 1 if scale == 0 else len(z) <= 2001
        assert len(normal_nodes(math.inf)[0]) == 2001


EVALUATORS = ("loss", "grad1", "grad2", "grad3")


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_binding(bound, x, w, ys, references, rtol=None) -> None:
    """Each method of one binding, at every y and in two call orders, equals
    the scenario mean of every reference callable of ``(x, y, w)`` (for loss,
    the 1-D mean): bit for bit, or with ``rtol`` to that relative tolerance."""
    for i, y in enumerate(ys):
        for name in EVALUATORS if i % 2 == 0 else EVALUATORS[::-1]:
            got = getattr(bound, name)(y)
            for reference in references:
                want = np.mean(reference[name](x, y, w), axis=0)
                if rtol is None:
                    assert same_bits(got, want), (i, name)
                else:
                    assert np.shape(got) == np.shape(want), (i, name)
                    np.testing.assert_allclose(got, want, rtol=rtol, atol=0, err_msg=f"{i} {name}")


def dro_with_rows(rows, features, seed, noise_sigma=0.0):
    """A DRO problem of any shape: ``generate_synthetic_credit`` needs two
    rows, so one row is drawn here."""
    if rows > 1:
        dro = generate_synthetic_credit(rows, features, seed)
    else:
        dro = DROProblem(features=make_rng(seed).normal(size=(1, features)), labels=[1.0])
    return replace(dro, noise_sigma=noise_sigma)


class TestBinding:
    """``ProblemSpec.bind`` gives, at any number of y, the scenario means of
    the per-draw loss and gradients: the default binding bit for bit, the
    DRO one to within rounding, and each a function of y alone."""

    def test_dro_fused_binding_matches_reference(self, small_dro):
        noisy = DROProblem(features=small_dro.features, labels=small_dro.labels, noise_sigma=0.5)
        inst = dro_instance(noisy)
        rng = make_rng(8)
        for trial in range(5):
            x = rng.normal(size=3) * 2.0
            w = inst.oracle.sample(x, 1 + 20 * trial, rng)
            bound = inst.problem.bind(x, w)
            assert not isinstance(bound, Evaluation)
            ys = [Simplex(40).project(rng.normal(size=40)) for _ in range(4)]
            ys += [Simplex(40).center(), ys[0]]
            check_binding(bound, x, w, ys, [dro_reference_evaluators(noisy)], rtol=1e-12)

    @pytest.mark.parametrize("rows, features", [(200, 5), (7, 2), (1, 5)])
    @pytest.mark.parametrize("count", [1, 2, 300, 301])
    def test_dro_binding_of_drawn_rows_matches_reference(self, rows, features, count):
        # The benchmark shape (N = 200, n = 5) with its regression set size,
        # 300, and the shapes N = 1 and n <= 2 at the edges of the products.
        dro = dro_with_rows(rows, features, count, noise_sigma=0.5)
        inst = dro_instance(dro)
        rng = make_rng(count)
        for trial in range(2):
            x = rng.normal(size=features) * 2.0
            w = inst.oracle.sample(x, count, rng)
            ys = [Simplex(rows).project(rng.normal(size=rows)) for _ in range(3)]
            ys += [Simplex(rows).center(), ys[0]]
            references = [dro_reference_evaluators(dro)]
            check_binding(inst.problem.bind(x, w), x, w, ys, references, rtol=1e-12)

    @pytest.mark.parametrize("rows, features", [(40, 3), (7, 2), (200, 5), (1, 5)])
    @pytest.mark.parametrize("count", [1, 2, 100, 500])
    def test_dro_binding_of_noiseless_copies_is_its_rows_binding(self, rows, features, count):
        # Noiseless draws at one x are copies of one row. Their binding is that
        # row's to within rounding, and so is the reference's means over them:
        # the one row is all a point-mass oracle is asked for.
        dro = dro_with_rows(rows, features, 0)
        inst = dro_instance(dro)
        closures = dro_reference_evaluators(dro)
        rng = make_rng(count)
        for trial in range(3):
            x = rng.normal(size=features) * 2.0
            w = inst.oracle.sample(x, count, rng)
            assert all(same_bits(copy, w[0]) for copy in w)
            bound, one_row = inst.problem.bind(x, w), inst.problem.bind(x, w[:1])
            ys = [Simplex(rows).project(rng.normal(size=rows)) for _ in range(3)]
            for i, y in enumerate(ys + [Simplex(rows).center()]):
                for name in EVALUATORS if (i + trial) % 2 == 0 else EVALUATORS[::-1]:
                    got = getattr(one_row, name)(y)
                    np.testing.assert_allclose(getattr(bound, name)(y), got, rtol=1e-12, atol=0)
                    want = np.mean(closures[name](x, y, w), axis=0)
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_dro_binding_bits_do_not_depend_on_call_order(self, noise_sigma):
        # Two bindings of one draw set, called at the same ys with their
        # methods in opposite orders, return the same bits.
        dro = replace(generate_synthetic_credit(200, 5, 4), noise_sigma=noise_sigma)
        inst = dro_instance(dro)
        rng = make_rng(4)
        x = rng.normal(size=5) * 2.0
        w = inst.oracle.sample(x, 300, rng)
        ys = [Simplex(200).project(rng.normal(size=200)) for _ in range(3)]
        ys += [Simplex(200).center(), ys[0]]
        forward, backward = inst.problem.bind(x, w), inst.problem.bind(x, w)
        got = {name: [] for name in EVALUATORS}
        for y in ys:
            for name in EVALUATORS:
                got[name].append(getattr(forward, name)(y))
        for name in EVALUATORS[::-1]:
            for y, want in zip(ys, got[name]):
                assert same_bits(getattr(backward, name)(y), want), name

    def test_dro_binding_at_benchmark_size_matches_logaddexp(self):
        # 300 scenarios of N = 200 rows, the size of the benchmark's surrogate
        # binding, against the loss and grad2 written with np.logaddexp.
        dro = replace(generate_synthetic_credit(200, 5, 3), noise_sigma=0.5)
        inst = dro_instance(dro)
        N, b, lam2 = dro.n_rows, dro.labels, dro.lambda2
        rng = make_rng(3)
        for trial in range(3):
            x = rng.normal(size=5) * 2.0 * (trial + 1)
            w = inst.oracle.sample(x, 300, rng)
            bound = inst.problem.bind(x, w)
            losses = np.logaddexp(0.0, -b[None, :] * (w.reshape(-1, N, 5) @ x))  # (300, N)
            q = dro.alpha * x**2
            f_value = dro.lambda1 * np.sum(q / (1.0 + q))
            for y in [Simplex(N).project(rng.normal(size=N)), Simplex(N).center()]:
                reg = 0.5 * lam2 * np.sum((N * y - 1.0) ** 2)
                want_loss = np.mean(losses @ y / N) + f_value - reg
                want_grad2 = np.mean(losses / N, axis=0) - lam2 * N * (N * y - 1.0)
                np.testing.assert_allclose(bound.loss(y), want_loss, rtol=1e-14, atol=0)
                np.testing.assert_allclose(bound.grad2(y), want_grad2, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.5])
    def test_dro_binding_of_surrogate_set_matches_binding_of_its_rows(self, noise_sigma):
        # A fitted model is bound on its fields, row s at x being
        # omega_s + b1^T (x - p_s); to within rounding that is the binding
        # of the rows it builds at x, at the fit's center and away from it.
        dro = replace(generate_synthetic_credit(200, 5, 2), noise_sigma=noise_sigma)
        inst = dro_instance(dro)
        rng = make_rng(2)
        center = np.full(5, 2.0)
        model = fit(generate_poised_set(inst.oracle, center, 0.5, 300, 100.0, rng))
        moved = center + 0.3 * rng.normal(size=5)
        for x in (center, moved):
            factored = inst.problem.bind(x, model)
            built = inst.problem.bind(x, model.rows(x))
            y = Simplex(200).project(rng.normal(size=200))
            for name in EVALUATORS:
                got, want = getattr(factored, name)(y), getattr(built, name)(y)
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)

    def test_default_binding_matches_callables_bitwise(self):
        problem = quadratic_problem([1.0, 2.5, 4.0], Box(np.full(3, -2.0), np.full(3, 2.0)))
        callables = {name: getattr(problem, name) for name in EVALUATORS}
        rng = make_rng(9)
        x, w = rng.normal(size=1), rng.normal(size=(30, 3))
        bound = problem.bind(x, w)
        assert isinstance(bound, Evaluation)
        check_binding(bound, x, w, list(rng.normal(size=(5, 3))), [callables])

    @pytest.mark.parametrize("name", EVALUATORS)
    def test_problem_without_fused_binding_needs_all_four_callables(self, name):
        problem = quadratic_problem([1.0, 2.0], Box(np.full(2, -1.0), np.full(2, 1.0)))
        with pytest.raises(ConfigurationError, match="four callables"):
            replace(problem, **{name: None})


class TestBenchmarkWrappedFields:
    """Pass-through wrappers of the callable fields that the benchmark's
    tracer replaces leave an instance and its runs as they are."""

    # perfbench/tracing.py replaces these fields by name: keep them until it wraps ``bind``.
    DIAGNOSTICS = ("value", "grad_norm", "value_and_grad_norm")

    def wrapped(self, inst):
        def through(fn):
            return lambda *args: fn(*args)

        problem, diag = inst.problem, inst.diagnostics
        return replace(
            inst,
            problem=replace(problem, **{g: through(getattr(problem, g)) for g in EVALUATORS}),
            oracle=replace(inst.oracle, sampler=through(inst.oracle.sampler)),
            diagnostics=replace(diag, **{
                key: through(fn) for key in self.DIAGNOSTICS
                if (fn := getattr(diag, key)) is not None
            }),
        )

    @pytest.mark.parametrize(
        "build",
        [synthetic_instance, lambda: dro_instance(generate_synthetic_credit(40, 3, 7))],
        ids=["synthetic", "dro"],
    )
    def test_wrapped_instance_runs_identically(self, build):
        inst = build()
        wrapped = self.wrapped(inst)
        x = inst.x0_center
        w = inst.oracle.sample(x, 2, make_rng(0))
        assert type(wrapped.problem.bind(x, w)) is type(inst.problem.bind(x, w))
        config = TRConfig(
            llr_schedule=SampleSchedule(minimum=40, maximum=40),
            value_schedule=SampleSchedule(minimum=40, maximum=40),
            max_iters=3,
            seed=1,
        )
        plain, traced = (
            solve(x, i.problem, i.oracle, config, i.diagnostics)[1] for i in (inst, wrapped)
        )
        assert len(plain) == len(traced) == 3
        for want, got in zip(plain, traced):
            for field in fields(IterationRecord):
                a, b = np.asarray(getattr(want, field.name)), np.asarray(getattr(got, field.name))
                assert same_bits(a, b), field.name


class TestDROSampler:
    """Every draw is a new, writable array."""

    X = np.array([0.3, -1.0, 2.0])

    def test_noiseless_draws_at_one_x_are_new_copies_of_one_row(self, small_dro):
        draws = dro_instance(small_dro).oracle.sample(self.X, 50, make_rng(0))
        assert draws.shape == (50, 120) and draws.strides == (120 * 8, 8)
        assert draws.flags.writeable and not np.shares_memory(draws, small_dro.features)
        shifted = small_dro.features + small_dro.shift_scale * np.sin(self.X)
        assert all(same_bits(row, shifted.reshape(-1)) for row in draws)
        draws[0] = 0.0  # the rows are the array's own, not one row seen 50 times
        assert same_bits(draws[1], shifted.reshape(-1))

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_sample_at_returns_new_writable_rows(self, small_dro, sigma):
        dro = DROProblem(features=small_dro.features, labels=small_dro.labels, noise_sigma=sigma)
        oracle = dro_instance(dro).oracle
        points = make_rng(1).normal(size=(6, 3))
        draws = oracle.sample(points, 6, make_rng(2))
        assert draws.flags.writeable and draws.flags.c_contiguous
        assert not np.shares_memory(draws, small_dro.features)
        rng = make_rng(2)
        singles = np.vstack([oracle.sample(point, 1, rng) for point in points])
        assert same_bits(draws, singles)

    @pytest.mark.parametrize("count", [1, 2, 50])
    def test_noisy_draws_are_new(self, small_dro, count):
        dro = DROProblem(features=small_dro.features, labels=small_dro.labels, noise_sigma=0.5)
        draws = dro_instance(dro).oracle.sample(self.X, count, make_rng(3))
        assert draws.flags.writeable and draws.flags.c_contiguous
        assert draws.strides[0] == 120 * 8

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_batched_draws_at_benchmark_size(self, sigma):
        # N = 200 rows of n = 5 features at 300 points, as the regression set
        # of the dro-tr benchmark draws them.
        dro = replace(generate_synthetic_credit(200, 5, 0), noise_sigma=sigma)
        oracle = dro_instance(dro).oracle
        points = make_rng(4).uniform(-4.0, 4.0, size=(300, 5))
        draws = oracle.sample(points, 300, make_rng(5))
        # The poisedness redraw writes into a batch of as many draws as points.
        assert draws.shape == (300, 1000) and draws.flags.writeable
        formula = dro.features[None] + dro.shift_scale * np.sin(points)[:, None, :]
        if sigma > 0:
            formula = formula + sigma * make_rng(5).standard_normal((300, 200, 5))
        assert same_bits(draws, formula.reshape(300, 1000))
        rng = make_rng(5)
        singles = np.vstack([oracle.sample(point, 1, rng) for point in points])
        assert same_bits(draws, singles)

    def test_poised_set_redraws_rows_of_noiseless_draws(self, small_dro):
        # The redraw loop writes one row at a time into the batch of draws, so
        # that draw must be writable; lambda_max = 5 forces three redraws here.
        oracle = dro_instance(small_dro).oracle
        with counted_sample() as sample:
            samples = generate_poised_set(oracle, self.X, 0.5, 8, 5.0, make_rng(1))
        assert sample.call_count > 1 and samples.poisedness_metric <= 5.0
        rng = make_rng(0)
        singles = np.vstack([oracle.sample(point, 1, rng) for point in samples.points])
        assert same_bits(samples.responses, singles)


class TestDROInnerExactCheck:
    def test_uniform_y_at_origin(self, small_dro):
        N = small_dro.n_rows
        y = np.full(N, 1.0 / N)
        value = dro_inner_exact_check(small_dro, np.zeros(3), y)
        assert value == pytest.approx(math.log(2.0) / N, abs=1e-12)

    def test_degenerate_single_row(self):
        dro = generate_synthetic_credit(2, 2, 0)
        value = dro_inner_exact_check(dro, np.array([0.5, -0.5]), np.array([1.0]), [0])
        a = dro.features[0] + dro.shift_scale * np.sin(np.array([0.5, -0.5]))
        z = float(a @ np.array([0.5, -0.5]))
        f = dro.lambda1 * sum(v**2 / (1 + v**2) for v in (0.5, -0.5))
        expected = math.log(1 + math.exp(-dro.labels[0] * z)) + f
        assert value == pytest.approx(expected, abs=1e-12)

    def test_lambda2_zero_drops_regularizer(self):
        dro = DROProblem(
            features=generate_synthetic_credit(6, 2, 1).features,
            labels=generate_synthetic_credit(6, 2, 1).labels,
            lambda2=0.0,
        )
        y = np.array([1.0, 0, 0, 0, 0, 0])
        with_reg = dro_inner_exact_check(dro, np.zeros(2), y)
        uniform = dro_inner_exact_check(dro, np.zeros(2), np.full(6, 1 / 6))
        assert with_reg == pytest.approx(uniform, abs=1e-12)  # all losses log 2 at x = 0

    def test_index_out_of_range(self, small_dro):
        with pytest.raises(IndexError):
            dro_inner_exact_check(small_dro, np.zeros(3), np.array([1.0]), [40])

    def test_agrees_with_vectorized_loss(self, small_dro):
        inst = dro_instance(small_dro)
        rng = make_rng(33)
        for _ in range(5):
            x = rng.normal(size=3)
            y = Simplex(40).project(rng.normal(size=40) * 0.2)
            vec = inst.problem.bind(x, inst.oracle.sample(x, 1, rng)).loss(y)
            ref = dro_inner_exact_check(small_dro, x, y)
            assert vec == pytest.approx(ref, rel=1e-12)


class TestLoadCreditCsv:
    HEADER = "SeriousDlqin2yrs,income,age,debt\n"

    def write(self, tmp_path, body, name="credit.csv"):
        path = tmp_path / name
        path.write_text(self.HEADER + body)
        return path

    def test_clean_rows(self, tmp_path):
        path = self.write(tmp_path, "0,100.5,30,0.2\n1,50.25,40,0.9\n0,80,25,0.1\n")
        dro = load_credit_csv(path)
        assert dro.n_rows == 3 and dro.n_features == 3
        assert set(dro.labels) == {-1.0, 1.0}
        assert np.allclose(dro.features.mean(axis=0), 0.0, atol=1e-10)

    def test_missing_cell_drops_row(self, tmp_path):
        path = self.write(tmp_path, "0,100,30,0.2\n1,,40,0.9\n0,80,25,0.1\n")
        with pytest.warns(UserWarning, match=r"credit\.csv: dropped 1 of 3 rows .* line 3$"):
            dro = load_credit_csv(path)
        assert dro.n_rows == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_credit_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestionError):
            load_credit_csv(tmp_path / "nope.csv")

    def test_malformed_row_names_line(self, tmp_path):
        path = self.write(tmp_path, "0,100,30,0.2\n1,50,40\n")
        with pytest.raises(IngestionError, match=":3"):
            load_credit_csv(path)

    def test_line_numbers_are_the_file_lines(self, tmp_path):
        # A quoted header cell over lines 1-2 made the dropped row on line 4
        # read "line 3": rows were numbered as records, not as lines.
        path = tmp_path / "credit.csv"
        path.write_text('"Serious\nDlq",f1\n1,2\n0,\n1,3\n0,4\n')
        with pytest.warns(UserWarning, match=r"dropped 1 of 4 rows .* line 4$"):
            dro = load_credit_csv(path, label_column="Serious\nDlq")
        assert dro.n_rows == 3
        path.write_text(path.read_text() + "1,5,6\n")
        with pytest.raises(IngestionError, match=r"credit\.csv:7: expected 2 fields, got 3$"):
            load_credit_csv(path, label_column="Serious\nDlq")

    def test_bad_label_rejected(self, tmp_path):
        path = self.write(tmp_path, "2,100,30,0.2\n")
        with pytest.raises(IngestionError, match="label"):
            load_credit_csv(path)

    @pytest.mark.parametrize("cell", ["1e999", "inf", "-Infinity"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        # float() reads these; standardizing them gave NaN features, and every
        # seed of a run then failed on a non-finite oracle draw.
        path = self.write(tmp_path, f"0,100,30,0.2\n1,{cell},40,0.9\n0,80,25,0.1\n")
        with pytest.raises(IngestionError, match=r"credit\.csv:3: non-finite"):
            load_credit_csv(path)

    def test_all_rows_dropped(self, tmp_path):
        path = self.write(tmp_path, "0,,30,0.2\n1,,40,0.9\n")
        with pytest.raises(IngestionError, match="no usable rows"):
            load_credit_csv(path)

    def test_feature_column_selection(self, tmp_path):
        path = self.write(tmp_path, "0,100,30,0.2\n1,50,40,0.9\n")
        dro = load_credit_csv(path, feature_columns=["income", "age"])
        assert dro.n_features == 2

    @pytest.mark.parametrize(
        "body, options, match",
        [
            ("0,100,30,0.2\n", {"label_column": "default"}, "label column 'default' not in"),
            ("0,100,30,0.2\n", {"feature_columns": ["age", "sex"]}, r"header: \['sex'\]"),
            ("0,100,30,0.2\n", {"feature_columns": []}, "no feature columns"),
            ("0,100,30,0.2\n1,50,forty,0.9\n", {}, r"credit\.csv:3: non-numeric value"),
        ],
        ids=["label-column", "feature-column", "no-feature-column", "non-numeric-cell"],
    )
    def test_input_check_rejects(self, tmp_path, body, options, match):
        with pytest.raises(IngestionError, match=match):
            load_credit_csv(self.write(tmp_path, body), **options)

    @pytest.mark.parametrize("columns", [["SeriousDlqin2yrs", "age"], ["age", "age"]])
    def test_label_or_repeated_feature_column_rejected(self, tmp_path, columns):
        # The label as a feature leaks it into the fit; a repeat duplicates a column.
        path = self.write(tmp_path, "0,100,30,0.2\n1,50,40,0.9\n")
        with pytest.raises(IngestionError, match="feature columns"):
            load_credit_csv(path, feature_columns=columns)


class TestGenerateSyntheticCredit:
    def test_deterministic(self):
        a = generate_synthetic_credit(100, 5, 42)
        b = generate_synthetic_credit(100, 5, 42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_both_labels_present(self):
        for seed in range(5):
            dro = generate_synthetic_credit(50, 4, seed)
            assert set(np.unique(dro.labels)) == {-1.0, 1.0}

    def test_too_few_rows(self):
        with pytest.raises(ConfigurationError):
            generate_synthetic_credit(1, 5, 0)

    def test_subsample(self):
        full = generate_synthetic_credit(100, 4, 3)
        sub = subsample(full, 30, 1)
        assert sub.n_rows == 30
        assert sub.lambda2 == pytest.approx(10.0 / 30**2)
        with pytest.raises(ConfigurationError):
            subsample(sub, 31, 0)


class TestExpit:
    def test_within_2_ulp_of_the_scalar_formula_without_warnings(self):
        rng = np.random.default_rng(0)
        z = np.concatenate(
            [np.linspace(-800.0, 800.0, 16001)]
            + [scale * rng.standard_normal(10000) for scale in (1.0, 10.0, 100.0)]
        )

        def reference(t):
            try:
                return 1.0 / (1.0 + math.exp(-t))
            except OverflowError:
                return 0.0

        want = np.array([reference(t) for t in z])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(z)
            assert expit(-800.0) == 0.0 and expit(800.0) == 1.0
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        assert got[0] == 0.0 and got[16000] == 1.0

    def test_equals_the_out_of_place_formula_and_keeps_its_input(self):
        z = np.random.default_rng(1).normal(size=(300, 200)) * 10.0
        kept = z.copy()
        got = expit(z)
        assert same_bits(got, 1.0 / (1.0 + np.exp(-z)))
        assert not np.shares_memory(got, z) and z.tobytes() == kept.tobytes()


class TestSoftplus:
    def test_within_2_ulp_of_logaddexp_without_warnings(self):
        magnitudes = np.geomspace(1e-300, 800.0, 200001)
        z = np.concatenate([-magnitudes[::-1], [0.0, -0.0], magnitudes])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = softplus(z)
        want = np.logaddexp(0.0, z)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))

    def test_exact_at_zero_and_the_ends(self):
        assert softplus(np.array([0.0, -800.0, 800.0])).tolist() == [math.log(2.0), 0.0, 800.0]

    def test_blocks_give_the_bits_of_one_pass(self):
        # (5000, 200) is added in blocks of 20 rows, (3, 70000) a row at a time.
        for shape in ((5000, 200), (3, 70000), (0, 4)):
            z = np.random.default_rng(2).normal(size=shape) * 10.0
            one_pass = np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0)
            assert same_bits(softplus(z), one_pass), shape

    @pytest.mark.parametrize("shape", [(5000, 200), (300, 200)], ids=["5000x200", "300x200"])
    def test_peak_memory_stays_near_its_result(self, shape):
        # The noisy diagnostic's margins at diag_samples = 5000, N = 200, and
        # the dro-tr surrogate's at S = 300: a whole-array max(z, 0)
        # temporary would double the peak.
        z = np.random.default_rng(3).normal(size=shape)
        softplus(z)  # warm-up
        tracemalloc.start()
        try:
            got = softplus(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * got.nbytes, peak / got.nbytes

    def test_returns_a_new_array_and_keeps_its_input(self):
        z = np.random.default_rng(0).normal(size=(3, 4)) * 10.0
        kept = z.copy()
        got = softplus(z)
        assert not np.shares_memory(got, z)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert z.tobytes() == kept.tobytes()
