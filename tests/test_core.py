import ast
import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

import ddtr
import ddtr.baselines
import ddtr.problems
from ddtr.core import (
    Box,
    ConfigurationError,
    ContractViolationError,
    DistributionOracle,
    OracleDiagnostics,
    Simplex,
    make_rng,
    norm,
    scenario_mean,
    uniform_ball_sample,
)
from ddtr.llr import generate_poised_set
from ddtr.problems import (
    SyntheticProblem,
    dro_instance,
    generate_synthetic_credit,
    synthetic_instance,
)

from test_golden import DRO_TR
from util import fresh_python, scalar_oracle


class TestBoxProjection:
    def test_interior_point_is_fixed(self):
        box = Box(np.array([-125.0]), np.array([125.0]))
        assert box.project(np.array([3.0])) == pytest.approx(3.0)

    def test_clamps_to_boundary(self):
        box = Box(np.array([-125.0]), np.array([125.0]))
        assert box.project(np.array([300.0])) == pytest.approx(125.0)

    def test_dimension_mismatch(self):
        box = Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ContractViolationError):
            box.project(np.array([0.5]))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            Box(np.array([1.0]), np.array([1.0]))


def brute_force_simplex_projection(y, steps=400):
    # Exhaustive search over a fine grid of the 3-simplex.
    best, best_dist = None, np.inf
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            p = np.array([i / steps, j / steps, (steps - i - j) / steps])
            dist = np.linalg.norm(y - p)
            if dist < best_dist:
                best, best_dist = p, dist
    return best


class TestSimplexProjection:
    def test_vertex_case_matches_brute_force(self):
        y = np.array([2.0, 0.0, 0.0])
        expected = brute_force_simplex_projection(y)
        got = Simplex(3).project(y)
        assert np.allclose(got, expected, atol=5e-3)
        assert np.allclose(got, [1.0, 0.0, 0.0], atol=1e-12)

    def test_random_points_match_brute_force(self):
        rng = make_rng(3)
        simplex = Simplex(3)
        for _ in range(5):
            y = rng.normal(size=3) * 2.0
            got = simplex.project(y)
            expected = brute_force_simplex_projection(y)
            assert np.linalg.norm(got - expected) < 5e-3

    def test_simplex_point_is_fixed(self):
        y = np.array([1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(Simplex(3).project(y), y, atol=1e-15)

    def test_feasibility_many_points(self):
        rng = make_rng(11)
        simplex = Simplex(7)
        ys = rng.normal(size=(10_000, 7)) * 5.0
        for y in ys:
            p = simplex.project(y)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert np.all(p >= -1e-14)

    @pytest.mark.parametrize(
        "y, want",
        [
            ([1e16, 0.0, 0.0], [1.0, 0.0, 0.0]),
            ([1e16, 1e16, 0.0], [0.5, 0.5, 0.0]),
            ([0.0, -3.0, 1e200], [0.0, 0.0, 1.0]),
            ([1.7e308, -1.7e308, 0.0], [1.0, 0.0, 0.0]),
            ([0.0, -1.7e308, -1.7e308], [1.0, 0.0, 0.0]),
            ([1.7e308, 1.7e308, 0.0], [0.5, 0.5, 0.0]),
        ],
    )
    def test_large_finite_inputs(self, y, want):
        # Every candidate threshold rounds to <= 0 in the first three, and the
        # differences or running sums of the last three pass the float range
        # (an overflow warning fails the test); the projection of y - max(y),
        # the same point, is taken instead.
        assert Simplex(3).project(np.array(y)).tolist() == want

    @pytest.mark.parametrize(
        "y",
        [
            [1e12] * 3,
            [2e14] * 3,
            [1e15] * 7,
            [1.1650677907562518e16],
            [3.63e15, -0.0, -7.26e15, -2.90e16, 7.26e15, 3.63e15, -1.81e16, 7.26e15],
        ],
    )
    def test_large_tied_inputs_stay_on_the_simplex(self, y):
        # The threshold (1 - css) / j of the sorted sums loses about
        # eps * max|y| to rounding, which is far from negligible long before
        # 2^53; a sum off 1 or a negative entry is a point off the simplex.
        p = Simplex(len(y)).project(np.array(y))
        assert abs(p.sum() - 1.0) <= 0.5 * len(y) * np.finfo(float).eps
        assert np.all(p >= 0.0)

    def test_tied_inputs_of_every_magnitude_stay_on_the_simplex(self):
        rng = make_rng(13)
        eps = np.finfo(float).eps
        for magnitude in 10.0 ** rng.uniform(-3, 300, size=2000):
            dim = int(rng.integers(1, 9))
            # Entries at +-magnitude and +-magnitude / 2, so most inputs hold ties.
            y = magnitude * rng.choice([-1.0, -0.5, 0.5, 1.0], size=dim)
            y[rng.integers(dim)] = magnitude  # at least one entry at the top
            p = Simplex(dim).project(y)
            assert abs(p.sum() - 1.0) <= 0.5 * dim * eps, y
            assert np.all(p >= 0.0), y

    def test_shift_invariance(self):
        rng = make_rng(12)
        for _ in range(100):
            y = rng.normal(size=5)
            shifted = Simplex(5).project(y + 1e6)
            assert np.allclose(shifted, Simplex(5).project(y), atol=1e-9)


@pytest.mark.parametrize(
    "domain",
    [
        Box(np.full(4, -2.0), np.full(4, 1.5)),
        Simplex(4),
    ],
)
def test_projection_nonexpansive(domain):
    rng = make_rng(5)
    for _ in range(200):
        a = rng.normal(size=4) * 3.0
        b = rng.normal(size=4) * 3.0
        pa, pb = domain.project(a), domain.project(b)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12


def test_projection_idempotent():
    rng = make_rng(6)
    for domain in (Box(np.full(3, -1.0), np.full(3, 2.0)), Simplex(3)):
        for _ in range(50):
            y = rng.normal(size=3) * 4.0
            once = domain.project(y)
            assert np.allclose(domain.project(once), once, atol=1e-14)


SCENARIO_ARRAYS = {
    "c_ordered": make_rng(0).normal(size=(300, 7)) * np.geomspace(1e-3, 1e3, 7),
    "stride0_1_row": np.broadcast_to(make_rng(1).normal(size=200), (1, 200)),
    "stride0_500_rows": np.broadcast_to(make_rng(1).normal(size=200), (500, 200)),
    "one_scenario": make_rng(2).normal(size=(1, 9)),
    "one_column": make_rng(3).normal(size=(300, 1)),
    "loss_vector": make_rng(4).normal(size=300) * 1e3,
}


@pytest.mark.parametrize("a", SCENARIO_ARRAYS.values(), ids=SCENARIO_ARRAYS.keys())
def test_scenario_mean_is_np_mean_bit_for_bit(a):
    if a.ndim == 2 and a.shape[1] == 200:
        assert a.strides[0] == 0
    got, want = scenario_mean(a), np.mean(a, axis=0)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("v", [
    make_rng(5).normal(size=7) * 1e150,  # squares finite
    make_rng(6).normal(size=(4, 3)),
    np.array([0.0, -0.0]),
])
def test_norm_is_np_norm_bit_for_bit_while_the_squares_are_finite(v):
    assert norm(v) == float(np.linalg.norm(v))


def test_norm_of_huge_finite_entries_is_finite():
    assert norm(np.array([3e200, -4e200])) == pytest.approx(5e200, rel=1e-15)
    assert norm(np.array([1.7e308, 1.7e308])) == np.inf  # the norm itself passes the range
    assert norm(np.array([np.inf, 1.0])) == np.inf and np.isnan(norm(np.array([np.nan])))


class TestUniformBallSample:
    def test_membership(self):
        rng = make_rng(0)
        pts = uniform_ball_sample(np.zeros(3), 1.0, 1000, rng)
        assert np.all(np.linalg.norm(pts, axis=1) <= 1.0 + 1e-12)

    def test_mean_concentration_1d(self):
        # Uniform on [9.5, 10.5]: var = 1/12, so a 5-sigma band for the mean
        # of 100 draws is 5 / sqrt(12 * 100) = 0.144 < 0.15.
        rng = make_rng(1)
        pts = uniform_ball_sample(np.array([10.0]), 0.5, 100, rng)
        assert abs(pts.mean() - 10.0) < 0.15

    def test_zero_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_ball_sample(np.zeros(2), 0.0, 10, make_rng(0))

    def test_reproducible(self):
        a = uniform_ball_sample(np.zeros(2), 1.0, 50, make_rng(42))
        b = uniform_ball_sample(np.zeros(2), 1.0, 50, make_rng(42))
        assert np.array_equal(a, b)


class TestDistributionOracle:
    def test_shape_contract_enforced(self):
        bad = DistributionOracle(d=2, sampler=lambda x, count, rng: np.zeros((count, 3)))
        with pytest.raises(ContractViolationError):
            bad.sample(np.zeros(1), 4, make_rng(0))

    def test_count_validated(self):
        oracle = DistributionOracle(d=1, sampler=lambda x, count, rng: np.zeros((count, 1)))
        with pytest.raises(ConfigurationError):
            oracle.sample(np.zeros(1), 0, make_rng(0))

    def test_bit_identical_draws(self):
        oracle = DistributionOracle(
            d=2, sampler=lambda x, count, rng: rng.standard_normal((count, 2))
        )
        x = np.array([1.0])
        assert np.array_equal(
            oracle.sample(x, 5, make_rng(9)), oracle.sample(x, 5, make_rng(9))
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_draw_rejected(self, bad):
        def sampler(x, count, rng):
            draws = rng.standard_normal((count, 2))
            draws[-1, 0] = bad
            return draws

        oracle = DistributionOracle(d=2, sampler=sampler)
        with pytest.raises(ContractViolationError, match="non-finite"):
            oracle.sample(np.zeros(1), 3, make_rng(0))
        # The regression set is where draws go on to the fit.
        with pytest.raises(ContractViolationError, match="non-finite"):
            generate_poised_set(oracle, np.zeros(1), 0.5, 10, 100.0, make_rng(0))


def per_row(oracle, points, seed):
    rng = make_rng(seed)
    return np.vstack([oracle.sample(point, 1, rng) for point in points])


class TestSampleAt:
    def test_synthetic_matches_per_row_draws(self):
        # Points on both sides of the knee |x| = 125 ** (1/3) = 5.
        oracle = synthetic_instance(SyntheticProblem(noise_sigma=1.0)).oracle
        points = make_rng(0).uniform(-12.0, 12.0, size=(4000, 1))
        assert np.any(points < -5.0) and np.any(np.abs(points) < 5.0) and np.any(points > 5.0)
        got = oracle.sample(points, 4000, make_rng(1))
        assert got.shape == (4000, 1)
        assert np.array_equal(got, per_row(oracle, points, 1))
        # Each row rounds like the scalar formula x ** 3 + noise.
        cubes = np.array([[x**3] for x in points[:, 0].tolist()])
        assert np.array_equal(got, cubes + make_rng(1).standard_normal((4000, 1)))

    @pytest.mark.parametrize("noise_sigma", [0.0, 0.3])
    def test_dro_matches_per_row_draws(self, noise_sigma):
        dro = replace(generate_synthetic_credit(12, 3, seed=5), noise_sigma=noise_sigma)
        oracle = dro_instance(dro, diag_samples=10).oracle
        points = make_rng(2).uniform(-4.0, 4.0, size=(300, 3))
        got = oracle.sample(points, 300, make_rng(3))
        assert got.shape == (300, 36)
        assert np.array_equal(got, per_row(oracle, points, 3))

    def test_sampler_calls(self):
        # The sampler sees all rows in one call.
        points = make_rng(4).uniform(-2.0, 2.0, size=(7, 1))
        for base in (synthetic_instance().oracle, scalar_oracle(np.sin, sigma=0.5)):
            calls = []

            def sampler(x, count, rng):
                calls.append((x.shape, count))
                return base.sampler(x, count, rng)

            got = DistributionOracle(d=1, sampler=sampler).sample(points, 7, make_rng(5))
            assert calls == [((7, 1), 7)]
            assert np.array_equal(got, per_row(base, points, 5))

    def test_batched_shape_contract_enforced(self):
        bad = DistributionOracle(d=1, sampler=lambda x, count, rng: np.zeros((1, 1)))
        with pytest.raises(ContractViolationError):
            bad.sample(np.zeros((4, 1)), 4, make_rng(0))


def test_problem_modules_do_not_import_the_solver():
    # OracleDiagnostics lives in core, so the problems and the baselines
    # depend on core alone, not on the trust-region driver.
    for module in (ddtr.problems, ddtr.baselines):
        tree = ast.parse(inspect.getsource(module))
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "tr" not in imported and "core" in imported
    assert ddtr.OracleDiagnostics is ddtr.core.OracleDiagnostics


def test_diagnostics_need_the_joint_callable():
    # evaluate calls value_and_grad_norm alone, so value and grad_norm
    # without it are no diagnostic.
    with pytest.raises(TypeError, match="value_and_grad_norm"):
        OracleDiagnostics(value=lambda x, rng: 0.0, grad_norm=lambda x, rng: 0.0)


def test_import_loads_no_third_party_module_but_numpy():
    # numpy is the one runtime dependency; every run and worker process
    # imports the package, so nothing heavier may come with it.
    code = (
        "import sys, numpy; before = set(sys.modules); import ddtr, ddtr.cli; "
        "new = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names) - {'ddtr', 'numpy'}))"
    )
    assert fresh_python(code).strip() == "[]"


def test_import_loads_no_process_pool_or_logging(tmp_path):
    # Only a run with workers > 1 uses the process pool (multiprocessing,
    # socket, queue), only the CSV loader (ingest) logs, and only summarize
    # and compare read runs back (report): a serial run on generated data
    # loads none of them, at import or in run_one.
    doc = {**DRO_TR, "max_iters": 2}
    code = (
        "import json, sys, numpy, numpy.random; before = set(sys.modules); "
        "import ddtr; import ddtr.cli; print(*sorted(set(sys.modules) - before)); "
        "config = ddtr.cli.parse_run_config(json.loads(sys.argv[1])); "
        "ddtr.cli.run_one(config, 1, sys.argv[2]); print(*sorted(set(sys.modules) - before))"
    )
    imported, after_run = fresh_python(code, json.dumps(doc), str(tmp_path)).splitlines()
    unused = {"concurrent.futures", "multiprocessing", "logging", "ddtr.report", "ddtr.ingest"}
    assert not set(imported.split()) & unused
    assert not set(after_run.split()) & unused
    assert (tmp_path / "dro_tr_seed1.csv").exists()
