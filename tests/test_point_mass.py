"""A point-mass oracle (``DistributionOracle.deterministic``) is asked for one
row where the solvers would draw a batch: each trust-region value estimate
and each baseline step. The problem builders declare one exactly when their
noise is 0; any other oracle is asked for the full counts."""

from dataclasses import replace

import pytest

from ddtr.baselines import BaselineConfig, run_baseline
from ddtr.problems import (
    SyntheticProblem,
    dro_instance,
    generate_synthetic_credit,
    synthetic_instance,
)
from ddtr.tr import SampleSchedule, TRConfig, solve

from util import affine_map_problem, counting, scalar_oracle

INSTANCES = {
    "dro": lambda sigma: dro_instance(replace(generate_synthetic_credit(40, 3, 0), noise_sigma=sigma)),
    "synthetic": lambda sigma: synthetic_instance(SyntheticProblem(noise_sigma=sigma)),
}
# Each case: the instance, its noise, and the rows of one value estimate or baseline step.
CASES = [("dro", 0.0, 1), ("dro", 0.5, None), ("synthetic", 0.0, 1), ("synthetic", 1.0, None)]


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
def test_builders_declare_a_point_mass_at_zero_noise_only(name, sigma):
    assert INSTANCES[name](sigma).oracle.deterministic is (sigma == 0)


def test_test_oracles_keep_the_default():
    # Deterministic in fact, but not declared: they exercise the batch path.
    assert not affine_map_problem()[1].deterministic
    assert not scalar_oracle(lambda v: 2.0 * v).deterministic


@pytest.mark.parametrize("name, sigma, rows", CASES)
def test_tr_value_estimates_of_a_point_mass_take_one_row(name, sigma, rows):
    inst = INSTANCES[name](sigma)
    oracle, counts = counting(inst.oracle)
    config = TRConfig(
        llr_schedule=SampleSchedule(minimum=60, maximum=60),
        value_schedule=SampleSchedule(minimum=100, maximum=100),
        max_iters=6,
        seed=1,
    )
    _, records = solve(inst.x0_center, inst.problem, oracle, config)
    assert {r.n_value for r in records} - {0} == {rows or 100}
    # No poisedness redraw here: an iteration asks for its regression set of
    # n_llr rows, then for each of its value estimates, if it makes them.
    assert counts == [c for r in records for c in [r.n_llr] + [r.n_value] * (2 * (r.n_value > 0))]


@pytest.mark.parametrize("method", ["spd-constant", "asgda"])
@pytest.mark.parametrize("name, sigma, rows", CASES)
def test_baseline_steps_on_a_point_mass_take_one_row(method, name, sigma, rows):
    inst = INSTANCES[name](sigma)
    oracle, counts = counting(inst.oracle)
    config = BaselineConfig(method=method, batch=200, max_iters=5, seed=1)
    _, records = run_baseline(inst.x0_center, None, inst.problem, oracle, config)
    assert records and counts == [rows or 200] * len(records)
