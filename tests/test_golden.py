"""Golden digests: the per-run CSVs of small fixed configs, byte for byte.

Each case runs one seed through ``cli.run_one`` and compares the SHA-256 of
the CSV it writes with a value committed here.  A change that moves a digest
on purpose updates the value and says why in CHANGES.md.  The digests were
recorded on x86_64 with numpy 2.4 and one BLAS thread; another platform or
BLAS may round differently in the last bit.
"""

import hashlib

import pytest

from ddtr.cli import parse_run_config, run_one

SYNTHETIC_TR = {
    "problem": "synthetic",
    "solver": "tr",
    "seeds": [1],
    "max_iters": 20,
    "log_oracle_diagnostics": True,
    "solver_params": {"llr_count": 300, "value_count": 100},
}
DRO_TR = {
    "problem": "dro",
    "solver": "tr",
    "seeds": [1],
    "max_iters": 5,
    "log_oracle_diagnostics": True,
    "problem_params": {"n_rows": 200, "n_features": 5, "data_seed": 0, "diag_samples": 5000},
    "solver_params": {"llr_count": 300, "value_count": 100},
}
# The baselines start near x = 2, not at the default 10, from where both
# diverge within seven steps: all 50 rows are then covered.
SYNTHETIC_SPD = {
    "problem": "synthetic",
    "solver": "spd-constant",
    "seeds": [1],
    "max_iters": 50,
    "problem_params": {"x0_center": [2.0]},
    "solver_params": {"eta": 0.001, "batch": 500},
}
SYNTHETIC_ASGDA = {
    "problem": "synthetic",
    "solver": "asgda",
    "seeds": [1],
    "max_iters": 50,
    "problem_params": {"x0_center": [2.0]},
    "solver_params": {"eta_x": 0.001, "eta_y": 0.1, "batch": 500},
}
# Small DRO runs (N = 40, eight iterations) for the routes the cases above
# miss: noisy draws through the trust region, and both baselines, whose
# evaluators see one draw batch per step.
DRO_SMALL = {"n_rows": 40, "n_features": 5, "data_seed": 0, "diag_samples": 200}
DRO_TR_NOISY = {
    "problem": "dro",
    "solver": "tr",
    "seeds": [1],
    "max_iters": 8,
    "log_oracle_diagnostics": True,
    "problem_params": {**DRO_SMALL, "noise_sigma": 0.5},
    "solver_params": {"llr_count": 300, "value_count": 100},
}
DRO_SPD = {
    "problem": "dro",
    "solver": "spd-constant",
    "seeds": [1],
    "max_iters": 8,
    "log_oracle_diagnostics": True,
    "problem_params": DRO_SMALL,
    "solver_params": {"batch": 100},
}
DRO_ASGDA = dict(DRO_SPD, solver="asgda")
DRO_ASGDA_NOISY = dict(DRO_ASGDA, problem_params={**DRO_SMALL, "noise_sigma": 0.5})

GOLDEN = {
    "synthetic_tr": (
        SYNTHETIC_TR,
        "1d04f60492689c2b928bd291ce1e3de6068c4363297cbb5c54dc07f30e6b4e3b",
    ),
    "dro_tr": (DRO_TR, "038fc0fc3fd181f2869a9cd8ffb427be6c4477b1ec75e32f488364548ab4d150"),
    "synthetic_spd": (
        SYNTHETIC_SPD,
        "debfae92d129d73d113a08c4292220c46312ee5446eda26e9e3fd4f03a0372a9",
    ),
    "synthetic_asgda": (
        SYNTHETIC_ASGDA,
        "a79a483beecb8717c9035c86b364b7a83323e0fa79e565fd15ae56629d204842",
    ),
    "dro_tr_noisy": (
        DRO_TR_NOISY,
        "99624007cfba4dd3e794d8a78cb47027ad34bf7341dbead89c3397fcc2ecd7d4",
    ),
    "dro_spd": (DRO_SPD, "deff227a7c03aa7420812b373527439e1e29a78fe0fed8d4374b403442e31b3b"),
    "dro_asgda": (DRO_ASGDA, "884e677f53a58979176950ff4b5e62762047ffd6234244ac9c98981c0527dd42"),
    "dro_asgda_noisy": (
        DRO_ASGDA_NOISY,
        "9fb0f40566ed53233233b9e878bd4985f7d6af6fa144ffb6e4cb981f349b6ad8",
    ),
}


@pytest.mark.parametrize("doc, digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_csv_digest(tmp_path, doc, digest):
    config = parse_run_config({**doc, "output_dir": str(tmp_path)})
    entry = run_one(config, config.seeds[0], str(tmp_path))
    data = (tmp_path / entry["csv"]).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
