"""Golden digests: the per-run CSVs of small fixed configs, byte for byte.

Each case runs one seed through ``cli.run_one`` and compares two SHA-256
digests with values committed here: of the CSV it writes, and of its
trajectory, the same CSV with the ``oracle_*`` columns dropped.  The
diagnostics draw from their own generators and feed nothing back, so a
change to them alone moves only the first.  A change that moves a digest on
purpose updates the value and says why in CHANGES.md.  The digests were
recorded on x86_64 with numpy 2.4 and one BLAS thread; another platform or
BLAS may round differently in the last bit.
"""

import csv
import hashlib
import io

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
# The benchmark's trust-region operations (perfbench/workloads.py) at their
# first run seed: every iteration the synth-tr and dro-tr workloads time.
BENCH_SYNTHETIC_TR = {
    "problem": "synthetic",
    "solver": "tr",
    "seeds": [1001],
    "max_iters": 300,
    "log_oracle_diagnostics": True,
    "solver_params": {
        "delta0": 1.0,
        "delta_max": 2.0,
        "gamma": 2.0,
        "eta1": 0.25,
        "eta2": 0.1,
        "llr_count": 300,
        "value_count": 100,
    },
}
BENCH_DRO_TR = dict(DRO_TR, seeds=[1001], max_iters=25)

GOLDEN = {
    "synthetic_tr": (
        SYNTHETIC_TR,
        "8533ced123e6a46779445abc0e870b27eff6becbd3fd2cf6fc23fb48681b2357",
        "178134e0681c7384c82de47316de173668ccdcce8c266d8159f2b793d50b1cfc",
    ),
    "dro_tr": (
        DRO_TR,
        "5fee8bad70a8525c609b8692943a46245db6c7fd0ae1733a58a0a47fb1d3b8b4",
        "0f990398baf4bd1786a4b71ddb9a9e3eec17640dc1505921e5f9dec868f7a46b",
    ),
    "synthetic_spd": (
        SYNTHETIC_SPD,
        "debfae92d129d73d113a08c4292220c46312ee5446eda26e9e3fd4f03a0372a9",
        "814eb86e34292839704aa41b11acfc2af71afcda3ed805c46bc4b7c721c481aa",
    ),
    "synthetic_asgda": (
        SYNTHETIC_ASGDA,
        "a79a483beecb8717c9035c86b364b7a83323e0fa79e565fd15ae56629d204842",
        "ee85e953255e459646020f48451961266c92998d2adbfcd85313ca26a4ae8c84",
    ),
    "dro_tr_noisy": (
        DRO_TR_NOISY,
        "99624007cfba4dd3e794d8a78cb47027ad34bf7341dbead89c3397fcc2ecd7d4",
        "978abf8ae39b435ae34a672046a4bf084ee61921f1f3d7feeca84b3bfb94c943",
    ),
    "dro_spd": (
        DRO_SPD,
        "076459ff42b732f6a0853e29c257b8941ab937949d55bd374a5e0578b423f3be",
        "c0e00fd12174a4e7cdceea9427defaab929f00eb9673beb62b07d7d58baa3a0b",
    ),
    "dro_asgda": (
        DRO_ASGDA,
        "a10037d17f71b93cb9313f8bd73eb849ee11c211f9d5b775d8b7f1a0968078ed",
        "97c814da18e685d81d381a27c7cfa44c4eb32b214850d22669aa0dd03c1489a2",
    ),
    "dro_asgda_noisy": (
        DRO_ASGDA_NOISY,
        "9fb0f40566ed53233233b9e878bd4985f7d6af6fa144ffb6e4cb981f349b6ad8",
        "27c48ae7b94d1306b8d1547734c363f2a7c412897a6ad66e645baf9cb3564279",
    ),
    "bench_synthetic_tr": (
        BENCH_SYNTHETIC_TR,
        "4105f1a06d491f29496d0b88b8b9819345fb8eb3b6a73c8d198a69fe536cbc5c",
        "bbe3ebd908dddf76c918034e2c9a23bed3d0ec5931eea1b777354ba72fbfaa33",
    ),
    "bench_dro_tr": (
        BENCH_DRO_TR,
        "a3cd99c734a62afaa76332240a1c00f6b629fee719873a5b0b8880ad321e3cd6",
        "dd42e33b697b5e7946cc965f2d4fdf032a9d37716f391c30827ac2b3c225d10d",
    ),
}


def trajectory(data: bytes) -> bytes:
    """A run CSV without its ``oracle_*`` columns."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("oracle_")]
    out = io.StringIO(newline="")
    csv.writer(out).writerows([[row[i] for i in keep] for row in rows])
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("doc, digest, trajectory_digest", GOLDEN.values(), ids=GOLDEN.keys())
def test_csv_digest(tmp_path, doc, digest, trajectory_digest):
    config = parse_run_config({**doc, "output_dir": str(tmp_path)})
    entry = run_one(config, config.seeds[0], str(tmp_path))
    data = (tmp_path / entry["csv"]).read_bytes()
    assert hashlib.sha256(trajectory(data)).hexdigest() == trajectory_digest
    assert hashlib.sha256(data).hexdigest() == digest
