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
        "36381065a4fd77f42bec2b7fa7d69baee0a027e851ab814d37ba553ffa22f8f6",
        "f3c347e5b6c2c8b30877f2cf4a1c1e3e2887c0a6529cf317253582667c60a369",
    ),
    "dro_tr": (
        DRO_TR,
        "42bbd266efbbba3a92d49e9215d213e1b40fccbba522611e4cefc3fcf00f0f55",
        "38b3cfde1d847eddca13c65fd50a1c75d1f2a812116a502b8951e14c90068f12",
    ),
    "synthetic_spd": (
        SYNTHETIC_SPD,
        "845ac2666757a3004af4810e7504b894773640820fd0946afd5ce20d9aa8e7f8",
        "cd75ac594dcc38b7b2aa53db5c3de7237d8d8ee2311741be5fa9557a85591818",
    ),
    "synthetic_asgda": (
        SYNTHETIC_ASGDA,
        "74fc3341e95eb9278a979a509e4a1967a28fa1a3836854c23959cfd5bb73f9c8",
        "c6851992117e01d1fa37128c4a99875c74ca0876e610e8212dcf0c506be4644c",
    ),
    "dro_tr_noisy": (
        DRO_TR_NOISY,
        "aa87a1351eea25d81c3d76c070d90d7965efe8337491593580ebd00c67fd9c22",
        "bba662f151b8b6d3153c1aa8ac4a28e4bf3ec51a122af1a72dccfc46245f3b66",
    ),
    "dro_spd": (
        DRO_SPD,
        "c495cd1caf78dfe5b537bcf494883745b22b407f69d87695d8b6c536140b4074",
        "736e3c2c8429790832405d396f139b045704523ef93ea315a3c65cfc34cef764",
    ),
    "dro_asgda": (
        DRO_ASGDA,
        "17bfc76ed466959978fad9722cb9ca5b1a547d6cad812dcf40a684b4bd45e59e",
        "f255d11601f141456d243476c1d37478452420c45c91c52777f81aa0bcc39774",
    ),
    "dro_asgda_noisy": (
        DRO_ASGDA_NOISY,
        "a78554a212c6d70f0f57b5a913721d7806bf1889182dc9aa92f8ad5edb20dc2c",
        "604b33db3f683c4ecdc5d3903f8895ca4ffe8cdba3b0f6096e013d9afd0d61ef",
    ),
    "bench_synthetic_tr": (
        BENCH_SYNTHETIC_TR,
        "ca8916bdec5d99d52b7481e762d2bd4b5c158672c37f2c3b7df357c9591928b7",
        "a2fa90fe984fe9499b375867ead114acdc63cf682a84f88b2b7c1b436ad59b6b",
    ),
    "bench_dro_tr": (
        BENCH_DRO_TR,
        "8779897be6ea0737a9ffe8039670d606433059367394df091c2e3ecb0a60e4ae",
        "aa26e4ea546f06368d185449f5f4401e412ff42deeb81536e7325e1184fa1eb7",
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
