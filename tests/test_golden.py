"""Golden digests: the per-run CSVs of small fixed configs, byte for byte.

Each case runs one seed through ``cli.run_one`` and compares two SHA-256
digests with values committed here: of the CSV it writes, and of its
trajectory, the same CSV with the ``oracle_*`` columns dropped.  It also
checks the ``termination`` and ``iterations`` of the run's summary entry.  The
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

from ddtr import baselines, tr
from ddtr.cli import (
    COLUMNS,
    _fmt,
    build_baseline_config,
    build_instance,
    build_tr_config,
    parse_run_config,
    run_one,
)
from ddtr.core import make_rng

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
    "solver_params": {"eta": 0.001, "eta_y": 0.1, "batch": 500},
}
# spd-dynamic's stepsize 1 / (1000 + 10 k) from the same start, also for all 50 rows.
SYNTHETIC_SPD_DYNAMIC = dict(
    SYNTHETIC_SPD, solver="spd-dynamic",
    solver_params={"dyn_a": 1000.0, "dyn_b": 10.0, "batch": 500},
)
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
        "1809e0304f9191e6de14c35cc0508404e5d22186057ccac2d11f7ff2289fc00a",
        "ce8286eaebffa4384db18ef4284057d6395988079d9ef094f7542d73c4eb355a",
        ("max_iters", 20),
    ),
    "dro_tr": (
        DRO_TR,
        "41bec06185ee0f9ddbea5b62283a95f8a45a79cb4cd90ca99ec257479dd56a9a",
        "2a998164f31347f559c9f2cc10233e97216420d09ccd852235877483500b1d5a",
        ("max_iters", 5),
    ),
    "synthetic_spd": (
        SYNTHETIC_SPD,
        "845ac2666757a3004af4810e7504b894773640820fd0946afd5ce20d9aa8e7f8",
        "cd75ac594dcc38b7b2aa53db5c3de7237d8d8ee2311741be5fa9557a85591818",
        ("max_iters", 50),
    ),
    "synthetic_asgda": (
        SYNTHETIC_ASGDA,
        "019ed448709d7fc6e04fc78f7e7630dcb3a147e3a0bae07ec6b74cf049901396",
        "8653e80e414ca3228d6b1e2d068e1b986e83364d88ebafc504e40b61a597fad3",
        ("max_iters", 50),
    ),
    "synthetic_spd_dynamic": (
        SYNTHETIC_SPD_DYNAMIC,
        "8a109fb1fdf6a2963ab4173db0eade1ca452650a67bae613e7dcea717bef7f7e",
        "9f8ffc6072e24af541cf41d07ca36978ccead52eaa9ab1a27d50dadb25355e50",
        ("max_iters", 50),
    ),
    "dro_tr_noisy": (
        DRO_TR_NOISY,
        "2e4cc586a37f3fec51b587ce137fedc61012f84a088b6c399d477a0e9ee2ce5e",
        "1c220e925fad82da3eff5727d5855a35244f52852fe48316fffa468f4cb160fa",
        ("max_iters", 8),
    ),
    "dro_spd": (
        DRO_SPD,
        "22afcd6c8eae68a40cf252cb52deeb644f2e79a6777a45398b594718da2bd751",
        "736e3c2c8429790832405d396f139b045704523ef93ea315a3c65cfc34cef764",
        ("max_iters", 8),
    ),
    "dro_asgda": (
        DRO_ASGDA,
        "b86869c3b7b1f6d20d874388e908459b721300959b3187235d05adf54ce23d3a",
        "1167606bfde8a3ad2496e8ca1409935622445f11df918d4fd189d6ed452b1711",
        ("max_iters", 8),
    ),
    "dro_asgda_noisy": (
        DRO_ASGDA_NOISY,
        "ab8c77ef9b47152fd605f637a2e7fdb97373086dbb8433634de8a125497c40f7",
        "2757fbec78f0fcbddd297332858667cbb94f88e2a928492d14e58cad54386dd2",
        ("max_iters", 8),
    ),
    "bench_synthetic_tr": (
        BENCH_SYNTHETIC_TR,
        "fb459233e22f1afa999ff51de2707735626359e012382e964c3e57275b39a106",
        "a963e05321f5ed780ee70ba295d17ec1d5e57a5187a01c817bc46a26fc9f475a",
        ("radius_floor", 52),
    ),
    "bench_dro_tr": (
        BENCH_DRO_TR,
        "4230ac48d9c0c80fb12d81063847b6fb00be39ea607ef69515518d2fa1ce2b57",
        "b3e93fb0c8ce068957942e73ac7cee08b0a3b91a30da31948b3a8ad80170384f",
        ("max_iters", 25),
    ),
}


def trajectory(data: bytes) -> bytes:
    """A run CSV without its ``oracle_*`` columns."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("oracle_")]
    out = io.StringIO(newline="")
    csv.writer(out).writerows([[row[i] for i in keep] for row in rows])
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("doc, digest, trajectory_digest, end", GOLDEN.values(), ids=GOLDEN.keys())
def test_csv_digest(tmp_path, doc, digest, trajectory_digest, end):
    config = parse_run_config({**doc, "output_dir": str(tmp_path)})
    entry = run_one(config, config.seeds[0], str(tmp_path))
    assert (entry["termination"], entry["iterations"]) == end
    data = (tmp_path / entry["csv"]).read_bytes()
    assert hashlib.sha256(trajectory(data)).hexdigest() == trajectory_digest
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", ["synthetic_tr", "synthetic_asgda"])
def test_records_streamed_row_by_row_give_the_golden_csv(tmp_path, name):
    # Each record is written as the solver hands it to on_record, not after the run.
    doc, digest = GOLDEN[name][:2]
    config = parse_run_config({**doc, "output_dir": str(tmp_path)})
    seed = config.seeds[0]
    instance = build_instance(config)
    x0, y0 = instance.draw_start(make_rng(seed))
    columns = COLUMNS[config.solver]
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(columns)

    def write(record):
        writer.writerow([_fmt(getattr(record, column)) for column in columns])

    if config.solver == "tr":
        _, rest = tr.solve(
            x0, instance.problem, instance.oracle, build_tr_config(config, seed),
            instance.diagnostics, write,
        )
    else:
        _, rest = baselines.run_baseline(
            x0, y0, instance.problem, instance.oracle, build_baseline_config(config, seed),
            instance.diagnostics, write,
        )
    assert rest == []
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
