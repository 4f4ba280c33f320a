import csv
import importlib.util
import io
import json
import math
import pickle
import platform
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddtr import baselines, cli, ingest, tr
from ddtr.cli import main, parse_run_config, run
from ddtr.core import ConfigurationError, SchemaError, make_rng
from ddtr.report import summarize

from test_golden import DRO_TR
from util import fresh_cli, fresh_python

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))

# The column orders of README's "CSV schema", written out so a header check
# compares the files with the documentation, not the code with itself.
TR_HEADER = [
    "k", "delta", "delta_next", "rho", "grad_norm_surrogate", "v_k", "v_k_half",
    "accepted", "descent_lhs", "descent_rhs", "descent_ok", "n_llr", "n_value",
    "b1_frobenius", "oracle_phi", "oracle_grad_norm", "x_before", "x_after",
]
BASELINE_HEADER = [
    "k", "stepsize", "grad_norm_est", "oracle_phi", "oracle_grad_norm", "x_after",
]

# The accepted config keys of README's "Config format", written out in the
# same way.
TOP_KEYS = [
    "problem", "solver", "seeds", "output_dir", "max_iters", "log_oracle_diagnostics",
    "problem_params", "solver_params",
]
START_KEYS = ["x0_center", "x0_radius"]
SYNTHETIC_KEYS = ["noise_sigma", "half_width", *START_KEYS]
DRO_KEYS = [
    "shift_scale", "lambda1", "lambda2", "alpha", "noise_sigma", "csv_path",
    "label_column", "feature_columns", "n_rows", "n_features", "data_seed", "diag_samples",
    *START_KEYS,
]
TR_KEYS = [
    "delta0", "delta_max", "gamma", "eta1", "eta2", "kappa_dcp", "llr_schedule",
    "value_schedule", "inner_eps_coeff", "lambda_max", "delta_min", "llr_count",
    "value_count",
]
# Each baseline method accepts the keys it reads.
BASELINE_KEYS = {
    "asgda": ["eta", "eta_y", "forget", "batch"],
    "spd-constant": ["eta", "batch"],
    "spd-dynamic": ["dyn_a", "dyn_b", "batch"],
}

# The keys of a summary.json entry that README's "CLI" lists: those of every
# run, the diagnostics at a final x that did not diverge, and those of a seed
# whose run raised.
RUN_KEYS = [
    "seed", "csv", "x0", "final_x", "iterations", "termination", "oracle_samples",
    "wall_time_s",
]
FINAL_ORACLE_KEYS = ["final_oracle_phi", "final_oracle_grad_norm"]
ERROR_KEYS = ["seed", "error"]


def tiny_tr_doc(out_dir, seeds=(1, 2, 3), max_iters=4):
    return {
        "problem": "synthetic",
        "solver": "tr",
        "seeds": list(seeds),
        "output_dir": str(out_dir),
        "max_iters": max_iters,
        "log_oracle_diagnostics": True,
        "solver_params": {"llr_count": 30, "value_count": 30},
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestParseRunConfig:
    def test_valid(self):
        config = parse_run_config(tiny_tr_doc("out"))
        assert config.solver == "tr" and config.seeds == [1, 2, 3]

    def test_unknown_keys_all_reported(self):
        doc = tiny_tr_doc("out")
        doc["typo_one"] = 1
        doc["typo_two"] = 2
        doc["solver_params"]["bogus"] = 3
        with pytest.raises(ConfigurationError) as exc:
            parse_run_config(doc)
        message = str(exc.value)
        assert "typo_one" in message and "typo_two" in message and "bogus" in message

    def test_unknown_solver_names_options(self):
        doc = tiny_tr_doc("out")
        doc["solver"] = "adam"
        with pytest.raises(ConfigurationError) as exc:
            parse_run_config(doc)
        assert "spd-constant" in str(exc.value) and "asgda" in str(exc.value)

    @pytest.mark.parametrize("problem", ["lasso", "DRO", None])
    def test_unknown_problem_names_options(self, problem):
        doc = dict(tiny_tr_doc("out"), problem=problem)
        with pytest.raises(ConfigurationError, match="'problem' must be one of") as exc:
            parse_run_config(doc)
        assert f"('synthetic', 'dro'), got {problem!r}" in str(exc.value)

    def test_empty_seeds_rejected(self):
        doc = tiny_tr_doc("out", seeds=())
        with pytest.raises(ConfigurationError):
            parse_run_config(doc)

    def test_repeated_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="'seeds' must be distinct"):
            parse_run_config(tiny_tr_doc("out", seeds=(1, 1, 2)))

    @pytest.mark.parametrize("doc", [[1, 2], None, "synthetic", 3])
    def test_document_that_is_no_object_rejected(self, doc):
        with pytest.raises(ConfigurationError, match="invalid config: a config is a JSON object"):
            parse_run_config(doc)

    def test_key_sets_match_readme(self):
        # PROBLEM_KEYS and SOLVER_KEYS map each key to the type of its value.
        assert cli.TOP_KEYS == set(TOP_KEYS)
        assert {problem: set(keys) for problem, keys in cli.PROBLEM_KEYS.items()} == {
            "synthetic": set(SYNTHETIC_KEYS), "dro": set(DRO_KEYS)
        }
        assert {solver: set(keys) for solver, keys in cli.SOLVER_KEYS.items()} == {
            "tr": set(TR_KEYS), **{method: set(keys) for method, keys in BASELINE_KEYS.items()}
        }
        assert cli.SOLVERS == ("tr", "asgda", "spd-constant", "spd-dynamic")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_iters", "abc"),
            ("max_iters", 3.7),
            ("max_iters", True),
            ("max_iters", -1),
            ("seeds", [True]),
            ("seeds", [-1]),
            ("output_dir", None),
            ("output_dir", 5),
            ("log_oracle_diagnostics", "false"),
            ("log_oracle_diagnostics", 1),
            ("problem_params", [1, 2]),
            ("solver_params", "llr_count=30"),
        ],
    )
    def test_wrong_type_rejected(self, key, value):
        doc = dict(tiny_tr_doc("out"), **{key: value})
        with pytest.raises(ConfigurationError, match=key):
            parse_run_config(doc)

    def test_baseline_negative_max_iters_rejected(self):
        doc = dict(tiny_tr_doc("out"), solver="asgda", solver_params={}, max_iters=-1)
        with pytest.raises(ConfigurationError, match="max_iters"):
            parse_run_config(doc)

    def test_config_does_not_alias_the_document(self):
        doc = tiny_tr_doc("out")
        config = parse_run_config(doc)
        doc["seeds"].append(9)
        doc["solver_params"]["llr_count"] = 1
        assert config.seeds == [1, 2, 3] and config.solver_params["llr_count"] == 30

    def test_wrong_types_all_reported(self):
        doc = dict(
            tiny_tr_doc("out"), max_iters=2.5, log_oracle_diagnostics="no",
            problem_params=[], solver_params=None, typo=0,
        )
        with pytest.raises(ConfigurationError) as exc:
            parse_run_config(doc)
        message = str(exc.value)
        for key in ("max_iters", "log_oracle_diagnostics", "problem_params", "solver_params"):
            assert key in message
        assert "typo" in message

    @pytest.mark.parametrize(
        "problem, section, params",
        [
            ("synthetic", "solver_params", {"eta1": "abc"}),
            ("synthetic", "solver_params", {"inner_eps_coeff": "abc"}),
            ("synthetic", "solver_params", {"llr_count": 2.5}),
            ("synthetic", "solver_params", {"llr_schedule": {"coeff": "abc"}}),
            ("synthetic", "solver_params", {"llr_schedule": {"bogus": 1}}),
            ("synthetic", "solver_params", {"llr_schedule": {"fixed": 3}}),
            ("synthetic", "solver_params", {"delta_min": True}),
            ("synthetic", "problem_params", {"noise_sigma": "abc"}),
            ("synthetic", "problem_params", {"x0_center": ["a"]}),
            ("synthetic", "problem_params", {"x0_radius": None}),
            ("dro", "problem_params", {"shift_scale": "abc"}),
            ("dro", "problem_params", {"diag_samples": "abc"}),
            ("dro", "problem_params", {"diag_samples": 2.0}),
            ("dro", "problem_params", {"csv_path": 3}),
            ("dro", "problem_params", {"feature_columns": "f1", "csv_path": "a.csv"}),
        ],
    )
    def test_wrong_value_type_rejected(self, problem, section, params):
        doc = dict(tiny_tr_doc("out"), problem=problem, **{section: params})
        doc.setdefault("solver_params", {})
        with pytest.raises(ConfigurationError, match=next(iter(params))):
            parse_run_config(doc)

    @pytest.mark.parametrize(
        "solver, section, params, match",
        [
            ("tr", "solver_params", {"eta1": 2.0}, "eta1"),
            ("tr", "solver_params", {"llr_count": 0}, "sample count"),
            ("asgda", "solver_params", {"batch": 0}, "batch"),
            ("tr", "problem_params", {"noise_sigma": -1.0}, "noise_sigma"),
            ("tr", "solver_params", {"delta_min": -1.0}, "delta_min"),
            ("tr", "solver_params", {"lambda_max": 0.5}, "lambda_max"),
            ("tr", "solver_params", {"eta2": math.nan}, "eta2"),
            ("tr", "solver_params", {"eta2": math.inf}, "eta2"),
            ("tr", "solver_params", {"delta_max": math.inf}, "delta_max"),
            ("tr", "solver_params", {"llr_schedule": {"coeff": math.nan}}, "llr_schedule"),
            ("tr", "solver_params", {"llr_schedule": {"coeff": math.inf}}, "llr_schedule"),
            ("asgda", "solver_params", {"eta": math.nan}, "eta"),
            ("asgda", "solver_params", {"eta": math.inf}, "eta"),
            ("tr", "problem_params", {"noise_sigma": math.nan}, "noise_sigma"),
            ("tr", "problem_params", {"noise_sigma": math.inf}, "noise_sigma"),
            ("tr", "problem_params", {"x0_center": [math.nan]}, "x0_center"),
            ("tr", "problem_params", {"x0_center": [math.inf]}, "x0_center"),
            ("tr", "problem_params", {"x0_center": [-math.inf]}, "x0_center"),
        ],
    )
    def test_out_of_range_value_rejected(self, solver, section, params, match):
        doc = dict(tiny_tr_doc("out"), solver=solver, **{"solver_params": {}, section: params})
        with pytest.raises(ConfigurationError, match=match):
            parse_run_config(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_sigma", -1.0), ("n_rows", 1), ("n_rows", 0),
            ("n_rows", -1), ("n_features", 0), ("lambda2", 0.0), ("data_seed", -1),
            ("shift_scale", math.nan), ("shift_scale", math.inf), ("shift_scale", -math.inf),
            ("alpha", -0.25),
        ],
    )
    def test_dro_term_out_of_range_rejected(self, key, value):
        # The parse builds the dro problem, so the message names the key.
        doc = dict(tiny_tr_doc("out"), problem="dro", problem_params={key: value})
        with pytest.raises(ConfigurationError, match=key):
            parse_run_config(doc)

    def test_valid_values_accepted(self):
        doc = dict(
            tiny_tr_doc("out"),
            problem_params={"noise_sigma": 0, "x0_center": [1], "x0_radius": 0.5},
            solver_params={
                "eta1": 0.5, "delta_min": 0,
                "llr_schedule": {"coeff": 2, "power": 2.0}, "value_count": 30,
            },
        )
        assert parse_run_config(doc).solver_params["eta1"] == 0.5

    def test_bad_values_all_reported(self):
        doc = dict(
            tiny_tr_doc("out"), problem="dro",
            problem_params={"shift_scale": "x", "n_rows": 2.5},
            solver_params={"eta1": "abc", "gamma": [2]},
        )
        with pytest.raises(ConfigurationError) as exc:
            parse_run_config(doc)
        for key in ("shift_scale", "n_rows", "eta1", "gamma"):
            assert key in str(exc.value)

    @pytest.mark.parametrize("key, value", [("label_column", "y"), ("feature_columns", ["x"])])
    def test_column_keys_need_csv_path(self, key, value):
        doc = dict(tiny_tr_doc("out"), problem="dro", problem_params={key: value})
        with pytest.raises(ConfigurationError, match=f"{key}.*csv_path"):
            parse_run_config(doc)

    def test_n_features_rejected_with_csv_path(self, tmp_path):
        # The file's columns give n, so an n_features beside them is not read.
        data_path = tmp_path / "credit.csv"
        data_path.write_text("SeriousDlqin2yrs,f1,f2\n" + "0,0.5,1.0\n1,-0.5,2.0\n" * 2)
        params = {"csv_path": str(data_path), "n_features": 7, "n_rows": 4}
        doc = dict(tiny_tr_doc("out"), problem="dro", problem_params=params)
        with pytest.raises(ConfigurationError, match="'n_features'.*csv_path"):
            parse_run_config(doc)


class TestRun:
    def test_tr_run_writes_csvs_and_summary(self, tmp_path):
        config = parse_run_config(tiny_tr_doc(tmp_path / "out"))
        assert run(config) == 0
        csvs = sorted((tmp_path / "out").glob("*.csv"))
        assert len(csvs) == 3
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert len(summary["runs"]) == 3
        for entry in summary["runs"]:
            assert entry["termination"] != "diverged"
            assert math.isfinite(entry["final_oracle_grad_norm"])
            assert "wall_time_s" in entry
        with open(csvs[0]) as fh:
            header = fh.readline().strip().split(",")
        assert header == TR_HEADER

    def test_radius_floor_termination_in_summary(self, tmp_path):
        # delta0 = 1 is below the floor of 1 * max(1, |x0|) from x0 near 10.
        # A run that uses its budget is test_shipped_config_runs.
        doc = tiny_tr_doc(tmp_path / "out", seeds=(1,))
        doc["solver_params"]["delta_min"] = 1.0
        assert run(parse_run_config(doc)) == 0
        (entry,) = json.loads((tmp_path / "out" / "summary.json").read_text())["runs"]
        assert entry["termination"] == "radius_floor" and entry["iterations"] == 0

    def test_summary_config_is_parsed_document(self, tmp_path):
        doc = tiny_tr_doc(tmp_path / "cfg", seeds=(1,), max_iters=2)
        assert run(parse_run_config(doc)) == 0
        summary = json.loads((tmp_path / "cfg" / "summary.json").read_text())
        assert summary["config"] == dict(doc, problem_params={})
        assert list(summary["config"]) == [
            "problem", "solver", "seeds", "output_dir", "max_iters",
            "log_oracle_diagnostics", "problem_params", "solver_params",
        ]

    def test_spd_divergence_flagged(self, tmp_path):
        doc = {
            "problem": "synthetic",
            "solver": "spd-constant",
            "seeds": [1],
            "output_dir": str(tmp_path / "spd"),
            "max_iters": 5000,
            "solver_params": {"batch": 100},
        }
        assert run(parse_run_config(doc)) == 0
        summary = json.loads((tmp_path / "spd" / "summary.json").read_text())
        assert summary["runs"][0]["termination"] == "diverged"
        # No diagnostics at a diverged final x, but the CSV's draw count is kept.
        assert summary["runs"][0]["oracle_samples"] == 0
        assert "final_oracle_phi" not in summary["runs"][0]
        with open(next((tmp_path / "spd").glob("*.csv"))) as fh:
            header = fh.readline().strip().split(",")
        assert header == BASELINE_HEADER

    def test_float_serialization_round_trips(self, tmp_path):
        config = parse_run_config(tiny_tr_doc(tmp_path / "rt", seeds=(5,)))
        run(config)
        path = next((tmp_path / "rt").glob("*.csv"))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        # 17 significant digits reproduce the double exactly.
        v = float(rows[0]["v_k"])
        assert f"{v:.17g}" == rows[0]["v_k"]

    def test_identical_runs_bit_identical(self, tmp_path):
        for name in ("a", "b"):
            run(parse_run_config(tiny_tr_doc(tmp_path / name, seeds=(9,))))
        a = next((tmp_path / "a").glob("*.csv")).read_bytes()
        b = next((tmp_path / "b").glob("*.csv")).read_bytes()
        assert a == b

    def test_parallel_workers_match_serial(self, tmp_path):
        run(parse_run_config(tiny_tr_doc(tmp_path / "serial", seeds=(1, 2))), workers=1)
        run(parse_run_config(tiny_tr_doc(tmp_path / "par", seeds=(1, 2))), workers=2)
        for seed in (1, 2):
            a = (tmp_path / "serial" / f"synthetic_tr_seed{seed}.csv").read_bytes()
            b = (tmp_path / "par" / f"synthetic_tr_seed{seed}.csv").read_bytes()
            assert a == b

    @pytest.mark.parametrize("seeds, pool_size", [((1, 2), 2), ((1,), None)])
    def test_pool_has_no_more_workers_than_seeds(self, tmp_path, monkeypatch, seeds, pool_size):
        # A pool starts all its workers at the first submit, so it is sized by
        # the seeds, and one seed runs in this process. The fake starts none.
        import concurrent.futures

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        config = parse_run_config(tiny_tr_doc(tmp_path, seeds=seeds, max_iters=1))
        assert run(config, workers=8) == 0
        assert sizes == ([] if pool_size is None else [pool_size])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_recorded_without_aborting_siblings(self, tmp_path, workers):
        config = self.config_whose_seeds_raise(tmp_path / "err", seeds=(1, 2))
        assert run(config, workers=workers) == 1
        summary = json.loads((tmp_path / "err" / "summary.json").read_text())
        assert all("error" in entry for entry in summary["runs"])
        assert len(summary["runs"]) == 2

    @pytest.mark.parametrize("solver, module, step", [
        ("tr", tr, "iterate"),
        ("spd-constant", baselines, "spd_step"),
        ("asgda", baselines, "asgda_step"),
    ], ids=["tr", "spd-constant", "asgda"])
    def test_failed_seed_keeps_its_rows_and_no_stale_csv(
        self, tmp_path, monkeypatch, solver, module, step
    ):
        # A run of six rows per seed, then a rerun into the same directory whose
        # step raises at k = 3: each seed's CSV holds rows 0-2 of the first run.
        out = tmp_path / "out"
        doc = dict(tiny_tr_doc(out, seeds=(1, 2), max_iters=6), solver=solver)
        if solver != "tr":
            doc.update(solver_params={}, problem_params={"x0_center": [2.0]})
        assert run(parse_run_config(doc)) == 0
        first = {p.name: p.read_text().splitlines() for p in out.glob("*.csv")}
        assert sorted(len(lines) for lines in first.values()) == [7, 7]
        real = getattr(module, step)

        def failing(state, *args):
            if state.k == 3:
                raise RuntimeError("step 3 fails")
            return real(state, *args)

        monkeypatch.setattr(module, step, failing)
        assert run(parse_run_config(doc)) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert [sorted(e) for e in summary["runs"]] == [sorted(ERROR_KEYS)] * 2
        assert {p.name: p.read_text().splitlines() for p in out.glob("*.csv")} == {
            name: lines[:4] for name, lines in first.items()
        }
        assert main(["summarize", str(out)]) == 0

    def test_seed_that_fails_before_any_row_writes_the_header(self, tmp_path):
        config = self.config_whose_seeds_raise(tmp_path / "err", seeds=(1,))
        (tmp_path / "err").mkdir()
        stale = tmp_path / "err" / "synthetic_tr_seed1.csv"
        stale.write_text("stale\n")
        assert run(config) == 1
        assert stale.read_text().splitlines() == [",".join(TR_HEADER)]

    def config_whose_seeds_raise(self, out, seeds):
        """A config that parses and whose every seed's run raises: no regression
        set meets a condition target this close to 1 (a PoisednessError)."""
        doc = tiny_tr_doc(out, seeds=seeds, max_iters=2)
        doc["solver_params"]["lambda_max"] = 1.000001
        return parse_run_config(doc)

    def test_summary_key_sets_match_readme(self, tmp_path):
        spd = {
            "problem": "synthetic", "solver": "spd-constant", "seeds": [1],
            "solver_params": {"eta": 0.001, "batch": 500},
        }
        configs = {
            "tr": parse_run_config(tiny_tr_doc(tmp_path / "tr", seeds=(1,), max_iters=2)),
            "max_iters": parse_run_config(
                dict(spd, output_dir=str(tmp_path / "max_iters"), max_iters=2)
            ),
            "diverged": parse_run_config(
                dict(spd, output_dir=str(tmp_path / "diverged"), max_iters=50)
            ),
            "error": self.config_whose_seeds_raise(tmp_path / "error", seeds=(1,)),
        }
        entries = {}
        for name, config in configs.items():
            run(config)
            (entries[name],) = json.loads((tmp_path / name / "summary.json").read_text())["runs"]
        assert entries["max_iters"]["termination"] == "max_iters"
        assert entries["diverged"]["termination"] == "diverged"
        assert {name: set(entry) for name, entry in entries.items()} == {
            "tr": set(RUN_KEYS + FINAL_ORACLE_KEYS),
            "max_iters": set(RUN_KEYS + FINAL_ORACLE_KEYS),
            "diverged": set(RUN_KEYS),
            "error": set(ERROR_KEYS),
        }

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DDTR_OUTPUT_ROOT", str(tmp_path))
        config = parse_run_config(tiny_tr_doc(Path("rel_out"), seeds=(1,)))
        run(config)
        assert (tmp_path / "rel_out" / "summary.json").exists()

    def test_dro_run_with_generated_data(self, tmp_path):
        doc = {
            "problem": "dro",
            "solver": "tr",
            "seeds": [1],
            "output_dir": str(tmp_path / "dro"),
            "max_iters": 2,
            "problem_params": {
                "n_rows": 12, "n_features": 2, "data_seed": 3, "diag_samples": 50,
                "x0_center": [1.0, -1.0], "x0_radius": 0.2,
            },
            "solver_params": {"llr_count": 20, "value_count": 20},
        }
        assert run(parse_run_config(doc)) == 0
        summary = json.loads((tmp_path / "dro" / "summary.json").read_text())
        entry = summary["runs"][0]
        assert len(entry["x0"]) == 2
        assert np.linalg.norm(np.array(entry["x0"]) - [1.0, -1.0]) <= 0.2
        assert entry["oracle_samples"] == 0  # exact without noise
        with open(tmp_path / "dro" / "dro_tr_seed1.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2

    def test_noisy_dro_run_logs_exact_diagnostics(self, tmp_path):
        # diag_samples is accepted and ignored: the diagnostic draws nothing.
        doc = dict(
            tiny_tr_doc(tmp_path / "dro", seeds=(1,)), problem="dro",
            problem_params={"n_rows": 12, "n_features": 2, "noise_sigma": 0.5, "diag_samples": 50},
        )
        assert run(parse_run_config(doc)) == 0
        (entry,) = json.loads((tmp_path / "dro" / "summary.json").read_text())["runs"]
        assert entry["oracle_samples"] == 0
        assert math.isfinite(entry["final_oracle_phi"] + entry["final_oracle_grad_norm"])

    @pytest.mark.parametrize("solver", ["tr", "spd-constant"])
    def test_final_diagnostic_has_its_own_stream(self, tmp_path, monkeypatch, solver):
        # The final diagnostic is the last diagnostics call of a run. Its
        # generator must be a stream that no generator the solver handed to the
        # oracle or to the diagnostics uses, or a noisy run reuses those draws.
        oracle_keys, diag_keys = [], []

        def key(rng):
            return tuple(int(word) for word in rng.bit_generator.state["state"]["key"])

        def recording_instance(config):
            instance = build_instance(config)
            sampler = instance.oracle.sampler
            joint = instance.diagnostics.value_and_grad_norm

            def record_sample(x, count, rng):
                oracle_keys.append(key(rng))
                return sampler(x, count, rng)

            def record_diag(x, rng):
                diag_keys.append(key(rng))
                return joint(x, rng)

            return replace(
                instance,
                oracle=replace(instance.oracle, sampler=record_sample),
                diagnostics=replace(instance.diagnostics, value_and_grad_norm=record_diag),
            )

        build_instance = cli.build_instance
        monkeypatch.setattr(cli, "build_instance", recording_instance)
        doc = {
            "problem": "dro",
            "solver": solver,
            "seeds": [1],
            "output_dir": str(tmp_path / solver),
            "max_iters": 3,
            "problem_params": {
                "n_rows": 12, "n_features": 2, "data_seed": 3, "diag_samples": 20,
                "noise_sigma": 0.1,
            },
            "solver_params": {"batch": 20},
        }
        if solver == "tr":
            doc["solver_params"] = {"llr_count": 20, "value_count": 20}
        assert run(parse_run_config(doc)) == 0
        *solver_diag_keys, final = diag_keys
        assert len(solver_diag_keys) == 3 and oracle_keys
        assert final not in set(oracle_keys) | set(solver_diag_keys)

    @pytest.mark.parametrize(
        "terms, n_rows, mu",
        [({"lambda2": 0.5}, 20, 0.5 * 20**2), ({"lambda2": 0.5}, 30, 0.5 * 30**2), ({}, 20, 10.0)],
    )
    def test_explicit_lambda2_outlives_subsample(self, tmp_path, terms, n_rows, mu):
        # lambda2 defaults to 10 / N^2 for the subsampled N; an explicit value stays.
        rng = np.random.default_rng(0)
        lines = ["SeriousDlqin2yrs,f1,f2"]
        lines += [f"{i % 2},{rng.normal():.4f},{rng.normal():.4f}" for i in range(30)]
        data_path = tmp_path / "credit.csv"
        data_path.write_text("\n".join(lines) + "\n")
        doc = dict(
            tiny_tr_doc(tmp_path / "out"), problem="dro",
            problem_params={"csv_path": str(data_path), "n_rows": n_rows, **terms},
        )
        instance = cli.build_instance(parse_run_config(doc))
        assert instance.problem.m == n_rows
        assert instance.problem.mu == pytest.approx(mu, rel=1e-12)

    def write_rows(self, tmp_path, count):
        rng = np.random.default_rng(0)
        lines = ["SeriousDlqin2yrs,f1,f2"]
        lines += [f"{i % 2},{rng.normal():.4f},{rng.normal():.4f}" for i in range(count)]
        data_path = tmp_path / "credit.csv"
        data_path.write_text("\n".join(lines) + "\n")
        return data_path

    @pytest.mark.parametrize(
        "problem, params, match",
        [
            ("dro", {"csv_path": "credit.csv", "n_rows": 50}, "cannot subsample 50 of 30 rows"),
            ("dro", {"csv_path": "none.csv"}, "cannot open"),
            ("dro", {"x0_center": [1.0, 2.0]}, "x0_center has shape (2,), not (5,)"),
            ("synthetic", {"x0_center": [1, 2]}, "x0_center has shape (2,), not (1,)"),
            ("synthetic", {"x0_radius": 0}, "x0_radius must be finite and positive"),
        ],
        ids=["n_rows-above-file-rows", "missing-csv", "dro-x0_center", "x0_center", "x0_radius"],
    )
    def test_config_that_does_not_build_exits_2_before_any_seed_runs(
        self, tmp_path, capsys, problem, params, match
    ):
        # Every seed builds the same instance, so an instance that does not
        # build fails the parse once, not each seed.
        self.write_rows(tmp_path, 30)
        if "csv_path" in params:
            params = dict(params, csv_path=str(tmp_path / params["csv_path"]))
        doc = dict(
            tiny_tr_doc(tmp_path / "out", seeds=(1, 2)), problem=problem, problem_params=params
        )
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:") and match in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_rows", [1, 0, -1])
    def test_n_rows_below_two_exits_2_before_any_seed_runs(self, tmp_path, capsys, n_rows):
        # Before the parse checked it, 0 failed each seed with a ZeroDivisionError,
        # -1 with numpy's ValueError, and 1 ran a one-row problem.
        doc = dict(
            tiny_tr_doc(tmp_path / "out"), problem="dro",
            problem_params={"csv_path": str(self.write_rows(tmp_path, 30)), "n_rows": n_rows},
        )
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "n_rows must be an integer >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "problem, params, count, n, spell",
        [
            ("dro", {"n_features": 5}, 4, 5, lambda c: {"llr_count": c}),
            ("synthetic", {}, 1, 1, lambda c: {"llr_count": c}),
            # A growing schedule asks for min(n + 5, maximum) points or more.
            ("dro", {"n_features": 5}, 5, 5,
             lambda c: {"llr_schedule": {"minimum": 1, "maximum": c}}),
            ("synthetic", {}, 1, 1, lambda c: {"llr_schedule": {"minimum": 1, "maximum": c}}),
        ],
        ids=["dro", "synthetic", "dro-schedule", "synthetic-schedule"],
    )
    def test_llr_count_below_n_plus_1_exits_2_before_any_seed_runs(
        self, tmp_path, capsys, problem, params, count, n, spell
    ):
        # The regression needs n + 1 points, and n is the built instance's.
        # Before the parse checked it, every seed failed with exit status 1,
        # and a growing schedule's maximum went unchecked.
        doc = dict(
            tiny_tr_doc(tmp_path / "out", seeds=(1, 2)), problem=problem, problem_params=params
        )
        doc["solver_params"] = {"value_count": 30, **spell(count)}
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:")
        assert (
            f"'llr_count' or the 'llr_schedule' maximum must be >= n + 1 = {n + 1}, got {count}"
            in err
        )
        assert not (tmp_path / "out").exists()
        doc["solver_params"].update(spell(n + 1))
        assert parse_run_config(doc).solver_params == doc["solver_params"]

    def test_non_finite_csv_cell_exits_2_before_any_seed_runs(self, tmp_path, capsys):
        # Before the loader checked it, standardizing gave NaN features and
        # every seed failed on a non-finite oracle draw.
        path = self.write_rows(tmp_path, 40)
        lines = path.read_text().splitlines()
        lines[5] = "1,1e999,0.5"
        path.write_text("\n".join(lines) + "\n")
        doc = dict(
            tiny_tr_doc(tmp_path / "out"), problem="dro", problem_params={"csv_path": str(path)}
        )
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "credit.csv:6: non-finite feature value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["llr", "value"])
    def test_count_and_schedule_together_exit_2_before_any_seed_runs(
        self, tmp_path, capsys, name
    ):
        # Before the parse checked it, the count silently won.
        doc = tiny_tr_doc(tmp_path / "out", seeds=(1, 2))
        doc["solver_params"][f"{name}_schedule"] = {"minimum": 50, "maximum": 900}
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:")
        assert f"'{name}_count'" in err and f"'{name}_schedule'" in err
        assert not (tmp_path / "out").exists()

    def test_csv_path_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        # The message was the codec's alone.
        path = self.write_rows(tmp_path, 40)
        path.write_bytes(path.read_bytes().replace(b"f2", b"f\xff"))
        doc = dict(
            tiny_tr_doc(tmp_path / "out"), problem="dro", problem_params={"csv_path": str(path)}
        )
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:") and str(path) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, rows", [({}, 30), ({"n_rows": 30}, 30)])
    def test_file_rows_kept_up_to_n_rows(self, tmp_path, params, rows):
        # Without n_rows a file of at most 200 rows is used whole, as with an
        # n_rows equal to its rows.
        doc = dict(
            tiny_tr_doc(tmp_path / "out"), problem="dro",
            problem_params={"csv_path": str(self.write_rows(tmp_path, 30)), **params},
        )
        instance = cli.build_instance(parse_run_config(doc))
        loaded = ingest.load_credit_csv(tmp_path / "credit.csv")
        assert instance.problem.m == rows
        # At x = 0 a draw is the base features, row by row.
        draw = instance.oracle.sample(np.zeros(2), 1, make_rng(0))
        assert draw.tobytes() == loaded.features.tobytes()

    def test_dropped_rows_reported_once_per_run(self, tmp_path):
        # The parse and each seed loaded the file, and the loader logged a line
        # per dropped row at each load. The seeds reuse the data set the parse
        # built, so its one load warns once.
        path = self.write_rows(tmp_path, 30)
        lines = path.read_text().splitlines()
        lines[4], lines[9] = "1,,0.5", "0,0.1,"
        path.write_text("\n".join(lines) + "\n")
        doc = dict(
            tiny_tr_doc(tmp_path, seeds=(1, 2), max_iters=2), problem="dro",
            problem_params={"csv_path": str(path)},
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            config = parse_run_config(doc)
            for seed in config.seeds:
                cli.run_one(config, seed, str(tmp_path))
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"{path}: dropped 2 of 30 rows with a missing value, the first on line 5")
        ]

    def test_run_loads_its_file_once(self, tmp_path, monkeypatch):
        # The parse and each seed loaded the file, 4 loads for 3 seeds. The data
        # set is built once and goes with the config, also through a pickle.
        load, paths = ingest.load_credit_csv, []

        def counted(path, **kwargs):
            paths.append(path)
            return load(path, **kwargs)

        monkeypatch.setattr(ingest, "load_credit_csv", counted)
        doc = dict(
            tiny_tr_doc(tmp_path / "out", seeds=(1, 2, 3), max_iters=2), problem="dro",
            problem_params={"csv_path": str(self.write_rows(tmp_path, 30))},
        )
        config = parse_run_config(doc)
        assert run(config) == 0 and len(paths) == 1
        shipped = pickle.loads(pickle.dumps(config))
        assert cli.build_instance(shipped).problem.m == 30 and len(paths) == 1
        assert shipped.dataset.features.tobytes() == config.dataset.features.tobytes()

    def test_dro_run_from_csv(self, tmp_path):
        lines = ["SeriousDlqin2yrs,f1,f2,f3"]
        rng = np.random.default_rng(0)
        for i in range(15):
            lines.append(
                f"{i % 2},{rng.normal():.4f},{rng.normal():.4f},{rng.normal():.4f}"
            )
        data_path = tmp_path / "credit.csv"
        data_path.write_text("\n".join(lines) + "\n")
        doc = {
            "problem": "dro",
            "solver": "tr",
            "seeds": [2],
            "output_dir": str(tmp_path / "drocsv"),
            "max_iters": 2,
            "problem_params": {
                "csv_path": str(data_path),
                "feature_columns": ["f1", "f2"],
                "n_rows": 10,
                "diag_samples": 20,
            },
            "solver_params": {"llr_count": 20, "value_count": 20},
        }
        assert run(parse_run_config(doc)) == 0
        summary = json.loads((tmp_path / "drocsv" / "summary.json").read_text())
        assert len(summary["runs"][0]["final_x"]) == 2  # two selected features


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_runs(tmp_path, path):
    out = tmp_path / path.stem
    argv = ["run", str(path), "--seed-override", "1", "--max-iters", "2", "--output-dir", str(out)]
    assert main(argv) == 0
    assert len(list(out.glob("*_seed1.csv"))) == 1
    (entry,) = json.loads((out / "summary.json").read_text())["runs"]
    assert entry["termination"] == "max_iters"


# The bound below is a property of glibc's default malloc thresholds.
glibc_heap = pytest.mark.skipif(
    importlib.util.find_spec("resource") is None or platform.libc_ver()[0] != "glibc",
    reason="needs resource and glibc",
)


def _second_run_faults(setup: str, config: dict) -> int:
    """Minor page faults of the second of two ``run()`` calls in a fresh
    process, so that no earlier test's allocations set the heap's state;
    ``setup`` defines ``run`` from the parsed ``config``."""
    code = (
        "import json, resource, sys; from ddtr import cli, tr; "
        f"config = cli.parse_run_config(json.loads(sys.argv[1])); {setup}; "
        "run(); before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; run(); "
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    return int(fresh_python(code, json.dumps(config)))


# The 5-iteration golden dro_tr case with noisy draws: the sampler then
# allocates fresh draws on every call.
DRO_TR_NOISY = dict(
    DRO_TR, problem_params={**DRO_TR["problem_params"], "noise_sigma": 0.5}
)


@glibc_heap
def test_library_dro_run_reuses_heap_pages():
    # tr.solve through the library path, with diagnostics and without. The
    # sampler adds the shifted rows into the noise in small blocks; a
    # temporary of the regression set's size (2.4 MB) makes glibc trim the
    # heap and take it back in every iteration: thousands of faults.
    setup = (
        "instance = cli.build_instance(config); "
        "x0, _ = instance.draw_start(cli.make_rng(1)); "
        "run = lambda: tr.solve(x0, instance.problem, instance.oracle, "
        "cli.build_tr_config(config, 1), instance.diagnostics)"
    )
    assert _second_run_faults(setup, DRO_TR_NOISY) < 1000
    assert _second_run_faults(setup.replace("instance.diagnostics)", "None)"), DRO_TR_NOISY) < 1000


@glibc_heap
def test_noisy_asgda_run_reuses_heap_pages(tmp_path):
    # A noisy asgda run through run_one: a 500-row batch each step and a
    # diagnostic at each step. The sampler builds its noisy draws in one array;
    # with draws + sigma * noise, three arrays of that size, the heap is
    # trimmed and refaulted on every step.
    config = dict(
        DRO_TR_NOISY, solver="asgda", max_iters=20, output_dir=str(tmp_path),
        solver_params={"batch": 500},
    )
    setup = "run = lambda: cli.run_one(config, 1, config.output_dir)"
    assert _second_run_faults(setup, config) < 1000


class TestSummarize:
    def make_runs(self, tmp_path, seeds, name="runs"):
        out = tmp_path / name
        run(parse_run_config(tiny_tr_doc(out, seeds=seeds)))
        return out

    def parse(self, text):
        return list(csv.DictReader(io.StringIO(text)))

    def test_single_run_medians_equal_values(self, tmp_path, capsys):
        out = self.make_runs(tmp_path, (3,))
        summarize([str(out)])
        rows = self.parse(capsys.readouterr().out)
        with open(next(out.glob("*.csv"))) as fh:
            raw = {int(r["k"]): float(r["oracle_grad_norm"]) for r in csv.DictReader(fh)}
        for row in rows:
            k = int(row["k"])
            assert float(row["median"]) == pytest.approx(raw[k])
            assert float(row["q25"]) == pytest.approx(raw[k])

    def test_identical_seeds_zero_iqr(self, tmp_path, capsys):
        out = tmp_path / "same"
        out.mkdir()
        src = self.make_runs(tmp_path, (4,), name="src")
        data = next(src.glob("*.csv")).read_bytes()
        for i in range(5):
            (out / f"copy{i}.csv").write_bytes(data)
        summarize([str(out)])
        for row in self.parse(capsys.readouterr().out):
            assert float(row["q75"]) - float(row["q25"]) == 0.0
            assert int(row["n_runs"]) == 5

    def test_empty_dir_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SchemaError):
            summarize([str(empty)])

    @pytest.mark.parametrize(
        "rows, line, column", [("0,1.5\n1,abc\n", 3, "grad_norm_est"), ("x,1.5\n", 2, "k")]
    )
    def test_bad_cell_exits_2_naming_file_line_and_column(
        self, tmp_path, capsys, rows, line, column
    ):
        out = tmp_path / "bad"
        out.mkdir()
        (out / "weird.csv").write_text("k,grad_norm_est\n" + rows)
        assert main(["summarize", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / 'weird.csv'}:{line}: column {column!r}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rows, line, got",
        [("0,1.5\n1,2.5,9\n", 3, 3), ("0,1.5\n1\n", 3, 1), ('"0\n",1.5\n1,2.5,9\n', 4, 3)],
        ids=["extra-cell", "missing-cell", "after-a-two-line-cell"],
    )
    def test_ragged_row_exits_2_naming_physical_line(self, tmp_path, capsys, rows, line, got):
        # A row with an extra cell was summarized without a word, and one
        # with a missing cell failed on float(None).
        out = tmp_path / "ragged"
        out.mkdir()
        (out / "run.csv").write_text("k,grad_norm_est\n" + rows)
        assert main(["summarize", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {out / 'run.csv'}:{line}: expected 2 fields, got {got}\n"
        )
        assert captured.out == ""

    def test_bad_csv_after_a_good_directory_creates_no_output(self, tmp_path, capsys):
        good = self.make_runs(tmp_path, (1,))
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "weird.csv").write_text("k,grad_norm_est\n0,abc\n")
        target = tmp_path / "agg.csv"
        assert main(["summarize", str(good), str(bad), "--output", str(target)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad / 'weird.csv'}:2:")
        assert not target.exists()

    def test_metric_falls_back_without_oracle_diagnostics(self, tmp_path, capsys):
        # Every TR CSV has an oracle_grad_norm column; without diagnostics it
        # is all NaN, and the surrogate gradient norm is summarized instead.
        out = tmp_path / "plain"
        doc = dict(tiny_tr_doc(out, seeds=(1, 2)), log_oracle_diagnostics=False)
        run(parse_run_config(doc))
        summarize([str(out)])
        rows = self.parse(capsys.readouterr().out)
        assert [int(row["k"]) for row in rows] == [0, 1, 2, 3]
        assert {row["metric"] for row in rows} == {"grad_norm_surrogate"}

    def test_iteration_without_a_finite_metric_is_skipped(self, tmp_path, capsys):
        # At k = 1 no run has a finite value, and at k = 3 one run has.
        out = tmp_path / "gaps"
        out.mkdir()
        (out / "a.csv").write_text("k,grad_norm_est\n0,1.5\n1,nan\n2,0.5\n3,1.0\n")
        (out / "b.csv").write_text("k,grad_norm_est\n0,2.5\n1,inf\n2,0.25\n3,nan\n")
        summarize([str(out)])
        rows = self.parse(capsys.readouterr().out)
        assert [(row["k"], row["n_runs"], row["median"]) for row in rows] == [
            ("0", "2", "2"), ("2", "2", "0.375"), ("3", "1", "1")
        ]

    def test_csv_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        # It ended in a UnicodeDecodeError traceback with exit status 1.
        out = tmp_path / "bad"
        out.mkdir()
        (out / "weird.csv").write_bytes(b"k,grad_norm_est\n0,1.5\xff\n")
        assert main(["summarize", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out / 'weird.csv'}: ")
        assert captured.out == ""

    def test_missing_metric_names_file(self, tmp_path):
        out = tmp_path / "bad"
        out.mkdir()
        (out / "weird.csv").write_text("k,foo\n0,1.0\n")
        with pytest.raises(SchemaError, match="weird.csv"):
            summarize([str(out)])


class TestMain:
    def test_run_and_summarize_end_to_end(self, tmp_path, capsys):
        config_path = write_config(tmp_path, tiny_tr_doc(tmp_path / "e2e", seeds=(1,)))
        assert main(["run", str(config_path)]) == 0
        assert main(["summarize", str(tmp_path / "e2e")]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "oracle_grad_norm" in out

    def test_seed_and_iter_overrides(self, tmp_path):
        config_path = write_config(tmp_path, tiny_tr_doc(tmp_path / "ovr"))
        assert (
            main(
                [
                    "run", str(config_path),
                    "--seed-override", "7",
                    "--max-iters", "2",
                    "--output-dir", str(tmp_path / "ovr2"),
                ]
            )
            == 0
        )
        summary = json.loads((tmp_path / "ovr2" / "summary.json").read_text())
        assert [e["seed"] for e in summary["runs"]] == [7]
        assert summary["runs"][0]["iterations"] == 2

    def test_unknown_solver_exits_nonzero_with_options(self, tmp_path, capsys):
        doc = tiny_tr_doc(tmp_path / "x")
        doc["solver"] = "bfgs"
        config_path = write_config(tmp_path, doc)
        assert main(["run", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert "tr" in err and "asgda" in err and "spd-dynamic" in err

    def test_bad_solver_value_exits_2_before_any_seed_runs(self, tmp_path, capsys):
        doc = tiny_tr_doc(tmp_path / "x")
        doc["solver_params"]["eta1"] = "abc"
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "eta1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["ridge", "divergence_norm"])
    def test_baseline_constant_is_not_a_key(self, tmp_path, capsys, key):
        # baselines.RIDGE and DIVERGENCE_NORM are constants, like the trust
        # region's numerical floors.
        doc = dict(tiny_tr_doc(tmp_path / "x"), solver="asgda", solver_params={key: 1.0})
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert f"unknown solver_params key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "solver, key", [("spd-constant", "forget"), ("spd-dynamic", "eta"), ("asgda", "dyn_b")]
    )
    def test_baseline_key_the_method_does_not_read_exits_2(self, tmp_path, capsys, solver, key):
        # It ran, with the key silently unused.
        doc = dict(tiny_tr_doc(tmp_path / "x"), solver=solver, solver_params={key: 0.5})
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert f"unknown solver_params key {key!r} for {solver!r}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_dro_term_exits_2_before_any_seed_runs(self, tmp_path, capsys):
        doc = dict(
            tiny_tr_doc(tmp_path / "x"), problem="dro",
            problem_params={"n_rows": 12, "n_features": 2, "noise_sigma": -1.0},
        )
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        assert "noise_sigma" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_wrong_type_exits_with_error_line(self, tmp_path, capsys):
        doc = dict(tiny_tr_doc(tmp_path / "x"), max_iters="abc")
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_iters" in err

    @pytest.mark.parametrize("doc", [[1, 2], None])
    @pytest.mark.parametrize("flags", [[], ["--seed-override", "3"], ["--max-iters", "2"]])
    def test_document_that_is_no_object_exits_2(self, tmp_path, capsys, doc, flags):
        assert main(["run", str(write_config(tmp_path, doc)), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:") and "JSON object" in err

    @pytest.mark.parametrize(
        "seeds, flags", [((1, 1, 2), []), ((1, 2), ["--seed-override", "3,3"])]
    )
    def test_repeated_seeds_exit_2_before_any_seed_runs(self, tmp_path, capsys, seeds, flags):
        path = write_config(tmp_path, tiny_tr_doc(tmp_path / "x", seeds=seeds))
        assert main(["run", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:") and "'seeds' must be distinct" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("seeds", ["1,x", "1.5", "1,,2", ""])
    def test_bad_seed_override_exits_2_with_error_line(self, tmp_path, capsys, seeds):
        path = write_config(tmp_path, tiny_tr_doc(tmp_path / "x"))
        assert main(["run", str(path), "--seed-override", seeds]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed-override" in err and repr(seeds) in err
        assert not (tmp_path / "x").exists()

    def test_empty_output_dir_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch):
        # An empty --output-dir (or output_dir) wrote the run into the
        # current directory.
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.OUTPUT_ROOT_ENV, raising=False)
        path = write_config(tmp_path, tiny_tr_doc(tmp_path / "x", seeds=(1,)))
        assert main(["run", str(path), "--output-dir", ""]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:") and "'output_dir' must be a nonempty" in err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    @pytest.mark.parametrize(
        "section, params",
        [
            ("solver_params", {"eta2": math.nan}),
            ("solver_params", {"eta2": math.inf}),
            ("problem_params", {"noise_sigma": math.nan}),
            ("problem_params", {"noise_sigma": math.inf}),
            ("solver_params", {"lambda_max": 0.5}),
        ],
    )
    def test_bad_value_exits_2_before_any_seed(self, tmp_path, capsys, section, params):
        # json.dumps writes a NaN or an infinity as the bare NaN or Infinity
        # that json.load reads back.
        doc = dict(tiny_tr_doc(tmp_path / "x", seeds=(1, 2)), **{section: params})
        assert main(["run", str(write_config(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config:") and next(iter(params)) in err
        assert not (tmp_path / "x").exists()

    def test_config_not_utf8_exits_2_naming_file(self, tmp_path, capsys):
        # It ended in a UnicodeDecodeError traceback with exit status 1.
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(tiny_tr_doc(tmp_path / "out")).encode() + b"\xff")
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert not (tmp_path / "out").exists()

    def test_failed_seeds_are_named_on_stderr(self, tmp_path, capsys):
        # Every seed of this config raises a PoisednessError in its first iteration.
        doc = tiny_tr_doc(tmp_path / "err", seeds=(1, 2), max_iters=2)
        doc["solver_params"]["lambda_max"] = 1.000001
        assert main(["run", str(write_config(tmp_path, doc))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for seed, line in zip((1, 2), err):
            assert line.startswith(f"error: seed {seed}: PoisednessError: ")

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_of_no_iterations_summarizes_to_the_header_and_compares_identical(
        self, tmp_path, capsys
    ):
        # A max_iters 0 run writes CSVs that hold only their header.
        out = tmp_path / "zero"
        assert run(parse_run_config(tiny_tr_doc(out, seeds=(1, 2), max_iters=0))) == 0
        assert [len(p.read_text().splitlines()) for p in sorted(out.glob("*.csv"))] == [1, 1]
        assert main(["summarize", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == ["dir,metric,k,n_runs,q25,median,q75"]
        assert main(["compare", str(out), str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "identical"

    def test_summarize_to_file(self, tmp_path):
        out = tmp_path / "s"
        run(parse_run_config(tiny_tr_doc(out, seeds=(1,))))
        target = tmp_path / "agg.csv"
        assert main(["summarize", str(out), "--output", str(target)]) == 0
        assert target.exists() and "median" in target.read_text()


class TestCompare:
    """``ddtr compare`` on a run and hand-perturbed copies of it."""

    @pytest.fixture
    def runs(self, tmp_path):
        base = tmp_path / "base"
        assert run(parse_run_config(tiny_tr_doc(base, seeds=(1, 2), max_iters=5))) == 0
        return base

    def copy(self, base, tmp_path, edit=None, name="synthetic_tr_seed2.csv"):
        """A copy of the run directory whose CSV ``name`` has its rows passed through ``edit``."""
        other = tmp_path / "other"
        other.mkdir()
        for path in base.iterdir():
            (other / path.name).write_bytes(path.read_bytes())
        if edit is not None:
            with open(other / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            rows = edit(rows)
            with open(other / name, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=TR_HEADER)
                writer.writeheader()
                writer.writerows(rows)
        return other

    def compare(self, a, b, capsys):
        status = main(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.split()[0] == "column") + 1
        end = next(i for i, line in enumerate(lines) if line.startswith("first differing k"))
        table = {column: (float(diff), k) for column, diff, k in map(str.split, lines[start:end])}
        return status, out, table

    def test_identical_runs_exit_0(self, runs, tmp_path, capsys):
        other = self.copy(runs, tmp_path)
        summary = json.loads((other / "summary.json").read_text())
        for entry in summary["runs"]:
            entry["wall_time_s"] += 1.0  # timings are not compared
        (other / "summary.json").write_text(json.dumps(summary))
        status, out, table = self.compare(runs, other, capsys)
        assert status == 0
        assert "rows: identical" in out and "decisions: identical" in out
        assert out.rstrip().endswith("identical") and "first differing k: -" in out
        assert set(TR_HEADER) <= table.keys() and all(d == 0.0 for d, _ in table.values())
        assert "summary.wall_time_s" not in table

    def test_float_perturbation_is_measured(self, runs, tmp_path, capsys):
        def edit(rows):
            rows[2]["rho"] = repr(float(rows[2]["rho"]) * (1 + 1e-10))
            x = [float(v) for v in rows[3]["x_after"].split(";")]
            rows[3]["x_after"] = ";".join(repr(v * (1 - 1e-6)) for v in x)
            return rows

        status, out, table = self.compare(runs, self.copy(runs, tmp_path, edit), capsys)
        assert status == 1 and out.rstrip().endswith("differ")
        assert "decisions: identical" in out and "first differing k: 2" in out
        assert table["rho"][0] == pytest.approx(1e-10, rel=1e-3) and table["rho"][1] == "2"
        assert table["x_after"][0] == pytest.approx(1e-6, rel=1e-3) and table["x_after"][1] == "3"
        assert table["delta"] == (0.0, "-")

    def test_decision_change_is_named(self, runs, tmp_path, capsys):
        def edit(rows):
            rows[1]["accepted"] = "0" if rows[1]["accepted"] == "1" else "1"
            return rows

        status, out, table = self.compare(runs, self.copy(runs, tmp_path, edit), capsys)
        assert status == 1 and "decisions: accepted differ" in out
        assert table["accepted"] == (math.inf, "1")

    def test_cell_that_is_no_number_differs_by_inf(self, runs, tmp_path, capsys):
        def edit(rows):
            rows[2]["rho"] = "abc"
            return rows

        status, out, table = self.compare(runs, self.copy(runs, tmp_path, edit), capsys)
        assert status == 1 and out.rstrip().endswith("differ")
        assert "decisions: identical" in out and "first differing k: 2" in out
        assert table["rho"] == (math.inf, "2") and table["delta"] == (0.0, "-")

    def test_row_count_and_summary_changes(self, runs, tmp_path, capsys):
        other = self.copy(runs, tmp_path, lambda rows: rows[:-1])
        summary = json.loads((other / "summary.json").read_text())
        summary["runs"][0]["termination"] = "radius_floor"
        (other / "summary.json").write_text(json.dumps(summary))
        status, out, table = self.compare(runs, other, capsys)
        assert status == 1
        assert "synthetic_tr_seed2.csv: 5 rows in" in out and "rows: identical" not in out
        assert "decisions: summary.termination differ" in out

    def test_missing_csv_is_reported(self, runs, tmp_path, capsys):
        other = self.copy(runs, tmp_path)
        (other / "synthetic_tr_seed1.csv").unlink()
        status, out, _ = self.compare(runs, other, capsys)
        assert status == 1 and f"synthetic_tr_seed1.csv: only in {runs}" in out

    def test_missing_directory_exits_2(self, runs, tmp_path, capsys):
        # A missing directory read as one without CSVs: every run was "only
        # in" the other, and compare printed "differ" and exited 1.
        assert main(["compare", str(runs), str(tmp_path / "missing")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "missing: no run CSVs found" in captured.err
        assert captured.out == ""

    def test_ragged_row_exits_2_naming_file_and_line(self, runs, tmp_path, capsys):
        # A row with more cells than the header ended in an AttributeError
        # traceback with exit status 1.
        other = tmp_path / "ragged"
        other.mkdir()
        (other / "synthetic_tr_seed1.csv").write_text("k,rho\n0,1.5\n1,2.5,9\n")
        assert main(["compare", str(runs), str(other)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {other / 'synthetic_tr_seed1.csv'}:3: expected 2 fields, got 3\n"
        )
        assert captured.out == ""

    def test_directories_without_runs_exit_2(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a"), str(tmp_path / "b")]) == 2
        assert "no run CSVs" in capsys.readouterr().err


RUN_CSV = {"run.csv": "k,delta\n0,1.5\n"}


@pytest.mark.parametrize(
    "argv, files, match",
    [
        (["summarize", "A", "--metric", "rho"], RUN_CSV, "run.csv: missing column 'rho'"),
        (["compare", "A", "B"], RUN_CSV | {"summary.json": "{"}, "summary.json: JSONDecodeError"),
        (["compare", "A", "B"], RUN_CSV | {"summary.json": "{}"}, "summary.json: KeyError('runs')"),
        (["compare", "A", "B"], {}, "B: no run CSVs found\n"),
    ],
    ids=["missing-metric", "summary-not-json", "summary-without-runs", "no-csvs"],
)
def test_unreadable_run_directory_exits_2(tmp_path, capsys, argv, files, match):
    for name in ("A", "B"):
        (tmp_path / name).mkdir()
        for file, text in files.items():
            (tmp_path / name / file).write_text(text)
    assert main([str(tmp_path / a) if a in ("A", "B") else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and match in captured.err and captured.out == ""


class TestFreshProcess:
    """``python -m ddtr.cli`` as a shell runs it: the module's entry point, a
    process pool of real workers, and the warning filters a new interpreter has."""

    def test_module_exits_with_the_status_of_main(self, tmp_path):
        done = fresh_cli("compare", str(tmp_path / "a"), str(tmp_path / "b"))
        assert done.returncode == 2 and done.stderr.startswith("error:")

    def test_serial_and_pool_runs_compare_identical_and_summarize(self, tmp_path):
        dirs = [str(tmp_path / f"w{workers}") for workers in (1, 2)]
        for workers, out in enumerate(dirs, start=1):
            done = fresh_cli(
                "run", str(CONFIG_DIR / "dro_tr.json"), "--seed-override", "1,2",
                "--max-iters", "5", "--workers", str(workers), "--output-dir", out,
            )
            assert done.returncode == 0, done.stderr
        compared = fresh_cli("compare", *dirs)
        assert compared.returncode == 0 and compared.stdout.endswith("\nidentical\n")
        summary = fresh_cli("summarize", dirs[0]).stdout
        assert summary.startswith("dir,metric,k,n_runs,q25,median,q75\n")

    @pytest.mark.parametrize("pool", ["1", "2", "spawn", "forkserver"])
    def test_csv_run_warns_once(self, tmp_path, pool):
        # A run loads the file once, and its pool workers get the data set with
        # the config: serially, with two workers started the platform's way, and
        # with two started by spawn or forkserver, under which each worker loaded
        # the file again and warned. 6 of its 60 rows have an empty cell.
        lines = ["SeriousDlqin2yrs,f1,f2"] + [
            f"{i % 2},,{i}" if i % 9 == 0 else f"{i % 2},{i},{i * i % 11}" for i in range(1, 61)
        ]
        data = tmp_path / "credit.csv"
        data.write_text("\n".join(lines) + "\n")
        doc = dict(
            tiny_tr_doc(tmp_path / "out", seeds=(1, 2), max_iters=5), problem="dro",
            problem_params={"csv_path": str(data)},
        )
        workers, start_method = (pool, None) if pool.isdigit() else ("2", pool)
        done = fresh_cli(
            "run", str(write_config(tmp_path, doc)), "--workers", workers,
            start_method=start_method,
        )
        assert done.returncode == 0
        warning = f"{data}: dropped 6 of 60 rows with a missing value, the first on line 10"
        assert done.stderr.count("UserWarning") == 1 and warning in done.stderr
