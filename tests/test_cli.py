import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ftqc import cli
from ftqc.errors import TheoremViolationError

ROOT = Path(__file__).resolve().parents[1]

PLAN_CFG = {"eps0": 1e-10, "eps_th": 1e-9, "gate_count": 10 ** 12, "p": 0.2, "p_hat": 0.4}

VERIFY_CFG = {
    "circuit": {"num_qubits": 1, "gates": [{"name": "I", "targets": [0]}]},
    "computation": {
        "inputs": ["0", "1"],
        "outputs": ["0", "1"],
        "truth_table": {"0": "0", "1": "1"},
        "povm": "computational_basis",
    },
    "noise": {"kind": "depolarizing", "strength": 0.3},
}

PLAN_GOLDEN_JSON = """\
{
  "levels": 2,
  "eps_n": 1e-13,
  "eps_qc": 0.1,
  "budget": 0.1,
  "alpha_required": 0.2,
  "closed_form_levels": 2.0
}
"""

PLAN_GOLDEN_CSV = """\
levels,eps_n,eps_qc,budget,alpha_required,closed_form_levels
2,1e-13,0.1,0.1,0.2,2
"""

VERIFY_GOLDEN_CSV = """\
x,ideal_success,actual_success,inaccuracy_x,alpha,p,bound_holds,worst_margin
0,1,0.85,0.3,0.3,0,true,0.15
1,1,0.85,0.3,0.3,0,true,0.15
"""

VOTE_GOLDEN_JSON = """\
{
  "per_run_failure": 0.15,
  "repetitions": 3,
  "success_probability": 0.93925
}
"""


def ladder_verify_cfg(n, **extra):
    """verify on an n-qubit H + CNOT ladder, one basis input, full readout."""
    gates = [{"name": "H", "targets": [0]}]
    gates += [{"name": "CNOT", "targets": [q, q + 1]} for q in range(n - 1)]
    labels = [format(i, f"0{n}b") for i in range(2 ** n)]
    return {
        "circuit": {"num_qubits": n, "gates": gates},
        "computation": {
            "inputs": [labels[0]],
            "outputs": labels,
            "truth_table": {labels[0]: labels[0]},
            "povm": "computational_basis",
        },
        "noise": {"kind": "depolarizing", "strength": 0.01},
        **extra,
    }


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_golden_json(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, PLAN_CFG)])
        assert code == 0
        assert out == PLAN_GOLDEN_JSON

    def test_golden_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, ["plan", "--config", write_cfg(tmp_path, PLAN_CFG), "--format", "csv"]
        )
        assert code == 0
        assert out == PLAN_GOLDEN_CSV

    def test_eps0_flag_overrides_config(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            ["plan", "--config", write_cfg(tmp_path, PLAN_CFG), "--eps0", "1e-11"],
        )
        assert code == 0
        assert json.loads(out)["levels"] == 1

    def test_inverse_query_reports_max_eps0(self, tmp_path, capsys):
        cfg = {k: v for k, v in PLAN_CFG.items() if k != "eps0"}
        code, out, _ = run_cli(
            capsys, ["plan", "--config", write_cfg(tmp_path, cfg), "--levels", "2"]
        )
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["levels", "max_eps0", "budget", "alpha_required"]
        assert payload["levels"] == 2
        assert payload["max_eps0"] == 1e-10  # 12-significant-digit rounding
        assert payload["budget"] == 0.1

    def test_success_target_matches_p_hat_byte_for_byte(self, tmp_path, capsys):
        cfg_failure = dict(PLAN_CFG)
        cfg_success = {k: v for k, v in PLAN_CFG.items() if k != "p_hat"}
        cfg_success["success_target"] = 0.6
        _, out_a, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg_failure, "a.json")])
        _, out_b, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg_success, "b.json")])
        assert out_a == out_b

    def test_infeasible_exits_one_with_reason(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, p_hat=0.2)
        code, out, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert out == ""
        assert "infeasible: p_hat must exceed p" in err

    def test_above_threshold_exits_one(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, eps0=1e-8)
        code, _, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert "threshold" in err

    def test_within_rounding_of_threshold_exits_one(self, tmp_path, capsys):
        argv = ["plan", "--config", write_cfg(tmp_path, PLAN_CFG), "--eps0", "9.999999999999999e-10"]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: eps0 9.999999999999999e-10 is within float rounding")
        assert err.count("\n") == 1

    def test_out_flag_writes_file_and_keeps_stdout_quiet(self, tmp_path, capsys):
        dest = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys,
            ["plan", "--config", write_cfg(tmp_path, PLAN_CFG), "--out", str(dest)],
        )
        assert code == 0
        assert out == ""
        assert dest.read_text() == PLAN_GOLDEN_JSON

    def test_both_p_hat_forms_rejected(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, success_target=0.6)
        code, _, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert "p_hat" in err and "success_target" in err


class TestTradeoff:
    CFG = {
        "eps0_min": 1e-13,
        "eps0_max": 1e-9,
        "points": 40,
        "eps_th": 1e-9,
        "gate_count": 10 ** 12,
        "p": 0.2,
        "p_hat": 0.4,
    }

    def test_csv_header_and_anchor_rows(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["tradeoff", "--config", write_cfg(tmp_path, self.CFG)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "eps0,levels,eps_qc,closed_form"
        assert len(lines) == 41  # header + 40 grid rows
        # grid index 20 sits at 1e-11 (one level), index 30 at 1e-10 (two)
        assert lines[21].split(",")[1] == "1"
        assert lines[31].split(",")[1] == "2"

    def test_json_variant_mirrors_rows(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            ["tradeoff", "--config", write_cfg(tmp_path, self.CFG), "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 40
        assert list(payload["points"][0]) == ["eps0", "levels", "eps_qc", "closed_form"]

    def test_grid_above_threshold_exits_one(self, tmp_path, capsys):
        cfg = dict(self.CFG, eps0_max=2e-9)
        code, _, err = run_cli(capsys, ["tradeoff", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert "threshold" in err

    def test_grid_within_rounding_of_threshold_gets_sentinel_rows(self, tmp_path, capsys):
        cfg = dict(self.CFG, eps0_min=9.999999999999999e-10, points=2)
        code, out, _ = run_cli(capsys, ["tradeoff", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        assert [line.split(",")[1] for line in out.splitlines()[1:]] == ["-1", "-1"]

    def test_oversized_grid_exits_one(self, tmp_path, capsys):
        cfg = dict(self.CFG, points=10 ** 15)
        code, out, err = run_cli(capsys, ["tradeoff", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert out == ""
        assert err == "error: points = 1000000000000000 exceeds the cap of 100000\n"


class TestVerify:
    def test_golden_csv(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--config", write_cfg(tmp_path, VERIFY_CFG), "--format", "csv"],
        )
        assert code == 0
        assert out == VERIFY_GOLDEN_CSV

    def test_json_report_fields(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, VERIFY_CFG)])
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["per_input", "alpha", "p", "bound_holds", "worst_margin"]
        assert payload["alpha"] == 0.3
        assert payload["p"] == 0.0
        assert payload["bound_holds"] is True
        assert payload["worst_margin"] == 0.15

    def test_subconfigs_load_from_files(self, tmp_path, capsys):
        circ_path = write_cfg(tmp_path, VERIFY_CFG["circuit"], "circ.json")
        comp_path = write_cfg(tmp_path, VERIFY_CFG["computation"], "comp.json")
        cfg = {"circuit": circ_path, "computation": comp_path, "noise": VERIFY_CFG["noise"]}
        code, out, _ = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        assert json.loads(out)["alpha"] == 0.3

    def test_random_search_extension_field(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, random_search_trials=10)
        code, out, _ = run_cli(
            capsys, ["verify", "--config", write_cfg(tmp_path, cfg), "--seed", "7"]
        )
        assert code == 0
        payload = json.loads(out)
        assert "alpha_random_search" in payload
        # every pure state sits at exactly lambda from its depolarized image
        assert payload["alpha_random_search"] == 0.3

    def test_oversized_random_search_exits_one_at_once(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, random_search_trials=10 ** 9)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert err == "error: trials = 1000000000 exceeds the cap of 100000\n"

    def test_oversized_search_on_five_qubits_exits_before_certifying(self, tmp_path, capsys):
        cfg = ladder_verify_cfg(5, random_search_trials=10 ** 9)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert time.perf_counter() - started < 0.5
        assert (code, out) == (1, "")
        assert err == "error: trials = 1000000000 exceeds the cap of 100000\n"

    def test_eight_qubit_search_exits_zero(self, tmp_path):
        # the search on the widest register runs within a 2 GB address space
        cfg = write_cfg(tmp_path, ladder_verify_cfg(8, random_search_trials=16))
        code = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))
sys.path.insert(0, {str(ROOT / "src")!r})
from ftqc import cli
sys.exit(cli.main(["verify", "--config", {cfg!r}]))
"""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert 0.0 < json.loads(done.stdout)["alpha_random_search"] <= 2.0

    def test_seed_flag_beats_config_and_env(self, tmp_path, capsys, monkeypatch):
        cfg = dict(VERIFY_CFG, random_search_trials=5, seed=1)
        path = write_cfg(tmp_path, cfg)
        monkeypatch.setenv("FTQC_SEED", "2")
        code_a, out_a, _ = run_cli(capsys, ["verify", "--config", path, "--seed", "3"])
        code_b, out_b, _ = run_cli(capsys, ["verify", "--config", path, "--seed", "3"])
        assert code_a == code_b == 0
        assert out_a == out_b  # byte-identical reruns

    def test_env_seed_is_accepted(self, tmp_path, capsys, monkeypatch):
        cfg = dict(VERIFY_CFG, random_search_trials=5)
        monkeypatch.setenv("FTQC_SEED", "11")
        code, out, _ = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0

    def test_bad_env_seed_is_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FTQC_SEED", "eleven")
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, VERIFY_CFG)])
        assert code == 2
        assert "FTQC_SEED" in err

    def test_missing_circuit_file_exits_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, circuit=str(tmp_path / "nope.json"))
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "circuit",
        [
            {"num_qubits": True, "gates": [{"name": "I", "targets": [0]}]},
            {"num_qubits": 1, "gates": [{"name": "X", "targets": [False]}]},
            {"num_qubits": 1, "gates": [{"matrix": [[True, 0], [0, True]], "targets": [0]}]},
        ],
        ids=["num_qubits", "targets", "matrix_entry"],
    )
    def test_json_booleans_are_not_numbers(self, tmp_path, capsys, circuit):
        cfg = dict(VERIFY_CFG, circuit=circuit)
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert err.startswith("config error")

    def test_circuit_computation_width_mismatch_exits_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, circuit={"num_qubits": 3, "gates": [{"name": "I", "targets": [0]}]})
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert err == "config error: circuit has 3 qubit(s) but the computation has 1 qubit(s)\n"

    def test_unknown_noise_kind_exits_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, noise={"kind": "amplitude", "strength": 0.1})
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert "noise.kind" in err

    @pytest.mark.parametrize(
        "section, value",
        [
            ("circuit", {"num_qubits": 1, "gates": [{"matrix": [[1, 0], [0]], "targets": [0]}]}),
            ("computation", dict(VERIFY_CFG["computation"], povm={"0": [[1, 0], [0]], "1": [[0, 0], [0, 1]]})),
            ("computation", dict(VERIFY_CFG["computation"], inputs=[""], truth_table={"": "0"})),
        ],
        ids=["ragged_gate_matrix", "ragged_povm_matrix", "empty_label"],
    )
    def test_malformed_matrix_or_label_exits_two(self, tmp_path, capsys, section, value):
        cfg = dict(VERIFY_CFG, **{section: value})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_non_finite_matrix_entry_exits_one(self, tmp_path, capsys):
        # json writes and reads the NaN literal
        gate = {"matrix": [[float("nan"), 0], [0, 1]], "targets": [0]}
        cfg = dict(VERIFY_CFG, circuit={"num_qubits": 1, "gates": [gate]})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert out == ""
        assert err == "error: matrix has a non-finite (nan or inf) entry\n"


class TestVote:
    def test_golden_fixed_k(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.15, "k": 3})]
        )
        assert code == 0
        assert out == VOTE_GOLDEN_JSON

    def test_target_query_echoes_target(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.1, "target": 0.99})],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["repetitions"] == 5
        assert payload["target"] == 0.99

    def test_csv_variant(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys,
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.15, "k": 3}), "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines()[0] == "per_run_failure,repetitions,success_probability"
        assert out.splitlines()[1] == "0.15,3,0.93925"

    def test_half_or_worse_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.6, "target": 0.9})],
        )
        assert code == 1
        assert "1/2" in err

    def test_both_k_and_target_exit_two(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.1, "k": 3, "target": 0.9})],
        )
        assert code == 2
        assert '"k" or "target"' in err

    def test_neither_k_nor_target_exit_two(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.1})]
        )
        assert code == 2

    def test_oversized_window_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.15, "k": 10 ** 13 + 1})]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: k = 10000000000001 needs a window of ")
        assert err.endswith(" terms\n") and err.count("\n") == 1

    def test_certain_failure_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, ["vote", "--config", write_cfg(tmp_path, {"p_prime": 1.0, "k": 3})]
        )
        assert code == 1
        assert out == ""
        assert err == "error: per_run_failure = 1.0 outside [0, 1)\n"


class TestConfigHandling:
    def test_malformed_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, ["plan", "--config", str(path)])
        assert code == 2
        assert "malformed JSON" in err

    def test_non_object_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        code, _, err = run_cli(capsys, ["plan", "--config", str(path)])
        assert code == 2

    def test_missing_key_exits_two(self, tmp_path, capsys):
        cfg = {k: v for k, v in PLAN_CFG.items() if k != "eps_th"}
        code, _, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert "eps_th" in err

    def test_bad_format_in_config_exits_two(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, format="yaml")
        code, _, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["plan", "--frobnicate"])
        assert info.value.code == 2

    def test_theorem_violation_maps_to_exit_three(self, tmp_path, capsys, monkeypatch):
        def boom(run):
            raise TheoremViolationError("synthetic violation for exit-code mapping")

        monkeypatch.setitem(cli._DISPATCH, "verify", boom)
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, VERIFY_CFG)])
        assert code == 3
        assert "theorem violation" in err

    def test_config_output_path_key(self, tmp_path, capsys):
        dest = tmp_path / "from_config.json"
        cfg = dict(PLAN_CFG, output_path=str(dest))
        code, out, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 0
        assert out == ""
        assert dest.read_text() == PLAN_GOLDEN_JSON


class TestStartup:
    def test_planner_runs_without_numpy(self, tmp_path, capsys):
        # a fresh interpreter: import the CLI, then make any import of numpy fail
        no_eps0 = {k: v for k, v in PLAN_CFG.items() if k != "eps0"}
        argvs = [
            ["plan", "--config", write_cfg(tmp_path, PLAN_CFG, "plan.json"), "--eps0", "1e-11"],
            ["plan", "--config", write_cfg(tmp_path, no_eps0, "inverse.json"), "--levels", "3"],
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.2, "target": 0.99}, "t.json")],
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.2, "k": 33}, "k33.json"),
             "--format", "csv"],
            ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.2, "k": 10}, "k10.json")],
        ]
        code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
import ftqc.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
sys.modules["numpy"] = None
runs = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([ftqc.cli.main(argv), out.getvalue()])
print(json.dumps({{"numpy_modules": loaded, "runs": runs}}))
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        result = json.loads(done.stdout)
        assert result["numpy_modules"] == []
        expected = [list(run_cli(capsys, argv)[:2]) for argv in argvs]
        assert result["runs"] == expected
        assert [c for c, _ in expected] == [0, 0, 0, 0, 1]


def test_recorded_outputs_replay_byte_identical(tmp_path, capsys, monkeypatch):
    # every argv of perfbench/cli_golden.json, run from a copy of demo/ and
    # of the vote configs the benchmark writes under .perfbench_out/cli/
    golden = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())
    assert len(golden) == 35
    shutil.copytree(ROOT / "demo", tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    for key, want in golden.items():
        argv = key.split()
        config = Path(argv[argv.index("--config") + 1])
        if config.parts[0] == ".perfbench_out":
            config.parent.mkdir(parents=True, exist_ok=True)
            k = int(config.stem.removeprefix("vote_k"))
            config.write_text(json.dumps({"p_prime": 0.15, "k": k}))
        code, out, _ = run_cli(capsys, argv)
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode()), key
