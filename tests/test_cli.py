import argparse
import errno
import gc
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ftqc import cli
from ftqc.errors import TheoremViolationError
from ftqc.ftcalc import TradeoffPoint

ROOT = Path(__file__).resolve().parents[1]
# the directory the tests import ftqc from: src/, or site-packages once installed
PACKAGE_DIR = str(Path(cli.__file__).parents[1])

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


def main_within(argv, limit):
    """cli.main(argv) in a fresh interpreter whose address space is capped at limit bytes."""
    code = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {PACKAGE_DIR!r})
from ftqc import cli
sys.exit(cli.main({argv!r}))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)


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

    @pytest.mark.parametrize(
        "key, value",
        [("p", float("nan")), ("p", -0.5), ("p", 1.5), ("p_hat", float("nan")), ("p_hat", -0.5), ("p_hat", 7.0)],
    )
    def test_inverse_query_range_checks_probabilities(self, tmp_path, capsys, key, value):
        path = write_cfg(tmp_path, dict(PLAN_CFG, **{key: value}))
        inverse = run_cli(capsys, ["plan", "--config", path, "--levels", "2"])
        assert inverse == run_cli(capsys, ["plan", "--config", path])
        code, out, err = inverse
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {key} = {value} outside ") and err.count("\n") == 1

    def test_success_target_matches_p_hat_byte_for_byte(self, tmp_path, capsys):
        cfg_failure = dict(PLAN_CFG)
        cfg_success = {k: v for k, v in PLAN_CFG.items() if k != "p_hat"}
        cfg_success["success_target"] = 0.6
        _, out_a, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg_failure, "a.json")])
        _, out_b, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg_success, "b.json")])
        assert out_a == out_b

    @pytest.mark.parametrize("target", [1.5, 1.0, -0.5, float("nan")])
    def test_out_of_range_success_target_is_named(self, tmp_path, capsys, target):
        cfg = {k: v for k, v in PLAN_CFG.items() if k != "p_hat"}
        path = write_cfg(tmp_path, dict(cfg, success_target=target))
        inverse = run_cli(capsys, ["plan", "--config", path, "--levels", "2"])
        assert inverse == run_cli(capsys, ["plan", "--config", path])
        assert inverse == (1, "", f"error: success_target = {target} outside [0, 1)\n")

    def test_infeasible_exits_one_with_reason(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, p_hat=0.2)
        code, out, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert out == ""
        assert "infeasible: p_hat must exceed p" in err

    def test_budget_that_rounds_to_zero_exits_one(self, tmp_path, capsys):
        # a zero budget reaches no division or logarithm: one line, exit 1
        cfg = dict(PLAN_CFG, p=0.0, p_hat=5e-324)
        path = write_cfg(tmp_path, cfg)
        want = (1, "", "error: infeasible: the budget (p_hat - p) / 2 rounds to 0 at p_hat 5e-324, p 0.0\n")
        assert run_cli(capsys, ["plan", "--config", path]) == want
        assert run_cli(capsys, ["plan", "--config", path, "--levels", "2"]) == want

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

    def test_non_finite_float_is_null_in_json_and_as_is_in_csv(self, tmp_path, capsys):
        # one gate needs no level: the closed form takes the log of zero
        path = write_cfg(tmp_path, dict(PLAN_CFG, gate_count=1))
        code, out, _ = run_cli(capsys, ["plan", "--config", path])
        assert code == 0
        assert out.endswith('  "alpha_required": 0.2,\n  "closed_form_levels": null\n}\n')
        code, out, _ = run_cli(capsys, ["plan", "--config", path, "--format", "csv"])
        assert (code, out) == (0, "levels,eps_n,eps_qc,budget,alpha_required,closed_form_levels\n"
                                  "0,1e-10,1e-10,0.1,0.2,-inf\n")

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

    def test_csv_builds_no_row_dicts(self, tmp_path, capsys, monkeypatch):
        path = write_cfg(tmp_path, self.CFG)
        want = run_cli(capsys, ["tradeoff", "--config", path])
        calls = []
        asdict = TradeoffPoint._asdict
        monkeypatch.setattr(TradeoffPoint, "_asdict", lambda row: calls.append(row) or asdict(row))
        assert run_cli(capsys, ["tradeoff", "--config", path]) == want
        assert calls == []
        assert run_cli(capsys, ["tradeoff", "--config", path, "--format", "json"])[0] == 0
        assert len(calls) == 40

    def test_oversized_grid_exits_one(self, tmp_path, capsys):
        cfg = dict(self.CFG, points=10 ** 15)
        code, out, err = run_cli(capsys, ["tradeoff", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert out == ""
        assert err == "error: points = 1000000000000000 exceeds the cap of 100000\n"

    def test_out_of_memory_while_emitting_exits_one_with_a_message(self, tmp_path):
        # 10^5 rows fit in 100 MB, but their JSON report does not
        cfg = write_cfg(tmp_path, dict(self.CFG, points=10 ** 5))
        done = main_within(["tradeoff", "--config", cfg, "--format", "json"], 100 * 1024 ** 2)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr


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

    def test_only_a_json_report_runs_the_random_search(self, tmp_path, capsys, monkeypatch):
        from ftqc import qcc

        search, calls = qcc.alpha_random_search, []

        def counting_search(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(qcc, "alpha_random_search", counting_search)
        path = write_cfg(tmp_path, dict(VERIFY_CFG, random_search_trials=10))
        assert run_cli(capsys, ["verify", "--config", path, "--format", "csv"]) == (0, VERIFY_GOLDEN_CSV, "")
        assert calls == []
        code, out, _ = run_cli(capsys, ["verify", "--config", path])
        assert (code, len(calls), json.loads(out)["alpha_random_search"]) == (0, 1, 0.3)
        # the trial cap still holds for a CSV report, before anything is certified
        path = write_cfg(tmp_path, dict(VERIFY_CFG, random_search_trials=10 ** 9), "cap.json")
        code, out, err = run_cli(capsys, ["verify", "--config", path, "--format", "csv"])
        assert (code, out, err) == (1, "", "error: trials = 1000000000 exceeds the cap of 100000\n")

    def test_matrix_gate_and_explicit_povm_reach_the_report(self, tmp_path, capsys):
        # Y as [re, im] pairs sends |0> to i|1>; the effects are given as matrices
        gate = {"matrix": [[[0, 0], [0, -1]], [[0, 1], [0, 0]]], "targets": [0]}
        computation = dict(
            VERIFY_CFG["computation"],
            truth_table={"0": "1", "1": "0"},
            povm={"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 1]]},
        )
        cfg = dict(VERIFY_CFG, circuit={"num_qubits": 1, "gates": [gate]}, computation=computation)
        code, out, _ = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg), "--format", "csv"])
        assert (code, out) == (0, VERIFY_GOLDEN_CSV)

    def test_noise_none_as_a_string_reads_as_its_object(self, tmp_path, capsys):
        as_object = write_cfg(tmp_path, dict(VERIFY_CFG, noise={"kind": "none"}), "object.json")
        as_string = write_cfg(tmp_path, dict(VERIFY_CFG, noise="none"), "string.json")
        want = run_cli(capsys, ["verify", "--config", as_object])
        assert run_cli(capsys, ["verify", "--config", as_string]) == want and want[0] == 0

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

    @staticmethod
    def verify_within(cfg, gib):
        """verify on cfg in a fresh interpreter whose address space is capped at gib GiB."""
        return main_within(["verify", "--config", cfg], gib * 1024 ** 3)

    def test_eight_qubit_search_exits_zero(self, tmp_path):
        # the search on the widest register runs within a 2 GB address space
        done = self.verify_within(write_cfg(tmp_path, ladder_verify_cfg(8, random_search_trials=16)), 2)
        assert (done.returncode, done.stderr) == (0, "")
        assert 0.0 < json.loads(done.stdout)["alpha_random_search"] <= 2.0

    def test_out_of_memory_exits_one_with_a_message(self, tmp_path):
        # all 256 basis inputs of the widest register do not fit in 1 GB;
        # NumPy's MemoryError names the array, and the CLI prints that line
        labels = [format(i, "08b") for i in range(256)]
        cfg = ladder_verify_cfg(8)
        cfg["computation"].update(inputs=labels, truth_table=dict(zip(labels, labels)))
        done = self.verify_within(write_cfg(tmp_path, cfg), 1)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr

    def test_type_error_exits_two_before_a_wide_build(self, tmp_path):
        # all 256 basis inputs of the widest register take more than the
        # 700 MB cap to build; the mistyped key is reported before any of it
        labels = [format(i, "08b") for i in range(256)]
        cfg = ladder_verify_cfg(8, random_search_trials="x")
        cfg["computation"].update(inputs=labels, truth_table=dict(zip(labels, labels)))
        done = main_within(["verify", "--config", write_cfg(tmp_path, cfg)], 700 * 1024 ** 2)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == 'config error: "random_search_trials" must be an integer, got \'x\'\n'

    def test_width_mismatch_exits_two_before_a_wide_build(self, tmp_path):
        # the readout of 8-bit labels takes more than the 700 MB cap to
        # build; the 2-qubit circuit is refused before any of it
        cfg = dict(ladder_verify_cfg(8), circuit=ladder_verify_cfg(2)["circuit"])
        done = main_within(["verify", "--config", write_cfg(tmp_path, cfg)], 700 * 1024 ** 2)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "config error: circuit has 2 qubit(s) but the computation has 8 qubit(s)\n"

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
        # it is verify's first config error, before a mistyped key
        for cfg in (VERIFY_CFG, dict(VERIFY_CFG, random_search_trials="many")):
            code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
            assert (code, out, err) == (2, "", "config error: FTQC_SEED = 'eleven' is not an integer\n")

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

    def test_unknown_noise_key_exits_two(self, tmp_path, capsys):
        # a misspelled "strength" would otherwise certify the noiseless circuit
        cfg = dict(VERIFY_CFG, noise={"kind": "depolarizing", "strenght": 0.1})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err == (
            'config error: unknown key "strenght" in "noise"; known keys: "kind", "strength"\n'
        )

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

    @pytest.mark.parametrize("width", [9, 30])
    def test_over_wide_input_label_exits_one(self, tmp_path, capsys, width):
        label = "0" * width
        comp = dict(VERIFY_CFG["computation"], inputs=[label], truth_table={label: "0"})
        circ = dict(VERIFY_CFG["circuit"], num_qubits=width)
        cfg = dict(VERIFY_CFG, circuit=circ, computation=comp)
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (1, "")
        assert err == f"error: dimension 2**{width} exceeds the dense-simulation cap 256\n"

    def test_non_finite_matrix_entry_exits_one(self, tmp_path, capsys):
        # json writes and reads the NaN literal
        gate = {"matrix": [[float("nan"), 0], [0, 1]], "targets": [0]}
        cfg = dict(VERIFY_CFG, circuit={"num_qubits": 1, "gates": [gate]})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert code == 1
        assert out == ""
        assert err == "error: matrix has a non-finite (nan or inf) entry\n"

    @pytest.mark.xfail(strict=True, reason="the readout clamps effect a's -0.9e-9 to 0 before the totals are checked")
    def test_a_povm_the_package_accepts_certifies(self, tmp_path, capsys):
        # completeness defect 0.99e-9 and every effect spectrum within [-1e-9, 1 + 1e-9];
        # today the ideal outcome probabilities sum to 1.00000000189 and verify exits 1
        povm = {"a": [[-0.9e-9, 0], [0, 1]], "b": [[0.500000000945, 0], [0, 0]],
                "c": [[0.500000000945, 0], [0, 0]]}
        comp = {"inputs": ["0"], "outputs": ["a", "b", "c"], "truth_table": {"0": "b"}, "povm": povm}
        cfg = {"circuit": {"num_qubits": 1, "gates": [{"name": "I", "targets": [0]}]},
               "computation": comp, "noise": "none"}
        code, _, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, err) == (0, "")


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

    def test_search_past_the_exact_path_keeps_its_bytes(self, tmp_path, capsys):
        # the answer lies above k = 63, where the search leaves the doubling
        code, out, _ = run_cli(
            capsys, ["vote", "--config", write_cfg(tmp_path, {"p_prime": 0.485, "target": 0.99})]
        )
        assert (code, out) == (0, '{\n  "per_run_failure": 0.485,\n  "repetitions": 6011,\n'
                                  '  "success_probability": 0.99000510683,\n  "target": 0.99\n}\n')

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

    def test_k_past_2_53_exits_one(self, tmp_path, capsys):
        cfg = {"p_prime": 1e-300, "k": 2 ** 53 + 1}
        code, out, err = run_cli(capsys, ["vote", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (1, "")
        assert err.startswith("error: k = 9007199254740993 is past 2**53") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe{}", b"[" * 100000, b'{"eps0": 1' + b"0" * 5000 + b"}"],
        ids=["not_utf8", "deeply_nested", "5000_digit_integer"],
    )
    def test_unparsable_file_exits_two_on_one_line(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, ["plan", "--config", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1, err

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

        monkeypatch.setitem(cli._COMMANDS, "verify", cli._COMMANDS["verify"]._replace(run=boom))
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


class TestParser:
    """build_parser offers each command the flags of its table's keys."""

    COMMON = [
        (("-h", "--help"), "help"),
        (("--config",), "config"),
        (("--out",), "output_path"),
    ]
    FORMAT = [(("--format",), "format")]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("plan", FORMAT + [(("--eps0",), "eps0"), (("--levels",), "levels")]),
            ("tradeoff", FORMAT),
            ("verify", [(("--seed",), "seed")] + FORMAT),  # only verify draws random numbers
            ("vote", FORMAT),
        ],
    )
    def test_flags_and_their_config_keys(self, command, extra):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == ["plan", "tradeoff", "verify", "vote"]
        flags = [(tuple(a.option_strings), a.dest) for a in sub.choices[command]._actions]
        assert flags == self.COMMON + extra

    @pytest.mark.parametrize(
        "command, cfg", [("plan", PLAN_CFG), ("tradeoff", TestTradeoff.CFG), ("vote", {"p_prime": 0.15, "k": 3})]
    )
    def test_seed_flag_is_refused_where_nothing_is_random(self, tmp_path, command, cfg):
        with pytest.raises(SystemExit) as info:
            cli.main([command, "--config", write_cfg(tmp_path, cfg), "--seed", "3"])
        assert info.value.code == 2

    def test_a_flag_overrides_its_config_key(self, tmp_path, capsys):
        path = tmp_path / "plan.csv"
        cfg = dict(PLAN_CFG, eps0=1e-3, format="json", output_path=str(tmp_path / "unused"))
        argv = ["plan", "--config", write_cfg(tmp_path, cfg), "--eps0", "1e-10",
                "--format", "csv", "--out", str(path)]
        code, out, _ = run_cli(capsys, argv)
        assert (code, out) == (0, "")
        assert path.read_text() == PLAN_GOLDEN_CSV
        assert not (tmp_path / "unused").exists()


class TestSchema:
    """Each JSON object is read through a table of its keys: an unknown key,
    or a known one holding a value of the wrong JSON type, exits 2, and null
    reads as an absent key."""

    def test_misspelt_gates_key_is_not_an_empty_circuit(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, circuit={"num_qubits": 1, "gate": [{"name": "I", "targets": [0]}]})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err == (
            'config error: unknown key "gate" in "circuit"; known keys: "num_qubits", "gates"\n'
        )

    def test_misspelt_top_level_key_exits_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, random_search_trails=10)
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err == (
            'config error: unknown key "random_search_trails" in the config; known keys: '
            '"seed", "format", "output_path", "circuit", "computation", "noise", '
            '"ancilla_dim", "random_search_trials"\n'
        )

    @pytest.mark.parametrize(
        "command, cfg, known",
        [
            ("plan", PLAN_CFG,
             '"format", "output_path", "eps0", "eps_th", "gate_count", "p", "p_hat", "success_target", "levels"'),
            ("tradeoff", TestTradeoff.CFG,
             '"format", "output_path", "eps0_min", "eps0_max", "points", "eps_th", "gate_count", "p", '
             '"p_hat", "success_target"'),
            ("vote", {"p_prime": 0.15, "k": 3}, '"format", "output_path", "p_prime", "k", "target"'),
        ],
        ids=["plan", "tradeoff", "vote"],
    )
    def test_seed_key_is_unknown_where_nothing_is_random(self, tmp_path, capsys, command, cfg, known):
        path = write_cfg(tmp_path, dict(cfg, seed=1))
        assert run_cli(capsys, [command, "--config", path]) == (
            2, "", f'config error: unknown key "seed" in the config; known keys: {known}\n'
        )

    @pytest.mark.parametrize(
        "command, cfg",
        [("plan", PLAN_CFG), ("tradeoff", TestTradeoff.CFG), ("verify", VERIFY_CFG),
         ("vote", {"p_prime": 0.15, "k": 3})],
    )
    def test_empty_format_is_refused(self, tmp_path, capsys, command, cfg):
        # each command's table holds its default format; "" does not stand for it
        path = write_cfg(tmp_path, dict(cfg, format=""))
        assert run_cli(capsys, [command, "--config", path]) == (
            2, "", 'config error: "format" must be one of "json", "csv", got \'\'\n'
        )

    def test_misspelt_gate_key_names_the_gate(self, tmp_path, capsys):
        gate = {"matrx": [[0, 1], [1, 0]], "targets": [0]}
        cfg = dict(VERIFY_CFG, circuit={"num_qubits": 1, "gates": [gate]})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err.startswith('config error: unknown key "matrx" in "circuit.gates[0]"; ')

    def test_a_key_with_a_line_break_stays_on_one_line(self, tmp_path, capsys):
        cfg = dict(PLAN_CFG, **{"eps\n0": 1})
        code, _, err = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, cfg)])
        assert code == 2
        assert err.startswith('config error: unknown key "eps\\n0" in the config') and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, cfg, flags",
        [
            ("plan", dict(PLAN_CFG, eps0="1e-10"), ["--levels", "2"]),
            ("vote", {"p_prime": 0.15, "k": 3, "format": 0}, []),
            ("vote", {"p_prime": 0.15, "k": 3, "format": False}, []),
            ("vote", {"p_prime": 0.15, "k": 3, "format": {}}, []),
        ],
        ids=["eps0_under_levels", "format_0", "format_false", "format_object"],
    )
    def test_wrong_type_exits_two_where_the_value_goes_unused(self, tmp_path, capsys, command, cfg, flags):
        code, out, err = run_cli(capsys, [command, "--config", write_cfg(tmp_path, cfg), *flags])
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "cfg, err",
        [
            ({"circuit": {"num_qubits": 2, "gates": [{"name": "HH", "targets": [0]}]},
              "computation": str(ROOT / "demo" / "bell_parity_computation.json"),
              "noise": {"kind": "depolarizing", "strength": 0.1},
              "random_search_trials": "many"},
             '"random_search_trials" must be an integer, got \'many\''),
            (dict(VERIFY_CFG,
                  computation=dict(VERIFY_CFG["computation"], povm={"0": [[1, 0], [0, 0]], "1": [[0, 0], [0, 0.5]]}),
                  noise={"kind": "depolarizing", "strength": "high"}),
             '"noise.strength" must be a number, got \'high\''),
        ],
        ids=["unknown_gate", "incomplete_povm"],
    )
    def test_a_type_error_wins_over_a_library_refusal(self, tmp_path, capsys, cfg, err):
        # the whole config is read before anything is built from it
        assert run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)]) == (2, "", f"config error: {err}\n")

    def test_null_reads_as_absent(self, tmp_path, capsys):
        want = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, VERIFY_CFG, "a.json")])
        gate = {"name": None, "matrix": [[1, 0], [0, 1]], "targets": [0]}
        cfg = dict(
            VERIFY_CFG,
            circuit={"num_qubits": 1, "gates": [gate]},
            seed=None, format=None, output_path=None, ancilla_dim=None, random_search_trials=None,
        )
        assert run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg, "b.json")]) == want
        assert want[0] == 0

    def test_non_string_truth_table_value_exits_two(self, tmp_path, capsys):
        computation = dict(VERIFY_CFG["computation"], truth_table={"0": 5, "1": "1"})
        cfg = dict(VERIFY_CFG, computation=computation)
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err == 'config error: "computation.truth_table.0" must be a string, got 5\n'

    def test_integer_strength_beyond_the_float_range_exits_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, noise={"kind": "depolarizing", "strength": 10 ** 400})
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err == 'config error: "noise.strength" is beyond the float range\n'

    def test_noise_given_as_a_path_exits_two(self, tmp_path, capsys):
        cfg = dict(VERIFY_CFG, noise=write_cfg(tmp_path, VERIFY_CFG["noise"], "noise.json"))
        code, out, err = run_cli(capsys, ["verify", "--config", write_cfg(tmp_path, cfg)])
        assert (code, out) == (2, "")
        assert err.startswith('config error: "noise" must be an object, got ')


class TestStartup:
    def test_planner_runs_without_numpy(self, tmp_path, capsys):
        # a fresh interpreter: import the CLI, then make any import of numpy
        # fail; the CLI alone loads no command's module, and no command
        # here loads fractions, __future__ or statistics (no vote passes k = 63)
        no_eps0 = {k: v for k, v in PLAN_CFG.items() if k != "eps0"}
        tradeoff = write_cfg(tmp_path, TestTradeoff.CFG, "tradeoff.json")
        argvs = [
            ["tradeoff", "--config", tradeoff],
            ["tradeoff", "--config", tradeoff, "--format", "json"],
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
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "ftqc"))
sys.modules["numpy"] = None
runs = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([ftqc.cli.main(argv), out.getvalue()])
print(json.dumps({{"loaded": loaded, "fractions": "fractions" in sys.modules,
                  "future": "__future__" in sys.modules,
                  "statistics": "statistics" in sys.modules, "runs": runs}}))
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        result = json.loads(done.stdout)
        assert result["loaded"] == ["ftqc", "ftqc.cli", "ftqc.errors"]
        assert not result["statistics"]
        assert not result["fractions"]
        assert not result["future"]
        expected = [list(run_cli(capsys, argv)[:2]) for argv in argvs]
        assert result["runs"] == expected
        assert [c for c, _ in expected] == [0, 0, 0, 0, 0, 0, 1]

    def test_verify_runs_without_dataclasses(self):
        # a fresh interpreter in which importing dataclasses fails once numpy
        # is loaded (some NumPy versions load dataclasses themselves)
        key = "verify --config demo/verify.json --seed 7"
        want = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())[key]
        code = f"""
import sys
sys.path.insert(0, {str(Path(cli.__file__).parents[1])!r})
import numpy, numpy.random
sys.modules["dataclasses"] = None
import ftqc.cli
sys.exit(ftqc.cli.main({key.split()!r}))
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=ROOT, timeout=60)
        assert (done.returncode, done.stdout.decode()) == (want["exit"], want["stdout"]), done.stderr.decode()

    def test_verify_loads_numpy_random_only_to_search(self, tmp_path):
        # NumPy 1.24 may load numpy.random on import, NumPy 2 does not, so a
        # run is checked for modules beyond those import numpy loaded itself
        golden = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())
        csv_key = "verify --config demo/verify.json --format csv --seed 1"
        search_key = "verify --config demo/verify.json --seed 7"
        config = json.loads((ROOT / "demo" / "verify.json").read_text())
        del config["random_search_trials"]
        no_search = tmp_path / "verify.json"
        no_search.write_text(json.dumps(config))
        report = json.loads(golden[search_key]["stdout"])
        del report["alpha_random_search"]
        argvs = [csv_key.split(), ["verify", "--config", str(no_search)], search_key.split()]
        code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {PACKAGE_DIR!r})
import numpy
baseline = set(sys.modules)
import ftqc.cli
runs = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ftqc.cli.main(argv)
    added = sorted(m for m in set(sys.modules) - baseline if m.split(".")[:2] == ["numpy", "random"])
    runs.append([code, out.getvalue(), added, "numpy.random" in sys.modules])
print(json.dumps(runs))
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=ROOT, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        runs = json.loads(done.stdout)
        assert [run[:2] for run in runs] == [
            [0, golden[csv_key]["stdout"]],
            [0, json.dumps(report, indent=2) + "\n"],
            [0, golden[search_key]["stdout"]],
        ]
        assert runs[0][2] == runs[1][2] == [] and runs[2][3]

    def test_planner_runs_without_dataclasses(self):
        # a fresh interpreter in which importing dataclasses or inspect fails
        golden = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())
        keys = [key for key in golden if key.split()[0] in ("plan", "tradeoff")]
        code = f"""
import contextlib, io, json, sys
sys.path.insert(0, {PACKAGE_DIR!r})
sys.modules["dataclasses"] = sys.modules["inspect"] = None
import ftqc.cli
runs = []
for key in {keys!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append({{"exit": ftqc.cli.main(key.split()), "stdout": out.getvalue()}})
print(json.dumps(runs))
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, cwd=ROOT, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        assert len(keys) == 15 and json.loads(done.stdout) == [golden[key] for key in keys]


def golden_workdir(tmp_path) -> dict:
    """perfbench/cli_golden.json, with tmp_path holding a copy of demo/ and
    the vote configs the benchmark writes under .perfbench_out/cli/."""
    golden = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())
    assert len(golden) == 35
    shutil.copytree(ROOT / "demo", tmp_path / "demo")
    for key in golden:
        argv = key.split()
        config = Path(argv[argv.index("--config") + 1])
        if config.parts[0] == ".perfbench_out":
            config = tmp_path / config
            config.parent.mkdir(parents=True, exist_ok=True)
            k = int(config.stem.removeprefix("vote_k"))
            config.write_text(json.dumps({"p_prime": 0.15, "k": k}))
    return golden


def test_recorded_outputs_replay_byte_identical(tmp_path, capsys, monkeypatch):
    golden = golden_workdir(tmp_path)
    monkeypatch.chdir(tmp_path)
    for key, want in golden.items():
        code, out, _ = run_cli(capsys, key.split())
        assert (code, out.encode()) == (want["exit"], want["stdout"].encode()), key


def test_recorded_outputs_replay_under_a_bad_env_seed(tmp_path, capsys, monkeypatch):
    # only verify reads FTQC_SEED, and each recorded verify run passes --seed
    monkeypatch.setenv("FTQC_SEED", "x")
    test_recorded_outputs_replay_byte_identical(tmp_path, capsys, monkeypatch)


def test_stdout_with_only_write_gets_the_report(monkeypatch):
    # no fileno and no buffer: the report goes through write(text)
    class WriteOnly:
        def __init__(self):
            self.parts = []

        def write(self, text):
            self.parts.append(text)

    key = "plan --config demo/plan.json --eps0 1e-10"
    want = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())[key]
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "stdout", WriteOnly())
    assert cli.main(key.split()) == want["exit"]
    assert "".join(sys.stdout.parts).encode() == want["stdout"].encode()


def run_entry(argv, *, env=None, **kwargs):
    """`python -m ftqc.cli argv` in a fresh interpreter; output captured
    unless kwargs redirect it."""
    env = dict(os.environ if env is None else env, PYTHONPATH=PACKAGE_DIR)
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "cwd": ROOT, **kwargs}
    return subprocess.run([sys.executable, "-m", "ftqc.cli", *argv], env=env, timeout=120, **kwargs)


def stdout_env(buffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


def unwritable_stdout_error(code: int) -> str:
    return f"error: cannot write the report to stdout: {os.strerror(code)}\n"


class TestEntry:
    """cli.run, the process entry of the `ftqc` console script and of
    `python -m ftqc.cli`."""

    def test_console_script_and_main_block_call_the_same_entry(self):
        # a regex, since Python 3.10 has no tomllib
        script = re.search(r'^ftqc = "ftqc\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
        block = re.search(r'^if __name__ == "__main__":\n    (\w+)\(\)$', Path(cli.__file__).read_text(), re.M)
        assert script and block
        assert script[1] == block[1] == "run"

    def test_main_freezes_nothing(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, ["plan", "--config", write_cfg(tmp_path, PLAN_CFG)])
        assert code == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize(
        "argv, want",
        [(["plan", "--config", "demo/plan.json", "--eps0", "1e-10"], 0), (["plan", "--frobnicate"], 2)],
        ids=["report", "bad_flag"],
    )
    def test_freezes_before_exit_and_keeps_atexit_handlers(self, argv, want):
        code = f"""
import atexit, gc, sys
sys.path.insert(0, {PACKAGE_DIR!r})
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
sys.argv[1:] = {argv!r}
from ftqc import cli
cli.run()
"""
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=60)
        assert done.returncode == want
        assert done.stderr.endswith("frozen True\n")

    def test_recorded_outputs_replay_in_fresh_processes(self, tmp_path):
        # the in-process replay above never reaches a real process's final flush
        for key, want in golden_workdir(tmp_path).items():
            done = run_entry(key.split(), cwd=tmp_path)
            assert (done.returncode, done.stdout) == (want["exit"], want["stdout"].encode()), key

    @pytest.mark.parametrize(
        "section, value, verdict",
        [
            ("circuit", {"num_qubits": 1, "gates": [{"matrix": [[[0, -1e200], [0, -1e200]], [[0, -1e200], -1e200]],
                                                     "targets": [0]}]},
             "gate matrix unitarity defect nan exceeds 1e-09"),
            ("computation", dict(VERIFY_CFG["computation"],
                                 povm={"0": [[1, 1e308], [-1e308, 0]], "1": [[0, 0], [0, 1]]}),
             "Hermiticity defect inf exceeds 1e-09"),
            ("computation", dict(VERIFY_CFG["computation"], outputs=["0", "1", "2"],
                                 povm={"0": [[1e308, 0], [0, 0]], "1": [[1e308, 0], [0, 1]], "2": [[0, 0], [0, 0]]}),
             "POVM completeness defect inf exceeds 1e-09"),
        ],
        ids=["nan_unitarity", "inf_hermiticity", "inf_completeness"],
    )
    def test_overflowing_entries_exit_one_with_one_line(self, tmp_path, section, value, verdict):
        # a fresh process shows each NumPy RuntimeWarning on stderr; the checks raise none
        cfg = write_cfg(tmp_path, dict(VERIFY_CFG, **{section: value}))
        done = run_entry(["verify", "--config", cfg], text=True)
        assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {verdict}\n")

    def test_bad_flag_exits_two_with_usage(self):
        done = run_entry(["plan", "--frobnicate"], text=True)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("usage: ftqc ")
        assert done.stderr.endswith("\nftqc: error: unrecognized arguments: --frobnicate\n")

    def test_out_file_holds_the_stdout_bytes(self, tmp_path):
        key = "plan --config demo/plan.json --eps0 1e-10"
        want = json.loads((ROOT / "perfbench" / "cli_golden.json").read_text())[key]
        done = run_entry([*key.split(), "--out", str(tmp_path / "report.json")])
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert (tmp_path / "report.json").read_bytes() == want["stdout"].encode()

    def test_out_file_needs_no_stdout(self, tmp_path):
        # descriptor 1 closed: Python starts with sys.stdout None
        argv = [sys.executable, "-m", "ftqc.cli", "plan", "--config", "demo/plan.json",
                "--out", str(tmp_path / "report.json")]
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], capture_output=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_DIR), timeout=60)
        assert (done.returncode, done.stderr) == (0, b"")
        assert (tmp_path / "report.json").is_file()

    def test_closed_stdout_exits_one_with_one_line(self):
        # descriptor 1 closed and no --out: the report has nowhere to go
        argv = [sys.executable, "-m", "ftqc.cli", "plan", "--config", "demo/plan.json"]
        done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *argv], capture_output=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_DIR), text=True, timeout=60)
        assert (done.returncode, done.stderr) == (1, unwritable_stdout_error(errno.EBADF))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_full_device_exits_one_with_one_line(self, buffered):
        with open("/dev/full", "w") as full:
            done = run_entry(["plan", "--config", "demo/plan.json"], env=stdout_env(buffered), stdout=full, text=True)
        assert (done.returncode, done.stderr) == (1, unwritable_stdout_error(errno.ENOSPC))

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    def test_reader_that_closes_the_pipe_early_gets_one_line(self, tmp_path, buffered):
        # 10^5 rows are megabytes, far more than a pipe holds; unbuffered, a
        # short write to the pipe must not drop the rest of the report unseen
        cfg = write_cfg(tmp_path, dict(TestTradeoff.CFG, points=10 ** 5))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ftqc.cli", "tradeoff", "--config", cfg],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(stdout_env(buffered), PYTHONPATH=PACKAGE_DIR),
        )
        assert proc.stdout.read(100).startswith("eps0,levels,")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, unwritable_stdout_error(errno.EPIPE))
