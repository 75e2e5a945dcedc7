import json
import os
import subprocess
import sys
import time

import pytest

import gridchroma.cli
from gridchroma.chi import Budget
from gridchroma.cli import run
from gridchroma.errors import InvariantViolation, UndecidedError
from gridchroma.grid import VerificationReport
from gridchroma.groups import MarkedGroupSpec
from gridchroma.instances import cayley_cycle_instance
from oracles import instance_to_json


@pytest.fixture
def delta_instance_file(tmp_path):
    inst = cayley_cycle_instance(MarkedGroupSpec(3), 12, chi=3)
    path = tmp_path / "delta12.json"
    path.write_text(json.dumps(instance_to_json(inst)))
    return str(path)


@pytest.fixture
def tower_file(tmp_path):
    doc = {
        "k": 3,
        "extent": 11,
        "mode": "segment",
        "anchors": [
            {"position": 0, "offset": [0, 0]},
            {"position": 10, "offset": [1, 0]},
        ],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_verified_property_exits_zero(self):
        code, report = run(["verify-dichotomy", "--k", "3"])
        assert code == 0
        assert report["results"]["count"] == 1056

    def test_headline_chi_prints_five(self, capsys):
        code, _ = run(["quotient-chi", "--group", "gamma", "--k", "3", "--M", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "5"

    @pytest.mark.parametrize("size", [["--M", "1000"], ["--levels", "1000"]])
    def test_oversized_cayley_is_input_error(self, size):
        code, report = run(["cayley", "--group", "delta", "--k", "50", *size])
        assert code == 2
        assert "cap" in report["error"]

    def test_malformed_graph_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(["chi", "--graph", str(bad)])
        assert code == 2

    def test_non_integer_dimacs_token_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.col"
        bad.write_text("p edge 3 1\ne 1 x\n")
        code, report = run(["chi", "--graph", str(bad)])
        assert code == 2
        assert "e 1 x" in report["error"]

    def test_non_integer_instance_chi_is_input_error(self, delta_instance_file):
        with open(delta_instance_file) as fh:
            doc = json.load(fh)
        doc["chi"] = "three"
        with open(delta_instance_file, "w") as fh:
            json.dump(doc, fh)
        code, report = run(["two-ended-color", "--instance", delta_instance_file])
        assert code == 2
        assert "chi must be an integer" in report["error"]

    def test_non_integer_graph_json_is_input_error(self, tmp_path):
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps({"vertices": 3.5, "edges": [[0, 1.9]]}))
        code, report = run(["chi", "--graph", str(bad)])
        assert code == 2
        assert "must be an integer" in report["error"]

    def test_non_integer_instance_block_is_input_error(self, delta_instance_file):
        with open(delta_instance_file) as fh:
            doc = json.load(fh)
        doc["blocks"][0][0] = 0.0
        with open(delta_instance_file, "w") as fh:
            json.dump(doc, fh)
        code, report = run(["two-ended-color", "--instance", delta_instance_file])
        assert code == 2
        assert "block vertex must be an integer" in report["error"]

    @pytest.mark.parametrize(
        "field, value",
        [("extent", 11.9), ("position", 0.7), ("offset", [1.5, 0])],
    )
    def test_non_integer_tower_field_is_input_error(self, tower_file, field, value):
        with open(tower_file) as fh:
            doc = json.load(fh)
        if field == "extent":
            doc["extent"] = value
        else:
            doc["anchors"][0][field] = value
        with open(tower_file, "w") as fh:
            json.dump(doc, fh)
        code, report = run(["shift-color", "--anchors", tower_file])
        assert code == 2
        assert "must be an integer" in report["error"]

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-5"])
    def test_bad_budget_value_is_input_error(self, value, capsys):
        code, report = run(
            ["quotient-chi", "--group", "gamma", "--k", "3", "--M", "3", "--budget-ms", value]
        )
        assert code == 2
        assert "results" not in report
        if value != "abc":  # argparse refuses abc before any run
            assert "budget" in report["error"].lower()
        assert "budget" in capsys.readouterr().err.lower()

    def test_malformed_labels_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "labels": 5}))
        code, report = run(["chi", "--graph", str(bad)])
        assert code == 2
        assert "malformed graph document" in report["error"]
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify-dichotomy", "--budget-ms", "1000"], ["report"]])
    def test_oversized_grid_is_input_error(self, command):
        code, report = run([*command, "--k", "150"])
        assert code == 2
        assert "cap of 10,000,000" in report["error"]

    def test_missing_file_is_input_error(self):
        code, _ = run(["chi", "--graph", "/no/such/file.json"])
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _ = run(["verify-dichotomy", "--bogus"])
        assert code == 2

    @pytest.mark.parametrize("levels", ["4", "5"])  # 4 is the default
    def test_cayley_levels_with_modulus_is_usage_error(self, levels, capsys):
        code, report = run(
            ["cayley", "--group", "delta", "--k", "3", "--levels", levels, "--M", "3"]
        )
        assert code == 2
        assert "results" not in report
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "not allowed with argument --levels" in err

    @pytest.mark.parametrize("shape, n", [(["--levels", "2"], 18), (["--M", "3"], 27), ([], 36)])
    def test_cayley_levels_or_modulus_alone(self, shape, n):
        code, report = run(["cayley", "--group", "delta", "--k", "3", *shape])
        assert code == 0
        assert report["results"]["vertices"] == n

    def test_unwritable_report_file_is_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        code, report = run(["report", "--k", "3", "--towers", "1", "--out", str(out)])
        assert code == 2
        assert "No such file" in capsys.readouterr().err

    def test_closed_stdout_exits_141_quietly(self, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code, _ = run(["cayley", "--group", "delta", "--k", "3", "--M", "4"])
        # what is left for the gone reader goes to the null device
        redirected = sys.stdout
        assert redirected.name == os.devnull
        redirected.close()
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_even_modulus_alternation_is_input_error(self):
        code, _ = run(["verify-alternation", "--k", "3", "--M", "4"])
        assert code == 2

    def test_budget_exhaustion_exits_three(self):
        code, report = run(
            ["quotient-chi", "--group", "gamma", "--k", "3", "--M", "5",
             "--budget-ms", "0.001"]
        )
        assert code == 3
        assert report["results"]["undecided"]

    def test_invariant_violation_exits_one_with_report(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantViolation("layer escaped the dichotomy")

        monkeypatch.setattr(gridchroma.cli, "verify_dichotomy", broken)
        code, report = run(["verify-dichotomy", "--k", "3"])
        assert code == 1
        assert report["error"] == "layer escaped the dichotomy"
        assert "invariant violated: layer escaped the dichotomy" in capsys.readouterr().err


class TestSubcommands:
    def test_cayley_json_roundtrips_through_chi(self, tmp_path):
        out = tmp_path / "window.json"
        code, _ = run(
            ["cayley", "--group", "delta", "--k", "3", "--levels", "3",
             "--out", str(out)]
        )
        assert code == 0
        code, report = run(["chi", "--graph", str(out)])
        assert code == 0
        assert report["results"]["chi"] == 3

    def test_cayley_dimacs_export(self, tmp_path):
        out = tmp_path / "quotient.col"
        code, _ = run(
            ["cayley", "--group", "gamma", "--k", "3", "--M", "3",
             "--format", "dimacs", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        assert "p edge 27 162" in text
        code, report = run(["chi", "--graph", str(out)])
        assert code == 0
        assert report["results"]["chi"] == 5

    def test_chi_witness_artifact(self, tmp_path):
        graph = tmp_path / "window.json"
        witness = tmp_path / "witness.json"
        run(["cayley", "--group", "delta", "--k", "3", "--levels", "2",
             "--out", str(graph)])
        code, report = run(
            ["chi", "--graph", str(graph), "--witness", str(witness)]
        )
        assert code == 0
        doc = json.loads(witness.read_text())
        assert doc["palette"] == 3
        assert len(doc["colors"]) == 18

    def test_two_ended_color(self, delta_instance_file, tmp_path):
        out = tmp_path / "coloring.json"
        code, report = run(
            ["two-ended-color", "--instance", delta_instance_file,
             "--out", str(out)]
        )
        assert code == 0
        assert report["results"]["colors_used"] <= 5
        doc = json.loads(out.read_text())
        assert doc["coloring"]["palette"] == 5

    def test_two_ended_color_flags(self, delta_instance_file):
        code, report = run(
            ["two-ended-color", "--instance", delta_instance_file,
             "--window", "1", "--cap", "9", "--chi", "3"]
        )
        assert code == 0
        assert report["results"]["complement_stats"]["shape_ok"]

    def test_shift_color(self, tower_file):
        code, report = run(["shift-color", "--anchors", tower_file])
        assert code == 0
        assert report["results"]["proper"]
        assert report["results"]["colors_used"] == 4

    def test_json_output_mode(self, capsys):
        code, _ = run(["verify-rigidity", "--k", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["count"] == 12

    def test_invariance_twisted_flag(self):
        code, report = run(["verify-invariance", "--k", "3", "--twisted", "true"])
        assert code == 0
        assert report["results"]["params"]["twisted"] is True

    @pytest.mark.parametrize("value", ["FALSE", "No", "0"])
    def test_invariance_false_spellings(self, value):
        code, report = run(["verify-invariance", "--k", "3", "--twisted", value])
        assert code == 0
        assert report["results"]["params"]["twisted"] is False

    def test_invariance_bad_twisted_value_is_usage_error(self, capsys):
        code, report = run(["verify-invariance", "--k", "3", "--twisted", "ture"])
        assert code == 2
        assert "results" not in report
        assert "'ture'" in capsys.readouterr().err


class TestReport:
    def test_small_report_passes_and_repeats(self):
        code, first = run(["report", "--k", "3", "--seed", "3", "--towers", "3"])
        assert code == 0
        code, second = run(["report", "--k", "3", "--seed", "3", "--towers", "3"])
        assert code == 0
        assert first["results"] == second["results"]

    def test_report_rows_present(self):
        code, report = run(["report", "--k", "3", "--seed", "1", "--towers", "2"])
        assert code == 0
        names = [row["row"] for row in report["results"]["rows"]]
        assert any("dichotomy" in n for n in names)
        assert any("quotient" in n for n in names)
        assert any("two-ended" in n for n in names)
        assert any("tower" in n for n in names)


    def test_budgeted_two_ended_row_is_undecided_not_fatal(self):
        # the row's share of 5 ms is far below the ~40 ms its separator
        # searches take at k=3
        code, report = run(
            ["report", "--k", "3", "--seed", "1", "--towers", "1", "--budget-ms", "5"]
        )
        assert code == 3
        rows = {row["row"]: row for row in report["results"]["rows"]}
        two_ended = rows["two-ended colorer within 2*chi-1"]
        assert two_ended["pass"] is None
        assert "separator search" in two_ended["value"]["undecided"]
        assert any("tower" in name for name in rows)

    def test_violation_outranks_undecided_in_a_row(self, monkeypatch):
        def invariance(k, twisted, budget=None):  # plain violated, twisted undecided
            return VerificationReport("invariance", {}, violations=[] if twisted else ["x"], undecided=twisted)

        monkeypatch.setattr(gridchroma.cli, "verify_invariance", invariance)
        code, report = run(["report", "--k", "3", "--towers", "1"])
        rows = {row["row"]: row["pass"] for row in report["results"]["rows"]}
        assert rows["invariance: plain equal / twisted opposite"] is False
        assert code == 1

    def test_invariance_halves_get_their_own_budgets(self, monkeypatch):
        clock = [100.0]
        seen = []

        def invariance(k, twisted, budget=None):  # plain takes 0.3 s of the row's 1 s
            seen.append((twisted, budget.ms))
            clock[0] += 0.0 if twisted else 0.3
            return VerificationReport("invariance", {}, count=5)

        monkeypatch.setattr(gridchroma.cli.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(gridchroma.cli, "verify_invariance", invariance)
        got = gridchroma.cli._claim_invariance(3, Budget(ms=1000), None, 0)
        assert got == (True, {"plain": 5, "twisted": 5})
        assert seen == [(False, 500), (True, pytest.approx(700))]

    def test_violation_outranks_undecided_in_a_verifier(self, monkeypatch):
        def dichotomy(k, budget=None, canonical=None):
            return VerificationReport("dichotomy", {"k": k}, violations=["planted"], undecided=True)

        monkeypatch.setattr(gridchroma.cli, "verify_dichotomy", dichotomy)
        code, _ = run(["verify-dichotomy", "--k", "3"])
        assert code == 1

    def test_undecided_error_in_a_claim_is_its_row(self, monkeypatch):
        def witness(*args, **kwargs):
            raise UndecidedError("witness: time budget exhausted")

        monkeypatch.setattr(gridchroma.cli, "witness_k_insufficient", witness)
        code, report = run(["report", "--k", "3", "--towers", "1"])
        rows = report["results"]["rows"]
        assert len(rows) == 10
        assert rows[-1]["pass"] is None
        assert rows[-1]["value"] == {"undecided": "witness: time budget exhausted"}
        assert all(row["pass"] for row in rows[:-1])
        assert code == 3

    def test_each_row_gets_its_share_of_the_budget(self, monkeypatch):
        def burn(k, budget, rng, towers):
            while True:
                budget.spend("burn")

        def settle(k, budget, rng, towers):
            for _ in range(2 * Budget.CHECK_EVERY):  # two clock reads
                budget.spend("settle")
            return True, "settled"

        monkeypatch.setattr(gridchroma.cli, "CLAIMS", (("burn", burn), ("settle", settle)))
        code, report = run(["report", "--budget-ms", "200"])
        rows = report["results"]["rows"]
        assert rows[0] == {"row": "burn", "pass": None, "value": {"undecided": "burn: time budget exhausted"}}
        assert rows[1] == {"row": "settle", "pass": True, "value": "settled"}
        assert code == 3
        assert report["timings_ms"]["total"] < 1000  # the budget still bounds the run

    def test_report_times_each_row(self, monkeypatch):
        def quick(k, budget, rng, towers):
            return True, "quick"

        def slow(k, budget, rng, towers):
            time.sleep(0.05)
            return True, "slow"

        monkeypatch.setattr(gridchroma.cli, "CLAIMS", (("quick", quick), ("slow", slow)))
        code, report = run(["report"])
        assert code == 0
        timings = report["timings_ms"]
        assert len(timings["rows"]) == len(report["results"]["rows"]) == 2
        assert timings["rows"][0] < 50 <= timings["rows"][1]
        assert sum(timings["rows"]) <= timings["total"] + 0.1  # each is rounded to 0.1 ms


def test_console_script_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "gridchroma.cli", "verify-rigidity", "--k", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "rigidity" in proc.stdout
