import json
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import gridchroma.cli
from gridchroma.chi import Budget, Coloring, is_proper
from gridchroma.cli import run
from gridchroma.errors import InvariantViolation, UndecidedError
from gridchroma.grid import VerificationReport
from gridchroma.groups import MarkedGroupSpec
from gridchroma.instances import cayley_cycle_instance, path_instance
from gridchroma.towers import tower_from_json, tower_graph
from oracles import instance_to_json, random_line_instance, triangle_gap_instance


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

    @pytest.mark.parametrize("offset", [[1, 2, 7], [0, 0, "junk"], [1], {"0": 1, "1": 0}, "10"], ids=str)
    def test_tower_offset_of_other_than_two_entries_is_input_error(self, tower_file, offset):
        with open(tower_file) as fh:
            doc = json.load(fh)
        doc["anchors"][0]["offset"] = offset
        with open(tower_file, "w") as fh:
            json.dump(doc, fh)
        code, report = run(["shift-color", "--anchors", tower_file])
        assert code == 2
        assert report["error"] == (
            f"malformed tower document: anchor offset must be a list of two integers, got {offset!r}"
        )

    @pytest.mark.parametrize("chi, code", [(3, 0), (4, 2)])
    def test_instance_chi_above_max_degree_plus_one_is_input_error(self, tmp_path, chi, code):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(
            {"mode": "segment", "chi": chi, "vertices": 3, "blocks": [[0], [1], [2]], "edges": [[0, 1], [1, 2]]}
        ))
        got, report = run(["two-ended-color", "--instance", str(path)])
        assert got == code
        if code:
            assert report["error"] == f"chromatic number {chi} exceeds max degree + 1 = 3"

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: {**instance_to_json(path_instance(9, "segment")), "chi": 1},
                "separator hull: a piece of 3 vertices admits no 1-coloring; "
                "the declared chromatic number is too small",
            ),
            (
                lambda: instance_to_json(triangle_gap_instance()),
                "complement piece: a piece of 5 vertices admits no 2-coloring; "
                "the declared chromatic number is too small",
            ),
        ],
        ids=["hull", "complement-piece"],
    )
    def test_piece_without_a_chi_coloring_is_input_error(self, tmp_path, capsys, make, message):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(make()))
        code, report = run(["two-ended-color", "--instance", str(path)])
        assert code == 2
        assert report["error"] == message
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

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

    def test_labels_of_the_wrong_length_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "graph.json"
        bad.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]], "labels": [[0, 0, 0]]}))
        code, report = run(["chi", "--graph", str(bad)])
        assert code == 2
        assert report["error"] == "malformed graph document: labels must list one entry per vertex"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text",
        [("huge.json", '{"vertices": 1000000000, "edges": []}'), ("huge.col", "p edge 1000000000 0\n")],
    )
    def test_oversized_graph_file_is_refused_before_allocating(self, tmp_path, name, text):
        # under a 512 MB address-space cap, a billion empty neighbor sets
        # could only end in a MemoryError
        path = tmp_path / name
        path.write_text(text)
        start = time.monotonic()
        proc = _run_capped(["chi", "--graph", str(path)], 1 << 29, timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: the graph declares 1,000,000,000 vertices, more than the cap of 10,000,000"
        ]
        assert elapsed < 5

    @pytest.mark.parametrize("command", [["verify-dichotomy", "--budget-ms", "1000"], ["report"]])
    def test_oversized_grid_is_input_error(self, command):
        code, report = run([*command, "--k", "150"])
        assert code == 2
        assert "cap of 10,000,000" in report["error"]

    @pytest.mark.parametrize(
        "command, name",
        [
            (["chi", "--graph"], "graph.json"),
            (["chi", "--graph"], "graph.col"),
            (["shift-color", "--anchors"], "tower.json"),
            (["two-ended-color", "--instance"], "instance.json"),
        ],
        ids=["chi-json", "chi-col", "shift-color", "two-ended-color"],
    )
    def test_file_that_is_not_utf8_is_input_error(self, tmp_path, capsys, command, name):
        path = tmp_path / name
        path.write_bytes(b"\xff\xfe\x00bad")
        code, report = run([*command, str(path)])
        assert code == 2
        assert report["error"].startswith(f"cannot decode {path} as UTF-8: ")
        assert "Traceback" not in capsys.readouterr().err

    def test_deeply_nested_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200000)
        code, report = run(["chi", "--graph", str(path)])
        assert code == 2
        assert report["error"].startswith(f"cannot parse {path}: ")
        assert "Traceback" not in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "argv, count",
        [
            (["quotient-chi", "--group", "delta", "--k", "3", "--M", "2"], "got 2"),
            (["cayley", "--group", "delta", "--k", "3", "--levels", "0"], "got 0"),
        ],
    )
    def test_too_few_levels_is_input_error(self, argv, count, capsys):
        code, report = run(argv)
        assert code == 2
        assert count in report["error"]
        assert "Traceback" not in capsys.readouterr().err

    def test_even_modulus_alternation_is_input_error(self):
        code, _ = run(["verify-alternation", "--k", "3", "--M", "4"])
        assert code == 2

    def test_budget_exhaustion_exits_three(self):
        # the M=7 proof takes 121,257 nodes, so the clock, read every 4,096
        # nodes, finds the budget spent
        code, report = run(
            ["quotient-chi", "--group", "gamma", "--k", "3", "--M", "7",
             "--budget-ms", "0.001"]
        )
        assert code == 3
        assert report["results"]["undecided"]

    def test_undecided_search_exits_three_with_report(self, delta_instance_file, capsys):
        # no cut of at most 4 vertices divides the cycle, so the walk of
        # 25,992 cut tests reaches its clock read at step 4,096 with the
        # budget spent
        code, report = run(
            ["two-ended-color", "--instance", delta_instance_file, "--window", "2",
             "--cap", "4", "--budget-ms", "0"]
        )
        assert code == 3
        assert report["error"].startswith("separator search")
        assert "undecided: separator search" in capsys.readouterr().err

    def test_invariant_violation_exits_one_with_report(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise InvariantViolation("layer escaped the dichotomy")

        monkeypatch.setattr(gridchroma.cli, "verify_dichotomy", broken)
        code, report = run(["verify-dichotomy", "--k", "3"])
        assert code == 1
        assert report["error"] == "layer escaped the dichotomy"
        assert "invariant violated: layer escaped the dichotomy" in capsys.readouterr().err

    def test_out_of_memory_exits_four_with_one_line(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(gridchroma.cli, "verify_dichotomy", exhausted)
        code, report = run(["verify-dichotomy", "--k", "3"])
        assert code == 4
        assert report["error"] == "out of memory"
        assert capsys.readouterr().err == "out of memory\n"


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

    def test_twisted_quotient_export_roundtrips_through_chi(self, tmp_path):
        # the even twisted quotient collapses onto the plain one: chi 3
        out = tmp_path / "g.json"
        code, _ = run(["cayley", "--group", "gamma", "--k", "3", "--M", "4", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["labels"] == [[a, b, n] for n in range(4) for a in range(3) for b in range(3)]
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
             "--window", "1", "--cap", "9"]
        )
        assert code == 0
        assert report["results"]["complement_stats"]["shape_ok"]

    def test_two_ended_color_takes_chi_from_the_file(self, delta_instance_file, capsys):
        code, _ = run(["two-ended-color", "--instance", delta_instance_file, "--chi", "3"])
        assert code == 2
        assert "unrecognized arguments: --chi" in capsys.readouterr().err

    def test_window_two_colors_an_instance_without_one_block_dividers(self, tmp_path):
        path = tmp_path / "seed380.json"
        path.write_text(json.dumps(instance_to_json(random_line_instance(380, "segment"))))
        code, report = run(["two-ended-color", "--instance", str(path)])
        assert code == 2
        assert report["error"] == "no separators found; increase window or cap"
        code, report = run(["two-ended-color", "--instance", str(path), "--window", "2"])
        assert code == 0
        assert report["results"]["colors_used"] == 5
        assert report["results"]["complement_stats"]["satisfied"]

    def test_shift_color(self, tower_file):
        code, report = run(["shift-color", "--anchors", tower_file])
        assert code == 0
        assert report["results"]["proper"]
        assert report["results"]["colors_used"] == 4

    def test_shift_color_out_file_is_a_proper_coloring(self, tower_file, tmp_path):
        out = tmp_path / "colored.json"
        code, _ = run(["shift-color", "--anchors", tower_file, "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        graph = tower_graph(tower_from_json(doc["tower"]))
        coloring = Coloring(tuple(doc["coloring"]["colors"]), doc["coloring"]["palette"])
        assert is_proper(graph, coloring)
        k, extent = doc["tower"]["k"], doc["tower"]["extent"]
        assert doc["labels"] == [[a, b, n] for n in range(extent) for a in range(k) for b in range(k)]
        assert doc["colors_used"] == coloring.used == 4

    def test_shift_color_never_builds_the_tower_graph(self, tower_file, tmp_path, monkeypatch, capsys):
        built, unbuilt = tmp_path / "built.json", tmp_path / "unbuilt.json"
        assert run(["shift-color", "--anchors", tower_file, "--out", str(built)])[0] == 0
        want = capsys.readouterr().out

        def refuse(tower):
            raise AssertionError("shift-color built the tower graph")

        monkeypatch.setattr(gridchroma.towers, "tower_graph", refuse)
        assert run(["shift-color", "--anchors", tower_file, "--out", str(unbuilt)])[0] == 0
        assert capsys.readouterr().out == want
        assert "colored 99 vertices with 4 colors" in want
        assert unbuilt.read_text() == built.read_text()

    def test_verify_alternation(self, capsys):
        code, report = run(["verify-alternation", "--k", "3", "--M", "3"])
        assert code == 0
        assert report["results"]["violations"] == []
        assert "violations=0" in capsys.readouterr().out

    def test_canonical_dichotomy_counts_classes(self, capsys):
        # from k=4 on the search visits one coloring per color class
        code, report = run(["verify-dichotomy", "--k", "4"])
        assert code == 0
        assert report["results"]["count"] == 3826
        out = capsys.readouterr().out
        assert "classes=3826 " in out and "colorings=" not in out
        assert gridchroma.cli._claim_dichotomy(4, Budget(), None, None) == (True, {"classes": 3826})
        run(["verify-dichotomy", "--k", "3"])
        assert "colorings=1056 " in capsys.readouterr().out

    def test_invariance_counts_cases_above_k3(self, capsys):
        # from k=4 on the count is the cases refuted, 2k^2 per group
        code, report = run(["verify-invariance", "--k", "4", "--group", "gamma"])
        assert code == 0
        assert report["results"]["count"] == 32
        out = capsys.readouterr().out
        assert "cases=32 " in out and "colorings=" not in out
        got = gridchroma.cli._claim_invariance(4, Budget(), None, None)
        assert got == (True, {"cases": {"plain": 32, "twisted": 32}})
        run(["verify-invariance", "--k", "3"])
        assert "colorings=12288 " in capsys.readouterr().out

    def test_json_output_mode(self, capsys):
        code, _ = run(["verify-rigidity", "--k", "3", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["count"] == 12

    def test_invariance_group_gamma(self):
        code, report = run(["verify-invariance", "--k", "3", "--group", "gamma"])
        assert code == 0
        assert report["results"]["params"]["twisted"] is True
        assert report["results"]["count"] == 12288

    def test_invariance_defaults_to_delta(self):
        code, report = run(["verify-invariance", "--k", "3"])
        assert code == 0
        assert report["results"]["params"]["twisted"] is False

    @pytest.mark.parametrize("option", [["--group", "epsilon"], ["--twisted", "true"]], ids=["epsilon", "twisted"])
    def test_invariance_bad_group_is_usage_error(self, option, capsys):
        code, report = run(["verify-invariance", "--k", "3", *option])
        assert code == 2
        assert "results" not in report
        assert option[1] in capsys.readouterr().err


class TestReport:
    def test_small_report_passes_and_repeats(self):
        code, first = run(["report", "--k", "3", "--seed", "3", "--towers", "3"])
        assert code == 0
        code, second = run(["report", "--k", "3", "--seed", "3", "--towers", "3"])
        assert code == 0
        assert first["results"] == second["results"]

    @pytest.mark.parametrize("towers", ["0", "-2"])
    def test_towers_below_one_is_input_error(self, towers, monkeypatch, capsys):
        monkeypatch.setattr(gridchroma.cli, "CLAIMS", ())  # refused before any row runs
        code, report = run(["report", "--k", "4", "--towers", towers])
        assert code == 2
        assert "results" not in report
        assert capsys.readouterr().err.splitlines() == [f"error: --towers must be at least 1, got {towers}"]

    def test_report_rows_present(self):
        code, report = run(["report", "--k", "3", "--seed", "1", "--towers", "2"])
        assert code == 0
        names = [row["row"] for row in report["results"]["rows"]]
        assert any("dichotomy" in n for n in names)
        assert any("quotient" in n for n in names)
        assert any("two-ended" in n for n in names)
        assert any("tower" in n for n in names)


    def test_budgeted_two_ended_row_is_undecided_not_fatal(self, monkeypatch):
        # at cap 4 in two-block windows no cut divides the k=3 Cayley
        # cycles, so their walks reach a clock read at step 4,096, long
        # after the row's share of 5 ms
        color = gridchroma.cli.color_two_ended
        monkeypatch.setattr(
            gridchroma.cli,
            "color_two_ended",
            lambda inst, **kwargs: color(inst, window_blocks=2, size_cap=4, **kwargs),
        )
        code, report = run(
            ["report", "--k", "3", "--seed", "1", "--towers", "1", "--budget-ms", "5"]
        )
        assert code == 3
        rows = {row["row"]: row for row in report["results"]["rows"]}
        two_ended = rows["two-ended colorer within 2*chi-1"]
        assert two_ended["pass"] is None
        assert "separator search" in two_ended["value"]["undecided"]
        assert any("tower" in name for name in rows)

    def test_two_ended_row_passes_at_k4(self):
        # each Cayley cycle's walk selects blocks 0, 4 and 8 in 36 cut tests
        passed, values = gridchroma.cli._claim_two_ended(4, Budget(ms=2000), random.Random(1), 1)
        assert passed is True
        assert values["plain cayley cycle"] == values["twisted cayley cycle"] == {"colors": 7, "bound": 7}

    def test_tower_row_stops_when_its_share_is_spent(self, monkeypatch):
        colored = []

        def color_tower(tower):  # counts the towers the row colors
            colored.append(tower)
            return SimpleNamespace(colors_used=tower.k)

        monkeypatch.setattr(gridchroma.cli, "color_tower", color_tower)
        with pytest.raises(UndecidedError, match="tower row: time budget exhausted"):
            gridchroma.cli._claim_towers(3, Budget(ms=0), random.Random(1), 5)
        assert colored == []

    def test_violation_outranks_undecided_in_a_row(self, monkeypatch):
        def invariance(k, twisted, budget=None):  # plain violated, twisted undecided
            return VerificationReport("invariance", {}, violations=[] if twisted else ["x"], undecided=twisted)

        monkeypatch.setattr(gridchroma.cli, "verify_invariance", invariance)
        code, report = run(["report", "--k", "3", "--towers", "1"])
        rows = {row["row"]: row["pass"] for row in report["results"]["rows"]}
        assert rows["invariance: plain equal / twisted opposite"] is False
        assert code == 1

    @pytest.mark.parametrize("plain_s", [0.3, 0.6])
    def test_invariance_groups_share_the_row_budget_in_call_order(self, monkeypatch, plain_s):
        clock = [100.0]
        seen = []

        def invariance(k, twisted, budget=None):  # plain takes plain_s of the row's 1 s
            seen.append((twisted, budget.share(1).ms))  # the time left before its deadline
            clock[0] += 0.0 if twisted else plain_s
            return VerificationReport("invariance", {}, count=5)

        monkeypatch.setattr(gridchroma.chi.time, "monotonic", lambda: clock[0])
        monkeypatch.setattr(gridchroma.cli, "verify_invariance", invariance)
        got = gridchroma.cli._claim_invariance(3, Budget(ms=1000), None, 0)
        assert got == (True, {"plain": 5, "twisted": 5})
        assert seen == [(False, pytest.approx(1000)), (True, pytest.approx(1000 - 1000 * plain_s))]

    def test_search_rows_get_the_time_the_witness_rows_leave(self, monkeypatch):
        # the witness rows come first and take milliseconds at k=3, so the
        # dichotomy, first of the five search rows, gets about a fifth of
        # the budget, not the ninth it got as the table's second row
        shares = []

        def dichotomy(k, budget=None, canonical=None):
            shares.append(budget.share(1).ms)
            return VerificationReport("dichotomy", {"k": k}, count=1056)

        monkeypatch.setattr(gridchroma.cli, "verify_dichotomy", dichotomy)
        code, _ = run(["report", "--k", "3", "--towers", "1", "--budget-ms", "10000"])
        assert code == 0
        assert len(shares) == 1 and shares[0] >= 1600

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
        tower = next(row for row in rows if row["row"].startswith("tower"))
        assert tower["pass"] is None
        assert tower["value"] == {"undecided": "witness: time budget exhausted"}
        assert all(row["pass"] for row in rows if row is not tower)
        assert code == 3

    def test_out_of_memory_in_a_row_names_the_row(self, monkeypatch, capsys):
        def exhausted(k, budget, rng, towers):
            raise MemoryError

        claims = list(gridchroma.cli.CLAIMS)
        name = claims[3][0]
        claims[3] = (name, exhausted)
        monkeypatch.setattr(gridchroma.cli, "CLAIMS", tuple(claims))
        code, report = run(["report", "--k", "3", "--towers", "1"])
        assert code == 4
        assert report["error"] == f"out of memory: report row {name!r}"
        err = capsys.readouterr().err
        assert err.splitlines() == [report["error"]]
        assert "Traceback" not in err

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

    def test_an_undecided_row_runs_once(self, monkeypatch):
        calls = {"late": 0, "quick": 0}

        def late(k, budget, rng, towers):  # would settle on a second call
            calls["late"] += 1
            if calls["late"] == 1:
                raise UndecidedError("late: time budget exhausted")
            return True, "settled"

        def quick(k, budget, rng, towers):
            calls["quick"] += 1
            return True, "quick"

        monkeypatch.setattr(gridchroma.cli, "CLAIMS", (("late", late), ("quick", quick)))
        code, report = run(["report", "--budget-ms", "1000"])
        assert code == 3
        assert report["results"]["rows"] == [
            {"row": "late", "pass": None, "value": {"undecided": "late: time budget exhausted"}},
            {"row": "quick", "pass": True, "value": "quick"},
        ]
        assert calls == {"late": 1, "quick": 1}
        assert len(report["timings_ms"]["rows"]) == 2

    def test_no_second_pass_without_a_budget(self, monkeypatch):
        calls = []

        def stuck(k, budget, rng, towers):
            calls.append(budget)
            return None, "undecided"

        monkeypatch.setattr(gridchroma.cli, "CLAIMS", (("stuck", stuck),))
        code, report = run(["report"])
        assert code == 3
        assert calls == [None]

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


def _run_capped(argv: list[str], cap: int, timeout: float) -> subprocess.CompletedProcess:
    """The CLI run in a child process whose address space is capped at
    `cap` bytes (or the hard limit, if lower)."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = cap if hard == resource.RLIM_INFINITY else min(cap, hard)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (cap, hard))

    return subprocess.run(
        [sys.executable, "-m", "gridchroma.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit_address_space,
        timeout=timeout,
    )


def test_k5_report_ends_undecided_within_its_budget_and_a_gigabyte():
    # the two-ended row's separator walk once built every connected subset
    # of a 25-vertex window before its first budget check, and ran out of
    # memory long after the budget had passed
    start = time.monotonic()
    proc = _run_capped(
        ["report", "--k", "5", "--budget-ms", "3000", "--json"], 1 << 30, timeout=120
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 10
    # the separator walk selects each k=5 Cayley cycle's family in 60 cut
    # tests, so the two-ended row is decided inside its share
    rows = {row["row"]: row for row in json.loads(proc.stdout)["results"]["rows"]}
    assert rows["two-ended colorer within 2*chi-1"]["pass"] is True
