"""End-to-end checks of the command line interface, run in process.

Each subcommand is exercised at least once.  JSON output must parse, be
deterministic across runs, carry the fixed report envelope, and agree
with the library calls it wraps.  Domain errors exit with code 1 and a
message on stderr; usage errors exit with code 2 via argparse.
"""

import json

import pytest

from cellspec import cli
from cellspec.coxeter import CoxeterSystem, enumerate_J
from cellspec.dihedral import enumerate_B


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestCells:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "cells", "A2")
        assert code == 0
        assert "unique-expression elements of A2: 4" in out

    def test_json_output(self, capsys):
        report = run_json(capsys, "cells", "A2")
        assert report["command"] == "cells"
        assert report["inputs"]["type"] == "A2"
        assert report["results"]["size"] == 4
        assert report["results"]["elements"] == ["1", "2", "12", "21"]
        assert report["results"]["boxes"] == [
            [["1"], ["12"]],
            [["21"], ["2"]],
        ]

    def test_max_length_matches_library(self, capsys):
        report = run_json(capsys, "cells", "B4", "--max-length", "2")
        expected = enumerate_J(CoxeterSystem.from_name("B4"), max_length=2)
        assert report["results"]["size"] == len(expected)

    def test_unknown_type_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "cells", "Q9")
        assert code == 1
        assert err.startswith("error:")

    def test_negative_max_length_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cells", "A3", "--max-length", "-1"])
        assert excinfo.value.code == 2


class TestFibpoly:
    def test_single_index(self, capsys):
        report = run_json(capsys, "fibpoly", "--i", "5")
        (entry,) = report["results"]
        assert entry["i"] == 5
        assert entry["f"]["text"] == "x^2 - 3x + 1"
        assert entry["g"]["text"] == "x^4 + 3x^2 + 1"
        assert entry["relation_ok"] is True

    def test_upto_lists_every_index(self, capsys):
        report = run_json(capsys, "fibpoly", "--upto", "6")
        assert [entry["i"] for entry in report["results"]] == list(range(7))
        assert all(entry["relation_ok"] for entry in report["results"])

    def test_missing_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fibpoly"])
        assert excinfo.value.code == 2

    def test_negative_upto_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fibpoly", "--upto", "-3"])
        assert excinfo.value.code == 2


class TestMatspec:
    def test_cartan_matrix_report(self, capsys):
        report = run_json(capsys, "matspec", "--matrix", "[[2,1],[1,2]]")
        results = report["results"]
        assert results["charpoly"]["text"] == "x^2 - 4x + 3"
        assert results["minpoly"]["text"] == "x^2 - 4x + 3"
        assert results["gram_spectrum_below_4"] is False
        assert results["dihedral_level"] is None

    @pytest.mark.parametrize(
        "text, entry",
        [("[[1.7,0],[1,1]]", "1.7"), ('[[true,0],[1,"1"]]', "true"),
         ('[[1,0],[1,"1"]]', '"1"')],
    )
    def test_non_integer_entry_is_a_domain_error(self, capsys, text, entry):
        code, out, err = run_cli(capsys, "matspec", "--matrix", text)
        assert code == 1
        assert out == ""
        assert f"entry {entry} is not an integer" in err

    def test_staircase_report_recovers_the_level(self, capsys):
        report = run_json(capsys, "matspec", "--matrix", "[[1,0],[1,1]]")
        results = report["results"]
        assert results["gram_spectrum_below_4"] is True
        assert results["dihedral_level"] == 5
        assert results["gram_left_minpoly"]["text"] == "x^2 - 3x + 1"


class TestClassifyMatrix:
    def test_staircase(self, capsys):
        report = run_json(capsys, "classify-matrix", "--matrix", "[[1,0],[1,1]]")
        results = report["results"]
        assert results["kind"] == "staircase"
        assert results["shape"] == [2, 2]

    def test_exceptional(self, capsys):
        report = run_json(
            capsys,
            "classify-matrix",
            "--matrix",
            "[[1,0,0],[1,1,1],[0,0,1]]",
        )
        results = report["results"]
        assert results["kind"] == "exceptional"
        assert results["variant"] == 1

    def test_entry_out_of_range_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "classify-matrix", "--matrix", "[[9]]")
        assert code == 1
        assert err.startswith("error:")

    def test_matrix_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[[1,0],[1,1]]", encoding="utf-8")
        report = run_json(
            capsys, "classify-matrix", "--matrix-file", str(path)
        )
        assert report["results"]["kind"] == "staircase"

    def test_missing_matrix_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "classify-matrix")
        assert code == 1
        assert "matrix" in err


class TestOracleUnder4:
    def test_two_by_two(self, capsys):
        report = run_json(capsys, "oracle-under4", "--rows", "2", "--cols", "2")
        results = report["results"]
        assert results["count"] == 1
        assert results["matches_expected_families"] is True

    def test_no_prefilter_agrees(self, capsys):
        fast = run_json(capsys, "oracle-under4", "--rows", "2", "--cols", "3")
        slow = run_json(
            capsys,
            "oracle-under4",
            "--rows",
            "2",
            "--cols",
            "3",
            "--no-prefilter",
        )
        assert fast["results"]["classes"] == slow["results"]["classes"]

    def test_larger_entries_change_nothing(self, capsys):
        base = run_json(capsys, "oracle-under4", "--rows", "2", "--cols", "2")
        wide = run_json(
            capsys,
            "oracle-under4",
            "--rows",
            "2",
            "--cols",
            "2",
            "--max-entry",
            "3",
        )
        assert base["results"]["classes"] == wide["results"]["classes"]


class TestEnumerateB:
    def test_level_six_matches_library(self, capsys):
        report = run_json(capsys, "enumerate-b", "--n", "6")
        entries = report["results"]
        assert len(entries) == 4
        expected = [c.matrix.to_lists() for c in enumerate_B(6)]
        assert [e["matrix"]["entries"] for e in entries] == expected

    def test_exceptional_level_flags_hypotheticals(self, capsys):
        report = run_json(capsys, "enumerate-b", "--n", "12")
        entries = report["results"]
        assert len(entries) == 6
        assert [e["hypothetical"] for e in entries].count(True) == 2
        assert all(
            e["family"] == "exceptional"
            for e in entries
            if e["hypothetical"]
        )


class TestDihedralTable:
    def test_level_six_structure(self, capsys):
        report = run_json(capsys, "dihedral-table", "--n", "6")
        results = report["results"]
        assert len(results["labels"]) == 11
        assert results["labels"][0] == "e"
        gamma = results["gamma"]
        assert len(gamma) == 11
        assert all(len(g) == 11 for g in gamma)
        assert gamma[0] == [
            [1 if k == j else 0 for k in range(11)] for j in range(11)
        ]


class TestVerifyRank3:
    REFERENCE = "[[2,0,1,0],[0,2,1,0],[1,1,2,1],[0,0,1,2]]"
    BROKEN = "[[2,0,1,0],[0,2,1,0],[1,1,2,0],[0,0,0,2]]"

    def test_reference_passes(self, capsys):
        report = run_json(
            capsys,
            "verify-rank3",
            "--type",
            "B3",
            "--sizes",
            "2,1,1",
            "--matrix",
            self.REFERENCE,
        )
        assert report["results"]["valid"] is True
        assert report["results"]["violations"] == []

    def test_broken_matrix_reports_violations(self, capsys):
        report = run_json(
            capsys,
            "verify-rank3",
            "--type",
            "B3",
            "--sizes",
            "2,1,1",
            "--matrix",
            self.BROKEN,
        )
        assert report["results"]["valid"] is False
        assert report["results"]["violations"]

    def test_malformed_sizes_is_a_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify-rank3",
            "--type",
            "B3",
            "--sizes",
            "2,x",
            "--matrix",
            self.REFERENCE,
        )
        assert code == 1
        assert err.startswith("error:")


class TestSpecial:
    def test_h3_shared_eigenvalue(self, capsys):
        report = run_json(capsys, "special", "--type", "H3")
        results = report["results"]
        assert len(results["candidates"]) == 1
        assert results["candidates"][0]["sizes"] == [2, 2, 2]
        closed_form = 2.0 + ((5.0 + 5.0 ** 0.5) / 2.0) ** 0.5
        assert abs(results["shared_top_eigenvalue"] - closed_form) < 1e-6
        assert all(v > 0 for v in results["positive_eigenvector"])

    def test_h4_shared_eigenvalue(self, capsys):
        report = run_json(capsys, "special", "--type", "H4")
        results = report["results"]
        assert abs(results["shared_top_eigenvalue"] - 3.98904) < 1e-4

    def test_f4_has_no_shared_value(self, capsys):
        report = run_json(capsys, "special", "--type", "F4")
        results = report["results"]
        assert len(results["candidates"]) == 2
        assert "shared_top_eigenvalue" not in results

    def test_b3_lists_both_families(self, capsys):
        report = run_json(capsys, "special", "--type", "B3")
        sizes = [c["sizes"] for c in report["results"]["candidates"]]
        assert sorted(map(tuple, sizes)) == [(1, 2, 2), (2, 1, 1)]


class TestQuiver:
    def test_path_graph(self, capsys):
        report = run_json(capsys, "quiver", "--matrix", "[[2,1],[1,2]]")
        results = report["results"]
        assert results["dynkin_type"] == "A2"
        assert results["total_dimension"] == 6
        assert results["edges"] == [[1, 2]]
        assert results["loewy_layers"]["1"] == [[1], [2], [1]]

    def test_cycle_is_not_dynkin(self, capsys):
        report = run_json(
            capsys, "quiver", "--matrix", "[[2,1,1],[1,2,1],[1,1,2]]"
        )
        assert report["results"]["dynkin_type"] is None
        assert report["results"]["total_dimension"] == 12


class TestCellsOfAlgebra:
    def test_dihedral_level(self, capsys):
        report = run_json(capsys, "cells-of-algebra", "--dihedral-n", "5")
        results = report["results"]
        assert results["two_sided"][0] == ["e"]
        assert len(results["two_sided"][1]) == 8
        assert len(results["left"]) == 3
        assert len(results["right"]) == 3

    def test_gamma_file(self, capsys, tmp_path):
        data = {
            "labels": ["e", "g"],
            "gamma": [
                [[1, 0], [0, 1]],
                [[0, 1], [1, 0]],
            ],
            "identity": 0,
        }
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        report = run_json(capsys, "cells-of-algebra", "--gamma-file", str(path))
        results = report["results"]
        assert results["left"] == [["e", "g"]]
        assert results["right"] == [["e", "g"]]
        assert results["two_sided"] == [["e", "g"]]

    def test_gamma_file_non_integer_entry_is_a_domain_error(self, capsys, tmp_path):
        data = {"gamma": [[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]], "identity": 0}
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "cells-of-algebra", "--gamma-file", str(path))
        assert code == 1
        assert "gamma entry 1.0 is not an integer" in err

    def test_missing_source_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "cells-of-algebra")
        assert code == 1
        assert "gamma-file" in err


class TestApex:
    def test_level_is_recovered_when_omitted(self, capsys):
        report = run_json(capsys, "apex", "--matrix", "[[1,1,0],[0,1,1]]")
        results = report["results"]
        assert results["level"] == 6
        assert results["transitive"] is True
        assert results["minimal_level"] is True
        assert results["annihilated"] == []
        assert len(results["apex"]) == 10
        assert "e" not in results["apex"]

    def test_explicit_level(self, capsys):
        report = run_json(capsys, "apex", "--n", "6", "--matrix", "[[1,1,1]]")
        assert report["results"]["level"] == 6
        assert report["results"]["transitive"] is True

    def test_unrecoverable_matrix_is_a_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "apex", "--matrix", "[[1,1],[1,1]]")
        assert code == 1
        assert err.startswith("error:")


class TestJsonContract:
    SAMPLES = [
        ("cells", "H3"),
        ("fibpoly", "--upto", "8"),
        ("matspec", "--matrix", "[[1,0],[1,1]]"),
        ("classify-matrix", "--matrix", "[[1,1,0],[0,1,1]]"),
        ("oracle-under4", "--rows", "2", "--cols", "2"),
        ("enumerate-b", "--n", "8"),
        ("dihedral-table", "--n", "4"),
        (
            "verify-rank3",
            "--type",
            "B3",
            "--sizes",
            "2,1,1",
            "--matrix",
            TestVerifyRank3.REFERENCE,
        ),
        ("special", "--type", "B4"),
        ("quiver", "--matrix", "[[2,1,0],[1,2,1],[0,1,2]]"),
        ("cells-of-algebra", "--dihedral-n", "4"),
        ("apex", "--matrix", "[[1,1,0],[0,1,1]]"),
    ]

    @pytest.mark.parametrize("argv", SAMPLES, ids=lambda a: a[0])
    def test_reports_share_the_envelope(self, capsys, argv):
        report = run_json(capsys, *argv)
        assert sorted(report) == [
            "command",
            "inputs",
            "paper_anchors",
            "results",
        ]
        assert report["command"] == argv[0]
        assert isinstance(report["paper_anchors"], list)
        assert report["paper_anchors"]

    @pytest.mark.parametrize("argv", SAMPLES, ids=lambda a: a[0])
    def test_json_is_deterministic(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, *argv, "--json")
        code2, out2, _ = run_cli(capsys, *argv, "--json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_keys_are_serialized_sorted(self, capsys):
        code, out, err = run_cli(capsys, "cells", "A2", "--json")
        assert code == 0
        report = json.loads(out)
        assert out == json.dumps(
            report, sort_keys=True, separators=(",", ":")
        ) + "\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
