"""End-to-end checks of the command line interface, run in process.

Each subcommand is exercised at least once.  JSON output must parse, be
deterministic across runs, carry the fixed report envelope, and agree
with the library calls it wraps.  Domain errors exit with code 1 and a
message on stderr; usage errors exit with code 2 via argparse; a closed
stdout exits with code 141 and nothing on stderr.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cellspec import cli, fibpoly
from cellspec.coxeter import CoxeterSystem, enumerate_J
from cellspec.dihedral import enumerate_B
from cellspec.staircase import make_extended_staircase, make_staircase
from test_cli_transcript import INVOCATIONS


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

    @pytest.mark.parametrize("name", ["I2_x", "I2(x)"])
    def test_unparsable_dihedral_order_is_a_domain_error(self, capsys, name):
        code, out, err = run_cli(capsys, "cells", name)
        assert (code, out, err) == (1, "", f"error: cannot parse Coxeter type '{name}'\n")

    def test_too_small_rank_names_the_input(self, capsys):
        code, out, err = run_cli(capsys, "cells", "A0")
        assert (code, out, err) == (
            1, "", "error: Coxeter type 'A0': rank must be at least 1\n"
        )

    @pytest.mark.parametrize("name", ["I2_2", "I2(1)", "i2_0"])
    def test_too_small_dihedral_order_names_the_input(self, capsys, name):
        code, out, err = run_cli(capsys, "cells", name)
        assert (code, out, err) == (
            1, "", f"error: Coxeter type '{name}': order must be at least 3\n"
        )

    @pytest.mark.parametrize("name, size", [("E6", 36), ("E7", 49), ("E8", 64)])
    def test_exceptional_types(self, capsys, name, size):
        assert run_json(capsys, "cells", name)["results"]["size"] == size

    def test_g2_is_i2_6(self, capsys):
        g2 = run_json(capsys, "cells", "G2")
        assert g2["results"] == run_json(capsys, "cells", "I2_6")["results"]

    def test_negative_max_length_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cells", "A3", "--max-length", "-1"])
        assert excinfo.value.code == 2
        assert "cells --max-length must be non-negative" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "argv", [["--i", "5", "--upto", "2"], ["--upto", "2", "--i", "5"]]
    )
    def test_index_with_upto_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fibpoly", *argv])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "fibpoly takes --i or --upto, not both" in err

    def test_negative_upto_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fibpoly", "--upto", "-3"])
        assert excinfo.value.code == 2
        assert "fibpoly --upto must be non-negative" in capsys.readouterr().err

    def test_negative_index_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fibpoly", "--i", "-1"])
        assert excinfo.value.code == 2
        assert "fibpoly --i must be non-negative" in capsys.readouterr().err


class TestMatspec:
    def test_cartan_matrix_report(self, capsys):
        report = run_json(capsys, "matspec", "--matrix", "[[2,1],[1,2]]")
        results = report["results"]
        assert results["charpoly"]["text"] == "x^2 - 4x + 3"
        assert results["minpoly"]["text"] == "x^2 - 4x + 3"
        assert results["gram_spectrum_below_4"] is False
        assert results["dihedral_level"] is None

    @pytest.mark.parametrize(
        "text, message",
        [("[[1.7,0],[1,1]]", "matrix entry 1.7 is not an integer"),
         ('[[true,0],[1,"1"]]', "matrix entry true is not an integer"),
         ('[[1,0],[1,"1"]]', 'matrix entry "1" is not an integer'),
         ("[1,2]", "matrix needs a list in place of 1"),
         ("[[1],2]", "matrix needs a list in place of 2"),
         ('{"entries":[1]}', "matrix needs a list in place of 1"),
         ("[[[1]]]", "matrix entry [1] is not an integer"),
         ('{"rows":1}', "matrix object has no 'entries' key")],
    )
    def test_malformed_matrix_is_a_domain_error(self, capsys, text, message):
        code, out, err = run_cli(capsys, "matspec", "--matrix", text)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag", ["--matrix", "--matrix-file"])
    def test_deep_nesting_is_a_domain_error(self, capsys, tmp_path, flag):
        text = "[" * 100_000 + "]" * 100_000
        if flag == "--matrix-file":
            path = tmp_path / "m.json"
            path.write_text(text, encoding="utf-8")
            text = str(path)
        code, out, err = run_cli(capsys, "matspec", flag, text)
        message = f"error: {flag} is nested too deeply to parse\n"
        assert (code, out, err) == (1, "", message)

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

    @pytest.mark.parametrize(
        "text, message",
        [("[1,2]", "matrix needs a list in place of 1"),
         ('{"rows":1}', "matrix object has no 'entries' key")],
    )
    def test_malformed_matrix_file_is_a_domain_error(
        self, capsys, tmp_path, text, message
    ):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "classify-matrix", "--matrix-file", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")


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


class TestOracleUnder4Limits:
    def test_unpruned_search_beyond_2_16_matrices_is_a_usage_error(self, capsys):
        # 3 ** 12 = 531441 matrices at the default --max-entry 2
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["oracle-under4", "--rows", "3", "--cols", "4", "--no-prefilter"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--no-prefilter" in err and "65536" in err

    def test_pruned_search_beyond_14_lines_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["oracle-under4", "--rows", "7", "--cols", "8"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--rows + --cols" in err and "14" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--rows", "4", "--cols", "4", "--max-entry", "1", "--no-prefilter"),
            ("--rows", "7", "--cols", "7"),
            ("--rows", "2", "--cols", "7", "--max-entry", "99"),
        ],
    )
    def test_searches_at_the_limits_are_admitted(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "brute_force_under4", lambda *a, **k: [])
        code, out, err = run_cli(capsys, "oracle-under4", *argv)
        assert code == 0, err


class TestClassifyMatrixBeyondTenColumns:
    @pytest.mark.parametrize(
        "matrix,kind",
        [
            (make_staircase(11, 12), "staircase"),
            (make_extended_staircase(11, 12), "extended_staircase"),
        ],
    )
    def test_shuffled_family_member(self, capsys, matrix, kind):
        rows = [list(row[::-1]) for row in matrix.rows[::-1]]
        rows[0], rows[5] = rows[5], rows[0]
        report = run_json(capsys, "classify-matrix", "--matrix", json.dumps(rows))
        assert report["results"]["kind"] == kind
        assert report["results"]["shape"] == [matrix.n_rows, matrix.n_cols]
        assert report["results"]["representative"]["entries"] == matrix.to_lists()


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
        assert err == "error: --sizes must be comma-separated integers, got '2,x'\n"


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

    @pytest.mark.parametrize("name", ["A3", "D4", "E6", "E7", "E8"])
    def test_simply_laced_types_list_the_coxeter_graph(self, capsys, name):
        # one candidate: 2I plus the adjacency matrix of the Coxeter graph
        system = CoxeterSystem.from_name(name)
        results = run_json(capsys, "special", "--type", name)["results"]
        assert [c["sizes"] for c in results["candidates"]] == [[1] * system.rank]
        assert results["candidates"][0]["matrix"]["entries"] == [
            [{1: 2, 2: 0, 3: 1}[order] for order in row]
            for row in system.coxeter_matrix
        ]
        assert all(v > 0 for v in results["positive_eigenvector"])

    def test_c_rank_is_read_as_b(self, capsys):
        c3 = run_json(capsys, "special", "--type", "C3")
        assert c3["results"] == run_json(capsys, "special", "--type", "B3")["results"]

    def test_h3_bisects_its_polynomial_once(self, capsys, monkeypatch):
        # shared_top_eigenvalue and pf_vector read one bisection memo, and the
        # module and reflection sides of H3 share their characteristic polynomial
        built = []
        real = fibpoly._MaxRootBisection.__init__

        def counting_init(self, p):
            built.append(p)
            real(self, p)

        monkeypatch.setattr(fibpoly._MaxRootBisection, "__init__", counting_init)
        fibpoly._bisection.cache_clear()
        run_json(capsys, "special", "--type", "H3")
        assert len(built) == 1

    @pytest.mark.parametrize(
        "name, message",
        [("B\u00b2", "cannot parse Coxeter type 'B\u00b2'"),
         ("B" + "9" * 5000,
          f"oversized Coxeter type '{'B' + '9' * 5000}': rank at most 128")],
    )
    def test_unreadable_b_rank_names_the_input(self, capsys, name, message):
        code, out, err = run_cli(capsys, "special", "--type", name)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "name, message",
        [("B1", "Coxeter type 'B1': rank must be at least 2"),
         ("B2", "candidate families of type 'B2': rank must be at least 3")],
    )
    def test_too_small_b_rank_names_the_input(self, capsys, name, message):
        code, out, err = run_cli(capsys, "special", "--type", name)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "name, message",
        [("A1", "reference candidates of type 'A1': rank must be at least 3"),
         ("A2", "reference candidates of type 'A2': rank must be at least 3"),
         ("D3", "Coxeter type 'D3': rank must be at least 4"),
         ("E5", "unsupported Coxeter type 'E5'")],
    )
    def test_refused_simply_laced_type_names_the_input(self, capsys, name, message):
        code, out, err = run_cli(capsys, "special", "--type", name)
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize(
        "data, message",
        [({"gamma": [[[1, 0], [0, 1]], [[0, 1], [1.0, 0]]], "identity": 0},
          "gamma entry 1.0 is not an integer"),
         ([1], "--gamma-file must hold a JSON object with a 'gamma' key"),
         ({"labels": ["e"]}, "--gamma-file must hold a JSON object with a 'gamma' key"),
         ({"gamma": [1]}, "gamma needs a list in place of 1"),
         ({"gamma": 5}, "gamma needs a list in place of 5"),
         ({"gamma": [[[1]]], "identity": [0]}, "identity entry [0] is not an integer"),
         ({"gamma": [[[1]]], "labels": 5}, "labels must be a list, got 5")],
    )
    def test_malformed_gamma_file_is_a_domain_error(self, capsys, tmp_path, data, message):
        path = tmp_path / "c2.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "cells-of-algebra", "--gamma-file", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "data, message",
        [({"gamma": [[[1]]], "labels": ["a", "b"]},
          "tensor shape mismatch: 2 labels for a basis of size 1"),
         ({"gamma": [[[1], [2]]]},
          "tensor shape mismatch: plane 0 has length 2, not 1"),
         ({"gamma": [[[1, 0], [0, 1]], [[0, 1], [1]]]},
          "tensor shape mismatch: plane 1 row 1 has length 1, not 2")],
    )
    def test_shape_mismatch_names_the_part(self, capsys, tmp_path, data, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "cells-of-algebra", "--gamma-file", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_deep_nesting_is_a_domain_error(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"gamma": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run_cli(capsys, "cells-of-algebra", "--gamma-file", str(path))
        message = "error: --gamma-file is nested too deeply to parse\n"
        assert (code, out, err) == (1, "", message)

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

    def test_level_above_the_matrix_level_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "apex", "--n", "10", "--matrix", "[[1,1],[0,1]]")
        assert (code, out) == (1, "")
        assert err == "error: apex --n 10: the matrix's level is 5, not 10\n"

    def test_negative_action_names_the_basis_element(self, capsys):
        # the words 121 and 212 act on the module of [[0]] by -2
        code, out, err = run_cli(capsys, "apex", "--matrix", "[[0]]")
        assert (code, out) == (1, "")
        assert err == "error: negative entry in the action matrix of 121\n"


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
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate-b", "--n", "2"],
            ["dihedral-table", "--n", "-1"],
            ["cells-of-algebra", "--dihedral-n", "0"],
            ["apex", "--n", "2", "--matrix", "[[1]]"],
        ],
    )
    def test_level_below_three_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert f"{argv[0]} {argv[1]} must be at least 3" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2



class TestReportWriter:
    @pytest.mark.parametrize("extra", [["--json"], []], ids=["json", "text"])
    def test_closed_stdout_exits_141_quietly(self, extra):
        # the level-60 table (3.4 MB as JSON, 6 MB as text) is larger than a
        # pipe buffer, so writing it fails once the reader closes the pipe
        source = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(source)}
        argv = ["-m", "cellspec.cli", "dihedral-table", "--n", "60", *extra]
        proc = subprocess.Popen(
            [sys.executable, *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b"")

    @staticmethod
    def drawn_items(monkeypatch):
        """Wrap the dihedral-table handler; return the list of items drawn."""
        help_text, specs, handler = cli._COMMANDS["dihedral-table"]
        drawn = []

        def counting(args):
            for item in handler(args):
                drawn.append(item)
                yield item

        monkeypatch.setitem(cli._COMMANDS, "dihedral-table", (help_text, specs, counting))
        return drawn

    def test_json_builds_no_text(self, capsys, monkeypatch):
        drawn = self.drawn_items(monkeypatch)
        run_json(capsys, "dihedral-table", "--n", "7")
        assert len(drawn) == 1

    def test_text_draws_the_report_and_each_printed_line(self, capsys, monkeypatch):
        drawn = self.drawn_items(monkeypatch)
        code, out, err = run_cli(capsys, "dihedral-table", "--n", "7")
        assert (code, err) == (0, "")
        assert len(drawn) == 1 + len(out.splitlines())
        assert drawn[1:] == out.splitlines()

def test_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    run_json(capsys, "fibpoly", "--upto", "2")
    report = run_json(capsys, "fibpoly", "--i", "3")
    assert report["inputs"] == {"i": 3, "upto": None}


def test_import_does_not_load_numpy():
    # a fresh interpreter, so that no test's own numpy import is seen, on
    # the package these tests import
    source = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(source)}
    code = "import sys, cellspec.cli as c; print(c.__file__, 'numpy' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    out = run.stdout.split()
    assert out == [cli.__file__, "False"]


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda argv: " ".join(argv[:3]))
def test_json_report_round_trips(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    canonical = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))
    assert out == canonical + "\n"
