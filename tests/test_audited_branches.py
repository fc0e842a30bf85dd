"""The branches of src/cellspec that only edge input reaches: every refusal
with its exact message, the operator surface that returns NotImplemented,
and the public edge cases.  tests/line_check.py fails when one of them
stops running under the test suite."""

import sys

import pytest

from cellspec.coxeter import CoxeterSystem, cell_table, enumerate_J, is_reduced
from cellspec.dihedral import structure_constants
from cellspec.fibpoly import (
    IntPolynomial, divisors, fib_irreducible_factor, root_bound, squarefree_part
)
from cellspec.higher_rank import (
    assembly_search, assembly_violations, b_family_matrix, special_modules
)
from cellspec.intmat import (
    IntMatrix, gram, is_irreducible_nonneg, pf_vector, slot_ranges, spectrum_in_range
)
from cellspec.quiver import ZigzagAlgebra
from cellspec.staircase import brute_force_under4, make_staircase
from test_cli import run_cli, run_json

A2, A3 = CoxeterSystem.from_name("A2"), CoxeterSystem.from_name("A3")
# rank 4 with r - 1 = 3 bonds, so it passes the tree count: a triangle on
# 1, 2, 3 and the isolated vertex 4
TRIANGLE_AND_POINT = CoxeterSystem._from_edges(
    "triangle+A1", 4, {(1, 2): 3, (2, 3): 3, (1, 3): 3}
)
WIDE = IntMatrix.from_rows([[1, 0, 1]])
P = IntPolynomial([1, 1])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: is_reduced(A2, (1, 3)), ValueError, "letter 3 outside 1..2"),
        (lambda: divmod(P, 0), ZeroDivisionError, "polynomial division by zero"),
        (lambda: divisors(0), ValueError, "positive integer required"),
        (lambda: fib_irreducible_factor(-1), ValueError, "index must be non-negative"),
        (lambda: squarefree_part(IntPolynomial()), ValueError,
         "zero polynomial has no squarefree part"),
        (lambda: b_family_matrix(3, 3), ValueError, "family must be 1 or 2"),
        (lambda: special_modules("G2"), ValueError,
         "no reference candidates stored for 'G2'"),
        (lambda: assembly_search(CoxeterSystem.from_name("A1")), ValueError,
         "assembly needs rank at least 2"),
        (lambda: assembly_search(TRIANGLE_AND_POINT), ValueError,
         "diagram must be connected"),
        (lambda: IntMatrix.from_rows([[]]), ValueError, "rows of width zero"),
        (lambda: WIDE @ WIDE, ValueError, "inner dimension mismatch"),
        (lambda: WIDE.trace(), ValueError, "trace needs a square matrix"),
        (lambda: gram(WIDE, "top"), ValueError,
         "side must be 'left' or 'right', got 'top'"),
        (lambda: slot_ranges((1, 0), 1), ValueError,
         "block sizes must be positive and sum to the dimension"),
        (lambda: slot_ranges((1, 2), 4), ValueError,
         "block sizes must be positive and sum to the dimension"),
        (lambda: is_irreducible_nonneg(WIDE), ValueError,
         "irreducibility needs a square matrix"),
        (lambda: pf_vector(IntMatrix.identity(2)), ValueError,
         "matrix is not irreducible"),
        (lambda: ZigzagAlgebra.from_graph(0, []), ValueError,
         "at least one vertex required"),
        (lambda: ZigzagAlgebra.from_m_matrix(WIDE), ValueError,
         "matrix must be square"),
        (lambda: ZigzagAlgebra.from_graph(2, [(1, 2)]).loewy_layers(3), ValueError,
         "vertex out of range"),
        (lambda: make_staircase(0, 1), ValueError, "shape entries must be positive"),
        (lambda: brute_force_under4(2, 0), ValueError,
         "shape entries must be positive"),
        (lambda: brute_force_under4(2, 2, max_entry=0), ValueError,
         "max_entry must be at least 1"),
    ],
)
def test_refusal_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def unsupported(op, left, right):
    return TypeError(f"unsupported operand type(s) for {op}: '{left}' and '{right}'")


@pytest.mark.parametrize(
    "operation, expected",
    [
        # each operand refusal returns NotImplemented, so Python tries the
        # float's reflected method and then raises its own TypeError
        (lambda: P == 1.5, False),
        (lambda: P + 1.5, unsupported("+", "IntPolynomial", "float")),
        (lambda: P - 1.5, unsupported("-", "IntPolynomial", "float")),
        (lambda: 1.5 - P, unsupported("-", "float", "IntPolynomial")),
        (lambda: P * 1.5, unsupported("*", "IntPolynomial", "float")),
        (lambda: divmod(P, 1.5), unsupported("divmod()", "IntPolynomial", "float")),
        (lambda: 1.5 * WIDE, unsupported("*", "float", "IntMatrix")),
        (lambda: 3 - P, IntPolynomial([2, -1])),
        (lambda: IntPolynomial().leading_coefficient, 0),
    ],
    ids=["eq", "add", "sub", "rsub", "mul", "divmod", "matrix-rmul", "rsub-int",
         "zero-leading-coefficient"],
)
def test_operator_surface(operation, expected):
    if isinstance(expected, TypeError):
        with pytest.raises(TypeError) as caught:
            operation()
        assert str(caught.value) == str(expected)
    else:
        result = operation()
        assert result == expected and type(result) is type(expected)


class TestEdgeCases:
    def test_assembly_violations_of_a_mismatched_size_vector(self):
        m = IntMatrix.from_rows([[2, 1], [1, 2]])
        problems = assembly_violations(A3, (1, 1), m)
        assert problems == ["size vector does not match the rank"]

    def test_assembly_violations_of_a_size_total_off_the_rank(self):
        candidate = b_family_matrix(3, 1)  # sizes (2, 1, 1): total 4, rank 3
        system = CoxeterSystem.from_name("B3")
        assert assembly_violations(system, candidate.sizes, candidate.matrix) == []
        problems = assembly_violations(
            system, candidate.sizes, candidate.matrix, require_size_multiple=True
        )
        assert problems == ["total size is not a multiple of the rank"]

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_no_word_has_length_at_most_zero(self, max_length):
        assert enumerate_J(A3, max_length=max_length) == []
        assert cell_table(A3, max_length=max_length).size == 0

    @pytest.mark.parametrize("coeffs", [(), (5,), (-3,)])
    def test_root_bound_of_a_constant(self, coeffs):
        assert root_bound(IntPolynomial(coeffs)) == 1

    def test_empty_spectrum_lies_in_every_range(self):
        empty = IntMatrix(())
        assert spectrum_in_range(empty, 0, 4) and spectrum_in_range(empty, 5, 6)

    def test_no_dihedral_product_is_zero(self):
        # dihedral-table writes every product as a nonempty sum of words
        for n in range(3, 31):
            _, gamma = structure_constants(n)
            assert all(any(row) for plane in gamma for row in plane), n


class TestCliEdges:
    @pytest.mark.parametrize("text", ["[]", "5", '{"entries": []}'])
    def test_matrix_that_is_not_a_list_of_rows(self, capsys, text):
        code, out, err = run_cli(capsys, "matspec", "--matrix", text)
        message = "error: matrix must be a non-empty list of rows\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize(
        "args, message",
        [(("--rows", "0", "--cols", "2"), "shape entries must be positive"),
         (("--rows", "2", "--cols", "-20", "--no-prefilter"),
          "shape entries must be positive"),
         (("--rows", "2", "--cols", "2", "--max-entry", "0"),
          "max_entry must be at least 1")],
    )
    def test_oracle_domain_errors_skip_the_size_check(self, capsys, args, message):
        code, out, err = run_cli(capsys, "oracle-under4", *args)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_output_number_past_the_digit_limit(self, capsys, json_flag):
        # the entry parses; its square, in the Gram minimal polynomial, has
        # 6,000 digits, past the interpreter's limit for int to str
        limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter is told
        matrix = f"[[{'7' * 3000}]]"
        code, out, err = run_cli(capsys, "matspec", "--matrix", matrix, *json_flag)
        message = f"error: matspec: an output number has more than {limit} digits\n"
        assert (code, out, err) == (1, "", message)

    def test_words_of_rank_10_are_lists(self, capsys):
        results = run_json(capsys, "cells", "A10", "--max-length", "1")["results"]
        assert results["elements"] == [[g] for g in range(1, 11)]
        code, out, _ = run_cli(capsys, "cells", "A10", "--max-length", "1")
        assert code == 0 and out.splitlines()[-1] == "R10 x L10: [10]"

    def test_max_length_zero_gives_the_empty_table(self, capsys):
        results = run_json(capsys, "cells", "A3", "--max-length", "0")["results"]
        assert (results["size"], results["elements"]) == (0, [])

    @pytest.mark.parametrize(
        "argv, message",
        [(("special", "--type", "G2"), "no reference candidates stored for 'G2'"),
         (("quiver", "--matrix", "[[2,1]]"), "matrix must be square")],
    )
    def test_library_refusals_reach_stderr(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestParseFailures:
    """Input json.loads refuses is named by its flag and the failed check."""

    @staticmethod
    def run(capsys, tmp_path, flag, text):
        if flag == "--gamma-file":
            text = '{"gamma": ' + text + "}"
        if flag != "--matrix":
            path = tmp_path / "input.json"
            path.write_text(text, encoding="utf-8")
            text = str(path)
        command = "cells-of-algebra" if flag == "--gamma-file" else "matspec"
        return run_cli(capsys, command, flag, text)

    @pytest.mark.parametrize("flag", ["--matrix", "--matrix-file", "--gamma-file"])
    def test_malformed_json(self, capsys, tmp_path, flag):
        code, out, err = self.run(capsys, tmp_path, flag, "[[1,0]")
        column = 7 if flag != "--gamma-file" else 17
        message = (f"error: {flag} is not valid JSON: Expecting ',' delimiter: "
                   f"line 1 column {column} (char {column - 1})\n")
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("flag", ["--matrix", "--matrix-file", "--gamma-file"])
    def test_integer_past_the_digit_limit(self, capsys, tmp_path, flag):
        limit = sys.get_int_max_str_digits()  # 4300 unless the interpreter is told
        code, out, err = self.run(capsys, tmp_path, flag, f"[[{'7' * (limit + 1)}]]")
        message = f"error: {flag} holds an integer of more than {limit} digits\n"
        assert (code, out, err) == (1, "", message)
