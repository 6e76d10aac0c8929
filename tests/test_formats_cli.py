"""Text formats and the command-line interface."""

import importlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import types
from decimal import Decimal
from fractions import Fraction

import pytest

import cdslab
from cdslab import cli, counting, f2, formats, oracle, perms, verify
from cdslab.cli import run
from cdslab.errors import ContractError
from cdslab.graphs import RootedGraph
from test_convert import _reference_realize, seeded_move_graphs

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def read(name: str) -> str:
    with open(data_path(name), encoding="utf-8") as fh:
        return fh.read()


class TestFormats:
    def test_matrix_roundtrip(self):
        m = f2.F2Matrix([[0, 1, 1], [1, 0, 0], [1, 0, 0]])
        text = formats.format_matrix(m)
        assert text == "011\n100\n100\n"
        assert formats.parse_matrix(text) == m

    def test_matrix_rejects_bad_text(self):
        with pytest.raises(ContractError):
            formats.parse_matrix("01\n1")
        with pytest.raises(ContractError):
            formats.parse_matrix("0a\n10")
        with pytest.raises(ContractError):
            formats.parse_matrix("")

    def test_permutation_roundtrip(self):
        p = perms.Permutation([3, 2, 5, 1, 4])
        assert formats.format_permutation(p) == "[3,2,5,1,4]"
        assert formats.parse_permutation("[3,2,5,1,4]") == p
        assert formats.parse_permutation(" 3 2 5 1 4 ") == p
        assert formats.parse_permutation("(3 2 5 1 4)") == p

    def test_permutation_rejects_bad_text(self):
        with pytest.raises(ContractError):
            formats.parse_permutation("[3,2,]")
        with pytest.raises(ContractError):
            formats.parse_permutation("[1,1]")
        # both would be permutations if the empty entry were dropped
        for text in ("[1,2,]", "1,,2"):
            with pytest.raises(ContractError, match="empty entry"):
                formats.parse_permutation(text)
        assert formats.parse_permutation("[2 , 1]") == perms.Permutation([2, 1])

    def test_graph_header_form(self):
        text = "4 1 4\n2 3\n2 4\n3 4\n"
        g = formats.parse_graph(text)
        assert g.n == 4
        assert g.edges() == ((1, 2), (1, 3), (2, 3))
        assert formats.parse_graph(formats.format_graph(g)) == g

    def test_graph_matrix_form(self):
        g = formats.parse_graph(read("overlap_9.txt"))
        assert g.n == 9
        assert g.roots == (0, 8)

    def test_graph_rejects_bad_text(self):
        with pytest.raises(ContractError):
            formats.parse_graph("4 1 1\n")
        with pytest.raises(ContractError):
            formats.parse_graph("4 1 4\n5 1\n")


    def test_ratio(self):
        assert formats.format_ratio(Fraction(17, 64)) == "0.266"
        assert formats.format_ratio(Fraction(1, 8)) == "0.125"
        assert formats.format_ratio(Fraction(0)) == "0.000"
        assert formats.format_ratio(Fraction(9999, 10000)) == "1.000"

    def test_int_digits_at_any_size(self):
        """Digits read back through decimal, which parses any length."""
        rng = random.Random(5)
        for bits in (1, 64, 2047, 2048, 2049, 5000, 20000, 70001):
            value = rng.getrandbits(bits) | 1 << (bits - 1)
            for v in (value, -value):
                text = formats.format_int(v)
                assert int(Decimal(text)) == v
                assert text.lstrip("-")[0] != "0"
        assert formats.format_int(0) == "0"

    def test_json_text_matches_json_dumps(self):
        payload = {
            "a": [1, [], {}, {"b": None, "c": (2, -3)}],
            "d": True,
            "e": "\u00e9\n\"",
            "f": 1.5,
            "g": [[0], False],
        }
        assert formats._json_text(payload, "") == json.dumps(payload, indent=2)
        # every escape json.dumps makes: control and Latin-1 characters, the
        # line separator, the last BMP code point, a surrogate pair and a lone
        # surrogate; each alone, and all in one string and as keys
        chars = [chr(c) for c in range(0x100)]
        chars += ["\u2028", "\uffff", "\U0001f600", "\ud800"]
        strings = {"each": chars, "all": "".join(chars), "keys": dict.fromkeys(chars)}
        assert formats.format_json(strings) == json.dumps(strings, indent=2)
        floats = [0.1, -0.0, 1e300, 5e-324, float("nan"), float("inf"), -float("inf")]
        value = {"floats": floats, "keys": dict.fromkeys(floats, 1.5)}
        assert formats.format_json(value) == json.dumps(value, indent=2)
        big = {"n": [-(3**20000), {"m": 7**9000}], "k": "x"}
        parsed = json.loads(
            formats.format_json(big), parse_int=lambda s: int(Decimal(s))
        )
        assert parsed == big


    def test_json_ints_past_the_digit_limit_match_json_dumps(self):
        big = 7**9000  # 7607 digits, past the interpreter's default limit
        value = {"n": [3, big, -big], big: [True, (big,)], "m": -big}
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            expected = json.dumps(value, indent=2)
        finally:
            sys.set_int_max_str_digits(limit)
        assert formats.format_json(value) == expected


class TestPermCommands:
    def test_check_unsortable(self, capsys):
        assert run(["perm", "check", "[3,2,5,1,4]"]) == 0
        assert capsys.readouterr().out.strip() == "UNSORTABLE SP=(4,2)"

    def test_check_sortable(self, capsys):
        assert run(["perm", "check", "[1,3,2]"]) == 0
        assert capsys.readouterr().out.strip() == "SORTABLE"

    def test_check_json(self, capsys):
        assert run(["perm", "check", "[3,2,5,1,4]", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "command": "perm.check",
            "permutation": [3, 2, 5, 1, 4],
            "sortable": False,
            "strategic_pile": [4, 2],
        }

    def test_sort_trace(self, capsys):
        assert run(["perm", "sort", "[1,4,2,5,3]"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[1,4,2,5,3]",
            "swap 1 3 -> [1,2,5,3,4]",
            "swap 2 4 -> [1,2,3,4,5]",
            "SORTED in 2 moves",
        ]

    def test_sort_unsortable_fails(self, capsys):
        assert run(["perm", "sort", "[3,2,5,1,4]"]) == 1
        assert "UNSORTABLE SP=(4,2)" in capsys.readouterr().out

    def test_cycles_and_pile(self, capsys):
        assert run(["perm", "cycles", "[3,2,5,1,4]"]) == 0
        assert capsys.readouterr().out.strip() == "(0 5 4 2)(1 3)"
        assert run(["perm", "pile", "[3,2,5,1,4]"]) == 0
        assert capsys.readouterr().out.strip() == "SP=(4,2)"

    def test_check_refuses_mismatched_brackets(self, capsys):
        for text in ("[1,2)", "(2 1]"):
            assert run(["perm", "check", text]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: mismatched brackets around permutation {text!r}\n"
            )

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("[2,1]\n"))
        assert run(["perm", "check", "-"]) == 0
        assert capsys.readouterr().out.strip() == "UNSORTABLE SP=(1)"


class TestGraphCommands:
    GRAPH = "4 1 4\n2 3\n2 4\n3 4\n"

    def test_check(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(self.GRAPH)
        assert run(["graph", "check", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "SORTABLE distance=1"

    def test_gcds_sorts(self, capsys):
        assert run(["graph", "gcds", self.GRAPH, "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "4 1 4"

    def test_gcds_rejects_roots(self, capsys):
        assert run(["graph", "gcds", self.GRAPH, "1", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot swap on vertices 1, 2")
        assert run(["graph", "gcds", self.GRAPH, "0", "2"]) == 1
        assert capsys.readouterr().err == "error: vertices are numbered from 1\n"

    def test_gcds_names_out_of_range_vertices_as_typed(self, capsys):
        assert run(["graph", "gcds", "4 1 4\n2 3\n", "2", "5"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: cannot swap on vertices 2, 5: vertices run from 1 to 4\n",
        )

    def test_check_names_what_is_wrong_with_a_matrix(self, capsys):
        assert run(["graph", "check", "0110"]) == 1
        assert capsys.readouterr().err == (
            "error: adjacency matrix must be square, got 1x4\n"
        )
        assert run(["graph", "check", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: a two-rooted graph needs at least 2 vertices\n"
        )

    def test_cuts(self, capsys):
        assert run(["graph", "cuts", self.GRAPH]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "4 cuts",
            "{}",
            "{1}",
            "{2,3,4}",
            "{1,2,3,4}",
        ]

    def test_cuts_json(self, capsys):
        assert run(["graph", "cuts", self.GRAPH, "--json"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "command": "graph.cuts",\n  "n": 4,\n  "count": 4,\n  "cuts": [\n'
            "    [],\n    [\n      1\n    ],\n    [\n      2,\n      3,\n      4\n"
            "    ],\n    [\n      1,\n      2,\n      3,\n      4\n    ]\n  ]\n}\n"
        )

    def test_check_refuses_an_edge_listed_twice(self, capsys):
        for repeat in ("1 2", "2 1"):
            assert run(["graph", "check", "3 1 3\n1 2\n" + repeat + "\n"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: edge 2 of the list repeats an earlier one\n"

    def test_check_names_a_self_loop_as_typed(self, capsys):
        assert run(["graph", "check", "3 1 3\n2 2\n"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: self-loop at vertex 2 not allowed\n"
        # library callers pass 0-based vertices, and read them back so
        with pytest.raises(ContractError, match="self-loop at vertex 1 not"):
            RootedGraph.from_edges(3, [(1, 1)])

    def test_props(self, capsys):
        assert run(["graph", "props", self.GRAPH]) == 0
        assert capsys.readouterr().out.strip() == "eulerian=yes a=yes b=no c=no"


class TestMatrixCommands:
    TRIANGLE = "0110\n1010\n1100\n0000\n"

    def test_rank_and_kernel(self, capsys):
        assert run(["matrix", "rank", read("overlap_9.txt")]) == 0
        assert capsys.readouterr().out.strip() == "6"
        assert run(["matrix", "kernel", self.TRIANGLE]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "dimension 2"
        m = formats.parse_matrix(self.TRIANGLE)
        for line in out[1:]:
            assert m.mat_vec(formats.parse_matrix(line).rows[0]) == 0

    def test_kernel_output_is_pinned(self, capsys):
        pins = (
            (self.TRIANGLE, ["1110", "0001"]),
            (read("overlap_9.txt"), ["000010000", "111101110", "000000001"]),
        )
        for text, basis in pins:
            assert run(["matrix", "kernel", text]) == 0
            assert capsys.readouterr().out == "\n".join(
                [f"dimension {len(basis)}", *basis, ""]
            )
            assert run(["matrix", "kernel", text, "--json"]) == 0
            assert capsys.readouterr().out == (
                '{\n  "command": "matrix.kernel",\n'
                f'  "dimension": {len(basis)},\n  "basis": [\n'
                + ",\n".join(f'    "{b}"' for b in basis)
                + "\n  ]\n}\n"
            )

    def test_kernel_of_full_rank_matrix_is_empty(self, capsys):
        assert run(["matrix", "kernel", "010\n100\n001\n"]) == 0
        assert capsys.readouterr().out == "dimension 0\n"
        assert run(["matrix", "kernel", "010\n100\n001\n", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"command": "matrix.kernel", "dimension": 0, "basis": []}

    def test_mcds(self, capsys):
        assert run(["matrix", "mcds", self.TRIANGLE, "1", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0000"] * 4

    def test_mcds_invalid(self, capsys):
        assert run(["matrix", "mcds", self.TRIANGLE, "1", "4"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot swap on indices 1, 4"
        )
        assert run(["matrix", "mcds", self.TRIANGLE, "1", "0"]) == 1
        assert capsys.readouterr().err == "error: indices are numbered from 1\n"

    def test_mcds_names_out_of_range_indices_as_typed(self, capsys):
        assert run(["matrix", "mcds", self.TRIANGLE, "5", "6"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: cannot swap on indices 5, 6: indices run from 1 to 4\n",
        )
        # a non-square matrix has no index range: its shape is the error
        for p, q in (("1", "2"), ("5", "6")):
            assert run(["matrix", "mcds", "011\n101\n", p, q]) == 1
            assert capsys.readouterr().err == (
                "error: mcds needs a square matrix, got (2, 3)\n"
            )


class TestConvertRealize:
    def test_convert_roundtrip(self, capsys):
        assert run(["convert", "adj2prec", read("overlap_9.txt")]) == 0
        precedence = capsys.readouterr().out
        assert precedence == read("precedence_10.txt")
        assert run(["convert", "prec2adj", precedence]) == 0
        assert capsys.readouterr().out == read("overlap_9.txt")

    def test_realize_witness(self, capsys):
        assert run(["realize", "011\n101\n110\n"]) == 0
        assert capsys.readouterr().out.strip() == "[3,2,4,1]"

    def test_realize_unrealizable(self, capsys):
        assert run(["realize", "011\n100\n100\n"]) == 1
        assert capsys.readouterr().out.strip() == "UNREALIZABLE"

    def test_realize_json_on_a_flipped_move_graph(self, capsys):
        # the benchmark's M': a 64-vertex move graph with one pair flipped
        (_, flipped), = seeded_move_graphs(65, 1, "cli-realize")
        expected = _reference_realize(flipped)
        code = run(["realize", formats.format_matrix(flipped), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == (1 if expected is None else 0)
        assert payload == {
            "command": "realize",
            "realizable": expected is not None,
            "witness": None if expected is None else list(expected.elements),
        }


class TestCountTable:
    def test_count_default(self, capsys):
        assert run(["count", "--n", "10"]) == 0
        assert capsys.readouterr().out.strip() == "8013328398001"

    def test_count_methods(self, capsys):
        assert run(["count", "--n", "6", "--eulerian"]) == 0
        assert capsys.readouterr().out.strip() == "365"
        assert run(["count", "--n", "6", "--eulerian", "--method", "rank_sum"]) == 0
        assert capsys.readouterr().out.strip() == "589"
        assert run(
            ["count", "--n", "6", "--eulerian", "--method", "brute_force"]
        ) == 0
        assert capsys.readouterr().out.strip() == "589"

    def test_brute_force_counts_reach_the_census_limits(self, capsys):
        argv = ["count", "--n", "8", "--eulerian", "--method", "brute_force"]
        assert run(argv) == 0
        assert capsys.readouterr().out == "1183085\n"
        assert run(["count", "--n", "8", "--method", "brute_force"]) == 1
        assert capsys.readouterr().err == "error: census limited to n <= 7, got 8\n"
        argv = ["count", "--n", "9", "--eulerian", "--method", "brute_force"]
        assert run(argv) == 1
        assert capsys.readouterr().err == (
            "error: Eulerian census limited to n <= 8, got 9\n"
        )

    def test_every_method_refuses_sizes_below_three(self, capsys):
        for method in ("closed_formula", "rank_sum", "brute_force"):
            for n in ("2", "1"):
                assert run(["count", "--n", n, "--method", method]) == 1
                assert capsys.readouterr().err == (
                    f"error: counting needs n >= 3, got {n}\n"
                )

    def test_count_json(self, capsys):
        assert run(["count", "--n", "6", "--eulerian", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 365
        assert payload["method"] == "closed_formula"
        assert payload["eulerian"] is True
        assert payload["n"] == 6

    def test_table_matches_golden(self, capsys):
        assert run(["table", "--max-n", "10"]) == 0
        assert capsys.readouterr().out == read("table10.txt")

    def test_counts_print_in_full_past_the_digit_limit(self, capsys):
        """Counts and totals here have more digits than str() allows."""
        rep = counting.count_sortable(200)
        assert run(["count", "--n", "200", "--json"]) == 0
        payload = json.loads(
            capsys.readouterr().out, parse_int=lambda s: int(Decimal(s))
        )
        assert payload["count"] == rep.count
        assert payload["total"] == rep.total
        num, den = payload["ratio"].split("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == rep.ratio
        assert run(["count", "--n", "200"]) == 0
        assert int(Decimal(capsys.readouterr().out)) == rep.count

    def test_table_prints_in_full_past_the_digit_limit(self, capsys):
        last = counting.count_sortable(170)
        assert run(["table", "--max-n", "170", "--json"]) == 0
        payload = json.loads(
            capsys.readouterr().out, parse_int=lambda s: int(Decimal(s))
        )
        assert payload["rows"][-1]["sortable"] == last.count
        assert run(["table", "--max-n", "170"]) == 0
        cells = capsys.readouterr().out.splitlines()[-1].split()
        assert int(Decimal(cells[2])) == last.count

    def test_table_rejects_tiny(self, capsys):
        assert run(["table", "--max-n", "2"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_table_checks_the_census_limit_first(self, capsys, monkeypatch):
        def no_census(*args, **kwargs):
            raise AssertionError("a census ran")

        monkeypatch.setattr(oracle, "census_bruteforce", no_census)
        assert run(["table", "--max-n", "8", "--brute-force"]) == 1
        assert capsys.readouterr().err == (
            "error: census limited to n <= 7, got 8\n"
        )

    def test_sizes_above_the_count_limit_fail_at_once(self, capsys, monkeypatch):
        def no_terms(*args, **kwargs):
            raise AssertionError("a count was computed")

        monkeypatch.setattr(counting, "_closed_formula_terms", no_terms)
        monkeypatch.setattr(counting, "_rank_counts", no_terms)
        for argv in (
            ["count", "--n", "2001"],
            ["count", "--n", "2001", "--method", "rank_sum"],
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err == (
                "error: counts limited to n <= 2000, got 2001\n"
            )
        assert run(["table", "--max-n", "2001"]) == 1
        assert capsys.readouterr().err == (
            "error: table limited to max-n <= 350, got 2001\n"
        )


    def test_tables_above_the_table_limit_fail_at_once(self, capsys, monkeypatch):
        def no_terms(*args, **kwargs):
            raise AssertionError("a count was computed")

        monkeypatch.setattr(counting, "_closed_formula_terms", no_terms)
        monkeypatch.setattr(counting, "_rank_counts", no_terms)
        for argv in (
            ["table", "--max-n", "351"],
            ["table", "--max-n", "2000", "--json"],
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err == (
                f"error: table limited to max-n <= 350, got {argv[2]}\n"
            )


class TestVerifyCommand:
    def test_suite_passes(self, capsys):
        assert run(["verify", "--suite", "table"]) == 0
        out = capsys.readouterr().out
        assert "suite table:" in out
        assert "FAIL" not in out

    def test_json_schema(self, capsys):
        assert run(["verify", "--suite", "macwilliams", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "verify"
        assert payload["suite"] == "macwilliams"
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_unknown_suite_is_a_usage_error(self, capsys):
        assert run(["verify", "--suite", "nonsense"]) == 2

    def test_max_n_with_all_suites_fails_at_once(self, capsys, monkeypatch):
        def no_suite(*args):
            raise AssertionError("a suite ran")

        monkeypatch.setitem(verify._SUITES, "table", (no_suite, 10, None))
        assert run(["verify", "--suite", "all", "--max-n", "2"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: --max-n applies to a single suite, not to all\n",
        )

    def test_convergence_above_its_limit_fails_at_once(self, capsys, monkeypatch):
        def no_terms(*args):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(counting, "_closed_formula_terms", no_terms)
        assert run(["verify", "--suite", "convergence", "--max-n", "121"]) == 1
        assert capsys.readouterr().err == (
            "error: convergence report limited to max_n <= 120, got 121\n"
        )

    def test_tables_above_the_table_limit_fail_at_once(self, capsys, monkeypatch):
        def no_terms(*args, **kwargs):
            raise AssertionError("a count was computed")

        monkeypatch.setattr(counting, "_closed_formula_terms", no_terms)
        monkeypatch.setattr(counting, "_rank_counts", no_terms)
        for max_n in ("351", "2001"):
            assert run(["verify", "--suite", "table", "--max-n", max_n]) == 1
            assert capsys.readouterr() == (
                "",
                f"error: table limited to max-n <= 350, got {max_n}\n",
            )

    @pytest.mark.parametrize("command", [["table"], ["verify", "--suite", "table"]])
    @pytest.mark.parametrize("max_n", ["1", "2"])
    def test_tables_below_their_floor_fail_at_once(
        self, command, max_n, capsys, monkeypatch
    ):
        def no_count(*args, **kwargs):
            raise AssertionError("a count was computed")

        for name in ("_closed_formula_terms", "_rank_counts", "count_sortable"):
            monkeypatch.setattr(counting, name, no_count)
        assert run([*command, "--max-n", max_n]) == 1
        assert capsys.readouterr() == (
            "",
            f"error: the table starts at n=3, got max-n {max_n}\n",
        )

    def test_convergence_below_its_floor_fails_at_once(self, capsys, monkeypatch):
        def no_terms(*args):
            raise AssertionError("a term was computed")

        monkeypatch.setattr(counting, "_closed_formula_terms", no_terms)
        assert run(["verify", "--suite", "convergence", "--max-n", "9"]) == 1
        assert capsys.readouterr() == (
            "",
            "error: convergence report needs max_n >= 10, got 9\n",
        )

    def test_random_suite_refuses_sizes_without_graph_swaps(self, capsys, monkeypatch):
        def no_family(*args):
            raise AssertionError("a random family ran")

        monkeypatch.setattr(verify, "_random_family", no_family)
        for max_n in ("1", "3"):
            assert run(["verify", "--suite", "random", "--max-n", max_n]) == 1
            assert capsys.readouterr() == (
                "",
                f"error: the random checks need max-n >= 4, got {max_n}\n",
            )

    CAPPED_SUITES = [
        (name, largest)
        for name, (_, _, largest) in verify._SUITES.items()
        if largest is not None
    ]

    @pytest.mark.parametrize("suite,largest", CAPPED_SUITES)
    def test_capped_suites_refuse_past_their_largest_max_n(
        self, suite, largest, capsys, monkeypatch
    ):
        _, default, _ = verify._SUITES[suite]
        assert default <= largest
        sizes = []

        def no_suite(max_n):
            raise AssertionError("the suite ran")

        def record(max_n):
            sizes.append(max_n)
            return [verify.CheckLine("ran", True)]

        monkeypatch.setitem(verify._SUITES, suite, (no_suite, default, largest))
        too_big = str(largest + 1)
        assert run(["verify", "--suite", suite, "--max-n", too_big]) == 1
        assert capsys.readouterr() == (
            "",
            f"error: {suite} suite limited to max-n <= {largest}, got {too_big}\n",
        )
        monkeypatch.setitem(verify._SUITES, suite, (record, default, largest))
        assert verify.run_suite(suite, max_n=largest).passed
        assert sizes == [largest]

    @pytest.mark.parametrize(
        "suite,max_n,error",
        [
            ("census", "2", "the census checks start at n=3, got max-n 2"),
            ("eulerian", "2", "the census checks start at n=3, got max-n 2"),
            ("census", "8", "census limited to n <= 7, got 8"),
            ("census", "9", "census limited to n <= 7, got 9"),
            ("eulerian", "9", "Eulerian census limited to n <= 8, got 9"),
        ],
    )
    def test_census_suites_refuse_sizes_they_cannot_check(
        self, suite, max_n, error, capsys, monkeypatch
    ):
        def no_census(*args, **kwargs):
            raise AssertionError("a census ran")

        monkeypatch.setattr(oracle, "census_bruteforce", no_census)
        assert run(["verify", "--suite", suite, "--max-n", max_n]) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")

    def test_eulerian_suite_reaches_its_census_limit(self, capsys):
        assert run(["verify", "--suite", "eulerian"]) == 0
        out = capsys.readouterr().out
        assert (
            "PASS eulerian census n=8: census=1183085 closed=259533 "
            "rank_sum=1183085 matches=rank_sum\n"
        ) in out
        assert "suite eulerian: 7/7 checks passed" in out

    def test_a_suite_with_no_check_lines_fails(self, capsys, monkeypatch):
        monkeypatch.setitem(verify._SUITES, "table", (lambda max_n: [], 10, None))
        assert run(["verify", "--suite", "table"]) == 1
        assert capsys.readouterr().out.startswith("suite table: 0/0 checks passed")
        assert run(["verify", "--suite", "table", "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False

    def test_random_check_records_the_first_exception(self):
        line = verify._random_family("x", 3, lambda: (0,), lambda v: 1 // v)
        assert not line.passed
        assert line.detail.endswith(
            "; first error ZeroDivisionError: integer division or modulo by zero"
        )


    def test_kernel_blocks_distance_lines_are_pinned(self):
        for suite, lines in PINNED_LINES.items():
            report = verify.run_suite(suite, max_n=5)
            got = [(c.name, c.passed, c.detail) for c in report.checks]
            assert got == lines, suite

    def test_maximal_sequences_catch_a_distance_one_short(self, monkeypatch):
        # a search reaching past the distance is what the maximal-sequence
        # lines rule out, so a distance one short must fail them, from the
        # first n with a move (n = 4)
        distance = f2.mcds_distance
        monkeypatch.setattr(f2, "mcds_distance", lambda m: max(distance(m) - 1, 0))
        report = verify.run_suite("distance", max_n=4)
        got = [(c.name, c.passed) for c in report.checks]
        assert got == [
            ("maximal sequences n=2", True),
            ("maximal sequences n=3", True),
            ("maximal sequences n=4", False),
        ]


# Every check line of three suites at max_n = 5: names, order, outcomes and
# details. A refactor that drops, renames or reorders a line fails here.
_SWAPS = " moves; even degrees and root separation preserved"
_PLACEMENT = " graphs: separation xor containment, separation iff sortable"
_SEQUENCES = (
    " sortable; every maximal sequence has length rank/2, "
    "ends edgeless iff sortable"
)
_EXTENSIONS = "4^rank sortable, 2^rank even-degree sortable"
PINNED_LINES = {
    "kernel": [
        ("generalized cuts vs scan n=2", True, ""),
        ("generalized cuts vs scan n=3", True, ""),
        ("generalized cuts vs scan n=4", True, ""),
        ("generalized cuts vs scan n=5", True, ""),
        ("eulerian cut space equals kernel n=2", True, "1 graphs"),
        ("eulerian cut space equals kernel n=3", True, "2 graphs"),
        ("eulerian cut space equals kernel n=4", True, "8 graphs"),
        ("eulerian cut space equals kernel n=5", True, "64 graphs"),
        ("cut correspondence under swaps n=2", True, "0" + _SWAPS),
        ("cut correspondence under swaps n=3", True, "0" + _SWAPS),
        ("cut correspondence under swaps n=4", True, "32" + _SWAPS),
        ("cut correspondence under swaps n=5", True, "1536" + _SWAPS),
        ("cycle vectors orthogonal n<=5", True, ""),
        ("cycle vectors span overlap kernel n<=5", True, "153 permutations"),
        ("cycle unions are root-even cuts n<=5", True, ""),
        ("pile vector central-kernel membership n<=5", True, "62 nonempty piles"),
        ("sortable kernels need no end rows n<=5", True, "91 sortable permutations"),
        ("no overlap graph separates roots oddly n<=5", True, ""),
        ("eulerian root placement n=2", True, "1" + _PLACEMENT),
        ("eulerian root placement n=3", True, "2" + _PLACEMENT),
        ("eulerian root placement n=4", True, "8" + _PLACEMENT),
        ("eulerian root placement n=5", True, "64" + _PLACEMENT),
    ],
    "blocks": [
        ("border form symmetric t<=3", True, ""),
        ("bordering equality matches kernel offsets t<=3", True, ""),
        ("complement bordering rule n<=5", True, "36 solvable instances"),
        ("sortable decomposition n=2", True, "1 sortable graphs"),
        ("sortable decomposition n=3", True, "1 sortable graphs"),
        ("sortable decomposition n=4", True, "17 sortable graphs"),
        ("sortable decomposition n=5", True, "113 sortable graphs"),
        ("sampled decomposition n<=5", True, "0 random bordered graphs"),
        ("extension counts t=0", True, _EXTENSIONS),
        ("extension counts t=1", True, _EXTENSIONS),
        ("extension counts t=2", True, _EXTENSIONS),
        ("extension counts t=3", True, _EXTENSIONS),
    ],
    "distance": [
        ("maximal sequences n=2", True, "2 graphs, 1" + _SEQUENCES),
        ("maximal sequences n=3", True, "8 graphs, 1" + _SEQUENCES),
        ("maximal sequences n=4", True, "64 graphs, 17" + _SEQUENCES),
        ("maximal sequences n=5", True, "1024 graphs, 113" + _SEQUENCES),
    ],
}


# each command path, with the cdslab modules it loads beyond cli, errors and
# formats; the first row is a bare `import cdslab.cli`
_GRAPH = "4 1 4\n2 3\n2 4\n3 4\n"
_MATRIX = "0110\n1010\n1100\n0000\n"
_PRECEDENCE = "0111\n0011\n0001\n0000\n"
_GF2_VIEW = {"cli_gf2", "convert", "f2", "perms"}
COMMAND_MODULES = [
    (None, set()),
    *(
        (["perm", cmd, "[1,4,2,5,3]"], {"cli_perm", "perms"})
        for cmd in ("sort", "check", "cycles", "pile")
    ),
    (["graph", "check", _GRAPH], {"cli_gf2", "graphs", "f2"}),
    (["graph", "gcds", _GRAPH, "2", "3"], {"cli_gf2", "graphs", "f2"}),
    (["graph", "cuts", _GRAPH], {"cli_gf2", "graphs", "f2"}),
    (["graph", "props", _GRAPH], {"cli_gf2", "graphs", "f2"}),
    (["matrix", "mcds", _MATRIX, "1", "2"], {"cli_gf2", "f2"}),
    (["matrix", "rank", _MATRIX], {"cli_gf2", "f2"}),
    (["matrix", "kernel", _MATRIX], {"cli_gf2", "f2"}),
    (["realize", "011\n101\n110\n"], _GF2_VIEW),
    (["convert", "adj2prec", "000\n000\n000\n"], _GF2_VIEW),
    (["convert", "prec2adj", _PRECEDENCE], _GF2_VIEW),
    (["count", "--n", "5"], {"counting"}),
    (["count", "--n", "160", "--method", "rank_sum"], {"counting"}),
    (["count", "--n", "160", "--eulerian"], {"counting"}),
    (["count", "--n", "6", "--method", "brute_force"], {"counting", "oracle"}),
    (
        ["verify", "--suite", "table"],
        {
            "convergence",
            "convert",
            "counting",
            "f2",
            "graphs",
            "oracle",
            "oracle_search",
            "perms",
            "verify",
        },
    ),
]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run(["perm"]) == 2

    def test_threads_flag_is_accepted_and_ignored(self, capsys):
        base = ["count", "--n", "5", "--method", "brute_force"]
        for extra in (["--threads", "1"], ["--threads", "4"], []):
            assert run(base + extra) == 0
            assert capsys.readouterr().out.strip() == "113"

    @pytest.mark.parametrize(
        "argv,modules",
        COMMAND_MODULES,
        ids=[
            "import" if a is None else "_".join(w for w in a[:2] if w[0] != "-")
            for a, _ in COMMAND_MODULES
        ],
    )
    def test_each_command_loads_its_own_modules(self, argv, modules):
        # a fresh interpreter per row runs the row's argv as text and then
        # with --json (the None row only imports cli); every command also
        # loads cdslab.cli, cdslab.errors and cdslab.formats, and none of
        # the forbidden standard modules
        forbidden = FORBIDDEN - RATIO_IMPORTS if "verify" in modules else FORBIDDEN
        code = f"""
import contextlib, io, sys
from cdslab.cli import run
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [] if argv is None else [run(argv), run(argv + ["--json"])]
base = {{"cdslab", "cdslab.cli", "cdslab.errors", "cdslab.formats"}}
cdslab = [m for m in sys.modules if m.split(".")[0] == "cdslab"]
slow = {forbidden!r}
print(codes, sorted(set(cdslab) - base), sorted(m for m in sys.modules if m in slow))
"""
        want = [f"cdslab.{m}" for m in sorted(modules)]
        codes = [] if argv is None else [0, 0]
        assert fresh_interpreter(code) == f"{codes} {want} []"

    def test_parser_tables_match_their_modules(self):
        assert tuple(name for name, _ in cli._SUITES) == verify.SUITE_NAMES
        assert cli._COUNT_METHODS == counting.COUNT_METHODS

    def test_every_handler_resolves_in_its_module(self):
        # run imports a handler by module and name only when it dispatches,
        # so a renamed handler would otherwise fail only on its own command
        parser = cli.build_parser()
        handlers = [(module, fn) for _, _, module, fn, _ in cli._COMMANDS]
        for argv in (
            ["realize"],
            ["count", "--n", "3"],
            ["table"],
            ["verify", "--suite", "all"],
        ):
            handlers.append(parser.parse_args(argv).handler)
        assert ("cli_gf2", "_cmd_realize") in handlers
        for module, fn in handlers:
            home = importlib.import_module(f"cdslab.{module}")
            assert callable(getattr(home, fn, None)), f"{module}.{fn}"

    def test_closed_output_pipe_exits_without_a_traceback(self):
        # the table is far larger than a pipe's buffer, so the command is
        # still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "cdslab", "table", "--max-n", "100"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.stdout.read(3) == b"  n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err
        assert err == ""


# standard modules no command path loads: dataclasses pulls in inspect, ast,
# dis and tokenize, and fractions pulls in decimal and numbers (count writes
# its ratio from ints); JSON is written without the json package, and no
# command starts a process pool
FORBIDDEN = {
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "numbers",
    "json",
    "multiprocessing",
    "concurrent.futures",
}
# but verify's table suite checks ratio digits, which need fractions
RATIO_IMPORTS = {"fractions", "decimal", "numbers"}


# the directory this cdslab is imported from
SRC = os.path.dirname(os.path.dirname(cdslab.__file__))


def fresh_interpreter(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports this cdslab."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestCliDigest:
    def test_quick_corpus_digests_every_subcommand(self):
        path = os.path.join(os.path.dirname(SRC), "scripts", "cli_digest.py")
        spec = importlib.util.spec_from_file_location("cli_digest", path)
        digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digest)
        got = digest.digests(quick=True)
        commands = {f"{group} {name}" for group, name, *_ in cli._COMMANDS}
        suites = {f"verify {name}" for name in digest.QUICK_SUITES}
        want = commands | suites | {"realize", "count", "table", "verify all"}
        assert set(got) == want
        assert all(len(h) == 64 and int(h, 16) >= 0 for h in got.values())


class TestPackage:
    def test_public_names_are_their_home_modules_objects(self):
        for name in cdslab.__all__:
            value = getattr(cdslab, name)
            if isinstance(value, types.ModuleType):
                assert value is importlib.import_module(f"cdslab.{name}")
            elif name != "__version__":
                home = importlib.import_module(value.__module__)
                assert getattr(home, name) is value, name
        star: dict[str, object] = {}
        exec("from cdslab import *", star)
        assert {n: star[n] for n in cdslab.__all__} == {
            n: getattr(cdslab, n) for n in cdslab.__all__
        }

    def test_benchmark_traced_names_resolve(self):
        # the benchmark wraps these by name; a refactor that drops one fails
        # here rather than in a traced benchmark run
        path = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracing.py"
        )
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        for module, names in tracing.TRACED.items():
            home = importlib.import_module(f"cdslab.{module}")
            for name in names:
                value = home
                for part in name.split("."):
                    value = getattr(value, part, None)
                assert callable(value), f"{module}.{name}"

    def test_unknown_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonsense'"):
            cdslab.nonsense
        assert set(cdslab.__all__) <= set(dir(cdslab))
