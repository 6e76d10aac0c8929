"""Text formats and the command-line interface."""

import io
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import cdslab
from cdslab import counting, f2, formats, oracle, perms, verify
from cdslab.cli import run
from cdslab.errors import ContractError

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

    def test_permutation_rejects_bad_text(self):
        with pytest.raises(ContractError):
            formats.parse_permutation("[3,2,]")
        with pytest.raises(ContractError):
            formats.parse_permutation("[1,1]")

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
        big = {"n": [-(3**20000), {"m": 7**9000}], "k": "x"}
        parsed = json.loads(
            formats.format_json(big), parse_int=lambda s: int(Decimal(s))
        )
        assert parsed == big


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

    def test_cuts(self, capsys):
        assert run(["graph", "cuts", self.GRAPH]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "4 cuts",
            "{}",
            "{1}",
            "{2,3,4}",
            "{1,2,3,4}",
        ]

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
            vec = formats.parse_matrix(line).row(0)
            assert m.mat_vec(vec).weight() == 0

    def test_mcds(self, capsys):
        assert run(["matrix", "mcds", self.TRIANGLE, "1", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0000"] * 4

    def test_mcds_invalid(self, capsys):
        assert run(["matrix", "mcds", self.TRIANGLE, "1", "4"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: cannot swap on indices 1, 4"
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
            ["table", "--max-n", "2001"],
        ):
            assert run(argv) == 1
            assert capsys.readouterr().err == (
                "error: counts limited to n <= 2000, got 2001\n"
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

    def test_random_check_records_the_first_exception(self):
        line = verify._random_family("x", 3, lambda: (0,), lambda v: 1 // v)
        assert not line.passed
        assert line.detail.endswith(
            "; first error ZeroDivisionError: integer division or modulo by zero"
        )


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

    def test_import_loads_no_process_pool(self):
        src = os.path.dirname(os.path.dirname(cdslab.__file__))
        code = (
            "import cdslab.cli, sys; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('concurrent.futures')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
