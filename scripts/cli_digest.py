"""Digest the output of a seeded corpus of ``cdslab`` calls.

Runs every subcommand in-process through ``cdslab.cli.run``, as text and
with ``--json``, on valid and malformed inputs, and the verify suites at
their default size and at the sizes they refuse. Prints one sha256 per
subcommand (one per suite for ``verify``) over each call's argv, stdout,
stderr and exit code, so two checkouts whose digests agree print the same
bytes for the whole corpus. Timings in verify output are masked first.

    PYTHONPATH=src python3 scripts/cli_digest.py           # full corpus
    PYTHONPATH=src python3 scripts/cli_digest.py --quick   # about 1 s
    PYTHONPATH=src python3 scripts/cli_digest.py --dump    # the raw outputs

--quick keeps the inputs small and runs only the fast verify suites; the
full corpus adds the slow suites and takes a minute or more.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import random
import re
import sys

from cdslab.cli import run

# the suites that finish in a fraction of a second at their default size,
# each with the max-n values it refuses: its floor, where it has one, and its
# ceiling; written out rather than read from cdslab.verify, so that the
# corpus is the same on every checkout compared
QUICK_SUITES = {
    "table": (2, 351),
    "census": (2, 8),
    "eulerian": (2, 9),
    "macwilliams": (6,),
    "convergence": (9,),
}
SLOW_SUITES = {
    "realize": (6,),
    "sortability": (8,),
    "commuting": (8,),
    "distance": (7,),
    "conversion": (9,),
    "kernel": (9,),
    "blocks": (9,),
    "random": (3, 17),
}
_SECONDS = re.compile(r"\d+\.\d+s\b")
_ELAPSED = re.compile(r'("elapsed_seconds": )[-+.0-9eE]+')


def _perm(rng: random.Random, n: int) -> str:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return "[" + ",".join(map(str, values)) + "]"


def _matrix(rng: random.Random, n: int) -> str:
    """A random symmetric zero-diagonal matrix in the matrix text format."""
    rows = [[0] * n for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            rows[u][v] = rows[v][u] = rng.getrandbits(1)
    return "".join("".join(map(str, row)) + "\n" for row in rows)


def corpus(quick: bool) -> list[tuple[str, list[str]]]:
    """(subcommand, argv) pairs, each argv also run with --json.

    The quick corpus takes the first two entries of each input list, but
    every malformed matrix for the three commands whose input must be an
    adjacency matrix, so each contract error is still met.
    """
    rng = random.Random(29)
    pick = (lambda xs: xs[:2]) if quick else (lambda xs: xs)
    sizes = pick([5, 9, 16, 40])
    perms = [_perm(rng, n) for n in sizes] + pick(["[3,2,5,1,4]", "[1]", "[2,1]"])
    bad_perms = pick(["[1,2,2]", "[1,,2]", "", "[a]", "(1,2]", "[0,1]"])
    mats = [_matrix(rng, n) for n in sizes]
    mats += pick(["0110\n1010\n1100\n0000\n", "01\n10\n"])
    # non-square, asymmetric, looped, 1 x 1, ragged, not 0/1, empty
    bad_mats = ["0110\n", "01\n00\n", "10\n00\n", "1\n", "0\n", "01\n1\n", "012\n", ""]
    graphs = pick(["4 1 4\n2 3\n2 4\n3 4\n", "5 2 5\n1 2\n2 3\n3 4\n", "2 1 2\n"])
    bad_graphs = ["3 1 3\n1 1\n", "3 1 3\n1 2\n1 2\n", "3 1 4\n", "x y z\n", "3 1\n"]
    bad_graphs = pick(bad_graphs)
    pairs = [("2", "3"), ("1", "2"), ("0", "2"), ("2", "9"), ("2", "2"), ("3", "4")]
    pairs = pick(pairs)
    precedences = ["0111\n0011\n0001\n0000\n", "0101\n0001\n0111\n0000\n", "1\n"]
    move_graphs = ["011\n101\n110\n", "011\n100\n100\n", "010\n101\n010\n", "0\n"]

    calls: list[tuple[str, list[str]]] = []
    for cmd in ("sort", "check", "cycles", "pile"):
        calls += [(f"perm {cmd}", ["perm", cmd, p]) for p in perms + bad_perms]
    for cmd in ("check", "cuts", "props"):
        bad = bad_mats if cmd == "check" else pick(bad_mats)
        for g in graphs + bad_graphs + mats + bad:
            calls.append((f"graph {cmd}", ["graph", cmd, g]))
    if not quick:
        # 2000 vertices with no edge, then with one edge joining the roots:
        # eliminations where nearly every column has no pivot
        for g in ("2000 1 2\n", "2000 1 2\n1 2\n"):
            calls += [(f"graph {cmd}", ["graph", cmd, g]) for cmd in ("check", "props")]
    for m in graphs[:1] + mats + bad_mats[:3]:
        for group, cmd in (("graph", "gcds"), ("matrix", "mcds")):
            calls += [(f"{group} {cmd}", [group, cmd, m, p, q]) for p, q in pairs]
    for cmd in ("rank", "kernel"):
        calls += [(f"matrix {cmd}", ["matrix", cmd, m]) for m in mats + pick(bad_mats)]
    for cmd, inputs in (("adj2prec", mats + bad_mats), ("prec2adj", precedences)):
        calls += [(f"convert {cmd}", ["convert", cmd, m]) for m in inputs]
    calls += [("realize", ["realize", m]) for m in pick(move_graphs) + mats + bad_mats]
    for n in pick(["3", "8", "2", "64", "2001", "x"]):
        for method in ("closed_formula", "rank_sum", "brute_force", "nope"):
            for flag in ([], ["--eulerian"]):
                calls.append(("count", ["count", "--n", n, "--method", method, *flag]))
    for extra in (
        [],
        ["--max-n", "2"],
        ["--max-n", "351"],
        ["--max-n", "7", "--brute-force"],
        ["--max-n", "8", "--brute-force"],
    ):
        calls.append(("table", ["table", *extra]))
    suites = QUICK_SUITES if quick else {**QUICK_SUITES, **SLOW_SUITES}
    for suite, refused in suites.items():
        for extra in ([], *(["--max-n", str(n)] for n in refused)):
            calls.append((f"verify {suite}", ["verify", "--suite", suite, *extra]))
    for argv in (["all", "--max-n", "3"], ["nope"], ["census", "--max-n", "0"]):
        calls.append(("verify all", ["verify", "--suite", *argv]))
    return calls


def outcome(argv: list[str]) -> str:
    """argv, exit code, stdout and stderr of one in-process run, as text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    text = (
        f"argv={argv!r}\ncode={code}\n"
        f"--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}"
    )
    if argv[0] == "verify":
        text = _ELAPSED.sub(r"\g<1>#", _SECONDS.sub("#s", text))
    return text


def digests(quick: bool, dump: bool = False) -> dict[str, str]:
    """sha256 over the outcomes of each subcommand's calls, in corpus order."""
    hashes: dict[str, hashlib._Hash] = {}
    for name, argv in corpus(quick):
        for variant in (argv, argv + ["--json"]):
            text = outcome(variant)
            if dump:
                print(f"=== {name}\n{text}")
            hashes.setdefault(name, hashlib.sha256()).update(text.encode())
    return {name: h.hexdigest() for name, h in hashes.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small corpus, fast suites"
    )
    parser.add_argument("--dump", action="store_true", help="print every outcome")
    args = parser.parse_args(argv)
    # argparse wraps usage errors to the terminal's width
    os.environ["COLUMNS"] = "100"
    result = digests(args.quick, args.dump)
    if not args.dump:
        for name, digest in result.items():
            print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
