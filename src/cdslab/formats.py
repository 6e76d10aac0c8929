"""Text formats for matrices, permutations, and two-rooted graphs.

Matrix: one row per line of '0'/'1' characters with no separators; a blank
line or end of input terminates. Permutation: integers separated by
whitespace or commas, with optional surrounding brackets; an empty entry
beside a comma is refused. Graph: either a header line "n root1 root2"
followed by one "u v" edge per line, all 1-based, or an adjacency matrix in
the matrix format with the roots implicitly first and last. Ratio: a
density in [0, 1] rounded to three decimal places, as the count table
prints it. Integers: exact decimal digits at any size, in text and in JSON,
so counts print in full up to the count limit.
"""
from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .errors import ContractError

# The parsers import the types they build, so a command that parses none of
# them, such as count, loads none of f2, graphs and perms.
if TYPE_CHECKING:
    from fractions import Fraction

    from .f2 import F2Matrix
    from .graphs import RootedGraph
    from .perms import Permutation

__all__ = [
    "parse_matrix",
    "format_matrix",
    "parse_permutation",
    "format_permutation",
    "parse_graph",
    "format_graph",
    "format_ratio",
    "format_int",
    "format_json",
]

# JSON strings as json.dumps writes them by default (ensure_ascii): quote,
# backslash and every character outside printable ASCII are escaped, as in
# the standard library's json.encoder.py_encode_basestring_ascii.
_JSON_ESCAPE = re.compile(r'[^ !#-\[\]-~]')
_JSON_SHORT = {
    "\\": "\\\\",
    '"': '\\"',
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}
# float.__repr__ of the non-finite floats, and how json.dumps spells them
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

# format_int converts chunks of at most this many bits with Decimal(int);
# its time is flat for chunks from 512 to 8192 bits.
_CHUNK_BITS = 2048


def _body_lines(text: str) -> list[str]:
    """Lines up to the first blank one, leading blanks skipped."""
    lines = [line.strip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    body = []
    for line in lines:
        if not line:
            break
        body.append(line)
    return body


def parse_matrix(text: str) -> F2Matrix:
    """Parse the row-per-line '0'/'1' matrix format."""
    from .f2 import F2Matrix

    body = _body_lines(text)
    if not body:
        raise ContractError("empty matrix input")
    rows = []
    width = len(body[0])
    for line in body:
        if len(line) != width:
            raise ContractError(
                f"ragged matrix row {line!r}: expected width {width}"
            )
        if set(line) - {"0", "1"}:
            raise ContractError(f"matrix row {line!r} has characters other than 0/1")
        rows.append(int(line[::-1], 2) if line else 0)
    return F2Matrix.from_row_bits(rows, width)


def format_matrix(m: F2Matrix) -> str:
    # bin() of the row with a 1 set just above its top column keeps the
    # leading zeros; reading it backwards up to "0b1" puts column 0 first
    top = 1 << m.ncols
    return "\n".join([bin(r | top)[:2:-1] for r in m.rows]) + "\n"


def parse_permutation(text: str) -> Permutation:
    """Parse integers separated by whitespace or commas, brackets optional.

    A comma needs an entry on each side: "[1,2,]" and "1,,2" are refused.
    """
    from .perms import Permutation

    s = text.strip()
    if s and s[0] in "[(" and s[-1] in ")]":
        if s[0] + s[-1] not in ("[]", "()"):
            raise ContractError(f"mismatched brackets around permutation {s!r}")
        s = s[1:-1]
    entries = s.split(",")
    if len(entries) > 1 and not all(e.strip() for e in entries):
        raise ContractError(f"empty entry in permutation {text.strip()!r}")
    tokens = s.replace(",", " ").split()
    if not tokens:
        raise ContractError("empty permutation input")
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ContractError(f"permutation entries must be integers: {exc}") from None
    return Permutation(values)


def format_permutation(pi: Permutation) -> str:
    return "[" + ",".join(str(v) for v in pi) + "]"


def parse_graph(text: str) -> RootedGraph:
    """Parse the edge-list format (1-based) or an adjacency matrix."""
    from .graphs import RootedGraph

    body = _body_lines(text)
    if not body:
        raise ContractError("empty graph input")
    head = body[0].split()
    if len(head) == 1 and not set(head[0]) - {"0", "1"}:
        return RootedGraph(parse_matrix(text))
    if len(head) != 3:
        raise ContractError(
            "graph input must start with a 'n root1 root2' header or a 0/1 matrix row"
        )
    try:
        n, root1, root2 = (int(tok) for tok in head)
    except ValueError as exc:
        raise ContractError(f"graph header must be integers: {exc}") from None
    if not (1 <= root1 <= n and 1 <= root2 <= n):
        raise ContractError(f"roots ({root1}, {root2}) out of range for n={n}")
    edges = []
    for line in body[1:]:
        pair = line.split()
        if len(pair) != 2:
            raise ContractError(f"edge line {line!r} must be 'u v'")
        try:
            u, v = int(pair[0]), int(pair[1])
        except ValueError as exc:
            raise ContractError(f"edge endpoints must be integers: {exc}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ContractError(f"edge ({u}, {v}) out of range for n={n}")
        # refused here, so the message names the vertex as it was typed
        if u == v:
            raise ContractError(f"self-loop at vertex {u} not allowed")
        edges.append((u - 1, v - 1))
    return RootedGraph.from_edges(n, edges, root1 - 1, root2 - 1)


def format_graph(g: RootedGraph) -> str:
    """Edge-list text form; roots are vertex 1 and vertex n after pinning."""
    lines = [f"{g.n} 1 {g.n}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def format_ratio(r: Fraction) -> str:
    """The ratio rounded to three decimal places, e.g. 17/64 -> "0.266"."""
    thousandths = round(r * 1000)
    return f"{thousandths // 1000}.{thousandths % 1000:03d}"


def format_int(value: int) -> str:
    """Exact decimal digits of an int of any size.

    str() refuses ints with more digits than sys.get_int_max_str_digits().
    Those are split into two halves of bits, recursively, and the halves are
    joined by decimal's exact arithmetic, which multiplies big numbers fast;
    the interpreter's limit is left as it is.
    """
    try:
        return str(value)
    except ValueError:
        pass
    import decimal

    powers: dict[int, decimal.Decimal] = {}

    def to_decimal(part: int, bits: int) -> decimal.Decimal:
        if bits <= _CHUNK_BITS:
            return decimal.Decimal(part)
        half = bits // 2
        high = part >> half
        power = powers.get(half)
        if power is None:
            power = powers[half] = decimal.Decimal(2) ** half
        return to_decimal(high, bits - half) * power + to_decimal(
            part - (high << half), half
        )

    magnitude = abs(value)
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        digits = str(to_decimal(magnitude, magnitude.bit_length()))
    return "-" + digits if value < 0 else digits


def format_json(value: object) -> str:
    """The text of json.dumps(value, indent=2), with ints of any size.

    Every int is written by format_int, so counts print in full past the
    interpreter's digit limit, and a list of plain ints is written with one
    join. json.dumps itself runs its pure-Python encoder whenever an indent
    is given.
    """
    return _json_text(value, "")


def _json_escape(match: re.Match[str]) -> str:
    c = match.group(0)
    short = _JSON_SHORT.get(c)
    if short is not None:
        return short
    n = ord(c)
    if n < 0x10000:
        return f"\\u{n:04x}"
    # a surrogate pair
    n -= 0x10000
    return f"\\u{0xD800 | n >> 10:04x}\\u{0xDC00 | n & 0x3FF:04x}"


def _json_string(s: str) -> str:
    # the test runs in C, as fast as json's own encoder; a regex scan of a
    # count's ratio, thousands of digits, would take three times as long
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    return '"' + _JSON_ESCAPE.sub(_json_escape, s) + '"'


def _json_text(value: object, indent: str) -> str:
    """One JSON value as json.dumps(value, indent=2) writes it at this depth."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return format_int(int(value))
    if isinstance(value, float):
        text = float.__repr__(value)
        return _JSON_NON_FINITE.get(text, text)
    deeper = indent + "  "
    sep = ",\n" + deeper
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            try:
                items = sep.join(map(str, value))
            except ValueError:  # an int with more digits than str() allows
                items = sep.join(map(format_int, value))
        else:
            items = sep.join([_json_text(item, deeper) for item in value])
        return "[\n" + deeper + items + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = sep.join(
            [
                f"{_json_string(_json_key(key))}: {_json_text(item, deeper)}"
                for key, item in value.items()
            ]
        )
        return "{\n" + deeper + items + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_key(key: object) -> str:
    """A dict key as the string json.dumps writes for it."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json_text(key, "")
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )
