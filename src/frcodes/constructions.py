"""Deterministic code constructions and code-file import/export.

Three families are provided:

* build_prg: packets are the edges of a partial regular graph on n
  vertices (n odd), giving a weak FR code in which one node stores one
  packet fewer than the rest.
* build_ring: packet j is replicated on rho cyclically consecutive nodes
  starting at node j mod n. theta a multiple of n gives a uniform FR
  code; any other theta gives a weak FR code.
* build_t_code: node i stores d packets spaced t + 1 apart around a ring
  of n packets. One pluggable reading of an externally specified rule;
  see the note on build_t_code.

All builders are pure functions of their spec and return identical
codes on every call.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, TextIO

from .core import (
    FrCode,
    _check_cap,
    _check_ints,
    _check_sizes,
    _freeze,
    _rotate,
    incidence_matrix,
    make_code,
)
from .errors import (
    DegenerateOffsets,
    DegreeRange,
    FrcError,
    ParityError,
    ParseError,
    RhoRange,
    _shown,
)


@dataclass(frozen=True)
class PrgSpec:
    """Partial regular graph parameters: n odd nodes, target degree d odd,
    3 <= d <= n - 2."""

    n: int
    d: int

    def __post_init__(self) -> None:
        _check_ints(vars(self).items())
        if self.n % 2 == 0:
            raise ParityError(f"n must be odd, got {_shown(self.n)}")
        if self.d % 2 == 0:
            raise ParityError(f"d must be odd, got {_shown(self.d)}")
        if not 3 <= self.d <= self.n - 2:
            raise DegreeRange(f"need 3 <= d <= n - 2, got d={_shown(self.d)}, n={_shown(self.n)}")

    @property
    def p(self) -> int:
        return (self.n - 1) // 2

    @property
    def q(self) -> int:
        return (self.d - 1) // 2

    @property
    def theta(self) -> int:
        return (self.n * self.d - 1) // 2


def build_prg(spec: PrgSpec) -> FrCode:
    """Edge code of the partial regular graph.

    The graph is the circulant on vertices 0..n-1 with offsets 1..q
    (each vertex degree d - 1) plus the near-perfect matching
    (j, j + p) for j = 0..p-1, which raises every vertex except n - 1
    to degree d. Packets are edges, numbered circulant offsets first
    (by offset, then start vertex), matching edges last (by start
    vertex). A packet lives on the two nodes of its edge, so the code
    has rho = 2, alpha_i = d except alpha_{n-1} = d - 1, and
    theta = (n * d - 1) / 2.
    """
    n = spec.n
    _check_sizes(n, spec.theta)
    edges = [(v, (v + off) % n) for off in range(1, spec.q + 1) for v in range(n)]
    edges += [(j, j + spec.p) for j in range(spec.p)]
    masks = [0] * n
    holders = []
    for packet, (u, v) in enumerate(edges):
        bit = 1 << packet
        masks[u] |= bit
        masks[v] |= bit
        holders.append(1 << u | 1 << v)
    return _freeze(n, len(edges), masks, holders)


@dataclass(frozen=True)
class RingSpec:
    """Ring placement parameters: theta packets on n nodes, replication
    rho with 2 <= rho <= n - 1."""

    n: int
    theta: int
    rho: int

    def __post_init__(self) -> None:
        _check_ints(vars(self).items())
        if self.n < 1 or self.theta < 1:
            raise DegreeRange(
                f"need n >= 1 and theta >= 1, got {_shown(self.n)}, {_shown(self.theta)}"
            )
        if not 2 <= self.rho <= self.n - 1:
            raise RhoRange(
                f"need 2 <= rho <= n - 1, got rho={_shown(self.rho)}, n={_shown(self.n)}"
            )


def build_ring(spec: RingSpec) -> FrCode:
    """Place packet j on the rho consecutive nodes j, j+1, .., j+rho-1
    (indices mod n).

    theta = m * n yields a uniform FR code with alpha = m * rho whose
    incidence matrix is m horizontal copies of the one-round block;
    other theta yield weak FR codes, including codes with empty nodes
    once n exceeds theta + rho - 1. Like theta, n may not exceed
    DEFAULT_THETA_CAP; a wider spec fails before any node is placed.

    The code is rotation invariant exactly when n divides theta, and
    the builder records which. Then rotation maps each round onto
    itself. Otherwise the residues below theta mod n hold one packet
    more than the rest, and node i holds the rho residues up to i. Equal
    sizes at every i would make that proper arc of residues invariant
    under a shift by rho, which 0 < rho < n rules out.

    The checks are the spec's and the two size checks here; the
    placement is _ring, which checks nothing itself. The ring sweeps
    (sweep._ring_degrees) check their whole grid once, build each
    (n, rho)'s arcs once and call _ring for every theta.
    """
    n, theta, rho = spec.n, spec.theta, spec.rho
    _check_sizes(n, theta)
    _check_cap("n", n)
    return _ring(n, theta, rho, _ring_arcs(n, rho))


def _ring_arcs(n: int, rho: int) -> list[int]:
    """arcs[r]: the nodes holding a packet j = r (mod n) of any ring
    code on n nodes with replication rho."""
    return [_rotate((1 << rho) - 1, r, n) for r in range(n)]


def _ring(n: int, theta: int, rho: int, arcs: list[int]) -> FrCode:
    """ring(n, theta, rho) from _ring_arcs(n, rho), with no check of
    the sizes: every caller has made build_ring's checks first."""
    rounds = theta // n + 1
    # Bit k*n set for every round k: multiplying an n-bit window by it
    # copies the window into each round, with no carries.
    comb = ((1 << rounds * n) - 1) // ((1 << n) - 1)
    full = (1 << theta) - 1
    # Node i holds the packets whose residue lies in the rho-node arc
    # ending at i, which as a window of residues is arcs[i - rho + 1].
    masks = [arcs[(i - rho + 1) % n] * comb & full for i in range(n)]
    return _freeze(n, theta, masks, (arcs * rounds)[:theta], theta % n == 0)


@dataclass(frozen=True)
class TSpec:
    """Shifted placement parameters: n packets on n nodes, d per node,
    step t + 1 between a node's packets."""

    n: int
    d: int
    t: int

    def __post_init__(self) -> None:
        _check_ints(vars(self).items())
        if self.n < 2:
            raise DegreeRange(f"need n >= 2, got {_shown(self.n)}")
        if self.d < 2:
            raise DegreeRange(f"need d >= 2, got {_shown(self.d)}")
        if self.t < 0:
            raise DegreeRange(f"need t >= 0, got {_shown(self.t)}")
        offsets = self.n // math.gcd(self.t + 1, self.n)
        if offsets < self.d:
            raise DegenerateOffsets(
                f"step {_shown(self.t + 1)} yields only {_shown(offsets)}"
                f" distinct offsets mod {_shown(self.n)}, need {_shown(self.d)}"
            )


def build_t_code(spec: TSpec) -> FrCode:
    """Node i stores packets {(i - j*(t+1)) mod n : 0 <= j < d}.

    With t = 0 this is exactly build_ring(n, n, d). The offsets are
    distinct by the TSpec gcd check, so alpha_i = d and rho_j = d for
    every node and packet. Steps s and -s mod n produce the same code
    up to node relabeling.

    This family is one concrete reading of an external shift rule whose
    published parameter listings are audited separately (see the sweep
    module); those listings are treated as data, never as assertions
    about this builder.
    """
    n, step = spec.n, spec.t + 1
    _check_sizes(n, n)
    node0 = packet0 = 0
    for j in range(spec.d):
        node0 |= 1 << (-j * step) % n
        packet0 |= 1 << j * step % n
    # Adding 1 to every node and packet index maps the code onto itself.
    masks = [_rotate(node0, i, n) for i in range(n)]
    holders = [_rotate(packet0, p, n) for p in range(n)]
    return _freeze(n, n, masks, holders, True)


# ---------------------------------------------------------------------------
# Code files. JSON is the canonical format: {"n":, "theta":, "nodes": [[..]]}
# with each node list sorted ascending. The CSV alternative is the raw
# incidence matrix, theta 0/1 entries per row, no header.
# ---------------------------------------------------------------------------

FORMAT_JSON = "json"
FORMAT_CSV_MATRIX = "csv-matrix"


def _infer_format(path: str) -> str:
    ext = os.path.splitext(path)[1].lower()
    if ext == ".json":
        return FORMAT_JSON
    if ext == ".csv":
        return FORMAT_CSV_MATRIX
    raise ParseError(
        f"cannot infer code format from {_shown(path)!r}; expected a .json or .csv extension"
    )


#: The exact types a flat record's values may have.
_SCALARS = {int, str, bool, type(None)}


def _flat_records(items: list | tuple) -> bool:
    """Whether every item is a non-empty flat record: a dict with str
    keys and values of exact type int, str, bool or None."""
    # An empty record has no str key, so it is refused too.
    return all(
        type(item) is dict
        and {*map(type, item)} == {str}
        and {*map(type, item.values())} <= _SCALARS
        for item in items
    )


def _json_text(obj: Any, pad: str = "\n") -> str:
    """Exactly json.dumps(obj, indent=2) on JSON data: dicts with str
    keys, lists, tuples, str, int, bool and None.

    json's C encoder takes no indent, so json.dumps walks indented
    output in pure Python. This builds each container as one joined
    string, and joins a list of plain ints, or of non-empty lists of
    them, in C. pad is a newline and the enclosing indent. Anything
    else raises TypeError: a float, a non-str key, a subclass of a JSON
    type or any other object, a dataclass too, so nothing outside that
    set is written unnoticed.

    A list of two or more flat records (_flat_records), such as
    conjecture findings, is written by one call of the C encoder, whose
    item separator is a comma, a newline and the records' field indent.
    That writes each record's fields as json.dumps does, and separates
    the records by a close brace, that separator and an open brace,
    which one replace turns into the list layout. The replace is exact:
    an encoded string holds no raw newline, and a flat record holds no
    brace outside its strings, so that sequence occurs only between
    records. A single record, such as the row of a one-ring sweep, has
    no separator to save and takes the per-field path, where setting up
    the encoder would cost more than it saves.
    """
    kind = type(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        kinds = {*map(type, obj)}
        if kinds == {int}:
            items = map(int.__repr__, obj)
        elif kinds <= {list, tuple} and all(obj) and {*map(type, chain(*obj))} == {int}:
            deeper = inner + "  "
            sep = "," + deeper
            items = [f"[{deeper}{sep.join(map(int.__repr__, item))}{inner}]" for item in obj]
        elif len(obj) > 1 and _flat_records(obj):
            deeper = inner + "  "
            text = json.JSONEncoder(
                separators=("," + deeper, ": "), check_circular=False
            ).encode(obj)
            opening = inner + "{" + deeper
            between = text[2:-2].replace("}," + deeper + "{", inner + "}," + opening)
            return "[" + opening + between + inner + "}" + pad + "]"
        else:
            items = [_json_text(item, inner) for item in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict:
        if not obj:
            return "{}"
        if {*map(type, obj)} != {str}:
            raise TypeError("JSON object keys must be str")
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def code_to_dict(code: FrCode) -> dict:
    """The canonical JSON document of a code (0-based indices)."""
    return {
        "n": code.n,
        "theta": code.theta,
        "nodes": [list(code.packets(i)) for i in range(code.n)],
    }


def export_code(code: FrCode, path: str, fmt: str | None = None) -> None:
    """Write a code to disk in canonical form (0-based indices)."""
    fmt = fmt or _infer_format(path)
    if fmt == FORMAT_JSON:
        _write_file(path, lambda fh: fh.write(_json_text(code_to_dict(code)) + "\n"))
    elif fmt == FORMAT_CSV_MATRIX:
        _write_file(path, lambda fh: csv.writer(fh).writerows(incidence_matrix(code)))
    else:
        raise ParseError(f"unknown code format {_shown(fmt)!r}")


def _read_file(path: str, parse: Callable[[TextIO], Any]) -> Any:
    """parse(fh) on a UTF-8 text file, with or without a byte-order
    mark. A file that cannot be opened or decoded raises ParseError."""
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            return parse(fh)
    except OSError as exc:
        raise ParseError(f"{_shown(path)}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{_shown(path)}: not valid UTF-8 ({exc})") from exc


def _write_file(path: str, write: Callable[[TextIO], Any]) -> None:
    """write(fh) on path opened for writing as UTF-8 text, with line
    ends written as given. A file that cannot be opened or written
    raises FrcError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise FrcError(f"{_shown(path)}: {exc.strerror or exc}") from exc


def read_csv_records(path: str) -> list[list[str]]:
    """Every record of a UTF-8 CSV file, with or without a byte-order
    mark. A file that cannot be opened, decoded or split into fields
    raises ParseError."""
    try:
        return _read_file(path, lambda fh: list(csv.reader(fh)))
    except csv.Error as exc:
        raise ParseError(f"{_shown(path)}: not valid CSV ({exc})") from exc


def _binary_rows(text: str) -> list[str] | None:
    r"""The nonblank lines of text when each is the same number of "0"
    and "1" entries joined by commas, as export_code writes them; None
    otherwise. Lines end where csv ends a record, at "\n", "\r\n" or
    "\r"; str.splitlines would also split at "\x0b", "\x0c", "\x85"
    and others, which csv keeps inside a field."""
    rows = [*filter(None, text.replace("\r", "\n").split("\n"))]
    width = len(rows[0]) if rows else 0
    if not width % 2:
        return None
    commas = "," * (width // 2)
    entries = width - len(commas)
    for row in rows:
        # Commas at every odd offset, and 0s and 1s at every even one.
        if len(row) != width or row[1::2] != commas or row.count("0") + row.count("1") != entries:
            return None
    return rows


def import_code(path: str) -> FrCode:
    """Read a code file in the format its extension names; structural
    validation is delegated to make_code, or for CSV to its parts
    _check_sizes and _freeze, so invalid contents raise the same errors
    as building by hand. A CSV file laid out as export_code writes it is
    checked line by line, then sized, then folded, with no csv parse;
    any other CSV text is parsed by csv, record by record."""
    if _infer_format(path) == FORMAT_JSON:
        try:
            doc = _read_file(path, json.load)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers an integer literal longer than the
            # interpreter's digit limit; RecursionError, nesting deeper
            # than it allows.
            raise ParseError(f"{_shown(path)}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{_shown(path)}: expected a JSON object")
        try:
            n, theta, nodes = doc["n"], doc["theta"], doc["nodes"]
        except KeyError as exc:
            raise ParseError(f"{_shown(path)}: missing or non-numeric n/theta/nodes") from exc
        # JSON integers load as int; bool is an int subclass, so test the type.
        if type(n) is not int or type(theta) is not int:
            raise ParseError(f"{_shown(path)}: n and theta must be integers")
        if not isinstance(nodes, list) or not all(isinstance(s, list) for s in nodes):
            raise ParseError(f"{_shown(path)}: nodes must be a list of lists")
        try:
            return make_code(n, theta, nodes)
        except FrcError:
            # make_code checks every packet, so it refuses whenever one is
            # not an int, but other checks may speak first: the file's type
            # error takes precedence over every one of them.
            if any(type(v) is not int for s in nodes for v in s):
                raise ParseError(f"{_shown(path)}: packet indices must be integers") from None
            raise
    try:
        rows = _binary_rows(_read_file(path, lambda fh: fh.read()))
    except ParseError:
        # Read again below: csv refuses a bad record before the decoder
        # reaches a bad byte later in the file, and its error stands.
        rows = None
    if rows is not None:
        theta = len(rows[0]) // 2 + 1
        _check_sizes(len(rows), theta)
        # Column j is bit j, so a row's entries reversed are its mask in binary.
        return _freeze(len(rows), theta, [int(row[::-2], 2) for row in rows])
    masks: list[int] = []
    widths = set()
    for lineno, record in enumerate(read_csv_records(path), start=1):
        if not record:
            continue
        try:
            row = [int(v) for v in record]
        except ValueError as exc:
            raise ParseError(f"{_shown(path)}:{lineno}: non-integer entry") from exc
        if any(v not in (0, 1) for v in row):
            raise ParseError(f"{_shown(path)}:{lineno}: entries must be 0 or 1")
        masks.append(int("".join(map(str, row))[::-1], 2))
        widths.add(len(row))
    if not masks:
        raise ParseError(f"{_shown(path)}: empty incidence matrix")
    if len(widths) != 1:
        raise ParseError(f"{_shown(path)}: ragged incidence matrix")
    theta = widths.pop()
    _check_sizes(len(masks), theta)
    return _freeze(len(masks), theta, masks)
