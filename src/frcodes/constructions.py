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

from .core import FrCode, code_from_matrix, incidence_matrix, make_code
from .errors import (
    DegenerateOffsets,
    DegreeRange,
    ParityError,
    ParseError,
    RhoRange,
)


@dataclass(frozen=True)
class PrgSpec:
    """Partial regular graph parameters: n odd nodes, target degree d odd,
    3 <= d <= n - 2."""

    n: int
    d: int

    def __post_init__(self) -> None:
        if self.n % 2 == 0:
            raise ParityError(f"n must be odd, got {self.n}")
        if self.d % 2 == 0:
            raise ParityError(f"d must be odd, got {self.d}")
        if not 3 <= self.d <= self.n - 2:
            raise DegreeRange(f"need 3 <= d <= n - 2, got d={self.d}, n={self.n}")

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
    edges: list[tuple[int, int]] = []
    for off in range(1, spec.q + 1):
        for v in range(n):
            edges.append((v, (v + off) % n))
    for j in range(spec.p):
        edges.append((j, j + spec.p))
    storage: list[set[int]] = [set() for _ in range(n)]
    for packet, (u, v) in enumerate(edges):
        storage[u].add(packet)
        storage[v].add(packet)
    return make_code(n, len(edges), storage)


@dataclass(frozen=True)
class RingSpec:
    """Ring placement parameters: theta packets on n nodes, replication
    rho with 2 <= rho <= n - 1."""

    n: int
    theta: int
    rho: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.theta < 1:
            raise DegreeRange(f"need n >= 1 and theta >= 1, got {self.n}, {self.theta}")
        if not 2 <= self.rho <= self.n - 1:
            raise RhoRange(f"need 2 <= rho <= n - 1, got rho={self.rho}, n={self.n}")


def build_ring(spec: RingSpec) -> FrCode:
    """Place packet j on the rho consecutive nodes j, j+1, .., j+rho-1
    (indices mod n).

    theta = m * n yields a uniform FR code with alpha = m * rho whose
    incidence matrix is m horizontal copies of the one-round block;
    other theta yield weak FR codes, including codes with empty nodes
    once n exceeds theta + rho - 1.
    """
    storage: list[set[int]] = [set() for _ in range(spec.n)]
    for j in range(spec.theta):
        for i in range(spec.rho):
            storage[(j + i) % spec.n].add(j)
    return make_code(spec.n, spec.theta, storage)


@dataclass(frozen=True)
class TSpec:
    """Shifted placement parameters: n packets on n nodes, d per node,
    step t + 1 between a node's packets."""

    n: int
    d: int
    t: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise DegreeRange(f"need n >= 2, got {self.n}")
        if self.d < 2:
            raise DegreeRange(f"need d >= 2, got {self.d}")
        if self.t < 0:
            raise DegreeRange(f"need t >= 0, got {self.t}")
        if self.n // math.gcd(self.t + 1, self.n) < self.d:
            raise DegenerateOffsets(
                f"step {self.t + 1} yields only {self.n // math.gcd(self.t + 1, self.n)}"
                f" distinct offsets mod {self.n}, need {self.d}"
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
    step = spec.t + 1
    storage = [
        {(i - j * step) % spec.n for j in range(spec.d)} for i in range(spec.n)
    ]
    return make_code(spec.n, spec.n, storage)


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
    raise ParseError(f"cannot infer code format from {path!r}; pass fmt explicitly")


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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(code_to_dict(code), fh, indent=2)
            fh.write("\n")
    elif fmt == FORMAT_CSV_MATRIX:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(incidence_matrix(code))
    else:
        raise ParseError(f"unknown code format {fmt!r}")


def read_csv_records(path: str) -> list[list[str]]:
    """Every record of a UTF-8 CSV file. A file that cannot be opened,
    decoded or split into fields raises ParseError."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})") from exc
    except csv.Error as exc:
        raise ParseError(f"{path}: not valid CSV ({exc})") from exc


def import_code(path: str, fmt: str | None = None) -> FrCode:
    """Read a code file; structural validation is delegated to make_code,
    so invalid contents raise the same errors as building by hand."""
    fmt = fmt or _infer_format(path)
    if fmt == FORMAT_JSON:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ParseError(f"{path}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8 ({exc})") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{path}: expected a JSON object")
        try:
            n, theta, nodes = doc["n"], doc["theta"], doc["nodes"]
        except KeyError as exc:
            raise ParseError(f"{path}: missing or non-numeric n/theta/nodes") from exc
        # JSON integers load as int; bool is an int subclass, so test the type.
        if type(n) is not int or type(theta) is not int:
            raise ParseError(f"{path}: n and theta must be integers")
        if not isinstance(nodes, list) or not all(isinstance(s, list) for s in nodes):
            raise ParseError(f"{path}: nodes must be a list of lists")
        if any(type(v) is not int for s in nodes for v in s):
            raise ParseError(f"{path}: packet indices must be integers")
        return make_code(n, theta, nodes)
    if fmt == FORMAT_CSV_MATRIX:
        rows: list[list[int]] = []
        for lineno, record in enumerate(read_csv_records(path), start=1):
            if not record:
                continue
            try:
                row = [int(v) for v in record]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer entry") from exc
            if any(v not in (0, 1) for v in row):
                raise ParseError(f"{path}:{lineno}: entries must be 0 or 1")
            rows.append(row)
        if not rows:
            raise ParseError(f"{path}: empty incidence matrix")
        if len({len(r) for r in rows}) != 1:
            raise ParseError(f"{path}: ragged incidence matrix")
        return code_from_matrix(rows)
    raise ParseError(f"unknown code format {fmt!r}")
