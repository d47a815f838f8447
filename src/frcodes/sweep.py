"""Parameter sweeps, table audits, and the heterogeneous-ring harness.

sweep_ring regenerates universally good ring-code parameter rows from
scratch: it builds each candidate code, computes its reconstruction
degree exactly at file size theta - 1 (reconstruction_degree), and
keeps the row only if the strict goodness bound holds there.
audit_table re-checks rows arriving as data (for example the bundled
reference tables) arithmetically, without trusting how they were
produced. Rows that read_rows_csv reads, the bundled tables included,
carry provenance "transcribed"; rows this package computes carry
"generated".

conjecture_harness compares exact reconstruction degrees of
heterogeneous ring codes against the conjectured closed form and
reports agreement per instance. Agreement is never asserted here; the
harness exists to collect evidence. Both sweeps walk their grid in
_ring_degrees. It checks the axes and the cap once, before any search,
builds each (n, rho)'s holder arcs once, and builds and searches the
ring of every theta from those arcs.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterable, Iterator

from .analysis import (
    DEFAULT_BUDGET,
    _predicted_k,
    goodness_arithmetic,
    goodness_rhs,
    predicted_k_ring,
    reconstruction_degree,
)
from .constructions import _ring, _ring_arcs, _write_file, read_csv_records
from .core import DEFAULT_THETA_CAP, FrCode, _check_bool, _check_cap, _check_ints, profile
from .errors import MalformedRow, ParseError, RhoRange, _shown

PROVENANCE_GENERATED = "generated"
PROVENANCE_TRANSCRIBED = "transcribed"

FAMILY_RING = "ring"
FAMILY_T = "t"


@dataclass(frozen=True)
class TableRow:
    """One parameter-table row: (n, k, d, rho, theta) plus the shift t
    for the t family, and a provenance tag."""

    n: int
    k: int
    d: int
    rho: int
    theta: int
    t: int | None = None
    provenance: str = PROVENANCE_GENERATED

    def __post_init__(self) -> None:
        # (name, value) of n, k, d, rho, theta, and of t when it is set.
        fields = list(vars(self).items())[: 5 if self.t is None else 6]
        _check_ints(fields, MalformedRow)
        for name, value in fields[:5]:
            if value < 1:
                raise MalformedRow(f"{name}={_shown(value)} must be positive")
        if self.t is not None and self.t < 0:
            raise MalformedRow(f"t={_shown(self.t)} must be nonnegative")
        # No code is wider than the cap. The audit numbers built from a
        # larger value can be too long to print, so it is not printed.
        for name, value in fields:
            if value > DEFAULT_THETA_CAP:
                raise MalformedRow(f"{name} exceeds cap {DEFAULT_THETA_CAP}")

    def key(self) -> tuple:
        """Full identity including t (None sorts like absent)."""
        return (self.n, self.k, self.d, self.rho, self.theta, self.t)

    def params_key(self) -> tuple[int, int, int, int, int]:
        """Identity ignoring t; duplicate detection uses this."""
        return (self.n, self.k, self.d, self.rho, self.theta)

    def to_dict(self) -> dict:
        """The fields in declaration order, without t when it is None."""
        return {k: v for k, v in vars(self).items() if k != "t" or v is not None}


def sweep_ring(
    n_values: Iterable[int],
    rho_values: Iterable[int],
    m_values: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> list[TableRow]:
    """Regenerate universally good ring-code rows over a parameter grid.

    For each (n, rho, m) with 2 <= rho <= n - 1 and m >= 1 the code
    ring(n, m*n, rho) is built, d = alpha is read off (uniform by
    construction), k is computed exactly by reconstruction_degree at
    file size theta - 1, and the row is emitted iff the strict goodness
    bound holds at that k. Rows are sorted by descending rho, then
    (n, theta). The output may contain rows a published listing
    omitted; containment, not equality, is the meaningful comparison.
    A non-int grid value or budget, or a ring past the cap, is refused
    before any search (_ring_degrees). Every ring of the grid answers
    without a walk, so the budget refuses none of them.
    """
    m_values = list(m_values)
    _check_ints(("m", m) for m in m_values)
    m_values = [m for m in sorted(set(m_values)) if m >= 1]
    rounds = max(m_values, default=0)
    grid = _ring_degrees(n_values, rho_values, rounds, lambda n: [m * n for m in m_values], budget)
    rows = []
    for n, rho, theta, code, k in grid:
        d = profile(code).alpha
        if goodness_arithmetic(k, d, theta, weak=False).verdict:
            rows.append(TableRow(n=n, k=k, d=d, rho=rho, theta=theta))
    rows.sort(key=lambda r: (-r.rho, r.n, r.theta))
    return rows


def _ring_degrees(
    n_values: Iterable[int], rho_values: Iterable[int], rounds: int, thetas: Callable, budget: int
) -> Iterator[tuple[int, int, int, FrCode, int]]:
    """(n, rho, theta, ring(n, theta, rho), k) for every rho in 2..n-1 and
    theta in thetas(n), by ascending n, then rho, then theta, where k is
    the ring's reconstruction degree at file size theta - 1. thetas(n)
    ascends from at least 2, stays at most rounds * n, and refuses an n
    past the cap unless each of its thetas is at least n. A non-int n,
    rho or budget is refused first, then the grid's first ring past the
    cap, both before any search; the least rho >= 2 fits every n that any
    rho fits, so only those n are checked.

    Those are the grid's only checks: every ring it then visits passes
    build_ring's checks, so each (n, rho)'s arcs are built once and every
    theta's ring is placed from them by _ring, with no RingSpec. Every
    ring's degree is then read with no walk, off a shared window when
    theta > n and off packets 0 and 1 otherwise (reconstruction_degree),
    so only the cap, never the budget, refuses a grid."""
    n_values, rho_values = list(n_values), list(rho_values)
    _check_ints([("n", n) for n in n_values] + [("rho", rho) for rho in rho_values]
                + [("budget", budget)])
    n_values, rho_values = sorted(set(n_values)), sorted(set(rho_values))
    least = next((rho for rho in rho_values if rho >= 2), None)
    for n in n_values:
        if least is not None and n > least and rounds * n > DEFAULT_THETA_CAP:
            for theta in thetas(n):
                _check_cap("theta", theta)
    for n in n_values:
        for rho in rho_values:
            if 2 <= rho <= n - 1:
                arcs = _ring_arcs(n, rho)
                for theta in thetas(n):
                    code = _ring(n, theta, rho, arcs)
                    k = reconstruction_degree(code, theta - 1, budget=budget)
                    yield n, rho, theta, code, k


@dataclass(frozen=True)
class AuditFinding:
    """Arithmetic re-check of one table row.

    identity_ok: n*d = rho*theta for ring rows; n = theta and d = rho
    for t rows. rhs and margin evaluate the strict goodness bound at
    the listed k with alpha = d and file size theta - 1. predicted_k
    compares the listed k against the ring closed form (ring rows
    only). duplicate_of is the index of the first earlier row with the
    same (n, k, d, rho, theta), if any; duplicates are reported, not
    failed.
    """

    index: int
    row: TableRow
    identity_ok: bool
    rhs: int
    rhs_positive: bool
    margin: int
    margin_ok: bool
    predicted_k: int | None
    predicted_k_ok: bool | None
    duplicate_of: int | None

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.margin_ok and self.predicted_k_ok is not False

    def to_dict(self) -> dict:
        return {**vars(self), "row": self.row.to_dict(), "passed": self.passed}


def audit_table(rows: Iterable[TableRow], family: str) -> list[AuditFinding]:
    """Re-check every row arithmetically; see AuditFinding."""
    if family not in (FAMILY_RING, FAMILY_T):
        raise ParseError(f"unknown table family {_shown(family)!r}")
    findings = []
    first_seen: dict[tuple, int] = {}
    for index, row in enumerate(rows):
        if family == FAMILY_RING:
            identity_ok = row.n * row.d == row.rho * row.theta
            try:
                predicted_k: int | None = predicted_k_ring(row.n, row.theta, row.rho).k
            except RhoRange:
                predicted_k = None
            predicted_k_ok: bool | None = (
                None if predicted_k is None else predicted_k == row.k
            )
        else:
            identity_ok = row.n == row.theta and row.d == row.rho
            predicted_k = None
            predicted_k_ok = None
        rhs = goodness_rhs(row.k, row.d)
        margin = (row.theta - 1) - rhs
        first = first_seen.setdefault(row.params_key(), index)
        findings.append(
            AuditFinding(
                index=index,
                row=row,
                identity_ok=identity_ok,
                rhs=rhs,
                rhs_positive=rhs > 0,
                margin=margin,
                margin_ok=margin >= 0,
                predicted_k=predicted_k,
                predicted_k_ok=predicted_k_ok,
                duplicate_of=None if first == index else first,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Relationships between listings: sign filters and duplicate removal.
# ---------------------------------------------------------------------------


def filter_rhs(rows: Iterable[TableRow], strict: bool = True) -> list[TableRow]:
    """Rows whose goodness right side at the listed k is positive
    (strict) or nonnegative."""
    _check_bool("strict", strict)
    out = []
    for row in rows:
        rhs = goodness_rhs(row.k, row.d)
        if rhs > 0 or (not strict and rhs == 0):
            out.append(row)
    return out


def dedup_rows(rows: Iterable[TableRow]) -> list[TableRow]:
    """First occurrence of each (n, k, d, rho, theta), in input order."""
    first: dict[tuple, TableRow] = {}
    for row in rows:
        first.setdefault(row.params_key(), row)
    return list(first.values())


def restrict_rho(rows: Iterable[TableRow], rho: int) -> list[TableRow]:
    _check_ints((("rho", rho),))
    return [row for row in rows if row.rho == rho]


def _multiset_diff(a: Iterable[TableRow], b: Iterable[TableRow]) -> list[TableRow]:
    """Rows of a not matched by rows of b, comparing (n,k,d,rho,theta,t)
    as multisets."""
    counts = Counter(row.key() for row in b)
    out = []
    for row in a:
        if counts[row.key()] > 0:
            counts[row.key()] -= 1
        else:
            out.append(row)
    return out


@dataclass(frozen=True)
class FilterAudit:
    """How a claimed sign-filtered listing relates to its source listing.

    missing_strict / missing_nonneg: source rows passing the strict or
    nonnegative filter but absent from the claimed listing.
    negative_rhs / zero_rhs: claimed rows violating the strict filter.
    not_in_source: claimed rows that do not occur in the source at all.
    """

    missing_strict: tuple[TableRow, ...]
    missing_nonneg: tuple[TableRow, ...]
    negative_rhs: tuple[TableRow, ...]
    zero_rhs: tuple[TableRow, ...]
    not_in_source: tuple[TableRow, ...]


def audit_rhs_filter(
    source: Iterable[TableRow], claimed: Iterable[TableRow]
) -> FilterAudit:
    source = list(source)
    claimed = list(claimed)
    negative = [r for r in claimed if goodness_rhs(r.k, r.d) < 0]
    zero = [r for r in claimed if goodness_rhs(r.k, r.d) == 0]
    return FilterAudit(
        missing_strict=tuple(_multiset_diff(filter_rhs(source, strict=True), claimed)),
        missing_nonneg=tuple(_multiset_diff(filter_rhs(source, strict=False), claimed)),
        negative_rhs=tuple(negative),
        zero_rhs=tuple(zero),
        not_in_source=tuple(_multiset_diff(claimed, source)),
    )


@dataclass(frozen=True)
class DedupAudit:
    """How a claimed duplicate-free listing relates to dedup(source)."""

    missing: tuple[TableRow, ...]
    extra: tuple[TableRow, ...]

    @property
    def exact(self) -> bool:
        return not self.missing and not self.extra


def audit_dedup(source: Iterable[TableRow], claimed: Iterable[TableRow]) -> DedupAudit:
    expected = dedup_rows(source)
    claimed = list(claimed)
    return DedupAudit(
        missing=tuple(_multiset_diff(expected, claimed)),
        extra=tuple(_multiset_diff(claimed, expected)),
    )


# ---------------------------------------------------------------------------
# Row CSV files. Header n,k,d,rho,theta with an optional trailing t.
# ---------------------------------------------------------------------------

_BASE_HEADER = ["n", "k", "d", "rho", "theta"]


def write_rows_csv(rows: Iterable[TableRow], path: str) -> None:
    rows = list(rows)
    with_t = any(row.t is not None for row in rows)
    records = [_BASE_HEADER + (["t"] if with_t else [])]
    for row in rows:
        record = list(row.params_key())
        if with_t:
            if row.t is None:
                raise MalformedRow(f"row {record} lacks t in a t-column table")
            record.append(row.t)
        records.append(record)
    _write_file(path, lambda fh: csv.writer(fh).writerows(records))


def read_rows_csv(path: str) -> list[TableRow]:
    """The rows of a row CSV file, each with provenance "transcribed"."""
    records = [rec for rec in read_csv_records(path) if rec]
    if not records:
        raise ParseError(f"{_shown(path)}: empty table")
    header = [cell.strip() for cell in records[0]]
    if header not in (_BASE_HEADER, _BASE_HEADER + ["t"]):
        raise ParseError(f"{_shown(path)}: bad header {header}")
    rows = []
    for lineno, rec in enumerate(records[1:], start=2):
        if len(rec) != len(header):
            raise MalformedRow(f"{_shown(path)}:{lineno}: expected {len(header)} fields")
        try:
            values = [int(cell) for cell in rec]
        except ValueError as exc:
            raise MalformedRow(f"{_shown(path)}:{lineno}: non-integer field") from exc
        rows.append(TableRow(*values, provenance=PROVENANCE_TRANSCRIBED))
    return rows


#: Bundled reference tables, each read from data/<name>.csv: name -> family.
BUNDLED_TABLES: dict[str, str] = {
    "ring_rho4": FAMILY_RING,
    "ring_rho3": FAMILY_RING,
    "ring_rho2": FAMILY_RING,
    "t_all_n4_11": FAMILY_T,
    "t_all_n12_18": FAMILY_T,
    "t_rhs_positive": FAMILY_T,
    "t_dedup": FAMILY_T,
    "t_dedup_rho2": FAMILY_T,
    "t_dedup_rho3": FAMILY_T,
}


def load_bundled_table(name: str) -> list[TableRow]:
    """Load one bundled reference table by name; see BUNDLED_TABLES. It
    is read by read_rows_csv, as a user's table is. A name that is not
    a str is unknown too."""
    if not isinstance(name, str) or name not in BUNDLED_TABLES:
        raise ParseError(
            f"unknown bundled table {_shown(name)!r}; choose from {sorted(BUNDLED_TABLES)}"
        )
    table = resources.files("frcodes").joinpath("data", f"{name}.csv")
    with resources.as_file(table) as path:
        return read_rows_csv(str(path))


# ---------------------------------------------------------------------------
# Heterogeneous-ring conjecture harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureFinding:
    """Exact (brute_k) versus conjectured reconstruction degree for one
    heterogeneous ring instance."""

    n: int
    theta: int
    rho: int
    branch: str  # "n_gt_theta" | "theta_not_multiple"
    predicted_k: int
    brute_k: int
    agree: bool


def default_theta_rule(n: int) -> list[int]:
    """Heterogeneous theta values tried per n: every theta in [2, 3n]
    that is not a multiple of n. Mirrors the sweep scale (up to three
    rounds) while keeping file size theta - 1 positive. An n past
    DEFAULT_THETA_CAP, which no builder takes, or not an int, is refused
    before the list is made."""
    _check_ints((("n", n),))
    _check_cap("n", n)
    return [theta for theta in range(2, 3 * n + 1) if theta % n != 0]


def conjecture_harness(
    n_values: Iterable[int],
    rho_values: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> list[ConjectureFinding]:
    """Compare conjectured and exact k over heterogeneous ring
    codes. Deterministic order: ascending (n, rho, theta). The result
    reports agreement; callers must not turn disagreement into an
    error, the conjecture is unproven either way. A non-int grid value
    or budget, or a ring past the cap, is refused before any search.
    Every ring of the grid answers without a walk, so the budget
    refuses none of them (_ring_degrees)."""
    findings = []
    grid = _ring_degrees(n_values, rho_values, 3, default_theta_rule, budget)
    for n, rho, theta, _, brute in grid:
        predicted = _predicted_k(n, theta, rho).k
        findings.append(
            ConjectureFinding(
                n=n,
                theta=theta,
                rho=rho,
                branch="n_gt_theta" if n > theta else "theta_not_multiple",
                predicted_k=predicted,
                brute_k=brute,
                agree=predicted == brute,
            )
        )
    return findings
