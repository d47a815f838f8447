"""Parameter sweeps, table audits, and the heterogeneous-ring harness.

sweep_ring regenerates universally good ring-code parameter rows from
scratch: it builds each candidate code, brute-forces the reconstruction
degree at file size theta - 1, and keeps the row only if the strict
goodness bound holds there. audit_table re-checks rows arriving as data
(for example the bundled reference tables) arithmetically, without
trusting how they were produced. The bundled tables were transcribed
from published listings and carry provenance "transcribed"; rows this
package computes carry "generated".

conjecture_harness compares brute-forced reconstruction degrees of
heterogeneous ring codes against the conjectured closed form and
reports agreement per instance. Agreement is never asserted here; the
harness exists to collect evidence.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

from .analysis import (
    DEFAULT_BUDGET,
    goodness_arithmetic,
    goodness_rhs,
    predicted_k_ring,
    reconstruction_degree,
)
from .constructions import RingSpec, build_ring, read_csv_records
from .core import DEFAULT_THETA_CAP, profile
from .errors import MalformedRow, ParseError, RhoRange

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
        for name in ("n", "k", "d", "rho", "theta"):
            value = getattr(self, name)
            if value < 1:
                raise MalformedRow(f"{name}={value} must be positive")
        if self.t is not None and self.t < 0:
            raise MalformedRow(f"t={self.t} must be nonnegative")
        # No code is wider than the cap. The audit numbers built from a
        # larger value can be too long to print, so it is not printed.
        for name in ("n", "k", "d", "rho", "theta", "t"):
            if (getattr(self, name) or 0) > DEFAULT_THETA_CAP:
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
    construction), k is brute-forced at file size theta - 1, and the
    row is emitted iff the strict goodness bound holds at that k. Rows
    are sorted by descending rho, then (n, theta). The output may
    contain rows a published listing omitted; containment, not
    equality, is the meaningful comparison.
    """
    rows = []
    for rho in sorted(set(rho_values)):
        for n in sorted(set(n_values)):
            if not 2 <= rho <= n - 1:
                continue
            for m in sorted(set(m_values)):
                if m < 1:
                    continue
                theta = m * n
                code = build_ring(RingSpec(n=n, theta=theta, rho=rho))
                d = profile(code).alpha
                k = reconstruction_degree(code, theta - 1, budget=budget)
                report = goodness_arithmetic(k, d, theta, weak=False)
                if report.verdict:
                    rows.append(TableRow(n=n, k=k, d=d, rho=rho, theta=theta))
    rows.sort(key=lambda r: (-r.rho, r.n, r.theta))
    return rows


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
        raise ParseError(f"unknown table family {family!r}")
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
        duplicate_of = first_seen.get(row.params_key())
        if duplicate_of is None:
            first_seen[row.params_key()] = index
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
                duplicate_of=duplicate_of,
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Relationships between listings: sign filters and duplicate removal.
# ---------------------------------------------------------------------------


def filter_rhs(rows: Iterable[TableRow], strict: bool = True) -> list[TableRow]:
    """Rows whose goodness right side at the listed k is positive
    (strict) or nonnegative."""
    out = []
    for row in rows:
        rhs = goodness_rhs(row.k, row.d)
        if rhs > 0 or (not strict and rhs == 0):
            out.append(row)
    return out


def dedup_rows(rows: Iterable[TableRow]) -> list[TableRow]:
    """First occurrence of each (n, k, d, rho, theta), in input order."""
    seen: set[tuple] = set()
    out = []
    for row in rows:
        if row.params_key() not in seen:
            seen.add(row.params_key())
            out.append(row)
    return out


def restrict_rho(rows: Iterable[TableRow], rho: int) -> list[TableRow]:
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

    @property
    def consistent_nonneg(self) -> bool:
        """True when claimed = {source rows with rhs >= 0} up to the
        flagged negative-rhs extras."""
        return not self.missing_nonneg and not self.not_in_source


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
    header = _BASE_HEADER + (["t"] if with_t else [])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            record = [row.n, row.k, row.d, row.rho, row.theta]
            if with_t:
                if row.t is None:
                    raise MalformedRow(f"row {record} lacks t in a t-column table")
                record.append(row.t)
            writer.writerow(record)


def read_rows_csv(path: str, provenance: str = PROVENANCE_TRANSCRIBED) -> list[TableRow]:
    return _parse_rows(read_csv_records(path), path, provenance)


def _parse_rows(records: Iterable[list[str]], origin: str, provenance: str) -> list[TableRow]:
    records = [rec for rec in records if rec]
    if not records:
        raise ParseError(f"{origin}: empty table")
    header = [cell.strip() for cell in records[0]]
    if header not in (_BASE_HEADER, _BASE_HEADER + ["t"]):
        raise ParseError(f"{origin}: bad header {header}")
    with_t = header[-1] == "t"
    rows = []
    for lineno, rec in enumerate(records[1:], start=2):
        if len(rec) != len(header):
            raise MalformedRow(f"{origin}:{lineno}: expected {len(header)} fields")
        try:
            values = [int(cell) for cell in rec]
        except ValueError as exc:
            raise MalformedRow(f"{origin}:{lineno}: non-integer field") from exc
        n, k, d, rho, theta = values[:5]
        t = values[5] if with_t else None
        rows.append(
            TableRow(n=n, k=k, d=d, rho=rho, theta=theta, t=t, provenance=provenance)
        )
    return rows


#: Bundled reference tables: name -> (resource file, family).
BUNDLED_TABLES: dict[str, tuple[str, str]] = {
    "ring_rho4": ("ring_rho4.csv", FAMILY_RING),
    "ring_rho3": ("ring_rho3.csv", FAMILY_RING),
    "ring_rho2": ("ring_rho2.csv", FAMILY_RING),
    "t_all_n4_11": ("t_all_n4_11.csv", FAMILY_T),
    "t_all_n12_18": ("t_all_n12_18.csv", FAMILY_T),
    "t_rhs_positive": ("t_rhs_positive.csv", FAMILY_T),
    "t_dedup": ("t_dedup.csv", FAMILY_T),
    "t_dedup_rho2": ("t_dedup_rho2.csv", FAMILY_T),
    "t_dedup_rho3": ("t_dedup_rho3.csv", FAMILY_T),
}


def load_bundled_table(name: str) -> list[TableRow]:
    """Load one bundled reference table by name; see BUNDLED_TABLES."""
    try:
        filename, _family = BUNDLED_TABLES[name]
    except KeyError:
        raise ParseError(
            f"unknown bundled table {name!r}; choose from {sorted(BUNDLED_TABLES)}"
        ) from None
    text = resources.files("frcodes").joinpath("data", filename).read_text("utf-8")
    return _parse_rows(list(csv.reader(text.splitlines())), name, PROVENANCE_TRANSCRIBED)


def bundled_table_family(name: str) -> str:
    try:
        return BUNDLED_TABLES[name][1]
    except KeyError:
        raise ParseError(f"unknown bundled table {name!r}") from None


# ---------------------------------------------------------------------------
# Heterogeneous-ring conjecture harness.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjectureFinding:
    """Brute force versus conjectured reconstruction degree for one
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
    rounds) while keeping file size theta - 1 positive."""
    return [theta for theta in range(2, 3 * n + 1) if theta % n != 0]


def conjecture_harness(
    n_values: Iterable[int],
    rho_values: Iterable[int],
    budget: int = DEFAULT_BUDGET,
) -> list[ConjectureFinding]:
    """Compare conjectured and brute-forced k over heterogeneous ring
    codes. Deterministic order: ascending (n, rho, theta). The result
    reports agreement; callers must not turn disagreement into an
    error, the conjecture is unproven either way."""
    findings = []
    for n in sorted(set(n_values)):
        for rho in sorted(set(rho_values)):
            if not 2 <= rho <= n - 1:
                continue
            for theta in default_theta_rule(n):
                prediction = predicted_k_ring(n, theta, rho)
                code = build_ring(RingSpec(n=n, theta=theta, rho=rho))
                brute = reconstruction_degree(code, theta - 1, budget=budget)
                findings.append(
                    ConjectureFinding(
                        n=n,
                        theta=theta,
                        rho=rho,
                        branch="n_gt_theta" if n > theta else "theta_not_multiple",
                        predicted_k=prediction.k,
                        brute_k=brute,
                        agree=prediction.k == brute,
                    )
                )
    return findings
