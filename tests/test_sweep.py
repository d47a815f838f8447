from __future__ import annotations

import csv
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from frcodes import (
    BUNDLED_TABLES,
    BudgetExceeded,
    FAMILY_RING,
    FAMILY_T,
    FrcError,
    InvariantViolation,
    MalformedRow,
    ParseError,
    RingSpec,
    TableRow,
    audit_dedup,
    audit_rhs_filter,
    audit_table,
    build_ring,
    conjecture_harness,
    dedup_rows,
    default_theta_rule,
    filter_rhs,
    load_bundled_table,
    predicted_k_ring,
    read_rows_csv,
    restrict_rho,
    sweep_ring,
    write_rows_csv,
)
from frcodes import sweep

RING_TABLES = ("ring_rho4", "ring_rho3", "ring_rho2")


# --- TableRow --------------------------------------------------------------


def test_table_row_validation():
    TableRow(n=5, k=3, d=2, rho=2, theta=5)  # fine
    with pytest.raises(MalformedRow):
        TableRow(n=0, k=3, d=2, rho=2, theta=5)
    with pytest.raises(MalformedRow):
        TableRow(n=5, k=3, d=2, rho=-1, theta=5)
    with pytest.raises(MalformedRow):
        TableRow(n=5, k=3, d=2, rho=2, theta=5, t=-1)


def test_table_row_fields_above_the_cap_are_malformed():
    TableRow(n=4096, k=4096, d=4096, rho=4096, theta=4096, t=4096)  # fine
    for name in ("n", "k", "d", "rho", "theta", "t"):
        fields = dict(n=5, k=3, d=2, rho=2, theta=5, t=1)
        fields[name] = 4097
        with pytest.raises(MalformedRow, match=rf"^{name} exceeds cap 4096$"):
            TableRow(**fields)


def test_table_row_keys():
    row = TableRow(n=5, k=3, d=2, rho=2, theta=5, t=1)
    assert row.key() == (5, 3, 2, 2, 5, 1)
    assert row.params_key() == (5, 3, 2, 2, 5)
    assert row.to_dict()["t"] == 1
    assert "t" not in TableRow(n=5, k=3, d=2, rho=2, theta=5).to_dict()


# --- sweep_ring ------------------------------------------------------------


def test_sweep_reproduces_bundled_rho4_table():
    swept = sweep_ring(range(10, 17), [4], [1])
    bundled = load_bundled_table("ring_rho4")
    assert [r.params_key() for r in swept] == [r.params_key() for r in bundled]


def test_sweep_contains_all_bundled_ring_rows():
    swept = {r.params_key() for r in sweep_ring(range(3, 17), [2, 3, 4], [1, 2, 3])}
    for name in RING_TABLES:
        for row in load_bundled_table(name):
            assert row.params_key() in swept


def test_sweep_pins_and_order():
    rows = sweep_ring(range(3, 17), [2, 3, 4], [1, 2, 3])
    assert len(rows) == 62
    keys = {r.params_key() for r in rows}
    assert (11, 8, 3, 3, 11) in keys
    assert (11, 9, 6, 3, 22) in keys
    assert (8, 7, 6, 2, 24) in keys
    order = [(-r.rho, r.n, r.theta) for r in rows]
    assert order == sorted(order)
    assert all(r.provenance == "generated" for r in rows)


def test_sweep_deterministic():
    a = sweep_ring(range(3, 12), [2, 3], [1, 2])
    b = sweep_ring(range(3, 12), [2, 3], [1, 2])
    assert a == b


def test_sweep_skips_invalid_rho():
    rows = sweep_ring([3], [4], [1])
    assert rows == []


def test_sweep_reads_each_grid_axis_once():
    # n and m are sorted once, not once per rho, so one-shot iterables
    # give every row.
    rows = sweep_ring(range(5, 8), [2, 3], [1, 2])
    assert sweep_ring(iter(range(5, 8)), iter([2, 3]), iter([1, 2])) == rows


def test_sweep_visits_n_then_rho_then_m_and_answers_at_any_budget(monkeypatch):
    # The walk visits n, then rho, then m. Rings with m >= 2 share holder
    # windows, and on ring(n, n, rho) packets 0 and 1 span rho + 1 nodes,
    # the proven floor: every ring answers with no search, so no budget
    # refuses the grid. A walk by rho first would visit the rings in
    # another order.
    seen = []
    degree = sweep.reconstruction_degree

    def recording(code, *args, **kwargs):
        seen.append((code.n, code.theta, code.holders[0].bit_count()))
        return degree(code, *args, **kwargs)

    monkeypatch.setattr(sweep, "reconstruction_degree", recording)
    rows = sweep_ring(range(3, 17), [2, 3, 4], [1, 2, 3], budget=1)
    walk = [(n, m * n, rho) for n in range(3, 17) for rho in (2, 3, 4) if rho < n for m in (1, 2, 3)]
    assert seen == walk
    assert len(rows) == 62
    assert rows == sweep_ring(range(3, 17), [2, 3, 4], [1, 2, 3], budget=35)


def forbidden(*args, **kwargs):
    raise AssertionError("no search may run before the cap refusal")


def test_both_sweeps_refuse_thetas_past_the_cap_before_any_search(monkeypatch):
    # From n = 1366 on, 3n passes the cap; the sweeps would otherwise
    # search every smaller n first, for seconds to minutes.
    monkeypatch.setattr(sweep, "reconstruction_degree", forbidden)
    with pytest.raises(BudgetExceeded, match="^theta=4098 exceeds cap 4096$"):
        sweep_ring(range(1000, 1401), [2], [3])
    with pytest.raises(BudgetExceeded, match="^theta=4097 exceeds cap 4096$"):
        conjecture_harness(range(4, 1401), [2])


def test_sweeps_refuse_grids_that_are_not_ints_before_any_search(monkeypatch):
    monkeypatch.setattr(sweep, "reconstruction_degree", forbidden)
    with pytest.raises(InvariantViolation, match="^n=5.0 is not an integer$"):
        conjecture_harness([5.0], [2])
    with pytest.raises(InvariantViolation, match="^n=5.0 is not an integer$"):
        default_theta_rule(5.0)
    with pytest.raises(InvariantViolation, match="^rho=1.5 is not an integer$"):
        sweep_ring([6], [1.5], [1])
    # Not theta=2100.0, which the cap check would otherwise reach first.
    with pytest.raises(InvariantViolation, match="^m=1.5 is not an integer$"):
        sweep_ring([1400], [2], [1.5, 3])


def first_build_error(n_values, rho_values, m_values):
    """The first error build_ring raises over sweep_ring's grid, walked in
    its order (n, then rho, then m), or None when every ring builds."""
    for n in sorted(set(n_values)):
        for rho in sorted(set(rho_values)):
            if not 2 <= rho <= n - 1:
                continue
            for m in sorted(set(m_values)):
                if m < 1:
                    continue
                try:
                    build_ring(RingSpec(n=n, theta=m * n, rho=rho))
                except FrcError as exc:
                    return exc
    return None


near_the_cap = st.integers(1360, 1370) | st.integers(4094, 4100)


# A ring near n = 1365 takes about 6 ms to build and one near 4096 about
# 30 ms, but most grids are refused or fit no rho: 150 grids take about
# a second.
@settings(max_examples=150, deadline=None)
@given(
    n_values=st.lists(near_the_cap, min_size=1, max_size=3),
    rho_values=st.lists(st.integers(0, 5), min_size=1, max_size=2),
    m_values=st.lists(st.integers(-1, 4), min_size=1, max_size=3),
)
@example(n_values=[1365, 1366], rho_values=[2], m_values=[3])
@example(n_values=[1370, 4097], rho_values=[0, 3], m_values=[-1, 1])
# The refusal is read off the least rho >= 2, which fits only n > rho.
@example(n_values=[1366, 4000], rho_values=[1366], m_values=[1, 3])
@example(n_values=[1366, 1400], rho_values=[2, 1367], m_values=[3])
def test_sweep_refuses_as_its_first_build_would(n_values, rho_values, m_values):
    expected = first_build_error(n_values, rho_values, m_values)
    with mock.patch.object(sweep, "reconstruction_degree", lambda code, size, budget: 1):
        if expected is None:
            sweep_ring(n_values, rho_values, m_values)
            return
        with pytest.raises(type(expected)) as raised:
            sweep_ring(n_values, rho_values, m_values)
    assert str(raised.value) == str(expected)


# --- audit_table -----------------------------------------------------------


def test_bundled_ring_tables_audit_clean():
    for name in RING_TABLES:
        findings = audit_table(load_bundled_table(name), FAMILY_RING)
        assert findings, name
        assert all(f.passed for f in findings), name
        assert all(f.duplicate_of is None for f in findings), name


def test_audit_ring_row_fields():
    row = TableRow(n=6, k=5, d=4, rho=2, theta=12)
    (finding,) = audit_table([row], FAMILY_RING)
    assert finding.identity_ok  # 6 * 4 == 2 * 12
    assert finding.rhs == 10
    assert finding.rhs_positive
    assert finding.margin == 1
    assert finding.predicted_k == 5
    assert finding.predicted_k_ok
    assert finding.passed


def test_audit_flags_wrong_k():
    row = TableRow(n=6, k=4, d=4, rho=2, theta=12)
    (finding,) = audit_table([row], FAMILY_RING)
    assert finding.predicted_k == 5
    assert finding.predicted_k_ok is False
    assert not finding.passed


def test_audit_flags_negative_margin():
    row = TableRow(n=8, k=3, d=5, rho=5, theta=8)
    (finding,) = audit_table([row], FAMILY_RING)
    assert finding.identity_ok and finding.predicted_k_ok
    assert finding.rhs == 12
    assert finding.margin == -5
    assert not finding.passed


def test_audit_reports_duplicates_without_failing():
    row = TableRow(n=6, k=5, d=4, rho=2, theta=12)
    findings = audit_table([row, row], FAMILY_RING)
    assert findings[0].duplicate_of is None
    assert findings[1].duplicate_of == 0
    assert all(f.passed for f in findings)


def test_audit_t_family_identity():
    full = load_bundled_table("t_all_n4_11") + load_bundled_table("t_all_n12_18")
    assert len(full) == 143
    findings = audit_table(full, FAMILY_T)
    assert all(f.identity_ok for f in findings)
    assert all(f.predicted_k is None for f in findings)
    assert all(f.margin_ok for f in findings)


def test_audit_t_family_identity_needs_both_equalities():
    # A t code has n = theta and d = rho; either equality alone fails.
    rows = [
        TableRow(n=7, k=5, d=3, rho=3, theta=7, t=0),
        TableRow(n=7, k=5, d=3, rho=2, theta=7, t=0),
        TableRow(n=7, k=5, d=3, rho=3, theta=8, t=0),
    ]
    assert [f.identity_ok for f in audit_table(rows, FAMILY_T)] == [True, False, False]


def test_audit_unknown_family():
    with pytest.raises(ParseError):
        audit_table([], "rings")


# --- listing relationships -------------------------------------------------


def test_rhs_filter_audit_of_bundled_tables():
    full = load_bundled_table("t_all_n4_11") + load_bundled_table("t_all_n12_18")
    claimed = load_bundled_table("t_rhs_positive")
    assert len(claimed) == 71
    audit = audit_rhs_filter(full, claimed)
    assert audit.missing_strict == ()
    assert audit.missing_nonneg == ()
    assert audit.not_in_source == ()
    assert len(audit.zero_rhs) == 22
    assert sorted(r.key() for r in audit.negative_rhs) == [
        (14, 13, 2, 2, 14, 1),
        (15, 13, 2, 2, 15, 0),
        (15, 13, 2, 2, 15, 2),
        (15, 13, 2, 2, 15, 3),
        (15, 13, 2, 2, 15, 4),
        (16, 13, 3, 3, 16, 3),
        (17, 13, 3, 3, 17, 2),
        (17, 13, 3, 3, 17, 3),
        (17, 13, 3, 3, 17, 4),
    ]


def test_dedup_audit_of_bundled_tables():
    claimed = load_bundled_table("t_dedup")
    assert len(claimed) == 40
    audit = audit_dedup(load_bundled_table("t_rhs_positive"), claimed)
    assert audit.exact
    assert restrict_rho(claimed, 2) == load_bundled_table("t_dedup_rho2")
    assert restrict_rho(claimed, 3) == load_bundled_table("t_dedup_rho3")


def test_filter_and_dedup_primitives():
    rows = [
        TableRow(n=4, k=3, d=2, rho=2, theta=4, t=0),
        TableRow(n=4, k=3, d=2, rho=2, theta=4, t=1),
        TableRow(n=15, k=13, d=2, rho=2, theta=15, t=0),  # rhs = 26 - 78 < 0
        TableRow(n=6, k=4, d=2, rho=2, theta=6, t=0),  # rhs = 8 - 6 > 0
    ]
    assert [r.t for r in filter_rhs(rows, strict=True)] == [0, 1, 0]
    assert len(filter_rhs(rows, strict=False)) == 3
    assert [r.t for r in dedup_rows(rows)] == [0, 0, 0]


def test_listing_audits_name_each_missing_foreign_and_repeated_row():
    # The audits compare listings as multisets: a row listed once more
    # than the source lists it is reported once, as a foreign row is.
    a = TableRow(n=4, k=3, d=2, rho=2, theta=4, t=0)  # rhs = 6 - 3 > 0
    b = TableRow(n=6, k=4, d=2, rho=2, theta=6, t=0)  # rhs = 8 - 6 > 0
    zero = TableRow(n=7, k=5, d=2, rho=2, theta=7, t=0)  # rhs = 10 - 10
    negative = TableRow(n=15, k=13, d=2, rho=2, theta=15, t=0)
    foreign = TableRow(n=8, k=4, d=2, rho=2, theta=8, t=0)
    source = [a, a, b, zero, negative]
    # b dropped, a listed three times against the source's two, and a
    # row the source lacks.
    audit = audit_rhs_filter(source, [a, a, a, foreign])
    assert audit.missing_strict == (b,)
    assert audit.missing_nonneg == (b, zero)
    assert audit.not_in_source == (a, foreign)
    assert audit.negative_rhs == audit.zero_rhs == ()
    # dedup(source) is a, b, zero, negative: b dropped, a repeated.
    dedup = audit_dedup(source, [a, a, zero, negative, foreign])
    assert dedup.missing == (b,)
    assert dedup.extra == (a, foreign)
    assert not dedup.exact
    assert audit_dedup(source, [negative, zero, b, a]).exact
    # One kind of fault is enough.
    assert not audit_dedup(source, [a, zero, negative]).exact  # b missing
    assert not audit_dedup(source, [a, b, zero, negative, foreign]).exact


# --- CSV io ----------------------------------------------------------------


def test_rows_csv_round_trip(tmp_path):
    rows = sweep_ring(range(4, 9), [2], [1, 2])
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, str(path))
    back = read_rows_csv(str(path))
    assert [row.key() for row in back] == [row.key() for row in rows]
    assert all(row.provenance == "transcribed" for row in back)
    assert path.read_text().splitlines()[0] == "n,k,d,rho,theta"


def test_rows_csv_round_trip_with_t(tmp_path):
    rows = [
        TableRow(n=4, k=3, d=2, rho=2, theta=4, t=0, provenance="transcribed"),
        TableRow(n=5, k=4, d=2, rho=2, theta=5, t=1, provenance="transcribed"),
    ]
    path = tmp_path / "t_rows.csv"
    write_rows_csv(rows, str(path))
    assert path.read_text().splitlines()[0] == "n,k,d,rho,theta,t"
    assert read_rows_csv(str(path)) == rows


def test_rows_csv_mixed_t_rejected(tmp_path):
    rows = [
        TableRow(n=4, k=3, d=2, rho=2, theta=4, t=0),
        TableRow(n=5, k=4, d=2, rho=2, theta=5),
    ]
    with pytest.raises(MalformedRow):
        write_rows_csv(rows, str(tmp_path / "bad.csv"))
    # The table is refused before the file is opened, so none is left.
    assert not (tmp_path / "bad.csv").exists()


def test_write_rows_csv_unwritable_path_is_frc_error(tmp_path):
    rows = [TableRow(n=5, k=3, d=2, rho=2, theta=5)]
    for path in (tmp_path / "missing" / "rows.csv", tmp_path):
        with pytest.raises(FrcError) as exc:
            write_rows_csv(rows, str(path))
        assert str(exc.value).startswith(f"{path}: ")


def test_read_rows_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_rows_csv(str(bad_header))

    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        read_rows_csv(str(empty))

    short_row = tmp_path / "s.csv"
    short_row.write_text("n,k,d,rho,theta\n5,3,2,2\n")
    with pytest.raises(MalformedRow):
        read_rows_csv(str(short_row))

    non_int = tmp_path / "i.csv"
    non_int.write_text("n,k,d,rho,theta\n5,3,2,2,x\n")
    with pytest.raises(MalformedRow):
        read_rows_csv(str(non_int))

    nonpositive = tmp_path / "p.csv"
    nonpositive.write_text("n,k,d,rho,theta\n5,0,2,2,5\n")
    with pytest.raises(MalformedRow):
        read_rows_csv(str(nonpositive))


@pytest.mark.parametrize(
    "content",
    [
        b"n,k,d,rho,theta\n\xff\xfe\n",
        b"n,k,d,rho,theta\n" + b"5" * 200_000 + b"\n",  # over the csv field limit
    ],
    ids=["not-utf8", "field-limit"],
)
def test_read_rows_csv_rejects_unreadable_text(tmp_path, content):
    path = tmp_path / "rows.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError) as exc:
        read_rows_csv(str(path))
    assert str(exc.value).startswith(f"{path}: not valid")


def test_read_rows_csv_accepts_byte_order_mark(tmp_path):
    rows = [TableRow(n=5, k=3, d=2, rho=2, theta=5, provenance="generated")]
    plain = tmp_path / "plain.csv"
    write_rows_csv(rows, str(plain))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back = read_rows_csv(str(marked))
    assert [row.key() for row in back] == [row.key() for row in rows]
    assert all(row.provenance == "transcribed" for row in back)


def test_load_bundled_table_errors_and_family():
    with pytest.raises(ParseError):
        load_bundled_table("nope")
    # An unhashable name is refused as unknown, not with a TypeError.
    with pytest.raises(ParseError, match=r"^unknown bundled table \['ring_rho3'\]; choose from \["):
        load_bundled_table(["ring_rho3"])
    assert "nope" not in BUNDLED_TABLES
    assert BUNDLED_TABLES["ring_rho3"] == FAMILY_RING
    assert BUNDLED_TABLES["t_dedup"] == FAMILY_T
    table = load_bundled_table("ring_rho3")
    assert len(table) == 14
    assert all(r.provenance == "transcribed" for r in table)


# --- conjecture harness ----------------------------------------------------


def test_default_theta_rule():
    assert default_theta_rule(4) == [2, 3, 5, 6, 7, 9, 10, 11]
    assert all(theta % 5 != 0 for theta in default_theta_rule(5))


def test_conjecture_harness_fields_and_example():
    findings = conjecture_harness([9], [3])
    assert findings == conjecture_harness([9], [3])  # deterministic
    assert findings
    for f in findings:
        assert f.theta % f.n != 0
        assert f.agree == (f.predicted_k == f.brute_k)
        assert f.branch == ("n_gt_theta" if f.n > f.theta else "theta_not_multiple")
    by_key = {(f.n, f.theta, f.rho): f for f in findings}
    example = by_key[(9, 20, 3)]
    assert example.predicted_k == 7
    assert example.branch == "theta_not_multiple"
    low = by_key[(9, 5, 3)]
    assert low.branch == "n_gt_theta"
    assert low.predicted_k == 6


def test_conjecture_harness_skips_invalid_rho():
    assert conjecture_harness([3], [5]) == []


def test_the_grid_builds_the_builders_rings(monkeypatch):
    # _ring_degrees checks the grid once and places every ring from its
    # (n, rho)'s shared arcs, so each must be the ring build_ring gives,
    # with the same cached transpose and symmetry.
    visited = []
    place = sweep._ring

    def recording(n, theta, rho, arcs):
        code = place(n, theta, rho, arcs)
        visited.append((n, theta, rho, code))
        return code

    monkeypatch.setattr(sweep, "_ring", recording)
    sweep_ring(range(3, 13), [2, 3, 4], [1, 2, 3])
    swept = len(visited)
    assert [(n, theta, rho) for n, theta, rho, _ in visited] == [
        (n, m * n, rho) for n in range(3, 13) for rho in (2, 3, 4) if rho < n for m in (1, 2, 3)
    ]
    findings = conjecture_harness(range(3, 13), [2, 3, 4])
    assert [(n, theta, rho) for n, theta, rho, _ in visited[swept:]] == [
        (f.n, f.theta, f.rho) for f in findings
    ]
    for n, theta, rho, code in visited:
        built = build_ring(RingSpec(n=n, theta=theta, rho=rho))
        assert code == built, (n, theta, rho)
        cached = ("holders", "rotation_invariant")
        assert {key: vars(code)[key] for key in cached} == {
            key: vars(built)[key] for key in cached
        }, (n, theta, rho)
    for f in findings:
        assert sweep._predicted_k(f.n, f.theta, f.rho) == predicted_k_ring(f.n, f.theta, f.rho)


def test_the_grid_builds_each_n_and_rhos_arcs_once(monkeypatch):
    # One _ring_arcs call per (n, rho) pair: n 4..14 fit 2 + 10 * 3 = 32
    # pairs, for 751 rings.
    calls = []
    arcs = sweep._ring_arcs

    def counting(n, rho):
        calls.append((n, rho))
        return arcs(n, rho)

    monkeypatch.setattr(sweep, "_ring_arcs", counting)
    findings = conjecture_harness(range(4, 15), [2, 3, 4])
    assert len(findings) == 751
    assert len(calls) == 32
    assert calls == sorted(set(calls))


def test_bundled_tables_registry_matches_data_files():
    data = resources.files("frcodes").joinpath("data")
    stems = {f.name[:-4] for f in data.iterdir() if f.name.endswith(".csv")}
    assert set(BUNDLED_TABLES) == stems
    for name, family in BUNDLED_TABLES.items():
        text = data.joinpath(f"{name}.csv").read_text("utf-8")
        header = next(csv.reader(text.splitlines()))
        assert (family == FAMILY_T) == (header[-1] == "t"), name
