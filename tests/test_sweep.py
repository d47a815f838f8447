from __future__ import annotations

import pytest

from frcodes import (
    FAMILY_RING,
    FAMILY_T,
    MalformedRow,
    ParseError,
    TableRow,
    audit_dedup,
    audit_rhs_filter,
    audit_table,
    bundled_table_family,
    conjecture_harness,
    dedup_rows,
    default_theta_rule,
    filter_rhs,
    load_bundled_table,
    read_rows_csv,
    restrict_rho,
    sweep_ring,
    write_rows_csv,
)

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
    assert audit.consistent_nonneg
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


# --- CSV io ----------------------------------------------------------------


def test_rows_csv_round_trip(tmp_path):
    rows = sweep_ring(range(4, 9), [2], [1, 2])
    path = tmp_path / "rows.csv"
    write_rows_csv(rows, str(path))
    back = read_rows_csv(str(path), provenance="generated")
    assert back == rows
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
    assert read_rows_csv(str(marked), provenance="generated") == rows


def test_load_bundled_table_errors_and_family():
    with pytest.raises(ParseError):
        load_bundled_table("nope")
    with pytest.raises(ParseError):
        bundled_table_family("nope")
    assert bundled_table_family("ring_rho3") == FAMILY_RING
    assert bundled_table_family("t_dedup") == FAMILY_T
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
