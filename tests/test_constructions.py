from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from frcodes import (
    BudgetExceeded,
    DegenerateOffsets,
    DegreeRange,
    FrCode,
    FrcError,
    InvariantViolation,
    MalformedRow,
    OrphanPacket,
    ParityError,
    ParseError,
    PrgSpec,
    RhoRange,
    RingSpec,
    TSpec,
    build_prg,
    build_ring,
    build_t_code,
    export_code,
    import_code,
    incidence_matrix,
    profile,
)
from frcodes import constructions
from frcodes.core import packets_from_mask
from frcodes.sweep import TableRow
from oracles import (
    brute_holders,
    brute_import_csv_matrix,
    set_build_prg,
    set_build_ring,
    set_build_t_code,
)

# The published 5x5 one-round block and its two-round double.
BLOCK_5 = [
    [1, 0, 0, 0, 1],
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 0, 1, 1],
]
BLOCK_5_TWICE = [row + row for row in BLOCK_5]


def all_valid_prg_specs(max_n):
    for n in range(5, max_n + 1, 2):
        for d in range(3, n - 1, 2):
            yield PrgSpec(n, d)


# --- partial regular graph -------------------------------------------------


def test_prg_7_5_shape():
    code = build_prg(PrgSpec(7, 5))
    prof = profile(code)
    assert code.theta == 17
    assert prof.alpha_per_node == (5, 5, 5, 5, 5, 5, 4)
    assert prof.rho_per_packet == (2,) * 17


def test_prg_5_3_shape():
    code = build_prg(PrgSpec(5, 3))
    prof = profile(code)
    assert code.theta == 7
    assert prof.alpha_per_node == (3, 3, 3, 3, 2)
    assert prof.rho_per_packet == (2,) * 7


def test_prg_parameter_validation():
    with pytest.raises(ParityError):
        PrgSpec(6, 3)
    with pytest.raises(ParityError):
        PrgSpec(7, 4)
    with pytest.raises(DegreeRange):
        PrgSpec(7, 1)
    with pytest.raises(DegreeRange):
        PrgSpec(7, 7)


@pytest.mark.parametrize("spec", list(all_valid_prg_specs(13)), ids=str)
def test_prg_graph_is_simple(spec):
    # every packet is a distinct vertex pair: no loops, no parallel edges
    code = build_prg(spec)
    pairs = set()
    for j in range(code.theta):
        holders = tuple(i for i in range(code.n) if code.masks[i] >> j & 1)
        assert len(holders) == 2
        assert holders not in pairs
        pairs.add(holders)


@pytest.mark.parametrize("spec", list(all_valid_prg_specs(13)), ids=str)
def test_prg_theta_and_deficit(spec):
    code = build_prg(spec)
    prof = profile(code)
    assert code.theta == (spec.n * spec.d - 1) // 2
    assert sorted(prof.alpha_per_node) == [spec.d - 1] + [spec.d] * (spec.n - 1)
    assert prof.alpha_per_node[-1] == spec.d - 1  # highest index is the short node
    # storage-replication identity for the one-short shape
    assert spec.n * spec.d - 1 == 2 * code.theta


def test_prg_deterministic():
    assert build_prg(PrgSpec(9, 5)) == build_prg(PrgSpec(9, 5))


# --- ring placement --------------------------------------------------------


def test_ring_one_round_matches_published_block():
    assert incidence_matrix(build_ring(RingSpec(5, 5, 2))) == BLOCK_5


def test_ring_two_rounds_matches_published_block():
    assert incidence_matrix(build_ring(RingSpec(5, 10, 2))) == BLOCK_5_TWICE


def test_ring_multi_round_is_horizontal_copies():
    for n, rho, m in [(4, 2, 3), (6, 3, 2), (7, 2, 3)]:
        block = incidence_matrix(build_ring(RingSpec(n, n, rho)))
        big = incidence_matrix(build_ring(RingSpec(n, m * n, rho)))
        assert big == [row * m for row in block]


def test_ring_one_round_rows_are_cyclic_shifts():
    matrix = incidence_matrix(build_ring(RingSpec(7, 7, 3)))
    first = matrix[0]
    for i, row in enumerate(matrix):
        assert row == first[-i:] + first[:-i]


def test_ring_validation():
    with pytest.raises(RhoRange):
        RingSpec(5, 5, 1)
    with pytest.raises(RhoRange):
        RingSpec(5, 5, 5)
    with pytest.raises(DegreeRange):
        RingSpec(5, 0, 2)


def test_ring_heterogeneous_profile():
    code = build_ring(RingSpec(9, 20, 3))
    prof = profile(code)
    assert sum(prof.alpha_per_node) == 3 * 20
    assert not prof.is_uniform_storage
    assert prof.rho_per_packet == (3,) * 20


def test_ring_empty_nodes_when_n_large():
    code = build_ring(RingSpec(6, 3, 2))
    prof = profile(code)
    assert prof.alpha_per_node == (1, 2, 2, 1, 0, 0)


# --- shifted placement -----------------------------------------------------


def test_builders_refuse_theta_over_cap_before_building():
    # Building any of these would take minutes and gigabytes; the cap
    # must be checked before the first packet is placed.
    message = r"^theta=1000000000 exceeds cap 4096$"
    with pytest.raises(BudgetExceeded, match=message):
        build_ring(RingSpec(3, 10**9, 2))
    with pytest.raises(BudgetExceeded, match=message):
        build_t_code(TSpec(10**9, 2, 0))
    spec = PrgSpec(666_666_667, 3)
    assert spec.theta == 10**9
    with pytest.raises(BudgetExceeded, match=message):
        build_prg(spec)


def test_t_zero_is_the_ring_code():
    assert build_t_code(TSpec(4, 2, 0)) == build_ring(RingSpec(4, 4, 2))
    assert build_t_code(TSpec(9, 3, 0)) == build_ring(RingSpec(9, 9, 3))


def test_t_one_example():
    code = build_t_code(TSpec(4, 2, 1))
    assert [list(code.packets(i)) for i in range(code.n)] == [[0, 2], [1, 3], [0, 2], [1, 3]]


def test_t_degenerate_offsets():
    with pytest.raises(DegenerateOffsets):
        TSpec(4, 2, 3)  # step 4 collapses all offsets mod 4
    with pytest.raises(DegenerateOffsets):
        TSpec(6, 4, 1)  # step 2 mod 6 gives 3 distinct offsets, need 4
    TSpec(6, 3, 1)  # exactly 3 distinct offsets is still fine


def test_t_regular_profiles():
    for n, d, t in [(5, 2, 1), (7, 3, 2), (8, 2, 3), (11, 4, 1)]:
        code = build_t_code(TSpec(n, d, t))
        prof = profile(code)
        assert code.theta == n
        assert prof.alpha_per_node == (d,) * n
        assert prof.rho_per_packet == (d,) * n


def test_t_opposite_steps_relabel_nodes():
    # steps s and -s mod n give the same multiset of node sets
    for n, d, t_a, t_b in [(7, 3, 1, 4), (9, 2, 2, 5), (10, 3, 2, 6)]:
        a = build_t_code(TSpec(n, d, t_a))
        b = build_t_code(TSpec(n, d, t_b))
        assert sorted(map(a.packets, range(n))) == sorted(map(b.packets, range(n)))
        assert a.masks != b.masks  # same code only after relabeling


# --- code files ------------------------------------------------------------


def test_json_round_trip(tmp_path):
    code = build_prg(PrgSpec(7, 5))
    path = tmp_path / "code.json"
    export_code(code, str(path))
    assert import_code(str(path)) == code
    doc = json.loads(path.read_text())
    assert doc["n"] == 7 and doc["theta"] == 17
    assert all(s == sorted(s) for s in doc["nodes"])


def test_csv_matrix_round_trip(tmp_path):
    code = build_ring(RingSpec(6, 13, 3))
    path = tmp_path / "code.csv"
    export_code(code, str(path))
    assert import_code(str(path)) == code


@pytest.mark.parametrize("name", ["code.json", "code.csv"])
def test_export_code_unwritable_path_is_frc_error(tmp_path, name):
    code = build_ring(RingSpec(5, 5, 2))
    (tmp_path / "dir" / name).mkdir(parents=True)
    for path in (tmp_path / "missing" / name, tmp_path / "dir" / name):
        with pytest.raises(FrcError) as exc:
            export_code(code, str(path))
        assert str(exc.value).startswith(f"{path}: ")


def test_import_rejects_orphan_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0,0\n1,0,1\n")
    with pytest.raises(OrphanPacket):
        import_code(str(path))


def test_import_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(ParseError):
        import_code(str(path))
    path2 = tmp_path / "bad2.json"
    path2.write_text('{"n": 2, "theta": 1}')
    with pytest.raises(ParseError):
        import_code(str(path2))
    path3 = tmp_path / "bad3.csv"
    path3.write_text("1,0\n1,2\n")
    with pytest.raises(ParseError):
        import_code(str(path3))


@pytest.mark.parametrize(
    "fields",
    [
        '"n": 2.9, "theta": "2"',
        '"n": true, "theta": 2',
        '"n": 2, "theta": false',
        '"n": "two", "theta": 2',
        '"n": 2, "theta": null',
    ],
)
def test_import_rejects_non_integer_n_theta(tmp_path, fields):
    path = tmp_path / "bad.json"
    path.write_text('{%s, "nodes": [[0, 1], [0, 1]]}' % fields)
    with pytest.raises(ParseError):
        import_code(str(path))


@pytest.mark.parametrize("packet", ["1.5", '"1"', "true"])
def test_import_refuses_packet_indices_that_are_not_ints(tmp_path, packet):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "theta": 2, "nodes": [[0, %s], [0, 1]]}' % packet)
    message = f"^{re.escape(str(path))}: packet indices must be integers$"
    with pytest.raises(ParseError, match=message):
        import_code(str(path))


def test_import_refuses_packet_types_before_make_code_checks_the_code(tmp_path):
    # Two nodes where n = 3, and packet 5 outside theta = 2: make_code
    # would refuse both, but the type check speaks first.
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "theta": 2, "nodes": [[5], ["x"]]}')
    message = f"^{re.escape(str(path))}: packet indices must be integers$"
    with pytest.raises(ParseError, match=message):
        import_code(str(path))


def test_export_refuses_an_unknown_format(tmp_path):
    path = tmp_path / "code.xml"
    with pytest.raises(ParseError, match="^unknown code format 'xml'$"):
        export_code(build_ring(RingSpec(5, 5, 2)), str(path), fmt="xml")
    assert not path.exists()


@pytest.mark.parametrize(
    "name, content",
    [
        ("bad.json", b'\xff\xfe{"n": 1}'),
        ("bad.csv", b"\xff\xfe1,0\n"),
        ("big.csv", b"1," + b"0" * 200_000 + b"\n"),  # over the csv field limit
    ],
    ids=["json-not-utf8", "csv-not-utf8", "csv-field-limit"],
)
def test_import_rejects_unreadable_text(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(ParseError) as exc:
        import_code(str(path))
    assert str(exc.value).startswith(f"{path}: not valid")


def test_import_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError) as exc:
        import_code(str(path))
    assert str(exc.value).startswith(f"{path}: not valid JSON (")


def test_import_rejects_integer_literal_over_the_digit_limit(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 2, "theta": 2, "nodes": [[0], [%s]]}' % ("9" * 5000))
    with pytest.raises(ParseError) as exc:
        import_code(str(path))
    assert str(exc.value).startswith(f"{path}: not valid JSON (")


# Entries int() accepts in other spellings, and entries it rejects or
# that are not 0/1, next to the "0" and "1" that export_code writes.
CSV_ENTRIES = ["0", "1", " 1", "1 ", "+1", "01", "-0", "2", "x", ""]


def outcome(make, *args):
    """make(*args), or the class and message of its error."""
    try:
        return make(*args)
    except FrcError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_csv_matrix_import_matches_int_parse_oracle(tmp_path_factory, data):
    theta = data.draw(st.integers(1, 5), label="theta")
    binary = st.lists(st.sampled_from(["0", "1"]), min_size=theta, max_size=theta)
    mixed = st.lists(st.sampled_from(CSV_ENTRIES), min_size=theta, max_size=theta)
    ragged = st.lists(st.sampled_from(["0", "1"]), min_size=0, max_size=theta + 1)
    blank = st.just([])
    row = st.one_of(binary, binary, mixed, ragged, blank)
    rows = data.draw(st.lists(row, max_size=6), label="rows")
    path = tmp_path_factory.mktemp("csv") / "code.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert outcome(import_code, str(path)) == outcome(brute_import_csv_matrix, str(path))


def binary_row(theta):
    """theta "0"/"1" entries, drawn as one integer so that wide rows
    are cheap to draw."""
    return st.integers(0, (1 << theta) - 1).map(lambda m: list(f"{m:0{theta}b}"))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_wide_csv_matrix_import_matches_int_parse_oracle(tmp_path_factory, data):
    # Masks wider than a machine word, orphan columns far past bit 64,
    # and now and then an entry in another spelling or a ragged row.
    theta = data.draw(st.integers(1, 300), label="theta")
    rows = data.draw(st.lists(binary_row(theta), min_size=1, max_size=8), label="rows")
    if data.draw(st.booleans(), label="cover"):
        # Cover every column, or every column but one, so the code is
        # often valid and an orphan can sit anywhere.
        rows.append(["1"] * theta)
        gap = data.draw(st.integers(-1, theta - 1), label="gap")
        if gap >= 0:
            for row in rows:
                row[gap] = "0"
    if data.draw(st.booleans(), label="edit"):
        row = data.draw(st.sampled_from(rows), label="row")
        column = data.draw(st.integers(0, theta - 1), label="column")
        row[column] = data.draw(st.sampled_from(CSV_ENTRIES), label="entry")
    if data.draw(st.booleans(), label="ragged"):
        rows.append(data.draw(binary_row(data.draw(st.integers(1, 301)))))
    path = tmp_path_factory.mktemp("csv") / "code.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert outcome(import_code, str(path)) == outcome(brute_import_csv_matrix, str(path))


@pytest.mark.parametrize(
    "rows, error",
    [
        ([["1"] * 4097], (BudgetExceeded, "theta=4097 exceeds cap 4096")),
        ([["1"] * 70 + ["0"] + ["1"] * 9, ["0"] * 80], (OrphanPacket, "packet 70 is stored on no node")),
        ([["1"] * 200 + ["0"] * 100] * 3, (OrphanPacket, "packet 200 is stored on no node")),
    ],
    ids=["row-4097-wide", "orphan-bit-70", "orphan-bit-200"],
)
def test_wide_csv_matrix_errors_match_oracle(tmp_path, rows, error):
    path = tmp_path / "code.csv"
    path.write_text("".join(",".join(r) + "\n" for r in rows), encoding="utf-8")
    assert outcome(import_code, str(path)) == error
    assert outcome(brute_import_csv_matrix, str(path)) == error


# Text where csv and str.splitlines part ways, a byte-order mark out of
# place, quotes, spaces, commas and line ends inside a row.
HOSTILE = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\ufeff", '"', '"1"', " ", ",", "\r", "\n"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_csv_matrix_import_of_hostile_text_matches_oracle(tmp_path_factory, data):
    theta = data.draw(st.integers(1, 4), label="theta")
    row = st.lists(st.sampled_from("01"), min_size=theta, max_size=theta).map(",".join)
    lines = data.draw(st.lists(st.one_of(row, row, st.just("")), max_size=5), label="lines")
    ends = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines))
    text = "".join(map(str.__add__, lines, data.draw(ends, label="ends")))
    if data.draw(st.booleans(), label="unterminated"):
        text = text.rstrip("\r\n")
    for _ in range(data.draw(st.integers(0, 2), label="edits")):
        at = data.draw(st.integers(0, len(text)), label="at")
        text = text[:at] + data.draw(st.sampled_from(HOSTILE), label="inserted") + text[at:]
    if data.draw(st.booleans(), label="bom"):
        text = "\ufeff" + text
    path = tmp_path_factory.mktemp("csv") / "code.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)  # line ends as drawn
    assert outcome(import_code, str(path)) == outcome(brute_import_csv_matrix, str(path))


def test_over_wide_binary_csv_is_refused_before_any_csv_parse(tmp_path, monkeypatch):
    # Every line is checked, then the width is refused, before any row
    # is folded and with no csv record built.
    path = tmp_path / "code.csv"
    path.write_text(("1," * 99_999 + "1\n") * 20, encoding="utf-8")
    monkeypatch.setattr(constructions, "read_csv_records", None)
    assert outcome(import_code, str(path)) == (BudgetExceeded, "theta=100000 exceeds cap 4096")
    monkeypatch.undo()
    # A row not as export_code writes it goes through csv, and its
    # error still comes ahead of the width's.
    path.write_text(("1," * 4_999 + "1\n") * 3 + "1," * 4_999 + "x\n", encoding="utf-8")
    error = (ParseError, f"{path}:4: non-integer entry")
    assert outcome(import_code, str(path)) == outcome(brute_import_csv_matrix, str(path)) == error


def test_csv_import_reports_a_csv_error_before_later_bad_utf8(tmp_path):
    # csv reads record by record, so it refuses the over-long field of
    # the first record before the decoder reaches the bad byte.
    path = tmp_path / "code.csv"
    path.write_bytes(b"1," + b"0" * 200_000 + b"\n" + b"1,0\n" * 5_000 + b"\xff\n")
    with pytest.raises(ParseError, match="^.*: not valid CSV \\(field larger than field limit"):
        import_code(str(path))


# --- builders against the set-built reference ------------------------------

BUILDS = {
    "ring": (RingSpec, build_ring, set_build_ring),
    "t": (TSpec, build_t_code, set_build_t_code),
    "prg": (PrgSpec, build_prg, set_build_prg),
}


def assert_builds_like_reference(family, args):
    """The builder and its set-built reference give the same code, or
    the same error class and message; the builder seeds holders, which
    must be the incidence read by packet."""
    spec_class, build, reference = BUILDS[family]
    got = outcome(lambda: build(spec_class(*args)))
    want = outcome(lambda: reference(spec_class(*args)))
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.masks == want.masks and got == want
    assert "holders" in got.__dict__  # seeded, not transposed on first use
    assert got.holders == FrCode(got.n, got.theta, got.masks).holders == want.holders
    assert [set(packets_from_mask(h)) for h in got.holders] == brute_holders(want)
    assert got.rotation_invariant == want.rotation_invariant


# Every ring with 3 <= n <= 12 and theta <= 3n + 2, empty nodes
# included; every t code with n <= 13 and t <= n, gcd(t + 1, n) > 1
# and degenerate offsets included; every prg code with n <= 17; and
# specs that are out of range or over the cap.
BUILD_GRID = (
    [("ring", (n, theta, rho)) for n in range(1, 13) for rho in range(1, n + 1)
     for theta in range(0, 3 * n + 3)]
    + [("t", (n, d, t)) for n in range(1, 14) for d in range(1, n + 2)
       for t in range(-1, n + 1)]
    + [("prg", (n, d)) for n in range(1, 18) for d in range(1, n + 1)]
    + [
        ("ring", (3, 4097, 2)),
        ("ring", (4097, 5, 2)),
        ("ring", (4097, 4097, 2)),
        ("ring", (5000, 10**9, 3)),
        ("t", (4097, 2, 0)),
        ("t", (10**9, 3, 4)),
        ("prg", (2733, 3)),
        ("prg", (666_666_667, 3)),
    ]
)


def test_builders_match_set_built_reference_on_grid():
    for family, args in BUILD_GRID:
        assert_builds_like_reference(family, args)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_builders_match_set_built_reference(data):
    family = data.draw(st.sampled_from(sorted(BUILDS)), label="family")
    n = data.draw(st.integers(1, 41), label="n")
    size = st.integers(-1, 2 * n + 2) | st.integers(0, 130)
    args = data.draw(st.tuples(size, size) if family != "prg" else st.tuples(size), label="args")
    assert_builds_like_reference(family, (n, *args))


ODD_FIELDS = st.one_of(
    st.integers(-3, 40),
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_specs_and_builders_raise_only_toolkit_errors(data):
    family = data.draw(st.sampled_from(sorted(BUILDS)), label="family")
    spec_class, build, _ = BUILDS[family]
    args = data.draw(st.tuples(*[ODD_FIELDS] * (2 if family == "prg" else 3)), label="args")
    try:
        build(spec_class(*args))
    except FrcError:
        pass
    row = data.draw(st.tuples(*[ODD_FIELDS] * 6), label="row")
    try:
        TableRow(*row)
    except FrcError:
        pass


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: build_ring(RingSpec(10.0, 10, 3)), "n=10.0 is not an integer"),
        (lambda: build_prg(PrgSpec(21.0, 5)), "n=21.0 is not an integer"),
        (lambda: build_t_code(TSpec(10, 3, 1.0)), "t=1.0 is not an integer"),
        (lambda: RingSpec(None, 10, 3), "n=None is not an integer"),
        (lambda: RingSpec(5, 5, True), "rho=True is not an integer"),
        (lambda: PrgSpec(7, "5"), "d='5' is not an integer"),
    ],
    ids=["ring-float", "prg-float", "t-float", "ring-none", "ring-bool", "prg-str"],
)
def test_specs_refuse_non_int_fields(make, message):
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize(
    "fields, message",
    [
        (("1", 1, 1, 1, 1), "n='1' is not an integer"),
        ((1, 1, 1, 1, 1.0), "theta=1.0 is not an integer"),
        ((1, 1, 1, 1, 1, True), "t=True is not an integer"),
    ],
)
def test_table_row_refuses_non_int_fields(fields, message):
    with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
        TableRow(*fields)
    assert TableRow(1, 1, 1, 1, 1, None).t is None


@pytest.mark.parametrize(
    "fields, message",
    [
        ((0, 1, 1, 1, 1.0), "theta=1.0 is not an integer"),
        ((5000, 0, 1, 1, 1), "k=0 must be positive"),
        ((1, 0, 1, 1, 1, -1), "k=0 must be positive"),
        ((1, 1, 1, 1, 5000, -1), "t=-1 must be nonnegative"),
        ((1, 5000, 1, 1, 1, 5000), "k exceeds cap 4096"),
        ((1, 1, 1, 1, 1, 5000), "t exceeds cap 4096"),
    ],
)
def test_table_row_reports_first_fault_in_phase_order(fields, message):
    # Types first, then signs, then the cap, each in field order.
    with pytest.raises(MalformedRow, match=f"^{re.escape(message)}$"):
        TableRow(*fields)


class Digits(str):
    """A JSON integer literal, written out as its digits."""


def dump_json(value) -> str:
    if isinstance(value, Digits):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(map(dump_json, value)) + "]"
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {dump_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    return json.dumps(value)


# Integer literals around the interpreter's 4,300-digit conversion limit.
LONG_INTEGERS = st.builds(
    lambda sign, digits: Digits(sign + "9" * digits),
    st.sampled_from(["", "-"]),
    st.integers(4290, 4310),
)
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.integers(-2, 6), LONG_INTEGERS,
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "theta", "nodes", "x"]), inner, max_size=4),
    max_leaves=12,
)


def code_like(n, theta):
    """Code documents near n nodes and theta packets: these reach
    make_code, and some of them are valid codes. JSON_VALUES covers
    missing keys and values of the wrong type."""
    packet = st.integers(0, max(theta - 1, 0)) | st.integers(-1, theta)
    node = st.lists(packet, max_size=theta + 1)
    nodes = st.lists(node, min_size=n, max_size=n) | st.lists(node, max_size=n + 1)
    return st.fixed_dictionaries({"n": st.just(n), "theta": st.just(theta), "nodes": nodes})


CODE_LIKE = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(lambda nt: code_like(*nt))


@settings(max_examples=200, deadline=None)
@given(doc=st.one_of(JSON_VALUES, CODE_LIKE))
def test_import_json_fuzz_raises_only_toolkit_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("json") / "code.json"
    path.write_text(dump_json(doc), encoding="utf-8")
    try:
        code = import_code(str(path))
    except FrcError:
        return
    assert isinstance(code, FrCode)


@pytest.mark.parametrize("name", ["code.csv", "code.json"])
def test_import_with_byte_order_mark(tmp_path, name):
    code = build_ring(RingSpec(6, 13, 3))
    path = tmp_path / name
    export_code(code, str(path))
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert import_code(str(path)) == code


def test_import_unknown_extension(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("{}")
    with pytest.raises(ParseError):
        import_code(str(path))
