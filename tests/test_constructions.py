from __future__ import annotations

import itertools
import json

import pytest

from frcodes import (
    DegenerateOffsets,
    DegreeRange,
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


def test_import_unknown_extension(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("{}")
    with pytest.raises(ParseError):
        import_code(str(path))
