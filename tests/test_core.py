from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from frcodes import (
    BudgetExceeded,
    EmptySystem,
    FrcError,
    IndexOutOfRange,
    InvariantViolation,
    OrphanPacket,
    check_identities,
    code_from_matrix,
    incidence_matrix,
    make_code,
    profile,
    single_deficit_shape,
)
from frcodes.constructions import PrgSpec, RingSpec, build_prg, build_ring
from frcodes.core import FrCode
from oracles import brute_holders


@st.composite
def random_codes(draw, max_n=8, max_theta=12):
    n = draw(st.integers(1, max_n))
    theta = draw(st.integers(1, max_theta))
    storage = [set() for _ in range(n)]
    for j in range(theta):
        holders = draw(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
        )
        for i in holders:
            storage[i].add(j)
    return make_code(n, theta, storage)


def test_make_code_smallest():
    code = make_code(1, 1, [{0}])
    assert code.n == 1 and code.theta == 1
    assert code.packets(0) == (0,)


def test_make_code_rejects_orphan():
    with pytest.raises(OrphanPacket):
        make_code(2, 2, [{0}, {0}])


def test_make_code_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        make_code(2, 2, [{0, 2}, {1}])
    with pytest.raises(IndexOutOfRange):
        make_code(1, 1, [{-1, 0}])


@pytest.mark.parametrize(
    "storage, shown",
    [
        ([[0, 1.7]], "1.7"),
        ([[0, 1.0]], "1.0"),
        ([["0", "1"]], "'0'"),
        (["01"], "'0'"),
        ([[True, 0]], "True"),
        ([[None]], "None"),
        ([["x"]], "'x'"),
    ],
)
def test_make_code_rejects_non_integer_indices(storage, shown):
    with pytest.raises(InvariantViolation, match=rf"^packet index {shown} is not an integer$"):
        make_code(1, 2, storage)


# Python values a caller might pass where a packet index belongs.
LOOSE_VALUES = st.one_of(
    st.integers(-1, 3),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True),
    st.sampled_from([0.0, 1.0, 2.5]),
    st.text(max_size=2),
    st.binary(max_size=2),
    st.fractions(),
)


@given(st.data())
def test_make_code_builds_from_ints_only(data):
    size = st.one_of(st.integers(1, 3), LOOSE_VALUES)
    n = data.draw(size, label="n")
    theta = data.draw(size, label="theta")
    node = st.one_of(st.lists(LOOSE_VALUES, max_size=4), st.text(max_size=3), LOOSE_VALUES)
    count = n if type(n) is int and 1 <= n <= 3 else data.draw(st.integers(1, 3))
    storage = data.draw(st.lists(node, min_size=count, max_size=count), label="storage")
    try:
        code = make_code(n, theta, storage)
    except FrcError:
        return
    assert isinstance(code, FrCode)
    # A code is built only from genuine ints, each one kept as given.
    assert type(code.n) is int and type(code.theta) is int
    assert all(type(p) is int for s in storage for p in s)
    assert [code.packets(i) for i in range(n)] == [tuple(sorted(set(s))) for s in storage]


@pytest.mark.parametrize(
    "n, theta, storage, message",
    [
        (True, 1, [[0]], "n=True is not an integer"),
        (1, True, [[0]], "theta=True is not an integer"),
        (2.0, 1, [[0], [0]], "n=2.0 is not an integer"),
        (1, 2.0, [[0, 1]], "theta=2.0 is not an integer"),
        (1, 1, [5], "node 5 is not a collection of packet indices"),
    ],
)
def test_make_code_rejects_non_integer_sizes_and_bare_nodes(n, theta, storage, message):
    with pytest.raises(InvariantViolation, match=rf"^{message}$"):
        make_code(n, theta, storage)


def test_make_code_rejects_empty_system():
    with pytest.raises(EmptySystem):
        make_code(0, 1, [])
    with pytest.raises(EmptySystem):
        make_code(1, 0, [set()])


def test_make_code_rejects_wrong_length():
    with pytest.raises(InvariantViolation):
        make_code(3, 1, [{0}, {0}])


def test_make_code_theta_cap():
    make_code(1, 4096, [range(4096)])
    with pytest.raises(BudgetExceeded, match=r"^theta=4097 exceeds cap 4096$"):
        make_code(1, 4097, [range(4097)])


def test_duplicates_within_a_node_collapse():
    code = make_code(2, 2, [[0, 0, 1], [1]])
    assert code.packets(0) == (0, 1)
    assert profile(code).alpha_per_node == (2, 1)


def test_storage_order_does_not_matter():
    a = make_code(2, 3, [[2, 0, 1], [1]])
    b = make_code(2, 3, [[0, 1, 2], [1]])
    assert a == b


def test_profile_uniform_ring():
    code = build_ring(RingSpec(5, 5, 2))
    prof = profile(code)
    assert prof.alpha_per_node == (2, 2, 2, 2, 2)
    assert prof.rho_per_packet == (2, 2, 2, 2, 2)
    assert prof.alpha == 2 and prof.rho == 2
    assert prof.is_uniform_storage and prof.is_regular_replication


def test_profile_heterogeneous():
    code = make_code(3, 3, [{0, 1}, {0, 1}, {2}])
    prof = profile(code)
    assert prof.alpha_per_node == (2, 2, 1)
    assert prof.rho_per_packet == (2, 2, 1)
    assert not prof.is_uniform_storage
    assert not prof.is_regular_replication


def test_single_deficit_shape_requires_regular_replication():
    # one node short by one packet, but replication is irregular
    irregular = make_code(3, 3, [{0, 1}, {0, 1}, {2}])
    assert not single_deficit_shape(profile(irregular))
    # uniform storage is not the shape either
    uniform = build_ring(RingSpec(5, 5, 2))
    assert not single_deficit_shape(profile(uniform))
    # the genuine shape: edge code of a graph where one vertex has
    # degree alpha - 1 and the rest alpha (see also build_prg)
    shaped = build_prg(PrgSpec(5, 3))
    prof = profile(shaped)
    assert prof.alpha_per_node == (3, 3, 3, 3, 2)
    assert single_deficit_shape(prof)


def test_incidence_matrix_round_trip_ring():
    code = build_ring(RingSpec(5, 10, 2))
    assert code_from_matrix(incidence_matrix(code)) == code


@given(random_codes())
def test_incidence_matrix_round_trip_random(code):
    assert code_from_matrix(incidence_matrix(code)) == code


@given(random_codes())
def test_double_counting(code):
    prof = profile(code)
    assert sum(prof.alpha_per_node) == sum(prof.rho_per_packet)


@given(random_codes())
def test_matrix_shape_and_sums(code):
    matrix = incidence_matrix(code)
    assert len(matrix) == code.n
    assert all(len(row) == code.theta for row in matrix)
    prof = profile(code)
    assert tuple(sum(row) for row in matrix) == prof.alpha_per_node
    assert tuple(sum(col) for col in zip(*matrix)) == prof.rho_per_packet


def test_check_identities_uniform():
    report = check_identities(build_ring(RingSpec(5, 5, 2)))
    assert report.classification == "uniform"
    assert report.uniform_identity and not report.deficient_identity
    assert report.n_alpha == report.rho_theta == 10
    assert report.sum_alpha == report.sum_rho == 10


def test_check_identities_general():
    report = check_identities(make_code(3, 3, [{0, 1}, {0, 1}, {2}]))
    assert report.classification == "general"
    assert not report.uniform_identity and not report.deficient_identity


@given(random_codes(max_n=9, max_theta=9))
def test_transpose_is_the_packet_side_incidence(code):
    dual = code.transpose
    assert (dual.n, dual.theta) == (code.theta, code.n)
    assert dual.masks == tuple(sum(1 << i for i in nodes) for nodes in brute_holders(code))
    # Seeded from the code, not built again.
    assert dual.holders is code.masks
    assert dual.transpose == code
    assert code.transpose is dual


def test_code_is_immutable_and_hashable():
    code = build_ring(RingSpec(4, 4, 2))
    with pytest.raises(AttributeError):
        code.n = 5
    assert code in {code}
