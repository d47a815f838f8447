from __future__ import annotations

import dataclasses
import inspect

import pytest
from hypothesis import example, given, settings, strategies as st

import frcodes

from frcodes import (
    BudgetExceeded,
    EmptySystem,
    FrcError,
    IndexOutOfRange,
    InvariantViolation,
    OrphanPacket,
    check_identities,
    incidence_matrix,
    make_code,
    profile,
    single_deficit_shape,
)
from frcodes.constructions import PrgSpec, RingSpec, build_prg, build_ring
from frcodes.core import FrCode
from frcodes.errors import _shown
from oracles import brute_holders, code_from_matrix


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


# --- caller values in error messages --------------------------------------

RING = build_ring(RingSpec(5, 5, 2))

#: Valid arguments of every public function with an int parameter.
CALLS = {
    "conjecture_harness": dict(n_values=[5], rho_values=[2], budget=100),
    "coverage_profile": dict(code=RING, budget=100),
    "default_theta_rule": dict(n=5),
    "goodness_arithmetic": dict(k=2, alpha=2, theta=5, file_size=4),
    "goodness_rhs": dict(k=2, alpha=2),
    "goodness_structural": dict(code=RING, budget=100),
    "make_code": dict(n=1, theta=1, storage=[[0]]),
    "min_coverage": dict(code=RING, k=2, budget=100),
    "plan_repair": dict(code=RING, failed=0, budget=100),
    "plan_repair_greedy": dict(code=RING, failed=0),
    "predicted_k_ring": dict(n=5, theta=5, rho=2),
    "prg_margin": dict(n=7, d=3),
    "reconstruction_degree": dict(code=RING, file_size=4, budget=100),
    "restrict_rho": dict(rows=[frcodes.TableRow(5, 3, 2, 2, 5)], rho=2),
    "ring_margin_case1": dict(rho=2, theta=5),
    "ring_margin_case2": dict(m=2, rho=2, theta=5),
    "sweep_ring": dict(n_values=[5], rho_values=[2], m_values=[1], budget=100),
}

#: An instance of every public dataclass and named tuple with an int
#: field; specs are built as well.
INSTANCES = [
    RING,
    PrgSpec(7, 3),
    RingSpec(5, 5, 2),
    frcodes.TSpec(7, 3, 1),
    frcodes.TableRow(5, 3, 2, 2, 5, 1),
    profile(RING),
    check_identities(RING),
    frcodes.goodness_structural(RING),
    frcodes.plan_repair(RING, 0),
    frcodes.prg_margin(7, 3),
    frcodes.predicted_k_ring(5, 5, 2),
    *frcodes.audit_table(frcodes.load_bundled_table("ring_rho2")[:1], "ring"),
    *frcodes.conjecture_harness([5], [2])[:1],
]
BUILDERS = {PrgSpec: build_prg, RingSpec: build_ring, frcodes.TSpec: frcodes.build_t_code}

def int_parameters():
    """(name, parameter, shape) of every int parameter of the public
    functions and every int field of the public dataclasses and named
    tuples; shape wraps a value as the parameter takes it."""
    shapes = {
        "int": lambda v: v,
        "int | None": lambda v: v,
        "Iterable[int]": lambda v: [v],
        "Iterable[Iterable[int]]": lambda v: [[v]],
    }
    found = []
    for name in sorted(vars(frcodes)):
        obj = getattr(frcodes, name)
        if name.startswith("_") or not callable(obj):
            continue
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.items()
            types = {param: str(arg.annotation) for param, arg in params}
        elif dataclasses.is_dataclass(obj):
            types = {field.name: str(field.type) for field in dataclasses.fields(obj)}
        elif hasattr(obj, "_fields"):  # a named tuple
            types = {field: typ.__forward_arg__ for field, typ in obj.__annotations__.items()}
        else:
            continue
        found += [(name, param, shapes[typ]) for param, typ in types.items() if typ in shapes]
    return found


INT_PARAMETERS = int_parameters()


def test_every_int_parameter_has_valid_arguments():
    names = {name for name, _, _ in INT_PARAMETERS}
    kinds = {type(instance).__name__ for instance in INSTANCES}
    assert names == set(CALLS) | kinds
    for name, kwargs in CALLS.items():
        getattr(frcodes, name)(**kwargs)


def call_with(name, param, value):
    """name called with valid arguments, or its instance rebuilt with
    valid fields, but param set to value; a spec is also built."""
    if name in CALLS:
        return getattr(frcodes, name)(**{**CALLS[name], param: value})
    instance = next(i for i in INSTANCES if type(i).__name__ == name)
    if dataclasses.is_dataclass(instance):
        changed = dataclasses.replace(instance, **{param: value})
    else:
        changed = instance._replace(**{param: value})
    return BUILDERS[type(changed)](changed) if type(changed) in BUILDERS else changed


@settings(max_examples=20, deadline=None)
@given(st.integers(4301, 5001), st.sampled_from([1, -1]), st.sampled_from([0, 1]))
@example(5001, 1, 0)
@example(5001, -1, 0)
def test_ints_past_the_digit_limit_give_a_result_or_a_toolkit_error(digits, sign, odd):
    # str() refuses an int of more than 4,300 digits, so an error message
    # that printed one raised ValueError in place of the toolkit error.
    # Odd values pass the prg parity checks to the range checks.
    value = sign * (10 ** (digits - 1) + odd)
    for name, param, shape in INT_PARAMETERS:
        try:
            call_with(name, param, shape(value))
        except FrcError as exc:
            assert str(exc), (name, param)


@pytest.mark.parametrize("sign, phrase", [(1, "an int"), (-1, "a negative int")])
def test_huge_ints_are_named_by_their_digit_count(sign, phrase):
    value = sign * 10**5000
    message = f"need 2 <= rho <= n - 1, got rho={phrase} of 5,001 digits, n=5"
    with pytest.raises(frcodes.RhoRange, match=f"^{message}$"):
        RingSpec(5, 5, value)
    with pytest.raises(frcodes.KOutOfRange, match=f"^k={phrase} of 5,001 digits outside"):
        frcodes.min_coverage(RING, value)


@pytest.mark.parametrize("sign, below, count", [(1, 1, "4,400"), (1, 0, "4,401"), (-1, 0, "4,401")])
def test_the_digit_count_is_exact_at_a_power_of_ten(sign, below, count):
    # 10^4400 - 1 and 10^4400 have the same bit length, so the count
    # read off the bit length must be corrected on one side of the power.
    value = sign * (10**4400 - below)
    phrase = "a negative" if sign < 0 else "an"
    assert str(_shown(value)) == f"{phrase} int of {count} digits"
