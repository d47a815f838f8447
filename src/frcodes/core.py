"""Incidence model for fractional repetition storage codes.

A code places theta packets on n storage nodes; node i holds a set of
packet indices. Packet j is replicated rho_j times (once per node holding
it) and node i stores alpha_i packets. When every rho_j equals a common
rho the replication is regular; when additionally every alpha_i equals a
common alpha the code is a uniform FR code, otherwise it is a weak FR
code.

Node packet-sets are stored as integer bitmasks so coverage sweeps can
union them word-parallel and popcount the result in O(theta / wordsize).
All public objects are immutable after construction and safe to share
across threads or worker processes.

Indices are 0-based everywhere in memory and in files; rendering layers
add one (nodes print as U_1..U_n, packets as P_1..P_theta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable

from .errors import (
    BudgetExceeded,
    EmptySystem,
    IndexOutOfRange,
    InvariantViolation,
    OrphanPacket,
    _shown,
)

#: Widest code the toolkit will build; guards the brute-force layers.
DEFAULT_THETA_CAP = 4096


def _rotate(mask: int, r: int, n: int) -> int:
    """mask rotated left by r (0 <= r < n) within n bits."""
    return (mask << r | mask >> (n - r)) & ((1 << n) - 1)


def packets_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted packet indices of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True)
class FrCode:
    """n node packet-sets over packets 0..theta-1, one bitmask per node.

    Instances compare by value: two codes are equal only when node i holds
    exactly the same packet set in both, for every i. Construct through
    make_code, or through _check_sizes and then _freeze, which validate
    the triple.
    """

    n: int
    theta: int
    masks: tuple[int, ...]

    def packets(self, node: int) -> tuple[int, ...]:
        """Sorted packet indices held by one node."""
        return packets_from_mask(self.masks[node])

    @cached_property
    def holders(self) -> tuple[int, ...]:
        """The incidence read by packet: holders[j] is the bitmask of
        the nodes that hold packet j. Built on first use."""
        holders = [0] * self.theta
        for i, m in enumerate(self.masks):
            bit = 1 << i
            while m:
                low = m & -m
                holders[low.bit_length() - 1] |= bit
                m ^= low
        return tuple(holders)

    @cached_property
    def transpose(self) -> FrCode:
        """The code read from the packets' side: its node j holds the
        nodes that hold packet j. Built on first use. Transposing twice
        gives the code back, so its holders are this code's masks, and
        its rotation_invariant is this code's packet-rotation symmetry.
        """
        dual = FrCode(n=self.theta, theta=self.n, masks=self.holders)
        dual.__dict__["holders"] = self.masks  # what cached_property stores
        return dual

    @cached_property
    def rotation_invariant(self) -> bool:
        """True when the node rotation i -> i+1 (mod n) maps the multiset
        of packet holder sets onto itself, so every union of nodes keeps
        its size under rotation. Decided on first use."""
        size = self.masks[0].bit_count()
        # Rotation moves node i's packets to node i+1, so sizes must agree.
        if any(m.bit_count() != size for m in self.masks):
            return False
        full, top = (1 << self.n) - 1, self.n - 1
        rotated = [h << 1 & full | h >> top for h in self.holders]
        return sorted(self.holders) == sorted(rotated)


def _check_ints(fields: Iterable[tuple[str, Any]], error=InvariantViolation) -> None:
    """Raise error for the first (name, value) whose value is not an
    int; bool is an int subclass, so test the type itself."""
    for name, value in fields:
        if type(value) is not int:
            raise error(f"{name}={_shown(value)!r} is not an integer")


def _check_bool(name: str, value: Any) -> None:
    """Raise InvariantViolation unless value is a bool: a flag read by
    truth would take 0, "no" or [0] as some answer, silently."""
    if type(value) is not bool:
        raise InvariantViolation(f"{_shown(name)}={_shown(value)!r} is not a bool")


def _check_sizes(n: int, theta: int) -> None:
    """make_code's checks on the sizes, in its order: n and theta ints
    (not bools); n >= 1 and theta >= 1; theta within the cap. The
    builders call this before they place any packet, so an oversized
    spec fails at once."""
    _check_ints((("n", n), ("theta", theta)))
    if n < 1:
        raise EmptySystem(f"need at least one node, got n={_shown(n)}")
    if theta < 1:
        raise EmptySystem(f"need at least one packet, got theta={_shown(theta)}")
    _check_cap("theta", theta)


def _check_cap(name: str, value: int) -> None:
    """Refuse a size past DEFAULT_THETA_CAP, naming it."""
    if value > DEFAULT_THETA_CAP:
        raise BudgetExceeded(f"{_shown(name)}={_shown(value)} exceeds cap {DEFAULT_THETA_CAP}")


def _freeze(
    n: int, theta: int, masks: list[int], holders: list[int] | None = None, invariant=None
) -> FrCode:
    """make_code's last check, then the code: every packet of the n
    in-range node masks stored somewhere. holders, when given, must be
    the incidence read by packet, and invariant the code's rotation
    symmetry; each is stored as its cached property, as transpose
    stores holders."""
    placed = 0
    for m in masks:
        placed |= m
    if placed != (1 << theta) - 1:
        missing = next(j for j in range(theta) if not placed >> j & 1)
        raise OrphanPacket(f"packet {missing} is stored on no node")
    code = FrCode(n=n, theta=theta, masks=tuple(masks))
    if holders is not None:
        code.__dict__["holders"] = tuple(holders)  # what cached_property stores
    if invariant is not None:
        code.__dict__["rotation_invariant"] = invariant
    return code


def make_code(n: int, theta: int, storage: Iterable[Iterable[int]]) -> FrCode:
    """Validate and freeze a code from per-node packet collections.

    Checks, in order: n and theta ints (not bools); n >= 1 and
    theta >= 1; theta within the cap; exactly n node collections; every
    packet index an int (not a bool) in [0, theta); every packet stored
    somewhere. Duplicate indices within one node collapse silently (node
    contents are sets).
    """
    _check_sizes(n, theta)
    node_sets = list(storage)
    if len(node_sets) != n:
        raise InvariantViolation(f"expected {_shown(n)} node sets, got {len(node_sets)}")
    masks = []
    for s in node_sets:
        try:
            packets = iter(s)
        except TypeError:
            raise InvariantViolation(
                f"node {_shown(s)!r} is not a collection of packet indices"
            ) from None
        mask = 0
        for p in packets:
            if type(p) is not int:
                raise InvariantViolation(f"packet index {_shown(p)!r} is not an integer")
            if not 0 <= p < theta:
                raise IndexOutOfRange(f"packet {_shown(p)} outside [0, {_shown(theta)})")
            mask |= 1 << p
        masks.append(mask)
    return _freeze(n, theta, masks)


@dataclass(frozen=True)
class CodeProfile:
    """Storage and replication profile of a code."""

    alpha_per_node: tuple[int, ...]
    alpha: int
    rho_per_packet: tuple[int, ...]
    rho: int
    is_regular_replication: bool
    is_uniform_storage: bool


def profile(code: FrCode) -> CodeProfile:
    """Compute per-node storage and per-packet replication counts.

    alpha and rho report the maxima of their profiles, which for uniform
    and regular codes coincide with the common value.
    """
    alpha_per_node = tuple([m.bit_count() for m in code.masks])
    rho_per_packet = tuple([h.bit_count() for h in code.holders])
    return CodeProfile(
        alpha_per_node=alpha_per_node,
        alpha=max(alpha_per_node),
        rho_per_packet=rho_per_packet,
        rho=max(rho_per_packet),
        is_regular_replication=min(rho_per_packet) == max(rho_per_packet),
        is_uniform_storage=min(alpha_per_node) == max(alpha_per_node),
    )


def single_deficit_shape(prof: CodeProfile) -> bool:
    """True when exactly one node stores alpha - 1 packets, the rest store
    alpha, and replication is regular.

    This is the shape produced by the partial regular graph construction;
    the relaxed goodness bound (right side lowered by one) applies to it.
    """
    if not prof.is_regular_replication:
        return False
    alpha = prof.alpha
    deficits = [a for a in prof.alpha_per_node if a != alpha]
    return deficits == [alpha - 1]


def incidence_matrix(code: FrCode) -> list[list[int]]:
    """Binary n x theta matrix; entry (i, j) is 1 iff node i holds packet j.

    Returns fresh lists; mutating them does not touch the code.
    """
    return [[(m >> j) & 1 for j in range(code.theta)] for m in code.masks]


def check_identities(prof: CodeProfile) -> str:
    """Classify a code by its profile: "uniform" for uniform storage
    with regular replication, "single-deficient" for the one-node-short
    shape of single_deficit_shape, "general" otherwise.

    Counting the incidences by node and by packet gives sum_alpha =
    sum_rho, so a uniform code has n*alpha = rho*theta and a
    single-deficient one n*alpha - 1 = rho*theta: the class alone
    decides each identity, and nothing is left to compare.
    """
    if prof.is_uniform_storage and prof.is_regular_replication:
        return "uniform"
    if single_deficit_shape(prof):
        return "single-deficient"
    return "general"
