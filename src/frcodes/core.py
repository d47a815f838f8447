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
from typing import Iterable, Sequence

from .errors import (
    BudgetExceeded,
    EmptySystem,
    IndexOutOfRange,
    InvariantViolation,
    OrphanPacket,
)

#: Widest code the toolkit will build; guards the brute-force layers.
DEFAULT_THETA_CAP = 4096


def _check_theta_cap(theta: int) -> None:
    """Refuse a code wider than the cap. The builders call this before
    they place any packet, so an oversized spec fails at once."""
    if theta > DEFAULT_THETA_CAP:
        raise BudgetExceeded(f"theta={theta} exceeds cap {DEFAULT_THETA_CAP}")


def mask_from_packets(packets: Iterable[int], theta: int) -> int:
    """Fold packet indices into a bitmask, validating type and range."""
    mask = 0
    for p in packets:
        # bool is an int subclass, so test the type itself.
        if type(p) is not int:
            raise InvariantViolation(f"packet index {p!r} is not an integer")
        if not 0 <= p < theta:
            raise IndexOutOfRange(f"packet {p} outside [0, {theta})")
        mask |= 1 << p
    return mask


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
    make_code, which validates the triple.
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


def make_code(n: int, theta: int, storage: Iterable[Iterable[int]]) -> FrCode:
    """Validate and freeze a code from per-node packet collections.

    Checks, in order: n and theta ints (not bools); n >= 1 and
    theta >= 1; theta within the cap; exactly n node collections; every
    packet index an int (not a bool) in [0, theta); every packet stored
    somewhere. Duplicate indices within one node collapse silently (node
    contents are sets).
    """
    for name, value in (("n", n), ("theta", theta)):
        if type(value) is not int:
            raise InvariantViolation(f"{name}={value!r} is not an integer")
    if n < 1:
        raise EmptySystem(f"need at least one node, got n={n}")
    if theta < 1:
        raise EmptySystem(f"need at least one packet, got theta={theta}")
    _check_theta_cap(theta)
    node_sets = list(storage)
    if len(node_sets) != n:
        raise InvariantViolation(f"expected {n} node sets, got {len(node_sets)}")
    masks = []
    for s in node_sets:
        try:
            packets = iter(s)
        except TypeError:
            raise InvariantViolation(
                f"node {s!r} is not a collection of packet indices"
            ) from None
        masks.append(mask_from_packets(packets, theta))
    placed = 0
    for m in masks:
        placed |= m
    if placed != (1 << theta) - 1:
        missing = next(j for j in range(theta) if not placed >> j & 1)
        raise OrphanPacket(f"packet {missing} is stored on no node")
    return FrCode(n=n, theta=theta, masks=tuple(masks))


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
    alpha_per_node = tuple(m.bit_count() for m in code.masks)
    rho_per_packet = tuple(h.bit_count() for h in code.holders)
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


def code_from_matrix(rows: Sequence[Sequence[int]]) -> FrCode:
    """Rebuild a code from a binary incidence matrix (inverse of
    incidence_matrix up to validation)."""
    if not rows:
        raise EmptySystem("incidence matrix has no rows")
    theta = len(rows[0])
    for row in rows:
        if len(row) != theta:
            raise InvariantViolation("ragged incidence matrix")
    storage = [
        {j for j, v in enumerate(row) if v} for row in rows
    ]
    return make_code(len(rows), theta, storage)


@dataclass(frozen=True)
class IdentityReport:
    """Double-counting identities between storage and replication.

    classification is "uniform" when n*alpha = rho*theta holds with
    uniform storage and regular replication, "single-deficient" when
    n*alpha - 1 = rho*theta holds for the one-node-short shape, and
    "general" otherwise.
    """

    sum_alpha: int
    sum_rho: int
    n_alpha: int
    rho_theta: int
    uniform_identity: bool
    deficient_identity: bool
    classification: str


def check_identities(code: FrCode) -> IdentityReport:
    prof = profile(code)
    n_alpha = code.n * prof.alpha
    rho_theta = prof.rho * code.theta
    uniform = (
        prof.is_uniform_storage
        and prof.is_regular_replication
        and n_alpha == rho_theta
    )
    deficient = single_deficit_shape(prof) and n_alpha - 1 == rho_theta
    if uniform:
        classification = "uniform"
    elif deficient:
        classification = "single-deficient"
    else:
        classification = "general"
    return IdentityReport(
        sum_alpha=sum(prof.alpha_per_node),
        sum_rho=sum(prof.rho_per_packet),
        n_alpha=n_alpha,
        rho_theta=rho_theta,
        uniform_identity=uniform,
        deficient_identity=deficient,
        classification=classification,
    )
