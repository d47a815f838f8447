"""Independent reference implementations used to cross-check the
package's optimized paths.

These deliberately avoid the bitmask representation and every pruning
trick: coverage is full enumeration over frozenset unions, and the
repair oracle walks the entire power set of surviving nodes. The
reference builders place packets one by one into per-node sets and
hand them to make_code. Slow and boring on purpose. Two exceptions
keep an earlier form of a kernel as its reference: walk_plan_repair,
the helper walk as it was before the planner proved lower bounds, for
the planner's step counts, and every_unit_arc_order, the arc detection
as it was before it filtered the units it scans.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from frcodes.constructions import read_csv_records
from frcodes.core import DEFAULT_THETA_CAP, make_code, packets_from_mask
from frcodes.errors import BudgetExceeded, EmptySystem, InvariantViolation, ParseError
from frcodes.repair import _candidates, _finish_plan


def brute_min_coverage(code, k):
    """(value, witness) by full lexicographic enumeration, no pruning."""
    storage = [set(code.packets(i)) for i in range(code.n)]
    best = None
    best_witness = None
    for subset in itertools.combinations(range(code.n), k):
        union = set()
        for i in subset:
            union |= storage[i]
        if best is None or len(union) < best:
            best = len(union)
            best_witness = subset
    return best, best_witness


def brute_holders(code):
    """For each packet, the set of nodes that hold it."""
    return [
        {i for i in range(code.n) if j in code.packets(i)} for j in range(code.theta)
    ]


def brute_rotation_invariant(code):
    """Whether the node rotation i -> i+1 (mod n) maps the multiset of
    packet holder sets onto itself, compared as counts of frozensets."""
    holder_sets = [frozenset(nodes) for nodes in brute_holders(code)]
    rotated = [frozenset((i + 1) % code.n for i in nodes) for nodes in holder_sets]
    return Counter(holder_sets) == Counter(rotated)


def every_unit_arc_order(code):
    """(s, arcs) of the first unit s, tried from 1 up, under whose node
    relabeling i -> s*i mod n every holder set is a cyclic arc, scanning
    the holder sets under every unit in turn (the arc detection before
    units were filtered by one pair of nodes); None when no unit does."""
    n = code.n
    full = (1 << n) - 1
    for s in range(1, n + 1):
        if math.gcd(s, n) != 1:
            continue
        arcs = []
        for h in code.holders:
            if s > 1:
                h = sum(1 << s * i % n for i in packets_from_mask(h))
            if h == full:
                continue
            starts = h & ~(h << 1 & full | h >> n - 1)
            if not starts or starts & starts - 1:
                break
            arcs.append((starts.bit_length() - 1, h.bit_count()))
        else:
            return s, arcs
    return None


def brute_reconstruction_degree(code, file_size):
    for k in range(1, code.n + 1):
        value, _ = brute_min_coverage(code, k)
        if value >= file_size:
            return k
    return None


def brute_structural_goodness(code, weak):
    """(binding k, its coverage, first failing k or None) of the bound
    M(k) >= k*alpha - C(k, 2), one lower when weak, at every k up to
    min(alpha, n): the first failing k binds, else the first k of least
    slack."""
    alpha = max(len(code.packets(i)) for i in range(code.n))
    slack = []
    for k in range(1, min(alpha, code.n) + 1):
        value, _ = brute_min_coverage(code, k)
        margin = value - (k * alpha - k * (k - 1) // 2 - weak)
        if margin < 0:
            return k, value, k
        slack.append((margin, k, value))
    _, k, value = min(slack)
    return k, value, None


def brute_min_helper_count(code, failed):
    """Smallest number of surviving nodes jointly holding every packet
    of the failed node; None when no subset covers them."""
    lost = set(code.packets(failed))
    others = [i for i in range(code.n) if i != failed]
    if not lost:
        return 0
    best = None
    for bits in range(1, 1 << len(others)):
        members = [others[i] for i in range(len(others)) if bits >> i & 1]
        if best is not None and len(members) >= best:
            continue
        union = set()
        for i in members:
            union |= set(code.packets(i))
        if lost <= union:
            best = len(members)
    return best


def brute_lex_least_helpers(code, failed):
    """The first subset of surviving nodes, smallest size first and in
    lexicographic order within a size, that jointly holds every packet
    of the failed node; None when no subset covers them."""
    lost = set(code.packets(failed))
    others = [i for i in range(code.n) if i != failed]
    for size in range(len(others) + 1):
        for members in itertools.combinations(others, size):
            union = set()
            for i in members:
                union |= set(code.packets(i))
            if lost <= union:
                return members
    return None


def walk_plan_repair(code, failed, budget):
    """plan_repair's walk with no lower bound but the forced count and
    no cut but the missing-packet one: every size from the forced count
    (at least one), every candidate, forced ones included, a position of
    each subset, and each descent paying for every candidate of the
    level it opens. A budget that answers here must answer there."""
    candidates = _candidates(code, failed)
    lost_mask = code.masks[failed]
    restricted = [code.masks[i] & lost_mask for i in candidates]
    c = len(candidates)
    rest = [lost_mask] + [0] * c
    for i in range(c - 1, 0, -1):
        rest[i] = rest[i + 1] | restricted[i]
    once = twice = 0
    for r in restricted:
        twice |= once & r
        once |= r
    forced = sum(1 for r in restricted if r & ~twice)
    left = budget
    for size in range(max(forced, 1), c):
        chosen, outer = [], []
        union = i = 0
        while True:
            depth = len(chosen)
            if i > c - size + depth or union | rest[i] != lost_mask:
                if not chosen:
                    break
                i = chosen.pop() + 1
                union = outer.pop()
                continue
            grown = union | restricted[i]
            if depth + 1 < size:
                left -= c - size + depth + 1 - i
                if left < 0:
                    raise BudgetExceeded(f"helper-set search for node {failed} exceeds budget")
                chosen.append(i)
                outer.append(union)
                union = grown
            elif grown == lost_mask:
                return _finish_plan(code, failed, [candidates[j] for j in (*chosen, i)])
            i += 1
    return _finish_plan(code, failed, candidates)


def brute_first_holder_plan(code, failed, survivors):
    """(assignments, helpers) of fetching each packet of the failed node
    from the first of survivors, in their order, that holds it."""
    assignments = tuple(
        (packet, next(h for h in survivors if packet in code.packets(h)))
        for packet in code.packets(failed)
    )
    return assignments, tuple(sorted({h for _, h in assignments}))


def code_from_matrix(rows):
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


def brute_import_csv_matrix(path):
    """Incidence-matrix CSV import with an int() per entry: each
    non-blank record must hold integers equal to 0 or 1, all records
    equally long."""
    rows = []
    for lineno, record in enumerate(read_csv_records(path), start=1):
        if not record:
            continue
        try:
            row = [int(v) for v in record]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer entry") from exc
        if any(v not in (0, 1) for v in row):
            raise ParseError(f"{path}:{lineno}: entries must be 0 or 1")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: empty incidence matrix")
    if len({len(r) for r in rows}) != 1:
        raise ParseError(f"{path}: ragged incidence matrix")
    return code_from_matrix(rows)


def _check_theta_cap(theta):
    """The builders' cap check, made before any packet is placed."""
    if theta > DEFAULT_THETA_CAP:
        raise BudgetExceeded(f"theta={theta} exceeds cap {DEFAULT_THETA_CAP}")


def set_build_prg(spec):
    """build_prg by per-packet node sets and make_code."""
    _check_theta_cap(spec.theta)
    n = spec.n
    edges = []
    for off in range(1, spec.q + 1):
        for v in range(n):
            edges.append((v, (v + off) % n))
    for j in range(spec.p):
        edges.append((j, j + spec.p))
    storage = [set() for _ in range(n)]
    for packet, (u, v) in enumerate(edges):
        storage[u].add(packet)
        storage[v].add(packet)
    return make_code(n, len(edges), storage)


def set_build_ring(spec):
    """build_ring by per-packet node sets and make_code."""
    _check_theta_cap(spec.theta)
    if spec.n > DEFAULT_THETA_CAP:
        raise BudgetExceeded(f"n={spec.n} exceeds cap {DEFAULT_THETA_CAP}")
    storage = [set() for _ in range(spec.n)]
    for j in range(spec.theta):
        for i in range(spec.rho):
            storage[(j + i) % spec.n].add(j)
    return make_code(spec.n, spec.theta, storage)


def set_build_t_code(spec):
    """build_t_code by per-node packet sets and make_code."""
    _check_theta_cap(spec.n)
    step = spec.t + 1
    storage = [
        {(i - j * step) % spec.n for j in range(spec.d)} for i in range(spec.n)
    ]
    return make_code(spec.n, spec.n, storage)
