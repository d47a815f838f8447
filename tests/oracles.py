"""Independent reference implementations used to cross-check the
package's optimized paths.

These deliberately avoid the bitmask representation and every pruning
trick: coverage is full enumeration over frozenset unions, and the
repair oracle walks the entire power set of surviving nodes. Slow and
boring on purpose.
"""

from __future__ import annotations

import itertools
from collections import Counter

from frcodes.constructions import read_csv_records
from frcodes.core import code_from_matrix
from frcodes.errors import ParseError


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


def brute_reconstruction_degree(code, file_size):
    for k in range(1, code.n + 1):
        value, _ = brute_min_coverage(code, k)
        if value >= file_size:
            return k
    return None


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
