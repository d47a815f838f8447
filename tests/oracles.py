"""Independent reference implementations used to cross-check the
package's optimized paths.

These deliberately avoid the bitmask representation and every pruning
trick: coverage is full enumeration over frozenset unions, and the
repair oracle walks the entire power set of surviving nodes. Slow and
boring on purpose.
"""

from __future__ import annotations

import itertools


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
