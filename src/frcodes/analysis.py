"""Coverage brute force and universal-goodness checks.

min_coverage(code, k) is the smallest number of distinct packets any k
nodes jointly hold; a code supports an outer [theta, M] MDS layer at
reconstruction degree k exactly when min_coverage(code, k) >= M. One
search answers both questions. It walks the k-node subsets in
lexicographic order and cuts a branch once its partial union reaches
the current bound, since unions only grow along a branch; the cut never
skips an earlier subset below the bound. Each subset found below the
bound becomes the new bound, so the last one found is the minimum with
its lexicographically least witness, and the first one found shows that
some k nodes hold fewer packets than the starting bound.

The budget limits the work of one search, counted in steps: each
candidate node the walk tries after its first position costs one. A
descent, the extension of a partial subset by one more node, pays up
front for every candidate of the level it opens, and the search raises
BudgetExceeded once it would pass the budget; so a refused search has
run at most about twice the budget's loop iterations, about 0.3 us
each. Each public search refuses a budget that is not an int with
InvariantViolation before any other check. Minimum k-union is NP-hard,
so some searches must be refused, but a count of what a search does
refuses it only once it has done that much work, where an estimate
made up front misses both ways:
ring(30,30,3) at k = 15 answers in 239,587 steps, though C(30, 15) is
155 million, and prg(25,7) at k = 22 needs 11,583, against
C(25, 22) = 2,300.

Many codes are mapped onto themselves by the node rotation i -> i+1
(mod n): uniform ring codes, shifted-placement codes, any circulant
placement. The code detects this once, on first use, and caches the
verdict (FrCode.rotation_invariant). On such a code every union keeps
its size under rotation, and every subset rotates to one that starts
at node 0 with its smallest circular gap first. The lexicographically
least witness already has that form, so the search walks only those
subsets and returns the same minimum, witness and decision as the full
walk.

The reconstruction degree can also be read from the packets' side, as
a coverage of the transpose (FrCode.transpose; see
reconstruction_degree). Where t = theta - M + 1 packets share a holder
set of the fewest holders any packet has, that set is the answer and
no walk runs. Otherwise the fewest nodes holding some t packets are
at least one more, a floor the count has proven, and at most the nodes
holding the first t packets, the transpose walk's first leaf; where the
two meet, as on every ring at M = theta - 1, no walk runs either.
Otherwise the degree is read there once C(n, k) exceeds that walk's
count, and the transpose's own rotation symmetry (the packet rotation
j -> j+1) restricts that walk the same way. That walk stops at its
first union on the floor rather than minimising past it.

coverage_profile needs no walk on codes whose packets are each held by
a cyclic arc of nodes, once the nodes are relabeled i -> s*i mod n for
some unit s (every ring code, and every shifted-placement code whose
step t + 1 is prime to n); _arc_order tests a holder set under a unit
with one rotation in node labels, and relabels none. The packets that
k chosen nodes miss are exactly the arcs that fit in the gaps between
them, so M(k) is theta less the most arcs that k gaps can hold, and one
dynamic program over gap endpoints gives that for every k at once:
O(n^3) from one cut of the cycle on a rotation-invariant code, O(n^4)
over all n cuts otherwise. Its key, the arcs missed times 2^n plus
2^(n - 1 - i) for each chosen node i, is largest at k for M(k)'s
lex-least witness, so each witness comes with its value.

coverage_profile can read any code with no rotation symmetry (prg
codes, seeded random codes, and arc codes such as ring(20,30,3)) off a
table of the union sizes of all 2^n node subsets (_subset_table).
Subset s holds node i when its bit n - 1 - i is set, so of two subsets
of one size the lexicographically smaller is the larger number: the
lex-least witness of M(k) is the highest s at the minimum. The table
is bit-sliced over slices of 2^16 subsets, so each AND or XOR of
CPython's big ints handles 64 subsets per machine word. Each slice
groups its subsets by how many free nodes they choose, so the scan at
one k ANDs only that class's span (CPython ANDs two non-negative ints
over the shorter), and it sums the packets held there with carry-save
adders, one full adder per packet. Two sums are built once per code:
one of the packets that no fixed node holds, and one of every packet
as if no fixed node held it. A slice adds to the first the ORs of the
tied packets its fixed nodes miss, or to the second the complements of
those they hit, whichever are fewer. No class of a slice has a smaller
minimum than the one before it, so a k whose floor already reaches its
best so far is not scanned. It is exhaustive, as any exact method must
be for minimum k-union, which is NP-hard. Rotation-invariant codes with
no arc order take the symmetric walk of min_coverage. The table beats
that walk on some of them and loses on others (t(28,2,1) 116-144
against 795 ms, t(28,4,3) 158-178 against 47-49 ms), so neither route
wins the class.
Each kernel's charge, in steps, is fixed before it runs: the program's
row entries (about m^3 / 6 for a cut of m offsets, over its 1 or n
cuts), the table's 2^n / 64, which keeps it to n <= 29 at the default
budget. coverage_profile runs, among the kernels whose structure the
code has and whose charge fits the budget, the one whose charge weighs
least in time: about 0.27 us per row entry of the program, and 1.2 ns
per packet-word of the table, its charge times theta. An arc code with
no rotation symmetry, which both kernels take, goes to the table where
that is cheaper (ring(20,30,3), ring(22,33,3)) and stays on the
program where it is not (ring(24,36,3), ring(24,40,4)). A code that no
kernel takes within the budget, and every code with neither structure,
goes through min_coverage one k at a time, and each of those walks
counts its steps as it goes.

A code is universally good when every k <= alpha satisfies

    min_coverage(code, k) >= k * alpha - C(k, 2)

and weakly universally good when the right side is lowered by one. The
relaxed form is applied to codes in which exactly one node stores
alpha - 1 packets and the rest store alpha with regular replication;
everything else is held to the strict bound.

goodness_structural settles a k without a walk where the nodes overlap
little. By Bonferroni's inequality any k nodes hold at least
sum |A_i| - sum over pairs |A_i & A_j| packets, so at least the sum of
the k smallest alpha_i less C(k, 2) * lambda, where lambda is the most
packets two nodes share. Where that reaches the bound the walk at k
would search below, no k nodes lie below it. This is the source paper's
reason why partial regular graph codes are universally good: their
packets are the edges of a simple graph, so two nodes share at most the
edge between them, lambda = 1, and the bound is k * alpha - C(k, 2)
less one for the node one packet short, the weak form's right side
itself. On those codes no k is walked: M(1) is the smallest alpha_i.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import accumulate, compress
from operator import add, itemgetter, or_
from typing import Callable, Iterator, NamedTuple

from .constructions import PrgSpec, RingSpec
from .core import (
    FrCode,
    _check_bool,
    _check_ints,
    _rotate,
    packets_from_mask,
    profile,
    single_deficit_shape,
)
from .errors import BudgetExceeded, KOutOfRange, Unreachable, _shown

#: Default work ceiling of one search, in steps: candidates tried after
#: the first position. A walk that runs away passes 10^7 steps in about
#: 2-3 s, so it is refused within seconds.
DEFAULT_BUDGET = 10**7


def _smaller_unions(
    code: FrCode, k: int, bound: int, budget: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (union size, subset) for each k-subset, in lex order, whose
    union is smaller than bound and than every earlier yield.

    On a rotation-invariant code, which is detected once per code
    (FrCode.rotation_invariant), only subsets that start at node 0 and
    whose first gap g is the smallest circular gap are walked: the
    second pick is at most n // k, each later pick is at least g after
    the previous one, and the last pick leaves at least g before node 0
    comes round again. Every subset rotates into that form with its
    union size unchanged, and the lexicographically least subset of any
    size is already in it (a rotation that starts at a smaller gap would
    be smaller), so the minimum, its witness and the existence of a
    subset below the bound are those of the full walk.
    """
    n = code.n
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={_shown(k)} outside [1, {n}]")
    masks = code.masks
    symmetric = code.rotation_invariant
    # limits[d] is the last candidate for position d: the k - 1 - d later
    # picks and the gap back to node 0 each need step more nodes.
    limits = [n - k + d for d in range(k)]
    if symmetric:
        limits[0] = 0
        if k > 1:
            limits[1] = n // k
    step = 1
    last = k - 1
    chosen: list[int] = []
    unions = [0]  # unions[d] is the union of chosen[:d]
    depth = 0  # len(chosen)
    limit = limits[0]
    i = 0  # next candidate for position depth
    left = budget  # steps still allowed
    while True:
        if i > limit:  # too few nodes left to complete the subset
            if not depth:
                return
            depth -= 1
            limit = limits[depth]
            i = chosen.pop() + 1
            unions.pop()
            continue
        union = unions[depth] | masks[i]
        size = union.bit_count()
        if size < bound:
            if depth == last:
                bound = size
                yield size, (*chosen, i)
            else:
                if symmetric and depth == 1:  # i is the smallest gap
                    step = i
                    limits[2:] = [n - (k - d) * i for d in range(2, k)]
                chosen.append(i)
                unions.append(union)
                depth += 1
                limit = limits[depth]
                i += step
                left -= limit - i + 1  # every candidate of the new level
                if left < 0:
                    raise BudgetExceeded(
                        f"search at k={_shown(k)} exceeds budget of {_shown(budget)} steps"
                    )
                continue
        i += 1


def min_coverage(
    code: FrCode, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Minimum union size over all k-node subsets, with one witness.

    Returns (value, witness) where witness is the lexicographically
    least subset achieving the value, as a sorted tuple of node indices.
    """
    _check_ints((("budget", budget), ("k", k)))
    # Every union is at most theta, so the first subset always yields.
    *_, best = _smaller_unions(code, k, code.theta + 1, budget)
    return best


@dataclass(frozen=True)
class CoverageProfile:
    """min_coverage values and witnesses for every k in 1..n.

    values[k - 1] is M(k); witnesses[k - 1] is its lexicographically
    least witnessing subset.
    """

    values: tuple[int, ...]
    witnesses: tuple[tuple[int, ...], ...]


def coverage_profile(code: FrCode, budget: int = DEFAULT_BUDGET) -> CoverageProfile:
    """M(k) and its lexicographically least witness for every k in 1..n.

    Three paths give the same answer:

    - the arc DP (_most_missed), for a code whose holder sets are arcs
      (_arc_order); its key ranks the sets of one value by their
      lexicographic order;
    - the subset table (_subset_table), for a code with no rotation
      symmetry;
    - min_coverage at each k, counting steps as it goes.

    Of the first two, those the code's structure allows and whose charge
    fits the budget compete on their weighted charge (_profile_kernel);
    the walks run when neither fits. Every walk is one search with the
    whole budget; BudgetExceeded names the k whose walk passed it.
    """
    _check_ints((("budget", budget),))
    n = code.n
    kernel = _profile_kernel(code, budget)
    best = kernel() if kernel else [min_coverage(code, k, budget=budget) for k in range(1, n + 1)]
    values, witnesses = zip(*best)
    return CoverageProfile(values=values, witnesses=witnesses)


#: Time per unit of each kernel's charge, in ns, which ranks the kernels
#: that fit a budget. Medians of in-process runs, best of 15, on a 2-CPU
#: Xeon VM under Python 3.11: the arc DP per row entry over 14 ring and t
#: codes with n 16..40 (215-443 ns); the table per packet-word, 2^n / 64
#: times theta, over 13 codes with n 19..24, prg(19,5), (19,7), (21,5)
#: and (23,5), ring(20,30,3), (21,28,3), (22,33,3), (24,36,3) and
#: (24,40,4), and seeded random (19,38,3), (20,40,3), (22,44,3) and
#: (24,48,3) codes (0.52-1.78 ns; fixed costs dominate below n = 19,
#: 7.3 ns on ring(16,24,3)).
_ARC_DP_NS = 270
_TABLE_NS = 1.2


def _profile_kernel(
    code: FrCode, budget: int
) -> Callable[[], list[tuple[int, tuple[int, ...]]]] | None:
    """The profile kernel, bound to code, whose charge times its time per
    unit is least among those whose charge is not None and at most
    budget; None when none fits. A tie goes to the arc DP."""
    order = _arc_order(code)
    kernels = (
        (_arc_dp_charge(code, order), _ARC_DP_NS, partial(_most_missed, code, order)),
        (_table_charge(code), _TABLE_NS * code.theta, partial(_subset_table, code)),
    )
    fits = [
        (charge * ns, run) for charge, ns, run in kernels if charge is not None and charge <= budget
    ]
    return min(fits, key=itemgetter(0))[1] if fits else None


#: Free nodes per slice of the subset table. A slice is a 2**16-bit int
#: (8 KiB); the table keeps about three dozen live, a traced peak of 300 KiB
#: on prg(21,5), and the f + 1 classes and f columns of each f stay cached.
_SLICE_BITS = 16


def _table_charge(code: FrCode) -> int | None:
    """_subset_table's charge, 2^n / 64 steps; None on a rotation-invariant
    code, which keeps the symmetric walk."""
    return None if code.rotation_invariant else 2**code.n // 64


def _subset_table(code: FrCode) -> list[tuple[int, tuple[int, ...]]]:
    """(M(k), lex-least witness) for every k in 1..n, read off a
    bit-sliced table of the union sizes of all 2^n node subsets.

    Subset s holds node i when its bit n - 1 - i is set, so of two
    subsets of one size the lexicographically smaller is the larger
    number. The subsets come in slices of 2^f, f = min(n, _SLICE_BITS):
    the leading n - f nodes are fixed per slice, highest assignment
    first, and the last f nodes of each subset are the bits of a p in
    [0, 2^f), laid out by popcount class (_slice_constants). A packet
    with a chosen fixed holder is hit: it adds one to every union of the
    slice. Any other packet is held at the positions in the OR of its
    free holders' columns. These 0/1 indicators are summed into a
    bit-sliced counter (counter[b] holds bit b of every position's
    count) by carry-save adders (_sum_bits), from one of two sums built
    once: base, of the packets with no fixed holder, and whole, which
    adds every tied packet (one with fixed and free holders) as if no
    fixed node held it. A slice adds the fewer of its tied packets: the
    unhit ones' ORs onto base, each hit one counted in the offset, or
    the hit ones' complements onto whole, since OR plus complement is
    one everywhere. Per k, a scan from the top counter bit down keeps
    the positions of class k - c (c fixed nodes chosen) that avoid each
    bit while some do, leaving the slice's minimum and, as the highest
    position, the largest p: its witness. Every (j + 1)-subset holds a
    j-subset, so within a slice no class's minimum is below the one
    before it; the last scan's minimum, or the size at which it stopped,
    is a floor, and a k whose floor reaches its best so far is not
    scanned. A slice replaces the answer only when strictly smaller, so
    ties keep the highest subset.
    """
    n = code.n
    f = min(n, _SLICE_BITS)
    fixed = n - f
    full = (1 << (1 << f)) - 1
    columns, classes = _slice_constants(f)
    low = (1 << fixed) - 1  # the fixed nodes, node i at bit i of a mask
    # Free node fixed + x is chosen at the positions of p's bit f - 1 - x.
    node_columns = columns[::-1]
    untied = []  # free holders' columns of each packet with no fixed holder
    tied = []  # (fixed holders, free holders' columns) of each packet with both
    bare = []  # fixed holders of each packet with no free holder
    for h in code.holders:
        held = [node_columns[x] for x in packets_from_mask(h >> fixed)]
        if not held:
            bare.append(h & low)
        elif h & low:
            tied.append((h & low, held))
        else:
            untied.append(held)
    base = _sum_bits([], (reduce(or_, held) for held in untied))
    whole = _sum_bits(base, (reduce(or_, held) for _, held in tied))
    # (union size, fixed assignment, p's class, members above p in it) per k.
    best = [(code.theta + 1, 0, 0, 0)] * (n + 1)
    for a in range(low, -1, -1):
        c = a.bit_count()
        chosen = int(f"{a:0{fixed}b}"[::-1], 2)  # a holds node i at bit fixed - 1 - i
        offset = sum(1 for holders in bare if holders & chosen)
        hit = [held for holders, held in tied if holders & chosen]
        if 2 * len(hit) < len(tied):
            counter = _sum_bits(whole, (full ^ reduce(or_, held) for held in hit))
        else:
            offset += len(hit)
            unhit = (reduce(or_, held) for holders, held in tied if not holders & chosen)
            counter = _sum_bits(base, unhit)
        # Complemented once per slice, top bit first: cand & ~bit would
        # complement a 2^f-bit int at every step of every scan.
        inverted = [full ^ bit for bit in reversed(counter)]
        floor = offset  # at most the minimum of each class left to scan
        for k in range(max(c, 1), c + f + 1):
            limit = best[k][0]
            if floor >= limit:
                continue
            j = k - c
            cand = classes[j]
            size = offset
            weight = 1 << len(inverted)
            for avoid in inverted:
                weight >>= 1
                narrowed = cand & avoid
                if narrowed:
                    cand = narrowed
                else:
                    size += weight
                    if size >= limit:
                        break
            else:
                best[k] = size, a, j, classes[j].bit_length() - cand.bit_length()
            floor = size
    return [
        (size, tuple([*_nodes(fixed, a), *_unranked(f, j, above, fixed)]))
        for size, a, j, above in best[1:]
    ]


#: bytes.translate table taking the digits "0" and "1" to the bytes 0 and 1.
_BITS = bytes.maketrans(b"01", b"\0\1")


def _nodes(n: int, s: int) -> list[int]:
    """The nodes i < n of subset s, ascending: those whose bit n - 1 - i
    is set, read off one binary format of s."""
    return [*compress(range(n), format(s, f"0{n}b").encode().translate(_BITS))]


def _decoded(n: int, best: list[tuple[int, int]]) -> list[tuple[int, tuple[int, ...]]]:
    """(value, witness) of each (value, subset s) of n nodes (_nodes)."""
    return [(size, tuple(_nodes(n, s))) for size, s in best]


@cache
def _slice_constants(f: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(columns, classes) of a slice of 2^f subsets, built once per f.
    The positions hold each p in [0, 2^f) by popcount class, smallest
    classes lowest, so a scan of one class ANDs ints no longer than its
    highest position. classes[j] marks the C(f, j) positions of class
    j, whose members ascend (_unranked maps one back), and columns[b]
    those whose p has bit b set."""
    # members[j][b] marks class j's members with bit b set. Class j at
    # width g + 1 is its lo members at width g, then the hi members of
    # class j - 1 with bit g set.
    members: list[list[int]] = [[]]
    for g in range(f):
        sizes = [0, *[math.comb(g, j) for j in range(g + 2)]]  # sizes[j + 1]: class j
        members = [
            [x | y << lo for x, y in zip(low, high)] + [(1 << hi) - 1 << lo]
            for low, high, hi, lo in zip(members + [[0] * g], [[0] * g] + members, sizes, sizes[1:])
        ]
    sizes = [math.comb(f, j) for j in range(f + 1)]
    order = sorted(range(f + 1), key=sizes.__getitem__)
    starts = dict(zip(order, accumulate([sizes[j] for j in order], initial=0)))
    columns = [reduce(or_, [members[j][b] << starts[j] for j in order]) for b in range(f)]
    classes = [(1 << sizes[j]) - 1 << starts[j] for j in range(f + 1)]
    return tuple(columns), tuple(classes)


def _unranked(f: int, j: int, above: int, first: int) -> list[int]:
    """The nodes first + f - 1 - b, ascending, of the bits b of the f-bit
    int of popcount j with `above` larger ones, decoded from its rank i
    from below: C(b, j) of them lie below bit b."""
    i = math.comb(f, j) - 1 - above
    last = first + f - 1
    nodes = []
    b = f
    while j:
        b -= 1
        below = math.comb(b, j)
        if i >= below:
            nodes.append(last - b)
            i -= below
            j -= 1
    return nodes


def _sum_bits(counter: list[int], indicators: Iterator[int]) -> list[int]:
    """The bit-sliced counter plus each 0/1 indicator, as a new counter,
    summed by 3:2 carry-save adders (Harley-Seal): each weight keeps at
    most two pending ints, and a third makes a full adder whose carry
    moves up a weight."""
    pending = [[bit] for bit in counter]  # ints of weight 2^w, per w
    for x in indicators:
        for slot in pending:
            if len(slot) < 2:
                slot.append(x)
                break
            a, b = slot
            t = a ^ b
            slot[:] = [t ^ x]
            x = a & b | t & x
        else:
            pending.append([x])
    total = []
    carry = 0
    for slot in pending:
        a, *others = slot
        slot.clear()  # each int is freed once it is added
        if carry:
            others.append(carry)
        carry = 0
        for b in others:  # two half adders make a full adder
            carry |= a & b
            a ^= b
        total.append(a)
    if carry:
        total.append(carry)
    return total


def _arc_order(code: FrCode) -> tuple[int, list[tuple[int, int]]] | None:
    """(s, arcs): the first unit s, tried from 1 up, under whose node
    relabeling i -> s*i mod n every holder set is a cyclic arc, and the
    (start, length) of each arc but those round the whole cycle, which
    no choice of nodes misses. None when no unit does.

    Under s, node i + d follows node i, d = 1/s mod n, so a set of r
    nodes is an arc exactly when r - 1 of them follow one of its nodes,
    and the one that does not starts it, at s*i mod n. A set is an arc
    exactly when its complement is, and two nodes a < b of an arc of r
    nodes lie within r - 1 of each other, so only units with
    s*(b - a) mod n within r - 1 of 0 are tried, for the holder set or
    complement with the fewest nodes r > 1; each tests that set first.
    """
    n = code.n
    full = (1 << n) - 1
    fewest, pair = n, full  # every unit passes the filter and the test
    for h in code.holders:
        r = h.bit_count()
        if n - r < r:
            h, r = full ^ h, n - r
        if 1 < r < fewest:
            fewest, pair = r, h
    rest = pair >> (pair & -pair).bit_length()  # pair past its first node a
    gap = (rest & -rest).bit_length()  # b - a, for its next node b
    for s in range(1, n + 1):
        if math.gcd(s, n) == 1 and (s * gap + fewest - 1) % n < 2 * fewest - 1:
            d = pow(s, -1, n)
            if (pair & _rotate(pair, d, n)).bit_count() < fewest - 1:
                continue
            arcs = []
            for h in code.holders:
                if h != full:
                    r = h.bit_count()
                    follow = h & _rotate(h, d, n)  # held nodes after a held node
                    if follow.bit_count() < r - 1:  # r less one per run
                        break
                    arcs.append((s * ((h ^ follow).bit_length() - 1) % n, r))
            else:
                return s, arcs
    return None


def _arc_dp_charge(code: FrCode, order: tuple[int, list[tuple[int, int]]] | None) -> int | None:
    """_most_missed's charge, its row entries: C(n + 1, 3) for the one
    cut of a rotation-invariant code, C(n + 2, 4) over all n cuts
    otherwise; None when code has no arc order."""
    if order is None:
        return None
    return math.comb(code.n + 1, 3) if code.rotation_invariant else math.comb(code.n + 2, 4)


def _most_missed(
    code: FrCode, order: tuple[int, list[tuple[int, int]]]
) -> list[tuple[int, tuple[int, ...]]]:
    """(M(k), lex-least witness) for every k in 1..n of a code whose
    holder sets are arcs under i -> unit*i mod n, order = (unit, arcs)
    from _arc_order.

    An arc is missed exactly when it fits in a gap between chosen nodes.
    Cut the cycle at the first chosen node c and let the chosen nodes
    sit at offsets 0 = p_1 < .. < p_k < n - c from it, the gap after the
    last one closing at offset n. W[a][b], the arcs inside the gap
    between offsets a and b, is a 2-D prefix count of each arc's two
    flanking offsets, and f_j[b], the best key (module notes) of j
    chosen nodes ending at offset b, is max over a < b of f_{j-1}[a] +
    W[a][b] * 2^n, plus the weight of the node at b. On a
    rotation-invariant code (code.rotation_invariant) the cut at node 0,
    which the relabeling keeps in place, is exact alone: rotating a set
    to start at node 0 keeps its union and makes it lex-smaller. Other
    codes take the best over every cut (_arc_dp_charge).
    """
    n = code.n
    unit, arcs = order
    scale = 1 << n  # one more arc missed outweighs any set's weights
    inverse = pow(unit, -1, n)
    weights = [1 << n - 1 - inverse * x % n for x in range(n)]  # by position
    most = [0] * (n + 1)  # the best key of k chosen nodes
    for c in range(1 if code.rotation_invariant else n):
        m = n - c  # offsets 0..m-1 may be chosen
        weight = weights[c:]  # by offset
        # flanks[right][left] counts arcs by flanking offsets. Offsets
        # past m - 1 cannot be chosen, so a right flank there is the gap
        # that closes the cycle (column m) and a left flank there is
        # passed by every chosen offset.
        flanks = [[0] * m for _ in range(m + 1)]
        for start, length in arcs:
            r = (start - c) % n  # the arc's first offset; r - 1 flanks it
            end = r + length  # the offset that flanks it on the right
            if r and end <= n:  # node c is not on the arc
                flanks[end if end < m else m][r - 1 if r <= m else m - 1] += scale
        gaps = []  # gaps[b][a] = W[a][b] * 2^n
        col = [0] * m
        for row in flanks:
            row.reverse()
            above = list(accumulate(row))  # arcs whose left flank is >= a
            above.reverse()
            col = list(map(add, col, above))
            gaps.append(col)
        closing = gaps[m]
        f = [weight[0]]  # f_j over offsets j-1..m-1; f_1 is only offset 0
        for j in range(1, m + 1):
            best = max(map(add, f, closing[j - 1 :]))
            if best > most[j]:
                most[j] = best
            f = [max(map(add, f, gaps[b][j - 1 : b])) + weight[b] for b in range(j, m)]
    return _decoded(n, [(code.theta - (key >> n), key & scale - 1) for key in most[1:]])


def _checked_file_size(theta: int, file_size: int | None) -> int:
    """file_size, or theta - 1 but at least 1 when None, once it is
    known to be an int (not a bool) in 1..theta."""
    if file_size is None:
        file_size = max(theta - 1, 1)
    _check_ints((("file_size", file_size),))
    if file_size < 1:
        raise KOutOfRange(f"file size must be >= 1, got {_shown(file_size)}")
    if file_size > theta:
        raise Unreachable(f"file size {_shown(file_size)} exceeds theta={_shown(theta)}")
    return file_size


def reconstruction_degree(
    code: FrCode, file_size: int | None = None, budget: int = DEFAULT_BUDGET
) -> int:
    """Least k such that min_coverage(code, k) >= file_size.

    file_size (M) defaults to theta - 1, but at least 1. k is
    scanned upward from 1, and each step only asks whether some k nodes
    hold fewer than M packets: the search stops at the first such
    subset instead of minimising.

    Some k nodes hold fewer than M packets exactly when the other n - k
    nodes hold every copy of some t = theta - M + 1 packets. With u the
    fewest nodes holding every copy of some t packets, min_coverage of
    code.transpose at t, that happens for k <= n - u, so the degree is
    n - u + 1. Once C(n, k) exceeds C(theta, t), that one walk on the
    transpose answers instead. The comparison only chooses the side;
    every walk, on either side, is charged the steps it takes, and the
    one that passes the budget raises BudgetExceeded.

    Before either walk, the holder sets are counted once. Any t packets
    hold every copy of one packet, so u is at least the fewest holders
    of any packet, least; t packets on one holder set of least nodes
    are held by exactly that set, so then u = least and the degree
    n - least + 1 needs no walk, at any budget. This holds at every
    file size and always answers at M = theta (t = 1).

    Otherwise no t packets share such a set. t packets whose holders
    fit in least nodes would all have exactly those holders, so
    u >= least + 1. The first t packets' holders, the dual walk's first
    leaf, bound u from above: when they span least + 1 nodes, u is
    least + 1 and the degree n - least needs no walk either, at any
    budget. On a ring with n >= theta >= 2 at M = theta - 1 these are
    packets 0 and 1, on adjacent windows of rho + 1 nodes; with the
    shared windows of theta > n, every ring at that file size answers
    without a walk.

    Where the first leaf spans more, the walk on the transpose stops at
    its first union of least + 1 nodes instead of trying every other t
    packets. Neither shortcut changes a degree; each only skips steps,
    so every budget that answered before answers the same degree.
    """
    _check_ints((("budget", budget),))
    file_size = _checked_file_size(code.theta, file_size)
    t = code.theta - file_size + 1
    copies = Counter(code.holders)
    least = min(map(int.bit_count, copies))
    if t <= max(c for h, c in copies.items() if h.bit_count() == least):
        return code.n - least + 1
    if reduce(or_, code.holders[:t]).bit_count() == least + 1:
        return code.n - least
    dual_cost = math.comb(code.theta, t)
    # All n nodes hold theta >= file_size packets, so k = n returns.
    for k in range(1, code.n + 1):
        dual = math.comb(code.n, k) > dual_cost
        # The node side stops at its first union below file_size; the
        # dual minimises u (at most n, as every packet has a holder), but
        # stops at least + 1, below which no t packets' holders fall here.
        side, size, bound, floor = (
            (code.transpose, t, code.n + 1, least + 1)
            if dual
            else (code, k, file_size, file_size - 1)
        )
        found = None
        for found, _ in _smaller_unions(side, size, bound, budget):
            if found <= floor:
                break
        if dual:
            return code.n - found + 1
        if found is None:
            return k


@dataclass(frozen=True)
class GoodnessReport:
    """Outcome of a goodness check.

    Arithmetic checks fill the point fields for the requested k.
    Structural checks scan every k in 1..min(alpha, n) against brute
    force coverage; the point fields then describe the binding k (the
    first failing k, or the smallest-margin k when all pass), and
    file_size is that k's brute-forced coverage. verdict is margin >= 0
    at the point k; structural_verdict is the all-k conjunction (None
    for arithmetic checks).
    """

    alpha: int
    theta: int
    k_evaluated: int
    file_size: int
    weak: bool
    rhs: int
    rhs_positive: bool
    margin: int
    verdict: bool
    structural_verdict: bool | None = None
    first_failing_k: int | None = None


def goodness_rhs(k: int, alpha: int, weak: bool = False) -> int:
    """Right side of the goodness bound: k*alpha - C(k, 2), one less in
    the weak form. C(k, 2) needs k >= 0. weak must be a bool; the two
    goodness checks take their right sides from here, so this refuses
    any other weak of theirs too."""
    _check_ints((("k", k), ("alpha", alpha)))
    _check_bool("weak", weak)
    if k < 0:
        raise KOutOfRange(f"k must be >= 0, got {_shown(k)}")
    return k * alpha - math.comb(k, 2) - (1 if weak else 0)


def goodness_arithmetic(
    k: int,
    alpha: int,
    theta: int,
    weak: bool = False,
    file_size: int | None = None,
) -> GoodnessReport:
    """Point check of the goodness bound at one k.

    file_size defaults to theta - 1, but at least 1. The verdict is
    file_size >= k*alpha - C(k, 2) (right side lowered by one when
    weak); margin is the slack.
    """
    _check_ints((("k", k), ("alpha", alpha), ("theta", theta)))
    if k < 1 or alpha < 1 or theta < 1:
        raise KOutOfRange(
            f"need k, alpha, theta >= 1, got {_shown(k)}, {_shown(alpha)}, {_shown(theta)}"
        )
    return _goodness_report(k, alpha, theta, _checked_file_size(theta, file_size), weak)


def _goodness_report(
    k: int, alpha: int, theta: int, file_size: int, weak: bool, structural: bool = False
) -> GoodnessReport:
    """The goodness bound's report at k for file_size packets; a
    structural check reports at its binding k, whose verdict is all k's."""
    rhs = goodness_rhs(k, alpha, weak)
    margin = file_size - rhs
    verdict = margin >= 0
    return GoodnessReport(
        alpha=alpha,
        theta=theta,
        k_evaluated=k,
        file_size=file_size,
        weak=weak,
        rhs=rhs,
        rhs_positive=rhs > 0,
        margin=margin,
        verdict=verdict,
        structural_verdict=verdict if structural else None,
        first_failing_k=k if structural and not verdict else None,
    )


def goodness_structural(
    code: FrCode,
    weak: bool | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GoodnessReport:
    """Check the goodness bound against brute-force coverage at every
    k in 1..min(alpha, n).

    weak=None picks the form automatically: relaxed for the
    single-deficit shape, strict otherwise. The scan is ascending and
    first_failing_k reports the earliest violated k; when all pass,
    the point fields describe the tightest (smallest-margin) k, the
    earliest of equals.

    M(1) is the smallest node size, so k = 1 needs no walk. The scan
    then decides rather than minimises: a later k can only change the
    report with a union below its rhs plus the least margin so far, so
    each walk runs to that bound and may find nothing. A k whose
    pairwise-overlap bound (the sum of the k smallest alpha_i less
    C(k, 2) * lambda; see the module notes) already reaches that bound
    is not walked at all: no union lies below it. lambda is read pair
    by pair only when the k smallest alpha_i alone reach the bound, and
    only until some pair rules the skip out, so codes the bound cannot
    help pay little for it.
    """
    _check_ints((("budget", budget),))
    prof = profile(code)
    if weak is None:
        weak = single_deficit_shape(prof)
    alpha = prof.alpha
    # smallest[k] is the sum of the k smallest node sizes.
    smallest = [0, *accumulate(sorted(prof.alpha_per_node))]
    masks = code.masks
    # Two nodes' overlaps, read only as far as a skip needs; most is the
    # largest read so far, which is lambda once they are all read.
    overlaps = (
        (a & b).bit_count() for i, a in enumerate(masks) for b in masks[i + 1 :]
    )
    most = 0
    # The binding (margin, k, value) so far, from k = 1 (alpha >= 1,
    # n >= 1), where the value is M(1) = smallest[1].
    binding_k, binding_value = 1, smallest[1]
    binding_margin = binding_value - goodness_rhs(1, alpha, weak)
    for k in range(2, min(alpha, code.n) + 1):
        if binding_margin < 0:
            break
        rhs = goodness_rhs(k, alpha, weak)
        bound = rhs + binding_margin
        if smallest[k] >= bound:
            # Every k-union holds at least smallest[k] - C(k, 2) * lambda
            # packets, which reaches bound when lambda <= cap.
            cap = (smallest[k] - bound) // math.comb(k, 2)
            if most <= cap:
                for overlap in overlaps:
                    if overlap > most:
                        most = overlap
                        if most > cap:
                            break
                else:
                    continue  # no k-union lies below bound
        for value, _ in _smaller_unions(code, k, bound, budget):
            binding_margin, binding_k, binding_value = value - rhs, k, value
    return _goodness_report(binding_k, alpha, code.theta, binding_value, weak, structural=True)


class PrgMargin(NamedTuple):
    p: int
    q: int
    theta: int
    margin: int


def prg_margin(n: int, d: int) -> PrgMargin:
    """Closed-form slack of the weak goodness bound for the partial
    regular graph code at k = n - 2 and file size theta - 1.

    With p = (n-1)/2 and q = (d-1)/2: theta = 2pq + p + q and
    margin = 2p^2 - 2pq - 4p + 3q + 2, nonnegative over the whole
    valid (n, d) range.
    """
    spec = PrgSpec(n, d)  # reuse parity and degree-range validation
    p, q = spec.p, spec.q
    margin = 2 * p * p - 2 * p * q - 4 * p + 3 * q + 2
    return PrgMargin(p=p, q=q, theta=spec.theta, margin=margin)


def ring_margin_case1(rho: int, theta: int) -> int:
    """Goodness slack polynomial for one-round ring codes (theta = n),
    equal to twice the bound margin at k = n - rho:

        3*rho^2 + theta^2 - 4*rho*theta + theta + rho - 2

    Factors as (theta - rho - 1) * (theta - 3*rho + 2), so it is
    nonnegative exactly outside the open interval (rho + 1, 3*rho - 2).
    """
    _check_ints((("rho", rho), ("theta", theta)))
    return 3 * rho * rho + theta * theta - 4 * rho * theta + theta + rho - 2


class KPrediction(NamedTuple):
    k: int
    basis: str  # "theorem" | "conjecture"


def predicted_k_ring(n: int, theta: int, rho: int) -> KPrediction:
    """Predicted reconstruction degree of ring codes at file size
    theta - 1.

    Proven cases: theta = n gives n - rho; theta = m*n with m > 1 gives
    n - rho + 1. Heterogeneous cases are conjectured: n > theta gives
    n - rho; theta > n with theta not a multiple of n gives n - rho + 1.
    Conjectured values are labeled so and must never be asserted
    against brute force, only compared.

    The labels mirror the paper; the transpose settles both conjectured
    branches. At file size theta - 1
    the degree is n - u + 1, with u the smallest union of two packets'
    holder windows (see reconstruction_degree), and every window has
    rho nodes. When theta > n, packets 0 and n share the window 0..rho-1,
    so u = rho: reconstruction_degree reads this off the shared window
    without a walk. When n > theta >= 2, the windows start at different
    nodes, so any two differ and u >= rho + 1; packets 0 and 1 reach it,
    and reconstruction_degree reads that off them without a walk.
    """
    RingSpec(n, theta, rho)  # reuse integer, size and rho-range validation
    return _predicted_k(n, theta, rho)


def _predicted_k(n: int, theta: int, rho: int) -> KPrediction:
    """predicted_k_ring with no check: the caller has made RingSpec's."""
    if theta == n:
        return KPrediction(n - rho, "theorem")
    if theta % n == 0:
        return KPrediction(n - rho + 1, "theorem")
    if n > theta:
        return KPrediction(n - rho, "conjecture")
    return KPrediction(n - rho + 1, "conjecture")
