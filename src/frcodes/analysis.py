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
some k nodes hold fewer packets than the starting bound. The search
refuses to start when C(n, k) exceeds the budget.

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
reconstruction_degree). It is read there once C(n, k) exceeds that
walk's count, and the transpose's own rotation symmetry (the packet
rotation j -> j+1) restricts that walk the same way.

coverage_profile needs no walk to find its values on codes whose
packets are each held by a cyclic arc of nodes, once the nodes are
relabeled i -> s*i mod n for some unit s (every ring code, and every
shifted-placement code whose step t + 1 is prime to n). The packets
that k chosen nodes miss are exactly the arcs that fit in the gaps
between them, so M(k) is theta less the most arcs that k gaps can hold,
and one dynamic program over gap endpoints gives that for every k at
once: O(n^3) from one cut of the cycle on a rotation-invariant code,
O(n^4) over all n cuts otherwise. Each witness is then the first subset
the walk finds with a union of at most M(k), which is the
lexicographically least one in the code's own labels. The program runs
only when C(n, n // 2), the largest walk, is within the budget; every
other code, and every refusal, goes through min_coverage one k at a
time.

A code is universally good when every k <= alpha satisfies

    min_coverage(code, k) >= k * alpha - C(k, 2)

and weakly universally good when the right side is lowered by one. The
relaxed form is applied to codes in which exactly one node stores
alpha - 1 packets and the rest store alpha with regular replication;
everything else is held to the strict bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import Iterator, NamedTuple

from .constructions import PrgSpec
from .core import FrCode, packets_from_mask, profile, single_deficit_shape
from .errors import BudgetExceeded, KOutOfRange, RhoRange, Unreachable

#: Default ceiling on C(n, k) per enumeration.
DEFAULT_BUDGET = 10**8


def _smaller_unions(
    code: FrCode, k: int, bound: int, budget: int, symmetric: bool
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (union size, subset) for each k-subset, in lex order, whose
    union is smaller than bound and than every earlier yield.

    symmetric says the code is rotation invariant, which is detected
    once per code (FrCode.rotation_invariant). Then only subsets that
    start at node 0 and whose first gap g is the smallest circular gap
    are walked: the second pick is at most n // k, each later pick is
    at least g after the previous one, and the last pick leaves at least
    g before node 0 comes round again. Every subset rotates into that
    form with its union size unchanged, and the lexicographically least
    subset of any size is already in it (a rotation that starts at a
    smaller gap would be smaller), so the minimum, its witness and the
    existence of a subset below the bound are those of the full walk.
    """
    n = code.n
    if not 1 <= k <= n:
        raise KOutOfRange(f"k={k} outside [1, {n}]")
    if math.comb(n, k) > budget:
        raise BudgetExceeded(
            f"C({n}, {k}) = {math.comb(n, k)} exceeds budget {budget}"
        )
    masks = code.masks
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
                continue
        i += 1


def min_coverage(
    code: FrCode, k: int, budget: int = DEFAULT_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Minimum union size over all k-node subsets, with one witness.

    Returns (value, witness) where witness is the lexicographically
    least subset achieving the value, as a sorted tuple of node indices.
    """
    # Every union is at most theta, so the first subset always yields.
    *_, best = _smaller_unions(code, k, code.theta + 1, budget, code.rotation_invariant)
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
    n = code.n
    # The arc DP answers only where no k would be refused, so the per-k
    # searches keep every refusal, raised at the same k.
    arcs = _arc_order(code) if math.comb(n, n // 2) <= budget else None
    if arcs is None:
        best = [min_coverage(code, k, budget=budget) for k in range(1, n + 1)]
    else:
        symmetric = code.rotation_invariant
        most = _most_missed(n, arcs, symmetric)
        # The first subset at or below the minimum is its lex-least witness.
        best = [
            next(_smaller_unions(code, k, code.theta - most[k] + 1, budget, symmetric))
            for k in range(1, n + 1)
        ]
    values, witnesses = zip(*best)
    return CoverageProfile(values=values, witnesses=witnesses)


def _arc_order(code: FrCode) -> list[tuple[int, int]] | None:
    """(start, length) of each packet's holder arc under the first node
    relabeling i -> s*i mod n, s a unit tried from 1 up, that makes every
    holder set a cyclic arc; arcs round the whole cycle are left out,
    since no choice of nodes misses them. None when no unit does."""
    n = code.n
    full = (1 << n) - 1
    for s in range(1, n + 1):
        if math.gcd(s, n) != 1:
            continue
        arcs = []
        for h in code.holders:
            if s > 1:  # relabel lazily: most codes fail on a few packets
                h = sum(1 << s * i % n for i in packets_from_mask(h))
            if h == full:
                continue
            # An arc has exactly one held node whose predecessor is not.
            starts = h & ~(h << 1 & full | h >> n - 1)
            if not starts or starts & starts - 1:
                break
            arcs.append((starts.bit_length() - 1, h.bit_count()))
        else:
            return arcs
    return None


def _most_missed(
    n: int, arcs: list[tuple[int, int]], symmetric: bool
) -> list[int]:
    """most[k]: the most arcs that k chosen nodes miss, for k in 0..n.

    An arc is missed exactly when it fits in a gap between chosen nodes.
    Cut the cycle at the first chosen node c and let the chosen nodes
    sit at offsets 0 = p_1 < .. < p_k < n - c from it, the gap after the
    last one closing at offset n. W[a][b], the arcs inside the gap
    between offsets a and b, is a 2-D prefix count of each arc's two
    flanking offsets, and f_j[b], the most arcs missed by j chosen nodes
    ending at offset b, is max over a < b of f_{j-1}[a] + W[a][b]. A
    rotation-invariant code needs only the cut at node 0; others take
    the best over every cut.
    """
    most = [0] * (n + 1)
    for c in range(1 if symmetric else n):
        m = n - c  # offsets 0..m-1 may be chosen
        # flanks[right][left] counts arcs by flanking offsets. Offsets
        # past m - 1 cannot be chosen, so a right flank there is the gap
        # that closes the cycle (column m) and a left flank there is
        # passed by every chosen offset.
        flanks = [[0] * m for _ in range(m + 1)]
        for start, length in arcs:
            r = (start - c) % n  # the arc's first offset; r - 1 flanks it
            end = r + length  # the offset that flanks it on the right
            if r and end <= n:  # node c is not on the arc
                flanks[end if end < m else m][r - 1 if r <= m else m - 1] += 1
        gaps = []  # gaps[b][a] = W[a][b]
        col = [0] * m
        for row in flanks:
            row.reverse()
            above = list(accumulate(row))  # arcs whose left flank is >= a
            above.reverse()
            col = list(map(add, col, above))
            gaps.append(col)
        closing = gaps[m]
        f = [0]  # f_j over offsets j-1..m-1; f_1 is only offset 0
        for j in range(1, m + 1):
            best = max(map(add, f, closing[j - 1 :]))
            if best > most[j]:
                most[j] = best
            f = [max(map(add, f, gaps[b][j - 1 : b])) for b in range(j, m)]
    return most


def default_file_size(theta: int) -> int:
    """The outer-layer size of the bundled tables, theta - 1, but at
    least 1 so that a one-packet code has one."""
    return max(theta - 1, 1)


def reconstruction_degree(
    code: FrCode, file_size: int | None = None, budget: int = DEFAULT_BUDGET
) -> int:
    """Least k such that min_coverage(code, k) >= file_size.

    file_size (M) defaults to default_file_size(code.theta). k is
    scanned upward from 1, and each step only asks whether some k nodes
    hold fewer than M packets: the search stops at the first such
    subset instead of minimising.

    Some k nodes hold fewer than M packets exactly when the other n - k
    nodes hold every copy of some t = theta - M + 1 packets. With u the
    fewest nodes holding every copy of some t packets (min_coverage of
    the transpose at t), that happens for k <= n - u, so the degree is
    n - u + 1. Once C(n, k) exceeds C(theta, t), one walk on the
    transpose answers instead; it is then the cheaper side, so it
    refuses nothing the scan would have answered.
    """
    if file_size is None:
        file_size = default_file_size(code.theta)
    if file_size < 1:
        raise KOutOfRange(f"file size must be >= 1, got {file_size}")
    if file_size > code.theta:
        raise Unreachable(
            f"file size {file_size} exceeds theta={code.theta}"
        )
    t = code.theta - file_size + 1
    dual_cost = math.comb(code.theta, t)
    # All n nodes hold theta >= file_size packets, so k = n returns.
    for k in range(1, code.n + 1):
        if math.comb(code.n, k) > dual_cost:
            dual = code.transpose
            # Every packet has a holder, so 1 <= u <= n.
            *_, (u, _) = _smaller_unions(
                dual, t, dual.theta + 1, budget, dual.rotation_invariant
            )
            return code.n - u + 1
        below = _smaller_unions(code, k, file_size, budget, code.rotation_invariant)
        if next(below, None) is None:
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
    the weak form."""
    return k * alpha - math.comb(k, 2) - (1 if weak else 0)


def goodness_arithmetic(
    k: int,
    alpha: int,
    theta: int,
    weak: bool = False,
    file_size: int | None = None,
) -> GoodnessReport:
    """Point check of the goodness bound at one k.

    file_size defaults to default_file_size(theta). The verdict is
    file_size >= k*alpha - C(k, 2) (right side lowered by one when
    weak); margin is the slack.
    """
    if k < 1 or alpha < 1 or theta < 1:
        raise KOutOfRange(f"need k, alpha, theta >= 1, got {k}, {alpha}, {theta}")
    if file_size is None:
        file_size = default_file_size(theta)
    if file_size > theta:
        raise Unreachable(f"file size {file_size} exceeds theta={theta}")
    rhs = goodness_rhs(k, alpha, weak)
    margin = file_size - rhs
    return GoodnessReport(
        alpha=alpha,
        theta=theta,
        k_evaluated=k,
        file_size=file_size,
        weak=weak,
        rhs=rhs,
        rhs_positive=rhs > 0,
        margin=margin,
        verdict=margin >= 0,
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
    the point fields describe the tightest (smallest-margin) k.
    """
    prof = profile(code)
    if weak is None:
        weak = single_deficit_shape(prof)
    alpha = prof.alpha
    # alpha >= 1 and n >= 1, so at least k = 1 is scanned. Every margin
    # before the first negative one is >= 0, so min() picks the first
    # failing k, or else the earliest tightest k.
    scanned = []
    for k in range(1, min(alpha, code.n) + 1):
        value, _ = min_coverage(code, k, budget=budget)
        scanned.append((value - goodness_rhs(k, alpha, weak), k, value))
        if scanned[-1][0] < 0:
            break
    binding_margin, binding_k, binding_value = min(scanned)
    passed = binding_margin >= 0
    rhs = goodness_rhs(binding_k, alpha, weak)
    return GoodnessReport(
        alpha=alpha,
        theta=code.theta,
        k_evaluated=binding_k,
        file_size=binding_value,
        weak=weak,
        rhs=rhs,
        rhs_positive=rhs > 0,
        margin=binding_margin,
        verdict=passed,
        structural_verdict=passed,
        first_failing_k=None if passed else binding_k,
    )


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
    return 3 * rho * rho + theta * theta - 4 * rho * theta + theta + rho - 2


def ring_margin_case2(m: int, rho: int, theta: int) -> int:
    """Reported diagnostic polynomial for multi-round ring codes:

        m^3*theta^2 + (m+2)*rho^2 - 2*m^2*theta*rho + m^2*theta
        - (m+2)*rho - 2*m*theta*rho + 2*m*theta - 2*m

    Its published derivation substitutes d = rho / m, which disagrees
    with the tabulated codes (where d = m * rho), so the toolkit only
    evaluates it verbatim and never gates any verdict on it; goodness
    for concrete codes is always computed from (k, alpha, theta)
    directly.
    """
    return (
        m**3 * theta**2
        + (m + 2) * rho**2
        - 2 * m**2 * theta * rho
        + m**2 * theta
        - (m + 2) * rho
        - 2 * m * theta * rho
        + 2 * m * theta
        - 2 * m
    )


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
    so u = rho. When n > theta >= 2, the windows start at different
    nodes, so any two differ and u >= rho + 1; packets 0 and 1 reach it.
    """
    if not 2 <= rho <= n - 1:
        raise RhoRange(f"need 2 <= rho <= n - 1, got rho={rho}, n={n}")
    if theta < 1:
        raise KOutOfRange(f"theta must be >= 1, got {theta}")
    if theta == n:
        return KPrediction(n - rho, "theorem")
    if theta % n == 0:
        return KPrediction(n - rho + 1, "theorem")
    if n > theta:
        return KPrediction(n - rho, "conjecture")
    return KPrediction(n - rho + 1, "conjecture")
