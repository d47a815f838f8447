"""Output checks for the frcodes benchmark.

Deterministic jobs are compared with digests recorded at a known good
commit (digests.json). Seeded jobs are checked by properties that hold
for any seed, and on codes small enough against this file's own
itertools brute force. Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math

#: Largest C(n, k) for which a seeded coverage value is brute-forced.
BRUTE_SUBSETS = 5000


def digest(exit_code: int, stdout: str) -> str:
    return hashlib.sha256(f"{exit_code}\n{stdout}".encode()).hexdigest()


def _node_sets(code) -> list[frozenset[int]]:
    return [frozenset(code.packets(i)) for i in range(code.n)]


def _union_size(nodes, subset) -> int:
    return len(frozenset().union(*(nodes[i] for i in subset)))


def _brute_min_coverage(nodes, k):
    """(value, lex-least witness) by full enumeration, no pruning."""
    best = None
    for subset in itertools.combinations(range(len(nodes)), k):
        size = _union_size(nodes, subset)
        if best is None or size < best[0]:
            best = (size, subset)
    return best


def check_analyze(code, exit_code: int, stdout: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    doc = json.loads(stdout)
    nodes = _node_sets(code)
    n = code.n
    problems = []
    values, witnesses = doc["min_coverage"], doc["witnesses"]
    if (doc["n"], doc["theta"]) != (n, code.theta):
        problems.append("n/theta differ from the input code")
    if doc["alpha"] != max(map(len, nodes)):
        problems.append("alpha is not the largest node size")
    if len(values) != n or len(witnesses) != n:
        return problems + ["coverage table does not have n rows"]
    for k, (value, witness) in enumerate(zip(values, witnesses), start=1):
        if len(witness) != k or sorted(set(witness)) != witness:
            problems.append(f"k={k}: witness {witness} is not k sorted distinct nodes")
        elif not all(0 <= i < n for i in witness):
            problems.append(f"k={k}: witness {witness} names a node outside the code")
        elif _union_size(nodes, witness) != value:
            problems.append(f"k={k}: witness union differs from M(k)={value}")
        if math.comb(n, k) <= BRUTE_SUBSETS:
            expected = _brute_min_coverage(nodes, k)
            if (value, tuple(witness)) != expected:
                problems.append(f"k={k}: ({value}, {witness}) but brute force gives {expected}")
    if any(a > b for a, b in zip(values, values[1:])):
        problems.append("M(k) decreases")
    file_size = doc["file_size"]
    least = next((k for k, v in enumerate(values, start=1) if v >= file_size), None)
    if doc["reconstruction_degree"] != least:
        problems.append(
            f"reconstruction degree {doc['reconstruction_degree']} is not the least k"
            f" with M(k) >= {file_size} ({least})"
        )
    return problems


def check_goodness(code, exit_code: int, stdout: str, coverage: list[int]) -> list[str]:
    """Check goodness --structural against the M(k) table of the same
    code, which an analyze job of the same pass produced and checked."""
    doc = json.loads(stdout)
    sizes = [len(s) for s in _node_sets(code)]
    alpha = max(sizes)
    replicas = [0] * code.theta
    for i in range(code.n):
        for p in code.packets(i):
            replicas[p] += 1
    regular = min(replicas) == max(replicas)
    weak = regular and [a for a in sizes if a != alpha] == [alpha - 1]
    margins = []
    for k in range(1, min(alpha, code.n) + 1):
        rhs = k * alpha - math.comb(k, 2) - (1 if weak else 0)
        margins.append((coverage[k - 1] - rhs, k))
        if margins[-1][0] < 0:
            break
    failing = margins[-1][1] if margins[-1][0] < 0 else None
    margin, k = margins[-1] if failing else min(margins)
    expected = {
        "alpha": alpha,
        "theta": code.theta,
        "weak": weak,
        "k_evaluated": k,
        "file_size": coverage[k - 1],
        "margin": margin,
        "verdict": margin >= 0,
        "structural_verdict": failing is None,
        "first_failing_k": failing,
    }
    problems = [
        f"{name}={doc.get(name)!r}, expected {value!r}"
        for name, value in expected.items()
        if doc.get(name) != value
    ]
    if exit_code != (0 if failing is None else 1):
        problems.append(f"exit code {exit_code} disagrees with the verdict")
    return problems


def _check_plan(code, failed: int, plan: dict, label: str) -> list[str]:
    problems = []
    lost = code.packets(failed)
    packets = [p for p, _ in plan["assignments"]]
    if plan["failed"] != failed:
        problems.append(f"{label}: failed={plan['failed']}, expected {failed}")
    if packets != list(lost):
        problems.append(f"{label}: assignments cover {packets}, lost packets are {list(lost)}")
    for packet, helper in plan["assignments"]:
        if helper == failed or not 0 <= helper < code.n or packet not in code.packets(helper):
            problems.append(f"{label}: helper {helper} does not hold packet {packet}")
    used = sorted({h for _, h in plan["assignments"]})
    if used != plan["helpers"]:
        problems.append(f"{label}: helpers {plan['helpers']} but assignments use {used}")
    if plan["repair_degree"] != len(plan["helpers"]):
        problems.append(f"{label}: repair_degree != len(helpers)")
    if plan["bandwidth"] != len(lost):
        problems.append(f"{label}: bandwidth != lost packets")
    return problems


def check_repair(code, failed: int, exit_code: int, stdout: str) -> list[str]:
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    doc = json.loads(stdout)
    plan, greedy = doc["plan"], doc["greedy"]
    problems = _check_plan(code, failed, plan, "plan") + _check_plan(code, failed, greedy, "greedy")
    if plan["repair_degree"] > greedy["repair_degree"]:
        problems.append("minimum plan uses more helpers than greedy")
    for packet, helper in greedy["assignments"]:
        first = next(i for i in range(code.n) if i != failed and packet in code.packets(i))
        if helper != first:
            problems.append(f"greedy fetches packet {packet} from {helper}, not {first}")
    lost = frozenset(code.packets(failed))
    nodes = _node_sets(code)
    candidates = [i for i in range(code.n) if i != failed and nodes[i] & lost]
    size = plan["repair_degree"]
    if lost and math.comb(len(candidates), size) <= BRUTE_SUBSETS:
        covers = (
            list(subset)
            for subset in itertools.combinations(candidates, size)
            if lost <= frozenset().union(*(nodes[i] for i in subset))
        )
        first_cover = next(covers, None)
        if first_cover != plan["helpers"]:
            problems.append(f"lex-least cover of size {size} is {first_cover}")
        if size > 1 and any(
            lost <= frozenset().union(*(nodes[i] for i in subset))
            for subset in itertools.combinations(candidates, size - 1)
        ):
            problems.append(f"a cover with {size - 1} helpers exists")
    return problems
