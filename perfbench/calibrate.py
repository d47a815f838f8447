"""Calibration loop that tracks the speed of the CPU the benchmark runs on.

On a shared virtual machine the same job list runs up to twice as fast
or slow from one minute to the next: a neighbour's load changes how
fast this process runs, and CPU time follows wall time, so neither
clock is steady on its own. The runner therefore times this fixed loop
after every job and reports each job's time scaled by
REFERENCE_S / (local time of the loop), that is, in seconds on a CPU
that runs the loop in REFERENCE_S. The loop mixes the same kinds of work
as frcodes (a pruned recursive subset search over bitmasks, argparse and
JSON rendering) and does not import frcodes, so a change to the program
cannot change it.
"""

from __future__ import annotations

import argparse
import json
import time

#: Median time of calibrate() on a 2-vCPU shared VM with Python 3.11.
REFERENCE_S = 0.0024

_MASKS = tuple(((0b1011011 << (5 * i)) | (1 << (7 * i % 57))) & ((1 << 57) - 1) for i in range(20))
_ROWS = {"rows": [{"n": i, "k": i + 1, "nodes": [i] * 5} for i in range(30)]}


def _search(k: int = 7) -> int:
    n = len(_MASKS)
    best = n * 64
    chosen: list[int] = []

    def extend(start: int, union: int) -> None:
        nonlocal best
        if union.bit_count() >= best:
            return
        if len(chosen) == k:
            best = union.bit_count()
            return
        for i in range(start, n - (k - len(chosen)) + 1):
            chosen.append(i)
            extend(i + 1, union | _MASKS[i])
            chosen.pop()

    extend(0, 0)
    return best


def _parse() -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "analyze", "repair", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--n", type=int)
        p.add_argument("--json", action="store_true")
    return parser.parse_args(["repair", "--n", "3", "--json"])


def calibrate() -> tuple[float, float]:
    """(wall seconds, CPU seconds) of one run of the fixed loop."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    _search()
    _parse()
    json.dumps(_ROWS, indent=2)
    return time.perf_counter() - wall0, time.process_time() - cpu0
