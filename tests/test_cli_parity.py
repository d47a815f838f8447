"""CLI parity gate: a fixed matrix of `frc` invocations must give the
same exit code, stdout and stderr as when the digests were recorded.

Each invocation runs through frcodes.cli.main in process and is stored
as the sha256 of its (rc, stdout, stderr) in cli_parity.json, keyed by
its command line. A refactor that must not change behaviour passes this
test unchanged. After a change that is meant to alter output, record
the digests again and review the keys that moved:

    PYTHONPATH=src python tests/test_cli_parity.py

Usage errors and --help end in SystemExit; its code is recorded as the
rc. They are interleaved with valid calls, so a parser that kept state
from one call to the next would move a digest. Their text is argparse's
own, so those keys are tied to the Python minor version (3.11 when
recorded) and to an 80-column help width, which COLUMNS pins.

A few searches that run away are run under a small FRC_BUDGET, which
prefixes their keys, so the refusal text is pinned too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path
from unittest import mock

from frcodes import (
    PrgSpec,
    RingSpec,
    TSpec,
    build_prg,
    build_ring,
    build_t_code,
    export_code,
    make_code,
)
from frcodes.cli import main
from frcodes.core import packets_from_mask

DIGESTS = Path(__file__).with_name("cli_parity.json")

GENERATE = (
    ("prg", "--n", "7", "--d", "3"),
    ("ring", "--n", "5", "--theta", "5", "--rho", "2"),
    ("ring", "--n", "8", "--theta", "5", "--rho", "2"),
    ("t", "--n", "7", "--d", "3", "--t", "1"),
)

TABLES = (
    ("sweep", "ring", "--n", "4..6", "--rho", "2..3", "--m", "1..2"),
    ("conjecture", "--n", "3..6", "--rho", "2..3"),
    ("conjecture", "--n", "4097", "--rho", "2"),
    ("conjecture", "--n", "1400", "--rho", "5000"),
    ("sweep", "ring", "--n", "1365..1366", "--rho", "2", "--m", "3"),
    ("sweep", "ring", "--n", "1400", "--rho", "5000", "--m", "3"),
    ("audit-table", "--bundled", "ring_rho2"),
    ("audit-table", "--bundled", "t_dedup"),
    ("audit-table", "--bundled", "t_rhs_positive"),
)

# Incidence matrices that export_code never writes: entries int() accepts
# in other spellings, a non-binary entry and a non-integer one.
HAND_CSV = {
    "entries-spelled": "1, 1,0\n\n0,+1,01\n-0,0,1 \n01,0,1\n",
    "entries-two": "1,1,0\n0,1,1\n1,0,2\n0,0,1\n",
    "entries-word": "1,1,0\n0,1,1\n1,0,1\n0, x,1\n",
}


def _random_code(rng: random.Random):
    """A small code that may have empty nodes, a repeated node set,
    more nodes than packets, or a single packet."""
    n, theta = rng.randint(1, 7), rng.randint(1, 8)
    masks = [rng.getrandbits(theta) & rng.getrandbits(theta) for _ in range(n)]
    masks[-1] = masks[0]
    placed = 0
    for m in masks:
        placed |= m
    masks[rng.randrange(n)] |= (1 << theta) - 1 & ~placed
    return make_code(n, theta, [packets_from_mask(m) for m in masks])


def _spread_code(rng: random.Random, n: int, theta: int, rho: int):
    """Each packet on rho distinct nodes drawn uniformly, redrawn until no
    node is empty: no arc order and no rotation symmetry in general."""
    while True:
        storage = [set() for _ in range(n)]
        for packet in range(theta):
            for node in rng.sample(range(n), rho):
                storage[node].add(packet)
        if all(storage):
            return make_code(n, theta, storage)


def _codes():
    yield "ring-5-5-2", build_ring(RingSpec(5, 5, 2))
    yield "ring-6-12-2", build_ring(RingSpec(6, 12, 2))
    yield "ring-7-10-3", build_ring(RingSpec(7, 10, 3))
    yield "ring-8-5-2", build_ring(RingSpec(8, 5, 2))
    yield "prg-7-3", build_prg(PrgSpec(7, 3))
    yield "t-7-3-1", build_t_code(TSpec(7, 3, 1))
    yield "ring-12-12-3", build_ring(RingSpec(12, 12, 3))
    yield "ring-11-17-3", build_ring(RingSpec(11, 17, 3))
    yield "t-13-3-1", build_t_code(TSpec(13, 3, 1))
    yield "t-12-3-2", build_t_code(TSpec(12, 3, 2))
    yield "prg-17-3", build_prg(PrgSpec(17, 3))
    yield "spread-18", _spread_code(random.Random(18), 18, 36, 3)
    rng = random.Random(6)
    for i in range(6):
        yield f"random-{i}", _random_code(rng)


# Small enough that each runaway refuses within milliseconds.
RUNAWAY_BUDGET = "1000"


def _runaway_invocations(directory: str):
    """(FRC_BUDGET, argv) of analyze, goodness --structural and repair on
    codes whose searches run away. In the blocks code every node holds its own ten packets, so
    every k-union is 10k and no branch is ever cut; its arc DP is charged
    more than the budget. The overlap code is 50 such blocks, except that
    the last one is shifted down by two packets, so it shares two with
    node 48: its goodness walk at k = 2 runs away, and two nodes' overlap
    of two keeps the pairwise-overlap bound from settling that k. In the
    cover code node 0 holds the vertices of K_12 and each of the 66
    others holds one edge: a cover needs six, which the count bound
    proves, so the walk answers in 145 steps. In the subsets code node 0
    holds 40 packets and each of 300 others a random six of them: no
    candidate is forced, and a cover needs more than the bounds prove.
    In the pairs code node i holds packets 2i and 2i + 1 and node 0 one
    more, so the lex-least witnesses avoid node 0; it runs at the arc
    DP's charge of C(22, 4) = 7,315 steps."""
    blocks = os.path.join(directory, "runaway-blocks.json")
    export_code(make_code(20, 200, [range(10 * i, 10 * i + 10) for i in range(20)]), blocks)
    overlap = os.path.join(directory, "runaway-overlap.json")
    windows = [range(10 * i, 10 * i + 10) for i in range(49)] + [range(488, 498)]
    export_code(make_code(50, 498, windows), overlap)
    cover = os.path.join(directory, "runaway-cover.json")
    edges = [set(edge) for edge in combinations(range(12), 2)]
    export_code(make_code(67, 12, [range(12), *edges]), cover)
    subsets = os.path.join(directory, "runaway-subsets.json")
    rng = random.Random(40)
    others = [rng.sample(range(40), 6) for _ in range(300)]
    export_code(make_code(301, 40, [range(40), *others]), subsets)
    pairs = os.path.join(directory, "runaway-pairs.json")
    storage = [{2 * i, 2 * i + 1} for i in range(20)]
    storage[0].add(40)
    export_code(make_code(20, 41, storage), pairs)
    yield RUNAWAY_BUDGET, ("analyze", blocks)
    yield RUNAWAY_BUDGET, ("goodness", blocks, "--structural")
    yield RUNAWAY_BUDGET, ("goodness", overlap, "--structural")
    yield RUNAWAY_BUDGET, ("repair", cover, "--fail", "1")
    yield RUNAWAY_BUDGET, ("repair", subsets, "--fail", "1")
    yield "7315", ("analyze", pairs)


def _invocations(directory: str):
    """(key, argv) for every invocation of the matrix; code files are
    written into directory, and keys name them by file name only."""
    yield ("--help",)
    yield ("generate",)
    yield ("generate", "--help")
    for family in ("prg", "ring", "t"):
        yield ("generate", family, "--help")
        yield ("generate", family)
    for argv in GENERATE:
        yield ("generate", *argv)
    for argv in TABLES:
        yield argv
    for name, text in HAND_CSV.items():
        path = os.path.join(directory, f"{name}.csv")
        Path(path).write_text(text, encoding="utf-8")
        yield ("analyze", path)
        for node in range(1, 5):
            yield ("repair", path, "--fail", str(node))
    for name, code in _codes():
        sizes = (None, 0, 1, code.theta, code.theta + 1)
        for ext in ("json", "csv"):
            path = os.path.join(directory, f"{name}.{ext}")
            export_code(code, path)
            yield ("repair", path)
            yield ("analyze", path, "--file-size", "x")
            for size in sizes:
                yield ("analyze", path) + (() if size is None else ("--file-size", str(size)))
            yield ("goodness", path)
            yield ("goodness", path, "--structural")
            yield ("goodness", path, "--weak")
            for node in range(1, code.n + 1):
                yield ("repair", path, "--fail", str(node))
    yield from _argument_forms(directory)


#: The command words of every command that reads arguments of its own.
LEAVES = (
    ("analyze",),
    ("goodness",),
    ("repair",),
    ("audit-table",),
    ("conjecture",),
    ("generate", "prg"),
    ("generate", "ring"),
    ("generate", "t"),
    ("sweep", "ring"),
)


def _argument_forms(directory: str):
    """argv of the forms argparse reads beyond one option after another:
    help, a word left over, "--", joined, abbreviated and repeated
    options, options before a positional, and unknown or incomplete
    commands. Each also runs with --json appended, so `analyze FILE --`
    covers `analyze FILE -- --json`."""
    code = os.path.join(directory, "ring-5-5-2.json")
    ring = ("generate", "ring", "--n", "5", "--theta", "5", "--rho", "2")
    sweep = ("sweep", "ring", "--n", "5", "--rho", "2", "--m", "1")
    conjecture = ("conjecture", "--n", "3..4", "--rho", "2")
    for words in LEAVES:
        yield (*words, "-h")
    for argv in (
        ("analyze", code),
        ("goodness", code),
        ("repair", code, "--fail", "1"),
        ("audit-table", "--bundled", "ring_rho2"),
        conjecture,
        ring,
        sweep,
    ):
        yield (*argv, "extra")
    yield ("analyze", code, "--")
    yield (*conjecture, "--")
    yield (*sweep, "--")
    yield ("analyze", code, "-h")
    yield ("analyze", code, "--he")
    yield ("analyze", code, "--fil", "2")
    yield ("analyze", code, "--file-size=2")
    yield ("analyze", code, "--json=1")
    yield ("analyze", code, "--bogus")
    yield ("analyze", "--file-size", "3", code)
    yield ("goodness", code, "--struct")
    yield ("goodness", "--weak", code)
    yield ("repair", code, "--fail=2")
    yield ("repair", code, "--fa", "2")
    yield ("repair", code, "--fa", "2", "--fail", "3")
    yield ("repair", code, "--fail", "-1")
    yield ("repair", code, "--fail")
    yield ("repair", "--fail", "2", code)
    yield ("conjecture", "--n", "3", "--n", "4", "--rho", "2")
    yield ("conjecture", "--n", "3", "--rh", "2", "--js")
    yield ("sweep", "ring", "--n=5", "--rho", "2", "--m", "1")
    yield ("sweep", "bogus")
    yield ("sweep", "bogus", "--n", "5")
    yield ("generate", "bogus")
    yield ("generate", "ring", "--n", "5", "--rho", "2")
    yield (*ring, "--n", "6")
    yield (*ring, "-o" + os.path.join(directory, "joined.json"))


def run_matrix() -> dict[str, str]:
    """Digest of (rc, stdout, stderr) for every invocation, by command line."""
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        prefix = directory + os.sep
        runs = [({}, argv) for argv in _invocations(directory)]
        runs += [
            ({"FRC_BUDGET": budget}, argv) for budget, argv in _runaway_invocations(directory)
        ]
        for env, argv in runs:
            for extra in ((), ("--json",)):
                out, err = io.StringIO(), io.StringIO()
                with (
                    mock.patch.dict(os.environ, env),
                    contextlib.redirect_stdout(out),
                    contextlib.redirect_stderr(err),
                ):
                    try:
                        rc = main([*argv, *extra])
                    except SystemExit as exc:  # argparse: usage errors, --help
                        rc = exc.code
                record = json.dumps([rc, out.getvalue(), err.getvalue()]).replace(prefix, "")
                words = [f"{name}={value}" for name, value in env.items()]
                key = " ".join((*words, *argv, *extra)).replace(prefix, "")
                digests[key] = hashlib.sha256(record.encode()).hexdigest()
    return digests


def test_cli_output_matches_recorded_digests(monkeypatch):
    monkeypatch.delenv("FRC_BUDGET", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = run_matrix()
    assert sorted(current) == sorted(recorded), "the invocation matrix changed"
    moved = [key for key in recorded if current[key] != recorded[key]]
    assert not moved, f"{len(moved)} of {len(recorded)} outputs changed: {moved[:10]}"


if __name__ == "__main__":
    os.environ.pop("FRC_BUDGET", None)
    os.environ["COLUMNS"] = "80"
    digests = run_matrix()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} digests in {DIGESTS}", file=sys.stderr)
