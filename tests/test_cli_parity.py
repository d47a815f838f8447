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
from pathlib import Path

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


def _codes():
    yield "ring-5-5-2", build_ring(RingSpec(5, 5, 2))
    yield "ring-6-12-2", build_ring(RingSpec(6, 12, 2))
    yield "ring-7-10-3", build_ring(RingSpec(7, 10, 3))
    yield "ring-8-5-2", build_ring(RingSpec(8, 5, 2))
    yield "prg-7-3", build_prg(PrgSpec(7, 3))
    yield "t-7-3-1", build_t_code(TSpec(7, 3, 1))
    rng = random.Random(6)
    for i in range(6):
        yield f"random-{i}", _random_code(rng)


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


def run_matrix() -> dict[str, str]:
    """Digest of (rc, stdout, stderr) for every invocation, by command line."""
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        prefix = directory + os.sep
        for argv in _invocations(directory):
            for extra in ((), ("--json",)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        rc = main([*argv, *extra])
                    except SystemExit as exc:  # argparse: usage errors, --help
                        rc = exc.code
                record = json.dumps([rc, out.getvalue(), err.getvalue()]).replace(prefix, "")
                key = " ".join((*argv, *extra)).replace(prefix, "")
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
