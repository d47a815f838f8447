"""Workload definitions for the frcodes benchmark.

A workload is a fixed list of `frc` command lines, each sent through
frcodes.cli.main(argv), plus the code files those commands read. The
seed picks the random codes and the failed nodes; the deterministic
grids and the fixed code lists are the same for every seed. File names
in argv are relative: the runner executes every job with the work
directory as the current directory, so a job's argv is also its key in
digests.json.

Run as a script, this module is the benchmark's set-up step: a fresh
interpreter imports frcodes, builds the workload's codes and writes
their files. run.py times that whole process.

    python3 perfbench/workloads.py --workload repair_plan --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import dataclass, field

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Check kinds. DIGEST jobs are compared with digests.json; the others
#: are seeded and checked by invariants that hold for any seed.
DIGEST = "digest"
ANALYZE = "analyze"
GOODNESS = "goodness"
REPAIR = "repair"

BUNDLED_TABLES = (
    "ring_rho4",
    "ring_rho3",
    "ring_rho2",
    "t_all_n4_11",
    "t_all_n12_18",
    "t_rhs_positive",
    "t_dedup",
    "t_dedup_rho2",
    "t_dedup_rho3",
)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: str = DIGEST
    code: str | None = None  # input file a seeded check needs

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Workload:
    jobs: list[Job]
    #: file name -> FrCode written at set-up
    files: dict = field(default_factory=dict)
    #: file name -> FrCode of every seeded code, for the checks
    seeded: dict = field(default_factory=dict)


def random_code(rng: random.Random, n: int, theta: int, rho: int):
    """Each packet on rho distinct nodes drawn uniformly; redrawn until no
    node is empty. Such codes have no rotation symmetry in general."""
    from frcodes import make_code

    while True:
        storage = [set() for _ in range(n)]
        for packet in range(theta):
            for node in rng.sample(range(n), rho):
                storage[node].add(packet)
        if all(storage):
            return make_code(n, theta, storage)


def _fixed_codes(specs):
    from frcodes import PrgSpec, RingSpec, TSpec, build_prg, build_ring, build_t_code

    builders = {
        "prg": lambda a: build_prg(PrgSpec(*a)),
        "ring": lambda a: build_ring(RingSpec(*a)),
        "t": lambda a: build_t_code(TSpec(*a)),
    }
    out = {}
    for family, args, ext in specs:
        name = f"{family}_{'_'.join(map(str, args))}.{ext}"
        out[name] = builders[family](args)
    return out


def table_regen(seed: int) -> Workload:
    """Ring-table regeneration, conjecture evidence and bundled audits:
    about 900 small ring codes answered by reconstruction_degree."""
    del seed  # the grid is the same for every seed
    jobs = []
    for n in range(10, 25):
        for rho in range(2, 5):
            for m in range(1, 4):
                jobs.append(Job(("sweep", "ring", "--n", str(n), "--rho", str(rho),
                                 "--m", str(m), "--json")))
    for n in range(4, 15):
        for rho in range(2, 5):
            jobs.append(Job(("conjecture", "--n", str(n), "--rho", str(rho), "--json")))
    for name in BUNDLED_TABLES:
        jobs.append(Job(("audit-table", "--bundled", name, "--json")))
    return Workload(jobs)


DEEP_FIXED = (
    ("prg", (19, 7), "json"),
    ("prg", (21, 5), "json"),
    ("t", (26, 4, 2), "json"),
    ("t", (22, 4, 2), "json"),
    ("ring", (22, 22, 3), "json"),
    ("ring", (20, 20, 3), "json"),
    ("ring", (20, 30, 3), "json"),  # heterogeneous: theta not a multiple of n
)
DEEP_RANDOM = (19, 38, 3)  # n, theta, rho
DEEP_RANDOM_COUNT = 8


def deep_coverage(seed: int) -> Workload:
    """analyze and goodness --structural on larger codes: the
    optimisation search (minimum plus lex-least witness at every k)."""
    rng = random.Random(f"deep_coverage:{seed}")
    files = _fixed_codes(DEEP_FIXED)
    seeded = {f"rand_{i}.json": random_code(rng, *DEEP_RANDOM)
              for i in range(DEEP_RANDOM_COUNT)}
    jobs = []
    for name in list(files) + list(seeded):
        check = (ANALYZE, GOODNESS) if name in seeded else (DIGEST, DIGEST)
        code = name if name in seeded else None
        jobs.append(Job(("analyze", name, "--json"), check[0], code))
        jobs.append(Job(("goodness", name, "--structural", "--json"), check[1], code))
    return Workload(jobs, {**files, **seeded}, seeded)


#: Codes whose helper search enumerates about 2^d subsets per node.
REPAIR_HEAVY = (
    ("prg", (19, 15), "json"),
    ("prg", (21, 17), "csv"),
)
#: generate -o commands run inside every pass; their files are read
#: back by the repair and analyze jobs that follow.
REPAIR_GENERATED = (
    ("ring", ("--n", "30", "--theta", "30", "--rho", "5"), "ring_30_30_5.json"),
    ("t", ("--n", "26", "--d", "4", "--t", "2"), "t_26_4_2.csv"),
    ("ring", ("--n", "30", "--theta", "90", "--rho", "3"), "ring_30_90_3.json"),
    ("prg", ("--n", "15", "--d", "5"), "prg_15_5.json"),
)
REPAIR_GENERATED_N = {name: int(args[1]) for _family, args, name in REPAIR_GENERATED}
REPAIR_RANDOM = ((30, 60, 2), (30, 90, 2), (30, 60, 3), (30, 90, 3))
REPAIR_FAILS_PER_CHEAP_CODE = 10


def repair_plan(seed: int) -> Workload:
    """repair --fail for every node of heavy prg codes, mixed with many
    cheap repairs (ring, t and seeded random codes with rho 2 and 3),
    code writes and the reads of those files."""
    rng = random.Random(f"repair_plan:{seed}")
    files = _fixed_codes(REPAIR_HEAVY)
    seeded = {}
    for i, shape in enumerate(REPAIR_RANDOM):
        seeded[f"rand_{i}.json"] = random_code(rng, *shape)

    def repair(name, node, check=DIGEST):
        code = name if check != DIGEST else None
        return Job(("repair", name, "--fail", str(node + 1), "--json"), check, code)

    jobs = [
        Job(("generate", family, *args, "-o", name, "--json"))
        for family, args, name in REPAIR_GENERATED
    ]
    heavy = [repair(name, node) for name, code in files.items() for node in range(code.n)]
    cheap = [repair(name, node)
             for name, n in REPAIR_GENERATED_N.items()
             for node in sorted(rng.sample(range(n), REPAIR_FAILS_PER_CHEAP_CODE))]
    cheap += [repair(name, node, REPAIR)
              for name, code in seeded.items()
              for node in sorted(rng.sample(range(code.n), REPAIR_FAILS_PER_CHEAP_CODE))]
    cheap.append(Job(("analyze", "prg_15_5.json", "--json")))
    # Interleave so heavy searches are spread through the pass.
    step = len(cheap) / len(heavy)
    for i, job in enumerate(heavy):
        jobs.extend(cheap[round(i * step):round((i + 1) * step)])
        jobs.append(job)
    return Workload(jobs, {**files, **seeded}, seeded)


WORKLOADS = {
    "table_regen": table_regen,
    "deep_coverage": deep_coverage,
    "repair_plan": repair_plan,
}


def all_fixed_jobs(workload: str) -> list[Job]:
    """Every DIGEST job any seed of the workload can produce: the job
    list of seed 0 plus a repair of every node of the generated codes."""
    jobs = [job for job in WORKLOADS[workload](0).jobs if job.check == DIGEST]
    if workload == "repair_plan":
        for name, n in REPAIR_GENERATED_N.items():
            jobs += [Job(("repair", name, "--fail", str(i), "--json")) for i in range(1, n + 1)]
    unique = {job.key: job for job in jobs}
    return list(unique.values())


def write_files(workload: Workload, directory: str) -> None:
    from frcodes import export_code

    for name, code in workload.files.items():
        export_code(code, os.path.join(directory, name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Build and write a workload's input files.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    write_files(WORKLOADS[args.workload](args.seed), args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
