"""Record the digests of every deterministic benchmark job.

    python3 perfbench/record_digests.py

Run it from the root of a checkout at a commit whose outputs are known
to be right; it rewrites perfbench/digests.json. A digest is the sha256
of the exit code and the stdout of one `frc` command.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from checks import digest
from run import DIGESTS, ROOT, run_job
from workloads import SRC, WORKLOADS, all_fixed_jobs, write_files


def main() -> int:
    sys.path.insert(0, SRC)
    from frcodes import cli

    work = os.path.join(ROOT, ".perfbench_work", "record")
    os.makedirs(work)
    cwd = os.getcwd()
    digests = {}
    try:
        os.chdir(work)
        for name, build in WORKLOADS.items():
            write_files(build(0), work)
            for job in all_fixed_jobs(name):
                code, out, _, _ = run_job(cli, job.argv)
                digests[job.key] = digest(code, out)
    finally:
        os.chdir(cwd)
        shutil.rmtree(os.path.dirname(work), ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
