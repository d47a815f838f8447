"""frcodes benchmark: fixed `frc` command lists run through
frcodes.cli.main in one process.

    python3 perfbench/run.py --workload table_regen --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; the program is imported from
src/. The client is a closed loop: one command at a time, stdout
captured, no threads. A run

1. times the set-up several times: a fresh interpreter that imports
   frcodes and builds and writes the workload's input files;
2. runs one warm-up pass of the job list, whose outputs are checked in
   full (digests for deterministic jobs, invariants and brute force for
   seeded ones);
3. repeats the job list for --seconds seconds. Every later output must
   match the warm-up output of the same job byte for byte.

With --trace 0 it reports the end-to-end metrics over the measured
passes. With --trace 1 it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see tracer.py); the
traced call counts must repeat exactly from pass to pass.

The last line of stdout is the result: {"correct", "attempted",
"failed", "metrics"}. The line before it holds the run's metadata. Any
failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from calibrate import REFERENCE_S, calibrate
from checks import check_analyze, check_goodness, check_repair, digest
from tracer import LAYER_UNITS, Tracer
from workloads import ANALYZE, DIGEST, GOODNESS, REPAIR, WORKLOADS, SRC

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

#: Timed set-up processes per run; the median is reported.
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 120
#: Calibration loops on each side of a timed interval that scale it.
CALIBRATION_WINDOW = 4
MAX_REPORTED_PROBLEMS = 20


def run_job(cli, argv) -> tuple[int, str, float, float]:
    """(exit code, stdout, wall seconds, CPU seconds) of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this job's check, not the run
            code = -1
            out.write(traceback.format_exc())
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
    return code, out.getvalue(), wall1 - wall0, cpu1 - cpu0


def time_setup(workload: str, seed: int, directory: str) -> tuple[list[float], list[float]]:
    """(reference-CPU seconds, wall seconds) of each timed set-up process,
    after one untimed run that fills the bytecode caches. Each process
    is scaled by the calibration times measured just before and after it."""
    argv = [sys.executable, os.path.join(HERE, "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--dir", directory]
    def spawn() -> float:
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        return elapsed

    spawn()
    raw = []
    calib = [calibrate()[0] for _ in range(CALIBRATION_WINDOW)]
    for _ in range(SETUP_REPEATS):
        raw.append(spawn())
        calib += [calibrate()[0] for _ in range(CALIBRATION_WINDOW)]
    scaled = [
        value * REFERENCE_S / statistics.median(calib[i * CALIBRATION_WINDOW:(i + 2) * CALIBRATION_WINDOW])
        for i, value in enumerate(raw)
    ]
    return scaled, raw


def source_digest() -> str:
    """sha256 over the package's files, identifying the code measured."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "frcodes")
    for dirpath, dirnames, filenames in os.walk(package):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".csv")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    """The checked-out commit when ROOT is a git work tree, else
    "unknown". Reads .git directly; starts no process."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Checker:
    """Checks each pass's outputs: the warm-up pass in full, later passes
    against the warm-up pass. A job that failed in the warm-up pass
    counts as failed in every pass."""

    def __init__(self, workload, digests: dict[str, str]) -> None:
        self.workload = workload
        self.digests = digests
        self.reference: list[str] | None = None
        self.wrong: set[int] = set()  # jobs whose warm-up output failed its check
        self.problems: list[str] = []

    def check_pass(self, results) -> int:
        """Number of failed jobs in one pass."""
        seen = [digest(code, out) for code, out, _, _ in results]
        failed = 0
        if self.reference is not None:
            for i, (job, got, want) in enumerate(zip(self.workload.jobs, seen, self.reference)):
                if got != want:
                    failed += 1
                    self.problems.append(f"{job.key}: output differs from the warm-up pass")
                elif i in self.wrong:
                    failed += 1
            return failed
        coverage = {}
        for index, (job, (code, out, _, _), got) in enumerate(zip(self.workload.jobs, results, seen)):
            try:
                if job.check == DIGEST:
                    want = self.digests.get(job.key)
                    problems = [] if got == want else [
                        "no recorded digest" if want is None else "digest differs from the recorded one"
                    ]
                else:
                    fr = self.workload.seeded[job.code]
                    if job.check == ANALYZE:
                        problems = check_analyze(fr, code, out)
                        coverage[job.code] = json.loads(out)["min_coverage"] if code == 0 else None
                    elif job.check == GOODNESS:
                        problems = check_goodness(fr, code, out, coverage[job.code])
                    elif job.check == REPAIR:
                        problems = check_repair(fr, int(job.argv[3]) - 1, code, out)
                    else:
                        problems = [f"unknown check {job.check!r}"]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
            if problems:
                failed += 1
                self.wrong.add(index)
                self.problems.extend(f"{job.key}: {p}" for p in problems)
        self.reference = seen
        return failed


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def calibrated(raw: list[float], calib: list[float]) -> list[float]:
    """Scale raw[i], measured between calib[i] and calib[i + 1], to
    reference-CPU seconds by the median of the nearest calibration times."""
    out = []
    for i, value in enumerate(raw):
        window = calib[max(0, i + 1 - CALIBRATION_WINDOW):i + 1 + CALIBRATION_WINDOW]
        out.append(value * REFERENCE_S / statistics.median(window))
    return out


def measure(args, workload, checker: Checker) -> tuple[dict, dict, int, int]:
    """Run the warm-up pass and the measured passes; return (metrics,
    details, attempted, failed)."""
    from frcodes import cli

    def one_pass(traced: bool):
        tracer = Tracer() if traced else None
        results = []
        calib = [calibrate()]
        if tracer:
            tracer.install()
        try:
            for job in workload.jobs:
                results.append(run_job(cli, job.argv))
                calib.append(calibrate())
        finally:
            if tracer:
                tracer.uninstall()
        return results, calib, tracer

    results, _, _ = one_pass(traced=False)
    failed = checker.check_pass(results)
    attempted = len(results)

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        results, calib, tracer = one_pass(traced)
        failed += checker.check_pass(results)
        attempted += len(results)
        calib_wall = [c[0] for c in calib]
        walls = calibrated([r[2] for r in results], calib_wall)
        cpus = calibrated([r[3] for r in results], [c[1] for c in calib])
        layers = None
        if tracer:
            scale = REFERENCE_S / statistics.median(calib_wall)
            layers = {name: value * scale if LAYER_UNITS[name] == "s" else value
                      for name, value in tracer.summary().items()}
        passes.append({
            "traced": traced,
            "wall": sum(walls),
            "cpu": sum(cpus),
            "jobs": walls,
            "raw_wall": sum(r[2] for r in results),
            "calib_ms": 1000 * statistics.median(calib_wall),
            "layers": layers,
            "seconds": time.perf_counter() - pass_start,
        })
        upcoming = max(p["seconds"] for p in passes[-2:])
        enough = len(passes) >= (4 if args.trace else 2)
        if enough and time.perf_counter() - start + upcoming > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    details = {
        "passes": len(passes),
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall"], 4) for p in passes],
        "pass_calibration_ms": [round(p["calib_ms"], 4) for p in passes],
    }
    if not args.trace:
        jobs_ms = [1000 * w for p in plain for w in p["jobs"]]
        details["job_samples"] = len(jobs_ms)
        metrics = {
            "wall_s": (statistics.median(p["wall"] for p in plain), "s"),
            "cpu_s": (statistics.median(p["cpu"] for p in plain), "s"),
            "job_p50_ms": (percentile(jobs_ms, 50), "ms"),
            "job_p90_ms": (percentile(jobs_ms, 90), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return metrics, details, attempted, failed

    summaries = [p["layers"] for p in passes if p["traced"]]
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        values = [s[name] for s in summaries]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                failed += 1
                checker.problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = (values[0], unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall"] for p in passes if p["traced"])
        / statistics.median(p["wall"] for p in plain),
        "ratio",
    )
    metrics["client.failed_ratio"] = (failed / attempted, "ratio")
    details["base"] = {
        "calls": "per pass of the job list",
        "analysis.probes_per_degree": "min_coverage calls made under reconstruction_degree"
        " per reconstruction_degree call",
        "total_s/self_s": "median over traced passes, reference-CPU seconds",
        "client.failed_ratio": "failed job samples per job sample attempted",
    }
    return metrics, details, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "frcodes", "__init__.py")):
        print(f"error: no frcodes package under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }
    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    cwd = os.getcwd()
    try:
        setup, setup_raw = time_setup(args.workload, args.seed, work)
        workload = WORKLOADS[args.workload](args.seed)
        checker = Checker(workload, digests)
        os.chdir(work)  # job argv names files relative to the work directory
        metrics, details, attempted, failed = measure(args, workload, checker)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
    details["setup_s_samples"] = [round(s, 4) for s in setup]
    details["setup_raw_s_samples"] = [round(s, 4) for s in setup_raw]
    meta["loadavg_end"] = os.getloadavg()
    meta.update(details)
    for problem in checker.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
