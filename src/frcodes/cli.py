"""Command line front end.

Exit codes: 0 on success, 1 on failing verdicts or domain errors (the
error class name goes to stderr), 2 on usage errors. Human-facing
output labels nodes U_1..U_n and packets P_1..P_theta (1-based); code
files and --json output keep the 0-based indices used in memory. The
FRC_BUDGET environment variable (a positive integer) overrides the
enumeration budget.

The argument parser is built on the first main call and reused; each
call parses into a fresh namespace, so main can be called repeatedly in
one process.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from . import analysis, constructions, repair, sweep
from .core import DEFAULT_THETA_CAP, check_identities, profile, single_deficit_shape
from .errors import FrcError


def _budget() -> int:
    raw = os.environ.get("FRC_BUDGET")
    if raw is None:
        return analysis.DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise FrcError(f"FRC_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _parse_range(text: str) -> list[int]:
    """Accept 'A..B' (inclusive, at most DEFAULT_THETA_CAP values) or a
    single integer."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        if hi - lo >= DEFAULT_THETA_CAP:
            raise ValueError(f"range {text!r} spans more than {DEFAULT_THETA_CAP} values")
        return list(range(lo, hi + 1))
    return [int(text)]


def _print_json(obj) -> None:
    """Dataclass results serialize as their fields, in declaration order."""
    print(json.dumps(obj, indent=2, default=vars))


def _node_label(i: int) -> str:
    return f"U_{i + 1}"


def _packet_labels(packets) -> str:
    return " ".join(f"P_{p + 1}" for p in packets)


def _show_code(code, as_json: bool) -> None:
    if as_json:
        _print_json(constructions.code_to_dict(code))
        return
    prof = profile(code)
    print(f"n={code.n} theta={code.theta} alpha={prof.alpha} rho={prof.rho}")
    for i in range(code.n):
        print(f"  {_node_label(i)}: {_packet_labels(code.packets(i))}")


# --- subcommand handlers ---------------------------------------------------


def _cmd_generate(args) -> int:
    spec = args.spec(*(getattr(args, f.name) for f in dataclasses.fields(args.spec)))
    # Looked up per call, so a wrapper patched onto the module is seen.
    code = getattr(constructions, args.builder)(spec)
    if args.output:
        constructions.export_code(code, args.output, fmt=args.format)
        if not args.json:
            print(f"wrote {args.output}")
        else:
            _show_code(code, as_json=True)
    else:
        _show_code(code, as_json=args.json)
    return 0


def _cmd_analyze(args) -> int:
    code = constructions.import_code(args.code)
    budget = _budget()
    prof = profile(code)
    identities = check_identities(code)
    cov = analysis.coverage_profile(code, budget=budget)
    file_size = (
        analysis.default_file_size(code.theta) if args.file_size is None else args.file_size
    )
    k = analysis.reconstruction_degree(code, file_size, budget=budget)
    if args.json:
        _print_json(
            {
                "n": code.n,
                "theta": code.theta,
                "alpha": prof.alpha,
                "alpha_per_node": list(prof.alpha_per_node),
                "rho": prof.rho,
                "rho_per_packet": list(prof.rho_per_packet),
                "uniform_storage": prof.is_uniform_storage,
                "regular_replication": prof.is_regular_replication,
                "classification": identities.classification,
                "min_coverage": list(cov.values),
                "witnesses": [list(w) for w in cov.witnesses],
                "file_size": file_size,
                "reconstruction_degree": k,
            }
        )
        return 0
    print(f"n={code.n} theta={code.theta} alpha={prof.alpha} rho={prof.rho}")
    print(f"storage profile: {' '.join(str(a) for a in prof.alpha_per_node)}")
    print(f"classification: {identities.classification}")
    print(" k  M(k)  witness")
    for k_i, (value, witness) in enumerate(zip(cov.values, cov.witnesses), start=1):
        names = " ".join(_node_label(i) for i in witness)
        print(f"{k_i:>2}  {value:>4}  {names}")
    print(f"reconstruction degree at M={file_size}: k={k}")
    return 0


def _cmd_goodness(args) -> int:
    code = constructions.import_code(args.code)
    budget = _budget()
    weak = True if args.weak else None
    if args.structural:
        report = analysis.goodness_structural(code, weak=weak, budget=budget)
    else:
        prof = profile(code)
        if weak is None:
            weak = single_deficit_shape(prof)
        k = analysis.reconstruction_degree(code, args.file_size, budget=budget)
        report = analysis.goodness_arithmetic(
            k, prof.alpha, code.theta, weak=weak, file_size=args.file_size
        )
    if args.json:
        _print_json(report)
    else:
        form = "weak" if report.weak else "strict"
        mode = "structural" if args.structural else "arithmetic"
        print(
            f"{mode} check ({form} form): k={report.k_evaluated}"
            f" alpha={report.alpha} theta={report.theta} M={report.file_size}"
        )
        print(f"rhs={report.rhs} margin={report.margin}")
        if args.structural and report.first_failing_k is not None:
            print(f"first failing k: {report.first_failing_k}")
        print("PASS" if report.verdict else "FAIL")
    return 0 if report.verdict else 1


def _cmd_repair(args) -> int:
    code = constructions.import_code(args.code)
    failed = args.fail - 1  # 1-based on the command line, like the display
    if not 1 <= args.fail <= code.n:
        raise FrcError(f"--fail must be in [1, {code.n}] (1-based node label)")
    plan = repair.plan_repair(code, failed, budget=_budget())
    greedy = repair.plan_repair_greedy(code, failed)
    if args.json:
        _print_json({"plan": plan, "greedy": greedy})
        return 0
    print(f"failed node: {_node_label(failed)}")
    print(f"lost packets: {_packet_labels(code.packets(failed))}")
    for packet, helper in plan.assignments:
        print(f"  P_{packet + 1} <- {_node_label(helper)}")
    print(
        f"helpers: {' '.join(_node_label(h) for h in plan.helpers)}"
        f" (repair degree {plan.repair_degree}, bandwidth {plan.bandwidth})"
    )
    print(f"greedy baseline would contact {greedy.repair_degree} helpers")
    return 0


def _cmd_sweep(args) -> int:
    rows = sweep.sweep_ring(
        _parse_range(args.n), _parse_range(args.rho), _parse_range(args.m),
        budget=_budget(),
    )
    if args.output:
        sweep.write_rows_csv(rows, args.output)
    if args.json:
        _print_json({"rows": [row.to_dict() for row in rows]})
    else:
        print("  n   k   d rho theta")
        for row in rows:
            print(f"{row.n:>3} {row.k:>3} {row.d:>3} {row.rho:>3} {row.theta:>5}")
        print(f"{len(rows)} rows")
        if args.output:
            print(f"wrote {args.output}")
    return 0


def _cmd_audit_table(args) -> int:
    if args.bundled:
        rows = sweep.load_bundled_table(args.bundled)
        family = args.family or sweep.bundled_table_family(args.bundled)
    else:
        if not args.table:
            raise FrcError("pass a CSV path or --bundled NAME")
        if not args.family:
            raise FrcError("--family is required for CSV paths")
        rows = sweep.read_rows_csv(args.table)
        family = args.family
    findings = sweep.audit_table(rows, family)
    failures = [f for f in findings if not f.passed]
    if args.json:
        for finding in findings:
            print(json.dumps(finding.to_dict()))
    else:
        for f in findings:
            flags = []
            if not f.identity_ok:
                flags.append("identity")
            if not f.margin_ok:
                flags.append("margin")
            if f.predicted_k_ok is False:
                flags.append(f"predicted_k={f.predicted_k}")
            if not f.rhs_positive:
                flags.append(f"rhs={f.rhs}")
            if f.duplicate_of is not None:
                flags.append(f"dup_of={f.duplicate_of}")
            state = "ok" if f.passed else "FAIL"
            note = f"  [{', '.join(flags)}]" if flags else ""
            print(f"{f.index:>3} {f.row.params_key()} t={f.row.t} {state}{note}")
        print(f"{len(findings)} rows, {len(failures)} failed checks")
    return 1 if failures else 0


def _cmd_conjecture(args) -> int:
    findings = sweep.conjecture_harness(
        _parse_range(args.n), _parse_range(args.rho), budget=_budget()
    )
    agree = sum(1 for f in findings if f.agree)
    if args.json:
        _print_json(
            {
                "instances": findings,
                "agree": agree,
                "disagree": len(findings) - agree,
            }
        )
        return 0
    for f in findings:
        mark = "=" if f.agree else "!"
        print(
            f"n={f.n} theta={f.theta} rho={f.rho} {f.branch}:"
            f" predicted {f.predicted_k} brute {f.brute_k} {mark}"
        )
    print(f"{agree}/{len(findings)} instances agree with the conjecture")
    return 0


# --- parser ----------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frc",
        description="Build, analyze, repair, and audit fractional repetition codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    gen = sub.add_parser("generate", help="build a code and print or save it")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for family, spec, builder, about in (
        ("prg", constructions.PrgSpec, "build_prg", "partial regular graph code (n, d odd)"),
        ("ring", constructions.RingSpec, "build_ring", "cyclic consecutive placement"),
        ("t", constructions.TSpec, "build_t_code", "shifted placement with step t+1"),
    ):
        p = gen_sub.add_parser(family, help=about)
        for field in dataclasses.fields(spec):
            p.add_argument(f"--{field.name}", type=int, required=True)
        p.add_argument("-o", "--output", help="write the code to this path")
        p.add_argument(
            "--format",
            choices=[constructions.FORMAT_JSON, constructions.FORMAT_CSV_MATRIX],
            help="file format (default: by extension)",
        )
        add_json(p)
        p.set_defaults(handler=_cmd_generate, spec=spec, builder=builder)

    ana = sub.add_parser("analyze", help="profiles, coverage table, reconstruction degree")
    ana.add_argument("code", help="code file (.json or .csv)")
    ana.add_argument(
        "--file-size", type=int, help="outer layer size M (default theta-1, at least 1)"
    )
    add_json(ana)
    ana.set_defaults(handler=_cmd_analyze)

    good = sub.add_parser("goodness", help="universal-goodness check")
    good.add_argument("code")
    good.add_argument("--weak", action="store_true", help="force the relaxed bound")
    good.add_argument(
        "--structural",
        action="store_true",
        help="brute-force every k <= alpha instead of the point check",
    )
    good.add_argument(
        "--file-size", type=int, help="point-check file size (default theta-1, at least 1)"
    )
    add_json(good)
    good.set_defaults(handler=_cmd_goodness)

    rep = sub.add_parser("repair", help="minimum-helper repair plan for one node")
    rep.add_argument("code")
    rep.add_argument("--fail", type=int, required=True, help="failed node, 1-based label")
    add_json(rep)
    rep.set_defaults(handler=_cmd_repair)

    sw = sub.add_parser("sweep", help="regenerate ring parameter tables")
    sw_sub = sw.add_subparsers(dest="family", required=True)
    sw_ring = sw_sub.add_parser("ring")
    sw_ring.add_argument("--n", required=True, help="range A..B or single value")
    sw_ring.add_argument("--rho", required=True, help="range A..B or single value")
    sw_ring.add_argument("--m", required=True, help="rounds range A..B or single value")
    sw_ring.add_argument("-o", "--output", help="write rows as CSV")
    add_json(sw_ring)
    sw_ring.set_defaults(handler=_cmd_sweep)

    aud = sub.add_parser("audit-table", help="arithmetic re-check of a parameter table")
    aud.add_argument("table", nargs="?", help="CSV path (header n,k,d,rho,theta[,t])")
    aud.add_argument("--family", choices=[sweep.FAMILY_RING, sweep.FAMILY_T])
    aud.add_argument(
        "--bundled",
        choices=sorted(sweep.BUNDLED_TABLES),
        help="audit a bundled reference table instead of a file",
    )
    add_json(aud)
    aud.set_defaults(handler=_cmd_audit_table)

    conj = sub.add_parser(
        "conjecture", help="compare brute force against the heterogeneous-ring formula"
    )
    conj.add_argument("--n", required=True, help="range A..B or single value")
    conj.add_argument("--rho", required=True, help="range A..B or single value")
    add_json(conj)
    conj.set_defaults(handler=_cmd_conjecture)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        return args.handler(args)
    except ValueError as exc:  # bad range syntax and similar argument shapes
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FrcError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
