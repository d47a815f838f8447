"""Command line front end.

Exit codes: 0 on success, 1 on failing verdicts or domain errors (the
error class name goes to stderr) or when the reader of stdout closed it
before the output was written (nothing goes to stderr), 2 on usage
errors, and 130 when interrupted (Ctrl-C, SIGINT): "interrupted" goes
to stderr in place of a KeyboardInterrupt traceback, a behaviour change
from earlier releases. Human-facing output labels nodes U_1..U_n and packets
P_1..P_theta (1-based); code files and --json output keep the 0-based
indices used in memory. --json output is the text json.dumps(result,
indent=2) gives, byte for byte, written by constructions._json_text;
audit-table --json prints one compact object per row instead. The
FRC_BUDGET environment variable (a positive integer) overrides the work
budget of each search, counted in steps (analysis.DEFAULT_BUDGET); a
search that passes it exits 1 with BudgetExceeded naming the search.

The argument parser is built on the first main call and reused; each
call parses into a fresh namespace, so main can be called repeatedly in
one process. Each command is registered once, by the call that routes
it and sets its handler, and the build keeps a table of the command's
arguments: the actions add_argument returned and the set_defaults
values. main looks the command words up and reads the rest of the line
in one pass over that table (_one_pass). A line that names no command,
or that holds any form the pass does not copy exactly (help and usage
errors among them), takes the full argparse parse, so help, errors and
exit codes are argparse's own.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

from . import analysis, constructions, repair, sweep
from .core import DEFAULT_THETA_CAP, check_identities, profile, single_deficit_shape
from .errors import FrcError, _int_phrase, _shown


def _literal_size(text: str) -> str | None:
    """How _shown names the int that text spells, if text is an int
    literal; None otherwise. int() refuses a literal with more digits
    than the interpreter converts, and its message would echo them."""
    literal = re.fullmatch(r"\s*([+-]?)\d+(?:_\d+)*\s*", text)
    return literal and _int_phrase(literal[1] == "-", sum(map(str.isdecimal, text)))


def _budget() -> int:
    raw = os.environ.get("FRC_BUDGET")
    if raw is None:
        return analysis.DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        size = _literal_size(raw)
        if size:
            raise FrcError(
                "FRC_BUDGET must be a positive integer of at most"
                f" {sys.get_int_max_str_digits():,} digits, got {size}"
            ) from None
        budget = 0
    if budget < 1:
        raise FrcError(f"FRC_BUDGET must be a positive integer, got {raw!r}")
    return budget


def _bound(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        size = _literal_size(text)
        if not size:
            raise
        raise ValueError(
            f"range bounds must be integers of at most {sys.get_int_max_str_digits():,}"
            f" digits, got {size}"
        ) from None


def _parse_range(text: str) -> list[int]:
    """Accept 'A..B' (inclusive, at most DEFAULT_THETA_CAP values) or a
    single integer."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = _bound(lo_text), _bound(hi_text)
        if hi < lo:
            raise ValueError(f"empty range {_shown(text)!r}")
        if hi - lo >= DEFAULT_THETA_CAP:
            raise ValueError(f"range {_shown(text)!r} spans more than {DEFAULT_THETA_CAP} values")
        return list(range(lo, hi + 1))
    return [_bound(text)]


def _node_label(i: int) -> str:
    return f"U_{i + 1}"


def _packet_labels(packets) -> str:
    return " ".join(f"P_{p + 1}" for p in packets)


# --- subcommand handlers ---------------------------------------------------


def _cmd_generate(args) -> int:
    spec = args.spec(*(getattr(args, f.name) for f in dataclasses.fields(args.spec)))
    # Looked up per call, so a wrapper patched onto the module is seen.
    code = getattr(constructions, args.builder)(spec)
    if args.output:
        constructions.export_code(code, args.output, fmt=args.format)
    if args.json:
        print(constructions._json_text(constructions.code_to_dict(code)))
    elif args.output:
        print(f"wrote {args.output}")
    else:
        prof = profile(code)
        print(f"n={code.n} theta={code.theta} alpha={prof.alpha} rho={prof.rho}")
        for i in range(code.n):
            print(f"  {_node_label(i)}: {_packet_labels(code.packets(i))}")
    return 0


def _cmd_analyze(args) -> int:
    code = constructions.import_code(args.code)
    budget = _budget()
    file_size = analysis._checked_file_size(code.theta, args.file_size)
    prof = profile(code)
    classification = check_identities(prof)
    cov = analysis.coverage_profile(code, budget=budget)
    # The reconstruction degree is the least k with M(k) >= file_size;
    # M(n) = theta, so there is one.
    k = next(k for k, value in enumerate(cov.values, start=1) if value >= file_size)
    if args.json:
        print(constructions._json_text(
            {
                "n": code.n,
                "theta": code.theta,
                "alpha": prof.alpha,
                "alpha_per_node": prof.alpha_per_node,
                "rho": prof.rho,
                "rho_per_packet": prof.rho_per_packet,
                "uniform_storage": prof.is_uniform_storage,
                "regular_replication": prof.is_regular_replication,
                "classification": classification,
                "min_coverage": cov.values,
                "witnesses": cov.witnesses,
                "file_size": file_size,
                "reconstruction_degree": k,
            }
        ))
        return 0
    print(f"n={code.n} theta={code.theta} alpha={prof.alpha} rho={prof.rho}")
    print(f"storage profile: {' '.join(str(a) for a in prof.alpha_per_node)}")
    print(f"classification: {classification}")
    print(" k  M(k)  witness")
    for k_i, (value, witness) in enumerate(zip(cov.values, cov.witnesses), start=1):
        names = " ".join(_node_label(i) for i in witness)
        print(f"{k_i:>2}  {value:>4}  {names}")
    print(f"reconstruction degree at M={file_size}: k={k}")
    return 0


def _cmd_goodness(args) -> int:
    code = constructions.import_code(args.code)
    budget = _budget()
    if args.structural:
        report = analysis.goodness_structural(code, weak=args.weak or None, budget=budget)
    else:
        prof = profile(code)
        k = analysis.reconstruction_degree(code, args.file_size, budget=budget)
        report = analysis.goodness_arithmetic(
            k, prof.alpha, code.theta,
            weak=args.weak or single_deficit_shape(prof), file_size=args.file_size,
        )
    if args.json:
        print(constructions._json_text(vars(report)))
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
        print(constructions._json_text({"plan": vars(plan), "greedy": vars(greedy)}))
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
        print(constructions._json_text({"rows": [row.to_dict() for row in rows]}))
    else:
        print("  n   k   d rho theta")
        for row in rows:
            print(f"{row.n:>3} {row.k:>3} {row.d:>3} {row.rho:>3} {row.theta:>5}")
        print(f"{len(rows)} rows")
        if args.output:
            print(f"wrote {args.output}")
    return 0


def _cmd_audit_table(args) -> int:
    if args.table and args.bundled:
        raise FrcError("pass a CSV path or --bundled NAME, not both")
    if args.bundled:
        rows = sweep.load_bundled_table(args.bundled)
        family = args.family or sweep.BUNDLED_TABLES[args.bundled]
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
        print(constructions._json_text(
            {
                "instances": [vars(f) for f in findings],
                "agree": agree,
                "disagree": len(findings) - agree,
            }
        ))
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


class _Leaf:
    """One command's parser and the table the one-pass parse reads: its
    arguments as add_argument returned them, and the namespace of a line
    that gives none of them (their defaults and the set_defaults values).
    The table holds store and store_true arguments, and each command
    takes at most one positional."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.options: dict[str, argparse.Action] = {}  # by option string
        self.positionals: list[argparse.Action] = []
        self.required: set[argparse.Action] = set()
        self.exclusive: set[argparse.Action] = set()  # at most one may be given
        self.defaults: dict[str, object] = {}

    def add(self, *names, group=None, **kwargs) -> None:
        """add_argument on the parser, or on group, its mutually exclusive
        group; the table records the argument."""
        action = (group or self.parser).add_argument(*names, **kwargs)
        self.options.update(dict.fromkeys(action.option_strings, action))
        if not action.option_strings:
            self.positionals.append(action)
        if action.required:
            self.required.add(action)
        if group is not None:
            self.exclusive.add(action)
        self.defaults[action.dest] = action.default

    def set_defaults(self, **values) -> None:
        self.parser.set_defaults(**values)
        self.defaults.update(values)


#: Each command's table, by the command words that reach it. Only
#: _build_parser writes it, so it holds the tables of the cached build.
_LEAVES: dict[tuple[str, ...], _Leaf] = {}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frc",
        description="Build, analyze, repair, and audit fractional repetition codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_leaf(subparsers, words, handler, **kwargs):
        # The namespace also carries the dests of the words that reach the
        # command, as the full parse sets them.
        leaf = _LEAVES[words] = _Leaf(subparsers.add_parser(words[-1], **kwargs))
        leaf.set_defaults(handler=handler, **dict(zip(("command", "family"), words)))
        return leaf

    gen = sub.add_parser("generate", help="build a code and print or save it")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for family, spec, builder, about in (
        ("prg", constructions.PrgSpec, "build_prg", "partial regular graph code (n, d odd)"),
        ("ring", constructions.RingSpec, "build_ring", "cyclic consecutive placement"),
        ("t", constructions.TSpec, "build_t_code", "shifted placement with step t+1"),
    ):
        p = add_leaf(gen_sub, ("generate", family), _cmd_generate, help=about)
        for field in dataclasses.fields(spec):
            p.add(f"--{field.name}", type=int, required=True)
        p.add("-o", "--output", help="write the code to this path")
        p.add(
            "--format",
            choices=[constructions.FORMAT_JSON, constructions.FORMAT_CSV_MATRIX],
            help="file format (default: by extension)",
        )
        p.set_defaults(spec=spec, builder=builder)

    ana = add_leaf(sub, ("analyze",), _cmd_analyze, help="profiles, coverage table, reconstruction degree")
    ana.add("code", help="code file (.json or .csv)")
    ana.add("--file-size", type=int, help="outer layer size M (default theta-1, at least 1)")

    good = add_leaf(sub, ("goodness",), _cmd_goodness, help="universal-goodness check")
    good.add("code")
    good.add("--weak", action="store_true", help="force the relaxed bound")
    # The structural check scans every k and takes no file size.
    point = good.parser.add_mutually_exclusive_group()
    good.add(
        "--structural",
        group=point,
        action="store_true",
        help="brute-force every k <= alpha instead of the point check",
    )
    good.add(
        "--file-size", group=point, type=int,
        help="point-check file size (default theta-1, at least 1)",
    )

    rep = add_leaf(sub, ("repair",), _cmd_repair, help="minimum-helper repair plan for one node")
    rep.add("code")
    rep.add("--fail", type=int, required=True, help="failed node, 1-based label")

    sw = sub.add_parser("sweep", help="regenerate ring parameter tables")
    sw_sub = sw.add_subparsers(dest="family", required=True)
    sw_ring = add_leaf(sw_sub, ("sweep", "ring"), _cmd_sweep)
    sw_ring.add("--n", required=True, help="range A..B or single value")
    sw_ring.add("--rho", required=True, help="range A..B or single value")
    sw_ring.add("--m", required=True, help="rounds range A..B or single value")
    sw_ring.add("-o", "--output", help="write rows as CSV")

    aud = add_leaf(sub, ("audit-table",), _cmd_audit_table, help="arithmetic re-check of a parameter table")
    aud.add("table", nargs="?", help="CSV path (header n,k,d,rho,theta[,t])")
    aud.add("--family", choices=[sweep.FAMILY_RING, sweep.FAMILY_T])
    aud.add(
        "--bundled",
        choices=sorted(sweep.BUNDLED_TABLES),
        help="audit a bundled reference table instead of a file",
    )

    conj = add_leaf(
        sub, ("conjecture",), _cmd_conjecture,
        help="compare brute force against the heterogeneous-ring formula",
    )
    conj.add("--n", required=True, help="range A..B or single value")
    conj.add("--rho", required=True, help="range A..B or single value")

    for leaf in _LEAVES.values():  # last, so each help lists it after the leaf's own
        leaf.add("--json", action="store_true", help="machine-readable output")
    return parser


def _one_pass(argv: list[str]) -> argparse.Namespace | None:
    """The namespace the full parse gives argv, read in one pass over the
    table of the command it names; None for a line that names no command
    or has any form the pass does not copy exactly.

    The pass reads exact option strings, one value after each option that
    takes one, switches, positionals in order, choices and type
    conversions; a repeated option keeps its last value, as in argparse.
    It declines any other word that starts with "-" (help, "--", "="
    joins, abbreviations, and values or positionals that start with "-"),
    a word past the positionals, a missing required argument, both
    arguments of the exclusive group and a failed conversion."""
    words = tuple(argv[:1]) if tuple(argv[:1]) in _LEAVES else tuple(argv[:2])
    leaf = _LEAVES.get(words)
    if leaf is None:
        return None
    values = dict(leaf.defaults)
    given = set()
    positionals = iter(leaf.positionals)
    rest = iter(argv[len(words):])
    for word in rest:
        action = leaf.options.get(word) if word.startswith("-") else next(positionals, None)
        if action is None:
            return None
        given.add(action)
        if action.nargs == 0:  # a switch
            values[action.dest] = action.const
            continue
        if action.option_strings:
            word = next(rest, "-")  # no value declines as a "-" one does
            if word.startswith("-"):
                return None
        try:
            value = word if action.type is None else action.type(word)
        except ValueError:
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not leaf.required <= given or len(leaf.exclusive & given) > 1:
        return None
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = _one_pass(argv)
    if args is None:  # help, errors and unusual forms: argparse's own
        args = parser.parse_args(argv)  # argparse exits 2 on usage errors
    try:
        rc = args.handler(args)
        sys.stdout.flush()  # a reader that left early shows here, not at exit
        return rc
    except BrokenPipeError:
        # The failed write leaves its bytes buffered, and the flush at
        # interpreter exit would raise again; point stdout at devnull.
        constructions._write_file(
            os.devnull, lambda fh: os.dup2(fh.fileno(), sys.stdout.fileno())
        )
        return 1
    except ValueError as exc:  # bad range syntax and similar argument shapes
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FrcError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C; 130 is the shell's code for SIGINT
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
