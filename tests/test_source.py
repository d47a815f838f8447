"""Source-level rules for the package itself."""

from __future__ import annotations

import ast
from pathlib import Path

import frcodes

SOURCES = sorted(Path(frcodes.__file__).parent.glob("*.py"))


def breaches(rule) -> list[str]:
    """file:line of every syntax node of the package that rule flags."""
    assert SOURCES
    return [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if rule(node)
    ]


def lines_of(module: str, functions: set[str]) -> set[str]:
    """file:line of every line of the named functions of one module."""
    path = Path(frcodes.__file__).with_name(module)
    return {
        f"{module}:{line}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and node.name in functions
        for line in range(node.lineno, node.end_lineno + 1)
    }


def calls_to(*names):
    """A rule flagging every call of one of names, as a name or an attribute."""
    return lambda node: isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)
    ) in names


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so none may carry behaviour.
    found = breaches(lambda node: isinstance(node, ast.Assert))
    assert not found, found


def test_no_indented_json_dumps_in_package():
    # Indented output goes through constructions._json_text, not json's
    # pure-Python indent path.
    found = breaches(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
    )
    assert not found, found


def test_no_tuple_of_a_generator_in_package():
    # tuple() of a generator grows the tuple to its length instead of
    # taking one of that size off CPython's free list, yet returns it to
    # that list when freed; only a full collection empties the lists, so
    # a long-running caller's memory would grow with every such tuple.
    found = breaches(
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "tuple"
        and any(isinstance(arg, ast.GeneratorExp) for arg in node.args)
    )
    assert not found, found


def test_codes_are_frozen_only_in_core():
    # make_code and _freeze check every code before it is constructed,
    # and only core seeds a cached property by writing __dict__.
    def constructs_or_seeds(node):
        if isinstance(node, ast.Call):
            return getattr(node.func, "id", getattr(node.func, "attr", None)) == "FrCode"
        return isinstance(node, ast.Attribute) and node.attr == "__dict__"

    found = [site for site in breaches(constructs_or_seeds) if not site.startswith("core.py:")]
    assert not found, found


def test_files_are_opened_only_by_the_file_helpers():
    # constructions._read_file and _write_file turn OSError into toolkit
    # errors, so a reader or writer that skipped them could end in a
    # traceback.
    helpers = lines_of("constructions.py", {"_read_file", "_write_file"})
    found = breaches(calls_to("open"))
    assert found
    outside = [site for site in found if site not in helpers]
    assert not outside, outside


def test_raise_messages_show_parameters_only_through_the_formatter():
    # errors._shown abbreviates an int too long for str(), which would
    # otherwise raise ValueError while a toolkit error's message is
    # built. So an f-string in a raise reads a parameter of its function
    # only through it; the breach is reported at the function's line.
    def unshown(func):
        args = func.args
        params = {
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
            if arg is not None
        }
        return [
            part
            for raised in ast.walk(func)
            if isinstance(raised, ast.Raise) and raised.exc is not None
            for part in ast.walk(raised.exc)
            if isinstance(part, ast.FormattedValue)
            and getattr(getattr(part.value, "func", None), "id", None) != "_shown"
            and any(isinstance(name, ast.Name) and name.id in params for name in ast.walk(part.value))
        ]

    found = breaches(lambda node: isinstance(node, ast.FunctionDef) and bool(unshown(node)))
    assert not found, found


def raise_template(node) -> tuple[str, str] | None:
    """(exception class, message with each replacement field blanked) of
    a raise of a call whose first argument is a string, else None."""
    if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args):
        return None
    message = node.exc.args[0]
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    if not all(isinstance(part, (ast.Constant, ast.FormattedValue)) for part in parts):
        return None
    text = "".join("{}" if isinstance(part, ast.FormattedValue) else str(part.value) for part in parts)
    return ast.unparse(node.exc.func), text


def test_each_error_is_raised_from_one_site():
    # A rule stated at two raise sites drifts: the copies come to check
    # different things or name different values. The type or helper
    # that owns the rule raises it, and other callers go through it.
    sites: dict[tuple[str, str], list[str]] = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            template = raise_template(node)
            if template is not None:
                sites.setdefault(template, []).append(f"{path.name}:{node.lineno}")
    assert len(sites) > 20
    shared = {template: found for template, found in sites.items() if len(found) > 1}
    assert not shared, shared


def test_the_walk_is_exhausted_only_by_min_coverage():
    # `*_, best = _smaller_unions(...)` runs the walk to its minimum,
    # which is min_coverage; any other caller should call it instead.
    owner = lines_of("analysis.py", {"min_coverage"})
    found = breaches(
        lambda node: isinstance(node, ast.Assign)
        and any(isinstance(part, ast.Starred) for part in ast.walk(node.targets[0]))
        and getattr(getattr(node.value, "func", None), "id", None) == "_smaller_unions"
    )
    assert found
    outside = [site for site in found if site not in owner]
    assert not outside, outside


def test_goodness_reports_are_built_only_by_their_builder():
    # analysis._goodness_report computes the bound's right side, margin
    # and verdicts, so no caller restates them.
    owner = lines_of("analysis.py", {"_goodness_report"})
    found = breaches(calls_to("GoodnessReport"))
    assert found
    outside = [site for site in found if site not in owner]
    assert not outside, outside


def test_sweeps_build_and_search_rings_only_in_their_grid_walk():
    # sweep._ring_degrees refuses a bad grid before any search and then
    # builds and searches each ring, so neither sweep walks a grid itself.
    owner = lines_of("sweep.py", {"_ring_degrees"})
    found = [
        site
        for site in breaches(calls_to("build_ring", "reconstruction_degree"))
        if site.startswith("sweep.py:")
    ]
    assert len(found) == 2
    outside = [site for site in found if site not in owner]
    assert not outside, outside


def test_repair_plans_are_built_only_by_finish_plan():
    # repair._finish_plan assigns each lost packet and counts helpers and
    # bandwidth, so both planners end in it.
    owner = lines_of("repair.py", {"_finish_plan"})
    found = breaches(calls_to("RepairPlan"))
    assert found
    outside = [site for site in found if site not in owner]
    assert not outside, outside


#: Exported names that nothing in the package calls: the paper's closed
#: forms and the listing relations the acceptance criteria check.
UNCALLED_EXPORTS = {
    "prg_margin",
    "ring_margin_case1",
    "ring_margin_case2",
    "restrict_rho",
    "audit_rhs_filter",
    "audit_dedup",
}


def test_every_export_is_used_by_the_package():
    # A public name that nothing in the package reads, as a name, an
    # attribute or a string (the CLI looks builders up by name), is a
    # helper nobody calls.
    init = Path(frcodes.__file__)
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    read = set()
    for path in SOURCES:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unused = sorted(exported - read - UNCALLED_EXPORTS)
    assert not unused, unused
    assert UNCALLED_EXPORTS <= exported - read
