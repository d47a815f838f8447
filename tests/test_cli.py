from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from importlib import resources
from itertools import combinations
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import frcodes
from frcodes import (
    FrcError,
    RingSpec,
    TableRow,
    analysis,
    build_ring,
    cli,
    constructions,
    core,
    errors,
    export_code,
    import_code,
    make_code,
    read_rows_csv,
    sweep,
)
from frcodes.cli import _build_parser, _parse_range, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def ring_file(tmp_path):
    path = tmp_path / "ring.json"
    export_code(build_ring(RingSpec(5, 5, 2)), str(path))
    return str(path)


@pytest.fixture
def bad_code_file(tmp_path):
    path = tmp_path / "bad.json"
    export_code(make_code(3, 3, [{0, 1}, {0, 1}, {2}]), str(path))
    return str(path)


@pytest.fixture
def blocks_file(tmp_path):
    """Twenty nodes, each with its own ten packets: every k-union is 10k,
    so no walk cuts a branch and coverage runs away near k = 10."""
    path = tmp_path / "blocks.json"
    export_code(make_code(20, 200, [range(10 * i, 10 * i + 10) for i in range(20)]), str(path))
    return str(path)


@pytest.fixture
def overlap_file(tmp_path):
    """Fifty such blocks, but the last one shifted down by two packets, so
    nodes 48 and 49 share two: the pairwise-overlap bound cannot settle
    goodness at k = 2, whose walk runs away."""
    path = tmp_path / "overlap.json"
    windows = [range(10 * i, 10 * i + 10) for i in range(49)] + [range(488, 498)]
    export_code(make_code(50, 498, windows), str(path))
    return str(path)


@pytest.fixture
def cover_file(tmp_path):
    """Node 0 holds the vertices of K_12 and each other node one edge, so
    repairing node 0 needs six helpers; the walk that finds them takes
    145 steps."""
    path = tmp_path / "cover.json"
    edges = [set(edge) for edge in combinations(range(12), 2)]
    export_code(make_code(67, 12, [range(12), *edges]), str(path))
    return str(path)


# --- generate ---------------------------------------------------------------


def test_generate_ring_listing(capsys):
    rc, out, _ = run(capsys, "generate", "ring", "--n", "5", "--theta", "5", "--rho", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "n=5 theta=5 alpha=2 rho=2"
    assert lines[1] == "  U_1: P_1 P_5"
    assert lines[5] == "  U_5: P_4 P_5"


def test_generate_prg_json(capsys):
    rc, out, _ = run(capsys, "generate", "prg", "--n", "5", "--d", "3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 5 and doc["theta"] == 7
    assert sorted(len(node) for node in doc["nodes"]) == [2, 3, 3, 3, 3]


def test_generate_to_file_round_trips(capsys, tmp_path):
    path = tmp_path / "prg.json"
    rc, out, _ = run(capsys, "generate", "prg", "--n", "7", "--d", "5", "-o", str(path))
    assert rc == 0
    assert out.strip() == f"wrote {path}"
    code = import_code(str(path))
    assert (code.n, code.theta) == (7, 17)


def test_generate_csv_matrix_output(capsys, tmp_path):
    path = tmp_path / "ring.csv"
    rc, _, _ = run(capsys, "generate", "ring", "--n", "5", "--theta", "5", "--rho", "2",
                   "-o", str(path))
    assert rc == 0
    assert import_code(str(path)) == build_ring(RingSpec(5, 5, 2))


def test_generate_format_overrides_the_extension(capsys, tmp_path):
    path = tmp_path / "code.txt"
    rc, out, _ = run(capsys, "generate", "ring", "--n", "5", "--theta", "5", "--rho", "2",
                     "-o", str(path), "--format", "json")
    assert rc == 0
    assert out.strip() == f"wrote {path}"
    code = build_ring(RingSpec(5, 5, 2))
    assert path.read_text() == constructions._json_text(constructions.code_to_dict(code)) + "\n"


def test_generate_calls_the_builder_bound_on_the_module(capsys, monkeypatch):
    # Wrappers patched onto constructions (as a tracer does) must see
    # every call, also with a parser built before the patch.
    run(capsys, "generate", "t", "--n", "7", "--d", "3", "--t", "1")
    calls = []
    build = constructions.build_t_code
    monkeypatch.setattr(constructions, "build_t_code", lambda spec: calls.append(spec) or build(spec))
    rc, out, _ = run(capsys, "generate", "t", "--n", "7", "--d", "3", "--t", "1")
    assert rc == 0 and out.startswith("n=7 theta=7 alpha=3 rho=3")
    assert calls == [constructions.TSpec(n=7, d=3, t=1)]


def test_generate_domain_error_exit_code(capsys):
    rc, _, err = run(capsys, "generate", "prg", "--n", "8", "--d", "3")
    assert rc == 1
    assert err.startswith("ParityError:")
    rc, _, err = run(capsys, "generate", "t", "--n", "4", "--d", "2", "--t", "3")
    assert rc == 1
    assert err.startswith("DegenerateOffsets:")


# --- analyze ----------------------------------------------------------------


def test_analyze_listing(capsys, ring_file):
    rc, out, _ = run(capsys, "analyze", ring_file)
    assert rc == 0
    assert "classification: uniform" in out
    assert "reconstruction degree at M=4: k=3" in out
    assert " 1     2  U_1" in out


def test_analyze_json(capsys, ring_file):
    rc, out, _ = run(capsys, "analyze", ring_file, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["min_coverage"] == [2, 3, 4, 5, 5]
    assert doc["reconstruction_degree"] == 3
    assert doc["witnesses"][0] == [0]
    assert doc["classification"] == "uniform"


def test_analyze_file_size_flag(capsys, ring_file):
    rc, out, _ = run(capsys, "analyze", ring_file, "--file-size", "5")
    assert rc == 0
    assert "reconstruction degree at M=5: k=4" in out


def test_one_packet_code_defaults_to_file_size_one(capsys, tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"n": 2, "theta": 1, "nodes": [[0], [0]]}')
    rc, out, _ = run(capsys, "analyze", str(path))
    assert rc == 0
    assert out.splitlines()[-1] == "reconstruction degree at M=1: k=1"
    rc, out, _ = run(capsys, "goodness", str(path))
    assert rc == 0
    assert "k=1 alpha=1 theta=1 M=1" in out
    rc, _, err = run(capsys, "analyze", str(path), "--file-size", "0")
    assert rc == 1
    assert err == "KOutOfRange: file size must be >= 1, got 0\n"


def test_analyze_reads_the_degree_off_the_profile(capsys, tmp_path, monkeypatch):
    code = make_code(4, 5, [{0, 1}, {1, 2}, {2, 3, 4}, {0}])
    path = tmp_path / "code.json"
    export_code(code, str(path))
    expected = [analysis.reconstruction_degree(code, m) for m in range(1, code.theta + 1)]
    monkeypatch.setattr(analysis, "reconstruction_degree", None)
    for m, k in enumerate(expected, start=1):
        rc, out, _ = run(capsys, "analyze", str(path), "--file-size", str(m))
        assert (rc, out.splitlines()[-1]) == (0, f"reconstruction degree at M={m}: k={k}")
    rc, _, err = run(capsys, "analyze", str(path), "--file-size", "6")
    assert (rc, err) == (1, "Unreachable: file size 6 exceeds theta=5\n")


def test_analyze_checks_the_file_size_before_the_search(capsys, blocks_file, monkeypatch):
    # The blocks code's profile runs away at this budget, so a file size
    # checked after it would be reported as BudgetExceeded.
    monkeypatch.setenv("FRC_BUDGET", "1000")
    rc, _, err = run(capsys, "analyze", blocks_file, "--file-size", "0")
    assert (rc, err) == (1, "KOutOfRange: file size must be >= 1, got 0\n")
    rc, _, err = run(capsys, "analyze", blocks_file, "--file-size", "201")
    assert (rc, err) == (1, "Unreachable: file size 201 exceeds theta=200\n")


def test_analyze_profiles_the_code_once(capsys, ring_file, monkeypatch):
    calls = []

    def counted(code, profile=core.profile):
        calls.append(code)
        return profile(code)

    for module in (core, cli, analysis, sweep):
        monkeypatch.setattr(module, "profile", counted)
    rc, out, _ = run(capsys, "analyze", ring_file)
    assert rc == 0 and "classification: uniform" in out
    assert len(calls) == 1


def test_analyze_answers_ring_30_30_5_at_the_default_budget(
    capsys, tmp_path, blocks_file, monkeypatch
):
    # The C(n, k) estimate refused both rings; the arc DP and first-hit
    # witness walks answer them in milliseconds.
    monkeypatch.delenv("FRC_BUDGET", raising=False)
    for n in (30, 60):
        path = tmp_path / f"ring-{n}.json"
        export_code(build_ring(RingSpec(n, n, 5)), str(path))
        rc, out, err = run(capsys, "analyze", str(path))
        assert (rc, err) == (0, "")
        assert out.splitlines()[-1] == f"reconstruction degree at M={n - 1}: k={n - 5}"
    # A walk that runs away is still refused, naming its k and the budget.
    monkeypatch.setenv("FRC_BUDGET", "1000")
    rc, out, err = run(capsys, "analyze", blocks_file)
    assert (rc, out) == (1, "")
    assert err == "BudgetExceeded: search at k=5 exceeds budget of 1000 steps\n"


def test_analyze_names_the_accepted_extensions(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("{}")
    rc, out, err = run(capsys, "analyze", str(path))
    assert (rc, out) == (1, "")
    assert err == (
        f"ParseError: cannot infer code format from {str(path)!r};"
        " expected a .json or .csv extension\n"
    )


# --- goodness ---------------------------------------------------------------


def test_goodness_pass(capsys, ring_file):
    rc, out, _ = run(capsys, "goodness", ring_file)
    assert rc == 0
    assert "arithmetic check (strict form)" in out
    assert out.rstrip().endswith("PASS")


def test_goodness_structural_pass_json(capsys, ring_file):
    rc, out, _ = run(capsys, "goodness", ring_file, "--structural", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == [
        "alpha", "theta", "k_evaluated", "file_size", "weak", "rhs",
        "rhs_positive", "margin", "verdict", "structural_verdict", "first_failing_k",
    ]
    assert doc["structural_verdict"] is True
    assert doc["first_failing_k"] is None


def test_goodness_structural_failure(capsys, bad_code_file):
    rc, out, _ = run(capsys, "goodness", bad_code_file, "--structural")
    assert rc == 1
    assert "first failing k: 1" in out
    assert out.rstrip().endswith("FAIL")


def test_goodness_wide_code_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "wide.json"
    export_code(make_code(1200, 2, [{0, 1}] * 1200), str(path))
    rc, out, err = run(capsys, "goodness", str(path))
    assert rc == 1
    assert out.splitlines()[-1] == "FAIL"
    assert err == ""


@pytest.mark.parametrize("file_size", ["0", "2", "99"])
def test_goodness_structural_takes_no_file_size(capsys, ring_file, file_size):
    with pytest.raises(SystemExit) as exc:
        main(["goodness", ring_file, "--structural", "--file-size", file_size])
    assert exc.value.code == 2
    assert "argument --file-size: not allowed with argument --structural" in capsys.readouterr().err


def test_goodness_weak_flag(capsys, ring_file):
    rc, out, _ = run(capsys, "goodness", ring_file, "--weak")
    assert rc == 0
    assert "weak form" in out


# --- repair -----------------------------------------------------------------


def test_repair_listing(capsys, ring_file):
    rc, out, _ = run(capsys, "repair", ring_file, "--fail", "1")
    assert rc == 0
    assert "failed node: U_1" in out
    assert "lost packets: P_1 P_5" in out
    assert "P_1 <- U_2" in out
    assert "P_5 <- U_5" in out
    assert "(repair degree 2, bandwidth 2)" in out
    assert "greedy baseline would contact 2 helpers" in out


def test_repair_json(capsys, ring_file):
    rc, out, _ = run(capsys, "repair", ring_file, "--fail", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["plan", "greedy"]
    for plan in doc.values():
        assert list(plan) == ["failed", "assignments", "helpers", "repair_degree", "bandwidth"]
    assert doc["plan"]["assignments"] == [[0, 1], [4, 4]]
    assert doc["plan"]["failed"] == 0
    assert doc["plan"]["helpers"] == [1, 4]
    assert doc["greedy"]["repair_degree"] == 2


def test_repair_fail_label_out_of_range(capsys, ring_file):
    for label in ("0", "6"):
        rc, _, err = run(capsys, "repair", ring_file, "--fail", label)
        assert rc == 1
        assert err.startswith("FrcError:")


# --- sweep ------------------------------------------------------------------


def test_sweep_matches_bundled_csv(capsys, tmp_path):
    path = tmp_path / "rho4.csv"
    rc, out, _ = run(capsys, "sweep", "ring", "--n", "10..16", "--rho", "4", "--m", "1",
                     "-o", str(path))
    assert rc == 0
    assert "7 rows" in out
    bundled = resources.files("frcodes").joinpath("data", "ring_rho4.csv").read_bytes()
    assert path.read_bytes() == bundled


def test_sweep_json(capsys):
    rc, out, _ = run(capsys, "sweep", "ring", "--n", "4..6", "--rho", "2", "--m", "1", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert all(row["provenance"] == "generated" for row in doc["rows"])
    assert {(r["n"], r["k"]) for r in doc["rows"]} == {(4, 2), (5, 3), (6, 4)}


@pytest.mark.parametrize(
    "n, rho, m, row",
    [("30", "3", "1", (30, 27, 3, 3, 30)), ("40", "2", "2", (40, 39, 4, 2, 80))],
)
def test_sweep_answers_rings_too_wide_for_the_node_scan(capsys, n, rho, m, row):
    rc, out, err = run(capsys, "sweep", "ring", "--n", n, "--rho", rho, "--m", m, "--json")
    assert (rc, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert [(r["n"], r["k"], r["d"], r["rho"], r["theta"]) for r in rows] == [row]


def test_sweep_bad_range(capsys):
    rc, _, err = run(capsys, "sweep", "ring", "--n", "9..3", "--rho", "2", "--m", "1")
    assert rc == 2
    assert err.startswith("usage error:")


# --- audit-table ------------------------------------------------------------


def test_audit_bundled_table(capsys):
    rc, out, _ = run(capsys, "audit-table", "--bundled", "t_rhs_positive")
    assert rc == 0
    assert out.rstrip().splitlines()[-1] == "71 rows, 0 failed checks"


def test_audit_bundled_json_lines(capsys):
    rc, out, _ = run(capsys, "audit-table", "--bundled", "ring_rho4", "--json")
    assert rc == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 7
    assert all(doc["passed"] for doc in docs)
    for doc in docs:
        assert list(doc) == [
            "index", "row", "identity_ok", "rhs", "rhs_positive", "margin",
            "margin_ok", "predicted_k", "predicted_k_ok", "duplicate_of", "passed",
        ]
        assert list(doc["row"]) == ["n", "k", "d", "rho", "theta", "provenance"]


def test_audit_csv_path(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("n,k,d,rho,theta\n6,5,4,2,12\n")
    rc, out, _ = run(capsys, "audit-table", str(path), "--family", "ring")
    assert rc == 0
    assert "1 rows, 0 failed checks" in out


def test_audit_flags_bad_row(capsys, tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("n,k,d,rho,theta\n6,4,4,2,12\n")
    rc, out, _ = run(capsys, "audit-table", str(path), "--family", "ring")
    assert rc == 1
    assert "FAIL" in out
    assert "predicted_k=5" in out


def test_audit_flags_a_ring_row_that_breaks_the_identity(capsys, tmp_path):
    # n * d = 30 but rho * theta = 24.
    path = tmp_path / "rows.csv"
    path.write_text("n,k,d,rho,theta\n6,5,5,2,12\n")
    rc, out, _ = run(capsys, "audit-table", str(path), "--family", "ring")
    assert rc == 1
    assert "(6, 5, 5, 2, 12) t=None FAIL  [identity" in out


def test_audit_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "audit-table")
    assert rc == 1 and err.startswith("FrcError:")
    path = tmp_path / "rows.csv"
    path.write_text("n,k,d,rho,theta\n6,5,4,2,12\n")
    rc, _, err = run(capsys, "audit-table", str(path))
    assert rc == 1 and "--family" in err


def test_audit_refuses_path_and_bundled_together(capsys, tmp_path):
    path = tmp_path / "mine.csv"
    path.write_text("n,k,d,rho,theta\n6,4,4,2,12\n")
    for extra in ((), ("--json",)):
        rc, out, err = run(capsys, "audit-table", str(path), "--bundled", "ring_rho2", *extra)
        assert (rc, out) == (1, "")
        assert err == "FrcError: pass a CSV path or --bundled NAME, not both\n"


def test_audit_row_above_the_cap_is_a_malformed_row(capsys, tmp_path):
    # The audit of a 4,000-digit k has numbers too long to print.
    path = tmp_path / "rows.csv"
    path.write_text(f"n,k,d,rho,theta\n5,{'9' * 4000},1,1,5\n")
    for extra in ((), ("--json",)):
        rc, out, err = run(capsys, "audit-table", str(path), "--family", "ring", *extra)
        assert (rc, out, err) == (1, "", "MalformedRow: k exceeds cap 4096\n")


VALID_HEADERS = ("n,k,d,rho,theta", "n,k,d,rho,theta,t", " n, k ,d,rho,theta,t ")
BAD_HEADERS = ("n,k,d,rho", "k,n,d,rho,theta", "n,k,d,rho,theta,t,x", "")
# Up to the interpreter's 4,300-digit limit on int() and str(); half
# of the draws are long enough that a product of two exceeds it.
DIGITS = st.builds(
    lambda digit, length: digit * length,
    st.sampled_from("0123456789"),
    st.one_of(st.integers(1, 4300), st.integers(2200, 4300)),
)
POSITIVE_FIELDS = st.one_of(st.integers(1, 40).map(str), DIGITS)
TABLE_FIELDS = st.one_of(
    POSITIVE_FIELDS,
    st.builds(
        "".join,
        st.tuples(
            st.sampled_from(["", " "]),
            st.sampled_from(["", "+", "-"]),
            st.one_of(st.integers(0, 40).map(str), DIGITS),
            st.sampled_from(["", " "]),
        ),
    ),
    st.sampled_from(["", " ", "x", "1.5", "0x1f", "1_0", "\u0661"]),
)
FRC_ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, FrcError)
}


@st.composite
def table_texts(draw):
    header = draw(st.one_of(st.sampled_from(VALID_HEADERS), st.sampled_from(BAD_HEADERS)))
    width = header.count(",") + 1
    record = st.one_of(
        st.lists(POSITIVE_FIELDS, min_size=width, max_size=width),
        st.lists(TABLE_FIELDS, min_size=width, max_size=width),
        st.lists(TABLE_FIELDS, max_size=8),
    )
    rows = draw(st.lists(record.map(",".join), max_size=4))
    return "\n".join([header, *rows]) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=table_texts(), family=st.sampled_from(["ring", "t"]))
def test_table_reader_and_audit_fuzz(text, family):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "rows.csv")
        Path(path).write_text(text, encoding="utf-8")
        try:
            rows = read_rows_csv(path)
        except FrcError:
            pass
        else:
            assert all(isinstance(row, TableRow) for row in rows)
        for extra in ((), ("--json",)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(["audit-table", path, "--family", family, *extra])
            assert rc in (0, 1)
            message = err.getvalue()
            if message:
                match = re.fullmatch(r"(\w+): [^\n]*\n", message)
                assert match and match.group(1) in FRC_ERRORS, message[:200]


RANGE_ENDS = st.one_of(
    st.integers(-10**5, 10**5).map(str),
    st.text(alphabet=" +-_.0123456789x", max_size=8),
    DIGITS,
)


@settings(max_examples=300)
@given(st.one_of(st.text(), st.builds("{}..{}".format, RANGE_ENDS, RANGE_ENDS)))
def test_parse_range_gives_consecutive_ints_or_value_error(text):
    try:
        values = _parse_range(text)
    except ValueError:
        return
    assert 1 <= len(values) <= 4096
    assert values == list(range(values[0], values[0] + len(values)))


def test_parse_range_of_one_value():
    assert _parse_range("5..5") == _parse_range("5") == [5]
    with pytest.raises(ValueError, match="^empty range '5..4'$"):
        _parse_range("5..4")


def test_range_bounds_past_the_digit_limit_name_their_size(capsys):
    # int() refuses a bound past the interpreter's digit limit with a
    # ValueError whose message names the limit's setter; the usage error
    # now gives the bound's size instead.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    nines = "9" * 5000
    try:
        for argv, size in (
            (("sweep", "ring", "--n", nines, "--rho", "2", "--m", "1"), "an int of 5,000 digits"),
            (("conjecture", "--n", f"4..{nines}", "--rho", "2"), "an int of 5,000 digits"),
            (("conjecture", f"--n=-{nines}..4", "--rho", "2"), "a negative int of 5,000 digits"),
            (("sweep", "ring", "--n", "5", "--rho", "1_" * 4400 + "0", "--m", "1"),
             "an int of 4,401 digits"),
        ):
            rc, out, err = run(capsys, *argv)
            assert (rc, out) == (2, "")
            assert err == (
                f"usage error: range bounds must be integers of at most 4,300 digits, got {size}\n"
            )
    finally:
        sys.set_int_max_str_digits(limit)


# --- conjecture -------------------------------------------------------------


def test_conjecture_command(capsys):
    rc, out, _ = run(capsys, "conjecture", "--n", "9", "--rho", "3")
    assert rc == 0
    assert out.rstrip().splitlines()[-1] == "23/23 instances agree with the conjecture"


def test_conjecture_answers_rings_too_wide_for_the_node_scan(capsys):
    rc, out, err = run(capsys, "conjecture", "--n", "30", "--rho", "3")
    assert (rc, err) == (0, "")
    assert out.rstrip().splitlines()[-1] == "86/86 instances agree with the conjecture"


def test_conjecture_json(capsys):
    rc, out, _ = run(capsys, "conjecture", "--n", "7", "--rho", "2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert list(doc) == ["instances", "agree", "disagree"]
    assert doc["instances"][0] == {
        "n": 7, "theta": 2, "rho": 2, "branch": "n_gt_theta",
        "predicted_k": 5, "brute_k": 5, "agree": True,
    }
    assert list(doc["instances"][0]) == [
        "n", "theta", "rho", "branch", "predicted_k", "brute_k", "agree",
    ]
    assert doc["agree"] + doc["disagree"] == len(doc["instances"])


# --- plumbing ---------------------------------------------------------------


def test_budget_env_override(capsys, blocks_file, overlap_file, cover_file, monkeypatch):
    monkeypatch.setenv("FRC_BUDGET", "50")
    for argv, search in (
        (("analyze", blocks_file), "search at k=3"),
        (("goodness", overlap_file, "--structural"), "search at k=2"),
        (("repair", cover_file, "--fail", "1"), "helper-set search for node 0"),
    ):
        rc, _, err = run(capsys, *argv)
        assert (rc, err) == (1, f"BudgetExceeded: {search} exceeds budget of 50 steps\n")


def test_budget_env_must_be_integer(capsys, ring_file, monkeypatch):
    for raw in ("lots", "0", "-5"):
        monkeypatch.setenv("FRC_BUDGET", raw)
        for argv in (("analyze", ring_file), ("repair", ring_file, "--fail", "1")):
            rc, _, err = run(capsys, *argv)
            assert rc == 1
            assert err.startswith("FrcError: FRC_BUDGET")


def test_budget_env_past_the_digit_limit_names_its_size(capsys, ring_file, monkeypatch):
    # int() refuses a well-formed integer past the interpreter's digit
    # limit with ValueError. The budget was then reported as no positive
    # integer, with every digit echoed; the message now gives its size.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for raw, size in (
            ("9" * 5000, "an int of 5,000 digits"),
            (f" -{'9' * 5000}\n", "a negative int of 5,000 digits"),
            ("1_" * 4400 + "0", "an int of 4,401 digits"),
        ):
            monkeypatch.setenv("FRC_BUDGET", raw)
            rc, out, err = run(capsys, "analyze", ring_file)
            assert (rc, out) == (1, "")
            assert err == (
                f"FrcError: FRC_BUDGET must be a positive integer of at most 4,300 digits,"
                f" got {size}\n"
            )
    finally:
        sys.set_int_max_str_digits(limit)


def test_budget_env_of_one_is_accepted(capsys, ring_file, monkeypatch):
    # Every lost packet of a rho = 2 ring has one other holder, so the
    # repair takes no walk and answers within one step.
    monkeypatch.setenv("FRC_BUDGET", "1")
    rc, out, err = run(capsys, "repair", ring_file, "--fail", "1")
    assert (rc, err) == (0, "")
    assert "repair degree 2" in out


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def leaf_commands(parser, words=()):
    """(command words, actions) of every command the parser runs, read
    off its own subparsers; help actions are left out."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from leaf_commands(sub, (*words, name))
            return
    yield words, [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


COMMANDS = list(leaf_commands(_build_parser()))
# Incomplete and unknown commands, which argparse refuses.
COMMANDS += [(("generate",), []), (("sweep",), []), (("frobnicate",), [])]
# Mostly values the commands take, so that most runs get past argparse.
INT_TEXTS = st.sampled_from(["1", "2", "3", "4", "5", "7", "0", "-1", "4097", "x"])
RANGE_TEXTS = st.sampled_from(["2..5", "3..6", "4", "3..3", "6..4", "0..2", "1..x", ""])


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory):
    """Paths the fuzzed commands read, and paths they write to: code and
    table files that read, files that do not, a missing file and a
    directory. Writes never touch a file that is read."""
    root = tmp_path_factory.mktemp("argv")
    export_code(build_ring(RingSpec(5, 5, 2)), str(root / "code.json"))
    export_code(make_code(4, 5, [{0, 1, 2}, {0, 3, 4}, {1, 3, 4}, {2}]), str(root / "code.csv"))
    (root / "table.csv").write_text("n,k,d,rho,theta\n5,3,2,2,5\n")
    (root / "bad.json").write_text('{"n": 2')
    (root / "bad.csv").write_text("1,x\n")
    (root / "dir.json").mkdir()
    reads = ["code.json", "code.csv", "table.csv", "bad.json", "bad.csv", "dir.json", "no.json"]
    writes = ["out.json", "out.csv", "out.txt", "dir.json", "no-dir/out.json"]
    return [str(root / name) for name in reads], [str(root / name) for name in writes]


@st.composite
def argvs(draw, paths):
    """A command line drawn from the parser's grammar: a command, then
    each of its arguments with a value of its kind, about one in eight
    left out."""
    reads, writes = paths
    words, actions = draw(st.sampled_from(COMMANDS))
    argv = list(words)
    for action in actions:
        if not draw(st.integers(0, 7)):
            continue
        argv += action.option_strings[-1:]
        if action.nargs == 0:  # a switch
            continue
        if action.choices:
            values = st.sampled_from([*action.choices, "bogus"])
        elif action.type is int:
            values = INT_TEXTS
        elif action.dest == "output":
            values = st.sampled_from(writes)
        elif action.dest in ("code", "table"):
            values = st.sampled_from(reads)
        else:
            values = RANGE_TEXTS
        argv.append(draw(values))
    return argv


@settings(max_examples=500, deadline=None)
@given(data=st.data(), budget=st.sampled_from([None, "1", "1000", "0", "abc"]))
def test_any_command_line_exits_0_1_or_2(argv_paths, data, budget):
    argv = data.draw(argvs(argv_paths))
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.dict(os.environ, {"FRC_BUDGET": budget or ""}),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        if budget is None:
            del os.environ["FRC_BUDGET"]
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
            assert rc == 2, (argv, err.getvalue())
    assert rc in (0, 1, 2), (argv, rc)


@st.composite
def mutated_argvs(draw, paths):
    """A command line of the grammar with up to two forms argparse reads
    beyond it: a word appended (an empty one and "-h" among them), "--"
    inserted, an option abbreviated, repeated or joined to the next word
    with "=", a value that starts with "-", or both of goodness's
    exclusive --structural and --file-size."""
    argv = draw(argvs(paths))
    for _ in range(draw(st.integers(0, 2))):
        form = draw(st.sampled_from(
            ["word", "--", "abbreviate", "join", "repeat", "dash", "exclusive"]
        ))
        options = [i for i, word in enumerate(argv) if word.startswith("--") and word != "--"]
        values = [i + 1 for i in options if i + 1 < len(argv) and not argv[i + 1].startswith("-")]
        if form == "word":
            argv.append(draw(st.sampled_from(["extra", "2", "--json", "--bogus", "-h", "-x", ""])))
        elif form == "--":
            argv.insert(draw(st.integers(0, len(argv))), "--")
        elif form == "exclusive":
            argv += ["--structural", "--file-size", "2"]
        elif form == "dash" and values:
            argv[draw(st.sampled_from(values))] = draw(st.sampled_from(["-1", "-", "-x", "--json"]))
        elif form == "join" and values:
            i = draw(st.sampled_from(values))
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
        elif options:
            i = draw(st.sampled_from(options))
            if form == "abbreviate":
                argv[i] = argv[i][: draw(st.integers(3, len(argv[i])))]
            elif form == "repeat":
                argv += argv[i : i + 1 + (i + 1 in values)]
    return argv


def full_parse_main(argv):
    """main with the whole command line parsed by the frc parser, as
    every level of it reads the arguments, then the handler."""
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except FrcError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def outcome(function, argv):
    """(rc, stdout, stderr) of function(argv), argparse's exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = function(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def outermost_parses():
    """Record the parser of every parse_known_args call made while open,
    except the calls a parser makes for its own commands."""
    calls, depth = [], [0]
    parse = argparse.ArgumentParser.parse_known_args

    def recording(self, args=None, namespace=None):
        if not depth[0]:
            calls.append(self)
        depth[0] += 1
        try:
            return parse(self, args, namespace)
        finally:
            depth[0] -= 1

    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", recording):
        yield calls


@contextlib.contextmanager
def received_namespaces():
    """Record the namespace of every command handler call made while open.
    The parser is built again around recording handlers, and cleared on
    exit so the next call builds it with the real ones."""
    received = []

    def recording(handler):
        def record(args):
            received.append(args)
            return handler(args)
        return record

    handlers = {name: recording(value) for name, value in vars(cli).items() if name.startswith("_cmd_")}
    _build_parser.cache_clear()
    try:
        with mock.patch.multiple(cli, **handlers):
            _build_parser()
        yield received
    finally:
        _build_parser.cache_clear()


def test_each_handler_receives_the_full_parse_namespace(argv_paths):
    @settings(max_examples=800, deadline=None)
    @given(data=st.data())
    def check(data):
        argv = data.draw(mutated_argvs(argv_paths))
        with mock.patch.dict(os.environ, {"FRC_BUDGET": "1000"}):
            received.clear()
            routed = outcome(main, argv)
            handled = received[:]
            assert routed == outcome(full_parse_main, argv), argv
        try:
            with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
                full = _build_parser().parse_args(argv)
        except SystemExit:
            assert handled == [], argv
            return
        assert [vars(args) for args in handled] == [vars(full)], argv

    with received_namespaces() as received:
        check()


def test_a_well_formed_command_line_takes_no_argparse_parse(ring_file):
    ring = ("generate", "ring", "--n", "5", "--theta", "5", "--rho", "2")
    for argv, progs in (
        # One command line for each of the nine commands.
        (("generate", "prg", "--n", "7", "--d", "3"), []),
        ((*ring, "--json"), []),
        (("generate", "t", "--n", "7", "--d", "3", "--t", "1"), []),
        (("analyze", ring_file), []),
        (("goodness", ring_file, "--structural"), []),
        (("repair", ring_file, "--fail", "1"), []),
        (("sweep", "ring", "--n", "5", "--rho", "2", "--m", "1"), []),
        (("audit-table", "--bundled", "ring_rho2"), []),
        (("conjecture", "--n", "4", "--rho", "2"), []),
        # A word left over takes the full parse, for its top-level error.
        (("analyze", ring_file, "extra"), ["frc"]),
        (("sweep", "bogus"), ["frc"]),
    ):
        with outermost_parses() as calls:
            outcome(main, list(argv))
        assert [parser.prog for parser in calls] == progs, argv


def benchmark_workloads():
    """perfbench/workloads.py, loaded by path."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while they are built.
    with mock.patch.dict(sys.modules, {spec.name: workloads}):
        spec.loader.exec_module(workloads)
    return workloads


def test_every_benchmark_command_line_is_read_in_one_pass():
    # The benchmark times these lines, so the pass must answer each one,
    # and answer as the full parse does.
    workloads = benchmark_workloads()
    argvs = {
        job.argv
        for name, workload in workloads.WORKLOADS.items()
        for job in (*workload(1).jobs, *workloads.all_fixed_jobs(name))
    }
    assert len(argvs) > 300
    parser = _build_parser()
    for argv in argvs:
        answer = cli._one_pass(list(argv))
        assert answer is not None, argv
        assert vars(answer) == vars(parser.parse_args(list(argv))), argv


def test_missing_code_file(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert rc == 1
    assert err.startswith("ParseError:")
    rc, _, err = run(capsys, "repair", str(tmp_path / "absent.csv"), "--fail", "1")
    assert rc == 1
    assert err.startswith("ParseError:")
    rc, _, err = run(capsys, "audit-table", str(tmp_path / "absent.csv"),
                     "--family", "ring")
    assert rc == 1
    assert err.startswith("ParseError:")


@pytest.mark.parametrize(
    "command, name",
    [
        (("generate", "ring", "--n", "5", "--theta", "5", "--rho", "2"), "missing/x.json"),
        (("generate", "prg", "--n", "7", "--d", "5"), "d.json"),
        (("sweep", "ring", "--n", "5", "--rho", "2", "--m", "1"), "missing/x.csv"),
    ],
    ids=["generate-missing-dir", "generate-onto-dir", "sweep-missing-dir"],
)
def test_unwritable_output_file(capsys, tmp_path, command, name):
    (tmp_path / "d.json").mkdir()
    path = tmp_path / name
    for extra in ((), ("--json",)):
        rc, out, err = run(capsys, *command, "-o", str(path), *extra)
        assert (rc, out) == (1, "")
        assert err.startswith(f"FrcError: {path}: ")


def test_undecodable_input_file(capsys, tmp_path):
    code = tmp_path / "b.json"
    code.write_bytes(b'\xff\xfe{"n": 1}')
    rc, out, err = run(capsys, "repair", str(code), "--fail", "1")
    assert (rc, out) == (1, "")
    assert err.startswith(f"ParseError: {code}: not valid UTF-8")
    table = tmp_path / "t.csv"
    table.write_bytes(b"\xff\xfen,k,d,rho,theta\n")
    rc, out, err = run(capsys, "audit-table", str(table), "--family", "ring")
    assert (rc, out) == (1, "")
    assert err.startswith(f"ParseError: {table}: not valid UTF-8")


def test_code_files_with_byte_order_mark(capsys, tmp_path, ring_file):
    expected = run(capsys, "analyze", ring_file)
    code = build_ring(RingSpec(5, 5, 2))
    for name in ("bom.json", "bom.csv"):
        path = tmp_path / name
        export_code(code, str(path))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(capsys, "analyze", str(path)) == expected


def test_deeply_nested_json_input(capsys, tmp_path):
    code = tmp_path / "deep.json"
    code.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, "repair", str(code), "--fail", "1")
    assert (rc, out) == (1, "")
    assert err.startswith(f"ParseError: {code}: not valid JSON (")


def test_huge_integer_in_json_file_is_a_content_error(capsys, tmp_path, ring_file):
    code = tmp_path / "huge.json"
    huge = "9" * 5000
    code.write_text('{"n": 2, "theta": 2, "nodes": [[0], [%s]]}' % huge)
    rc, out, err = run(capsys, "analyze", str(code))
    assert (rc, out) == (1, "")
    assert err.startswith(f"ParseError: {code}: not valid JSON (")
    # The same number as a command-line argument stays a usage error.
    for argv in (("repair", ring_file, "--fail", huge),
                 ("generate", "prg", "--n", huge, "--d", "3")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


def test_reused_parser_carries_no_state_between_calls(capsys, tmp_path, ring_file):
    written = str(tmp_path / "gen.json")
    ring = ("generate", "ring", "--n", "5", "--theta", "5", "--rho", "2")
    calls = [
        ("frobnicate",),
        ("repair", ring_file),  # --fail is required
        ("--help",),
        ("analyze", ring_file, "--file-size", "1"),
        ("analyze", ring_file, "extra"),  # left over: the full parse refuses it
        ("analyze", ring_file),
        (*ring, "-o", written),
        ring,
        ("repair", ring_file, "--fail", "2", "--json"),
        ("repair", ring_file, "--fail", "2"),
    ]

    def call(argv):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    _build_parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [2, 2, 0, 0, 2, 0, 0, 0, 0, 0]
    assert "frc: error: unrecognized arguments: extra" in shared[4][2]
    assert "reconstruction degree at M=4" in shared[5][1]
    assert shared[7][1].startswith("n=5 theta=5")
    assert not shared[9][1].startswith("{")


def test_generate_refuses_wide_code_at_once(capsys):
    rc, out, err = run(capsys, "generate", "ring", "--n", "3",
                       "--theta", "1000000000", "--rho", "2")
    assert (rc, out) == (1, "")
    assert err.startswith("BudgetExceeded: theta=1000000000 exceeds cap 4096")


# The child caps its own address space, so a command that starts to
# build something huge before it checks its arguments dies of
# MemoryError instead of exhausting the machine.
LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from frcodes.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_limited(*argv):
    """Run the CLI in a child process limited to 256 MiB of address space."""
    return subprocess.run(
        [sys.executable, "-c", LIMITED_MAIN, *argv],
        capture_output=True,
        text=True,
        cwd=Path(frcodes.__file__).parent.parent,
        timeout=60,
    )


def test_generate_refuses_ring_with_too_many_nodes_at_once():
    proc = run_limited("generate", "ring", "--n", "2000000", "--theta", "5", "--rho", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "BudgetExceeded: n=2000000 exceeds cap 4096\n"


def test_conjecture_refuses_n_past_the_cap_before_listing_thetas():
    # The theta rule would list about 3 * 10^8 values before build_ring
    # refused n.
    proc = run_limited("conjecture", "--n", "100000000", "--rho", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "BudgetExceeded: n=100000000 exceeds cap 4096\n"


@pytest.mark.parametrize("n", ["1400", "4..1400"])
def test_conjecture_refuses_thetas_past_the_cap_before_any_search(n):
    # From n = 1366 on the theta rule lists 4097 > the cap, which
    # build_ring refuses; the refusal comes before the searches of every
    # smaller theta and n, which would take minutes.
    proc = run_limited("conjecture", "--n", n, "--rho", "2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "BudgetExceeded: theta=4097 exceeds cap 4096\n"


def test_sweep_refuses_thetas_past_the_cap_before_any_search():
    # At m = 3 the rings pass the cap from n = 1366 on; the searches of
    # the smaller n would take seconds before build_ring refused.
    proc = run_limited("sweep", "ring", "--n", "1000..1400", "--rho", "2", "--m", "3")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "BudgetExceeded: theta=4098 exceeds cap 4096\n"


def test_ranges_wider_than_the_cap_are_usage_errors():
    for argv in (
        ("sweep", "ring", "--n", "1..1000000000", "--rho", "2", "--m", "1"),
        ("conjecture", "--n", "5", "--rho", "1..1000000000"),
    ):
        proc = run_limited(*argv)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("usage error: range '1..1000000000' spans more than 4096")


def test_range_of_exactly_the_cap_is_accepted(capsys):
    rc, out, _ = run(capsys, "sweep", "ring", "--n", "3", "--rho", "1..4096", "--m", "1")
    assert rc == 0 and out.endswith("1 rows\n")
    rc, _, err = run(capsys, "sweep", "ring", "--n", "3", "--rho", "1..4097", "--m", "1")
    assert rc == 2 and err.startswith("usage error: range '1..4097'")


@pytest.mark.parametrize(
    "argv",
    [
        ("generate", "ring", "--n", "6", "--theta", "9", "--rho", "2", "--json"),
        ("sweep", "ring", "--n", "4..40", "--rho", "2..4", "--m", "1..3", "--json"),
    ],
    ids=["generate", "sweep"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(argv, unbuffered):
    # A buffered stdout keeps the bytes of the failed write, which the
    # flush at interpreter exit tries again; PYTHONUNBUFFERED hides that.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # the reader left before anything was written
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "frcodes", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(frcodes.__file__).parent.parent,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_ctrl_c_exits_130_with_one_line_and_no_traceback(capsys, monkeypatch, ring_file):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(analysis, "reconstruction_degree", interrupted)
    assert run(capsys, "goodness", ring_file) == (130, "", "interrupted\n")


def test_sigint_during_a_search_exits_130_without_a_traceback(tmp_path):
    # goodness on ring(60,90,3) at M = 45 scans k past 30 and runs away;
    # at this budget it would search for minutes, so the signal sent
    # after the import lands inside the search.
    path = tmp_path / "ring60.json"
    export_code(build_ring(RingSpec(60, 90, 3)), str(path))
    proc = subprocess.Popen(
        [sys.executable, "-m", "frcodes", "goodness", str(path), "--file-size", "45"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=Path(frcodes.__file__).parent.parent,
        env={**os.environ, "FRC_BUDGET": str(10**9)},
    )
    try:
        time.sleep(2)
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert (proc.returncode, out, err) == (130, "", "interrupted\n")


def test_module_entry_point():
    # Run from the directory holding the package, so that the child finds
    # it whether or not PYTHONPATH names src/.
    proc = subprocess.run(
        [sys.executable, "-m", "frcodes", "--help"],
        capture_output=True,
        text=True,
        cwd=Path(frcodes.__file__).parent.parent,
    )
    assert proc.returncode == 0
    assert "audit-table" in proc.stdout


def test_entry_point_reads_the_command_line_from_sys_argv(capsys, ring_file):
    # `python -m frcodes` and `frc` call main() with no argv, so it reads
    # sys.argv; the answers match main(argv) in process.
    for argv in (
        ("sweep", "ring", "--n", "5", "--rho", "2", "--m", "1", "--json"),
        ("analyze", ring_file, "--fil", "2"),
    ):
        expected = run(capsys, *argv)
        assert expected[0] == 0
        with mock.patch.object(sys, "argv", ["frc", *argv]):
            rc = main()
        assert (rc, *capsys.readouterr()) == expected
        proc = subprocess.run(
            [sys.executable, "-m", "frcodes", *argv],
            capture_output=True,
            text=True,
            cwd=Path(frcodes.__file__).parent.parent,
            timeout=60,
        )
        assert (proc.returncode, proc.stdout) == expected[:2]


# --- JSON text ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Pair:
    first: object
    second: object


class Flagged(int):
    """An int whose vars is a flat record, {"flag": True}."""

    def __init__(self, value):
        self.flag = True


# Any code point, lone surrogates too, with the characters json escapes
# drawn often.
JSON_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\n\té 𐏿\U0001f600'),
    )
)
JSON_INTS = st.one_of(st.integers(-300, 300), st.integers(-(10**80), 10**80))
# Flat records, which the writer encodes a list of at once: the keys and
# strings draw often what its one replace looks for between records.
RECORD_TEXT = st.one_of(JSON_TEXT, st.sampled_from(["},", "},\n      {", '"', "\n", "é", "\U0001f600"]))
RECORD_SCALARS = st.one_of(st.none(), st.booleans(), JSON_INTS, RECORD_TEXT)
FLAT_RECORDS = st.dictionaries(RECORD_TEXT, RECORD_SCALARS, max_size=4)
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
        # The writer's shortcuts: plain ints, and non-empty lists of them.
        st.lists(st.one_of(JSON_INTS, st.booleans()), max_size=4),
        st.lists(st.lists(JSON_INTS, max_size=3).map(tuple), max_size=4),
        st.lists(FLAT_RECORDS, max_size=4),
        st.lists(FLAT_RECORDS, max_size=4).map(tuple),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_json_dumps_byte_for_byte(value):
    assert constructions._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        [0, 2.0],
        {"a": float("nan")},
        {1: 2},
        {"a": {None: 0}},
        Pair(1, {True: 0}),
        [{"a": 1}, {"b": 2.5}],
        (Pair(1, "x"), Pair(0.5, None)),
        [{"a": 1}, {None: 0}],
        [Flagged(1), Flagged(2)],
        Pair(1, "x"),
        {"plan": Pair(0, None)},
    ],
)
def test_json_text_refuses_floats_and_keys_that_are_not_str(value):
    with pytest.raises(TypeError):
        constructions._json_text(value)


def test_code_files_are_json_dumps_byte_for_byte(tmp_path):
    from test_cli_parity import _codes

    for name, code in _codes():
        path = tmp_path / f"{name}.json"
        export_code(code, str(path))
        expected = json.dumps(constructions.code_to_dict(code), indent=2) + "\n"
        assert path.read_bytes() == expected.encode(), name
