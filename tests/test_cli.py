from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import frcodes
from frcodes import (
    FrcError,
    RingSpec,
    TableRow,
    analysis,
    build_ring,
    constructions,
    errors,
    export_code,
    import_code,
    make_code,
    read_rows_csv,
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
    repairing node 0 needs six helpers and the walk over fewer runs away."""
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


def test_analyze_checks_the_budget_before_the_file_size(capsys, blocks_file, monkeypatch):
    monkeypatch.setenv("FRC_BUDGET", "1000")
    rc, _, err = run(capsys, "analyze", blocks_file, "--file-size", "0")
    assert (rc, err) == (1, "BudgetExceeded: search at k=5 exceeds budget of 1000 steps\n")


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


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
    assert [rc for rc, _, _ in shared] == [2, 2, 0, 0, 0, 0, 0, 0, 0]
    assert "reconstruction degree at M=4" in shared[4][1]
    assert shared[6][1].startswith("n=5 theta=5")
    assert not shared[8][1].startswith("{")


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


# --- JSON text ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Pair:
    first: object
    second: object


# Any code point, lone surrogates too, with the characters json escapes
# drawn often.
JSON_TEXT = st.text(
    st.one_of(
        st.characters(exclude_categories=()),
        st.sampled_from('"\\/\x00\x1f\x7f\n\té 𐏿\U0001f600'),
    )
)
JSON_INTS = st.one_of(st.integers(-300, 300), st.integers(-(10**80), 10**80))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), JSON_INTS, JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_TEXT, inner, max_size=4),
        st.builds(Pair, inner, inner),
        # The writer's shortcuts: plain ints, and non-empty lists of them.
        st.lists(st.one_of(JSON_INTS, st.booleans()), max_size=4),
        st.lists(st.lists(JSON_INTS, max_size=3).map(tuple), max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_json_dumps_byte_for_byte(value):
    assert constructions._json_text(value) == json.dumps(value, indent=2, default=vars)


@pytest.mark.parametrize(
    "value", [1.5, [0, 2.0], {"a": float("nan")}, {1: 2}, {"a": {None: 0}}, Pair(1, {True: 0})]
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
