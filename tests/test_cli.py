from __future__ import annotations

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import frcodes
from frcodes import RingSpec, build_ring, export_code, import_code, make_code
from frcodes.cli import main


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


def test_audit_usage_errors(capsys, tmp_path):
    rc, _, err = run(capsys, "audit-table")
    assert rc == 1 and err.startswith("FrcError:")
    path = tmp_path / "rows.csv"
    path.write_text("n,k,d,rho,theta\n6,5,4,2,12\n")
    rc, _, err = run(capsys, "audit-table", str(path))
    assert rc == 1 and "--family" in err


# --- conjecture -------------------------------------------------------------


def test_conjecture_command(capsys):
    rc, out, _ = run(capsys, "conjecture", "--n", "9", "--rho", "3")
    assert rc == 0
    assert out.rstrip().splitlines()[-1] == "23/23 instances agree with the conjecture"


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


def test_budget_env_override(capsys, ring_file, monkeypatch):
    monkeypatch.setenv("FRC_BUDGET", "2")
    rc, _, err = run(capsys, "analyze", ring_file)
    assert rc == 1
    assert err.startswith("BudgetExceeded:")


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
