"""End-to-end CLI behavior: outputs, exit codes, manifests, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from overlap_ecc import cli


def run(capsys, *args):
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- encode / decode ---------------------------------------------------------

def test_encode_worked_example(capsys):
    code, out, _ = run(capsys, "encode", "--code", "3x3", "--data", "100000000")
    doc = json.loads(out)
    assert code == 0
    assert (doc["co"], doc["po"], doc["ci"], doc["pi"]) == ("1011", "0", "1001", "1")
    assert doc["hex"] == "805a6"
    assert doc["schema"] == "overlap-ecc/codestruct/1"


def test_encode_zero_payload(capsys):
    code, out, _ = run(capsys, "encode", "--code", "3x3", "--data", "0" * 9)
    assert code == 0
    assert json.loads(out)["hex"] == "0" * 5


def test_encode_length_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "encode", "--code", "2x2", "--data", "10101")
    assert code == 1
    assert "4 bits" in err


def test_decode_round_trip_with_double_error(capsys):
    code, out, _ = run(capsys, "encode", "--code", "4x4", "--data",
                       "1100101001011110")
    word = json.loads(out)
    bits = list(word["data"] + word["co"] + word["po"] + word["ci"] + word["pi"])
    bits[2] = "01"[bits[2] == "0"]
    bits[9] = "01"[bits[9] == "0"]
    broken = "".join(f"{int(''.join(bits[i:i+4]).ljust(4, '0'), 2):x}"
                     for i in range(0, len(bits), 4))
    code2, out2, _ = run(capsys, "decode", "--code", "4x4", "--hex", broken)
    doc = json.loads(out2)
    assert code2 == 0
    assert doc["detected"] is True
    assert doc["action"] == "double_pair"
    assert doc["data"] == word["data"]


def test_decode_rejects_bad_hex(capsys):
    code, _, err = run(capsys, "decode", "--code", "2x2", "--hex", "zzz")
    assert code == 1


# --- sweep ---------------------------------------------------------------------

def test_sweep_single_cell(capsys):
    code, out, _ = run(capsys, "sweep", "--code", "3x3", "--region", "check",
                       "--errors", "8")
    assert code == 0
    assert out.splitlines()[1] == "3x3,check,8,45,34,45,75.56,100.00"


def test_sweep_range_and_region_alias(capsys):
    code, out, _ = run(capsys, "sweep", "--code", "4x4", "--region", "all",
                       "--errors", "1..6")
    rows = out.strip().splitlines()[1:]
    assert code == 0 and len(rows) == 6
    assert rows[0].startswith("4x4,codestruct,1,28,28,28,100.00")


def test_sweep_skips_infeasible_rows_with_warning(capsys):
    code, out, err = run(capsys, "sweep", "--code", "2x2", "--region", "data",
                         "--errors", "1..8")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4  # header + e=1..4
    assert "skipping weights 5..8" in err


def test_sweep_all_runs_the_full_matrix(capsys):
    code, out, err = run(capsys, "sweep", "--all")
    rows = out.strip().splitlines()[1:]
    assert code == 0
    assert len(rows) == 68  # 72 cells minus the four infeasible 2x2 data rows
    assert sum("warning" in line for line in err.splitlines()) == 1
    # the golden report: every count of the paper's table
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "f439648241b7d67b3d8239fc68107b71a919c3f3c6cd9fdce20bd66695c8696f"


def test_sweep_json_format(capsys):
    code, out, _ = run(capsys, "sweep", "--code", "2x2", "--region", "data",
                       "--errors", "1..2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == "overlap-ecc/sweep/1"
    assert [r["correction_rate"] for r in doc["reports"]] == [100.0, 100.0]


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_sweep_output_identical_for_any_worker_count(capsys, workers):
    code, out, _ = run(capsys, "sweep", "--code", "3x3", "--region", "all",
                       "--errors", "1..6", "--workers", workers)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    code2, out2, _ = run(capsys, "sweep", "--code", "3x3", "--region", "all",
                         "--errors", "1..6", "--workers", "1")
    assert digest == hashlib.sha256(out2.encode()).hexdigest()


def test_sweep_usage_errors(capsys):
    assert run(capsys, "sweep")[0] == 1
    assert run(capsys, "sweep", "--code", "2x2", "--errors", "two")[0] == 1
    assert run(capsys, "sweep", "--code", "2x2", "--errors", "4..2")[0] == 1
    assert run(capsys, "sweep", "--code", "2x2", "--region", "nowhere")[0] == 1
    assert run(capsys, "sweep", "--code", "2x2", "--workers", "0")[0] == 1


# --- search / verify-maps -----------------------------------------------------

def test_search_emits_valid_assignment(capsys):
    code, out, _ = run(capsys, "search", "--m", "16", "--k", "5", "--seed", "0")
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == "overlap-ecc/assignment/1"
    assert len(doc["outer"]) == len(doc["inner"]) == 16
    from overlap_ecc.search import validate_assignment
    assert validate_assignment(doc["outer"], doc["inner"]).ok


def test_search_not_found_exits_3(capsys, monkeypatch):
    from overlap_ecc.search import SearchNotFoundError

    def exhausted(m, k=None, seed=0):
        raise SearchNotFoundError(m, k or 4, explored=4242)

    monkeypatch.setattr(cli, "search_assignment", exhausted)
    code, _, err = run(capsys, "search", "--m", "9")
    assert code == 3
    assert "4242" in err


def test_search_impossible_pool_is_usage_error(capsys):
    code, _, err = run(capsys, "search", "--m", "12", "--k", "4")
    assert code == 1
    assert "11" in err  # pool size named in the message


def test_verify_builtin_ok(capsys):
    code, out, _ = run(capsys, "verify-maps", "--builtin", "3x3")
    assert code == 0
    assert "ok" in out and "36 unique composite keys" in out


def test_verify_collision_exits_2(capsys, tmp_path):
    bad = tmp_path / "maps.json"
    addrs = [3, 5, 6, 7, 9, 10, 11, 12, 13]
    bad.write_text(json.dumps({"outer": addrs, "inner": addrs}))
    code, out, _ = run(capsys, "verify-maps", "--file", str(bad))
    assert code == 2
    assert "collision" in out
    assert "share key" in out


def test_verify_file_reads_search_output(capsys, tmp_path):
    code, out, _ = run(capsys, "search", "--m", "9", "--k", "5")
    assert code == 0
    doc = json.loads(out)
    with_k = tmp_path / "with_k.json"
    with_k.write_text(out)
    without_k = tmp_path / "without_k.json"
    without_k.write_text(json.dumps({"outer": doc["outer"], "inner": doc["inner"]}))
    for path in (with_k, without_k):
        code, out, _ = run(capsys, "verify-maps", "--file", str(path))
        assert code == 0
        assert out.startswith("ok:") and "36 unique composite keys" in out


@pytest.mark.parametrize("text", [
    '{"outer": [1, 2, 4, 8], "inner": [8, 1, 2, 4]}',  # powers of two
    '{"outer": [3, 5, 6], "inner": [5, 6, 3], "k": 2}',  # k too small
    '{"outer": [3, 5, 6], "inner": [5, 6, 3], "k": 99}',
    '{"outer": [3, 5, 1099511627776], "inner": [5, 6, 3]}',  # needs k = 41
    '{"outer": [3, 5, 6], "inner": [5, 6, 3], "k": "4"}',
    '{"outer": [3, 5, 6]}',
    '{"outer": [3, 5, "6"], "inner": [5, 6, 3]}',
    '{"outer": [3, 5, 6.0], "inner": [5, 6, 3]}',
    '{"outer": [3, 5, 6], "inner": 7}',
    '{"outer": [], "inner": []}',
    '{"outer": [3, 5, 6], "inner": [5, 6]}',
    '[3, 5, 6]',
    'not json',
])
def test_verify_file_rejects_malformed_maps(capsys, tmp_path, text):
    path = tmp_path / "maps.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify-maps", "--file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_verify_requires_exactly_one_source(capsys):
    assert run(capsys, "verify-maps")[0] == 1
    assert run(capsys, "verify-maps", "--builtin", "2x2", "--file",
               "nope.json")[0] == 1


# --- reliability / scalability ---------------------------------------------------

def test_reliability_defaults(capsys):
    code, out, _ = run(capsys, "reliability", "--code", "2x2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "t_days,reliability"
    assert len(lines) == 1 + 21 + 1  # header, samples, mttf
    final_r = float(lines[-2].split(",")[1])
    assert final_r > 0.60
    assert lines[-1].startswith("# mttf_days,")


def test_reliability_zero_horizon(capsys):
    code, out, _ = run(capsys, "reliability", "--code", "3x3", "--t-max", "0")
    assert code == 0
    assert out.strip().splitlines()[1] == "0,1.000000"


def test_reliability_rejects_bad_rates(capsys):
    assert run(capsys, "reliability", "--code", "2x2", "--lambda", "0")[0] == 1
    assert run(capsys, "reliability", "--code", "2x2", "--step", "-5")[0] == 1


def test_scalability_table(capsys):
    code, out, _ = run(capsys, "scalability", "--max", "7")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 1 + 24
    assert "5x5,25,overlapped,12,37,0.32" in lines
    assert run(capsys, "scalability", "--max", "1")[0] == 1


def test_scalability_beyond_baselines(capsys):
    code, out, _ = run(capsys, "scalability", "--max", "8")
    rows_8x8 = [l for l in out.strip().splitlines() if l.startswith("8x8")]
    assert code == 0
    assert rows_8x8 == ["8x8,64,overlapped,16,80,0.20"]


# --- manifests and determinism ---------------------------------------------------

def test_stdout_report_manifests_to_stderr(capsys):
    code, out, err = run(capsys, "scalability")
    man = json.loads(err)
    assert code == 0
    assert man["schema"] == "overlap-ecc/manifest/1"
    assert man["command"] == "scalability"
    assert man["outputs"]["stdout"] == hashlib.sha256(out.encode()).hexdigest()


def test_file_report_manifests_to_sibling(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "sweep", "--code", "2x2", "--region", "check",
                       "--errors", "1..8", "--out", out_path)
    assert code == 0 and out == ""
    text = out_path.read_text()
    man = json.loads((tmp_path / "report.csv.manifest.json").read_text())
    assert man["outputs"][str(out_path)] == hashlib.sha256(text.encode()).hexdigest()
    assert man["arguments"][0] == "sweep"


def test_repeated_runs_are_byte_identical(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "sweep", "--code", "3x3", "--region", "data",
                        "--errors", "1..6", "--injector", "mirror")
        outs.add(out)
    assert len(outs) == 1


def test_console_entry_point_runs():
    # the child imports the package under test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "overlap_ecc.cli", "scalability", "--max", "3"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "size,N,ecc,check_bits,total_bits,rc"
