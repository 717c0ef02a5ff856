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


# --- help / version -------------------------------------------------------------

def test_help_and_version_exit_0(capsys):
    code, out, err = run(capsys, "--help")
    assert code == 0 and err == ""
    assert "verify-maps" in out
    code, out, err = run(capsys, "--version")
    assert code == 0 and err == ""
    assert out == "overlap-ecc, version 0.1.0\n"


# --- golden reports ---------------------------------------------------------------
#
# Each row of golden_reports.txt is "<sha256>  <argv...>": the SHA-256 of the
# report that command prints to stdout.  CI checks the installed console
# script against the same rows.

GOLDEN_ROWS = Path(__file__).with_name("golden_reports.txt").read_text().splitlines()


@pytest.mark.parametrize("sha256, argv", [
    pytest.param(sha256, argv, id=" ".join(argv))
    for sha256, *argv in map(str.split, GOLDEN_ROWS)])
def test_report_is_golden(capsys, sha256, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


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
    assert code2 == 0
    assert out2 == _decode_report("4x4", "double_pair", [2, 9], word["data"])

    # one check-bit error (co[1]) on the same word: detected, data untouched
    assert word["hex"] == "ca5e120"
    code3, out3, _ = run(capsys, "decode", "--code", "4x4", "--hex", "ca5e520")
    assert code3 == 0
    assert out3 == _decode_report("4x4", "detected_only", [], word["data"])


def _decode_report(name, action, flipped, data):
    return json.dumps({
        "schema": "overlap-ecc/decode/1",
        "code": name,
        "detected": True,
        "action": action,
        "flipped_positions": flipped,
        "data": data,
    }, indent=2) + "\n"


def test_decode_rejects_bad_hex(capsys):
    code, _, err = run(capsys, "decode", "--code", "2x2", "--hex", "zzz")
    assert code == 1


@pytest.mark.parametrize("text", ["-01", "0x1", "1_2", "+ff", "\u0661\u0662\u0663"])
def test_decode_rejects_what_int_takes_but_is_not_hex(capsys, text):
    # each has the 3 digits a 2x2 word needs, and int(text, 16) parses it
    code, out, err = run(capsys, "decode", "--code", "2x2", f"--hex={text}")
    assert (code, out) == (1, "")
    assert err == f"error: not a hex string: {text!r}\n"


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


def test_sweep_region_is_a_case_blind_choice(capsys):
    # any case of a name; "all" is the whole codestruct
    code, out, _ = run(capsys, "sweep", "--code", "3x3", "--region", "codestruct")
    assert code == 0
    assert run(capsys, "sweep", "--code", "3x3", "--region", "ALL")[:2] == (0, out)
    code, out, _ = run(capsys, "sweep", "--code", "2x2", "--region", "Check", "--errors", "1")
    assert (code, out.splitlines()[1]) == (0, "2x2,check,1,8,8,8,100.00,100.00")
    for bad in ("headers", "check_bits", "nowhere", " data"):
        code, out, err = run(capsys, "sweep", "--code", "2x2", "--region", bad)
        assert (code, out) == (1, "")
        assert err.startswith("error: Invalid value for '--region'") and err.count("\n") == 1
    _, out, _ = run(capsys, "sweep", "--help")
    assert "[data|check|codestruct|all]" in out


def test_sweep_skips_infeasible_rows_with_warning(capsys):
    code, out, err = run(capsys, "sweep", "--code", "2x2", "--region", "data",
                         "--errors", "1..8")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 4  # header + e=1..4
    assert "skipping weights 5..8" in err
    # every weight past the region: no rows, one warning naming the range given
    for weights in ("5..6", "6..7"):
        code, out, err = run(capsys, "sweep", "--code", "2x2", "--region", "data",
                             "--errors", weights)
        assert code == 0
        assert len(out.strip().splitlines()) == 1  # header only
        assert f"warning: 2x2 data: skipping weights {weights}, region has only 4 bits" in err


def test_sweep_all_runs_the_full_matrix(capsys):
    code, out, err = run(capsys, "sweep", "--all")
    rows = out.strip().splitlines()[1:]
    assert code == 0
    assert len(rows) == 68  # 72 cells minus the four infeasible 2x2 data rows
    assert sum("warning" in line for line in err.splitlines()) == 1


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
    # --all fixes every cell, so it refuses the options that pick one
    for extra in (["--code", "2x2"], ["--region", "data"], ["--errors", "3"],
                  ["--code", "2x2", "--region", "data", "--errors", "3"]):
        code, out, err = run(capsys, "sweep", "--all", *extra)
        assert (code, out) == (1, "")
        assert err.startswith("error: --all sweeps every code") and err.count("\n") == 1


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


def test_search_rejects_k_past_the_bound(capsys):
    code, out, err = run(capsys, "search", "--m", "4", "--k", "17")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: k must be in [2, 16], got 17"]


def test_verify_builtin_ok(capsys):
    code, out, _ = run(capsys, "verify-maps", "--builtin", "3x3")
    assert code == 0
    assert "ok" in out and "36 unique composite keys" in out


def test_verify_collision_exits_2(capsys, tmp_path):
    bad = tmp_path / "maps.json"
    addrs = [3, 5, 6, 7, 9, 10, 11, 12, 13]
    bad.write_text(json.dumps({"outer": addrs, "inner": addrs}))
    code, out, err = run(capsys, "verify-maps", "--file", str(bad))
    assert code == 2
    assert "collision" in out
    assert "share key" in out
    # the report and its manifest still come out before the exit code
    man = json.loads(err)
    assert man["outputs"]["stdout"] == hashlib.sha256(out.encode()).hexdigest()


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
    for flag, value in [("--lambda", "0"), ("--step", "-5"), ("--t-max", "-1")]:
        code, out, err = run(capsys, "reliability", "--code", "2x2", flag, value)
        assert code == 1 and out == ""
        assert err.startswith(f"error: Invalid value for '{flag}'")
    # values click's ranges let through, which the model itself rejects
    for args, why in [(("--t-max", "inf"), "t_max must be finite"),
                      (("--t-max", "nan"), "t_max must be finite"),
                      (("--step", "nan"), "step must be finite"),
                      (("--lambda", "inf"), "lam must be finite"),
                      (("--step", "1e-300", "--t-max", "1"),
                       "t_max / step asks for 1e+300 samples")]:
        code, out, err = run(capsys, "reliability", "--code", "2x2", *args)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {why}"), (args, err)


def test_scalability_table(capsys):
    code, out, _ = run(capsys, "scalability", "--max", "7")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 1 + 24
    assert "5x5,25,overlapped,12,37,0.32" in lines
    code, out, err = run(capsys, "scalability", "--max", "1")
    assert code == 1 and out == ""
    assert err.startswith("error: Invalid value for '--max'")
    # 255x255 still fits k = 16; 256x256 would need k = 17, refused before any row
    code, out, _ = run(capsys, "scalability", "--max", "255")
    assert code == 0
    assert out.strip().splitlines()[-1] == "255x255,65025,overlapped,34,65059,0.00"
    code, out, err = run(capsys, "scalability", "--max", "256")
    assert code == 1 and out == ""
    assert err == "error: a 256x256 area needs k=17 check bits per layer; " \
        "the codec builds k <= 16\n"


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
