"""Run manifests: the report checksum and what computing it loads."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

from overlap_ecc import manifest

# empty, ASCII, non-ASCII and 1 MB texts, with hashlib's digests of their UTF-8
TEXTS = ["", "sweep --all\n", "ε_i, σ = 8, 4×4 — ✓\n", "0123456789abcdef" * 65536]
WANT = [hashlib.sha256(text.encode("utf-8")).hexdigest() for text in TEXTS]


def _digests(sha256_text):
    return [sha256_text(text) for text in TEXTS]


def test_checksum_is_hashlibs_sha256():
    assert _digests(manifest.sha256_text) == WANT


def test_checksum_falls_back_to_hashlib(monkeypatch):
    # a build without the built-in SHA-256 modules takes hashlib's
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    try:
        importlib.reload(manifest)
        assert manifest.sha256 is hashlib.sha256
        assert _digests(manifest.sha256_text) == WANT
    finally:
        monkeypatch.undo()
        importlib.reload(manifest)
    assert manifest.sha256 is not hashlib.sha256
    assert _digests(manifest.sha256_text) == WANT


def test_outputs_are_listed_in_sorted_order():
    man = manifest.RunManifest(command="x", arguments=(), version="v",
                               outputs={"b": "2", "a": "1"})
    assert list(json.loads(man.to_json())["outputs"].items()) == [("a", "1"), ("b", "2")]


CHILD = """
import sys
from overlap_ecc import cli
for argv in [["--version"], ["encode", "--code", "2x2", "--data", "1011"],
             ["decode", "--code", "2x2", "--hex", "000"], ["sweep", "--code", "2x2"],
             ["search", "--m", "9"], ["verify-maps", "--builtin", "2x2"],
             ["reliability", "--code", "2x2"], ["scalability"]]:
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"{argv} exited {code}")
loaded = [name for name in sys.argv[1:] if name in sys.modules]
if loaded:
    sys.exit(f"a command loaded {', '.join(loaded)}")
"""


def _run_every_command(*unloaded):
    """Run every command in one fresh process, which then must not hold `unloaded`."""
    src = str(Path(manifest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", CHILD, *unloaded], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})


def test_no_command_loads_openssl():
    # hashlib maps OpenSSL's libcrypto into the process (about 3.6 MB of
    # peak memory); every command's manifest is computed without it
    proc = _run_every_command("_hashlib")
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_no_command_loads_the_reference_kernel_or_a_pool():
    # sweeps count in one process; only the tests and the benchmark read _sweep_py
    proc = _run_every_command("overlap_ecc._sweep_py", "concurrent.futures")
    assert proc.returncode == 0, proc.stderr[-2000:]
