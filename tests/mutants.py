"""A mutation gate: every listed one-line mutant must fail the test suite.

Each mutant replaces one exact text in one file under src/.  The runner
copies src/, tests/, pyproject.toml and README.md (whose examples a test
runs) to a temporary directory and checks that the unmutated copy passes.
Then it applies each mutant to a fresh copy and runs pytest there.  A
mutant is killed only when pytest exits 1 (tests failed); a collection
error or a crash does not count.  Exits non-zero when a mutant survives or
its text is not found exactly once.

Run from anywhere, with the test dependencies installed and the package
itself not installed, so that the copy under test is the one imported:

    python tests/mutants.py

A change that adds a check adds the mutant that check kills.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]

# (file, old, new, reason)
MUTANTS = [
    ("src/overlap_ecc/manifest.py",
     '"outputs": dict(sorted(self.outputs.items())),',
     '"outputs": dict(self.outputs),',
     "a manifest lists its outputs in sorted order"),
    ("src/overlap_ecc/cli.py",
     "if e_min < 0 or e_max < e_min:",
     "if e_max < e_min:",
     "--errors -3..10 is refused before any row is skipped"),
    ("src/overlap_ecc/cli.py",
     'max(2, *(max(a).bit_length() for a in layers))',
     'max(max(a).bit_length() for a in layers)',
     "a maps file's address 1 is refused for itself, not for k = 1"),
    ("src/overlap_ecc/injection.py",
     "(0 if mirror and differ else ci, 1)",
     "(ci, 1)",
     "a mirrored ci_j flip lands alone when co_j and ci_j differ"),
    ("src/overlap_ecc/code.py",
     "        walk.update(h << (k + 1) | a << 1 | 1 for a in self.inner for h in halves)\n",
     "",
     "the repair walk visits every odd inner half holding an inner address"),
    ("src/overlap_ecc/code.py",
     "for po in (0, 1)",
     "for po in (0,)",
     "the repair walk visits pair keys under an odd outer parity too"),
    ("src/overlap_ecc/injection.py",
     "corrected=sum(check_part[e].values()) + _meet(repairs, check_part, e),",
     "corrected=_meet(repairs, check_part, e),",
     "a check part alone is corrected unless repairs[0] takes its syndrome back"),
    ("src/overlap_ecc/reliability.py",
     "    n, sigma = params.n, params.sigma\n"
     "    return miss_at(ReliabilityParams(n, params.lam, (1.0,) * sigma + (0.0,) * (n - sigma)), t)",
     "    blank = ReliabilityParams(params.n, params.lam, (0.0,) * params.sigma)\n"
     "    return reliability_at(blank, t) - math.exp(-params.lam * t * params.n)",
     "uncharged sums the tail past sigma, not 1 - sum P_i - P_0, which cancels below 0"),
    ("src/overlap_ecc/injection.py",
     "from .code import Codestruct, OverlapConfig, encode\n",
     "from . import _sweep_py\nfrom .code import Codestruct, OverlapConfig, encode\n",
     "no command imports the enumeration reference kernel"),
    ("src/overlap_ecc/cli.py",
     "    def error(self, message):\n        raise ValueError(message)\n",
     "",
     "a usage error exits 1, where argparse alone would exit 2"),
    ("src/overlap_ecc/cli.py",
     'self._negative_number_matcher = re.compile(r"-\\d")',
     "pass",
     "--errors -3..10 reaches its own check, not argparse's 'expected one argument'"),
    ("src/overlap_ecc/cli.py",
     'seed=getattr(args, "seed", None)',
     "seed=None",
     "a search manifest records its seed"),
    ("src/overlap_ecc/cli.py",
     "return EXIT_OK if report.ok else EXIT_INVALID",
     "return EXIT_OK",
     "verify-maps exits 2 on colliding maps"),
    ("src/overlap_ecc/code.py",
     "_BUILTIN.get(name.lower())",
     "_BUILTIN.get(name)",
     "a builtin's name is case-blind"),
    ("src/overlap_ecc/scalability.py",
     "_BASELINES.get(side, ())",
     "()",
     "each size through 7x7 lists Matrix, PBD and CLC"),
]


def _copy(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(cwd: Path) -> int:
    # drop PYTHONPATH, so only the copy's src/ (pyproject's pythonpath) is imported
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(PYTEST, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        start = time.perf_counter()
        code = _pytest(clean)
        print(f"{'clean' if code == 0 else 'FAILING':8} unmutated suite exits {code} "
              f"({time.perf_counter() - start:.1f} s)")
        if code != 0:
            return 1
        failures = 0
        for i, (file, old, new, reason) in enumerate(MUTANTS):
            copy = Path(tmp) / f"m{i}"
            _copy(copy)
            text = (copy / file).read_text()
            if text.count(old) != 1:
                print(f"MISSING  {file}: the old text occurs {text.count(old)} times ({reason})")
                failures += 1
                continue
            (copy / file).write_text(text.replace(old, new))
            start = time.perf_counter()
            code = _pytest(copy)
            failures += code != 1
            print(f"{'killed' if code == 1 else 'SURVIVED':8} {file}: {reason} "
                  f"(pytest exits {code}, {time.perf_counter() - start:.1f} s)")
            shutil.rmtree(copy)
    return 1 if failures else 0

if __name__ == "__main__":
    sys.exit(main())
