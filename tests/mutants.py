"""Mutation check of the scoring contract's hand-derived bounds.

Each mutant loosens or drops one bound that a derivation in the source
justifies. For each, the script copies the repository to a temporary
directory, applies the one edit there, runs the tier-1 suite on the copy
and reports the mutant killed (some test failed) or survived (every test
passed). The working tree is never edited. Run from anywhere:

    python tests/mutants.py            # the whole tier-1 suite
    python tests/mutants.py tests/     # any pytest arguments instead

A survivor is a bound the suite cannot tell from a looser one. The exit
status is 1 when a mutant survives or no longer applies, else 0.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file, text, replacement): text must occur exactly once in file
MUTANTS = [
    (
        "_SLACK = 2**-52 (2u)",
        "src/mcrx/similarity.py",
        "_SLACK = 2.0**-48",
        "_SLACK = 2.0**-52",
    ),
    (
        "_SLACK = 2**-49 (16u, below the derived 17u)",
        "src/mcrx/similarity.py",
        "_SLACK = 2.0**-48",
        "_SLACK = 2.0**-49",
    ),
    ("_SLACK = 0", "src/mcrx/similarity.py", "_SLACK = 2.0**-48", "_SLACK = 0.0"),
    (
        "drop (1 - _SLACK) in _within_reach",
        "src/mcrx/similarity.py",
        "[-1] * (1 - _SLACK)",
        "[-1]",
    ),
    (
        "drop the midpoint x += 1 in _least_rounding_to",
        "src/mcrx/activation.py",
        "        x += 1\n",
        "        pass\n",
    ),
    (
        "drop collect's bound / scale overflow check",
        "src/mcrx/activation.py",
        "        try:\n            bound / scale\n        except OverflowError:\n"
        "            max(sums) / scale\n",
        "",
    ),
    (
        "drop _estimates' factor precondition",
        "src/mcrx/similarity.py",
        "if not (m == 0.0 or weight == 0.0 or (m >= floor and m * weight >= floor)):",
        "if False:",
    ),
    (
        "drop _estimates' range precondition",
        "src/mcrx/similarity.py",
        "if not (reverse <= _HUGE and low <= raw <= high):",
        "if False:",
    ),
]


def run_suite(tree: Path, pytest_args: list[str]) -> bool:
    """Whether the suite passes on tree; stops at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    completed = subprocess.run(
        [*command, "--continue-on-collection-errors", *pytest_args],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return completed.returncode == 0


def main(pytest_args: list[str]) -> int:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_*")
    with tempfile.TemporaryDirectory(prefix="mcrx-mutants-") as scratch:
        tree = Path(scratch, "tree")
        shutil.copytree(ROOT, tree, ignore=ignore)
        if not run_suite(tree, pytest_args):
            print("the unmutated copy fails its tests; no mutant was run")
            return 1
        survivors = []
        for name, relative, text, replacement in MUTANTS:
            path = tree / relative
            original = path.read_text("utf-8")
            if original.count(text) != 1:
                print(f"stale\t{name}\t(text not found once in {relative})")
                survivors.append(name)
                continue
            path.write_text(original.replace(text, replacement), "utf-8")
            try:
                killed = not run_suite(tree, pytest_args)
            finally:
                path.write_text(original, "utf-8")
            print(f"{'killed' if killed else 'SURVIVED'}\t{name}", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    for name in survivors:
        print(f"survivor\t{name}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
