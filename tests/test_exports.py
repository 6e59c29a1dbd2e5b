"""The package's lazy export table, and the imports of its modules."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mcrx

SRC = str(Path(mcrx.__file__).resolve().parents[1])

CHECK = """
import importlib
import mcrx

for module, names in mcrx._EXPORTS.items():
    home = importlib.import_module(f"mcrx.{module}")
    for name in names:
        assert getattr(mcrx, name) is getattr(home, name), (module, name)
listed = [name for names in mcrx._EXPORTS.values() for name in names]
assert len(listed) == len(set(listed)), "a name listed under two modules"
namespace = {}
exec("from mcrx import *", namespace)
missing = set(mcrx.__all__) - set(namespace)
assert not missing, missing
for gone in ("run_pass", "ActivationPass", "self_activation"):
    assert gone not in mcrx.__all__ and not hasattr(mcrx, gone), gone
"""


def test_export_table_resolves_in_a_fresh_interpreter():
    # a fresh interpreter: nothing here has imported a submodule for the table
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    completed = subprocess.run(
        [sys.executable, "-c", CHECK], env=env, capture_output=True, text=True, timeout=60
    )
    assert completed.returncode == 0, completed.stderr


def test_modules_import_only_the_standard_library():
    # mcrx has no runtime dependencies: every absolute import is stdlib or mcrx;
    # each module also parses as Python 3.10, the oldest version supported
    foreign = []
    for path in sorted(Path(SRC, "mcrx").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "mcrx":
                    foreign.append(f"{path.name}: {name}")
    assert Path(SRC, "mcrx", "kb.py").is_file()
    assert not foreign, foreign



LAZY = """
import sys
import mcrx.cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("mcrx."))

assert "mcrx.scl" not in loaded() and "mcrx.seqdemo" not in loaded(), loaded()
assert mcrx.cli.main(["query", "--index", sys.argv[1], "--doc", sys.argv[2]]) == 0
assert "mcrx.scl" not in loaded() and "mcrx.seqdemo" not in loaded(), loaded()
"""


def test_cli_query_loads_neither_scl_nor_seqdemo(tmp_path):
    # the loop and the grid world load only for the commands that need
    # them: scl-demo, and query with --watch or --attention
    from mcrx.cli import main

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b c", encoding="utf-8")
    (corpus / "d2.txt").write_text("b c d", encoding="utf-8")
    index = tmp_path / "index"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    argv = [sys.executable, "-c", LAZY, str(index), str(corpus / "d1.txt")]
    completed = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert "d2" in completed.stdout
