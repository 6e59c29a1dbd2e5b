"""The package's lazy export table, and the imports of its modules."""

import ast
import json
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


def test_only_textfile_opens_or_decodes_files():
    # one reader decides what ends a line and which line holds a bad byte
    calls = []
    for path in sorted(Path(SRC, "mcrx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "decode", "read_text", "read_bytes"):
                    calls.append(f"{path.name}:{node.lineno}: {name}")
    assert calls and all(call.startswith("textfile.py:") for call in calls), calls


def attribute_sites(*names):
    """file:line of each attribute named one of names in an mcrx module."""
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(SRC, "mcrx").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in names
    ]


def test_only_kb_reads_or_writes_word_weights():
    # every reader asks KnowledgeBase.weights, which is current after any insert
    uses = attribute_sites("weight")
    assert uses and all(use.startswith("kb.py:") for use in uses), uses


def test_only_kb_calls_add_word():
    # words come in with their article: add_article checks it, then adds them
    calls = attribute_sites("add_word")
    assert calls and all(call.startswith("kb.py:") for call in calls), calls


def test_only_kb_reads_an_articles_packed_runs():
    # add_article writes the arrays, level_counts counts them and kb.runs
    # nests them; trace and reconstruct ask kb.runs
    uses = attribute_sites("words", "counts", "sentence_runs", "paragraph_sentences")
    assert uses and all(use.startswith("kb.py:") for use in uses), uses


LAZY = """
import json
import sys
import mcrx.cli

def loaded():
    return sorted(name for name in sys.modules if name.startswith("mcrx."))

at_import = loaded()
had_dataclasses = "dataclasses" in sys.modules
assert mcrx.cli.main(sys.argv[1:]) == 0
print(json.dumps([at_import, loaded(), "dataclasses" in sys.modules and not had_dataclasses]))
"""

# what `import mcrx.cli` alone loads: the parser, the error types and text files
CLI_ONLY = ["mcrx.cli", "mcrx.errors", "mcrx.textfile"]


def loaded_by(*argv):
    """Run main(argv) in a fresh interpreter: the command's stdout, the mcrx
    modules loaded after `import mcrx.cli` and after the command, and whether
    the command imported dataclasses."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-c", LAZY, *map(str, argv)]
    completed = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    *output, modules = completed.stdout.splitlines()
    at_import, after, imported_dataclasses = json.loads(modules)
    return "\n".join(output), at_import, after, imported_dataclasses


def build_two_docs(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b c", encoding="utf-8")
    (corpus / "d2.txt").write_text("b c d", encoding="utf-8")
    return corpus, tmp_path / "index"


def test_cli_query_loads_neither_scl_nor_seqdemo(tmp_path):
    # the loop and the grid world load only for the commands that need
    # them: scl-demo, and query with --watch or --attention
    from mcrx.cli import main

    corpus, index = build_two_docs(tmp_path)
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    output, at_import, after, _ = loaded_by("query", "--index", index, "--doc", corpus / "d1.txt")
    assert "d2" in output
    for modules in (at_import, after):
        assert "mcrx.scl" not in modules and "mcrx.seqdemo" not in modules, modules


def test_each_cli_command_imports_only_what_it_runs(tmp_path):
    corpus, index = build_two_docs(tmp_path)
    argv = ("build", "--corpus", corpus, "--index", index)
    _, at_import, after, imported_dataclasses = loaded_by(*argv)
    assert at_import == CLI_ONLY
    assert after == sorted([*CLI_ONLY, "mcrx.ingest", "mcrx.kb"])
    assert imported_dataclasses  # kb's records are dataclasses: the probe sees it
    # the grid-world demo runs no index, activation or similarity code
    argv = ("scl-demo", "--kb", tmp_path / "actions", "--start", "0,0", "--target", "2,1")
    output, at_import, after, _ = loaded_by(*argv)
    assert "sequence\t" in output
    assert at_import == CLI_ONLY
    assert after == sorted([*CLI_ONLY, "mcrx.scl", "mcrx.seqdemo"])


def test_scl_demo_never_imports_dataclasses(tmp_path):
    # the loop's and the grid world's records are NamedTuples: importing
    # dataclasses (inspect, ast, dis, tokenize) would cost each call ~6 ms
    actions, demo = tmp_path / "actions", tmp_path / "demo.txt"
    demo.write_text("0,0\n1,0\n1,1\n", "utf-8")
    # a new action file, then a load, a learn and a save
    for learn, printed in (((), "sequence\t"), (("--learn", demo), "learned composite")):
        argv = ("scl-demo", "--kb", actions, *learn, "--start", "0,0", "--target", "2,1")
        output, _, _, imported_dataclasses = loaded_by(*argv)
        assert printed in output
        assert not imported_dataclasses, argv


# the names bench/benchtrace.py wraps as attributes of mcrx.cli
HOOKED = ("read_corpus_jsonl", "build_corpus", "save_index", "load_index")


def test_commands_call_the_cli_names_a_trace_hook_replaces(tmp_path, monkeypatch):
    import mcrx.cli

    calls = dict.fromkeys(HOOKED, 0)
    for name in HOOKED:

        def counted(*args, name=name, original=getattr(mcrx.cli, name), **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(mcrx.cli, name, counted)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id":"d1","text":"a b c"}\n{"id":"d2","text":"b c d"}\n', "utf-8")
    index = tmp_path / "index"
    assert mcrx.cli.main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    assert calls == {"read_corpus_jsonl": 1, "build_corpus": 1, "save_index": 1, "load_index": 0}
    doc = tmp_path / "query.txt"
    doc.write_text("a b", "utf-8")
    assert mcrx.cli.main(["query", "--index", str(index), "--doc", str(doc)]) == 0
    assert calls["load_index"] == 1
