"""Mutation check of the scoring contract's hand-derived bounds, of
collect's presence rule and of the index loader's word-record refusal,
and a generated one-operator sweep of whole source files.

Each hand-written mutant (MUTANTS) loosens or drops one bound that a
derivation in the source justifies, lets a value of 0.0 count as an
activated article, or lets a malformed word record through. The sweep
generates one mutant per operator site of the files it is given,
swapping one operator for its neighbour (SWAPS: < and <=, > and >=, ==
and !=, + and -, * and /, // to /, and and or, is and is not, in and
not in). For each mutant the script copies the repository to a
temporary directory, applies the one edit there, runs the tier-1 suite
on the copy (stopping at the first failure) and reports the mutant
killed (some test failed) or survived (every test passed). The working
tree is never edited. Run from anywhere:

    python tests/mutants.py                 # MUTANTS, the whole tier-1 suite
    python tests/mutants.py tests/          # any pytest arguments instead
    python tests/mutants.py --sweep src/mcrx/activation.py src/mcrx/similarity.py
    python tests/mutants.py --sweep FILES --workers 2 -- tests/   # pytest arguments after --

A survivor is a bound or rule the suite cannot tell from a looser one.
A sweep survivor listed in EQUIVALENT, with the reason no test can kill
it, is reported as equivalent. The exit status is 1 when a mutant
survives unexplained or a hand-written one no longer applies, else 0.
The sweep takes minutes per file; the tier-1 suite does not run it.
"""

from __future__ import annotations

import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
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
        "_SLACK = 2**-49 (16u, below the derived 20u + 2w)",
        "src/mcrx/similarity.py",
        "_SLACK = 2.0**-48",
        "_SLACK = 2.0**-49",
    ),
    ("_SLACK = 0", "src/mcrx/similarity.py", "_SLACK = 2.0**-48", "_SLACK = 0.0"),
    (
        "drop (1 - slack) in _within_reach",
        "src/mcrx/similarity.py",
        "[-1] * (1 - slack)",
        "[-1]",
    ),
    (
        "the widened slack without its word-count term",
        "src/mcrx/similarity.py",
        "slack = _SLACK + 2 * self.forward_map.band",
        "slack = _SLACK",
    ),
    (
        "the gamma index one lower (gamma_(n-2))",
        "src/mcrx/activation.py",
        "return (n - 1) * _U / (1 - (n - 1) * _U)",
        "return (n - 2) * _U / (1 - (n - 2) * _U)",
    ),
    (
        "the band without its final rounding term",
        "src/mcrx/activation.py",
        "return (gamma + _U) / (1 - gamma)",
        "return gamma / (1 - gamma)",
    ),
    (
        "top_articles' overlap test >= becomes >",
        "src/mcrx/activation.py",
        "map(lt, keyed[1:],",
        "map(lambda key, floor: key <= floor, keyed[1:],",
    ),
    (
        "top_articles' cut keeps only sums above fl(t * c)",
        "src/mcrx/activation.py",
        "if total >= cut]",
        "if total > cut]",
    ),
    (
        "drop collect's overflow bound",
        "src/mcrx/activation.py",
        "if not bound <= _BIG:",
        "if False:",
    ),
    (
        "drop _estimates' factor precondition",
        "src/mcrx/similarity.py",
        "if 0.0 < attention.get(word_id, 1.0) < floor:",
        "if False:",
    ),
    (
        "drop _estimates' range precondition",
        "src/mcrx/similarity.py",
        "if not (reverse <= _HUGE and low <= raw):",
        "if False:",
    ),
    (
        "_estimates' low bound divides by self_raw (2**-1000 / max(1, self_raw))",
        "src/mcrx/similarity.py",
        "low = _TINY * max(1.0, self.self_raw)",
        "low = _TINY / max(1.0, self.self_raw)",
    ),
    (
        "collect keeps a multiplied article whose value is 0.0",
        "src/mcrx/activation.py",
        "if forward._pre(ordinal) * multiplier == 0.0:",
        "if False:",
    ),
    (
        "collect keeps an article whose multiplier underflows its value",
        "src/mcrx/activation.py",
        "if forward._pre(ordinal) * multiplier == 0.0:",
        "if multiplier == 0.0:",
    ),
    (
        "_load_word refuses a word record only when tok, df and df >= 1 are all bad",
        "src/mcrx/kb.py",
        "if not isinstance(token, str) or type(df) is not int or df < 1:",
        "if not isinstance(token, str) and type(df) is not int and df < 1:",
    ),
    ("as_dict keeps a zero sum", "src/mcrx/activation.py", "            if total\n", ""),
    (
        "__len__ counts zero sums",
        "src/mcrx/activation.py",
        "return len(self.sums) - self.sums.count(0.0)",
        "return len(self.sums)",
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


def copy_tree(scratch: str, name: str) -> Path:
    """A copy of the repository, without git data, caches or bench output."""
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".bench_*")
    tree = Path(scratch, name)
    shutil.copytree(ROOT, tree, ignore=ignore)
    return tree


def killed_on(tree: Path, relative: str, source: str, pytest_args: list[str]) -> bool:
    """Whether the suite fails with relative's text replaced by source; restores it after."""
    path = tree / relative
    original = path.read_text("utf-8")
    path.write_text(source, "utf-8")
    try:
        return not run_suite(tree, pytest_args)
    finally:
        path.write_text(original, "utf-8")


def main(pytest_args: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="mcrx-mutants-") as scratch:
        tree = copy_tree(scratch, "tree")
        if not run_suite(tree, pytest_args):
            print("the unmutated copy fails its tests; no mutant was run")
            return 1
        survivors = []
        for name, relative, text, replacement in MUTANTS:
            original = (tree / relative).read_text("utf-8")
            if original.count(text) != 1:
                print(f"stale\t{name}\t(text not found once in {relative})")
                survivors.append(name)
                continue
            killed = killed_on(tree, relative, original.replace(text, replacement), pytest_args)
            print(f"{'killed' if killed else 'SURVIVED'}\t{name}", flush=True)
            if not killed:
                survivors.append(name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed")
    for name in survivors:
        print(f"survivor\t{name}")
    return 1 if survivors else 0


# the sweep's one-operator swaps, and how sites name the operators
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.And: ast.Or, ast.Or: ast.And, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.And: "and", ast.Or: "or", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
    ast.NotIn: "not in",
}

# sweep survivors no test can kill: (file, function, site text, swap) -> the reason
ACTIVATION, SIMILARITY = "src/mcrx/activation.py", "src/mcrx/similarity.py"
EXACT_ANY_WAY = "math.fsum is exact whichever bag it walks; only the walk's length changes"
WIDER = "a wider band or cut only sums more articles exactly; no answer can change"
STRICTER = "a stricter precondition only falls back to scoring every candidate, the same answer"
EQUIVALENT: dict[tuple[str, str, str, str], str] = {
    (ACTIVATION, "_bag_sum", "len(bag) <= len(other)", "<= -> <"): EXACT_ANY_WAY,
    (ACTIVATION, "_shared_sum", "len(factors) <= len(bag)", "<= -> <"): EXACT_ANY_WAY,
    (ACTIVATION, "_gamma", "(n - 1) * _U / (1 - (n - 1) * _U)", "/ -> *"): (
        "x(1 - x), x = (n - 1)u, falls short of the worst attainable error x / (1 + x) (n - 1 "
        "ties to even at half an ulp) by x**3, a relative x**2 < 1e-27 below gamma's own rounding"
    ),
    (ACTIVATION, "_gamma", "n - 1 #2", "- -> +"): WIDER,
    (ACTIVATION, "ActivationMap.top_articles", "end - start", "- -> +"): (
        "a run of one article summed exactly sorts the same; only slower"
    ),
    (ACTIVATION, "ActivationMap.top_articles", "len(top) >= k", ">= -> >"): (
        "one more run is sorted and then cut off at k"
    ),
    (ACTIVATION, "collect", "bound <= _BIG", "<= -> <"): (
        "at bound == 2**1020 exactly both paths are exact; the slow one sums every article"
    ),
    (SIMILARITY, "QueryScorer._estimates", "0.0 < attention.get(word_id, 1.0)", "< -> <="): (
        STRICTER
    ),
    (SIMILARITY, "QueryScorer._estimates", "reverse <= _HUGE", "<= -> <"): STRICTER,
    (SIMILARITY, "QueryScorer._estimates", "low <= raw", "<= -> <"): STRICTER,
}


def operator_sites(tree: ast.AST) -> list[tuple[str, ast.AST, int | None]]:
    """(enclosing function, node, index into a comparison's ops or None) per swappable operator."""
    sites = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            function = node.name if function == "<module>" else f"{function}.{node.name}"
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            sites.append((function, node, None))
        elif isinstance(node, ast.Compare):
            sites.extend((function, node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, "<module>")
    return sites


def segment(source: str, node: ast.AST) -> str:
    """node's source text on one line."""
    return " ".join((ast.get_source_segment(source, node) or "").split())


def sweep_mutants(relative: str) -> list[tuple[str, tuple[str, str, str, str], str]]:
    """(description, equivalence key, mutated source) for every operator site of one file."""
    source = (ROOT / relative).read_text("utf-8")
    mutants = []
    seen: Counter[tuple[str, str, str]] = Counter()
    for index, (function, node, position) in enumerate(operator_sites(ast.parse(source))):
        old = type(node.op if position is None else node.ops[position])
        if position is None:
            site = segment(source, node)
        else:  # the one comparison of a chain, between its two operands
            left = node.left if position == 0 else node.comparators[position - 1]
            right = node.comparators[position]
            site = f"{segment(source, left)} {SYMBOLS[old]} {segment(source, right)}"
        swap = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
        seen[function, site, swap] += 1
        if seen[function, site, swap] > 1:  # the same text again in one function
            site = f"{site} #{seen[function, site, swap]}"
        tree = ast.parse(source)
        _, mutated, _ = operator_sites(tree)[index]
        if position is None:
            mutated.op = SWAPS[old]()
        else:
            mutated.ops[position] = SWAPS[old]()
        description = f"{relative}:{node.lineno} {function}: {site[:80]} [{swap}]"
        mutants.append((description, (relative, function, site, swap), ast.unparse(tree)))
    return mutants


def sweep(files: list[str], workers: int, pytest_args: list[str]) -> int:
    relatives = [str(Path(name).resolve().relative_to(ROOT)) for name in files]
    jobs = [(relative, *mutant) for relative in relatives for mutant in sweep_mutants(relative)]
    print(f"{len(jobs)} operator mutants in {', '.join(relatives)}", flush=True)
    with tempfile.TemporaryDirectory(prefix="mcrx-sweep-") as scratch:
        trees: queue.Queue[Path] = queue.Queue()
        for worker in range(workers):
            trees.put(copy_tree(scratch, f"tree{worker}"))
        first = trees.get()
        if not run_suite(first, pytest_args):
            print("the unmutated copy fails its tests; no mutant was run")
            return 1
        trees.put(first)

        def run(job):
            relative, description, key, source = job
            tree = trees.get()
            try:
                # the test files that name the module first: most kills come quickly
                quick = quick_args(relative)
                stages = [quick, pytest_args] if quick else [pytest_args]
                killed = any(killed_on(tree, relative, source, args) for args in stages)
            finally:
                trees.put(tree)
            verdict = "killed" if killed else "equivalent" if key in EQUIVALENT else "SURVIVED"
            print(f"{verdict}\t{description}", flush=True)
            return verdict, description

        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, jobs))
    survivors = [description for verdict, description in results if verdict == "SURVIVED"]
    equivalent = sum(verdict == "equivalent" for verdict, _ in results)
    killed = len(jobs) - len(survivors) - equivalent
    print(f"{killed} of {len(jobs)} killed, {equivalent} equivalent")
    for description in survivors:
        print(f"survivor\t{description}")
    return 1 if survivors else 0


def quick_args(relative: str) -> list[str]:
    """The test files whose text names relative's module, to run before the whole suite."""
    stem = Path(relative).stem
    paths = sorted(ROOT.glob("tests/test_*.py"))
    return [str(path.relative_to(ROOT)) for path in paths if stem in path.read_text("utf-8")]


def parse_sweep(args: list[str]) -> tuple[list[str], int, list[str]]:
    """FILES, --workers N and the pytest arguments after --, from the arguments after --sweep."""
    pytest_args = []
    if "--" in args:
        args, pytest_args = args[: args.index("--")], args[args.index("--") + 1 :]
    workers = 1
    if "--workers" in args:
        at = args.index("--workers")
        workers = int(args[at + 1])
        args = args[:at] + args[at + 2 :]
    return args, workers, pytest_args


if __name__ == "__main__":
    if sys.argv[1:2] == ["--sweep"]:
        sys.exit(sweep(*parse_sweep(sys.argv[2:])))
    sys.exit(main(sys.argv[1:]))
