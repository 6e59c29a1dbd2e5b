"""Command-line front end: build, query, compare, trace, scl-demo, stats.

A command that fails raises CliError; main alone prints it as one
`error:` line and returns its exit code.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CorpusFormatError,
    EmptyIndexError,
    IndexFormatError,
    InvalidDemonstrationError,
    McrxError,
    UnknownLabelError,
    UnscorableQueryError,
    VersionMismatchError,
)
from .textfile import read_utf8

if TYPE_CHECKING:
    from .kb import KnowledgeBase

# the exit code of each kind of failure, as the README lists them
EXIT_CODES = {
    "unreadable": 1,  # an input that cannot be read or fails its load checks
    "malformed": 2,  # a malformed corpus, or a usage error such as a flag out of range
    "no documents": 3,
    "unscorable": 4,
    "unknown id": 5,
    "invalid demonstration": 6,
}

TRACE_LEVELS = ("word", "sentence", "paragraph")  # indexed by level number

# imported on first use, then bound here, where a bench trace hook may replace
# them; the commands call them through __getattr__, so a replacement runs
_BOUND_ON_USE = ("read_corpus_jsonl", "build_corpus", "save_index", "load_index")


def __getattr__(name: str):
    if name not in _BOUND_ON_USE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the package's export table names the module that defines each one
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


class CliError(Exception):
    """A command's failure: one error line, and the kind that picks its exit code."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@contextmanager
def _failing(kind: str, prefix: str, *errors: type[BaseException]) -> Iterator[None]:
    """Re-raise any of errors from the block as CliError(kind, prefix + message)."""
    try:
        yield
    except errors as exc:
        raise CliError(kind, f"{prefix}{exc}") from exc


def _bool_flag(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {value!r}")


def _coords(value: str) -> tuple[int, int]:
    from . import seqdemo

    try:
        return seqdemo.check_coordinates(seqdemo.parse_pair(value))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# "--start -5,3": argparse would take the negative coordinate for a flag
_COORD_FLAGS = ("--start", "--target")
_COORD_RE = re.compile(r"-?\d+,-?\d+")


def _join_coords(argv: list[str]) -> list[str]:
    """Rewrite "--start X,Y" as "--start=X,Y" so that X may be negative."""
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _COORD_FLAGS and _COORD_RE.fullmatch(arg):
            joined[-1] = f"{joined[-1]}={arg}"
        else:
            joined.append(arg)
    return joined


def _read_doc(path: str) -> str:
    if path != "-":
        return read_utf8(path)
    try:
        text = sys.stdin.read()
        # under the C locale, stdin decodes stray bytes to lone surrogates
        text.encode("utf-8")
    except (UnicodeDecodeError, UnicodeEncodeError) as exc:
        raise OSError(f"standard input is not UTF-8 text ({exc.reason})") from exc
    return text


def cmd_build(args: argparse.Namespace) -> None:
    from .ingest import TokenizationRules, read_corpus_dir

    if args.min_token_len < 1:
        raise CliError("malformed", "need --min-token-len >= 1")
    rules = TokenizationRules(lowercase=args.lowercase, min_token_len=args.min_token_len)
    with (
        _failing("unreadable", "cannot read corpus: ", OSError),
        _failing("malformed", "malformed corpus: ", CorpusFormatError),
    ):
        if Path(args.corpus).is_dir():
            docs = read_corpus_dir(args.corpus)
        else:
            docs = __getattr__("read_corpus_jsonl")(args.corpus)
    kb, skipped = __getattr__("build_corpus")(docs, rules)
    for doc_id in skipped:
        print(f"skipping empty document {doc_id!r}", file=sys.stderr)
    if kb.article_count == 0:
        raise CliError("no documents", "no ingestable documents in the corpus")
    with _failing("unreadable", "cannot write index: ", OSError):
        __getattr__("save_index")(kb, args.index)
    print(f"{kb.article_count} documents, {kb.word_count} words, {kb.total_tokens} tokens")


def _open_index(path: str) -> KnowledgeBase:
    with _failing(
        "unreadable", "cannot load index: ", OSError, IndexFormatError, VersionMismatchError
    ):
        return __getattr__("load_index")(path)


def _apply_attention_file(kb: KnowledgeBase, path: str) -> None:
    from .scl import apply_rules

    # bad JSON, nested too deep, or a multiplier that is not a finite number >= 0
    prefix = "cannot load attention rules: "
    with _failing("unreadable", prefix, OSError, ValueError, RecursionError):
        rules = json.loads(read_utf8(path))
        if not isinstance(rules, dict):
            raise CliError("unreadable", "attention rules must map labels to numbers")
        _, unresolved = apply_rules(kb, rules)
    for label in unresolved:
        print(f"attention label {label!r} resolves to no node", file=sys.stderr)


def cmd_query(args: argparse.Namespace) -> None:
    from .kb import render_real
    from .similarity import DEFAULT_CANDIDATES, DEFAULT_RESULTS, QueryScorer
    from .similarity import escape_field, results_to_tsv

    # the defaults are read here, so that parsing the flags loads no similarity code
    top = DEFAULT_RESULTS if args.top is None else args.top
    candidates = DEFAULT_CANDIDATES if args.candidates is None else args.candidates
    if not candidates >= top >= 1:
        raise CliError("malformed", "need --candidates >= --top >= 1")
    kb = _open_index(args.index)
    if args.attention is not None:
        _apply_attention_file(kb, args.attention)
    with _failing("unreadable", "cannot read document: ", OSError):
        text = _read_doc(args.doc)
    labels = [label for label in (args.watch or "").split(",") if label]
    if labels:
        from .scl import watch_read
    with (
        _failing("unscorable", "unscorable query: ", McrxError),
        _failing("unscorable", "", UnscorableQueryError, EmptyIndexError),
        _failing("unknown id", "", UnknownLabelError),
    ):
        scorer = QueryScorer(kb, text)
        watched = watch_read(scorer, labels) if labels else {}
        results = scorer.top(candidates, top, not args.include_self)

    for label in labels:
        print(f"watch\t{label}\t{render_real(watched[label])}")
    if args.tsv:
        if results:
            print(results_to_tsv(results))
    else:
        for position, result in enumerate(results, start=1):
            title = f"  {escape_field(result.title)}" if result.title != result.label else ""
            print(f"{position}\t{escape_field(result.label)}\t{result.percent:.1f}{title}")


def _resolve_source(kb: KnowledgeBase, ref: str) -> int | str:
    """An ID|PATH argument: article label first, then readable file."""
    article_id = kb.article_id(ref)
    if article_id is not None:
        return article_id
    with _failing("unreadable", "cannot read source: ", OSError):
        if Path(ref).is_file():
            return read_utf8(ref)
    raise CliError("unknown id", f"unknown id or unreadable file {ref!r}")


def cmd_compare(args: argparse.Namespace) -> None:
    from .similarity import QueryScorer

    kb = _open_index(args.index)
    side_a = _resolve_source(kb, args.a)
    side_b = _resolve_source(kb, args.b)
    with _failing("unscorable", "", McrxError):
        result = QueryScorer(kb, side_a).score(side_b)
    print(f"T {args.a}->{args.b}\t{result.forward:.5f}")
    print(f"S {args.b}->{args.a}\t{result.reverse:.5f}")
    print(f"raw\t{result.raw:.5f}")
    print(f"percent\t{result.percent:.1f}")


def cmd_trace(args: argparse.Namespace) -> None:
    from .activation import trace
    from .ingest import reconstruct

    if args.top < 1:
        raise CliError("malformed", "need --top >= 1")
    kb = _open_index(args.index)
    source = _resolve_source(kb, args.source)
    destination = kb.article_id(args.dest)
    if destination is None:
        raise CliError("unknown id", f"unknown article id {args.dest!r}")
    level = TRACE_LEVELS.index(args.level)
    with _failing("unscorable", "", McrxError):
        entries = trace(kb, source, destination, level, args.top)
    paragraphs = reconstruct(kb, destination)
    for rank, entry in enumerate(entries, start=1):
        if entry.node_id is not None:
            name, text = entry.node_id, kb.nodes[entry.node_id].label
        elif len(entry.position) == 2:
            p, s = entry.position
            name, text = f"p{p}.s{s}", " ".join(paragraphs[p - 1][s - 1])
        else:
            (p,) = entry.position
            name, text = f"p{p}", " ".join(" ".join(tokens) for tokens in paragraphs[p - 1])
        print(f"{rank}\t{name}\t{entry.contribution:.5f}\t{text}")


def cmd_scl_demo(args: argparse.Namespace) -> None:
    from . import seqdemo
    from .scl import ExitCriteria

    if args.max_iter < 1:
        raise CliError("malformed", "need --max-iter >= 1")
    missing = not Path(args.kb).exists()
    if missing:
        akb = seqdemo.default_actions()
    else:
        with _failing("unreadable", "cannot load action kb: ", OSError, IndexFormatError):
            akb = seqdemo.load_actions(args.kb)
    known = len(akb.known_ids())  # actions are only ever added

    if args.learn:
        with (
            _failing("unreadable", "cannot read demonstration: ", OSError),
            _failing("invalid demonstration", "invalid demonstration: ", InvalidDemonstrationError),
        ):
            learned = seqdemo.learn_demonstration(akb, seqdemo.read_demonstration(args.learn))
        for label in learned.new_primitives:
            print(f"learned primitive {label}")
        if learned.composite_created:
            print(f"learned composite {learned.composite_id}")
        else:
            print(f"recognized composite {learned.composite_id}")

    if not akb.known_ids():
        raise CliError("unreadable", "the action kb holds no actions")
    budget = ExitCriteria(max_iterations=args.max_iter, score_threshold=100.0)
    result = seqdemo.solve(akb, args.start, args.target, budget)
    sequence = " ".join(result.sequence) if result.sequence else "(empty)"
    print(f"sequence\t{sequence}")
    print(f"iterations\t{result.report.iterations}")
    print(f"exit\t{result.report.exit_reason}")
    if result.composite_id is not None:
        verb = "registered" if result.composite_created else "matched"
        print(f"{verb} composite {result.composite_id}")
    if missing or len(akb.known_ids()) > known:
        with _failing("unreadable", "cannot write action kb: ", OSError):
            seqdemo.save_actions(akb, args.kb)


def cmd_stats(args: argparse.Namespace) -> None:
    from .kb import DEFAULT_LEVELS

    kb = _open_index(args.index)
    weights = list(kb.weights(kb.word_ids()).values())  # a loaded index has no orphan word
    print(f"documents: {kb.article_count}")
    print(f"words: {kb.word_count}")
    print(f"tokens: {kb.total_tokens}")
    for name, summary in (("min", min), ("max", max), ("mean", lambda w: sum(w) / len(w))):
        print(f"weight {name}: {summary(weights):.5f}" if weights else f"weight {name}: n/a")
    for name, count in zip(DEFAULT_LEVELS, kb.level_counts):
        print(f"nodes[{name}]: {count}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcrx",
        description="Corpus indexing and asymmetric document similarity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="index a corpus directory or JSONL file")
    p_build.add_argument("--corpus", required=True)
    p_build.add_argument("--index", required=True)
    p_build.add_argument("--lowercase", type=_bool_flag, default=True)
    p_build.add_argument("--min-token-len", type=int, default=1)
    p_build.set_defaults(handler=cmd_build)

    p_query = sub.add_parser("query", help="rank index documents against a query")
    p_query.add_argument("--index", required=True)
    p_query.add_argument("--doc", required=True, help="query file, or - for stdin")
    p_query.add_argument("--top", type=int)
    p_query.add_argument("--candidates", type=int)
    p_query.add_argument("--include-self", action="store_true")
    p_query.add_argument("--attention", default=None, help="JSON label->multiplier file")
    p_query.add_argument("--watch", default=None, help="comma-separated labels")
    p_query.add_argument("--tsv", action="store_true")
    p_query.set_defaults(handler=cmd_query)

    p_compare = sub.add_parser("compare", help="directional activations of two sources")
    p_compare.add_argument("--index", required=True)
    p_compare.add_argument("--a", required=True, help="article id or file path")
    p_compare.add_argument("--b", required=True, help="article id or file path")
    p_compare.set_defaults(handler=cmd_compare)

    p_trace = sub.add_parser("trace", help="per-node contributions inside a document")
    p_trace.add_argument("--index", required=True)
    p_trace.add_argument("--source", required=True, help="article id or file path")
    p_trace.add_argument("--dest", required=True, help="article id")
    p_trace.add_argument("--level", required=True, choices=TRACE_LEVELS)
    p_trace.add_argument("--top", type=int, default=5)
    p_trace.set_defaults(handler=cmd_trace)

    p_demo = sub.add_parser("scl-demo", help="grid-world action learning and planning")
    p_demo.add_argument("--kb", required=True, help="action kb file (created if absent)")
    p_demo.add_argument("--learn", default=None, help="demonstration file, one X,Y per line")
    p_demo.add_argument("--start", required=True, type=_coords)
    p_demo.add_argument("--target", required=True, type=_coords)
    p_demo.add_argument("--max-iter", type=int, default=10000)
    p_demo.set_defaults(handler=cmd_scl_demo)

    p_stats = sub.add_parser("stats", help="summarize an index")
    p_stats.add_argument("--index", required=True)
    p_stats.set_defaults(handler=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_coords(sys.argv[1:] if argv is None else argv))
    try:
        args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES[exc.kind]
    return 0


if __name__ == "__main__":
    sys.exit(main())
