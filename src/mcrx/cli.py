"""Command-line front end: build, query, compare, trace, scl-demo, stats."""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .activation import trace as trace_op
from .errors import (
    CorpusFormatError,
    EmptyIndexError,
    IndexFormatError,
    InvalidDemonstrationError,
    McrxError,
    NoActionsError,
    UnknownLabelError,
    UnscorableQueryError,
    VersionMismatchError,
)
from .ingest import (
    TokenizationRules,
    build_corpus,
    read_corpus_dir,
    read_corpus_jsonl,
    read_utf8,
    reconstruct,
)
from .kb import WORD, KnowledgeBase, load_index, render_real, save_index
from .similarity import QueryScorer, check_cut, escape_field, results_to_tsv

EXIT_UNREADABLE = 1
EXIT_MALFORMED = 2  # also a flag out of range, the code argparse uses for usage errors
EXIT_NO_DOCUMENTS = 3
EXIT_UNSCORABLE = 4
EXIT_UNKNOWN_ID = 5
EXIT_BAD_DEMO = 6

TRACE_LEVELS = ("word", "sentence", "paragraph")  # indexed by level number


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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
        x, y = value.split(",")
        point = (int(x), int(y))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected X,Y, got {value!r}") from exc
    try:
        seqdemo.check_coordinates(point)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return point


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


def cmd_build(args: argparse.Namespace) -> int:
    try:
        rules = TokenizationRules(lowercase=args.lowercase, min_token_len=args.min_token_len)
    except ValueError:
        return _fail(EXIT_MALFORMED, "need --min-token-len >= 1")
    try:
        corpus_path = Path(args.corpus)
        if corpus_path.is_dir():
            docs = read_corpus_dir(args.corpus)
        else:
            docs = read_corpus_jsonl(args.corpus)
    except CorpusFormatError as exc:
        return _fail(EXIT_MALFORMED, f"malformed corpus: {exc}")
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"cannot read corpus: {exc}")
    kb, skipped = build_corpus(docs, rules)
    for doc_id in skipped:
        print(f"skipping empty document {doc_id!r}", file=sys.stderr)
    if kb.article_count == 0:
        return _fail(EXIT_NO_DOCUMENTS, "no ingestable documents in the corpus")
    try:
        save_index(kb, args.index)
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"cannot write index: {exc}")
    print(f"{kb.article_count} documents, {kb.word_count} words, {kb.total_tokens} tokens")
    return 0


def _open_index(args: argparse.Namespace) -> KnowledgeBase | int:
    try:
        return load_index(args.index)
    except (OSError, IndexFormatError, VersionMismatchError) as exc:
        return _fail(EXIT_UNREADABLE, f"cannot load index: {exc}")


def _apply_attention_file(kb: KnowledgeBase, path: str | None) -> int | None:
    if path is None:
        return None
    try:
        rules = json.loads(read_utf8(path))
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, or nested too deep
        return _fail(EXIT_UNREADABLE, f"cannot load attention rules: {exc}")
    if not isinstance(rules, dict):
        return _fail(EXIT_UNREADABLE, "attention rules must map labels to numbers")
    from .scl import apply_rules

    try:
        _, unresolved = apply_rules(kb, rules)
    except ValueError as exc:  # not a finite number >= 0, a JSON true/false included
        return _fail(EXIT_UNREADABLE, f"cannot load attention rules: {exc}")
    for label in unresolved:
        print(f"attention label {label!r} resolves to no node", file=sys.stderr)
    return None


def cmd_query(args: argparse.Namespace) -> int:
    try:
        check_cut(args.candidates, args.top)
    except ValueError:
        return _fail(EXIT_MALFORMED, "need --candidates >= --top >= 1")
    kb = _open_index(args)
    if isinstance(kb, int):
        return kb
    failed = _apply_attention_file(kb, args.attention)
    if failed is not None:
        return failed
    try:
        text = _read_doc(args.doc)
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"cannot read document: {exc}")
    labels = [label for label in (args.watch or "").split(",") if label]
    if labels:
        from .scl import watch_read
    try:
        if kb.article_count == 0:
            raise EmptyIndexError("the index holds no documents")
        scorer = QueryScorer(kb, text)
        watched = watch_read(scorer, labels) if labels else {}
        results = scorer.top(args.candidates, args.top, not args.include_self)
    except UnknownLabelError as exc:
        return _fail(EXIT_UNKNOWN_ID, str(exc))
    except (UnscorableQueryError, EmptyIndexError) as exc:
        return _fail(EXIT_UNSCORABLE, str(exc))
    except McrxError as exc:
        return _fail(EXIT_UNSCORABLE, f"unscorable query: {exc}")

    for label in labels:
        print(f"watch\t{label}\t{render_real(watched[label])}")
    if args.tsv:
        if results:
            print(results_to_tsv(results))
    else:
        for position, result in enumerate(results, start=1):
            title = f"  {escape_field(result.title)}" if result.title != result.label else ""
            print(f"{position}\t{escape_field(result.label)}\t{result.percent:.1f}{title}")
    return 0


def _resolve_source(kb: KnowledgeBase, ref: str) -> int | str | None:
    """An ID|PATH argument: article label first, then readable file.

    Raises OSError for a file that cannot be read as UTF-8 text.
    """
    article_id = kb.article_id(ref)
    if article_id is not None:
        return article_id
    path = Path(ref)
    if path.is_file():
        return read_utf8(ref)
    return None


def cmd_compare(args: argparse.Namespace) -> int:
    kb = _open_index(args)
    if isinstance(kb, int):
        return kb
    try:
        side_a = _resolve_source(kb, args.a)
        side_b = _resolve_source(kb, args.b)
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"cannot read source: {exc}")
    if side_a is None:
        return _fail(EXIT_UNKNOWN_ID, f"unknown id or unreadable file {args.a!r}")
    if side_b is None:
        return _fail(EXIT_UNKNOWN_ID, f"unknown id or unreadable file {args.b!r}")
    try:
        result = QueryScorer(kb, side_a).score(side_b)
    except McrxError as exc:
        return _fail(EXIT_UNSCORABLE, str(exc))
    print(f"T {args.a}->{args.b}\t{result.forward:.5f}")
    print(f"S {args.b}->{args.a}\t{result.reverse:.5f}")
    print(f"raw\t{result.raw:.5f}")
    print(f"percent\t{result.percent:.1f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    if args.top < 1:
        return _fail(EXIT_MALFORMED, "need --top >= 1")
    kb = _open_index(args)
    if isinstance(kb, int):
        return kb
    try:
        source = _resolve_source(kb, args.source)
    except OSError as exc:
        return _fail(EXIT_UNREADABLE, f"cannot read source: {exc}")
    if source is None:
        return _fail(EXIT_UNKNOWN_ID, f"unknown id or unreadable file {args.source!r}")
    destination = kb.article_id(args.dest)
    if destination is None:
        return _fail(EXIT_UNKNOWN_ID, f"unknown article id {args.dest!r}")
    level = TRACE_LEVELS.index(args.level)
    try:
        entries = trace_op(kb, source, destination, level, args.top)
    except McrxError as exc:
        return _fail(EXIT_UNSCORABLE, str(exc))
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
    return 0


def cmd_scl_demo(args: argparse.Namespace) -> int:
    from . import seqdemo
    from .scl import ExitCriteria

    if args.max_iter < 1:
        return _fail(EXIT_MALFORMED, "need --max-iter >= 1")
    missing = not Path(args.kb).exists()
    if missing:
        akb = seqdemo.default_actions()
    else:
        try:
            akb = seqdemo.load_actions(args.kb)
        except (OSError, IndexFormatError) as exc:
            return _fail(EXIT_UNREADABLE, f"cannot load action kb: {exc}")
    known = len(akb.known_ids())  # actions are only ever added

    if args.learn:
        try:
            states = _read_demo(args.learn)
        except OSError as exc:
            return _fail(EXIT_UNREADABLE, f"cannot read demonstration: {exc}")
        except InvalidDemonstrationError as exc:
            return _fail(EXIT_BAD_DEMO, f"invalid demonstration: {exc}")
        try:
            learned = seqdemo.learn_demonstration(akb, states)
        except InvalidDemonstrationError as exc:
            return _fail(EXIT_BAD_DEMO, f"invalid demonstration: {exc}")
        for label in learned.new_primitives:
            print(f"learned primitive {label}")
        if learned.composite_created:
            print(f"learned composite {learned.composite_id}")
        else:
            print(f"recognized composite {learned.composite_id}")

    budget = ExitCriteria(max_iterations=args.max_iter, score_threshold=100.0)
    try:
        result = seqdemo.solve(akb, args.start, args.target, budget)
    except NoActionsError:
        return _fail(EXIT_UNREADABLE, "the action kb holds no actions")
    sequence = " ".join(result.sequence) if result.sequence else "(empty)"
    print(f"sequence\t{sequence}")
    print(f"iterations\t{result.report.iterations}")
    print(f"exit\t{result.report.exit_reason}")
    if result.composite_id is not None:
        verb = "registered" if result.composite_created else "matched"
        print(f"{verb} composite {result.composite_id}")
    if missing or len(akb.known_ids()) > known:
        try:
            seqdemo.save_actions(akb, args.kb)
        except OSError as exc:
            return _fail(EXIT_UNREADABLE, f"cannot write action kb: {exc}")
    return 0


def _read_demo(path: str) -> list[tuple[int, int]]:
    states = []
    for line_no, raw in enumerate(read_utf8(path).splitlines(), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            x, y = stripped.split(",")
            states.append((int(x), int(y)))
        except ValueError as exc:
            raise InvalidDemonstrationError(
                f"line {line_no}: expected X,Y, got {stripped!r}"
            ) from exc
    return states


def cmd_stats(args: argparse.Namespace) -> int:
    kb = _open_index(args)
    if isinstance(kb, int):
        return kb
    weights = [
        node.weight for node in kb.nodes if node.level == WORD and kb.df(node.id)
    ]
    print(f"documents: {kb.article_count}")
    print(f"words: {kb.word_count}")
    print(f"tokens: {kb.total_tokens}")
    if weights:
        print(f"weight min: {min(weights):.5f}")
        print(f"weight max: {max(weights):.5f}")
        print(f"weight mean: {sum(weights) / len(weights):.5f}")
    else:
        print("weight min: n/a")
        print("weight max: n/a")
        print("weight mean: n/a")
    for level, name in enumerate(kb.levels):
        print(f"nodes[{name}]: {kb.level_counts[level]}")
    return 0


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
    p_query.add_argument("--top", type=int, default=10)
    p_query.add_argument("--candidates", type=int, default=100)
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
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_join_coords(argv))
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
