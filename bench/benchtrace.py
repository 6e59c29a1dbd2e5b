"""Spans around mcrx's public functions, held in memory, and their analysis.

`traced(tracer)` replaces each function in HOOKS, at the name where its
caller looks it up, with a wrapper that records one span: name, start,
end, parent span and operation id, plus a few counts taken from the
arguments or the result. Leaving the block puts every original back.
The program is single-threaded at its default settings, so one stack of
open spans per process is enough.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
from contextlib import contextmanager
from time import perf_counter


def rss_mb() -> float:
    """Current resident set size of this process."""
    try:
        with open("/proc/self/statm") as handle:
            pages = int(handle.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE") / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tokens(args, result, pre):
    return {"tokens": sum(len(sentence) for paragraph in args[2] for sentence in paragraph)}


def _saved(args, result, pre):
    return {"levels": list(args[0].level_counts), "bytes": os.path.getsize(args[1])}


def _loaded(args, result, pre):
    return {
        "levels": list(result.level_counts),
        "bytes": os.path.getsize(args[0]),
        "rss_mb": rss_mb() - pre,
    }


def _emitted(args, result, pre):
    return {"unknown": result.unknown_words}


def _collected(args, result, pre):
    return {"articles": len(result)}


def _selected(args, result, pre):
    return {"ids": list(result)}


def _solving(args, result, pre):
    return {"actions": pre}


def _looped(args, result, pre):
    return {"iterations": result.iterations}


# (module, class or None, attribute, span name, counts, state taken before the call)
HOOKS = (
    ("mcrx.cli", None, "read_corpus_jsonl", "ingest.read", None, None),
    ("mcrx.cli", None, "build_corpus", "ingest.build", None, None),
    ("mcrx.ingest", None, "segment", "ingest.segment", None, None),
    ("mcrx.ingest", None, "ingest_segmented", "ingest.insert", _tokens, None),
    ("mcrx.ingest", None, "compute_weights", "ingest.weights", None, None),
    ("mcrx.cli", None, "save_index", "kb.save", _saved, None),
    ("mcrx.cli", None, "load_index", "kb.load", _loaded, lambda args: rss_mb()),
    ("mcrx.kb", None, "load_index", "kb.load", _loaded, lambda args: rss_mb()),
    ("mcrx.similarity", None, "rank", "similarity.rank", None, None),
    ("mcrx.similarity", "QueryScorer", "__init__", "similarity.scorer", None, None),
    ("mcrx.similarity", "QueryScorer", "candidates", "similarity.select", _selected, None),
    ("mcrx.similarity", "QueryScorer", "score", "similarity.score", None, None),
    ("mcrx.similarity", None, "emit", "activation.emit", _emitted, None),
    ("mcrx.similarity", None, "collect", "activation.collect", _collected, None),
    ("mcrx.similarity", None, "collect_on_bag", "activation.collect_on_bag", None, None),
    ("mcrx.seqdemo", None, "load_actions", "seqdemo.load_actions", None, None),
    ("mcrx.seqdemo", None, "learn_demonstration", "seqdemo.learn", None, None),
    ("mcrx.seqdemo", None, "solve", "seqdemo.solve", _solving, lambda args: len(args[0].known_ids())),
    ("mcrx.seqdemo", None, "save_actions", "seqdemo.save_actions", None, None),
    ("mcrx.seqdemo", None, "run", "scl.run", _looped, None),
)


class Tracer:
    """Spans of one process: [name, start, end, parent index, op id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: object = None
        self._open: list[int] = []

    def wrap(self, name, fn, counts=None, before=None):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            pre = before(args) if before else None
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, self.op, None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_spans.pop()
            if counts is not None:
                record[5] = counts(args, result, pre)
            return result

        return traced_call

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _owner(module: str, cls: str | None):
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextmanager
def traced(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []
    try:
        for module, cls, attr, name, counts, before in HOOKS:
            owner = _owner(module, cls)
            original = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, original, counts, before))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def originals() -> list[object]:
    """The functions HOOKS names, as currently bound (for tests)."""
    return [getattr(_owner(m, c), a) for m, c, a, *_ in HOOKS]


# span name -> the metric its durations add up to, per operation
SPAN_TIMES = {
    span: f"{span}_s"
    for span in (
        "ingest.read",
        "ingest.segment",
        "ingest.insert",
        "ingest.weights",
        "kb.save",
        "kb.load",
        "activation.collect",
        "similarity.select",
        "similarity.score",
        "seqdemo.load_actions",
        "seqdemo.learn",
        "seqdemo.solve",
        "seqdemo.save_actions",
        "scl.run",
    )
}
LEVEL_NAMES = ("word", "sentence", "paragraph", "article")


def op_values(spans: list[list]) -> dict[object, dict[str, float]]:
    """Per-operation layer figures from one process's spans.

    A figure is present for an operation only when its span ran there.
    Self time of a span is its duration minus its direct children's.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_op: dict[object, dict[str, float]] = {}
    inserts: dict[object, list[tuple[float, float, int]]] = {}

    def add(op, metric, value):
        values = per_op.setdefault(op, {})
        values[metric] = values.get(metric, 0.0) + value

    for index, (name, start, end, parent, op, counts) in enumerate(spans):
        duration = end - start
        layer = name.split(".")[0]
        self_name = "cli.self_s" if layer == "cli" else f"layer_self.{layer}_s"
        add(op, self_name, duration - child_time[index])
        if name in SPAN_TIMES:
            add(op, SPAN_TIMES[name], duration)
        parent_name = spans[parent][0] if parent >= 0 else None
        counts = counts or {}
        if name == "activation.emit" and parent_name == "similarity.scorer":
            add(op, "activation.emit_s", duration)
            add(op, "activation.unknown_words", counts["unknown"])
        elif name == "activation.collect_on_bag" and parent_name == "similarity.scorer":
            add(op, "similarity.self_s", duration)
        elif name == "activation.collect":
            add(op, "activation.articles_activated", counts["articles"])
        elif name == "similarity.score":
            add(op, "similarity.candidates_scored", 1)
        elif name == "ingest.insert":
            add(op, "ingest.tokens", counts["tokens"])
            inserts.setdefault(op, []).append((start, duration, counts["tokens"]))
        elif name in ("kb.save", "kb.load"):
            for level, count in zip(LEVEL_NAMES, counts["levels"]):
                per_op[op][f"kb.nodes.{level}"] = count
            per_op[op]["kb.index_bytes"] = counts["bytes"]
            if name == "kb.load":
                add(op, "kb.load_rss_mb", counts["rss_mb"])
        elif name == "seqdemo.solve":
            add(op, "seqdemo.actions", counts["actions"])
        elif name == "scl.run":
            add(op, "scl.iterations", counts["iterations"])
    for op, records in inserts.items():
        growth = insert_growth(records)
        if growth is not None:
            per_op[op]["ingest.insert_growth"] = growth
    return per_op


def insert_growth(records: list[tuple[float, float, int]]) -> float | None:
    """Insert time per token over the last fifth of documents / the first fifth.

    1.0 means insert cost is linear in corpus size.
    """
    records = sorted(records)
    fifth = len(records) // 5
    if fifth == 0:
        return None

    def per_token(part):
        return sum(r[1] for r in part) / max(1, sum(r[2] for r in part))

    first = per_token(records[:fifth])
    return per_token(records[-fifth:]) / first if first > 0 else None


def medians(per_op: list[dict[str, float]], names: list[str]) -> dict[str, float]:
    """Median over the operations that have each figure; 0 where none has it."""
    result = {}
    for name in names:
        values = [values[name] for values in per_op if name in values]
        result[name] = statistics.median(values) if values else 0.0
    return result
