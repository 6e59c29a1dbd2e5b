"""Layered corpus index, asymmetric document similarity, solution-critic loop.

Submodules and the names below are imported on first use, so a command
that needs only part of the package does not import the rest.
"""

import importlib

_SUBMODULES = ("activation", "errors", "ingest", "kb", "scl", "seqdemo", "similarity")

_EXPORTS = {
    "activation": (
        "ActivationMap",
        "Emission",
        "TraceEntry",
        "activate",
        "collect",
        "collect_on_bag",
        "emit",
        "trace",
    ),
    "ingest": (
        "RawDocument",
        "build_corpus",
        "compute_weights",
        "ingest_document",
        "read_corpus_dir",
        "read_corpus_jsonl",
        "reconstruct",
        "segment",
        "tokenize",
    ),
    "kb": (
        "ARTICLE",
        "DEFAULT_RULES",
        "PARAGRAPH",
        "SENTENCE",
        "WORD",
        "Article",
        "ArticleRuns",
        "KnowledgeBase",
        "Node",
        "TokenizationRules",
        "load_index",
        "save_index",
    ),
    "scl": (
        "DocumentCritic",
        "ExitCriteria",
        "Feedback",
        "LoopReport",
        "apply_rules",
        "document_candidate_generator",
        "run",
        "watch_read",
    ),
    "seqdemo": (
        "ActionKB",
        "default_actions",
        "execute",
        "learn_demonstration",
        "load_actions",
        "save_actions",
        "solve",
    ),
    "similarity": (
        "QueryScorer",
        "RankedResult",
        "combine",
        "normalize",
        "rank",
        "results_to_tsv",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_HOME]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_HOME})
