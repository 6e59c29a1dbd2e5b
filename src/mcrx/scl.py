"""Generic solution-critic loop.

A generator proposes candidates, a critic scores them against the goal,
and the previous score plus the best-so-far flow back into the
generator before it proposes again. The loop stops on the first
satisfied exit bound. Attention rules and monitored node reads hook the
loop into the knowledge base without baking anything into stored
weights, so every rule is reversible.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .errors import NoCandidateError, UnknownLabelError

if TYPE_CHECKING:  # annotations only: scl-demo runs the loop without the index code
    from .kb import KnowledgeBase
    from .similarity import QueryScorer

Generator = Callable[["Feedback | None"], Any]
Critic = Callable[[Any], float]

EXIT_THRESHOLD = "threshold"
EXIT_ITERATIONS = "iterations"
EXIT_TIME = "time"
EXIT_EXHAUSTED = "exhausted"


class _ExitBounds(NamedTuple):
    max_iterations: int | None = None
    max_seconds: float | None = None
    score_threshold: float | None = None


class ExitCriteria(_ExitBounds):
    """Loop budget; at least one bound must be set, and each set bound must
    be able to trip: ValueError for a max_iterations that is not an int >= 1,
    a max_seconds that is not a finite number >= 0 or a NaN score_threshold
    (a bool is no number). _make, and so _replace, run the same checks."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        iterations, seconds, threshold = self
        if iterations is seconds is threshold is None:
            raise ValueError("at least one exit bound must be set")
        if iterations is not None and (type(iterations) is not int or iterations < 1):
            raise ValueError(f"max_iterations {iterations!r} is not an int >= 1")
        if seconds is not None and not (type(seconds) in (int, float) and 0 <= seconds < math.inf):
            raise ValueError(f"max_seconds {seconds!r} is not a finite number >= 0")
        if threshold is not None and (type(threshold) not in (int, float) or threshold != threshold):
            raise ValueError(f"score_threshold {threshold!r} is not a number")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Feedback(NamedTuple):
    """What the generator learns from the previous iteration."""

    iteration: int
    score: float
    best_score: float
    best: Any


class LoopReport(NamedTuple):
    best: Any
    best_score: float
    iterations: int
    exit_reason: str
    history: list[tuple[Any, float]]
    watch_log: list[tuple[int, str, float]]


def run(
    generator: Generator,
    critic: Critic,
    exit_criteria: ExitCriteria,
    watch: tuple[str, ...] | list[str] = (),
) -> LoopReport:
    """Iterate generate -> criticize -> feedback until an exit bound trips.

    The generator signals exhaustion by returning None; exhaustion before
    the first candidate is an error. Wall time is checked between
    iterations only, never mid-candidate, so reports are deterministic
    for a given generator/critic pair.
    """
    if watch and not hasattr(critic, "watch_values"):
        raise ValueError("watch labels given but the critic cannot read them")
    max_iterations, max_seconds, threshold = exit_criteria
    started = time.monotonic()
    history: list[tuple[Any, float]] = []
    watch_log: list[tuple[int, str, float]] = []
    best: Any = None
    best_score = float("-inf")
    feedback: Feedback | None = None
    iterations = 0
    while True:
        if max_iterations is not None and iterations >= max_iterations:
            reason = EXIT_ITERATIONS
            break
        if max_seconds is not None and iterations > 0 and time.monotonic() - started >= max_seconds:
            reason = EXIT_TIME
            break
        candidate = generator(feedback)
        if candidate is None:
            if iterations == 0:
                raise NoCandidateError("generator produced no candidate")
            reason = EXIT_EXHAUSTED
            break
        score = critic(candidate)
        iterations += 1
        history.append((candidate, score))
        if score > best_score:
            best, best_score = candidate, score
        if watch:
            for label, value in critic.watch_values(tuple(watch)).items():
                watch_log.append((iterations, label, value))
        feedback = Feedback(iterations, score, best_score, best)
        if threshold is not None and score >= threshold:
            reason = EXIT_THRESHOLD
            break
    return LoopReport(best, best_score, iterations, reason, history, watch_log)


def apply_rules(
    kb: KnowledgeBase, rules: dict[str, float]
) -> tuple[int, list[str]]:
    """Set attention multipliers by node label, atomically.

    A label may resolve at the word and the article level at once; both
    get the multiplier. Returns how many nodes were touched plus the
    labels that resolved to nothing (data, not an error). A multiplier
    that is not a finite number >= 0 (a bool included) raises ValueError
    before any rule applies.
    """
    from .kb import check_multiplier

    rules = {label: check_multiplier(value, f"rule {label!r}") for label, value in rules.items()}
    updated = dict(kb.attention)
    applied = 0
    unresolved = []
    for label, multiplier in rules.items():
        targets = [
            node_id
            for node_id in (kb.word_id(label), kb.article_id(label))
            if node_id is not None
        ]
        if not targets:
            unresolved.append(label)
            continue
        for node_id in targets:
            if multiplier == 1.0:
                updated.pop(node_id, None)
            else:
                updated[node_id] = multiplier
            applied += 1
    kb.attention = updated  # single reference swap: no torn snapshots
    return applied, unresolved


def watch_read(scorer: QueryScorer, labels: tuple[str, ...] | list[str]) -> dict[str, float]:
    """Read monitored node activations out of a query's scorer.

    Word labels report the query's emission * attention * weight; article
    labels report the article's forward activation (0.0 if the query does
    not reach it). A label matching both levels reads as the word.
    """
    kb = scorer.kb
    values: dict[str, float] = {}
    for label in labels:
        word_id = kb.word_id(label)
        if word_id is not None:
            emission = scorer.emission.bag.get(word_id, 0) / scorer.emission.length
            multiplier = scorer.attention.per_word.get(word_id, 1.0)
            values[label] = emission * multiplier * kb.weights((word_id,))[word_id]
            continue
        article_id = kb.article_id(label)
        if article_id is not None:
            values[label] = scorer.forward_map.value(kb.article(article_id))
            continue
        raise UnknownLabelError(f"label {label!r} resolves to no node")
    return values


def document_candidate_generator(scorer: QueryScorer, k: int, exclude_self: bool = False) -> Generator:
    """Generator enumerating a query's top-k candidates in forward order.

    Document comparison is the degenerate loop: candidates are existing
    articles, no composition needed, so the feedback goes unused.
    """
    pending = iter(scorer.candidates(k, exclude_self))

    def generate(feedback: Feedback | None):
        return next(pending, None)

    return generate


class DocumentCritic:
    """Critic scoring candidate articles with the similarity pipeline."""

    def __init__(self, scorer: QueryScorer):
        self.scorer = scorer

    def __call__(self, article_id: int) -> float:
        return self.scorer.score(article_id).percent

    def watch_values(self, labels: tuple[str, ...]) -> dict[str, float]:
        return watch_read(self.scorer, labels)
