"""Asymmetric document similarity: candidates, combination, ranking.

The forward pass activates the whole corpus from the query and the
best-activated articles become candidates: a heap finds the k-th
largest activation and only the articles at or above it are sorted.
Each candidate is then re-scored in reverse (its own emission collected
on the query's token bag), as one exact sum over the words the article
and the query share, walked from the smaller of the two bags. The two
directions fold into one raw score that is linear in the reverse
direction and logarithmic in the forward one. Raw scores are reported
as a percentage of the query's self score, so querying a document's own
text scores exactly 100.

QueryScorer is the one place a (query, target) pair is scored: rank,
the solution-critic loop's DocumentCritic and `mcrx compare` all read
it. A target is an indexed article or a text; a text is scored the same
way, its forward value collected on its own bag with no article
multiplier. A query sharing no indexed word, or a score past the float
range (huge attention multipliers), raises UnscorableQueryError.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .activation import Source, collect, collect_on_bag, emit, exact_sum
from .errors import (
    EmptyDocumentError,
    EmptyIndexError,
    StaleWeightsError,
    UnscorableQueryError,
)
from .ingest import DEFAULT_RULES, TokenizationRules
from .kb import KnowledgeBase, render_real

DEFAULT_CANDIDATES = 100
DEFAULT_RESULTS = 10


@dataclass(slots=True)
class RankedResult:
    article_id: int | None  # None for a text target
    label: str
    title: str
    percent: float
    raw: float
    reverse: float  # candidate-to-query activation, weighted linearly
    forward: float  # query-to-candidate activation, damped by ln(1+x)


def combine(reverse: float, forward: float) -> float:
    """Fold the two directional activations into one raw score.

    reverse * ln(1 + forward): zero at forward 0, monotone in both
    directions, and deliberately favoring the reverse direction.
    """
    return reverse * math.log1p(forward)


def normalize(raw: float, self_raw: float) -> float:
    """Express a raw score as a percentage of the query's self score."""
    if self_raw <= 0:
        raise UnscorableQueryError()
    # divide first: raw == self_raw then gives exactly 1.0, hence 100.0
    return 100.0 * (raw / self_raw)


class QueryScorer:
    """One query's passes, reusable across targets.

    Builds the forward activation map and the self score once; score()
    then runs only the target's reverse pass, plus the forward pass on
    its bag for a text target.
    """

    def __init__(
        self,
        kb: KnowledgeBase,
        query: Source,
        attention: dict[int, float] | None = None,
        rules: TokenizationRules = DEFAULT_RULES,
    ):
        self.kb = kb
        self.attention = (
            kb.attention_snapshot() if attention is None else dict(attention)
        )
        self.rules = rules
        self.source_article = query if isinstance(query, int) else None
        self.emission = emit(kb, query, rules)
        self.forward_map = collect(kb, self.emission, self.attention)
        self.self_activation = collect_on_bag(
            kb, self.emission, self.emission.bag, self.attention
        )
        if self.self_activation == 0.0:
            raise UnscorableQueryError(self.emission.unknown_words)
        self.self_raw = combine(self.self_activation, self.self_activation)
        if not 0 < self.self_raw < math.inf:
            raise UnscorableQueryError()

    def candidates(self, k: int, exclude_self: bool = True) -> list[int]:
        """Top-k articles by forward activation; ties break by label.

        Raises ValueError for k < 1.
        """
        if k < 1:
            raise ValueError("need k >= 1")
        items = self.forward_map.items()
        if k < len(self.forward_map):
            cut = heapq.nlargest(k, self.forward_map.values())[-1]
            items = [item for item in items if item[1] >= cut]
        nodes = self.kb.nodes
        ranked = sorted(items, key=lambda item: (-item[1], nodes[item[0]].label))
        top = [article_id for article_id, _ in ranked[:k]]
        if exclude_self and self.source_article is not None:
            top = [a for a in top if a != self.source_article]
        return top

    def score(self, target: Source) -> RankedResult:
        """Score an article id or a text against the query.

        forward is the query's activation of the target, times the
        target's own multiplier if it is an article; reverse is the
        target's activation of the query bag. MissingNodeError or
        ValueError for an id that is no article; UnscorableQueryError for
        a score past the float range.
        """
        kb = self.kb
        if isinstance(target, int):
            node = kb.node(target)
            if node.level != kb.top_level:
                raise ValueError(f"node {target} is not an article")
            if not kb.weights_computed:
                raise StaleWeightsError("compute weights before running activation")
            article_id, label, title = target, node.label or "", kb.title(target)
            bag, length = kb.article_bags[target], kb.article_len[target]
            forward = self.forward_map.get(target, 0.0)
        else:
            emission = emit(kb, target, self.rules)
            article_id, label, title = None, "", ""
            bag, length = emission.bag, emission.length
            forward = collect_on_bag(kb, self.emission, bag, self.attention)
        reverse = self._reverse(bag, length)
        raw = combine(reverse, forward)
        percent = normalize(raw, self.self_raw)
        if not percent < math.inf:  # inf, or NaN from inf * ln(1 + 0)
            raise UnscorableQueryError()
        return RankedResult(article_id, label, title, percent, raw, reverse, forward)

    def _reverse(self, bag: dict[int, int], length: int) -> float:
        """A target's emission, from its bag and length, collected on the query bag.

        One fsum; each term is tf_d/len_d * m(w) * wt(w) * tf_q, the same
        operands in the same order as emit + collect_on_bag, so the value
        is identical.
        """
        if length == 0:
            raise EmptyDocumentError("source is empty after segmentation")
        query_bag = self.emission.bag
        attention = self.attention
        nodes = self.kb.nodes
        if len(bag) <= len(query_bag):
            return exact_sum(
                tf_d / length * attention.get(w, 1.0) * nodes[w].weight * query_bag[w]
                for w, tf_d in bag.items()
                if w in query_bag
            )
        return exact_sum(
            bag[w] / length * attention.get(w, 1.0) * nodes[w].weight * tf_q
            for w, tf_q in query_bag.items()
            if w in bag
        )

    def top(self, k: int, n: int, exclude_self: bool = True) -> list[RankedResult]:
        """Score the top-k candidates; the best n by percent, ties by label."""
        check_cut(k, n)
        results = [self.score(c) for c in self.candidates(k, exclude_self)]
        results.sort(key=lambda result: (-result.percent, result.label))
        return results[:n]


def check_cut(k: int, n: int) -> None:
    """Reject a candidate cut k or a result count n out of range."""
    if k < n or n < 1:
        raise ValueError("need k >= n >= 1")


def rank(
    kb: KnowledgeBase,
    query: Source,
    k: int = DEFAULT_CANDIDATES,
    n: int = DEFAULT_RESULTS,
    exclude_self: bool = True,
    attention: dict[int, float] | None = None,
    rules: TokenizationRules = DEFAULT_RULES,
) -> list[RankedResult]:
    """Ranked retrieval for one query.

    Forward pass, top-k candidate cut, reverse pass per candidate,
    combination, normalization to the query's self score, then the best
    n results sorted by percent (ties by label).
    """
    check_cut(k, n)
    if kb.article_count == 0:
        raise EmptyIndexError("the index holds no documents")
    scorer = QueryScorer(kb, query, attention, rules)
    return scorer.top(k, n, exclude_self)


def results_to_tsv(results: list[RankedResult]) -> str:
    """Machine-readable results: rank, id, title, percent, reverse, forward."""
    lines = []
    for position, result in enumerate(results, start=1):
        lines.append(
            "\t".join(
                (
                    str(position),
                    result.label,
                    result.title,
                    render_real(result.percent),
                    render_real(result.reverse),
                    render_real(result.forward),
                )
            )
        )
    return "\n".join(lines)
