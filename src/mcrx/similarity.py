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
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import fsum

from .activation import (
    ActivationPass,
    Source,
    collect,
    collect_on_bag,
    emit,
)
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
    article_id: int
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
    """One query's passes, reusable across candidates.

    Builds the forward activation map and the self score once; score()
    then runs only the candidate's reverse pass.
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
        self.source_article = query if isinstance(query, int) else None
        self.emission = emit(kb, query, rules)
        self.forward_map = collect(kb, self.emission, self.attention)
        self.self_activation = collect_on_bag(
            kb, self.emission, self.emission.bag, self.attention
        )
        if self.self_activation == 0.0:
            raise UnscorableQueryError(self.emission.unknown_words)
        self.self_raw = combine(self.self_activation, self.self_activation)
        if self.self_raw <= 0:
            raise UnscorableQueryError(self.emission.unknown_words)

    @property
    def activation_pass(self) -> ActivationPass:
        return ActivationPass(self.emission, self.forward_map, self.attention)

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

    def score(self, article_id: int) -> RankedResult:
        """Score one article; MissingNodeError or ValueError if it is none."""
        kb = self.kb
        node = kb.node(article_id)
        if node.level != kb.top_level:
            raise ValueError(f"node {article_id} is not an article")
        if not kb.weights_computed:
            raise StaleWeightsError("compute weights before running activation")
        forward = self.forward_map.get(article_id, 0.0)
        reverse = self._reverse(article_id)
        raw = combine(reverse, forward)
        return RankedResult(
            article_id=article_id,
            label=node.label or "",
            title=kb.title(article_id),
            percent=normalize(raw, self.self_raw),
            raw=raw,
            reverse=reverse,
            forward=forward,
        )

    def _reverse(self, article_id: int) -> float:
        """The article's emission collected on the query bag, in one fsum.

        Each term is tf_d/len_d * m(w) * wt(w) * tf_q, the same operands in
        the same order as emit + collect_on_bag, so the value is identical.
        """
        bag = self.kb.article_bags[article_id]
        length = self.kb.article_len[article_id]
        if length == 0:
            raise EmptyDocumentError("source is empty after segmentation")
        query_bag = self.emission.bag
        attention = self.attention
        nodes = self.kb.nodes
        if len(bag) <= len(query_bag):
            return fsum(
                tf_d / length * attention.get(w, 1.0) * nodes[w].weight * query_bag[w]
                for w, tf_d in bag.items()
                if w in query_bag
            )
        return fsum(
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
