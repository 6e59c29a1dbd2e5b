"""Asymmetric document similarity: candidates, combination, ranking.

The forward pass activates the whole corpus from the query and the
best-activated articles become candidates. The forward values stay
collect's exact integer sums (activation.ActivationMap), where an
article is activated exactly when its sum is not 0: a heap finds the cut
on the integers, and only the articles at or above it, plus the
activated ones with an article multiplier, are divided into floats and
sorted (ActivationMap.top_values); the candidates' estimates and scores
read those floats back.
Each candidate is then re-scored in reverse (its own emission collected
on the query's token bag) by activation._bag_sum, straight from the
article's bag and length: one exact sum over the words the article and
the query share, walked from the smaller of the two bags. The two
directions fold into one raw score that is linear in the reverse
direction and logarithmic in the forward one. Raw scores are reported
as a percentage of the query's self score, so querying a document's own
text scores exactly 100.

Only the candidates that can reach the best n are scored in reverse.
With X = sum_w tf_q * m(w) * wt(w) * tf_d over the words a candidate
shares with the query, collect's sum before m(d) is pre = X / len_q and
the reverse pass is X / len_d. So raw~ = pre * len_q / len_d *
ln(1 + forward) estimates each candidate's raw score from numbers the
forward pass already holds, and is off by a few roundings only. The
slack that covers them is derived beside QueryScorer._estimates; a
candidate whose raw~ cannot reach the n-th largest raw~ within it
provably ranks below n scored ones and is never scored. Where the
derivation's precondition fails (an intermediate underflow, or a bound
past the float range), every candidate is scored.

QueryScorer is the one place a (query, target) pair is scored: rank,
the solution-critic loop's DocumentCritic and `mcrx compare` all read
it. A target is an indexed article or a text; a text is scored the same
way, its forward value collected on its own bag with no article
multiplier. An index without articles raises EmptyIndexError; a query
sharing no indexed word, or a score past the float range (huge attention
multipliers), raises UnscorableQueryError.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .activation import Source, _bag_sum, collect, collect_on_bag, emit
from .errors import EmptyIndexError, UnscorableQueryError
from .kb import Article, Attention, KnowledgeBase, render_real

DEFAULT_CANDIDATES = 100
DEFAULT_RESULTS = 10

# QueryScorer.top's bound: the slack eps, derived beside _estimates, and
# the range its precondition keeps every bound in
_SLACK = 2.0**-48
_TINY = 2.0**-1000
_HUGE = 2.0**1000


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
    its bag for a text target. Text is tokenized by the knowledge base's
    rules.
    """

    def __init__(
        self, kb: KnowledgeBase, query: Source, attention: dict[int, float] | Attention | None = None
    ):
        if kb.article_count == 0:
            raise EmptyIndexError("the index holds no documents")
        self.kb = kb
        self.attention = kb.attention_snapshot(attention)
        self.source_article = query if isinstance(query, int) else None
        self.emission = emit(kb, query)
        self.forward_map = collect(kb, self.emission, self.attention)
        self.weights = kb.weights(self.emission.bag)  # for the reverse passes
        self.self_activation = collect_on_bag(
            kb, self.emission, self.emission.bag, self.attention
        )
        # article id -> (its record, forward value before its multiplier,
        # forward value) for each candidate so far
        self._kept: dict[int, tuple[Article, float, float]] = {}
        if self.self_activation == 0.0:
            raise UnscorableQueryError(self.emission.unknown_words)
        self.self_raw = combine(self.self_activation, self.self_activation)
        if not 0 < self.self_raw < math.inf:
            raise UnscorableQueryError()

    def candidates(self, k: int, exclude_self: bool = True) -> list[int]:
        """Top-k articles by forward activation; ties break by label.

        Raises ValueError for k < 1.
        """
        top = self.forward_map.top_values(k)
        if exclude_self and self.source_article is not None:
            top = [item for item in top if item[0].id != self.source_article]
        # score and _estimates read these floats back instead of dividing again
        self._kept.update((item[0].id, item) for item in top)
        return [article.id for article, _, _ in top]

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
            article = kb.article(target)
            article_id, label, title = target, article.label, kb.title(target)
            bag, length = article.bag, article.length
            kept = self._kept.get(target)
            forward = self.forward_map.value(article) if kept is None else kept[2]
        else:
            emission = emit(kb, target)
            article_id, label, title = None, "", ""
            bag, length = emission.bag, emission.length
            forward = collect_on_bag(kb, self.emission, bag, self.attention)
        reverse = _bag_sum(self.weights, bag, length, self.emission.bag, self.attention)
        raw = combine(reverse, forward)
        percent = normalize(raw, self.self_raw)
        if not percent < math.inf:  # inf, or NaN from inf * ln(1 + 0)
            raise UnscorableQueryError()
        return RankedResult(article_id, label, title, percent, raw, reverse, forward)

    def top(self, k: int, n: int, exclude_self: bool = True) -> list[RankedResult]:
        """The best n of the top-k candidates by percent, ties by label.

        Only the candidates whose estimated raw score can reach the n-th
        largest estimate are scored (see _estimates); the others rank
        below n scored ones, so the result is that of scoring all k.
        """
        check_cut(k, n)
        candidates = self.candidates(k, exclude_self)
        # one candidate past n is scored too: bench/test_bench.py's span
        # test counts two score calls at k = 2, n = 1
        if len(candidates) > n + 1:
            estimates = self._estimates(candidates)
            if estimates is not None:
                candidates = [candidates[i] for i in _within_reach(estimates, n)]
        results = [self.score(c) for c in candidates]
        results.sort(key=lambda result: (-result.percent, result.label))
        return results[:n]

    # raw~ = pre * len_q / len_d * log1p(f) against score's raw =
    # reverse * log1p(f). f is the forward value score uses, so log1p(f)
    # is the same float on both sides and its own error cancels. Without
    # underflow or overflow each rounding errs by a factor (1 + d), |d| <= u
    # = 2**-53, and every term is >= 0, so a sum of rounded terms errs by
    # at most its worst term's factor. Against V = X / len_d * log1p(f):
    #   - a forward term tf_q/len_q * m(w) * wt(w) * tf_d and a reverse
    #     term tf_d/len_d * m(w) * wt(w) * tf_q carry 4 roundings each;
    #   - the exact sums add one each: pre's int / int, reverse's fsum;
    #   - raw~ adds 3 (* len_q, / len_d, * log1p), raw 1 (combine), and
    #     percent = 100 * (raw / self_raw) 2 more.
    # So raw~ and raw are within about 14u of each other, and raw~ and
    # percent * self_raw / 100 are each within 8u of V. A candidate is
    # skipped when fl(raw~ * (1 + eps)) < fl(t * (1 - eps)), t the n-th
    # largest raw~ (2 more roundings). Its percent is then strictly below
    # that of each candidate whose raw~ reaches t, at least n of them, when
    #   (1 + 8u)**2 * (1 + u) / ((1 - 8u)**2 * (1 - u)) <= (1 + eps) / (1 - eps),
    # that is 34u <= 2 eps to first order: eps >= 17u. eps = 2**-48 = 32u
    # covers the higher-order terms. Strictly below, so no label can bring
    # a skipped candidate back, and ties at t are all scored.
    #
    # The precondition, checked here: every query word's m(w) is 0 or at least
    # 2**-1000 times the longest length in play, so as wt(w) = ln(1 + D/df) >=
    # ln 2, every factor and term on either side is 0 or a normal float; every
    # reverse estimate is at most 2**1000, so no reverse term or sum overflows;
    # and every raw~ is at least 2**-1000 times both 1 and self_raw, so raw and
    # percent stay normal. Neither overflows: raw~ < 2**1000 * log1p(2**1024),
    # and raw / self_raw < 710 * len_q / log1p(s) < 2**600, as a reverse term is
    # at most len_q times its self term and s, the self activation, exceeds
    # 2**-537 for self_raw = s * log1p(s) > 0. Else all candidates are scored.
    def _estimates(self, candidates: list[int]) -> list[float] | None:
        """raw~ per candidate, ids that candidates gave, or None where the bound does not hold."""
        attention, emission = self.attention.per_word, self.emission
        kept = [self._kept[c] for c in candidates]
        floor = _TINY * max(emission.length, max(item[0].length for item in kept))
        for word_id in self.weights:
            if 0.0 < attention.get(word_id, 1.0) < floor:
                return None
        low = _TINY * max(1.0, self.self_raw)
        length, log1p = emission.length, math.log1p
        estimates = []
        # forward is the float score reads
        for article, pre, forward in kept:
            reverse = pre * length / article.length
            raw = reverse * log1p(forward)
            if not (reverse <= _HUGE and low <= raw):
                return None
            estimates.append(raw)
        return estimates


def _within_reach(estimates: list[float], n: int) -> list[int]:
    """Indexes of the estimates that can reach the n-th largest, ties included."""
    reach = heapq.nlargest(n, estimates)[-1] * (1 - _SLACK)
    return [i for i, raw in enumerate(estimates) if raw * (1 + _SLACK) >= reach]


def check_cut(k: int, n: int) -> None:
    """Reject a candidate cut k or a result count n out of range or not an int (a bool is not)."""
    if type(k) is not int or type(n) is not int or k < n or n < 1:
        raise ValueError("need int k >= n >= 1")


def rank(
    kb: KnowledgeBase,
    query: Source,
    k: int = DEFAULT_CANDIDATES,
    n: int = DEFAULT_RESULTS,
    exclude_self: bool = True,
    attention: dict[int, float] | Attention | None = None,
) -> list[RankedResult]:
    """Ranked retrieval for one query.

    Forward pass, top-k candidate cut, reverse pass per candidate,
    combination, normalization to the query's self score, then the best
    n results sorted by percent (ties by label).
    """
    check_cut(k, n)
    scorer = QueryScorer(kb, query, attention)
    return scorer.top(k, n, exclude_self)


# backslash, tab, and every line boundary str.splitlines knows
_ESCAPES = str.maketrans(
    {
        "\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r",
        "\x0b": "\\x0b", "\x0c": "\\x0c", "\x1c": "\\x1c", "\x1d": "\\x1d",
        "\x1e": "\\x1e", "\x85": "\\x85", "\u2028": "\\u2028", "\u2029": "\\u2029",
    }
)


def escape_field(text: str) -> str:
    """text on one line, without tabs.

    Backslash, tab, LF and CR become \\\\, \\t, \\n and \\r; the other line
    boundaries of str.splitlines become \\x0b, \\x0c, \\x1c, \\x1d, \\x1e,
    \\x85, \\u2028 and \\u2029.
    """
    return text.translate(_ESCAPES)


def results_to_tsv(results: list[RankedResult]) -> str:
    """One line per result: rank, id, title (escape_field), percent, reverse, forward."""
    lines = []
    for position, result in enumerate(results, start=1):
        lines.append(
            "\t".join(
                (
                    str(position),
                    escape_field(result.label),
                    escape_field(result.title),
                    render_real(result.percent),
                    render_real(result.reverse),
                    render_real(result.forward),
                )
            )
        )
    return "\n".join(lines)
