"""Activation passes over the knowledge base: emit, collect and trace.

A source (an indexed article or ad-hoc text) emits activation over the
word layer, normalized by its own length: e(w) = tf(w) / len. Collection
then runs word -> article over posting lists:

    A(d) = m(d) * sum_w e(w) * m(w) * wt(w) * tf_d(w)

with m(.) the attention multipliers: kb.attention, or a per-call
attention= map checked as kb.set_attention checks a multiplier
(KnowledgeBase.attention_snapshot), so every term is >= 0. Emission
normalization makes the metric length-asymmetric on purpose: a short
text activates a long superset document more strongly than the reverse. activate is emit
followed by collect; scoring a query against a target, in both
directions, is similarity.QueryScorer's alone.

Each word's postings group article ordinals by term frequency, so a
word's term factor * tf is computed once per group. Collection sums the
terms exactly, in integers: every term is a float, so all terms of one
query are integer multiples of one power-of-two unit (see collect), and
each article's sum is one integer. collect visits the query's words by
weight, the commonest (least weight, largest df) first, ties in bag
order: the first word's terms are assigned to the sums, all still 0, and
every later word's terms are added. No article's sum exceeds bound, the
sum of each word's largest term, so one division of bound settles that
every sum divides into the float range; only when bound does not is the
largest sum found and divided. collect returns those integers as an
ActivationMap: an article's float value is made only when it is read,
by one int / int division that rounds correctly, the same value
math.fsum gives. Choosing the top k (ActivationMap.top) compares the
integers and divides only the sums it may keep, and top_values hands
those floats on, so a candidate's sum is divided once; iterating the
whole map, as activate's callers do, divides every activated article's
sum. The accumulator is local to the call: concurrent queries on one
knowledge base share no collect state, and an interrupted pass leaves
nothing behind (inserting articles while another thread queries is not
supported; the first pass after an insert writes the word weights). An
exact sum past the float range, or an infinite word factor (finite
attention multipliers near 1e308), raises UnscorableQueryError from
collect itself. Because the sums are exactly rounded, activation values
are bit-identical regardless of ingestion order, of the order or
partition of the summed terms, and of save/load cycles. Every other
activation, one bag's emission collected on another bag (collect_on_bag,
the reverse pass of similarity.QueryScorer, trace's per-member shares),
is one math.fsum over the words the two bags share (_bag_sum).

Sentences and paragraphs never modulate cross-document activation;
trace reads an article's runs, through kb.runs, only to attribute its
activation to them, by position (p2, p2.s3).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from operator import itemgetter

from .errors import EmptyDocumentError, MissingNodeError, UnscorableQueryError
from .ingest import tokenize
from .kb import ARTICLE, SENTENCE, WORD, Article, KnowledgeBase

Source = int | str  # article node id, or raw text


@dataclass(slots=True)
class Emission:
    """Word-layer activation of one source."""

    bag: dict[int, int]  # word id -> tf, KB words only; e(w) = tf/length
    length: int  # total source tokens, unknown ones included
    unknown_words: int  # distinct source tokens absent from the KB


@dataclass(slots=True)
class TraceEntry:
    """One word, sentence or paragraph's share of a document's activation.

    node_id is the word id at the word level and None above it. position
    is the 1-based (paragraph,) or (paragraph, sentence) of a paragraph or
    sentence inside the document, and () for a word.
    """

    node_id: int | None
    level: int
    contribution: float
    position: tuple[int, ...] = ()


def emit(kb: KnowledgeBase, source: Source) -> Emission:
    """Project a source onto the word layer.

    Text is tokenized by the knowledge base's rules (kb.tokenization).
    Unknown words contribute nothing and are only counted; external text
    is first-class, it does not need to be in the corpus.
    """
    if isinstance(source, int):
        article = kb.article(source)
        bag, length, unknown = dict(article.bag), article.length, 0
    else:
        tokens = tokenize(source, kb.tokenization)
        length = len(tokens)
        bag = {}
        missing = set()
        for token in tokens:
            word_id = kb.word_id(token)
            if word_id is None:
                missing.add(token)
            else:
                bag[word_id] = bag.get(word_id, 0) + 1
        unknown = len(missing)
    if length == 0:
        raise EmptyDocumentError("source is empty after segmentation")
    return Emission(bag, length, unknown)


def exact_sum(terms) -> float:
    """math.fsum; UnscorableQueryError when finite terms sum past the float range."""
    try:
        return math.fsum(terms)
    except OverflowError as exc:
        raise UnscorableQueryError() from exc


def _bag_sum(
    weights: dict[int, float],
    bag: dict[int, int],
    length: int,
    other: dict[int, int],
    attention: dict[int, float],
) -> float:
    """A bag's emission, tf/length per word, collected on another bag.

    One exact sum over the words the two bags share, walked from the
    smaller bag. Each term is tf/length * m(w) * wt(w) * other[w], always
    in that operand order, so every caller gets the same bits. weights
    (kb.weights) covers the words of one of the bags, the emission's in
    every call. EmptyDocumentError for length 0.
    """
    if length == 0:
        raise EmptyDocumentError("source is empty after segmentation")
    if len(bag) <= len(other):
        return exact_sum(
            tf / length * attention.get(w, 1.0) * weights[w] * other[w]
            for w, tf in bag.items()
            if w in other
        )
    return exact_sum(
        bag[w] / length * attention.get(w, 1.0) * weights[w] * tf
        for w, tf in other.items()
        if w in bag
    )


class ActivationMap(Mapping):
    """Article id -> forward activation, read off one query's integer sums.

    sums[ordinal] is an article's exact activation before its multiplier,
    in units of 1/scale. A value is made when it is read, as
    sums[ordinal] / scale * m(d): the int / int division is correctly
    rounded, so it equals the math.fsum of the article's terms. Articles
    whose value is 0.0 are absent (KeyError), and iteration follows
    article insertion order; len, ==, get and the views behave as those
    of a dict holding every value. Reading every item divides every
    activated article's sum; top(k) divides only the sums it may keep.
    """

    __slots__ = ("_kb", "sums", "scale", "_multipliers")

    def __init__(
        self, kb: KnowledgeBase, sums: list[int], scale: int, multipliers: dict[int, float]
    ):
        self._kb = kb
        self.sums = sums
        self.scale = scale
        self._multipliers = multipliers  # article ordinal -> m(d)

    def __getitem__(self, article_id: int) -> float:
        try:
            value = self.value(self._kb.article(article_id))
        except (MissingNodeError, ValueError):
            raise KeyError(article_id) from None
        if value == 0.0:
            raise KeyError(article_id)
        return value

    def value(self, article: Article) -> float:
        """An article record's value, 0.0 for one absent from the map."""
        ordinal = article.ordinal
        if ordinal < len(self.sums):
            return self.sums[ordinal] / self.scale * self._multipliers.get(ordinal, 1.0)
        return 0.0  # inserted after the collect

    def __iter__(self) -> Iterator[int]:
        scale, multipliers, articles = self.scale, self._multipliers, self._kb.articles
        # a nonzero sum is at least one unit, 1/scale >= 2**-1074, so its
        # value is 0.0 only through a multiplier: no other sum is divided
        for ordinal, units in enumerate(self.sums):
            if units and (
                ordinal not in multipliers or units / scale * multipliers[ordinal] != 0.0
            ):
                yield articles[ordinal].id

    def __len__(self) -> int:
        sums, scale = self.sums, self.scale
        count = len(sums) - sums.count(0)
        for ordinal, multiplier in self._multipliers.items():
            units = sums[ordinal]
            if units and units / scale * multiplier == 0.0:
                count -= 1
        return count

    def top(self, k: int) -> list[int]:
        """The ids of the k largest values, ties broken by label.

        A value without a multiplier is monotone in its sum. So with m
        the number of multiplied articles and t the (k+m)-th largest sum,
        at least k unmultiplied articles reach t, and an unmultiplied
        article can only be kept if its value reaches t's value,
        fl(t / scale); a smaller sum may round to that same float and
        win the tie on its label. Only the sums from the least one that
        rounds to fl(t / scale) up, and the multiplied articles, are
        divided and sorted. ValueError for a k that is not an int (a bool
        is not) or is below 1.
        """
        return [article.id for article, _, _ in self.top_values(k)]

    def top_values(self, k: int) -> list[tuple[Article, float, float]]:
        """top(k) as (article record, value before its multiplier, value) triples.

        value gives the same float, dividing again.
        """
        if type(k) is not int or k < 1:
            raise ValueError("need int k >= 1")
        sums, scale, multipliers = self.sums, self.scale, self._multipliers
        least = 1
        if k + len(multipliers) < len(sums):
            t = heapq.nlargest(k + len(multipliers), sums)[-1]
            if t:
                least = _least_rounding_to(t, scale)
        kept = {ordinal for ordinal, units in enumerate(sums) if units >= least}
        kept.update(multipliers)
        articles = self._kb.articles
        values = []
        for ordinal in kept:
            pre = sums[ordinal] / scale
            value = pre * multipliers.get(ordinal, 1.0)
            if value != 0.0:
                values.append((articles[ordinal], pre, value))
        values.sort(key=lambda item: (-item[2], item[0].label))
        return values[:k]


def _least_rounding_to(t: int, scale: int) -> int:
    """The least integer x with x / scale >= t / scale, both rounded to floats."""
    upper = t / scale
    a, b = upper.as_integer_ratio()
    c, d = math.nextafter(upper, 0.0).as_integer_ratio()
    # a value rounds to upper when it passes the midpoint of upper and the
    # float below it: x / scale >= (a/b + c/d) / 2, smallest x by ceiling
    x = -(-(a * d + c * b) * scale // (2 * b * d))
    if x / scale < upper:  # exactly on the midpoint, rounded to the even float below
        x += 1
    return x


def collect(
    kb: KnowledgeBase,
    emission: Emission,
    attention: dict[int, float] | None = None,
    workers: int = 1,
) -> ActivationMap:
    """Collect word activation up to the article layer via posting lists.

    Returns an ActivationMap over one exact integer sum per article;
    articles with zero activation are absent from it, the others follow
    article insertion order. The sum is exact, so no split of the terms
    could change it: workers is accepted for compatibility and the
    collection runs in one pass, weighing words by kb.weights, current after
    any insert. UnscorableQueryError for an infinite factor or a sum past
    the float range.
    """
    attention = kb.attention_snapshot(attention)
    bag, length = emission.bag, emission.length
    factors = []  # (wt(w), word id, e(w) * m(w) * wt(w)); zero factors drop out
    for word_id, weight in kb.weights(bag).items():
        factor = bag[word_id] / length * attention.get(word_id, 1.0) * weight
        if factor != 0.0:
            factors.append((weight, word_id, factor))
    # the commonest word first: wt(w) = ln(1 + D/df) falls as df grows, and
    # ties keep bag order
    factors.sort(key=itemgetter(0))
    postings = kb.postings
    try:
        # A float factor is n / 2**k (as_integer_ratio). A term factor * tf,
        # tf >= 1, is at least factor: either exact, hence a multiple of
        # 2**-k, or rounded, which takes more than 53 significant bits above
        # 2**-k and so lands on a coarser grid. Every term of the query is
        # thus a whole number of units 1/scale, scale the largest factor
        # denominator, and the sums below are exact integers.
        # OverflowError: an infinite factor or term.
        scale = max((factor.as_integer_ratio()[1] for _, _, factor in factors), default=1)
        sums = [0] * len(kb.articles)
        # an article sits in one tf group per word, so the first word's
        # terms are assigned to sums that are all still 0, and bound, the
        # sum of each word's largest term, is at least every article's sum
        bound = 0
        for position, (_, word_id, factor) in enumerate(factors):
            largest = 0
            for tf, ordinals in postings[word_id].items():
                n, d = (factor * tf).as_integer_ratio()
                units = n * (scale // d)
                if units > largest:
                    largest = units
                if position:
                    for ordinal in ordinals:
                        sums[ordinal] += units
                else:
                    for ordinal in ordinals:
                        sums[ordinal] = units
            bound += largest
        # every sum is >= 0, so if the largest divides into the float range
        # (OverflowError otherwise), so does every other; bound stands in
        # for it, and the exact largest is found only when bound does not
        try:
            bound / scale
        except OverflowError:
            max(sums) / scale
    except OverflowError as exc:
        raise UnscorableQueryError() from exc
    multipliers = {}
    for node_id, multiplier in attention.items():
        try:
            multipliers[kb.article(node_id).ordinal] = multiplier
        except (MissingNodeError, ValueError):
            pass  # a word's multiplier, already in its factor
    return ActivationMap(kb, sums, scale, multipliers)


def collect_on_bag(
    kb: KnowledgeBase,
    emission: Emission,
    bag: dict[int, int],
    attention: dict[int, float] | None = None,
) -> float:
    """Collect an emission against one explicit token bag."""
    attention = kb.attention_snapshot(attention)
    return _bag_sum(kb.weights(emission.bag), emission.bag, emission.length, bag, attention)


def activate(
    kb: KnowledgeBase, source: Source, attention: dict[int, float] | None = None
) -> dict[int, float]:
    """Article activation map for a source (emit + collect)."""
    return collect(kb, emit(kb, source), attention)


def trace(
    kb: KnowledgeBase,
    source: Source,
    article_id: int,
    level: int,
    top_n: int,
    attention: dict[int, float] | None = None,
) -> list[TraceEntry]:
    """Attribute a document's activation to its words, sentences or paragraphs.

    Contributions at any level sum to the document's activation (before
    the article's own attention multiplier). Ties break by token at the
    word level, which is word id order in a loaded index, and by position
    in the document above it. ValueError for a level or top_n that is
    not an int (a bool is not), a level not below ARTICLE or top_n < 1.
    """
    article = kb.article(article_id)
    if type(level) is not int or not WORD <= level < ARTICLE:
        raise ValueError("trace level must be an int below the article level")
    if type(top_n) is not int or top_n < 1:
        raise ValueError("need int top_n >= 1")
    attention = kb.attention_snapshot(attention)
    emission = emit(kb, source)
    weights = kb.weights(emission.bag)

    if level == WORD:
        nodes = kb.nodes
        members = [
            (word_id, (), [(word_id, count)])
            for word_id, count in sorted(article.bag.items(), key=lambda item: nodes[item[0]].label)
        ]
    else:
        members = []
        for p, paragraph in enumerate(kb.runs(article_id), start=1):
            sentences = [[(kb.word_id(token), n) for token, n in runs] for runs in paragraph]
            if level == SENTENCE:
                members.extend((None, (p, s), runs) for s, runs in enumerate(sentences, start=1))
            else:
                members.append((None, (p,), [run for runs in sentences for run in runs]))
    entries = []
    for node_id, position, runs in members:
        bag: dict[int, int] = {}
        for word_id, count in runs:
            bag[word_id] = bag.get(word_id, 0) + count
        contribution = _bag_sum(weights, emission.bag, emission.length, bag, attention)
        entries.append(TraceEntry(node_id, level, contribution, position))
    entries.sort(key=lambda entry: -entry.contribution)  # stable: ties keep member order
    return entries[:top_n]
