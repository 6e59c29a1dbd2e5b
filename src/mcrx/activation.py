"""Activation passes over the knowledge base: emit, collect and trace.

A source (an indexed article or ad-hoc text) emits activation over the
word layer, normalized by its own length: e(w) = tf(w) / len. Collection
then runs word -> article over posting lists:

    A(d) = m(d) * sum_w e(w) * m(w) * wt(w) * tf_d(w)

with m(.) the attention multipliers, so every term is >= 0: kb.attention, or a
per-call attention= map checked once per query as kb.set_attention checks a
multiplier, split by level into a read-only Attention record that a pass handed
it uses unchecked (KnowledgeBase.attention_snapshot). Emission normalization
makes the metric length-asymmetric on purpose: a short text activates a long
superset document more strongly than the reverse. activate is emit followed by
collect; scoring a query against a target, both ways, is similarity.QueryScorer's.

Each word's postings group article ordinals by term frequency, so a
word's term factor * tf is computed once per group. collect visits the
query's words by weight, the commonest (least weight, largest df) first,
ties in bag order: the first word's terms are assigned to the sums, all
still 0.0, and every later word's terms are added, in floats. These
float sums only choose; the float pass never yields a reported value.
Every value an ActivationMap hands out is one math.fsum over the words
an article shares with the query of factor(w) * tf_d(w), the exactly
rounded sum in _bag_sum's operand order, times m(d). A float sum of n
terms lies within a relative gamma_(n-1) of the exact sum (_gamma), so
each value lies within a derived band of its float sum (_band), and
choosing the top k (ActivationMap.top_articles) sums exactly only the
articles whose bands overlap a neighbour's; a scored candidate's value
is summed exactly when it is read, and activate sums every activated
article, gathering the terms in one pass over the query words' postings
(ActivationMap.as_dict). For one or two query words the float
sums are the exactly rounded ones already. No article's sum exceeds
bound, the float sum of each word's largest term, so a bound well inside
the float range settles that no sum leaves it; only past that bound is
every activated article summed exactly, and then the map holds those
exact sums. collect zeroes the sum of every article whose multiplier
makes its value 0.0, so an article is activated exactly when its sum is
not 0. The accumulator is local to the call: concurrent queries on one
knowledge base share no collect state, and an interrupted pass leaves
nothing behind (inserting articles while another thread queries is not
supported; the first pass after an insert writes the word weights). An
exact sum past the float range, or an infinite word factor (finite
attention multipliers near 1e308), raises UnscorableQueryError from
collect itself. Because the values are exactly rounded sums, they are
bit-identical regardless of ingestion order, of the order or partition
of the summed terms, and of save/load cycles. Every other activation,
one bag's emission collected on another bag (collect_on_bag, the
reverse pass of similarity.QueryScorer, trace's per-member shares), is
one math.fsum over the words the two bags share (_bag_sum).

Sentences and paragraphs never modulate cross-document activation;
trace reads an article's runs, through kb.runs, only to attribute its
activation to them, by position (p2, p2.s3).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import attrgetter, lt, mul

from .errors import EmptyDocumentError, UnscorableQueryError
from .ingest import tokenize
from .kb import ARTICLE, SENTENCE, WORD, Article, Attention, KnowledgeBase

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
    attention: Attention,
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
    words = attention.per_word
    if len(bag) <= len(other):
        return exact_sum(
            tf / length * words.get(w, 1.0) * weights[w] * other[w]
            for w, tf in bag.items()
            if w in other
        )
    return exact_sum(
        bag[w] / length * words.get(w, 1.0) * weights[w] * tf
        for w, tf in other.items()
        if w in bag
    )


_U = 2.0**-53  # the unit roundoff of a float
_BIG = 2.0**1020  # collect's bound on the float sums, far enough from the float range
_LEAST = math.ulp(0.0)  # the least positive float: top_articles' cut keeps every activated sum


def _gamma(n: int) -> float:
    """gamma = (n - 1) u / (1 - (n - 1) u), u = 2**-53: the relative error of a float sum.

    A float sum s of n nonnegative terms, added left to right, errs from their
    exact sum S by at most gamma * S (Higham, "The accuracy of floating point
    summation", SIAM J. Sci. Comput. 1993). Additions never lose a subnormal,
    so this holds down to the least float.
    """
    return (n - 1) * _U / (1 - (n - 1) * _U)


def _band(n: int) -> float:
    """The relative half-width w of a value about its float sum, for n factors.

    The value v = fl(S) rounds the exact sum S once more, |v - S| <= u * S (S
    is a multiple of the least float, so a subnormal S is exact). So
    s(1 - u) / (1 + gamma) <= v <= s(1 + u) / (1 - gamma), and v lies within
    w = (gamma + u) / (1 - gamma) of s either way. The u is needed: the terms
    1, u, u, u add to s = 1, each addition a tie rounded to the even 1, while
    v = fl(1 + 3u) = 1 + 4u, past gamma / (1 - gamma) = 3u / (1 - 6u). One
    term, or two (one correctly rounded addition), is the exactly rounded sum
    already: w = 0.
    """
    if n <= 2:
        return 0.0
    gamma = _gamma(n)
    return (gamma + _U) / (1 - gamma)


class ActivationMap:
    """One query's forward activation: collect's float sums and the words' factors.

    sums[ordinal] is an article's float sum before its multiplier m(d) =
    multipliers[ordinal], the query's terms added in collect's order; it is
    0.0 exactly when the article is not activated. factors maps each word id
    the query shares with the index to its term factor e(w) * m(w) * wt(w),
    zero factors left out. The float sums only choose: every value the map
    hands out (value, as_dict, top_articles' order) is one math.fsum of
    factor(w) * tf_d(w) over the words an article shares with the query,
    times m(d), the bits of _bag_sum's forward direction. band is the
    relative half-width w (_band) about a float sum within which its value
    lies; 0.0 when the sums are the exactly rounded ones. len counts the
    activated articles, and == compares sums, factors and multipliers.
    """

    __slots__ = ("_kb", "sums", "factors", "multipliers", "band")

    def __init__(
        self,
        kb: KnowledgeBase,
        sums: list[float],
        factors: dict[int, float],
        multipliers: dict[int, float],
        band: float,
    ):
        self._kb = kb
        self.sums = sums
        self.factors = factors
        self.multipliers = multipliers  # article ordinal -> m(d), activated articles only
        self.band = band

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivationMap):
            return NotImplemented
        fields = attrgetter("sums", "factors", "multipliers")
        return fields(self) == fields(other)

    def __len__(self) -> int:
        return len(self.sums) - self.sums.count(0.0)

    def _pre(self, ordinal: int) -> float:
        """An activated article's exactly rounded value before its multiplier."""
        if not self.band:
            return self.sums[ordinal]
        return _shared_sum(self.factors, self._kb.articles[ordinal].bag)

    def _pres(self) -> list[float]:
        """Every article's exactly rounded value before its multiplier, by ordinal.

        0.0 where an article is not activated. One pass over the query words'
        postings gathers each article's terms factor * tf, so every posting is
        visited once, and one exact sum per activated article follows.
        """
        sums = self.sums
        if not self.band:
            return sums
        terms: list[list[float]] = [[] for _ in self._kb.articles]
        postings = self._kb.postings
        for word_id, factor in self.factors.items():
            for tf, ordinals in postings[word_id].items():
                term = factor * tf
                for ordinal in ordinals:
                    terms[ordinal].append(term)
        return [exact_sum(terms[ordinal]) if total else 0.0 for ordinal, total in enumerate(sums)]

    def value(self, article: Article) -> float:
        """An article record's value, 0.0 for one that is not activated."""
        ordinal = article.ordinal
        if ordinal < len(self.sums) and self.sums[ordinal]:
            return self._pre(ordinal) * self.multipliers.get(ordinal, 1.0)
        return 0.0  # not activated, or inserted after the collect

    def as_dict(self) -> dict[int, float]:
        """Article id -> value of every activated article, in insertion order."""
        multipliers, articles, pres = self.multipliers, self._kb.articles, self._pres()
        return {
            articles[ordinal].id: pres[ordinal] * multipliers.get(ordinal, 1.0)
            for ordinal, total in enumerate(self.sums)
            if total
        }

    def top_articles(self, k: int) -> list[Article]:
        """The article records of the k largest values, ties broken by label.
        ValueError for a k that is not an int (a bool is not) or is below 1.

        Every value lies in the interval [x(1 - w), x(1 + w)] about its key x:
        the float sum, or the exact value of a multiplied article. With c <=
        (1 - w) / ((1 + w)(1 + u)), a key y < fl(x * c) has a value strictly
        below x's: y(1 + w) < x(1 - w) when fl(x * c) is normal, and below
        that y is subnormal, so its value is y itself, while fl(x * c) is at
        most x's value, a float at least x(1 - w) > x * c. c = 1 - 2(w + u)
        is such a c, its own roundings included (1 - 2w - u is below the
        bound), and c = 1 where w = 0. With m the number of multiplied
        articles and t the (k+m)-th largest float sum (the least, if there
        are no more), at least k articles without a multiplier reach t, so an
        article whose sum is below fl(t * c) ranks below k of them. The rest
        are sorted by key and split where a key falls below fl(previous * c):
        each run of overlapping intervals ranks wholly above the next, and
        only a run of two or more is made exact and sorted by (-value, label).
        """
        if type(k) is not int or k < 1:
            raise ValueError("need int k >= 1")
        sums, multipliers, band, pre = self.sums, self.multipliers, self.band, self._pre
        c = 1 - 2 * (band + _U) if band else 1.0
        t = min(heapq.nlargest(k + len(multipliers), sums), default=0.0)
        cut = t * c if t else _LEAST
        kept = [ordinal for ordinal, total in enumerate(sums) if total >= cut]
        key = sums.__getitem__
        if multipliers:
            keys = dict(zip(kept, map(key, kept)))
            keys.update((ordinal, pre(ordinal) * m) for ordinal, m in multipliers.items())
            kept, key = list(keys), keys.__getitem__
        kept.sort(key=key, reverse=True)
        keyed = list(map(key, kept))
        # a run starts where a key falls below fl(previous key * c)
        starts = compress(range(1, len(keyed)), map(lt, keyed[1:], map(mul, keyed, repeat(c))))
        articles = self._kb.articles
        top = []
        start = 0
        for end in (*starts, len(keyed)):
            if end - start == 1:
                top.append(articles[kept[start]])
            else:
                run = kept[start:end]
                exact = {ordinal: pre(ordinal) * multipliers.get(ordinal, 1.0) for ordinal in run}
                run.sort(key=lambda ordinal: (-exact[ordinal], articles[ordinal].label))
                top.extend(articles[ordinal] for ordinal in run)
            if len(top) >= k:
                break
            start = end
        return top[:k]


def _shared_sum(factors: dict[int, float], bag: dict[int, int]) -> float:
    """One exact sum of factors[w] * bag[w] over the words in both, walked from the smaller."""
    if len(factors) <= len(bag):
        return exact_sum(factor * bag[w] for w, factor in factors.items() if w in bag)
    return exact_sum(factors[w] * tf for w, tf in bag.items() if w in factors)


def _factors(
    weights: dict[int, float], emission: Emission, attention: Attention
) -> dict[int, float]:
    """Word id -> e(w) * m(w) * wt(w) for the emission's words, in bag order, zero ones left out.

    The operand order is _bag_sum's, so factor * tf is its forward term.
    weights is kb.weights of the emission's bag.
    """
    bag, length, words = emission.bag, emission.length, attention.per_word
    factors = {}
    for word_id, weight in weights.items():
        factor = bag[word_id] / length * words.get(word_id, 1.0) * weight
        if factor != 0.0:
            factors[word_id] = factor
    return factors


def collect(
    kb: KnowledgeBase,
    emission: Emission,
    attention: dict[int, float] | Attention | None = None,
    workers: int = 1,
) -> ActivationMap:
    """Collect word activation up to the article layer via posting lists.

    Returns an ActivationMap over one float sum per article ordinal, 0.0
    for an article whose value is 0.0. Values are exact sums, so no split
    of the terms could change them: workers is accepted for compatibility
    and the collection runs in one pass, weighing words by kb.weights,
    current after any insert. UnscorableQueryError for an infinite factor
    or a sum past the float range.
    """
    attention = kb.attention_snapshot(attention)
    weights = kb.weights(emission.bag)
    factors = _factors(weights, emission, attention)
    # the commonest word first: wt(w) = ln(1 + D/df) falls as df grows, and
    # ties keep bag order
    order = sorted(factors, key=weights.__getitem__)
    postings = kb.postings
    sums = [0.0] * len(kb.articles)
    # an article sits in one tf group per word, so the first word's terms are
    # assigned to sums that are all still 0.0; bound, the float sum of each
    # word's largest term in the same order, is at least every float sum, as
    # rounding is monotone
    bound = 0.0
    for position, word_id in enumerate(order):
        factor = factors[word_id]
        groups = postings[word_id]
        for tf, ordinals in groups.items():
            term = factor * tf
            if position:
                for ordinal in ordinals:
                    sums[ordinal] += term
            else:
                for ordinal in ordinals:
                    sums[ordinal] = term
        bound += factor * max(groups, default=0)
    band = _band(len(factors))
    forward = ActivationMap(kb, sums, factors, {}, band)
    # bound <= 2**1020 keeps every exact sum, at most bound / (1 - gamma), and
    # every float sum inside the float range; past it (an infinite factor or
    # term, or huge multipliers) each activated article's exact sum is taken,
    # UnscorableQueryError where it leaves the range, and the map holds them
    if not bound <= _BIG:
        if math.inf in factors.values():
            raise UnscorableQueryError()
        exact = forward._pres()
        if math.inf in exact:
            raise UnscorableQueryError()
        sums[:] = exact
        forward.band = 0.0
    for ordinal, multiplier in attention.per_article.items():
        # the one presence rule: a value of 0.0 (an m(d) of 0, or an
        # underflow) zeroes the sum, and only a nonzero value keeps its m(d)
        if sums[ordinal]:
            if forward._pre(ordinal) * multiplier == 0.0:
                sums[ordinal] = 0.0
            else:
                forward.multipliers[ordinal] = multiplier
    return forward


def collect_on_bag(
    kb: KnowledgeBase,
    emission: Emission,
    bag: dict[int, int],
    attention: dict[int, float] | Attention | None = None,
) -> float:
    """Collect an emission against one explicit token bag."""
    attention = kb.attention_snapshot(attention)
    return _bag_sum(kb.weights(emission.bag), emission.bag, emission.length, bag, attention)


def activate(
    kb: KnowledgeBase, source: Source, attention: dict[int, float] | Attention | None = None
) -> dict[int, float]:
    """Article id -> activation of every activated article, for a source
    (emit + collect), in article insertion order."""
    return collect(kb, emit(kb, source), attention).as_dict()


def trace(
    kb: KnowledgeBase,
    source: Source,
    article_id: int,
    level: int,
    top_n: int,
    attention: dict[int, float] | Attention | None = None,
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
