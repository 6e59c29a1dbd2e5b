"""Activation passes over the knowledge base: emit, collect and trace.

A source (an indexed article or ad-hoc text) emits activation over the
word layer, normalized by its own length: e(w) = tf(w) / len. Collection
then runs word -> article over posting lists:

    A(d) = m(d) * sum_w e(w) * m(w) * wt(w) * tf_d(w)

with m(.) the attention multipliers. Emission normalization makes the
metric length-asymmetric on purpose: a short text activates a long
superset document more strongly than the reverse. activate is emit
followed by collect; scoring a query against a target, in both
directions, is similarity.QueryScorer's alone.

Each word's postings are split by term frequency: article ordinals
where tf == 1, whose term is the word factor itself, and (ordinal, tf)
pairs for the rest. Collection appends every term to its article's bin,
reduces each non-empty bin with math.fsum and empties it again. The
bins (kb.term_bins, one list per article ordinal) belong to the knowledge
base and are reused by every query, so a warm query creates no
per-article container and leaves nothing for the cyclic garbage
collector to promote. One lock per knowledge base (kb.collect_lock)
serializes collection, which makes concurrent queries on one knowledge
base safe; inserting articles while another thread queries is not. A
pass interrupted by an exception empties every bin before it re-raises.
Because fsum is exactly rounded, activation values are bit-identical
regardless of ingestion order, of the order or partition of the summed
terms, and of save/load cycles. Sentences and paragraphs never modulate
cross-document activation; trace reads an article's packed runs only to
attribute its activation to them, by position (p2, p2.s3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .errors import EmptyDocumentError, StaleWeightsError
from .ingest import DEFAULT_RULES, TokenizationRules, tokenize
from .kb import SENTENCE, WORD, KnowledgeBase

Source = int | str  # article node id, or raw text

_NO_POSTINGS: tuple[tuple[int, ...], tuple[tuple[int, int], ...]] = ((), ())


@dataclass(slots=True)
class Emission:
    """Word-layer activation of one source."""

    values: dict[int, float]  # word id -> e(w) = tf/len
    bag: dict[int, int]  # word id -> tf, KB words only
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


def emit(
    kb: KnowledgeBase,
    source: Source,
    rules: TokenizationRules = DEFAULT_RULES,
) -> Emission:
    """Project a source onto the word layer.

    Unknown words contribute nothing and are only counted; external text
    is first-class, it does not need to be in the corpus.
    """
    if isinstance(source, int):
        node = kb.node(source)
        if node.level != kb.top_level:
            raise ValueError(f"node {source} is not an article")
        bag = kb.article_bags[source]
        length = kb.article_len[source]
        unknown = 0
    else:
        tokens = tokenize(source, rules)
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
    values = {word_id: count / length for word_id, count in bag.items()}
    return Emission(values, dict(bag), length, unknown)


def _word_factors(
    kb: KnowledgeBase, emission: Emission, attention: dict[int, float]
) -> list[tuple[int, float]]:
    """Per-word factor e(w)*m(w)*wt(w); zero factors drop out entirely."""
    if not kb.weights_computed:
        raise StaleWeightsError("compute weights before running activation")
    factors = []
    for word_id, value in emission.values.items():
        factor = value * attention.get(word_id, 1.0) * kb.nodes[word_id].weight
        if factor != 0.0:
            factors.append((word_id, factor))
    return factors


def collect(
    kb: KnowledgeBase,
    emission: Emission,
    attention: dict[int, float] | None = None,
    workers: int = 1,
) -> dict[int, float]:
    """Collect word activation up to the article layer via posting lists.

    Articles with zero activation are absent from the map. Terms gather
    in the knowledge base's reusable per-article bins, under its collect
    lock. The sum is exact, so no split of the terms could change it:
    workers is accepted for compatibility and the collection runs in one
    pass.
    """
    if attention is None:
        attention = kb.attention_snapshot()
    factors = _word_factors(kb, emission, attention)
    order = kb.article_order
    bins = kb.term_bins
    articles = {}
    with kb.collect_lock:
        try:
            for word_id, factor in factors:
                ones, multi = kb.postings.get(word_id, _NO_POSTINGS)
                for ordinal in ones:
                    bins[ordinal].append(factor)
                for ordinal, tf in multi:
                    bins[ordinal].append(factor * tf)
            for ordinal, values in enumerate(bins):
                if values:
                    article_id = order[ordinal]
                    activation = fsum(values) * attention.get(article_id, 1.0)
                    values.clear()
                    if activation != 0.0:
                        articles[article_id] = activation
        except BaseException:
            # an interrupted pass must not leave terms for the next query
            for values in bins:
                values.clear()
            raise
    return articles


def collect_on_bag(
    kb: KnowledgeBase,
    emission: Emission,
    bag: dict[int, int],
    attention: dict[int, float] | None = None,
) -> float:
    """Collect an emission against one explicit token bag."""
    if attention is None:
        attention = kb.attention_snapshot()
    factors = _word_factors(kb, emission, attention)
    return fsum(factor * bag[word_id] for word_id, factor in factors if word_id in bag)


def activate(
    kb: KnowledgeBase,
    source: Source,
    attention: dict[int, float] | None = None,
    rules: TokenizationRules = DEFAULT_RULES,
) -> dict[int, float]:
    """Article activation map for a source (emit + collect)."""
    return collect(kb, emit(kb, source, rules), attention)


def trace(
    kb: KnowledgeBase,
    source: Source,
    article_id: int,
    level: int,
    top_n: int,
    attention: dict[int, float] | None = None,
    rules: TokenizationRules = DEFAULT_RULES,
) -> list[TraceEntry]:
    """Attribute a document's activation to its words, sentences or paragraphs.

    Contributions at any level sum to the document's activation (before
    the article's own attention multiplier). Ties break by token at the
    word level, which is word id order in a loaded index, and by position
    in the document above it.
    """
    node = kb.node(article_id)
    if node.level != kb.top_level:
        raise ValueError(f"node {article_id} is not an article")
    if not WORD <= level < kb.top_level:
        raise ValueError("trace level must be below the article level")
    if attention is None:
        attention = kb.attention_snapshot()
    emission = emit(kb, source, rules)
    factors = dict(_word_factors(kb, emission, attention))

    if level == WORD:
        nodes = kb.nodes
        members = [
            (word_id, (), [(word_id, count)])
            for word_id, count in sorted(
                kb.article_bags[article_id].items(), key=lambda item: nodes[item[0]].label
            )
        ]
    else:
        members = []
        for p, sentences in enumerate(kb.runs(article_id), start=1):
            if level == SENTENCE:
                members.extend((None, (p, s), runs) for s, runs in enumerate(sentences, start=1))
            else:
                members.append((None, (p,), [run for runs in sentences for run in runs]))
    entries = []
    for node_id, position, runs in members:
        bag: dict[int, int] = {}
        for word_id, count in runs:
            bag[word_id] = bag.get(word_id, 0) + count
        contribution = fsum(
            factors[word_id] * count for word_id, count in bag.items() if word_id in factors
        )
        entries.append(TraceEntry(node_id, level, contribution, position))
    entries.sort(key=lambda entry: -entry.contribution)  # stable: ties keep member order
    return entries[: max(top_n, 0)]
