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

Each word's postings group article ordinals by term frequency, so a
word's term factor * tf is computed once per group. Collection sums the
terms exactly, in integers: every term is a float, so all terms of one
query are integer multiples of one power-of-two unit (see collect), and
each article's sum is one integer that a single int / int division
rounds correctly, the same value math.fsum gives. The accumulator is a
list local to the call: concurrent queries on one knowledge base share
no collect state, and an interrupted pass leaves nothing behind
(inserting articles while another thread queries is not supported). An
exact sum past the float range, or an infinite word factor (finite
attention multipliers near 1e308), raises UnscorableQueryError. Because
the sums are exactly rounded, activation values are bit-identical
regardless of ingestion order, of the order or partition of the summed
terms, and of save/load cycles. collect_on_bag and trace, one small sum
each, use math.fsum (exact_sum).

Sentences and paragraphs never modulate cross-document activation;
trace reads an article's packed runs only to attribute its activation
to them, by position (p2, p2.s3).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

from .errors import EmptyDocumentError, StaleWeightsError, UnscorableQueryError
from .ingest import DEFAULT_RULES, TokenizationRules, tokenize
from .kb import SENTENCE, WORD, KnowledgeBase

Source = int | str  # article node id, or raw text


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


def exact_sum(terms) -> float:
    """math.fsum; UnscorableQueryError when finite terms sum past the float range."""
    try:
        return fsum(terms)
    except OverflowError as exc:
        raise UnscorableQueryError() from exc


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

    Articles with zero activation are absent from the map; the others
    follow article insertion order. The sum is exact, so no split of the
    terms could change it: workers is accepted for compatibility and the
    collection runs in one pass.
    """
    if attention is None:
        attention = kb.attention_snapshot()
    factors = _word_factors(kb, emission, attention)
    order = kb.article_order
    try:
        # A float factor is n / 2**k (as_integer_ratio). A term factor * tf,
        # tf >= 1, is at least factor: either exact, hence a multiple of
        # 2**-k, or rounded, which takes more than 53 significant bits above
        # 2**-k and so lands on a coarser grid. Every term of the query is
        # thus a whole number of units 1/scale, scale the largest factor
        # denominator, and the sums below are exact integers.
        # OverflowError: an infinite factor or term.
        scale = max((factor.as_integer_ratio()[1] for _, factor in factors), default=1)
        sums = [0] * len(order)
        for word_id, factor in factors:
            for tf, ordinals in kb.postings[word_id].items():
                n, d = (factor * tf).as_integer_ratio()
                units = n * (scale // d)
                for ordinal in ordinals:
                    sums[ordinal] += units
        articles = {}
        for article_id, units in zip(order, sums):
            if units:
                # int / int is correctly rounded; OverflowError past the float range
                activation = units / scale * attention.get(article_id, 1.0)
                if activation != 0.0:
                    articles[article_id] = activation
    except OverflowError as exc:
        raise UnscorableQueryError() from exc
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
    return exact_sum(factor * bag[word_id] for word_id, factor in factors if word_id in bag)


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
        contribution = exact_sum(
            factors[word_id] * count for word_id, count in bag.items() if word_id in factors
        )
        entries.append(TraceEntry(node_id, level, contribution, position))
    entries.sort(key=lambda entry: -entry.contribution)  # stable: ties keep member order
    return entries[: max(top_n, 0)]
