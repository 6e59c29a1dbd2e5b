import math
import random
import sys
import threading
from pathlib import Path

import pytest

import mcrx.kb
from mcrx import (
    ARTICLE,
    PARAGRAPH,
    SENTENCE,
    WORD,
    Emission,
    QueryScorer,
    RawDocument,
    activate,
    KnowledgeBase,
    build_corpus,
    collect,
    collect_on_bag,
    emit,
    ingest_document,
    rank,
    trace,
)
from mcrx.activation import _least_rounding_to
from mcrx.errors import (
    EmptyDocumentError,
    MissingNodeError,
    UnscorableQueryError,
)
from mcrx.ingest import read_corpus_jsonl
from mcrx.scl import apply_rules

from conftest import make_kb
from oracles import corpus_weights, dense_activation, random_corpus, toks

A_D1 = 0.8958797346140275  # 0.5*ln3 + 0.5*ln2
A_D2 = 0.34657359027997264  # 0.5*ln2


def labeled(kb, activations):
    return {kb.nodes[article].label: value for article, value in activations.items()}


def test_emit_two_tokens(c2):
    emission = emit(c2, "a b")
    assert {c2.nodes[w].label: n for w, n in emission.bag.items()} == {"a": 1, "b": 1}
    assert emission.length == 2
    values = {c2.nodes[w].label: n / emission.length for w, n in emission.bag.items()}
    assert values == {"a": 0.5, "b": 0.5}
    assert emission.unknown_words == 0


def test_emit_weighted_by_tf(c2):
    emission = emit(c2, "a a a b")
    assert {c2.nodes[w].label: n for w, n in emission.bag.items()} == {"a": 3, "b": 1}
    values = {c2.nodes[w].label: n / emission.length for w, n in emission.bag.items()}
    assert values == {"a": 0.75, "b": 0.25}


def test_emit_unknown_words_counted(c2):
    emission = emit(c2, "q z")
    assert emission.bag == {}
    assert emission.length == 2  # unknown tokens still count toward the length
    assert emission.unknown_words == 2


def test_emit_mass_sums_to_one_without_unknowns(c2):
    emission = emit(c2, "a b b c c c")
    assert sum(emission.bag.values()) == emission.length
    masses = (n / emission.length for n in emission.bag.values())
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-15)


def test_emit_empty_source_rejected(c2):
    with pytest.raises(EmptyDocumentError):
        emit(c2, "....")


def test_collect_c2(c2):
    activations = labeled(c2, activate(c2, "a b"))
    assert activations["d1"] == pytest.approx(A_D1, abs=1e-12)
    assert activations["d2"] == pytest.approx(A_D2, abs=1e-12)
    assert activations["d1"] == pytest.approx(0.89588, abs=1e-5)
    assert activations["d2"] == pytest.approx(0.34657, abs=1e-5)


def test_collect_zero_attention_empty_map(c2):
    attention = {c2.word_id(token): 0.0 for token in ("a", "b", "c")}
    forward = collect(c2, emit(c2, "a b"), attention)
    assert forward.as_dict() == {} and len(forward) == 0


def test_asymmetry_c3(c3):
    forward = labeled(c3, activate(c3, c3.article_id("d1")))
    backward = labeled(c3, activate(c3, c3.article_id("d2")))
    assert forward["d2"] == pytest.approx(0.6931471805599453, abs=1e-9)
    assert backward["d1"] == pytest.approx(0.34657359027997264, abs=1e-9)


def test_zero_shared_vocabulary_absent_from_map():
    kb = make_kb({"d1": "alpha beta", "d2": "gamma delta"})
    activations = labeled(kb, activate(kb, "alpha"))
    assert "d2" not in activations


def test_self_activation_c2(c2):
    assert QueryScorer(c2, c2.article_id("d1")).self_activation == pytest.approx(A_D1, abs=1e-12)
    assert QueryScorer(c2, "a b").self_activation == pytest.approx(A_D1, abs=1e-12)


def test_self_activation_repeated_word(c3):
    # e(a)=1, tf=2, wt(a)=ln2 -> 2 ln 2
    assert QueryScorer(c3, "a a").self_activation == pytest.approx(1.3862943611198906, abs=1e-9)


def test_forward_monotonic_in_tf():
    low = make_kb({"d1": "a b", "probe": "a x"})
    high = make_kb({"d1": "a b", "probe": "a a x"})
    a_low = labeled(low, activate(low, "a"))["probe"]
    a_high = labeled(high, activate(high, "a"))["probe"]
    assert a_high > a_low


def test_attention_linearity_scales_contribution(c2):
    base = labeled(c2, activate(c2, "a b"))
    c2.set_attention(c2.word_id("b"), 3.0)
    scaled = labeled(c2, activate(c2, "a b"))
    # d2 contains only b, so its activation scales by exactly 3
    assert scaled["d2"] == pytest.approx(3 * base["d2"], abs=1e-12)
    # d1 gains exactly the extra b contribution
    assert scaled["d1"] == pytest.approx(base["d1"] + 2 * base["d2"], abs=1e-12)


def test_article_attention_multiplies_map(c2):
    d2 = c2.article_id("d2")
    base = activate(c2, "a b")[d2]
    c2.set_attention(d2, 0.5)
    assert activate(c2, "a b")[d2] == pytest.approx(0.5 * base, abs=1e-15)


def test_trace_single_sentence_document(c2):
    d1 = c2.article_id("d1")
    entries = trace(c2, d1, d1, SENTENCE, 5)
    assert len(entries) == 1
    assert entries[0].contribution == pytest.approx(A_D1, abs=1e-12)


def test_trace_unhit_sentence_contributes_zero():
    kb = make_kb({"d": "alpha beta. gamma delta."})
    d = kb.article_id("d")
    entries = trace(kb, "alpha", d, SENTENCE, 5)
    assert len(entries) == 2
    assert entries[0].contribution > 0
    assert entries[1].contribution == 0.0


def test_trace_conservation_random_corpora():
    rng = random.Random(20260809)
    for _ in range(10):
        docs = random_corpus(rng, max_docs=8, max_vocab=30, max_len=40)
        kb, _ = build_corpus([RawDocument(i, t) for i, t in docs.items()])
        if kb.article_count == 0:
            continue
        query = docs[sorted(docs)[0]]
        activations = activate(kb, query)
        for article_id, total in activations.items():
            for level in (SENTENCE, PARAGRAPH):
                entries = trace(kb, query, article_id, level, 10**6)
                assert math.fsum(e.contribution for e in entries) == pytest.approx(
                    total, abs=1e-9
                )


def test_trace_sorted_and_truncated():
    kb = make_kb({"d": "hit hit hit. hit miss. miss miss."})
    d = kb.article_id("d")
    entries = trace(kb, "hit", d, SENTENCE, 2)
    assert len(entries) == 2
    assert entries[0].contribution >= entries[1].contribution
    for top_n in (0, -1, 1.5, 2.0, True):
        with pytest.raises(ValueError):
            trace(kb, "hit", d, SENTENCE, top_n)
    for level in (True, 1.0, ARTICLE, -1):
        with pytest.raises(ValueError):
            trace(kb, "hit", d, level, 2)


def test_trace_ties_break_by_position_and_token():
    kb = make_kb({"d": "b a. a b.\n\nb a.", "e": "c"})
    d = kb.article_id("d")
    assert kb.word_id("b") < kb.word_id("a")
    sentences = trace(kb, "a b", d, SENTENCE, 10)
    assert [e.position for e in sentences] == [(1, 1), (1, 2), (2, 1)]
    assert len({e.contribution for e in sentences}) == 1
    assert all(e.node_id is None and e.level == SENTENCE for e in sentences)
    paragraphs = trace(kb, "a b", d, PARAGRAPH, 10)
    assert [e.position for e in paragraphs] == [(1,), (2,)]
    assert paragraphs[0].contribution == 2 * paragraphs[1].contribution
    words = trace(kb, "a b", d, WORD, 10)
    assert [kb.nodes[e.node_id].label for e in words] == ["a", "b"]  # token order, not id order
    assert [e.position for e in words] == [(), ()]


def test_trace_level_validation(c2):
    d1 = c2.article_id("d1")
    with pytest.raises(ValueError):
        trace(c2, d1, d1, 3, 5)  # article level itself
    with pytest.raises(ValueError):
        trace(c2, d1, c2.word_id("a"), SENTENCE, 5)  # dest not an article


def test_indexed_collect_matches_dense_oracle():
    rng = random.Random(42)
    for _ in range(25):
        docs = random_corpus(rng, max_docs=20, max_vocab=60, max_len=60)
        kb, skipped = build_corpus([RawDocument(i, t) for i, t in docs.items()])
        bags, weights = corpus_weights(docs)
        if not bags:
            continue
        query = docs[rng.choice(sorted(bags))]
        expected = dense_activation(bags, weights, toks(query))
        got = labeled(kb, activate(kb, query))
        assert set(got) == set(expected)
        for label, value in expected.items():
            assert got[label] == pytest.approx(value, abs=1e-9)


def test_collect_workers_bit_identical():
    rng = random.Random(7)
    docs = random_corpus(rng, max_docs=30, max_vocab=80, max_len=80)
    kb, _ = build_corpus([RawDocument(i, t) for i, t in docs.items()])
    query = docs[sorted(docs)[0]]
    emission = emit(kb, query)
    single = collect(kb, emission, {}, workers=1)
    quad = collect(kb, emission, {}, workers=4)
    assert single == quad  # exact equality, not approx


CORPUS100 = Path(__file__).parent / "data" / "corpus100.jsonl"


def test_trace_word_level_sums_to_activation_bit_for_bit():
    kb, _ = build_corpus(read_corpus_jsonl(str(CORPUS100)))
    source = kb.article_id("doc001")
    activations = activate(kb, source)
    assert len(activations) > 1
    for article_id, total in activations.items():
        entries = trace(kb, source, article_id, WORD, 10**6)
        assert all(kb.nodes[e.node_id].level == WORD for e in entries)
        assert math.fsum(e.contribution for e in entries) == total


# Forward collection keeps no state between queries. Every test below
# compares, with ==, a knowledge base that has served earlier queries with
# one built fresh for the comparison.


def bin_corpus(seed, docs=40):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_docs=docs, max_vocab=50, max_len=60)
    # keep the document count fixed across seeds
    while len(corpus) < docs:
        corpus.update(random_corpus(rng, max_docs=docs, max_vocab=50, max_len=60))
    return [RawDocument(doc_id, text) for doc_id, text in sorted(corpus.items())[:docs]]


def bin_queries(seed, docs, count):
    """Whole documents (collect-heavy) mixed with 1-3-word queries."""
    rng = random.Random(seed)
    words = sorted({w for doc in docs for w in toks(doc.body)})
    queries = []
    for _ in range(count):
        if rng.random() < 0.4:
            queries.append(rng.choice(docs).body)
        else:
            queries.append(" ".join(rng.choices(words + ["unseen"], k=rng.randint(1, 3))))
    return queries


def fresh(docs, attention=None):
    kb, skipped = build_corpus(docs)
    assert not skipped
    apply_rules(kb, attention or {})
    return kb


def expected(docs, query, attention=None):
    """Activation by label on a knowledge base that has served no query."""
    reference = fresh(docs, attention)
    return labeled(reference, activate(reference, query))


def rows(results):
    return [(r.label, r.percent, r.raw, r.reverse, r.forward) for r in results]


def test_reused_bins_interleaved_long_and_short_queries():
    docs = bin_corpus(11)
    kb = fresh(docs)
    for query in bin_queries(12, docs, 60):
        assert labeled(kb, activate(kb, query)) == expected(docs, query)
        assert rows(rank(kb, query, k=8, n=5)) == rows(rank(fresh(docs), query, k=8, n=5))


def test_reused_bins_across_ingest_and_reweighting():
    docs = bin_corpus(21)
    queries = bin_queries(22, docs, 12)
    kb = fresh(docs[:25])
    for query in queries:
        activate(kb, query)
    for doc in docs[25:]:
        ingest_document(kb, doc)
    for query in queries:
        assert labeled(kb, activate(kb, query)) == expected(docs, query)


def test_reused_bins_under_attention_changes():
    docs = bin_corpus(31)
    queries = bin_queries(32, docs, 20)
    kb = fresh(docs)
    muted = docs[0].id
    word = toks(docs[0].body)[0]
    rules = {muted: 0.0, word: 3.0, docs[1].id: 0.5}
    apply_rules(kb, rules)
    for query in queries + [docs[0].body]:
        got = labeled(kb, activate(kb, query))
        assert muted not in got
        assert got == expected(docs, query, rules)
    # the muted article's terms were summed and must not outlive the query
    apply_rules(kb, dict.fromkeys(rules, 1.0))
    for query in [docs[0].body] + queries:
        assert labeled(kb, activate(kb, query)) == expected(docs, query)


class InterruptingGroups(dict):
    """A word's tf groups whose items() raises KeyboardInterrupt."""

    def items(self):
        raise KeyboardInterrupt


def visit_order(kb, emission):
    """The query words in the order collect visits them: commonest first, ties in bag order."""
    return sorted(emission.bag, key=lambda word_id: kb.nodes[word_id].weight)


def interrupt_collect(kb, emission, word_id):
    groups = kb.postings[word_id]
    kb.postings[word_id] = InterruptingGroups(groups)
    try:
        with pytest.raises(KeyboardInterrupt):
            collect(kb, emission, {})
    finally:
        kb.postings[word_id] = groups


def assert_answers_as_fresh(kb, docs, queries):
    for query in queries:
        assert labeled(kb, activate(kb, query)) == expected(docs, query)
        assert rows(rank(kb, query, k=8, n=5)) == rows(rank(fresh(docs), query, k=8, n=5))


def test_interrupted_collect_leaves_no_state():
    docs = bin_corpus(41)
    kb = fresh(docs)
    query = docs[3].body
    emission = emit(kb, query)
    # the word collect visits last: the sums already hold every other word's terms
    interrupt_collect(kb, emission, visit_order(kb, emission)[-1])
    assert_answers_as_fresh(kb, docs, (query, docs[5].body, "w1 w2"))


def test_collect_interrupted_on_its_assigned_first_word_leaves_no_state():
    docs = bin_corpus(42)
    kb = fresh(docs)
    query = docs[4].body
    emission = emit(kb, query)
    # the commonest word, whose terms are assigned, not added: no sum holds a term yet
    order = visit_order(kb, emission)
    assert kb.nodes[order[0]].weight < kb.nodes[order[-1]].weight
    interrupt_collect(kb, emission, order[0])
    assert_answers_as_fresh(kb, docs, (query, docs[6].body, "w1 w2"))


def test_exact_sum_past_float_range_is_unscorable():
    texts = {"d1": "a b", "d2": "a a b b c"}
    kb = make_kb(texts)
    d2 = kb.article_id("d2")
    # d2's two terms are finite, their exact sum is not
    attention = {kb.word_id("a"): 1.5e308, kb.word_id("b"): 1.5e308}
    emission = emit(kb, "a b")
    with pytest.raises(UnscorableQueryError):
        collect(kb, emission, attention)
    with pytest.raises(UnscorableQueryError):
        activate(kb, "a b", attention)
    with pytest.raises(UnscorableQueryError):
        collect_on_bag(kb, emission, kb.article(d2).bag, attention)
    for level in (SENTENCE, PARAGRAPH):
        with pytest.raises(UnscorableQueryError):
            trace(kb, "a b", d2, level, 5, attention)
    # one word's share stays finite
    assert all(math.isfinite(e.contribution) for e in trace(kb, "a b", d2, WORD, 5, attention))
    reference = make_kb(texts)
    for query in ("a b", "a a b b c", "c"):
        assert labeled(kb, activate(kb, query)) == labeled(reference, activate(reference, query))


def test_reused_bins_concurrent_ranking_matches_sequential():
    docs = bin_corpus(51, docs=120)
    queries = bin_queries(52, docs, 24)
    expected = [rows(rank(fresh(docs), query, k=10, n=5)) for query in queries]
    kb = fresh(docs)
    mismatches = []

    def worker(offset):
        for round_ in range(3):
            for i in range(len(queries)):
                j = (i * (offset + 1) + round_) % len(queries)
                if rows(rank(kb, queries[j], k=10, n=5)) != expected[j]:
                    mismatches.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def fsum_collect(kb, emission, attention):
    """Per-article math.fsum of factor * tf, in article order; None when unscorable."""
    factors = {}
    for word_id, count in emission.bag.items():
        factor = count / emission.length * attention.get(word_id, 1.0) * kb.nodes[word_id].weight
        if factor != 0.0:
            factors[word_id] = factor
    if not all(math.isfinite(f) for f in factors.values()):
        return None
    articles = {}
    for article in kb.articles:
        article_id = article.id
        terms = [factors[w] * tf for w, tf in article.bag.items() if w in factors]
        if not terms:
            continue
        if not all(math.isfinite(t) for t in terms):
            return None
        try:
            activation = math.fsum(terms) * attention.get(article_id, 1.0)
        except OverflowError:
            return None
        if activation != 0.0:
            articles[article_id] = activation
    return articles


def repeated_corpus(rng):
    """Documents of 1-12 distinct words, each repeated 1-50 times, shuffled."""
    vocab = [f"w{i}" for i in range(rng.randint(3, 30))]
    docs = []
    for index in range(rng.randint(2, 25)):
        words = [
            word
            for word in rng.sample(vocab, rng.randint(1, min(12, len(vocab))))
            for _ in range(rng.choice([1, 1, 2, 3, rng.randint(1, 50)]))
        ]
        rng.shuffle(words)
        docs.append(RawDocument(f"d{index:02d}", " ".join(words)))
    return docs


# 1e308 drives some factors, terms or sums past the float range
MULTIPLIERS = (0.0, 5e-324, 1e-300, 0.5, 3.0, 1e300, 1e308)


def test_collect_equals_fsum_oracle():
    rng = random.Random(2024)
    checked = unscorable = 0
    for _ in range(80):
        docs = repeated_corpus(rng)
        kb, _ = build_corpus(docs)
        word_ids, article_ids = list(kb.word_ids()), [a.id for a in kb.articles]
        for _ in range(6):
            attention = {}
            for ids in (word_ids, article_ids):
                for node_id in rng.sample(ids, rng.randint(0, len(ids))):
                    attention[node_id] = rng.choice(MULTIPLIERS)
            if rng.random() < 0.5:
                query = rng.choice(docs).body
            else:
                query = " ".join(rng.choices([kb.nodes[w].label for w in word_ids], k=5))
            emission = emit(kb, query)
            oracle = fsum_collect(kb, emission, attention)
            if oracle is None:
                unscorable += 1
                with pytest.raises(UnscorableQueryError):
                    collect(kb, emission, attention)
                continue
            got = collect(kb, emission, attention)
            assert list(got.as_dict().items()) == list(oracle.items())
            checked += 1
    assert checked > 300 and unscorable > 0


class RecordingPostings(dict):
    """kb.postings that records the word of each lookup."""

    def __init__(self, postings):
        super().__init__(postings)
        self.looked_up = []

    def __getitem__(self, word_id):
        self.looked_up.append(word_id)
        return super().__getitem__(word_id)


def collect_and_order(kb, emission, attention):
    """collect's map and the words whose postings it read, in order."""
    kb.postings = recording = RecordingPostings(kb.postings)
    try:
        return collect(kb, emission, attention), recording.looked_up
    finally:
        kb.postings = dict(recording)


def test_collect_visits_the_commonest_word_first_and_skips_muted_ones():
    """Every word with a nonzero factor once, by weight, ties in bag order; values as fsum."""
    rng = random.Random(2025)
    muted_first = 0
    for _ in range(60):
        docs = repeated_corpus(rng)
        kb, _ = build_corpus(docs)
        labels = [kb.nodes[w].label for w in kb.word_ids()]
        for _ in range(4):
            emission = emit(kb, " ".join(rng.choices(labels, k=rng.randint(2, 6))))
            order = visit_order(kb, emission)
            # the commonest word muted, or one drawn word set to 3.0
            attention = {order[0]: 0.0} if rng.random() < 0.5 else {rng.choice(order): 3.0}
            got, visited = collect_and_order(kb, emission, attention)
            assert visited == [w for w in order if attention.get(w, 1.0) != 0.0]
            assert list(got.as_dict().items()) == list(fsum_collect(kb, emission, attention).items())
            muted_first += attention.get(order[0]) == 0.0 and len(visited) > 0
    assert muted_first > 50


def test_collect_words_tied_on_weight_visit_in_bag_order():
    rng = random.Random(2026)
    for _ in range(30):
        # every word lies in every article: each has df = D and one weight
        vocab = [f"w{i}" for i in range(rng.randint(2, 6))]
        docs = [
            RawDocument(f"d{i}", " ".join(rng.sample(vocab, len(vocab)) * rng.randint(1, 3)))
            for i in range(rng.randint(2, 8))
        ]
        kb, _ = build_corpus(docs)
        assert len({kb.nodes[w].weight for w in kb.word_ids()}) == 1
        emission = emit(kb, " ".join(rng.choices(vocab, k=rng.randint(2, 8))))
        got, visited = collect_and_order(kb, emission, {})
        assert visited == list(emission.bag)
        assert list(got.as_dict().items()) == list(fsum_collect(kb, emission, {}).items())


def test_collect_single_word_queries():
    rng = random.Random(2027)
    for _ in range(40):
        docs = repeated_corpus(rng)
        kb, _ = build_corpus(docs)
        for word_id in kb.word_ids():
            label = kb.nodes[word_id].label
            for query in (label, " ".join([label] * rng.randint(2, 5)) + " unseen"):
                emission = emit(kb, query)
                got, visited = collect_and_order(kb, emission, {})
                assert visited == [word_id]
                assert list(got.as_dict().items()) == list(fsum_collect(kb, emission, {}).items())


@pytest.mark.parametrize(
    "texts, scorable",
    [
        # the largest terms, a's in d1 and b's in d2, sit in different articles
        ({"d1": "a a b", "d2": "a b b", "d3": "c"}, True),
        # the twin: d1 holds both largest terms, and its sum leaves the float range
        ({"d1": "a a b b", "d2": "a b", "d3": "c"}, False),
    ],
)
def test_collect_bound_past_float_range(texts, scorable):
    """The sum of each word's largest term overflows; collect raises only if a sum does."""
    kb = make_kb(texts)
    a, b = kb.word_id("a"), kb.word_id("b")
    attention = {a: 1.2e308, b: 1.2e308}
    emission = emit(kb, "a b")
    factor = 0.5 * 1.2e308 * kb.nodes[a].weight
    assert factor == 0.5 * 1.2e308 * kb.nodes[b].weight
    with pytest.raises(OverflowError):
        math.fsum([factor * 2, factor * 2])  # the bound
    oracle = fsum_collect(kb, emission, attention)
    if scorable:
        got = collect(kb, emission, attention).as_dict()
        assert list(got.items()) == list(oracle.items())
        assert got[kb.article_id("d1")] == math.fsum([factor * 2, factor])
    else:
        assert oracle is None
        with pytest.raises(UnscorableQueryError):
            collect(kb, emission, attention)


def test_infinite_word_factor_is_unscorable():
    kb = make_kb({f"d{i}": "a b" if i == 0 else "b c" for i in range(7)})
    a = kb.word_id("a")
    assert kb.nodes[a].weight > 1.0
    # e(a) * 1e308 * wt(a) is inf for the query "a"
    with pytest.raises(UnscorableQueryError):
        collect(kb, emit(kb, "a"), {a: 1e308})
    with pytest.raises(UnscorableQueryError):
        activate(kb, "a", {a: 1e308})
    # the same multiplier with a smaller emission stays finite
    assert activate(kb, "a b b b", {a: 1e308})



def test_collect_decides_presence_once_by_a_nonzero_sum():
    """An article is activated exactly when its sum is not 0; len, as_dict and value agree.

    Article multipliers of 0.0, or ones that underflow a value (5e-324,
    1e-300, or 0.5 on a subnormal value), zero the article's sum in
    collect itself. The counts are taken against a collect run with the
    word multipliers only, whose sums no article multiplier zeroes.
    """
    rng = random.Random(2511)
    seen = dict.fromkeys(("zeroed", "underflow", "subnormal", "out_of_label_order"), 0)
    for _ in range(50):
        docs, kb = repeated_corpus(rng), KnowledgeBase()
        for doc in rng.sample(docs, len(docs)):
            ingest_document(kb, doc)  # insertion order is not label order
        word_ids, articles = list(kb.word_ids()), kb.articles
        for _ in range(4):
            words = {}
            if rng.random() < 0.5:  # subnormal word factors, scale up to 2**1074
                for word_id in rng.sample(word_ids, rng.randint(1, len(word_ids))):
                    words[word_id] = rng.choice((5e-324, 4e-320, 1e-310))
            attention = dict(words)
            for article in rng.sample(articles, rng.randint(0, len(articles))):
                attention[article.id] = rng.choice((0.0, 5e-324, 1e-300, 0.5, 3.0))
            query = " ".join(rng.choices([kb.nodes[w].label for w in word_ids], k=5))
            emission = emit(kb, query)
            got = collect(kb, emission, attention)
            values = got.as_dict()
            assert list(values.items()) == list(fsum_collect(kb, emission, attention).items())
            assert 0.0 not in values.values() and len(got) == len(values)
            for article in articles:
                assert (got.sums[article.ordinal] == 0) == (got.value(article) == 0.0)
                assert (got.value(article) != 0.0) == (article.id in values)
            assert all(collect(kb, emission, attention, workers=w) == got for w in (2, 4, 8))
            plain = collect(kb, emission, words)
            assert (got == plain) == (got.sums == plain.sums and not got.multipliers)
            for article in articles:
                units, m = plain.sums[article.ordinal], attention.get(article.id)
                seen["zeroed"] += bool(units) and m == 0.0
                seen["underflow"] += bool(units) and bool(m) and article.id not in values
            seen["subnormal"] += any(0.0 < v < sys.float_info.min for v in values.values())
            labels = [kb.nodes[a].label for a in values]
            seen["out_of_label_order"] += labels != sorted(labels)
    assert all(count > 20 for count in seen.values()), seen


@pytest.mark.parametrize(
    "texts, query, multipliers",
    [
        # d2's terms are finite, their sum is not
        ({"d1": "a b", "d2": "a a b b c"}, "a b", {"a": 1.5e308, "b": 1.5e308}),
        # an infinite word factor
        ({f"d{i}": "a b" if i == 0 else "b c" for i in range(7)}, "a", {"a": 1e308}),
    ],
)
def test_collect_itself_raises_unscorable(texts, query, multipliers):
    kb = make_kb(texts)
    attention = {kb.word_id(word): m for word, m in multipliers.items()}
    # raised by the call, before any value is read
    with pytest.raises(UnscorableQueryError):
        collect(kb, emit(kb, query), attention)


def test_least_rounding_to_is_the_exact_threshold():
    """x / scale rounds to at least fl(t / scale); (x - 1) / scale does not."""
    rng = random.Random(1093)
    cases = [
        (2**53 + 1, 1),  # halfway, rounds down to the even 2**53
        (2**53 + 3, 1),  # halfway, rounds up to the even 2**53 + 4
        (2**53 + 5, 1),
        (2**60, 2**60),  # 1.0: the float below it is half an ulp closer
        (2**60 + 2**7, 2**60),
        (1, 2**1074),  # the least subnormal
        (3, 2**1074),
        (2**52 + 1, 2**1074),  # just past the subnormal range
        (2**80 + 1, 2**1074),
    ]
    for _ in range(3000):
        shift = rng.choice((0, 10, 53, 60, 200, 1074))
        bits = rng.randint(1, 120)
        t = rng.getrandbits(bits) | 1
        if rng.random() < 0.3:  # near a midpoint: 54 significant bits, odd
            t = (rng.getrandbits(53) | 2**53) | 1
        cases.append((t, 2**shift))
    for t, scale in cases:
        x = _least_rounding_to(t, scale)
        assert x <= t
        assert x / scale >= t / scale
        assert (x - 1) / scale < t / scale


def tie_corpus(rng):
    """Pairs of documents whose sums differ only by a word the attention makes tiny.

    dNNa holds a text and dNNb the same text plus the word "tiny": their
    sums differ as integers, and round to the same float once "tiny"
    carries a multiplier of 1e-18, so only the label orders them.
    """
    vocab = [f"w{i}" for i in range(rng.randint(3, 12))]
    docs = []
    for index in range(rng.randint(3, 12)):
        text = " ".join(rng.choices(vocab, k=rng.randint(1, 8)))
        docs.append(RawDocument(f"d{index:02d}a", text))
        if rng.random() < 0.7:
            docs.append(RawDocument(f"d{index:02d}b", text + " tiny"))
    docs.append(RawDocument("zz", "tiny " + " ".join(vocab)))
    return docs


def test_top_equals_sorting_the_full_map():
    """ActivationMap.top_values(k) and candidates(k) against sorting every item, with ==.

    underflow and zeroed_in_top read the sums of a collect run with the
    word multipliers only: collect zeroes the sums they look for.
    """
    rng = random.Random(4099)
    seen = dict.fromkeys(("float_ties_at_cut", "zeroed_in_top", "subnormal", "underflow"), 0)
    checked = 0
    for _ in range(60):
        docs = tie_corpus(rng)
        kb, _ = build_corpus(docs)
        articles = [a.id for a in kb.articles]
        nodes, ordinal = kb.nodes, {a.id: a.ordinal for a in kb.articles}
        tiny = kb.word_id("tiny")
        for _ in range(5):
            attention = {tiny: rng.choice((1e-18, 1e-18, 1.0, 5e-324))}
            for article_id in rng.sample(articles, rng.randint(0, len(articles) // 2)):
                attention[article_id] = rng.choice((0.0, 0.5, 3.0, 5e-324, 1e-300))
            if rng.random() < 0.2:  # subnormal word factors, scale 2**1074
                for word_id in rng.sample(list(kb.word_ids()), 2):
                    attention[word_id] = 5e-324
            if rng.random() < 0.25:
                query = rng.choice(articles)
            else:
                query = rng.choice(docs).body + " " + rng.choice(("", "tiny", "w0 w1"))
            try:
                scorer = QueryScorer(kb, query, attention)
            except UnscorableQueryError:  # a self score that underflows to 0.0
                continue
            checked += 1
            forward = scorer.forward_map
            values = forward.as_dict()
            ranked = sorted(values.items(), key=lambda item: (-item[1], nodes[item[0]].label))
            full = [article_id for article_id, _ in ranked]
            sums = forward.sums
            words = {node: m for node, m in attention.items() if node not in ordinal}
            plain = collect(kb, scorer.emission, words).sums
            seen["subnormal"] += any(0.0 < value < sys.float_info.min for _, value in ranked)
            seen["underflow"] += any(
                plain[ordinal[a]] and attention.get(a) != 0.0 and a not in values
                for a in articles
            )
            for k in range(1, len(articles) + 3):
                assert [article.id for article, _, _ in forward.top_values(k)] == full[:k]
                assert scorer.candidates(k, exclude_self=False) == full[:k]
                assert scorer.candidates(k) == [a for a in full[:k] if a != query]
                if k < len(ranked):
                    (a, value), (b, below) = ranked[k - 1], ranked[k]
                    seen["float_ties_at_cut"] += (
                        value == below and sums[ordinal[a]] < sums[ordinal[b]]
                    )
                sums_top = sorted(articles, key=lambda a: -plain[ordinal[a]])[:k]
                seen["zeroed_in_top"] += any(attention.get(a) == 0.0 for a in sums_top)
    assert checked > 250 and all(count > 20 for count in seen.values()), (checked, seen)


# a per-call attention= map, passed to each entry point that takes one
ENTRY_POINTS = {
    "collect": lambda kb, q, d, m: collect(kb, emit(kb, q), m).as_dict().items(),
    "collect_on_bag": lambda kb, q, d, m: collect_on_bag(kb, emit(kb, q), kb.article(d).bag, m),
    "trace": lambda kb, q, d, m: trace(kb, q, d, SENTENCE, 5, m),
    "activate": lambda kb, q, d, m: activate(kb, q, m).items(),
    "QueryScorer": lambda kb, q, d, m: QueryScorer(kb, q, m).score(d),
    "rank": lambda kb, q, d, m: rank(kb, q, k=6, n=4, attention=m),
}

# per-call attention keys that are no int node id of the c2 corpus
BAD_KEYS = (True, 1.0, 2.0, "b", 99, -1, None)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0, -1e300, True, "2"])
def test_per_call_attention_is_checked_before_any_pass(entry, bad):
    kb = make_kb({"d1": "a b", "d2": "b c"})
    d2 = kb.article_id("d2")
    run = ENTRY_POINTS[entry]
    for key in (kb.word_id("a"), d2):
        attention = {kb.word_id("b"): 2.0, key: bad}
        with pytest.raises(ValueError, match="attention multiplier"):
            run(kb, "a b", d2, attention)
    # a key is an int node id: word b is id 1 and d1 is id 2, and neither
    # True nor 1.0 names b, nor 2.0 d1
    assert (kb.word_id("b"), kb.article_id("d1")) == (1, 2)
    for key in BAD_KEYS:
        with pytest.raises(MissingNodeError):
            run(kb, "a b", d2, {kb.word_id("a"): 2.0, key: 0.0})
    # after an insert too, the keys and multipliers are checked first
    ingest_document(kb, RawDocument("d3", "c d"))
    with pytest.raises(ValueError, match="attention multiplier"):
        run(kb, "a b", d2, {d2: bad})
    for key in BAD_KEYS:
        with pytest.raises(MissingNodeError):
            run(kb, "a b", d2, {key: 0.0})


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_pass_after_an_insert_answers_as_a_fresh_build(entry):
    # no compute_weights: the pass reads the weights of D = 3, not of D = 2
    kb = make_kb({"d1": "a b", "d2": "b c"})
    ingest_document(kb, RawDocument("d3", "c d"))
    fresh = make_kb({"d1": "a b", "d2": "b c", "d3": "c d"})
    d2 = fresh.article_id("d2")
    assert kb.article_id("d2") == d2
    run = ENTRY_POINTS[entry]
    assert run(kb, "a b", d2, None) == run(fresh, "a b", d2, None)


def test_collect_on_bag_refuses_an_emission_of_length_zero():
    kb = make_kb({"d1": "a b", "d2": "b c"})
    b = kb.word_id("b")
    with pytest.raises(EmptyDocumentError):
        collect_on_bag(kb, Emission({b: 1}, 0, 0), kb.article(kb.article_id("d1")).bag)


def test_per_call_attention_equals_the_same_rules_applied():
    rng = random.Random(20261024)
    multipliers = [0, 0.0, 0.5, 1, 1.0, 2, 3.0, 1e-300, 1e300]
    for _ in range(12):
        docs = random_corpus(rng, max_docs=12, max_vocab=30, max_len=30)
        plain = make_kb(docs)
        labels = [*docs, *sorted({token for body in docs.values() for token in toks(body)})]
        rules = {label: rng.choice(multipliers) for label in rng.sample(labels, 6)}
        ruled = make_kb(docs)
        apply_rules(ruled, rules)
        # the same rules as one per-call map of node ids, ints and 1.0 kept
        per_call = {}
        for label, value in rules.items():
            for node_id in (plain.word_id(label), plain.article_id(label)):
                if node_id is not None:
                    per_call[node_id] = value
        queries = [rng.choice(list(docs.values())), " ".join(rng.sample(labels[len(docs):], 3))]
        for query in queries:
            target = plain.article_id(rng.choice(list(docs)))
            for entry, run in ENTRY_POINTS.items():
                try:
                    expected = run(ruled, query, target, None)
                except UnscorableQueryError:
                    with pytest.raises(UnscorableQueryError):
                        run(plain, query, target, per_call)
                    continue
                got = run(plain, query, target, per_call)
                if entry in ("collect", "activate"):
                    expected, got = list(expected), list(got)
                assert got == expected, (entry, rules, query)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_per_call_attention_is_checked_once_per_query(entry, monkeypatch):
    """One check per key however many passes run; a record passed back skips it."""
    kb = make_kb({"d1": "a b", "d2": "b c", "d3": "a c c"})
    d2 = kb.article_id("d2")
    attention = {kb.word_id("a"): 0.5, kb.word_id("c"): 3.0, kb.article_id("d1"): 2.0, d2: 0.25}
    checked = []
    check = mcrx.kb.check_multiplier

    def counted(value, name):
        checked.append(name)
        return check(value, name)

    monkeypatch.setattr(mcrx.kb, "check_multiplier", counted)
    run = ENTRY_POINTS[entry]
    expected = run(kb, "a b c", d2, attention)
    assert sorted(checked) == sorted(f"node {key}" for key in attention)
    record = kb.attention_snapshot(attention)
    checked.clear()
    assert kb.attention_snapshot(record) is record
    assert run(kb, "a b c", d2, record) == expected
    assert checked == []


def test_activation_map_reads_an_article_inserted_after_the_collect_as_zero():
    kb = make_kb({"d1": "a b", "d2": "b c"})
    forward = collect(kb, emit(kb, "b"))
    assert len(forward) == 2
    late = kb.add_article("d3", [[[("b", 1)]]])
    assert forward.value(kb.article(late)) == 0.0
    assert late not in forward.as_dict()
    assert len(forward) == 2
