import math
import random
import sys
import threading
from pathlib import Path

import pytest

import mcrx.activation
from mcrx import (
    PARAGRAPH,
    SENTENCE,
    WORD,
    QueryScorer,
    RawDocument,
    activate,
    build_corpus,
    collect,
    collect_on_bag,
    compute_weights,
    emit,
    ingest_document,
    rank,
    trace,
)
from mcrx.errors import EmptyDocumentError, UnscorableQueryError
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
    values = {c2.nodes[w].label: v for w, v in emission.values.items()}
    assert values == {"a": 0.5, "b": 0.5}
    assert emission.unknown_words == 0


def test_emit_weighted_by_tf(c2):
    emission = emit(c2, "a a a b")
    values = {c2.nodes[w].label: v for w, v in emission.values.items()}
    assert values == {"a": 0.75, "b": 0.25}


def test_emit_unknown_words_counted(c2):
    emission = emit(c2, "q z")
    assert emission.values == {}
    assert emission.unknown_words == 2


def test_emit_mass_sums_to_one_without_unknowns(c2):
    emission = emit(c2, "a b b c c c")
    assert math.fsum(emission.values.values()) == pytest.approx(1.0, abs=1e-15)


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
    assert collect(c2, emit(c2, "a b"), attention) == {}


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
    assert trace(kb, "hit", d, SENTENCE, 0) == []


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


# Forward collection reuses per-article term bins owned by the knowledge
# base. Every test below compares, with ==, a knowledge base whose bins
# have served earlier queries with one built fresh for the comparison.


def bin_corpus(seed, docs=40):
    rng = random.Random(seed)
    corpus = random_corpus(rng, max_docs=docs, max_vocab=50, max_len=60)
    # keep the document count fixed so that every seed exercises the bins
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
    assert not any(kb.term_bins)


def test_reused_bins_across_ingest_and_reweighting():
    docs = bin_corpus(21)
    queries = bin_queries(22, docs, 12)
    kb = fresh(docs[:25])
    for query in queries:
        activate(kb, query)
    for doc in docs[25:]:
        ingest_document(kb, doc)
    compute_weights(kb)
    assert len(kb.term_bins) == len(docs)
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
    # the muted article's terms were gathered and must not outlive the query
    apply_rules(kb, dict.fromkeys(rules, 1.0))
    for query in [docs[0].body] + queries:
        assert labeled(kb, activate(kb, query)) == expected(docs, query)


def test_reused_bins_clean_after_interrupted_collect(monkeypatch):
    docs = bin_corpus(41)
    kb = fresh(docs)
    query = docs[3].body
    calls = []

    def failing_fsum(values):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("interrupted")
        return math.fsum(values)

    monkeypatch.setattr(mcrx.activation, "fsum", failing_fsum)
    with pytest.raises(RuntimeError):
        activate(kb, query)
    monkeypatch.undo()
    assert len(calls) == 3 and not any(kb.term_bins)
    for follow_up in (query, docs[5].body, "w1 w2"):
        assert labeled(kb, activate(kb, follow_up)) == expected(docs, follow_up)


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
        collect_on_bag(kb, emission, kb.article_bags[d2], attention)
    for level in (SENTENCE, PARAGRAPH):
        with pytest.raises(UnscorableQueryError):
            trace(kb, "a b", d2, level, 5, attention)
    # one word's share stays finite
    assert all(math.isfinite(e.contribution) for e in trace(kb, "a b", d2, WORD, 5, attention))
    # the refused collect left no terms in the bins
    assert not any(kb.term_bins)
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
    assert not any(kb.term_bins)
