import random

import pytest

import mcrx.similarity
from mcrx import (
    QueryScorer,
    RawDocument,
    build_corpus,
    combine,
    compute_weights,
    ingest_document,
    normalize,
    rank,
    results_to_tsv,
)
from mcrx.errors import EmptyIndexError, UnscorableQueryError
from mcrx.kb import KnowledgeBase

from conftest import make_kb
from oracles import (
    corpus_weights,
    dense_rank,
    random_corpus,
    reference_compare,
    reference_rank,
    toks,
)

SELF_RAW_C2 = 0.5730790100370088  # 0.89588... * ln(1 + 0.89588...)
RAW_D2_C2 = 0.10312757594433569
PERCENT_D2_C2 = 17.995350403372097


def test_combine_zero_forward_is_zero():
    assert combine(123.45, 0.0) == 0.0
    assert combine(0.0, 0.0) == 0.0


def test_combine_c2_values():
    value = combine(0.8958797346140275, 0.8958797346140275)
    assert value == pytest.approx(SELF_RAW_C2, abs=1e-15)
    # at the 5-decimal inputs the spec examples round from
    assert combine(0.89588, 0.89588) == pytest.approx(0.57308, abs=1e-5)
    assert combine(0.34657, 0.34657) == pytest.approx(0.10313, abs=1e-5)


def test_combine_monotonicity():
    assert combine(2.0, 1.0) > combine(1.0, 1.0)  # increasing in reverse for fwd>0
    assert combine(1.0, 2.0) > combine(1.0, 1.0)  # increasing in forward for rev>0
    assert combine(5.0, 0.0) == combine(1.0, 0.0) == 0.0


def test_normalize_self_is_hundred():
    for value in (0.001, 1.0, 57.2):
        assert normalize(value, value) == 100.0


def test_normalize_c2_example():
    assert normalize(0.10313, 0.57315) == pytest.approx(17.994, abs=1e-3)
    assert normalize(RAW_D2_C2, SELF_RAW_C2) == pytest.approx(PERCENT_D2_C2, abs=1e-12)


def test_normalize_zero_raw():
    assert normalize(0.0, 1.0) == 0.0


def test_normalize_rejects_zero_self():
    with pytest.raises(UnscorableQueryError):
        normalize(1.0, 0.0)


def test_rank_c2_full_pipeline(c2):
    results = rank(c2, "a b", k=10, n=10, exclude_self=False)
    assert [r.label for r in results] == ["d1", "d2"]
    assert results[0].percent == 100.0
    assert results[1].percent == pytest.approx(PERCENT_D2_C2, abs=1e-9)
    assert results[1].percent == pytest.approx(17.994, abs=2e-3)
    assert results[1].reverse == pytest.approx(0.34657359027997264, abs=1e-12)
    assert results[1].forward == pytest.approx(0.34657359027997264, abs=1e-12)


def test_rank_unscorable_query(c2):
    with pytest.raises(UnscorableQueryError) as excinfo:
        rank(c2, "zzz qqq", k=10, n=10)
    assert excinfo.value.unknown_words == 2


def test_rank_empty_index():
    with pytest.raises(EmptyIndexError):
        rank(KnowledgeBase(), "anything", k=10, n=1)


def test_rank_parameter_validation(c2):
    with pytest.raises(ValueError):
        rank(c2, "a", k=1, n=2)
    with pytest.raises(ValueError):
        rank(c2, "a", k=5, n=0)
    # not an int, a bool included: refused before any pass, so even on an
    # empty index, where the first pass would raise EmptyIndexError
    scorer = QueryScorer(c2, "a")
    for k, n in ((2.5, 1), (3, 1.5), ("3", 1), (3, "1"), (True, True), (3, True), (True, 1)):
        for kb in (c2, KnowledgeBase()):
            with pytest.raises(ValueError, match="int"):
                rank(kb, "a", k=k, n=n)
        with pytest.raises(ValueError, match="int"):
            scorer.top(k, n)
    for k in (2.5, "3", True, None):
        with pytest.raises(ValueError, match="int"):
            scorer.forward_map.top(k)
        with pytest.raises(ValueError, match="int"):
            scorer.candidates(k)


def test_rank_exclude_self_drops_own_article(c3):
    d2 = c3.article_id("d2")
    included = rank(c3, d2, k=10, n=10, exclude_self=False)
    excluded = rank(c3, d2, k=10, n=10, exclude_self=True)
    assert included[0].label == "d2"
    assert included[0].percent == 100.0
    assert [r.label for r in excluded] == ["d1"]


def test_zero_overlap_candidate_scores_zero():
    kb = make_kb({"q": "alpha beta", "other": "gamma delta"})
    scorer = QueryScorer(kb, "alpha beta")
    result = scorer.score(kb.article_id("other"))
    assert result.forward == 0.0
    assert result.raw == 0.0
    assert result.percent == 0.0
    # and it never becomes a candidate
    assert "other" not in [r.label for r in rank(kb, "alpha beta", exclude_self=False)]


def test_k_sufficiency_growing_candidates():
    texts = {f"d{i}": f"shared w{i} w{i} filler{i % 3}" for i in range(12)}
    kb = make_kb(texts)
    small = rank(kb, "shared w1 filler0", k=3, n=3, exclude_self=False)
    large = rank(kb, "shared w1 filler0", k=12, n=3, exclude_self=False)
    small_labels = [r.label for r in small]
    large_labels = [r.label for r in large]
    for position, label in enumerate(large_labels):
        if label in small_labels:
            assert small_labels.index(label) >= position or label == large_labels[position]
    # every small result either survives or is displaced by a better candidate
    small_scores = {r.label: r.percent for r in small}
    large_scores = {r.label: r.percent for r in large}
    assert min(large_scores.values()) >= min(small_scores.values()) - 1e-12


def test_rank_attention_identity(c2):
    baseline = rank(c2, "a b", k=10, n=10, exclude_self=False)
    identity = rank(
        c2,
        "a b",
        k=10,
        n=10,
        exclude_self=False,
        attention={c2.word_id("a"): 1.0, c2.word_id("b"): 1.0},
    )
    assert [(r.label, r.percent) for r in baseline] == [
        (r.label, r.percent) for r in identity
    ]


def test_self_score_is_exactly_100_random_corpora():
    # Querying a document's own text pins that document at exactly 100.0.
    # (Rank-first is NOT a theorem of the formula: a word-soup document
    # that repeats the query's content more densely can legitimately
    # exceed 100, which the dense-oracle comparison also reproduces.)
    rng = random.Random(1009)
    for _ in range(10):
        docs = random_corpus(rng, max_docs=15, max_vocab=40, max_len=50)
        kb, skipped = build_corpus([RawDocument(i, t) for i, t in docs.items()])
        if kb.article_count < 2:
            continue
        for label in sorted(docs):
            if label in skipped:
                continue
            results = rank(kb, docs[label], k=50, n=50, exclude_self=False)
            own = [r for r in results if r.label == label]
            assert own and own[0].percent == 100.0  # bit-exact, raw == self raw
            for other in results:
                if other.label != label and other.percent > 100.0:
                    # anything outranking self must truly contain the query
                    # more densely: its forward activation exceeds the self one
                    assert other.forward > own[0].forward


def test_rank_matches_dense_oracle():
    rng = random.Random(77)
    for _ in range(10):
        docs = random_corpus(rng, max_docs=20, max_vocab=50, max_len=60)
        kb, _ = build_corpus([RawDocument(i, t) for i, t in docs.items()])
        if kb.article_count == 0:
            continue
        bags, weights = corpus_weights(docs)
        query = docs[rng.choice(sorted(bags))]
        expected = dense_rank(bags, weights, toks(query), k=100)
        got = rank(kb, query, k=100, n=len(expected), exclude_self=False)
        assert [r.label for r in got] == [row[0] for row in expected]
        for result, row in zip(got, expected):
            assert result.percent == pytest.approx(row[1], abs=1e-9)


def _rows(results):
    return [(r.label, r.percent, r.raw, r.reverse, r.forward) for r in results]


def _attention_maps(kb, rng):
    """No attention, then 0, 0.5 and 3 on words, on articles, and on both.

    Last, a subnormal multiplier on the first of those words and a huge one
    on the first of those articles: QueryScorer.top's bound does not hold
    for a query holding that word, so it scores every candidate.
    """
    word_ids = sorted(kb.postings)
    article_ids = [article.id for article in kb.articles]
    on_words = dict(zip(rng.sample(word_ids, min(3, len(word_ids))), (0.0, 0.5, 3.0)))
    on_articles = dict(zip(rng.sample(article_ids, min(3, len(article_ids))), (0.0, 0.5, 3.0)))
    extreme = {**dict(zip(on_words, (1e-310,))), **dict(zip(on_articles, (1e300,)))}
    return [{}, on_words, on_articles, {**on_words, **on_articles}, extreme]


def _cuts(kb, query, attention):
    """Candidate cuts: tiny, at forward ties, around and above the activated count."""
    try:
        forward = QueryScorer(kb, query, attention).forward_map
    except UnscorableQueryError:
        return [1, 5], 0
    values = sorted(forward.values(), reverse=True)
    # k such that the k-th and (k+1)-th activations tie
    tied = [i + 1 for i in range(len(values) - 1) if values[i] == values[i + 1]][:2]
    cuts = {1, 3, max(1, len(values) - 1), max(1, len(values)), len(values) + 5, *tied}
    return sorted(cuts), len(tied)


def _shuffled_kb(docs, rng):
    """Ingest in random order, so article ordinals do not follow label order."""
    kb = KnowledgeBase()
    labels = sorted(docs)
    rng.shuffle(labels)
    for label in labels:
        if toks(docs[label]):
            ingest_document(kb, RawDocument(label, docs[label]))
    compute_weights(kb)
    return kb


def test_rank_bit_identical_to_reference_ranker():
    rng = random.Random(2718)
    compared = tied_cuts = 0
    for _ in range(8):
        docs = random_corpus(rng, max_docs=25, max_vocab=20, max_len=60)
        # identical texts under other labels: forward ties broken only by label
        for label in rng.sample(sorted(docs), min(3, len(docs))):
            docs[f"{label}x"] = docs[label]
        kb = _shuffled_kb(docs, rng)
        assert any(tf > 1 for article in kb.articles for tf in article.bag.values())
        vocab = sorted({word for text in docs.values() for word in toks(text)})
        queries = [
            docs[rng.choice(sorted(docs))],
            " ".join(rng.choices(vocab, k=3) + ["unknownword"]),
            *rng.sample([article.id for article in kb.articles], 2),
        ]
        for attention in _attention_maps(kb, rng):
            for query in queries:
                cuts, tied = _cuts(kb, query, attention)
                tied_cuts += tied
                for k in cuts:
                    for n in sorted({1, min(k, 3), k}):
                        for exclude_self in (True, False):
                            try:
                                expected = reference_rank(kb, query, k, n, exclude_self, attention)
                            except UnscorableQueryError:
                                with pytest.raises(UnscorableQueryError):
                                    rank(kb, query, k, n, exclude_self, attention)
                                continue
                            got = rank(kb, query, k, n, exclude_self, attention)
                            assert _rows(got) == expected
                            compared += 1
    assert compared > 1000 and tied_cuts > 0


def _count_scores(monkeypatch):
    """The targets QueryScorer.score is called on, in call order."""
    calls = []
    score = QueryScorer.score

    def counted(self, target):
        calls.append(target)
        return score(self, target)

    monkeypatch.setattr(QueryScorer, "score", counted)
    return calls


def test_top_scores_only_the_candidates_that_can_reach_the_top_n(monkeypatch):
    """n scored, plus any within 2**-40 of the n-th raw score, of k candidates."""
    calls = _count_scores(monkeypatch)
    rng = random.Random(3301)
    checked = skipped = 0
    for _ in range(6):
        docs = random_corpus(rng, max_docs=60, max_vocab=80, max_len=80)
        kb = _shuffled_kb(docs, rng)
        vocab = sorted({word for text in docs.values() for word in toks(text)})
        for query in (docs[rng.choice(sorted(docs))], " ".join(rng.sample(vocab, 3))):
            full = reference_rank(kb, query, 40, 40)  # every candidate scored
            for n in (1, 3, 10):
                if len(full) <= n:
                    continue
                calls.clear()
                assert _rows(QueryScorer(kb, query).top(40, n)) == full[:n]
                nth = full[n - 1][2]
                tied = sum(row[2] >= nth * (1 - 2**-40) for row in full[n:])
                # with one candidate past n, top may score it too
                assert len(calls) <= n + tied or len(full) == n + 1
                checked += 1
                skipped += len(full) - len(calls)
    assert checked > 20 and skipped > 10 * checked, (checked, skipped)


def test_top_scores_every_candidate_tied_at_the_nth_place(monkeypatch):
    """Copies under other labels tie exactly; all reach the sort, labels decide."""
    calls = _count_scores(monkeypatch)
    rng = random.Random(6007)
    docs = random_corpus(rng, max_docs=30, max_vocab=40, max_len=60)
    query = docs[sorted(docs)[0]]
    third = reference_rank(_shuffled_kb(docs, rng), query, 50, 3)[2][0]
    copies = {f"{third}a": docs[third], f"a{third}": docs[third]}
    kb = _shuffled_kb({**docs, **copies}, rng)
    group = sorted([third, *copies])
    full = reference_rank(kb, query, 50, 50)
    first = [row[0] for row in full].index(group[0])
    assert [row[0] for row in full[first : first + 3]] == group
    n = first + 2  # the n-th place is the second of the three
    calls.clear()
    got = QueryScorer(kb, query).top(50, n)
    assert _rows(got) == full[:n]
    assert [r.label for r in got[-2:]] == group[:2]
    assert {kb.article_id(label) for label in group} <= set(calls)
    assert len(calls) < len(full)
    # at the edge of the slack: raw~ * (1 + eps) and t * (1 - eps) round to
    # the same float, so the bound cannot rule the candidate out
    eps = mcrx.similarity._SLACK
    t, edge = 1 + eps, 1 - eps
    assert edge * (1 + eps) == t * (1 - eps)
    assert mcrx.similarity._within_reach([0.5, edge, t], 1) == [1, 2]


def _near_tie_corpus(rng):
    """16 documents of 14 tokens, each holding all of the words a to e.

    Every word is in every document, so all weights are equal, and two
    documents whose query terms sum to the same tf_q * tf_d tie before
    rounding: their scores and estimates differ in the last bits only.
    """
    words = "a b c d e".split()
    docs = {}
    for i in range(16):
        tokens = words + rng.choices(words, k=9)
        rng.shuffle(tokens)
        docs[f"d{i:02d}"] = " ".join(tokens)
    return docs


def test_top_slack_covers_estimates_off_in_the_last_bits():
    """A seeded case where ranking by raw~ with no slack loses a top-n result."""
    rng = random.Random(1)
    docs = _near_tie_corpus(rng)
    query = " ".join(rng.choices("a b c d e".split(), k=4))
    kb = make_kb(docs)
    k = kb.article_count
    scorer = QueryScorer(kb, query)
    candidates = scorer.candidates(k)
    estimates = scorer._estimates(candidates)
    labels = [kb.nodes[c].label for c in candidates]
    fragile = 0
    for n in range(1, k):
        expected = reference_rank(kb, query, k, n)
        assert _rows(scorer.top(k, n)) == expected
        nth = sorted(estimates, reverse=True)[n - 1]
        unslacked = {label for label, raw in zip(labels, estimates) if raw >= nth}
        fragile += not {row[0] for row in expected} <= unslacked
    assert fragile > 0


def test_bound_steps_aside_where_its_derivation_does_not_hold():
    """_estimates gives None, and top scores every candidate, past its precondition."""
    kb = make_kb({"d1": "a b", "d2": "b c", "d3": "a c c"})
    words = [kb.word_id(word) for word in "abc"]
    d1 = kb.article_id("d1")

    def estimates(attention):
        scorer = QueryScorer(kb, "a b c", attention)
        return scorer._estimates(scorer.candidates(3))

    assert len(estimates({})) == 3
    assert estimates({words[0]: 1e-310}) is None  # the terms of a underflow
    assert estimates({d1: 1e-310}) is None  # so does d1's raw~
    assert estimates(dict.fromkeys(words, 1e303)) is None  # raw~ near the float range
    assert _rows(rank(kb, "a b c", 3, 1, attention={d1: 1e-310})) == reference_rank(
        kb, "a b c", 3, 1, attention={d1: 1e-310}
    )


def test_score_bit_identical_to_reference_compare():
    """score(target) against two explicit directional passes, with ==.

    Sides are articles and texts, on either side; attention falls on
    words and on the target articles themselves.
    """
    rng = random.Random(1618)
    compared = text_targets = 0
    for _ in range(6):
        docs = random_corpus(rng, max_docs=15, max_vocab=20, max_len=40)
        kb = _shuffled_kb(docs, rng)
        vocab = sorted({word for text in docs.values() for word in toks(text)})
        articles = rng.sample([article.id for article in kb.articles], min(4, kb.article_count))
        sides = [
            *articles,
            docs[rng.choice(sorted(docs))],
            " ".join(rng.choices(vocab, k=4) + ["unknownword"]),
            rng.choice(vocab),
        ]
        on_words = _attention_maps(kb, rng)[1]
        on_targets = dict(zip(articles, (3.0, 0.5, 0.0)))
        for attention in ({}, on_words, on_targets, {**on_words, **on_targets}):
            for a in sides:
                for b in sides:
                    try:
                        expected = reference_compare(kb, a, b, attention)
                    except UnscorableQueryError:
                        with pytest.raises(UnscorableQueryError):
                            QueryScorer(kb, a, attention).score(b)
                        continue
                    result = QueryScorer(kb, a, attention).score(b)
                    assert (result.forward, result.reverse, result.raw, result.percent) == expected
                    compared += 1
                    text_targets += isinstance(b, str)
    assert compared > 1000 and text_targets > 400


def test_score_text_target_has_no_article_fields(c3):
    result = QueryScorer(c3, c3.article_id("d2")).score("a")
    assert (result.article_id, result.label, result.title) == (None, "", "")
    assert result.forward == pytest.approx(0.34657359027997264, abs=1e-12)  # 1/2 ln 2
    assert result.reverse == pytest.approx(0.6931471805599453, abs=1e-12)  # ln 2


def test_scorer_refuses_overflowing_self_score(c2):
    # self activation ~5.5e307 is finite, but s * ln(1 + s) is not
    with pytest.raises(UnscorableQueryError):
        QueryScorer(c2, "a b", {c2.word_id("a"): 1e308})


def test_scorer_refuses_overflowing_exact_sum():
    kb = make_kb({"d1": "a b", "d2": "a a b b c"})
    # each of d2's two terms is finite, their sum is not: fsum raises OverflowError
    attention = {kb.word_id("a"): 1.5e308, kb.word_id("b"): 1.5e308}
    with pytest.raises(UnscorableQueryError):
        QueryScorer(kb, "a b", attention)


def test_score_refuses_overflowing_score(c2):
    attention = {c2.article_id("d2"): 1e308, c2.word_id("b"): 100.0}
    scorer = QueryScorer(c2, "a b", attention)
    assert scorer.score(c2.article_id("d1")).percent == 100.0
    with pytest.raises(UnscorableQueryError):
        scorer.score(c2.article_id("d2"))  # forward is inf
    with pytest.raises(UnscorableQueryError):
        rank(c2, "a b", attention=attention)
    # a text target: its reverse is ten times the query's own terms
    scorer = QueryScorer(c2, "a" + " b" * 9, {c2.word_id("a"): 1e306})
    with pytest.raises(UnscorableQueryError):
        scorer.score("a")


def test_tsv_round_trips_losslessly(c2):
    results = rank(c2, "a b", k=10, n=10, exclude_self=False)
    lines = results_to_tsv(results).splitlines()
    assert len(lines) == 2
    for line, result in zip(lines, results):
        fields = line.split("\t")
        assert fields[1] == result.label
        assert float(fields[3]) == result.percent  # bit-for-bit at 17 digits
        assert float(fields[4]) == result.reverse
        assert float(fields[5]) == result.forward


def test_scorer_refuses_an_empty_index():
    with pytest.raises(EmptyIndexError, match="no documents"):
        QueryScorer(KnowledgeBase(), "anything")
