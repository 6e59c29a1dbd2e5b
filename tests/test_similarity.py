import math
import random
from fractions import Fraction

import pytest

import mcrx.similarity
from mcrx import (
    QueryScorer,
    RawDocument,
    build_corpus,
    combine,
    ingest_document,
    normalize,
    rank,
    results_to_tsv,
)
from mcrx.activation import _band
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
            scorer.forward_map.top_articles(k)
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
    values = sorted(forward.as_dict().values(), reverse=True)
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
    return kb


def _reference_cases():
    """Seeded corpora with their queries and attention maps: (kb, queries, maps)."""
    rng = random.Random(2718)
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
        yield kb, queries, _attention_maps(kb, rng)


def test_rank_bit_identical_to_reference_ranker():
    compared = tied_cuts = 0
    for kb, queries, attention_maps in _reference_cases():
        for attention in attention_maps:
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
    assert mcrx.similarity._within_reach([0.5, edge, t], 1, eps) == [1, 2]


def test_slack_meets_its_derivation_in_exact_arithmetic():
    # the inequality beside QueryScorer._estimates, with u = 2**-53 and w
    # the forward map's band for n query words: a skipped candidate's
    # percent is strictly below each of the n kept
    u = Fraction(1, 2**53)
    for n in (1, 2, 3, 10, 127, 500, 10**4, 10**6):
        w = Fraction(_band(n))
        eps = Fraction(mcrx.similarity._SLACK + 2 * _band(n))
        a, b = 9 * u + 2 * w, 10 * u
        errors = (1 + a) * (1 + b) * (1 + u) / ((1 - a) * (1 - b) * (1 - u))
        assert 0 < eps < 1 and errors <= (1 + eps) / (1 - eps), n


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
    # below 2**-1000 times the longest length in play, 3: the precondition fails
    assert estimates({words[0]: 2.0**-1000}) is None
    assert estimates({words[0]: 2.0**-1000 * 3}) is not None
    assert estimates({d1: 1e-310}) is None  # so does d1's raw~
    assert estimates(dict.fromkeys(words, 1e303)) is None  # raw~ near the float range
    assert _rows(rank(kb, "a b c", 3, 1, attention={d1: 1e-310})) == reference_rank(
        kb, "a b c", 3, 1, attention={d1: 1e-310}
    )


def test_bound_holds_for_self_scores_far_from_1():
    """Word multipliers from 1e-140 to 1e299 put self_raw far from 1 either way.

    With a at 1e150 and b at 1e-140, every b document's raw~ is above
    2**-1000 but below 2**-1000 * self_raw: its percent underflows to a tie
    at 0.0 that labels break, and b0, the longest, has the least raw~. So
    top scores every candidate; a lower bound of 2**-1000 / self_raw would
    skip b0 and b1. At 1e299 each raw~ passes 2**1000 and stays bounded.
    """
    docs = {"a1": "a x", **{f"b{i}": " ".join(["b"] + ["y"] * (9 - i)) for i in range(10)}}
    kb = make_kb(docs)
    a, b = kb.word_id("a"), kb.word_id("b")
    cases = [({a: 1e150, b: 1e-140}, False), ({a: 1e-140, b: 1e-140}, True)]
    cases.append(({a: 1e299, b: 1e299}, True))
    for attention, bound in cases:
        scorer = QueryScorer(kb, "a b", attention)
        assert not 2.0**-400 < scorer.self_raw < 2.0**400
        estimates = scorer._estimates(scorer.candidates(11))
        assert (estimates is not None) == bound
        for n in range(1, 12):
            expected = reference_rank(kb, "a b", 11, n, attention=attention)
            assert _rows(rank(kb, "a b", 11, n, attention=attention)) == expected
    assert max(estimates) > 2.0**1000  # at 1e299
    tied = reference_rank(kb, "a b", 11, 3, attention=cases[0][0])
    assert [row[:2] for row in tied] == [("a1", 100.0), ("b0", 0.0), ("b1", 0.0)]


def test_bound_holds_for_a_multiplier_in_the_band_below_floor_over_ln2():
    """m(w) in [floor, floor / wt(w)) for a word in every document (wt = ln 2).

    m(w) * wt(w) is below floor, yet every term stays a normal float (the
    derivation beside _estimates), so the bound applies and top agrees
    with scoring every candidate.
    """
    docs = {"a1": "a c", "a2": "a a c z", "a3": "a c z z", "a4": "a c c z"}
    kb = make_kb({**docs, **{f"n{i}": "c z z" for i in range(4)}})
    c = kb.word_id("c")
    floor = mcrx.similarity._TINY * 4  # the longest of the query and the top 4
    attention = {c: 1.25 * floor}
    scorer = QueryScorer(kb, "a c", attention)
    candidates = scorer.candidates(4)
    assert {kb.nodes[i].label for i in candidates} == set(docs)
    assert attention[c] * scorer.weights[c] < floor
    assert scorer._estimates(candidates) is not None
    for n in (1, 2, 3):
        expected = reference_rank(kb, "a c", 4, n, attention=attention)
        assert _rows(rank(kb, "a c", 4, n, attention=attention)) == expected


U = 2.0**-53  # the unit roundoff of a float


def _estimate_gaps(scorer, candidates):
    """|raw~ - raw| / (u * raw) per candidate, or None where _estimates gives none."""
    estimates = scorer._estimates(candidates)
    if estimates is None:
        return None
    raws = [scorer.score(candidate).raw for candidate in candidates]
    return [abs(estimate - raw) / (U * raw) for estimate, raw in zip(estimates, raws)]


def test_estimates_are_within_15u_of_the_scored_raw():
    # the derivation beside QueryScorer._estimates: with a band of 0, raw~
    # and raw differ by about 14u to first order, and 15u leaves room for
    # the higher-order terms; the derivation allows a wider gap for a
    # forward map with a band, but on these corpora the float sums stay
    # within the same 15u
    checked = stepped_aside = 0
    for kb, queries, attention_maps in _reference_cases():
        for attention in attention_maps:
            for query in queries:
                try:
                    scorer = QueryScorer(kb, query, attention)
                except UnscorableQueryError:
                    continue
                gaps = _estimate_gaps(scorer, scorer.candidates(kb.article_count, False))
                if gaps is None:
                    stepped_aside += 1
                    continue
                assert max(gaps) <= 15, (query, attention)
                checked += len(gaps)
    assert checked > 1000 and stepped_aside > 0, (checked, stepped_aside)


def test_estimates_and_scores_are_within_8u_of_the_exact_value():
    # the derivation beside QueryScorer._estimates, in exact arithmetic:
    # with X = sum_w tf_q * m(w) * wt(w) * tf_d over the rounded floats m(w)
    # and wt(w), and f the forward value score reads, raw~ and
    # percent * self_raw / 100 are each within 8u of V = X / len_d * log1p(f)
    # where the forward map's band is 0; a band widens raw~'s allowance by
    # about 2w, unused on these corpora
    u = Fraction(1, 2**53)
    checked, worst = 0, Fraction(0)
    for kb, queries, attention_maps in _reference_cases():
        for attention in attention_maps:
            for query in queries:
                try:
                    scorer = QueryScorer(kb, query, attention)
                except UnscorableQueryError:
                    continue
                candidates = scorer.candidates(kb.article_count, False)
                estimates = scorer._estimates(candidates)
                if estimates is None:
                    continue
                query_bag, weights = scorer.emission.bag, scorer.weights
                factors = {
                    w: tf * Fraction(scorer.attention.per_word.get(w, 1.0)) * Fraction(weights[w])
                    for w, tf in query_bag.items()
                }
                self_raw = Fraction(scorer.self_raw)
                for candidate, estimate in zip(candidates, estimates):
                    article = kb.article(candidate)
                    result = scorer.score(candidate)
                    x = sum(factors[w] * tf for w, tf in article.bag.items() if w in factors)
                    exact = x / article.length * Fraction(math.log1p(result.forward))
                    for approx in (estimate, Fraction(result.percent) * self_raw / 100):
                        gap = abs(Fraction(approx) - exact) / (u * exact)
                        assert gap <= 8, (query, attention, candidate, float(gap))
                        worst = max(worst, gap)
                    checked += 1
    assert checked > 1000 and worst > 0, (checked, float(worst))


def _adversarial_corpus(rng):
    """40 documents of 12, 20 or 24 tokens, none a power of two.

    Each holds every query word a to d (so their weights are equal) one to
    seven times, and its own filler words to its length. Documents of one
    length whose tf_q * tf_d sums are equal tie before rounding, through
    different terms.
    """
    docs = {}
    for i in range(40):
        counts = [1, 1, 1, 1]
        for _ in range(rng.randint(0, 6)):
            counts[rng.randrange(4)] += 1
        tokens = [word for word, count in zip("abcd", counts) for _ in range(count)]
        tokens += [f"f{i}x{j}" for j in range(rng.choice((12, 20, 24)) - len(tokens))]
        rng.shuffle(tokens)
        docs[f"d{i:02d}"] = " ".join(tokens)
    return docs


def test_top_is_every_candidate_scored_on_adversarial_near_ties():
    """Multipliers 1 +- 2**-50 turn exact ties into near-ties at every place n;
    top(k, n) is still all k candidates scored and sorted, bit for bit."""
    near_one = (1 + 2.0**-50, 1 - 2.0**-50)
    query = "a b b c c c d d d d"  # 10 tokens
    near_ties = fragile = 0
    for seed in range(8):
        rng = random.Random(seed)
        kb = make_kb(_adversarial_corpus(rng))
        words = [kb.word_id(word) for word in "abcd"]
        on_words = {word: rng.choice(near_one) for word in words}
        on_articles = {
            article.id: rng.choice(near_one) for article in rng.sample(kb.articles, 20)
        }
        k = kb.article_count
        for attention in ({}, on_words, on_articles, {**on_words, **on_articles}):
            scorer = QueryScorer(kb, query, attention)
            candidates = scorer.candidates(k)
            assert max(_estimate_gaps(scorer, candidates)) <= 15
            scored = sorted(map(scorer.score, candidates), key=lambda r: (-r.percent, r.label))
            raws = sorted(result.raw for result in scored)
            near_ties += sum(a < b <= a * (1 + 2.0**-44) for a, b in zip(raws, raws[1:]))
            estimates = dict(zip(candidates, scorer._estimates(candidates)))
            for n in range(1, k):
                assert _rows(QueryScorer(kb, query, attention).top(k, n)) == _rows(scored[:n])
                # would ranking by raw~ alone, with no slack, lose a top-n result?
                nth = sorted(estimates.values(), reverse=True)[n - 1]
                fragile += any(estimates[r.article_id] < nth for r in scored[:n])
    assert near_ties > 50 and fragile > 0, (near_ties, fragile)


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
