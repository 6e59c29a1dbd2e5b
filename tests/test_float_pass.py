"""collect's float pass against exact arithmetic.

collect sums each article's terms in floats, and only chooses with them:
every value handed out is an exactly rounded sum. These seeded tests
check the choice (rank and QueryScorer.candidates against the oracles,
on corpora full of ties), the bound the choice rests on (the float sums
against their exact rational sums), and the refusal of sums near the
float range.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

import mcrx.similarity
from mcrx import KnowledgeBase, QueryScorer, RawDocument, collect, emit, ingest_document, rank
from mcrx.activation import _gamma
from mcrx.errors import UnscorableQueryError

from conftest import make_kb
from oracles import exact_forward, exact_forward_sum, random_corpus, reference_rank

def _rows(results):
    return [(r.label, r.percent, r.raw, r.reverse, r.forward) for r in results]


def _shuffled(docs, rng):
    """Ingest in random order, so article ordinals do not follow label order."""
    kb = KnowledgeBase()
    labels = list(docs)
    rng.shuffle(labels)
    for label in labels:
        ingest_document(kb, RawDocument(label, docs[label]))
    return kb


def tie_heavy_corpus(rng):
    """Duplicates, one-word documents that tie en masse, and "tiny" twins.

    A duplicate ties with its original at every query. A document of one
    word repeated once or twice ties with every other such document of
    that word. A twin is its original plus the word "tiny", whose exact
    sum differs by a term that a multiplier of 1e-18 makes round away.
    """
    vocab = [f"w{i}" for i in range(rng.randint(2, 8))]
    texts = []
    for _ in range(rng.randint(4, 24)):
        roll = rng.random()
        if texts and roll < 0.25:
            texts.append(rng.choice(texts))
        elif roll < 0.5:
            texts.append(" ".join([rng.choice(vocab)] * rng.choice((1, 1, 2))))
        else:
            texts.append(" ".join(rng.choices(vocab, k=rng.randint(1, 9))))
        if rng.random() < 0.3:
            texts.append(texts[-1] + " tiny")
    labels = rng.sample(range(100, 1000), len(texts))
    return {f"d{label}": text for label, text in zip(labels, texts)}


def _attention(kb, rng):
    """Word multipliers down to subnormal factors, and article multipliers."""
    words = list(kb.word_ids())
    attention = {}
    if rng.random() < 0.6 and kb.word_id("tiny") is not None:
        attention[kb.word_id("tiny")] = 1e-18
    if rng.random() < 0.4:
        for word in rng.sample(words, rng.randint(1, len(words))):
            attention[word] = rng.choice((1e-300, 1e-310, 5e-324, 0.5, 3.0))
    if rng.random() < 0.5:
        for article in rng.sample(kb.articles, rng.randint(1, len(kb.articles))):
            attention[article.id] = rng.choice((0.0, 0.5, 3.0, 1e-300, 1e-300, 1e10))
    return attention


def test_rank_and_candidates_equal_the_oracles_on_tie_heavy_corpora():
    """candidates(k) is the exact (-value, label) order cut at k, and rank is reference_rank."""
    rng = random.Random(2801)
    seen = dict.fromkeys(
        ("tie_at_k", "rounded_together", "one_word_ties", "subnormal", "multiplied_below_cut"), 0
    )
    checked = 0
    for _ in range(70):
        docs = tie_heavy_corpus(rng)
        kb = _shuffled(docs, rng)
        vocab = sorted({token for text in docs.values() for token in text.split()})
        queries = [
            rng.choice(vocab),
            rng.choice(list(docs.values())),
            " ".join(rng.choices(vocab, k=rng.randint(3, 8))),
            rng.choice([article.id for article in kb.articles]),
        ]
        for query in queries:
            attention = _attention(kb, rng)
            try:
                expected = exact_forward(kb, query, attention)
                scorer = QueryScorer(kb, query, attention)
            except UnscorableQueryError:
                continue
            checked += 1
            nodes, forward = kb.nodes, scorer.forward_map
            order = sorted(expected, key=lambda a: (-expected[a], nodes[a].label))
            values = [expected[a] for a in order]
            sums = forward.sums
            for k in range(1, len(order) + 2):
                assert scorer.candidates(k, exclude_self=False) == order[:k], (query, k)
                if k < len(order):
                    seen["tie_at_k"] += values[k - 1] == values[k]
                top = order[:k]
                threshold = sorted(sums, reverse=True)[min(k, len(sums)) - 1]
                seen["multiplied_below_cut"] += any(
                    nodes[a].ordinal in forward.multipliers and sums[nodes[a].ordinal] < threshold
                    for a in top
                )
            for n in {1, 3, len(order) or 1}:
                k = max(n, len(order) - 1, 1)
                assert _rows(rank(kb, query, k, n, attention=attention)) == reference_rank(
                    kb, query, k, n, attention=attention
                ), (query, k, n, attention)
            exact = {a: exact_forward_sum(forward, nodes[a]) for a in order}
            seen["rounded_together"] += any(
                values[i] == values[i + 1] and exact[order[i]] != exact[order[i + 1]]
                for i in range(len(order) - 1)
            )
            one_word = len(scorer.emission.bag) == 1
            seen["one_word_ties"] += one_word and len(set(values)) < len(values)
            seen["subnormal"] += any(0.0 < value < sys.float_info.min for value in values)
    assert checked > 200 and all(count > 10 for count in seen.values()), (checked, seen)


def test_float_sums_lie_within_the_derived_bound():
    """|s - S| <= gamma * S for the exact sum S, and the value within band of s.

    The band is 0 for one or two query words, and the value is then s. On
    random corpora, with word multipliers, on chain_case, whose float sum
    falls short of its exact sum by nearly gamma itself, and on its ties,
    whose value lies further from the float sum than gamma / (1 - gamma)
    allows: the band needs its final rounding term u.
    """
    rng = random.Random(2802)
    cases = []
    for _ in range(25):
        docs = random_corpus(rng, max_docs=20, max_vocab=30, max_len=40)
        kb = make_kb(docs)
        words = list(kb.word_ids())
        attention = {w: rng.choice((0.3, 1.0, 7.0, 1e-300)) for w in rng.sample(words, 5)}
        for size in (1, 2, rng.randint(3, 30)):
            query = " ".join(rng.choices([kb.nodes[w].label for w in words], k=size))
            cases.append((kb, query, attention))
    for n in (3, 4, 9, 60):
        kb, query, attention, _ = chain_case(n)
        cases.append((kb, query, attention))
    for n in (4, 64):
        kb, query, attention, _ = chain_case(n, tie=True)
        cases.append((kb, query, attention))
    worst, worst_value = Fraction(0), Fraction(0)
    for kb, query, attention in cases:
        forward = collect(kb, emit(kb, query), attention)
        gamma = Fraction(_gamma(len(forward.factors))) if len(forward.factors) > 1 else 0
        band = Fraction(forward.band)
        for article in kb.articles:
            s = Fraction(forward.sums[article.ordinal])
            exact = exact_forward_sum(forward, article)
            assert abs(s - exact) <= gamma * exact
            bag = article.bag
            value = Fraction(math.fsum(f * bag[w] for w, f in forward.factors.items() if w in bag))
            assert abs(value - s) <= band * s
            # one or two terms: the float sums are the exactly rounded ones
            assert (forward.band == 0.0) == (len(forward.factors) <= 2)
            if exact and gamma:
                worst = max(worst, abs(s - exact) / (gamma * exact))
                worst_value = max(worst_value, abs(value - s) / (gamma / (1 - gamma) * s))
    # the chains come within 1% of gamma: a bound one term lower fails
    assert worst > Fraction(99, 100), float(worst)
    # the ties pass gamma / (1 - gamma): a band without its u fails
    assert worst_value > 1, float(worst_value)


def tuned(kb, word, n, target):
    """A multiplier m for word that makes its factor 1/n * m * wt(word) exactly target.

    The factor of a query of n distinct words, each once; n a power of two.
    """
    weight = kb.weights([kb.word_id(word)])[kb.word_id(word)]
    m = target * n / weight
    for _ in range(64):
        factor = 1 / n * m * weight
        if factor == target:
            return m
        m = math.nextafter(m, math.inf if factor < target else 0.0)
    raise AssertionError(f"no multiplier makes {word}'s factor {target}")


def chain_case(n, tie=False):
    """A query of n words, and an article d whose float sum is off by nearly gamma.

    Word w0 is in every article, so collect visits it first; w1 to w(n-1)
    are in d alone. Word multipliers make w0's term A just above 2**-4 and
    every other term just under half an ulp of A: each addition rounds
    down, the float sum stays A, and the exact sum is A + 0.499 (n - 1)
    ulp(A), about 0.998 (n - 1) u * A above it. x holds w0 alone, and
    eight longer fillers hold it once. Returns (kb, query, attention, d).

    With tie, A is 2**-4 and every other term exactly half an ulp of A:
    each addition is a tie that rounds to the even A, and where (n - 1) / 2
    is an odd number and a half (n = 4, 8, 12, ...) the exact sum A +
    (n - 1) u * A is a tie again, which fsum rounds up to A + n u * A.
    Tuning a term to an exact float needs an exact 1 / n: n = 4 or 64.
    """
    words = [f"w{i}" for i in range(n)]
    docs = {"d": " ".join(words), "x": "w0"}
    docs.update({f"f{i}": "w0 " + " ".join(["z"] * (2 * n)) for i in range(8)})
    kb = make_kb(docs)
    query = " ".join(words)
    weights = kb.weights([kb.word_id(word) for word in words])

    def factor(word, m):
        return 1 / n * m * weights[kb.word_id(word)]

    a = 2.0**-4
    if tie:
        attention = {kb.word_id(word): tuned(kb, word, n, a * 2.0**-53) for word in words[1:]}
        attention[kb.word_id("w0")] = tuned(kb, "w0", n, a)
        return kb, query, attention, kb.article_id("d")
    m0 = a * n / weights[kb.word_id("w0")] * (1 - 2.0**-48)
    while factor("w0", m0) < a:
        m0 = math.nextafter(m0, math.inf)
    attention = {kb.word_id("w0"): m0}
    target = 0.499 * math.ulp(factor("w0", m0))
    for word in words[1:]:
        attention[kb.word_id(word)] = target * n / weights[kb.word_id(word)]
    return kb, query, attention, kb.article_id("d")


def test_top_articles_allows_for_two_drifts_at_once():
    """Float sums 8 half-ulps apart whose values tie: the cut and the runs keep both.

    Four query words; w0, the commonest, has factor A = 2**-4, and w1, w2
    and w3 have factor h = A u, half an ulp of A. q holds w1, w2 and w3
    three times each: every addition of 3h is a tie rounded up, so q's
    float sum is A + 12h and its value fl(A + 9h) = A + 8h. p holds w1
    five times and w2 and w3 once: each addition rounds down by h, so its
    float sum is A + 4h and its value fl(A + 7h) = A + 8h. The values tie
    and the label puts p first. One value drifts up and the other down, so
    a cut that allowed 2(w - u) for both, about 6h here, would answer q.
    """
    words = ["w0", "w1", "w2", "w3"]
    docs = {
        "p": "w0 " + " ".join(["w1"] * 5) + " w2 w3",
        "q": "w0 " + " ".join(["w1", "w2", "w3"] * 3),
        "r": "w1 z",
    }
    docs.update({f"f{i}": "w0 z" for i in range(8)})
    kb = make_kb(docs)
    a, h = 2.0**-4, 2.0**-57
    attention = {kb.word_id(word): tuned(kb, word, 4, h) for word in words[1:]}
    attention[kb.word_id("w0")] = tuned(kb, "w0", 4, a)
    query = " ".join(words)
    scorer = QueryScorer(kb, query, attention)
    forward = scorer.forward_map
    p, q = kb.article(kb.article_id("p")), kb.article(kb.article_id("q"))
    assert (forward.sums[p.ordinal], forward.sums[q.ordinal]) == (a + 4 * h, a + 12 * h)
    assert forward.value(p) == forward.value(q) == a + 8 * h
    assert [article.id for article in forward.top_articles(2)] == [p.id, q.id]
    assert scorer.candidates(1, exclude_self=False) == [p.id]
    assert _rows(rank(kb, query, 1, 1, attention=attention)) == reference_rank(
        kb, query, 1, 1, attention=attention
    )


def test_slack_covers_a_float_sum_off_by_its_whole_band():
    """d's raw~ falls short of its raw by about 2 gamma, past 2**-48 alone.

    On chain_case(60), d's float sum and forward estimate are both about
    59u low. x's multiplier is tuned so that x's raw lies below d's, and
    above d's raw~ by more than _SLACK allows for: without the band term,
    top(k, 1) would skip d and answer x.
    """
    kb, query, attention, d = chain_case(60)
    x = kb.article_id("x")
    k = kb.article_count
    scorer = QueryScorer(kb, query, attention)
    d_raw = scorer.score(d).raw
    d_estimate = scorer._estimates([d])[0]
    assert d_raw > d_estimate * (1 + 100 * 2.0**-53)
    reverse_x = scorer.score(x).reverse
    pre_x = scorer.forward_map.sums[kb.article(x).ordinal]
    m = math.expm1(d_estimate * (1 + 90 * 2.0**-53) / reverse_x) / pre_x
    found = 0
    for step in range(-60, 61):
        mx = m
        for _ in range(abs(step)):
            mx = math.nextafter(mx, math.inf if step > 0 else 0.0)
        tuned = {**attention, x: mx}
        expected = reference_rank(kb, query, k, 1, attention=tuned)
        if expected[0][0] != "d":
            continue
        scorer = QueryScorer(kb, query, tuned)
        candidates = scorer.candidates(k)
        estimates = scorer._estimates(candidates)
        unbanded = mcrx.similarity._within_reach(estimates, 1, mcrx.similarity._SLACK)
        if candidates.index(d) in unbanded:
            continue
        found += 1
        assert _rows(scorer.top(k, 1)) == expected
        assert _rows(rank(kb, query, k, 1, attention=tuned)) == expected
    assert found > 5, found


def near_range_corpus(rng):
    """Documents over words a, b and c with tf 1 to 3."""
    docs = {}
    for i in range(rng.randint(2, 6)):
        tokens = [w for w in "abc" for _ in range(rng.choice((0, 1, 1, 2, 3)))] or ["a"]
        docs[f"d{i}"] = " ".join(tokens)
    return docs


def test_sums_near_the_float_range_refuse_as_exact_rounding_does():
    """UnscorableQueryError exactly when an exact sum rounds past the float range.

    Word multipliers put each term near float_info.max / 4, so sums of two
    to nine terms fall on both sides of the range: a sum that rounds past
    it refuses the query, collect and rank alike, and a value above half of
    float_info.max is kept, equal to the exact oracle's.
    """
    rng = random.Random(2803)
    biggest = sys.float_info.max
    outcomes = {"refused": 0, "kept": 0, "near_max": 0}
    for _ in range(300):
        kb = make_kb(near_range_corpus(rng))
        query = " ".join(rng.choices("abc", k=rng.randint(1, 4)))
        emission = emit(kb, query)
        weights = kb.weights(emission.bag)
        attention = {}
        for word, count in emission.bag.items():
            share = rng.uniform(0.05, 0.8) * biggest / (count / emission.length * weights[word] * 2)
            attention[word] = min(share, rng.uniform(0.5, 1.0) * biggest)
        try:
            expected = exact_forward(kb, query, attention)
        except UnscorableQueryError:
            outcomes["refused"] += 1
            with pytest.raises(UnscorableQueryError):
                collect(kb, emission, attention)
            with pytest.raises(UnscorableQueryError):
                rank(kb, query, 5, 1, attention=attention)
            continue
        outcomes["kept"] += 1
        assert list(collect(kb, emission, attention).as_dict().items()) == list(expected.items())
        outcomes["near_max"] += max(expected.values(), default=0.0) > biggest / 2
    assert all(count > 20 for count in outcomes.values()), outcomes
