"""Independent brute-force references the test suite checks against.

Everything here is written from the definitions, not from the library
code paths: dense loops over whole documents instead of posting lists,
plain accumulation instead of exact summation, and a queue-based BFS
instead of the best-first planner. The exceptions are reference_rank
and reference_compare, which tokenize with the library's own emit and
sum each directional activation as one plain math.fsum per article or
text (directional_sum), so that rank and QueryScorer.score can be
compared with them bit for bit, and check_kb, which rebuilds a
knowledge base's derived tables from its stored runs.
"""

from __future__ import annotations

import math
import re
from collections import Counter, deque

from mcrx.activation import emit
from mcrx.errors import UnscorableQueryError
from mcrx.kb import WORD
from mcrx.similarity import combine, normalize

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def toks(text):
    return [t.lower() for t in _TOKEN_RE.findall(text)]


def corpus_weights(doc_texts):
    """Token bags, document frequencies and weights for a raw corpus."""
    bags = {doc_id: Counter(toks(text)) for doc_id, text in doc_texts.items()}
    bags = {doc_id: bag for doc_id, bag in bags.items() if bag}
    df = Counter()
    for bag in bags.values():
        for word in bag:
            df[word] += 1
    d = len(bags)
    weights = {word: math.log(1.0 + d / count) for word, count in df.items()}
    return bags, weights


def check_kb(kb):
    """Full-scan check of a knowledge base's runs against everything derived from them.

    AssertionError for a table that disagrees or for a run holding a node
    that is not a word.
    """
    if len(kb.nodes) != len(kb.word_ids()) + len(kb.articles):
        raise AssertionError("node table disagrees with the word and article tables")
    derived_postings = {}
    for ordinal, article in enumerate(kb.articles):
        if article.ordinal != ordinal or kb.node(article.id) is not article:
            raise AssertionError(f"article {article.label!r} is off its ordinal or node slot")
        if sum(article.sentence_runs) != len(article.words) or sum(
            article.paragraph_sentences
        ) != len(article.sentence_runs):
            raise AssertionError(f"run lengths of article {article.id} do not add up")
        bag = {}
        for word_id, count in zip(article.words, article.counts):
            if kb.node(word_id).level != WORD:
                raise AssertionError(f"article {article.id} holds node {word_id}, not a word")
            bag[word_id] = bag.get(word_id, 0) + count
        if bag != article.bag or sum(bag.values()) != article.length:
            raise AssertionError(f"stored bag of article {article.id} disagrees with its runs")
        for word_id, count in bag.items():
            derived_postings.setdefault(word_id, {}).setdefault(count, []).append(ordinal)
    postings = {w: groups for w, groups in kb.postings.items() if groups}
    if derived_postings != postings:
        raise AssertionError("postings disagree with the runs")
    for groups in postings.values():
        for group in groups.values():
            if type(group) is not list or any(o is not kb.articles[o].ordinal for o in group):
                raise AssertionError("a posting group is not a list of its articles' ordinals")
    if kb._article_ids != {article.label: article.id for article in kb.articles}:
        raise AssertionError("article label table disagrees with the articles")


def dense_emission(query_tokens, weights):
    length = len(query_tokens)
    counts = Counter(query_tokens)
    return {w: c / length for w, c in counts.items() if w in weights}, counts, length


def dense_activation(bags, weights, query_tokens, word_att=None, doc_att=None):
    """A(d) = m(d) * sum_w e(w) m(w) wt(w) tf_d(w), dense over all docs."""
    word_att = word_att or {}
    doc_att = doc_att or {}
    emission, _, _ = dense_emission(query_tokens, weights)
    activations = {}
    for doc_id, bag in bags.items():
        total = 0.0
        for word, value in emission.items():
            if word in bag:
                total += value * word_att.get(word, 1.0) * weights[word] * bag[word]
        total *= doc_att.get(doc_id, 1.0)
        if total != 0.0:
            activations[doc_id] = total
    return activations


def dense_self_activation(query_tokens, weights, word_att=None):
    word_att = word_att or {}
    emission, counts, _ = dense_emission(query_tokens, weights)
    return sum(
        value * word_att.get(word, 1.0) * weights[word] * counts[word]
        for word, value in emission.items()
    )


def dense_rank(bags, weights, query_tokens, k=100, word_att=None, doc_att=None):
    """Full pipeline done densely: (label, percent, reverse, forward) rows."""
    word_att = word_att or {}
    forward = dense_activation(bags, weights, query_tokens, word_att, doc_att)
    self_act = dense_self_activation(query_tokens, weights, word_att)
    if self_act <= 0:
        raise ValueError("unscorable query")
    self_raw = self_act * math.log1p(self_act)
    query_counts = Counter(query_tokens)
    candidates = sorted(forward.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    rows = []
    for doc_id, t_value in candidates:
        bag = bags[doc_id]
        length = sum(bag.values())
        s_value = sum(
            (count / length) * word_att.get(word, 1.0) * weights[word] * query_counts[word]
            for word, count in bag.items()
            if word in query_counts and word in weights
        )
        raw = s_value * math.log1p(t_value)
        rows.append((doc_id, 100.0 * raw / self_raw, s_value, t_value))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def directional_sum(kb, bag, length, other, attention):
    """fsum of count/length * m(w) * wt(w) * tf over the words bag shares with other.

    bag emits, other receives; UnscorableQueryError when the exact sum
    leaves the float range.
    """
    weights = kb.weights(bag)
    try:
        return math.fsum(
            count / length * attention.get(word, 1.0) * weights[word] * other[word]
            for word, count in bag.items()
            if word in other
        )
    except OverflowError as exc:
        raise UnscorableQueryError() from exc


def reference_rank(kb, query, k, n, exclude_self=True, attention=None):
    """rank() as a pipeline of per-article passes and full sorts.

    Forward: emit once, one directional_sum on every article bag, times
    the article's multiplier. Candidates: every activated article sorted
    by (-forward, label), cut at k, self removed after the cut. Reverse:
    each candidate's bag and length summed on the query bag. Returns
    (label, percent, raw, reverse, forward) rows, best n by percent.
    """
    attention = dict(kb.attention) if attention is None else dict(attention)
    emission = emit(kb, query)
    query_bag, query_length = emission.bag, emission.length
    forward = {}
    for article in kb.articles:
        value = directional_sum(kb, query_bag, query_length, article.bag, attention)
        value *= attention.get(article.id, 1.0)
        if value != 0.0:
            forward[article.id] = value
    self_activation = directional_sum(kb, query_bag, query_length, query_bag, attention)
    self_raw = combine(self_activation, self_activation)
    if self_raw <= 0:
        raise UnscorableQueryError(emission.unknown_words)
    nodes = kb.nodes
    ranked = sorted(forward.items(), key=lambda item: (-item[1], nodes[item[0]].label))[:k]
    rows = []
    for article_id, value in ranked:
        if exclude_self and article_id == query:
            continue
        bag, length = kb.nodes[article_id].bag, kb.nodes[article_id].length
        reverse = directional_sum(kb, bag, length, query_bag, attention)
        raw = combine(reverse, value)
        rows.append((nodes[article_id].label, normalize(raw, self_raw), raw, reverse, value))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:n]


def reference_compare(kb, a, b, attention=None):
    """`mcrx compare` as two explicit directional passes.

    Each side is an article id or a text. Forward: a's emission collected
    on b's bag, times b's multiplier if b is an article. Reverse: b's
    emission collected on a's bag, with no multiplier. Returns (forward,
    reverse, raw, percent), percent against a's self score.
    """
    attention = dict(kb.attention) if attention is None else dict(attention)

    def directional(source, destination, multiply):
        if isinstance(destination, int):
            bag = kb.nodes[destination].bag
        else:
            bag = emit(kb, destination).bag
        emission = emit(kb, source)
        value = directional_sum(kb, emission.bag, emission.length, bag, attention)
        if multiply and isinstance(destination, int):
            value *= attention.get(destination, 1.0)
        return value

    forward = directional(a, b, True)
    reverse = directional(b, a, False)
    emission = emit(kb, a)
    self_activation = directional_sum(kb, emission.bag, emission.length, emission.bag, attention)
    raw = combine(reverse, forward)
    return forward, reverse, raw, normalize(raw, combine(self_activation, self_activation))


def bfs_min_actions(effects, start, target, max_depth=12):
    """Least number of actions reaching target, or None within max_depth."""
    if start == target:
        return 0
    queue = deque([(start, 0)])
    seen = {start}
    while queue:
        state, depth = queue.popleft()
        if depth >= max_depth:
            continue
        for dx, dy in effects:
            nxt = (state[0] + dx, state[1] + dy)
            if nxt == target:
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, depth + 1))
    return None


def random_corpus(rng, max_docs=50, max_vocab=200, max_len=100):
    """Random raw corpus: {doc id: text} with punctuation and paragraphs."""
    vocab = [f"w{i}" for i in range(rng.randint(5, max_vocab))]
    docs = {}
    for index in range(rng.randint(2, max_docs)):
        words = rng.choices(vocab, k=rng.randint(1, max_len))
        pieces = []
        for word in words:
            pieces.append(word)
            roll = rng.random()
            if roll < 0.08:
                pieces.append(rng.choice([".", "!", "?"]))
            elif roll < 0.10:
                pieces.append("\n\n")
        docs[f"d{index:03d}"] = " ".join(pieces)
    return docs
