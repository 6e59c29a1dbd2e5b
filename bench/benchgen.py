"""Seeded inputs for the mcrx benchmark.

Everything here derives from one integer seed through named random
streams, so the same seed always gives the same bytes; the program under
test only ever sees the generated files and texts, never the seed.

The corpus is Zipfian (s = 1.05 over a 20k-word vocabulary) rather than
uniform, because skewed posting lengths are what make forward collect
expensive. Document lengths are lognormal around 200 tokens; sentences
hold 6-20 tokens and paragraphs 2-6 sentences.

Run it directly to print every workload's input properties:

    python3 bench/benchgen.py --seed 1
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import random
import statistics
from dataclasses import dataclass

VOCAB_SIZE = 20_000
ZIPF_S = 1.05
MEAN_DOC_TOKENS = 200
DOC_LEN_SIGMA = 0.5
SENTENCE_TOKENS = (6, 20)
PARAGRAPH_SENTENCES = (2, 6)
LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Input sizes per workload. The 5k-document corpus is shared by build and
# warm-rank.
SIZES = {
    "build": {"docs": 5000},
    "warm-rank": {"docs": 5000, "long": 40, "short": 96},
    "scl-session": {"calls": 24},
}


def stream(seed: int, purpose: str) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random(f"mcrx-bench:{seed}:{purpose}")


@dataclass(frozen=True)
class Doc:
    id: str
    # paragraphs of sentences of tokens
    paragraphs: tuple[tuple[tuple[str, ...], ...], ...]

    @property
    def text(self) -> str:
        return "\n\n".join(
            " ".join(" ".join(sentence) + "." for sentence in paragraph)
            for paragraph in self.paragraphs
        )

    @property
    def tokens(self) -> int:
        return sum(len(s) for p in self.paragraphs for s in p)


class Zipf:
    """Seeded vocabulary with Zipf-distributed draws."""

    def __init__(self, seed: int, size: int = VOCAB_SIZE, s: float = ZIPF_S):
        rng = stream(seed, "vocab")
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < size:
            word = "".join(rng.choice(LETTERS) for _ in range(rng.randint(2, 9)))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self.cum_weights = list(
            itertools.accumulate(1.0 / rank**s for rank in range(1, size + 1))
        )

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=k)


DOC_LEN_MU = math.log(MEAN_DOC_TOKENS) - DOC_LEN_SIGMA**2 / 2


def make_doc(rng: random.Random, zipf: Zipf, doc_id: str, target: int | None = None) -> Doc:
    """A document of about `target` tokens (drawn lognormal when None)."""
    if target is None:
        target = round(rng.lognormvariate(DOC_LEN_MU, DOC_LEN_SIGMA))
    target = max(SENTENCE_TOKENS[0], target)
    sentences = []
    total = 0
    while total < target:
        sentence = tuple(zipf.draw(rng, rng.randint(*SENTENCE_TOKENS)))
        sentences.append(sentence)
        total += len(sentence)
    paragraphs = []
    while sentences:
        size = rng.randint(*PARAGRAPH_SENTENCES)
        paragraphs.append(tuple(sentences[:size]))
        sentences = sentences[size:]
    return Doc(doc_id, tuple(paragraphs))


@dataclass
class Corpus:
    docs: list[Doc]
    zipf: Zipf
    df: dict[str, int]
    tokens: int


def make_corpus(seed: int, ndocs: int) -> Corpus:
    zipf = Zipf(seed)
    rng = stream(seed, f"corpus-{ndocs}")
    docs = [make_doc(rng, zipf, f"d{i:05d}") for i in range(ndocs)]
    df: dict[str, int] = {}
    for doc in docs:
        for word in {w for p in doc.paragraphs for s in p for w in s}:
            df[word] = df.get(word, 0) + 1
    return Corpus(docs, zipf, df, sum(doc.tokens for doc in docs))


def write_jsonl(docs: list[Doc], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for doc in docs:
            handle.write(json.dumps({"id": doc.id, "text": doc.text}) + "\n")


def index_bytes(corpus: Corpus) -> bytes:
    """The MCRX-1 file that `mcrx build` writes for this corpus.

    Written straight from the generated structure so that preparing a
    5k-document index costs about a second instead of a full build. The
    build workload checks these bytes against the program's own output
    on every run.
    """
    d = len(corpus.docs)
    lines = [
        json.dumps(
            {
                "format": "MCRX-1",
                "levels": ["word", "sentence", "paragraph", "article"],
                "D": d,
                "total_tokens": corpus.tokens,
            },
            separators=(",", ":"),
        )
    ]
    for word in sorted(corpus.df):
        df = corpus.df[word]
        weight = format(math.log(1.0 + d / df), ".17g")
        lines.append('{"t":"word","tok":%s,"df":%d,"w":%s}' % (json.dumps(word), df, weight))
    for doc in sorted(corpus.docs, key=lambda doc: doc.id):
        paragraphs = [
            [[[word, len(list(run))] for word, run in itertools.groupby(sentence)] for sentence in paragraph]
            for paragraph in doc.paragraphs
        ]
        lines.append(
            json.dumps(
                {"t": "article", "label": doc.id, "paragraphs": paragraphs},
                separators=(",", ":"),
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def keyword_queries(
    rng: random.Random, corpus: Corpus, n: int, lengths: tuple[int, int]
) -> list[str]:
    """Zipf-drawn keyword queries, each holding at least one indexed word.

    Lengths are spread evenly over the range rather than drawn, so that
    every seed gives the same mix of query lengths.
    """
    low, high = lengths
    queries = []
    for k in range(n):
        length = low + round((high - low) * k / max(1, n - 1))
        words = corpus.zipf.draw(rng, length)
        while not any(word in corpus.df for word in words):
            words = corpus.zipf.draw(rng, length)
        queries.append(" ".join(words))
    rng.shuffle(queries)
    return queries


def short_queries(seed: int, corpus: Corpus, n: int) -> list[str]:
    return keyword_queries(stream(seed, "short-queries"), corpus, n, (1, 8))


def length_quantiles(n: int) -> list[int]:
    """n document lengths at evenly spaced quantiles of the length distribution."""
    normal = statistics.NormalDist(DOC_LEN_MU, DOC_LEN_SIGMA)
    return [round(math.exp(normal.inv_cdf((k + 0.5) / n))) for k in range(n)]


@dataclass(frozen=True)
class LongQuery:
    text: str
    own: str | None  # label of the indexed document whose text this is


def long_queries(seed: int, corpus: Corpus, n: int) -> list[LongQuery]:
    """Document-length queries: half indexed documents' own text, half held out.

    Both halves follow the length distribution at evenly spaced quantiles
    (own text: the indexed document nearest each quantile), so that every
    seed gives the same mix of query lengths.
    """
    rng = stream(seed, "long-queries")
    by_length = sorted(corpus.docs, key=lambda doc: (doc.tokens, doc.id))
    lengths = [doc.tokens for doc in by_length]
    picked: set[int] = set()
    own = []
    for target in length_quantiles(n // 2):
        index = min(bisect.bisect_left(lengths, target), len(by_length) - 1)
        while index in picked:
            index = (index + 1) % len(by_length)
        picked.add(index)
        own.append(LongQuery(by_length[index].text, by_length[index].id))
    held_out = [
        LongQuery(make_doc(rng, corpus.zipf, f"q{i:05d}", target).text, None)
        for i, target in enumerate(length_quantiles(n - n // 2))
    ]
    queries = own + held_out
    rng.shuffle(queries)
    return queries


@dataclass(frozen=True)
class SclCall:
    start: tuple[int, int]
    target: tuple[int, int]
    demo: tuple[tuple[int, int], ...] | None  # states of a --learn demonstration


UNIT_STEPS = ((0, 1), (0, -1), (-1, 0), (1, 0))


def scl_session(seed: int, calls: int) -> list[SclCall]:
    """A scl-demo session: about every third call learns a 3-12-step walk."""
    rng = stream(seed, "scl-session")

    def point(radius: int) -> tuple[int, int]:
        return (rng.randint(-radius, radius), rng.randint(-radius, radius))

    session = []
    for _ in range(calls):
        demo = None
        if rng.random() < 1 / 3:
            state = point(10)
            states = [state]
            for _ in range(rng.randint(3, 12)):
                dx, dy = rng.choice(UNIT_STEPS)
                state = (state[0] + dx, state[1] + dy)
                states.append(state)
            demo = tuple(states)
        start = point(12)
        target = point(12)
        while target == start:
            target = point(12)
        session.append(SclCall(start, target, demo))
    return session


def demo_text(states: tuple[tuple[int, int], ...]) -> str:
    return "".join(f"{x},{y}\n" for x, y in states)


def _spread(values: list[int]) -> str:
    if not values:
        return "n=0"
    return (
        f"n={len(values)} min={min(values)} median={statistics.median(values):g} "
        f"max={max(values)}"
    )


def describe_corpus(corpus: Corpus) -> str:
    postings = sorted(corpus.df.values())
    return (
        f"docs={len(corpus.docs)} tokens={corpus.tokens} distinct_words={len(corpus.df)} "
        f"posting_len_median={statistics.median(postings):g} posting_len_max={postings[-1]}"
    )


def describe_queries(label: str, texts: list[str]) -> str:
    return f"{label} query_tokens: {_spread([len(text.split()) for text in texts])}"


def describe_session(session: list[SclCall]) -> str:
    demos = [len(call.demo) - 1 for call in session if call.demo]
    distances = [
        abs(c.start[0] - c.target[0]) + abs(c.start[1] - c.target[1]) for c in session
    ]
    return (
        f"calls={len(session)} learn_calls={len(demos)} demo_steps: {_spread(demos)} "
        f"manhattan_distance: {_spread(distances)}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    big = make_corpus(args.seed, SIZES["warm-rank"]["docs"])
    print(f"build/warm-rank corpus: {describe_corpus(big)}")
    long_texts = [q.text for q in long_queries(args.seed, big, SIZES["warm-rank"]["long"])]
    print(describe_queries("warm-rank long", long_texts))
    print(describe_queries("warm-rank short", short_queries(args.seed, big, SIZES["warm-rank"]["short"])))
    print(f"scl-session: {describe_session(scl_session(args.seed, SIZES['scl-session']['calls']))}")


if __name__ == "__main__":
    main()
