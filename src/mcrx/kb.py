"""Layered compositional knowledge base.

Four levels: word=0, sentence=1, paragraph=2, article=3. Words and
articles are nodes (kb.nodes, by id): a word is a Node, deduplicated by
token (add_word); an article is one Article record holding all of its
facts, also at kb.articles[ordinal]. Sentences and paragraphs are not
nodes. An article's text structure is packed runs, four 32-bit integer
arrays on its record: the word id and count of every run of a repeated
token, in text order, the number of runs in each sentence and the
number of sentences in each paragraph. The same word may appear in
several runs, so the token order survives and top-down regeneration
reproduces the ingested text exactly.

Articles enter through one path, add_article, which both ingestion and
load_index call with the article's paragraphs of sentences of (token,
count) runs, the form an MCRX-1 article record holds. It checks them,
then adds the new words, stores the runs as arrays and fills the
article's token bag and postings from them (kb.df(word_id) is read off
the postings, which group each word's article ordinals by term
frequency, each group a list that holds the article's own ordinal int, so
every entry of one article is the same object and reading a group makes
no new int). kb.runs(article_id) gives the same form back and is the one
reader that nests the arrays; no other mcrx module reads them.
Word weights are read through kb.weights alone, current after any insert.

The knowledge base also keeps the tokenization rules its articles were
segmented with (kb.tokenization); queries tokenize by the same rules.

Persistence uses the line-delimited MCRX-1 format, see save_index. Save
and load stream the file one record at a time through textfile (the one
reader and writer of every file mcrx touches), so neither holds the
whole file's text. A save writes a temporary file beside the target and
moves it into place, so a failed save leaves the old file intact.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass

from .errors import (
    DuplicateDocumentError,
    IndexFormatError,
    MissingNodeError,
    VersionMismatchError,
)
from .textfile import _parse_record, utf8_lines, write_lines_atomic

WORD = 0
SENTENCE = 1
PARAGRAPH = 2
ARTICLE = 3

DEFAULT_LEVELS = ("word", "sentence", "paragraph", "article")

FORMAT_VERSION = "MCRX-1"


def render_real(x: float) -> str:
    """Render a float with 17 significant digits (lossless round trip)."""
    return format(x, ".17g")


@dataclass(frozen=True)
class TokenizationRules:
    """Whether tokens are lowercased, and the least token length kept.

    ValueError for a lowercase that is not a bool or a min_token_len that
    is not an int >= 1.
    """

    lowercase: bool = True
    min_token_len: int = 1

    def __post_init__(self):
        if not isinstance(self.lowercase, bool):
            raise ValueError(f"lowercase {self.lowercase!r} is not a bool")
        if type(self.min_token_len) is not int or self.min_token_len < 1:
            raise ValueError(f"min_token_len {self.min_token_len!r} is not an int >= 1")


DEFAULT_RULES = TokenizationRules()


def word_weight(article_count: int, df: int) -> float:
    """A word's weight wt(w) = ln(1 + D/df(w)), D the number of articles.

    The +1 smoothing keeps every indexed word strictly positive: a word
    present in every article still weighs ln 2 instead of silently
    vanishing from all scores.
    """
    return math.log(1.0 + article_count / df)


def check_multiplier(value: object, name: str) -> float:
    """An attention multiplier as a float: a finite number >= 0, not a bool.

    Anything else, an int too large for a float included, raises
    ValueError naming name.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 <= value <= sys.float_info.max
    ):
        raise ValueError(f"{name}: attention multiplier must be a finite number >= 0")
    return float(value)


@dataclass(slots=True)
class Node:
    """A word: its token (label) and weight wt(w) (KnowledgeBase.weights)."""

    id: int
    label: str
    weight: float = 0.0
    level = WORD


@dataclass(slots=True)
class Article:
    """An article: its packed runs and the facts derived from them.

    The same record is kb.nodes[id] and kb.articles[ordinal]; ordinal is
    its place in insertion order, which the postings hold. A run is one
    word repeated count >= 1 times: words and counts hold each run's word
    id and count in text order, sentence_runs the number of runs in each
    sentence, paragraph_sentences the number of sentences in each
    paragraph, each a 32-bit int array (array('i')), so every value lies
    below 2**31; kb.runs nests them. bag maps word id -> tf in
    first-occurrence order and length sums it. title is None when the
    article has none.
    """

    id: int
    label: str
    ordinal: int
    words: array
    counts: array
    sentence_runs: array
    paragraph_sentences: array
    bag: dict[int, int]
    length: int
    title: str | None
    level = ARTICLE


class KnowledgeBase:
    """Graph store plus corpus statistics and attention multipliers."""

    def __init__(self):
        self.nodes: list[Node | Article] = []  # words and articles, by id
        self.articles: list[Article] = []  # the same article records, by ordinal
        # label -> id, kept for the levels where labels are meaningful
        self._word_ids: dict[str, int] = {}
        self._article_ids: dict[str, int] = {}
        self.attention: dict[int, float] = {}
        # word id -> tf -> ordinals of the articles holding the word tf times,
        # ascending, as a list of each Article.ordinal object; add_word gives
        # every word an entry
        self.postings: dict[int, dict[int, list[int]]] = {}
        self.tokenization = DEFAULT_RULES
        self._weighed = 0  # the article count the word weights are computed for

    @property
    def article_count(self) -> int:
        return len(self.articles)

    @property
    def word_count(self) -> int:
        return len(self._word_ids)

    @property
    def total_tokens(self) -> int:
        return sum(article.length for article in self.articles)

    @property
    def level_counts(self) -> list[int]:
        """Words, sentences, paragraphs and articles, read off the tables."""
        sentences = sum(len(article.sentence_runs) for article in self.articles)
        paragraphs = sum(len(article.paragraph_sentences) for article in self.articles)
        return [self.word_count, sentences, paragraphs, self.article_count]

    def node(self, node_id: int) -> Node | Article:
        if type(node_id) is not int or not 0 <= node_id < len(self.nodes):
            raise MissingNodeError(f"no node with id {node_id}")
        return self.nodes[node_id]

    def article(self, node_id: int) -> Article:
        """An article id's record; MissingNodeError, or ValueError for a word's id."""
        node = self.node(node_id)
        if node.level != ARTICLE:
            raise ValueError(f"node {node_id} is not an article")
        return node

    def word_id(self, token: str) -> int | None:
        return self._word_ids.get(token)

    def df(self, word_id: int) -> int:
        """Number of articles holding a word, read off its postings."""
        return sum(map(len, self.postings[word_id].values()))

    def word_ids(self) -> Iterable[int]:
        """Ids of every word node, in creation order."""
        return self._word_ids.values()

    def weights(self, word_ids: Iterable[int]) -> dict[int, float]:
        """Word id -> wt(w); computed anew (compute_weights) after an insert."""
        if self._weighed != len(self.articles):  # every insert raises D
            compute_weights(self)
        return {word_id: self.nodes[word_id].weight for word_id in word_ids}

    def article_id(self, label: str) -> int | None:
        return self._article_ids.get(label)

    def title(self, article_id: int) -> str:
        """An article's title, or its label when it has none."""
        article = self.article(article_id)
        return article.label if article.title is None else article.title

    def add_word(self, token: str) -> int:
        """Id of the word node for token, created on first sight (TypeError for a non-str)."""
        word_id = self._word_ids.get(token)
        if word_id is None:
            if type(token) is not str:
                raise TypeError(f"token {token!r} is not a str")
            word_id = len(self.nodes)
            self.nodes.append(Node(word_id, token))
            self._word_ids[token] = word_id
            self.postings[word_id] = {}
        return word_id

    def add_article(
        self,
        label: str,
        paragraphs: Sequence[Sequence[Sequence[Sequence]]],
        title: str | None = None,
    ) -> int:
        """Insert an article from paragraphs of sentences of (token, count) runs.

        Returns the article's id. Tokens that are no word yet become words
        (add_word) in first-occurrence order once every check has passed. The
        runs are stored packed; the bag, length and postings are filled from
        them. A failed check inserts nothing: TypeError for a label, title or
        token that is not a str and for an unhashable token,
        DuplicateDocumentError for a known label, TypeError or ValueError for a
        run that is not a pair, ValueError for a count that is not a positive
        int or is 2**31 or more (the 32-bit range) and for an article,
        paragraph or sentence with nothing in it.
        """
        if type(label) is not str:
            raise TypeError(f"label {label!r} is not a str")
        if title is not None and type(title) is not str:
            raise TypeError(f"title {title!r} is not a str")
        flat = [run for sentences in paragraphs for runs in sentences for run in runs]
        tokens = [token for token, _ in flat]
        counts = [count for _, count in flat]
        sentence_runs = [len(runs) for sentences in paragraphs for runs in sentences]
        paragraph_sentences = [len(sentences) for sentences in paragraphs]
        word_ids = self._word_ids
        try:
            words, new = list(map(word_ids.__getitem__, tokens)), []
        except KeyError:  # the article brings new words
            new = [token for token in dict.fromkeys(tokens) if token not in word_ids]
        not_str = [token for token in new if type(token) is not str]
        if not_str:
            raise TypeError(f"token {not_str[0]!r} is not a str")
        if label in self._article_ids:
            raise DuplicateDocumentError(f"document {label!r} already ingested")
        if counts and (set(map(type, counts)) != {int} or min(counts) < 1):
            bad = next(c for c in counts if type(c) is not int or c < 1)
            raise ValueError(f"word count {bad!r} is not a positive int")
        try:
            arrays = array("i", counts), array("i", sentence_runs), array("i", paragraph_sentences)
        except OverflowError as exc:
            raise ValueError(f"run value out of range ({exc})") from exc
        if min(sentence_runs, default=0) < 1 or min(paragraph_sentences, default=0) < 1:
            raise ValueError("empty article, paragraph or sentence")
        if new:
            for token in new:
                self.add_word(token)
            words = list(map(word_ids.__getitem__, tokens))
        bag = {}  # first-occurrence order
        for word_id, count in zip(words, counts):
            bag[word_id] = bag.get(word_id, 0) + count
        length = sum(counts)

        article_id, ordinal = len(self.nodes), len(self.articles)
        words = array("i", words)  # every word id is below 2**31
        article = Article(article_id, label, ordinal, words, *arrays, bag, length, title)
        self.nodes.append(article)
        self.articles.append(article)
        self._article_ids[label] = article_id
        postings = self.postings  # one entry per word, made by add_word
        for word_id, count in bag.items():
            groups = postings[word_id]
            group = groups.get(count)
            if group is None:
                groups[count] = [ordinal]
            else:
                group.append(ordinal)
        return article_id

    def runs(self, article_id: int) -> list[list[list[tuple[str, int]]]]:
        """An article's paragraphs of sentences of (token, count) runs,
        the form add_article takes; the one reader that nests its arrays."""
        article = self.article(article_id)
        nodes = self.nodes
        runs = [(nodes[w].label, n) for w, n in zip(article.words, article.counts)]
        sentences = []
        start = 0
        for size in article.sentence_runs:
            sentences.append(runs[start : start + size])
            start += size
        paragraphs = []
        start = 0
        for size in article.paragraph_sentences:
            paragraphs.append(sentences[start : start + size])
            start += size
        return paragraphs

    def set_attention(self, node_id: int, multiplier: float) -> None:
        """Set a node's attention multiplier; 1.0 restores the default.

        Raises ValueError for a multiplier that is not a finite number
        >= 0 (see check_multiplier).
        """
        self.node(node_id)
        multiplier = check_multiplier(multiplier, f"node {node_id}")
        if multiplier == 1.0:
            self.attention.pop(node_id, None)
        else:
            self.attention[node_id] = multiplier

    def attention_snapshot(self, attention: dict | None = None) -> dict[int, float]:
        """A query's attention map, isolated from later rule changes: a copy
        of kb.attention, or of attention with each key and multiplier
        checked as set_attention checks them (MissingNodeError for a key
        that is not an int node id, ValueError for a bad multiplier)."""
        if attention is None:
            return dict(self.attention)
        return {
            self.node(key).id: check_multiplier(value, f"node {key}")
            for key, value in attention.items()
        }


def compute_weights(kb: KnowledgeBase) -> None:
    """Assign every word its weight (word_weight); an orphan word weighs 0."""
    d = kb.article_count
    if d < 1:
        raise ValueError("cannot compute weights on an empty knowledge base")
    for word_id in kb.word_ids():
        df = kb.df(word_id)
        kb.nodes[word_id].weight = word_weight(d, df) if df else 0.0
    kb._weighed = d


def save_index(kb: KnowledgeBase, path: str) -> None:
    """Write the knowledge base as an MCRX-1 file.

    Line 1 is a header object; then one word record per line sorted by
    token; then one article record per line sorted by label, carrying the
    nested paragraph/sentence structure as arrays of arrays of
    (token, count) pairs. Reals carry 17 significant digits. The header
    carries a "tokenization" object only for rules other than the
    defaults, so an index built with the defaults has the same bytes as
    one written before the key existed.
    """
    write_lines_atomic(path, _index_lines(kb))


def _index_lines(kb: KnowledgeBase) -> Iterator[str]:
    """The MCRX-1 lines of a knowledge base, one record at a time."""
    header = {
        "format": FORMAT_VERSION,
        "levels": list(DEFAULT_LEVELS),
        "D": kb.article_count,
        "total_tokens": kb.total_tokens,
    }
    if kb.tokenization != DEFAULT_RULES:
        header["tokenization"] = asdict(kb.tokenization)
    yield json.dumps(header, separators=(",", ":"), ensure_ascii=False) + "\n"
    weights = kb.weights(kb.word_ids())
    for token in sorted(kb._word_ids):
        word_id = kb._word_ids[token]
        df = kb.df(word_id)
        if df < 1:
            continue  # orphan word, reachable from no article
        yield '{"t":"word","tok":%s,"df":%d,"w":%s}\n' % (
            json.dumps(token, ensure_ascii=False),
            df,
            render_real(weights[word_id]),
        )
    for article in sorted(kb.articles, key=lambda article: article.label):
        record: dict = {"t": "article", "label": article.label}
        if article.title is not None:
            record["title"] = article.title
        record["paragraphs"] = kb.runs(article.id)
        yield json.dumps(record, separators=(",", ":"), ensure_ascii=False) + "\n"


def load_index(path: str) -> KnowledgeBase:
    """Read an MCRX-1 file back into a knowledge base.

    Raises VersionMismatchError for a foreign format string and
    IndexFormatError (with the line number) for a file that is not UTF-8
    text, for malformed records (a lone surrogate escape included), for
    level names other than DEFAULT_LEVELS, for a header D or total_tokens
    that is not an int (a bool or 2.0 is not) or for bad header
    tokenization rules. The file is read by textfile.utf8_lines, one line
    at a time.
    """
    # lines end at "\n" only: a title may hold U+2028, U+2029 or U+0085
    lines = utf8_lines(path)
    first = next(lines, None)
    if first is None:
        raise IndexFormatError("empty index file", 1)
    header = _parse_record(first[1], 1)
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(f"expected format {FORMAT_VERSION!r}, found {version!r}")
    # article records nest exactly paragraph/sentence/word
    if header.get("levels") != list(DEFAULT_LEVELS):
        raise IndexFormatError(f"header levels must be {list(DEFAULT_LEVELS)}", 1)
    for key in ("D", "total_tokens"):
        if type(header.get(key)) is not int:
            raise IndexFormatError(f"header {key} must be an int", 1)

    kb = KnowledgeBase()
    kb.tokenization = _load_tokenization(header.get("tokenization", {}))
    declared_df: dict[int, tuple[int, int]] = {}  # word id -> (df, line)
    for number, raw in lines:
        if not raw.strip():
            raise IndexFormatError("blank line inside index", number)
        record = _parse_record(raw, number)
        kind = record.get("t")
        if kind == "word":
            word_id = _load_word(kb, record, number)
            declared_df[word_id] = (record["df"], number)
        elif kind == "article":
            _load_article(kb, record, number)
        else:
            raise IndexFormatError(f"unknown record type {kind!r}", number)

    if header["D"] != kb.article_count:
        raise IndexFormatError(
            f"header D={header['D']} but file holds {kb.article_count} articles", 1
        )
    if header["total_tokens"] != kb.total_tokens:
        raise IndexFormatError(
            f"header total_tokens={header['total_tokens']} but file sums "
            f"to {kb.total_tokens}",
            1,
        )
    for word_id, (declared, line) in declared_df.items():
        node = kb.nodes[word_id]
        derived = kb.df(word_id)
        if derived != declared:
            raise IndexFormatError(
                f"stored df {declared} for {node.label!r} disagrees with derived df {derived}",
                line,
            )
        # save_index writes current weights and .17g round-trips, so a saved
        # weight equals the formula bit for bit; this also rejects NaN/Infinity
        if node.weight != word_weight(kb.article_count, declared):
            raise IndexFormatError(
                f"stored weight {node.weight!r} for {node.label!r} is not "
                f"ln(1 + D/df)",
                line,
            )
    kb._weighed = kb.article_count
    return kb


def _load_tokenization(record: object) -> TokenizationRules:
    """The header's tokenization rules; absent keys take the defaults."""
    if not isinstance(record, dict) or not record.keys() <= {"lowercase", "min_token_len"}:
        raise IndexFormatError("header tokenization must hold lowercase/min_token_len only", 1)
    try:
        return TokenizationRules(**record)
    except ValueError as exc:
        raise IndexFormatError(f"header tokenization: {exc}", 1) from exc


def _load_word(kb: KnowledgeBase, record: dict, line: int) -> int:
    try:
        token = record["tok"]
        df = record["df"]
        weight = record["w"]
    except KeyError as exc:
        raise IndexFormatError(f"word record missing {exc.args[0]!r}", line) from exc
    if not isinstance(token, str) or type(df) is not int or df < 1:
        raise IndexFormatError("word record has bad tok/df", line)
    if kb.word_id(token) is not None:
        raise IndexFormatError(f"duplicate word record for {token!r}", line)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise IndexFormatError("word record has non-numeric weight", line)
    word_id = kb.add_word(token)
    kb.nodes[word_id].weight = float(weight)
    return word_id


def _load_article(kb: KnowledgeBase, record: dict, line: int) -> None:
    label = record.get("label")
    first_new = len(kb.nodes)
    try:
        kb.add_article(label, record.get("paragraphs"), record.get("title"))
    except DuplicateDocumentError as exc:
        raise IndexFormatError(f"duplicate article record for {label!r}", line) from exc
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"malformed article structure ({exc})", line) from exc
    if len(kb.nodes) > first_new + 1:  # a word came in with the article
        unlisted = kb.nodes[first_new].label
        raise IndexFormatError(f"article references unlisted word {unlisted!r}", line)
