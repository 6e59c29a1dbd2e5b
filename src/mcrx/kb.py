"""Layered compositional knowledge base.

Nodes live on four levels: word=0, sentence=1, paragraph=2, article=3.
Every node is an ordered collection of nodes one level below; word nodes
are leaves, deduplicated globally by token (add_word). Children are
stored run-length encoded, as an ordered sequence of (child id, count)
pairs in which the same child may appear in several entries, so the
original token order survives and top-down regeneration reproduces the
ingested text exactly.

Articles enter through one path, add_article, which both ingestion and
load_index call: it takes the article's paragraphs of sentences of
(word id, count) runs, creates the sentence, paragraph and article nodes,
and fills the article's token bag, df and postings from the same runs.
Links run top-down only; no parent index is kept. add_article also gives
the article an empty term bin, which forward collection reuses across
queries (see activation.collect).

Persistence uses the line-delimited MCRX-1 format, see save_index. A save
writes a temporary file beside the target and moves it into place, so a
failed save leaves the old file intact.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    DuplicateDocumentError,
    IndexFormatError,
    LayeringError,
    MissingNodeError,
    StaleWeightsError,
    VersionMismatchError,
)

WORD = 0
SENTENCE = 1
PARAGRAPH = 2
ARTICLE = 3

DEFAULT_LEVELS = ("word", "sentence", "paragraph", "article")

FORMAT_VERSION = "MCRX-1"


def render_real(x: float) -> str:
    """Render a float with 17 significant digits (lossless round trip)."""
    return format(x, ".17g")


@dataclass(slots=True)
class Node:
    id: int
    level: int
    label: str | None = None
    weight: float = 1.0
    # ordered (child id, count) pairs, run-length encoded
    children: tuple[tuple[int, int], ...] = ()


class KnowledgeBase:
    """Graph store plus corpus statistics and attention multipliers."""

    def __init__(self, levels: tuple[str, ...] = DEFAULT_LEVELS):
        if len(levels) != 4:
            raise ValueError("need four level names: word, sentence, paragraph, article")
        self.levels = tuple(levels)
        self.nodes: list[Node] = []
        self.level_counts = [0] * 4
        # label -> id, kept for the levels where labels are meaningful
        self._word_ids: dict[str, int] = {}
        self._article_ids: dict[str, int] = {}
        self.attention: dict[int, float] = {}
        self.df: dict[int, int] = {}
        self.total_tokens = 0
        # article ordinal -> article node id, in insertion order
        self.article_order: list[int] = []
        # article ordinal -> forward-collect terms; empty between queries,
        # filled and emptied by activation.collect under collect_lock
        self.term_bins: list[list[float]] = []
        self.collect_lock = threading.Lock()
        # word id -> (ordinals where tf == 1, (ordinal, tf) pairs where tf > 1)
        self.postings: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
        self.article_bags: dict[int, dict[int, int]] = {}
        self.article_len: dict[int, int] = {}
        self.titles: dict[int, str] = {}
        self.weights_computed = True  # vacuously true while empty

    @property
    def top_level(self) -> int:
        return ARTICLE

    @property
    def article_count(self) -> int:
        return self.level_counts[self.top_level]

    @property
    def word_count(self) -> int:
        return self.level_counts[WORD]

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise MissingNodeError(f"no node with id {node_id}")
        return self.nodes[node_id]

    def word_id(self, token: str) -> int | None:
        return self._word_ids.get(token)

    def word_ids(self) -> Iterable[int]:
        """Ids of every word node, in creation order."""
        return self._word_ids.values()

    def article_id(self, label: str) -> int | None:
        return self._article_ids.get(label)

    def article_labels(self) -> list[str]:
        return sorted(self._article_ids)

    def title(self, article_id: int) -> str:
        label = self.node(article_id).label
        return self.titles.get(article_id, label or "")

    def _new_node(self, level: int, label: str | None, children: tuple) -> int:
        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, level, label, 1.0, children))
        self.level_counts[level] += 1
        return node_id

    def add_word(self, token: str) -> int:
        """Id of the word node for token, created on first sight."""
        word_id = self._word_ids.get(token)
        if word_id is None:
            word_id = self._new_node(WORD, token, ())
            self._word_ids[token] = word_id
            self.weights_computed = False
        return word_id

    def add_article(
        self,
        label: str,
        paragraphs: Sequence[Sequence[Sequence[tuple[int, int]]]],
    ) -> int:
        """Insert an article and return its id.

        paragraphs holds sentences of (word id, count) runs. Each
        paragraph's sentence nodes are created, then the paragraph node;
        the article node comes last. The article's bag, length, df and
        postings are filled from the runs in the same pass. Nothing is
        inserted if a check fails: DuplicateDocumentError for a known
        label, MissingNodeError for an unknown id, LayeringError for an
        id that is not a word, ValueError for a count that is not a
        positive int.
        """
        if label in self._article_ids:
            raise DuplicateDocumentError(f"document {label!r} already ingested")
        bag: dict[int, int] = {}
        for sentences in paragraphs:
            for runs in sentences:
                for word_id, count in runs:
                    if type(count) is not int or count < 1:
                        raise ValueError(f"word count {count!r} is not a positive int")
                    bag[word_id] = bag.get(word_id, 0) + count
        for word_id in bag:
            if self.node(word_id).level != WORD:
                raise LayeringError(f"node {word_id} is not a word")

        paragraph_ids = []
        for sentences in paragraphs:
            sentence_ids = tuple(
                (self._new_node(SENTENCE, None, tuple(runs)), 1) for runs in sentences
            )
            paragraph_ids.append((self._new_node(PARAGRAPH, None, sentence_ids), 1))
        article_id = self._new_node(ARTICLE, label, tuple(paragraph_ids))
        self._article_ids[label] = article_id
        self.weights_computed = False

        length = sum(bag.values())
        self.article_bags[article_id] = bag
        self.article_len[article_id] = length
        self.total_tokens += length
        ordinal = len(self.article_order)
        self.article_order.append(article_id)
        self.term_bins.append([])
        df = self.df
        postings = self.postings
        for word_id, count in bag.items():
            df[word_id] = df.get(word_id, 0) + 1
            entry = postings.get(word_id)
            if entry is None:
                entry = postings[word_id] = ([], [])
            if count == 1:
                entry[0].append(ordinal)
            else:
                entry[1].append((ordinal, count))
        return article_id

    def _accumulate_bag(self, node_id: int, factor: int, bag: dict[int, int]) -> None:
        node = self.nodes[node_id]
        if node.level == WORD:
            bag[node_id] = bag.get(node_id, 0) + factor
            return
        for child_id, count in node.children:
            self._accumulate_bag(child_id, factor * count, bag)

    def subtree_bag(self, node_id: int, factor: int = 1) -> dict[int, int]:
        """Word multiplicities under a node, scaled by factor."""
        bag: dict[int, int] = {}
        self._accumulate_bag(self.node(node_id).id, factor, bag)
        return bag

    def set_attention(self, node_id: int, multiplier: float) -> None:
        """Set a node's attention multiplier; 1.0 restores the default."""
        self.node(node_id)
        if multiplier < 0:
            raise ValueError("attention multiplier must be >= 0")
        if multiplier == 1.0:
            self.attention.pop(node_id, None)
        else:
            self.attention[node_id] = float(multiplier)

    def attention_snapshot(self) -> dict[int, float]:
        """Copy of the attention map, isolating a query from rule changes."""
        return dict(self.attention)

    def validate(self) -> None:
        """Full-scan check of layering and stats invariants."""
        for node in self.nodes:
            for child_id, _ in node.children:
                child = self.node(child_id)
                if child.level != node.level - 1:
                    raise LayeringError(
                        f"edge {node.id}->{child_id} spans levels "
                        f"{node.level}->{child.level}"
                    )

        derived_df: dict[int, int] = {}
        total = 0
        for article_id in self._article_ids.values():
            bag: dict[int, int] = {}
            self._accumulate_bag(article_id, 1, bag)
            total += sum(bag.values())
            for word_id in bag:
                derived_df[word_id] = derived_df.get(word_id, 0) + 1
        stored_df = {k: v for k, v in self.df.items() if v}
        if derived_df != stored_df:
            raise AssertionError("stored df disagrees with the graph")
        if total != self.total_tokens:
            raise AssertionError("stored total_tokens disagrees with the graph")
        if self.article_count != len(self._article_ids):
            raise AssertionError("article count disagrees with label table")


def save_index(kb: KnowledgeBase, path: str) -> None:
    """Write the knowledge base as an MCRX-1 file.

    Line 1 is a header object; then one word record per line sorted by
    token; then one article record per line sorted by label, carrying the
    nested paragraph/sentence structure as arrays of arrays of
    (token, count) pairs. Reals carry 17 significant digits.
    """
    if not kb.weights_computed and kb.word_count > 0:
        raise StaleWeightsError("compute weights before saving the index")
    lines = [
        json.dumps(
            {
                "format": FORMAT_VERSION,
                "levels": list(kb.levels),
                "D": kb.article_count,
                "total_tokens": kb.total_tokens,
            },
            separators=(",", ":"),
            ensure_ascii=False,
        )
    ]
    for token in sorted(kb._word_ids):
        word_id = kb._word_ids[token]
        node = kb.nodes[word_id]
        if kb.df.get(word_id, 0) < 1:
            continue  # orphan word, reachable from no article
        lines.append(
            '{"t":"word","tok":%s,"df":%d,"w":%s}'
            % (
                json.dumps(token, ensure_ascii=False),
                kb.df.get(word_id, 0),
                render_real(node.weight),
            )
        )
    for label in kb.article_labels():
        article_id = kb._article_ids[label]
        record: dict = {"t": "article", "label": label}
        title = kb.titles.get(article_id)
        if title is not None:
            record["title"] = title
        record["paragraphs"] = _nested_structure(kb, article_id)
        lines.append(json.dumps(record, separators=(",", ":"), ensure_ascii=False))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path: str, text: str) -> None:
    """Replace a file's content with text as UTF-8, all or nothing.

    The text goes to a temporary file beside the target, and os.replace
    then moves it onto the target. If anything fails on the way, the
    temporary file is removed and the old target is left as it was.
    """
    temp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(temp, "x", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise


def read_utf8_text(path: str) -> str:
    """A file's text; IndexFormatError names the line of a non-UTF-8 byte."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IndexFormatError(f"not UTF-8 text ({exc.reason})", line) from exc


def _nested_structure(kb: KnowledgeBase, article_id: int) -> list:
    article = kb.node(article_id)
    paragraphs = []
    for paragraph_id, para_count in article.children:
        sentences = []
        for sentence_id, sent_count in kb.node(paragraph_id).children:
            pairs = [
                [kb.nodes[word_id].label, count]
                for word_id, count in kb.node(sentence_id).children
            ]
            sentences.extend([pairs] * sent_count)
        paragraphs.extend([sentences] * para_count)
    return paragraphs


def load_index(path: str) -> KnowledgeBase:
    """Read an MCRX-1 file back into a knowledge base.

    Raises VersionMismatchError for a foreign format string and
    IndexFormatError (with the line number) for a file that is not UTF-8
    text or for malformed records.
    """
    raw_lines = read_utf8_text(path).splitlines()
    if not raw_lines:
        raise IndexFormatError("empty index file", 1)

    header = _parse_record(raw_lines[0], 1)
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"expected format {FORMAT_VERSION!r}, found {version!r}"
        )
    levels = header.get("levels")
    # article records nest exactly paragraph/sentence/word
    if not isinstance(levels, list) or len(levels) != 4:
        raise IndexFormatError("header must carry a four-entry level list", 1)

    kb = KnowledgeBase(tuple(levels))
    declared_df: dict[int, tuple[int, int]] = {}  # word id -> (df, line)
    for offset, raw in enumerate(raw_lines[1:], start=2):
        if not raw.strip():
            raise IndexFormatError("blank line inside index", offset)
        record = _parse_record(raw, offset)
        kind = record.get("t")
        if kind == "word":
            word_id = _load_word(kb, record, offset)
            declared_df[word_id] = (record["df"], offset)
        elif kind == "article":
            _load_article(kb, record, offset)
        else:
            raise IndexFormatError(f"unknown record type {kind!r}", offset)

    for word_id, (declared, line) in declared_df.items():
        if kb.df.get(word_id, 0) != declared:
            token = kb.nodes[word_id].label
            raise IndexFormatError(
                f"stored df {declared} for {token!r} disagrees with "
                f"derived df {kb.df.get(word_id, 0)}",
                line,
            )
    if header.get("D") != kb.article_count:
        raise IndexFormatError(
            f"header D={header.get('D')} but file holds {kb.article_count} articles", 1
        )
    if header.get("total_tokens") != kb.total_tokens:
        raise IndexFormatError(
            f"header total_tokens={header.get('total_tokens')} but file sums "
            f"to {kb.total_tokens}",
            1,
        )
    # save_index refuses stale weights and .17g round-trips, so a saved
    # weight equals the formula bit for bit; this also rejects NaN/Infinity
    for word_id, (declared, line) in declared_df.items():
        node = kb.nodes[word_id]
        if node.weight != math.log(1.0 + kb.article_count / declared):
            raise IndexFormatError(
                f"stored weight {node.weight!r} for {node.label!r} is not "
                f"ln(1 + D/df)",
                line,
            )
    kb.weights_computed = True
    return kb


def _parse_record(raw: str, line: int) -> dict:
    try:
        record = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise IndexFormatError(f"invalid record ({getattr(exc, 'msg', exc)})", line) from exc
    if not isinstance(record, dict):
        raise IndexFormatError("record is not an object", line)
    return record


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
    paragraphs = record.get("paragraphs")
    title = record.get("title")
    if not isinstance(label, str) or not isinstance(paragraphs, list):
        raise IndexFormatError("article record has bad label/paragraphs", line)
    if title is not None and not isinstance(title, str):
        raise IndexFormatError("article title is not a string", line)
    word_ids = kb._word_ids
    try:
        runs = [
            [tuple([(word_ids[tok], count) for tok, count in pairs]) for pairs in sentences]
            for sentences in paragraphs
        ]
        article_id = kb.add_article(label, runs)
    except KeyError as exc:
        raise IndexFormatError(
            f"article references unlisted word {exc.args[0]!r}", line
        ) from exc
    except DuplicateDocumentError as exc:
        raise IndexFormatError(f"duplicate article record for {label!r}", line) from exc
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"malformed article structure ({exc})", line) from exc
    if title is not None:
        kb.titles[article_id] = title
