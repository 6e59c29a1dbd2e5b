"""Layered compositional knowledge base.

Nodes live on contiguous levels (word=0, sentence=1, paragraph=2,
article=3 by default). Every node is an ordered collection of nodes one
level below; word nodes are leaves, deduplicated globally by token.
Children are stored run-length encoded, as an ordered sequence of
(child id, count) pairs in which the same child may appear in several
entries, so the original token order survives and top-down regeneration
reproduces the ingested text exactly.

Persistence uses the line-delimited MCRX-1 format, see save_index.
"""

from __future__ import annotations

import json
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
        if len(levels) < 2:
            raise ValueError("need at least a leaf level and a top level")
        self.levels = tuple(levels)
        self.nodes: list[Node] = []
        self.level_counts = [0] * len(levels)
        # label -> id, kept for the levels where labels are meaningful
        self._word_ids: dict[str, int] = {}
        self._article_ids: dict[str, int] = {}
        self._parents: dict[int, dict[int, int]] = {}
        self.attention: dict[int, float] = {}
        self.df: dict[int, int] = {}
        self.total_tokens = 0
        # article ordinal -> article node id, in insertion order
        self.article_order: list[int] = []
        # word id -> (ordinals where tf == 1, (ordinal, tf) pairs where tf > 1)
        self.postings: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}
        self.article_bags: dict[int, dict[int, int]] = {}
        self.article_len: dict[int, int] = {}
        self.titles: dict[int, str] = {}
        self.weights_computed = True  # vacuously true while empty

    @property
    def top_level(self) -> int:
        return len(self.levels) - 1

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

    def article_id(self, label: str) -> int | None:
        return self._article_ids.get(label)

    def article_labels(self) -> list[str]:
        return sorted(self._article_ids)

    def title(self, article_id: int) -> str:
        label = self.node(article_id).label
        return self.titles.get(article_id, label or "")

    def add_node(
        self,
        level: int,
        label: str | None = None,
        children: list[tuple[int, int]] | tuple[tuple[int, int], ...] = (),
    ) -> int:
        """Insert a node and return its id.

        Word-level calls with an already-known token return the existing
        id (words are deduplicated by token). Inserting an article node
        updates the corpus statistics (df, postings, token totals) from
        its subtree.
        """
        if not 0 <= level <= self.top_level:
            raise ValueError(f"level {level} out of range")
        if level == WORD:
            if label is None:
                raise ValueError("word nodes require a label")
            if children:
                raise LayeringError("word nodes cannot have children")
            existing = self._word_ids.get(label)
            if existing is not None:
                return existing
        if level == self.top_level:
            if label is None:
                raise ValueError("article nodes require a label")
            if label in self._article_ids:
                raise DuplicateDocumentError(f"document {label!r} already ingested")

        pairs = []
        for child_id, count in children:
            child = self.node(child_id)
            if child.level != level - 1:
                raise LayeringError(
                    f"child {child_id} at level {child.level}, expected {level - 1}"
                )
            if count < 1:
                raise ValueError("child multiplicity must be positive")
            pairs.append((child_id, int(count)))

        node_id = len(self.nodes)
        self.nodes.append(Node(node_id, level, label, 1.0, tuple(pairs)))
        self.level_counts[level] += 1
        for child_id, count in pairs:
            acc = self._parents.setdefault(child_id, {})
            acc[node_id] = acc.get(node_id, 0) + count

        if level == WORD:
            self._word_ids[label] = node_id
            self.weights_computed = False
        elif level == self.top_level:
            self._article_ids[label] = node_id
            self._register_article(node_id)
            self.weights_computed = False
        return node_id

    def _register_article(self, article_id: int) -> None:
        bag: dict[int, int] = {}
        self._accumulate_bag(article_id, 1, bag)
        length = sum(bag.values())
        self.article_bags[article_id] = bag
        self.article_len[article_id] = length
        self.total_tokens += length
        ordinal = len(self.article_order)
        self.article_order.append(article_id)
        for word_id, count in bag.items():
            self.df[word_id] = self.df.get(word_id, 0) + 1
            entry = self.postings.get(word_id)
            if entry is None:
                entry = self.postings[word_id] = ([], [])
            if count == 1:
                entry[0].append(ordinal)
            else:
                entry[1].append((ordinal, count))

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

    def parents_of(self, node_id: int) -> tuple[tuple[int, int], ...]:
        """Aggregated (parent id, total multiplicity) pairs for a node."""
        self.node(node_id)
        return tuple(self._parents.get(node_id, {}).items())

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
        """Full-scan check of layering, transpose and stats invariants."""
        derived_parents: dict[int, dict[int, int]] = {}
        for node in self.nodes:
            for child_id, count in node.children:
                child = self.node(child_id)
                if child.level != node.level - 1:
                    raise LayeringError(
                        f"edge {node.id}->{child_id} spans levels "
                        f"{node.level}->{child.level}"
                    )
                acc = derived_parents.setdefault(child_id, {})
                acc[node.id] = acc.get(node.id, 0) + count
        stored = {k: v for k, v in self._parents.items() if v}
        if derived_parents != stored:
            raise AssertionError("parent index is not the transpose of children")

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
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


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
    IndexFormatError (with the line number) for malformed records.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw_lines = handle.read().splitlines()
    if not raw_lines:
        raise IndexFormatError("empty index file", 1)

    header = _parse_record(raw_lines[0], 1)
    version = header.get("format")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"expected format {FORMAT_VERSION!r}, found {version!r}"
        )
    levels = header.get("levels")
    # article records nest exactly paragraph/sentence/word, so the format
    # carries four levels even though KnowledgeBase itself is generic
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
    kb.weights_computed = True
    return kb


def _parse_record(raw: str, line: int) -> dict:
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"invalid record ({exc.msg})", line) from exc
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
    if not isinstance(token, str) or not isinstance(df, int) or df < 1:
        raise IndexFormatError("word record has bad tok/df", line)
    if kb.word_id(token) is not None:
        raise IndexFormatError(f"duplicate word record for {token!r}", line)
    if not isinstance(weight, (int, float)) or isinstance(weight, bool):
        raise IndexFormatError("word record has non-numeric weight", line)
    word_id = kb.add_node(WORD, token)
    kb.nodes[word_id].weight = float(weight)
    return word_id


def _load_article(kb: KnowledgeBase, record: dict, line: int) -> None:
    label = record.get("label")
    paragraphs = record.get("paragraphs")
    if not isinstance(label, str) or not isinstance(paragraphs, list):
        raise IndexFormatError("article record has bad label/paragraphs", line)
    try:
        paragraph_ids = []
        for sentences in paragraphs:
            sentence_ids = []
            for pairs in sentences:
                children = []
                for token, count in pairs:
                    word_id = kb.word_id(token)
                    if word_id is None:
                        raise IndexFormatError(
                            f"article references unlisted word {token!r}", line
                        )
                    children.append((word_id, count))
                sentence_ids.append((kb.add_node(SENTENCE, None, children), 1))
            paragraph_ids.append((kb.add_node(PARAGRAPH, None, sentence_ids), 1))
        article_id = kb.add_node(kb.top_level, label, paragraph_ids)
    except IndexFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(f"malformed article structure ({exc})", line) from exc
    title = record.get("title")
    if title is not None:
        kb.titles[article_id] = title
