"""Deterministic text segmentation and hierarchy construction.

Tokenization is deliberately crude: maximal runs of Unicode letters and
digits, lowercased; everything else separates. Sentences end after
'.', '!' or '?'; paragraphs are separated by one or more blank lines.
No stemming, no stopwords, no markup handling. The same input always
segments the same way.
"""

from __future__ import annotations

import io
import json
import math
import re
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .errors import (
    CorpusFormatError,
    DuplicateDocumentError,
    EmptyDocumentError,
    IndexFormatError,
)
from .kb import ArticleRuns, KnowledgeBase, read_utf8_text

# Unicode letters and digits; underscore is a separator like punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])")


@dataclass(frozen=True)
class TokenizationRules:
    lowercase: bool = True
    min_token_len: int = 1


DEFAULT_RULES = TokenizationRules()


@dataclass(frozen=True)
class RawDocument:
    id: str
    body: str
    title: str | None = None


def tokenize(text: str, rules: TokenizationRules = DEFAULT_RULES) -> list[str]:
    """Split text into tokens: maximal letter/digit runs, lowercased."""
    tokens = _TOKEN_RE.findall(text)
    if rules.lowercase:
        tokens = [tok.lower() for tok in tokens]
    if rules.min_token_len > 1:
        tokens = [tok for tok in tokens if len(tok) >= rules.min_token_len]
    return tokens


def segment(
    text: str, rules: TokenizationRules = DEFAULT_RULES
) -> list[list[list[str]]]:
    """Segment text into paragraphs of sentences of tokens.

    Empty sentences and paragraphs are dropped, so a document of pure
    punctuation segments to [].
    """
    paragraphs = []
    for block in _paragraph_blocks(text):
        sentences = []
        for piece in _SENTENCE_SPLIT_RE.split(block):
            tokens = tokenize(piece, rules)
            if tokens:
                sentences.append(tokens)
        if sentences:
            paragraphs.append(sentences)
    return paragraphs


def _paragraph_blocks(text: str) -> list[str]:
    blocks = []
    current: list[str] = []
    for line in text.splitlines():
        if line.strip():
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return blocks


def ingest_document(
    kb: KnowledgeBase,
    doc: RawDocument,
    rules: TokenizationRules = DEFAULT_RULES,
) -> int:
    """Segment one document and insert it as one article of word runs.

    Returns the article node id. Word weights become stale until
    compute_weights runs again.
    """
    segmented = segment(doc.body, rules)
    return ingest_segmented(kb, doc, segmented)


def ingest_segmented(
    kb: KnowledgeBase, doc: RawDocument, segmented: list[list[list[str]]]
) -> int:
    """Insert a pre-segmented document (the merge half of ingestion).

    Each sentence becomes its runs of repeated tokens as (word id, count)
    pairs. A document's new words are created before its article node.
    """
    # checked before any word is added, so a rejected document leaves none
    if kb.article_id(doc.id) is not None:
        raise DuplicateDocumentError(f"document {doc.id!r} already ingested")
    if not segmented:
        raise EmptyDocumentError(f"document {doc.id!r} is empty after segmentation")
    add_word = kb.add_word
    runs = [
        [
            [(add_word(tok), len(list(run))) for tok, run in groupby(tokens)]
            for tokens in sentences
        ]
        for sentences in segmented
    ]
    article_id = kb.add_article(doc.id, ArticleRuns.pack(runs))
    if doc.title is not None:
        kb.titles[article_id] = doc.title
    return article_id


def compute_weights(kb: KnowledgeBase) -> None:
    """Assign word weights wt(w) = ln(1 + D/df(w)).

    The +1 smoothing keeps every indexed word strictly positive: a word
    present in every document still weighs ln 2 instead of silently
    vanishing from all scores.
    """
    d = kb.article_count
    if d < 1:
        raise ValueError("cannot compute weights on an empty knowledge base")
    nodes = kb.nodes
    for word_id in kb.word_ids():
        df = kb.df.get(word_id, 0)
        nodes[word_id].weight = math.log(1.0 + d / df) if df else 0.0
    kb.weights_computed = True


def reconstruct(kb: KnowledgeBase, article_id: int) -> list[list[list[str]]]:
    """Regenerate an article's nested token structure top-down.

    The result equals segment(original body) token for token.
    """
    node = kb.node(article_id)
    if node.level != kb.top_level:
        raise ValueError(
            f"node {article_id} is at level {node.level}, not an article"
        )
    nodes = kb.nodes
    paragraphs = []
    for sentences in kb.runs(article_id):
        paragraph = []
        for runs in sentences:
            tokens: list[str] = []
            for word_id, count in runs:
                tokens.extend([nodes[word_id].label] * count)
            paragraph.append(tokens)
        paragraphs.append(paragraph)
    return paragraphs


def build_corpus(
    docs: list[RawDocument],
    rules: TokenizationRules = DEFAULT_RULES,
) -> tuple[KnowledgeBase, list[str]]:
    """Build a weighted knowledge base from a document collection.

    Documents are segmented and inserted in one sequential pass ordered
    by document id, so the input order cannot change the result.
    Documents that are empty after segmentation are skipped; their ids
    are returned.
    """
    ordered = sorted(docs, key=lambda doc: doc.id)
    for left, right in zip(ordered, ordered[1:]):
        if left.id == right.id:
            raise DuplicateDocumentError(f"document {left.id!r} appears twice")
    kb = KnowledgeBase()
    skipped = []
    for doc in ordered:
        segmented = segment(doc.body, rules)
        if not segmented:
            skipped.append(doc.id)
            continue
        ingest_segmented(kb, doc, segmented)
    if kb.article_count:
        compute_weights(kb)
    return kb, skipped


def read_utf8(path: str | Path) -> str:
    """A file's text; OSError names the file and line of a non-UTF-8 byte."""
    try:
        return read_utf8_text(path)
    except IndexFormatError as exc:
        raise OSError(f"{path}: {exc}") from exc


def read_corpus_dir(path: str) -> list[RawDocument]:
    """Read a directory of *.txt files; the file stem is the document id."""
    root = Path(path)
    if not root.is_dir():
        raise OSError(f"{path!r} is not a readable directory")
    docs = []
    for file in sorted(root.glob("*.txt")):
        docs.append(RawDocument(id=file.stem, body=read_utf8(file)))
    return docs


def read_corpus_jsonl(path: str) -> list[RawDocument]:
    """Read a JSONL corpus: one {"id","title"?,"text"} object per line.

    A line that is not UTF-8 raises OSError with its line number.
    """
    content = read_utf8(path)
    docs = []
    seen: dict[str, int] = {}
    with io.StringIO(content, newline=None) as handle:
        for line_no, raw in enumerate(handle, start=1):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
                raise CorpusFormatError(
                    f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no
                ) from exc
            if not isinstance(record, dict):
                raise CorpusFormatError("record is not an object", line_no)
            doc_id = record.get("id")
            text = record.get("text")
            title = record.get("title")
            if not isinstance(doc_id, str) or not doc_id:
                raise CorpusFormatError("missing or empty 'id'", line_no)
            if not isinstance(text, str):
                raise CorpusFormatError("missing 'text'", line_no)
            if title is not None and not isinstance(title, str):
                raise CorpusFormatError("'title' is not a string", line_no)
            if doc_id in seen:
                raise CorpusFormatError(
                    f"duplicate id {doc_id!r} (first at line {seen[doc_id]})", line_no
                )
            seen[doc_id] = line_no
            docs.append(RawDocument(id=doc_id, body=text, title=title))
    return docs
