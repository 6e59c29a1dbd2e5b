"""Deterministic text segmentation and hierarchy construction.

Tokenization is deliberately crude: maximal runs of Unicode letters and
digits, lowercased unless the TokenizationRules say otherwise;
everything else separates. Sentences end after
'.', '!' or '?'; paragraphs are separated by one or more blank lines.
No stemming, no stopwords, no markup handling. The same input always
segments the same way.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path

from .errors import CorpusFormatError, DuplicateDocumentError, EmptyDocumentError
from .kb import DEFAULT_RULES, KnowledgeBase, TokenizationRules, compute_weights
from .textfile import json_records, read_utf8

# Unicode letters and digits; underscore is a separator like punctuation.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
_SENTENCE_SPLIT_RE = re.compile(r"(?<=[.!?])")


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


def ingest_document(kb: KnowledgeBase, doc: RawDocument) -> int:
    """Segment one document and insert it as one article of word runs.

    The document is tokenized by the knowledge base's rules
    (kb.tokenization). Returns the article node id; the next kb.weights
    call recomputes the word weights. A refused document inserts nothing.
    """
    segmented = segment(doc.body, kb.tokenization)
    return ingest_segmented(kb, doc, segmented)


def ingest_segmented(
    kb: KnowledgeBase, doc: RawDocument, segmented: list[list[list[str]]]
) -> int:
    """Insert a document already segmented into paragraphs of sentences of tokens.

    Each sentence becomes its runs of repeated tokens as (token, count)
    pairs for kb.add_article, which makes every check but one and adds the
    new words: EmptyDocumentError for a document with no paragraph.
    """
    if not segmented:
        raise EmptyDocumentError(f"document {doc.id!r} is empty after segmentation")
    runs = [
        [[(token, len(list(run))) for token, run in groupby(tokens)] for tokens in sentences]
        for sentences in segmented
    ]
    return kb.add_article(doc.id, runs, doc.title)


def reconstruct(kb: KnowledgeBase, article_id: int) -> list[list[list[str]]]:
    """Regenerate an article's nested token structure top-down.

    The result equals segment(original body) token for token.
    MissingNodeError or ValueError for an id that is no article.
    """
    return [
        [[token for token, count in runs for _ in range(count)] for runs in sentences]
        for sentences in kb.runs(article_id)
    ]


def build_corpus(
    docs: list[RawDocument],
    rules: TokenizationRules = DEFAULT_RULES,
) -> tuple[KnowledgeBase, list[str]]:
    """Build a weighted knowledge base from a document collection.

    Documents are segmented and inserted in one sequential pass ordered
    by document id, so the input order cannot change the result.
    Documents that are empty after segmentation are skipped; their ids
    are returned. The knowledge base records the rules, so that queries
    and a saved index use them too.
    """
    ordered = sorted(docs, key=lambda doc: doc.id)
    for left, right in zip(ordered, ordered[1:]):
        if left.id == right.id:
            raise DuplicateDocumentError(f"document {left.id!r} appears twice")
    kb = KnowledgeBase()
    kb.tokenization = rules
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


def read_corpus_dir(path: str) -> list[RawDocument]:
    """Read a directory of *.txt files; the file stem is the document id.

    OSError for a file name or a file that is not UTF-8.
    """
    root = Path(path)
    if not root.is_dir():
        raise OSError(f"{path!r} is not a readable directory")
    docs = []
    for file in sorted(root.glob("*.txt")):
        try:
            file.name.encode("utf-8")
        except UnicodeEncodeError as exc:  # its bytes were decoded to lone surrogates
            name = file.name.encode("utf-8", "surrogateescape")
            raise OSError(f"{path}: file name {name!r} is not UTF-8") from exc
        docs.append(RawDocument(id=file.stem, body=read_utf8(file)))
    return docs


def read_corpus_jsonl(path: str) -> list[RawDocument]:
    """Read a JSONL corpus: one {"id","title"?,"text"} object per line.

    Lines end at "\\n" only (see textfile). A line that is not UTF-8
    raises OSError with its line number.
    """
    docs = []
    seen: dict[str, int] = {}
    for line_no, record in json_records(path, CorpusFormatError, name_file=True):
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
