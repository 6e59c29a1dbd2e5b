import pytest

from mcrx import (
    KnowledgeBase,
    RawDocument,
    build_corpus,
    compute_weights,
    ingest_document,
    read_corpus_jsonl,
    reconstruct,
    save_index,
    segment,
    tokenize,
)
from mcrx.errors import (
    CorpusFormatError,
    DuplicateDocumentError,
    EmptyDocumentError,
)
from mcrx.ingest import TokenizationRules, ingest_segmented, read_corpus_dir, read_utf8

from conftest import LN2, LN3, make_kb
from oracles import check_kb


def test_tokenize_strips_punctuation():
    assert tokenize("Machine learning, ML!") == ["machine", "learning", "ml"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_apostrophe_is_separator():
    assert tokenize("Don't stop") == ["don", "t", "stop"]


def test_tokenize_respects_rules():
    rules = TokenizationRules(lowercase=False, min_token_len=3)
    assert tokenize("Ab cde FGH", rules) == ["cde", "FGH"]


@pytest.mark.parametrize(
    "fields",
    [{"min_token_len": 0}, {"min_token_len": True}, {"min_token_len": 2.0}, {"lowercase": "no"}],
)
def test_tokenization_rules_refuse_bad_values(fields):
    # a saved index could not be loaded back with these
    with pytest.raises(ValueError):
        TokenizationRules(**fields)


def test_segment_sentences():
    assert segment("A b. C d? E") == [[["a", "b"], ["c", "d"], ["e"]]]


def test_segment_paragraphs():
    assert segment("x\n\ny") == [[["x"]], [["y"]]]


def test_segment_drops_empty():
    assert segment("...") == []


def test_ingest_document_builds_hierarchy():
    kb = KnowledgeBase()
    ingest_document(kb, RawDocument("d", "cats purr. cats sleep."))
    assert kb.article_count == 1
    assert kb.level_counts[2] == 1  # one paragraph
    assert kb.level_counts[1] == 2  # two sentences


def test_ingest_shared_word_df(c2):
    assert c2.df(c2.word_id("b")) == 2
    assert c2.df(c2.word_id("a")) == 1


def test_ingest_duplicate_id_rejected(c2):
    with pytest.raises(DuplicateDocumentError):
        ingest_document(c2, RawDocument("d1", "again"))


def test_ingest_empty_document_rejected():
    kb = KnowledgeBase()
    with pytest.raises(EmptyDocumentError):
        ingest_document(kb, RawDocument("void", "?!... ,,,"))


@pytest.mark.parametrize(
    "segmented, error",
    [
        ([[["z"], []]], ValueError),  # an empty sentence
        ([[["z"]], []], ValueError),  # an empty paragraph
        ([[["z", 5]]], TypeError),
    ],
)
def test_refused_segmented_document_adds_no_word(c2, segmented, error):
    words = c2.word_count
    with pytest.raises(error):
        ingest_segmented(c2, RawDocument("d", "x"), segmented)
    assert c2.word_count == words and c2.article_id("d") is None
    check_kb(c2)


def test_weights_c2(c2):
    assert c2.nodes[c2.word_id("a")].weight == pytest.approx(LN3, abs=1e-12)
    assert c2.nodes[c2.word_id("b")].weight == pytest.approx(LN2, abs=1e-12)
    assert c2.nodes[c2.word_id("a")].weight == pytest.approx(1.09861, abs=1e-5)


def test_weight_for_ubiquitous_word_is_ln2():
    kb = make_kb({"d1": "x y", "d2": "x z", "d3": "x w"})
    assert kb.nodes[kb.word_id("x")].weight == pytest.approx(LN2, abs=1e-12)


def test_single_document_corpus_all_weights_ln2():
    kb = make_kb({"only": "alpha beta gamma"})
    for token in ("alpha", "beta", "gamma"):
        assert kb.nodes[kb.word_id(token)].weight == pytest.approx(LN2, abs=1e-12)


def test_compute_weights_requires_documents():
    with pytest.raises(ValueError):
        compute_weights(KnowledgeBase())


def test_weight_positivity():
    kb = make_kb({"d1": "p q", "d2": "q r", "d3": "p q r s"})
    for node in kb.nodes:
        if node.level == 0:
            assert node.weight >= LN2


def test_reconstruct_single_word():
    kb = make_kb({"d": "x"})
    assert reconstruct(kb, kb.article_id("d")) == [[["x"]]]


def test_reconstruct_equals_segment():
    body = "A b. C d?\n\nE f."
    kb = make_kb({"d": body})
    assert reconstruct(kb, kb.article_id("d")) == segment(body)


def test_reconstruct_repeated_tokens():
    body = "stop stop go stop.\n\ngo go!"
    kb = make_kb({"d": body})
    assert reconstruct(kb, kb.article_id("d")) == segment(body)


def test_reconstruct_rejects_non_article(c2):
    with pytest.raises(ValueError):
        reconstruct(c2, c2.word_id("a"))


def test_count_conservation(c2):
    tf_total = sum(sum(article.bag.values()) for article in c2.articles)
    assert tf_total == c2.total_tokens == 4
    d1 = c2.article(c2.article_id("d1"))
    assert sum(d1.bag.values()) == d1.length == 2


def test_build_determinism_byte_identical(tmp_path):
    texts = {"a": "one two. three", "b": "two three\n\nfour", "c": "five one"}
    paths = []
    for name in ("first.mcrx", "second.mcrx"):
        kb = make_kb(texts)
        path = tmp_path / name
        save_index(kb, str(path))
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_ingestion_order_does_not_change_scores():
    docs = [RawDocument("d1", "a b c"), RawDocument("d2", "b c d"), RawDocument("d3", "c d e")]
    kb_fwd, _ = build_corpus(docs)
    kb_rev, _ = build_corpus(list(reversed(docs)))
    from mcrx import activate

    forward = {kb_fwd.nodes[a].label: v for a, v in activate(kb_fwd, "a c e").items()}
    backward = {kb_rev.nodes[a].label: v for a, v in activate(kb_rev, "a c e").items()}
    assert forward == backward


def test_build_corpus_skips_empty_docs():
    kb, skipped = build_corpus([RawDocument("ok", "words"), RawDocument("nope", "...")])
    assert skipped == ["nope"]
    assert kb.article_count == 1


def test_jsonl_reader(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id":"d1","text":"hello there"}\n'
        '{"id":"d2","title":"T","text":"more text"}\n'
    )
    docs = read_corpus_jsonl(str(path))
    assert [doc.id for doc in docs] == ["d1", "d2"]
    assert docs[1].title == "T"


@pytest.mark.parametrize(
    "line",
    ["{broken", '{"id":"d1"}', '{"text":"no id"}', '["not","an","object"]'],
)
def test_jsonl_reader_rejects_malformed(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id":"ok","text":"fine"}\n' + line + "\n")
    with pytest.raises(CorpusFormatError) as excinfo:
        read_corpus_jsonl(str(path))
    assert excinfo.value.line == 2


def test_jsonl_reader_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id":"d","text":"x"}\n{"id":"d","text":"y"}\n')
    with pytest.raises(CorpusFormatError) as excinfo:
        read_corpus_jsonl(str(path))
    assert excinfo.value.line == 2


@pytest.mark.parametrize("reader", [read_utf8, read_corpus_jsonl])
def test_non_utf8_file_names_path_and_line(tmp_path, reader):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'{"id":"d1","text":"a"}\n{"id":"d2","text":"b"}\n{"id":"d3","text":"\xe9"}\n')
    with pytest.raises(OSError) as excinfo:
        reader(str(path))
    message = str(excinfo.value)
    assert message.startswith(f"{path}: line 3:") and "UTF-8" in message


def test_build_corpus_refuses_two_documents_of_one_id():
    with pytest.raises(DuplicateDocumentError, match="document 'd' appears twice"):
        build_corpus([RawDocument("d", "a b"), RawDocument("e", "c"), RawDocument("d", "d")])


def test_read_corpus_dir_refuses_a_file(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a b")
    with pytest.raises(OSError, match="is not a readable directory"):
        read_corpus_dir(str(path))


def test_jsonl_reader_refuses_a_title_that_is_not_a_string(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id":"d1","title":5,"text":"a"}\n')
    with pytest.raises(CorpusFormatError) as excinfo:
        read_corpus_jsonl(str(path))
    assert str(excinfo.value) == "line 1: 'title' is not a string"


JSONL = '{"id":"d1","text":"a b"}\n\n{"id":"d2","title":"T","text":"b\\rc"}\n'


def test_jsonl_reader_takes_crlf_line_ends_as_lf(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(JSONL, newline="")
    expected = read_corpus_jsonl(str(path))
    assert [doc.body for doc in expected] == ["a b", "b\rc"]
    path.write_text(JSONL.replace("\n", "\r\n"), newline="")
    assert read_corpus_jsonl(str(path)) == expected


def test_jsonl_reader_ends_lines_at_lf_only(tmp_path):
    # a lone \r ends no line: a CR-only file is one line holding two records
    path = tmp_path / "corpus.jsonl"
    path.write_text(JSONL.replace("\n", "\r"), newline="")
    with pytest.raises(CorpusFormatError) as excinfo:
        read_corpus_jsonl(str(path))
    assert str(excinfo.value) == "line 1: invalid record (Extra data)"


def test_read_utf8_keeps_every_character_but_the_final_line_break(tmp_path):
    text = "one\r\ntwo\rthree four\x0bfive\n\nsix"
    path = tmp_path / "doc.txt"
    for data in (text, text + "\n"):
        path.write_text(data, "utf-8", newline="")
        assert read_utf8(str(path)) == text
