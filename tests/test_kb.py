import dataclasses
import json
import math
import os
import random
import tracemalloc
from array import array

import pytest

from mcrx import (
    ARTICLE,
    PARAGRAPH,
    SENTENCE,
    WORD,
    KnowledgeBase,
    RawDocument,
    activate,
    TokenizationRules,
    build_corpus,
    ingest_document,
    load_index,
    rank,
    reconstruct,
    save_index,
    segment,
    trace,
)
from mcrx.errors import (
    DuplicateDocumentError,
    IndexFormatError,
    VersionMismatchError,
)

from conftest import fail_saves, make_kb
from oracles import check_kb, random_corpus


def test_word_dedup_returns_same_id():
    kb = KnowledgeBase()
    first = kb.add_word("cat")
    second = kb.add_word("cat")
    assert first == second
    assert kb.word_count == 1


def test_article_insertion_counts_documents():
    kb = KnowledgeBase()
    word = kb.add_word("x")
    kb.add_article("doc1", [[[("x", 1)]]])
    assert kb.article_count == 1
    assert kb.df(word) == 1
    assert kb.total_tokens == 1


def test_duplicate_article_label_rejected():
    kb = KnowledgeBase()
    kb.add_word("x")
    kb.add_article("doc1", [[[("x", 1)]]])
    with pytest.raises(DuplicateDocumentError):
        kb.add_article("doc1", [[[("x", 1)]]])


def test_layering_violation_rejected():
    # a token names a word, never an article: an article's label read as a
    # token is a new word, and an article's id is no token at all
    kb = KnowledgeBase()
    article = kb.add_article("doc1", [[[("x", 1)]]])
    with pytest.raises(TypeError, match="token 1 is not a str"):
        kb.add_article("doc2", [[[("x", 1), (article, 1)]]])
    assert len(kb.nodes) == 2 and kb.article_count == 1
    second = kb.add_article("doc2", [[[("x", 1), ("doc1", 1)]]])
    assert kb.word_id("doc1") == second - 1 != kb.article_id("doc1")
    assert kb.level_counts == [2, 2, 2, 2] and kb.df(kb.word_id("x")) == 2
    check_kb(kb)


@pytest.mark.parametrize(
    "runs",
    [
        pytest.param([], id="runs5"),  # no paragraph
        pytest.param([[[("x", 1)]], []], id="runs6"),  # an empty paragraph
        pytest.param([[[("x", 1)], []]], id="runs7"),  # an empty sentence
    ],
)
def test_run_lengths_must_add_up(runs):
    kb = KnowledgeBase()
    kb.add_word("x")
    with pytest.raises(ValueError):
        kb.add_article("doc1", runs)
    assert kb.article_count == 0 and kb.level_counts == [1, 0, 0, 0]


def test_unknown_words_come_in_with_their_article():
    # new words take ids in order of first occurrence, before the article
    kb = KnowledgeBase()
    kb.add_word("b")
    article = kb.add_article("doc1", [[[("x", 2), ("b", 1)], [("y", 1), ("x", 1)]]])
    assert [(node.id, node.label) for node in kb.nodes[:3]] == [(0, "b"), (1, "x"), (2, "y")]
    assert article == 3 and list(kb.article(article).bag.items()) == [(1, 3), (0, 1), (2, 1)]
    check_kb(kb)


@pytest.mark.parametrize(
    "label, title",
    [(5, None), (True, None), (None, None), (("a",), None), ("d", 7)],
)
@pytest.mark.parametrize("how", ["add_article", "ingest_document"])
def test_a_label_or_title_that_is_not_a_str_is_refused(c2, how, label, title):
    nodes = list(c2.nodes)
    with pytest.raises(TypeError, match="is not a str"):
        if how == "add_article":
            c2.add_article(label, [[[("x", 1), ("z", 1)]]], title)
        else:
            ingest_document(c2, RawDocument(label, "x z.", title))
    assert c2.nodes == nodes
    check_kb(c2)


@pytest.mark.parametrize(
    "label, runs, error",
    [
        ("d1", [[[("new", 1)]]], DuplicateDocumentError),
        ("d", [[[("new", 1), ("a", 0)]]], ValueError),
        ("d", [[[("new", 1.5)]]], ValueError),
        ("d", [[[("new", 1), ("a", 2**31)]]], ValueError),
        ("d", [], ValueError),  # an empty article
        ("d", [[[("new", 1)]], []], ValueError),  # an empty paragraph
        ("d", [[[("new", 1)], []]], ValueError),  # an empty sentence
        ("d", [[[("new", 1), (5, 1)]]], TypeError),
        ("d", [[[("new", 1), (["a"], 1)]]], TypeError),
    ],
)
def test_a_refused_article_leaves_no_word(c2, label, runs, error):
    words, nodes = c2.word_count, len(c2.nodes)
    with pytest.raises(error):
        c2.add_article(label, runs)
    assert (c2.word_count, len(c2.nodes)) == (words, nodes)
    assert c2.word_id("new") is None
    check_kb(c2)


@pytest.mark.parametrize("count", [0, -1, 1.5, True, "2", 2**31])
def test_article_count_must_be_positive_int(count):
    kb = KnowledgeBase()
    kb.add_word("x")
    with pytest.raises(ValueError):
        kb.add_article("doc1", [[[("x", count)]]])
    assert kb.article_count == 0 and len(kb.nodes) == 1


def test_runs_are_32_bit_arrays_and_posting_groups_lists():
    kb = KnowledgeBase()
    word = kb.add_word("x")
    article = kb.add_article("doc1", [[[("x", 2**31 - 1)]]])
    record = kb.article(article)
    for values in (record.words, record.counts, record.sentence_runs, record.paragraph_sentences):
        assert (values.typecode, values.itemsize) == ("i", 4)
    assert kb.postings[word] == {2**31 - 1: [0]}
    assert type(kb.postings[word][2**31 - 1]) is list
    with pytest.raises(ValueError, match="out of range"):
        kb.add_article("doc2", [[[("x", 2**31)]]])
    assert kb.article_count == 1


def test_set_attention_validates(c2):
    word = c2.word_id("a")
    with pytest.raises(ValueError):
        c2.set_attention(word, -0.5)
    c2.set_attention(word, 2.0)
    assert c2.attention[word] == 2.0
    c2.set_attention(word, 1.0)
    assert word not in c2.attention


@pytest.mark.parametrize(
    "multiplier",
    [
        float("nan"),
        float("inf"),
        float("-inf"),
        True,
        False,
        pytest.param(10**400, id="10**400"),
        "2",
        None,
    ],
)
def test_set_attention_rejects_non_finite(c2, multiplier):
    word = c2.word_id("a")
    c2.set_attention(word, 2.0)
    with pytest.raises(ValueError):
        c2.set_attention(word, multiplier)
    assert c2.attention == {word: 2.0}


def test_attention_snapshot_is_a_read_only_record_split_by_level(c2):
    a, d2 = c2.word_id("a"), c2.article_id("d2")
    attention = {a: 0.5, d2: 2.0}
    record = c2.attention_snapshot(attention)
    assert record.per_word == {a: 0.5}
    assert record.per_article == {c2.article(d2).ordinal: 2.0}
    for level in record:
        with pytest.raises(TypeError):
            level[a] = 3.0
    # private copies: later changes to the map or the rules do not reach it
    attention[a] = 3.0
    c2.set_attention(a, 4.0)
    assert record.per_word == {a: 0.5}
    assert c2.attention_snapshot(record) is record
    stored = c2.attention_snapshot()
    assert (stored.per_word, stored.per_article) == ({a: 4.0}, {})
    c2.set_attention(a, 1.0)
    assert stored.per_word == {a: 4.0}


def test_attention_zero_silences_word(c2):
    for token in ("a", "b", "c"):
        c2.set_attention(c2.word_id(token), 0.0)
    assert activate(c2, "a b") == {}


def test_attention_identity_matches_untouched(c2):
    baseline = activate(c2, "a b")
    for token in ("a", "b", "c"):
        c2.set_attention(c2.word_id(token), 1.0)
    assert activate(c2, "a b") == baseline


def test_attention_doubles_contribution_linearly(c2):
    c2.set_attention(c2.word_id("b"), 2.0)
    activations = activate(c2, "a b")
    d2 = c2.article_id("d2")
    assert activations[d2] == pytest.approx(0.6931471805599453, abs=1e-12)


def test_invariants_hold_after_build(c2):
    check_kb(c2)


@pytest.mark.parametrize(
    "corrupt",
    [
        {2: [1], 1: [0]},  # ordinals swapped between tf groups
        {3: [0], 1: [1]},  # a group under the wrong tf
        {1: [0, 1]},  # two groups merged
    ],
)
def test_validate_checks_every_tf_group(corrupt):
    kb = make_kb({"d1": "a a b", "d2": "a b"})
    a = kb.word_id("a")
    assert {tf: list(group) for tf, group in kb.postings[a].items()} == {2: [0], 1: [1]}
    check_kb(kb)
    kb.postings[a] = {tf: list(group) for tf, group in corrupt.items()}
    assert kb.df(a) == 2  # a df count alone does not see it
    with pytest.raises(AssertionError, match="postings"):
        check_kb(kb)


def test_validate_checks_article_ordinals():
    kb = make_kb({"d1": "a", "d2": "b", "d3": "a b"})
    for ordinal, article in enumerate(kb.articles):
        assert article.ordinal == ordinal and kb.nodes[article.id] is article
    check_kb(kb)
    d1, d2 = kb.articles[0], kb.articles[1]
    d1.ordinal, d2.ordinal = d2.ordinal, d1.ordinal
    with pytest.raises(AssertionError, match="ordinal"):
        check_kb(kb)
    d1.ordinal, d2.ordinal = d2.ordinal, d1.ordinal
    check_kb(kb)
    kb.nodes[d1.id] = dataclasses.replace(d1)  # an equal record, not the same one
    with pytest.raises(AssertionError, match="node slot"):
        check_kb(kb)
    kb.nodes[d1.id] = d1
    d1.id, d2.id = d2.id, d1.id
    with pytest.raises(AssertionError, match="node slot"):
        check_kb(kb)


def test_tokenization_rules_saved_loaded_and_applied(tmp_path):
    rules = TokenizationRules(lowercase=False, min_token_len=2)
    docs = [RawDocument("d1", "Alpha beta."), RawDocument("d2", "alpha x Beta.")]
    kb, _ = build_corpus(docs, rules)
    assert kb.tokenization == rules
    path = tmp_path / "rules.mcrx"
    save_index(kb, str(path))
    loaded = load_index(str(path))
    assert loaded.tokenization == rules
    resaved = tmp_path / "resaved.mcrx"
    save_index(loaded, str(resaved))
    assert resaved.read_bytes() == path.read_bytes()
    # queries and inserts default to the knowledge base's rules
    assert [r.label for r in rank(loaded, "Alpha x", k=2, n=2)] == ["d1"]
    ingest_document(loaded, RawDocument("d3", "ALPHA y"))
    assert reconstruct(loaded, loaded.article_id("d3")) == [[["ALPHA"]]]


def test_save_load_round_trip_scores(tmp_path, c2):
    path = tmp_path / "c2.mcrx"
    save_index(c2, str(path))
    loaded = load_index(str(path))
    check_kb(loaded)
    before = {c2.nodes[a].label: v for a, v in activate(c2, "a b").items()}
    after = {loaded.nodes[a].label: v for a, v in activate(loaded, "a b").items()}
    assert before == after  # bit-identical, not just approximately equal
    assert loaded.total_tokens == c2.total_tokens
    assert loaded.article_count == c2.article_count


def test_save_load_save_is_byte_identical(tmp_path, c2):
    first = tmp_path / "one.mcrx"
    second = tmp_path / "two.mcrx"
    save_index(c2, str(first))
    save_index(load_index(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_empty_kb_round_trip(tmp_path):
    kb = KnowledgeBase()
    path = tmp_path / "empty.mcrx"
    save_index(kb, str(path))
    assert path.read_text("utf-8").count("\n") == 1  # header only
    loaded = load_index(str(path))
    assert loaded.article_count == 0


def test_save_after_an_insert_writes_a_fresh_build(tmp_path, c2):
    # no compute_weights: the saved weights are those of D = 3
    ingest_document(c2, RawDocument("d3", "c d"))
    save_index(c2, str(tmp_path / "inserted.mcrx"))
    save_index(make_kb({"d1": "a b", "d2": "b c", "d3": "c d"}), str(tmp_path / "fresh.mcrx"))
    assert (tmp_path / "inserted.mcrx").read_bytes() == (tmp_path / "fresh.mcrx").read_bytes()


def test_version_mismatch(tmp_path):
    path = tmp_path / "bad.mcrx"
    path.write_text('{"format":"MCRX-9","levels":["w","s","p","a"],"D":0,"total_tokens":0}\n')
    with pytest.raises(VersionMismatchError):
        load_index(str(path))


@pytest.mark.parametrize(
    "levels", [["w", "s", "p", "a"], ["word", "sentence", "article"], None, "word"]
)
def test_load_refuses_other_level_names(tmp_path, levels):
    # the header names the four fixed levels; anything else would not save back the same
    path = tmp_path / "levels.mcrx"
    header = {"format": "MCRX-1", "levels": levels, "D": 0, "total_tokens": 0}
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(IndexFormatError) as excinfo:
        load_index(str(path))
    assert excinfo.value.line == 1
    header["levels"] = ["word", "sentence", "paragraph", "article"]
    path.write_text(json.dumps(header) + "\n")
    assert load_index(str(path)).article_count == 0


def test_escaped_surrogate_pair_loads_and_a_lone_one_is_refused(tmp_path, c2):
    path = tmp_path / "c2.mcrx"
    save_index(c2, str(path))
    lines = path.read_text("utf-8").splitlines()
    article = lines.index(next(line for line in lines if '"label":"d1"' in line))
    lines[article] = lines[article].replace('"label":"d1"', '"label":"d1","title":"\\ud83d\\ude00"')
    path.write_text("\n".join(lines) + "\n")
    loaded = load_index(str(path))
    assert loaded.title(loaded.article_id("d1")) == "\U0001f600"
    path.write_text(path.read_text("utf-8").replace("\\ude00", "\\u0041"))
    with pytest.raises(IndexFormatError, match=r"lone surrogate \\ud83d") as excinfo:
        load_index(str(path))
    assert excinfo.value.line == article + 1


def test_malformed_record_reports_line(tmp_path, c2):
    path = tmp_path / "c2.mcrx"
    save_index(c2, str(path))
    lines = path.read_text("utf-8").splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError) as excinfo:
        load_index(str(path))
    assert excinfo.value.line == 3


def test_article_with_unlisted_word_rejected(tmp_path, c2):
    path = tmp_path / "c2.mcrx"
    save_index(c2, str(path))
    lines = [
        line
        for line in path.read_text("utf-8").splitlines()
        if '"tok":"a"' not in line
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError):
        load_index(str(path))


def test_title_survives_round_trip(tmp_path):
    from mcrx import RawDocument, build_corpus

    kb, _ = build_corpus([RawDocument("doc1", "some words here.", title="Some Title")])
    path = tmp_path / "titled.mcrx"
    save_index(kb, str(path))
    loaded = load_index(str(path))
    assert loaded.title(loaded.article_id("doc1")) == "Some Title"


def test_repeated_token_order_survives():
    kb = make_kb({"d1": "a b a"})
    article = kb.article_id("d1")
    assert kb.runs(article) == [[[("a", 1), ("b", 1), ("a", 1)]]]
    assert kb.article(article).bag[kb.word_id("a")] == 2


def _trace_rows(kb, query, article_id, level):
    """Trace entries with each word id replaced by its token."""
    return [
        (None if e.node_id is None else kb.nodes[e.node_id].label, e.level, e.contribution, e.position)
        for e in trace(kb, query, article_id, level, 10**6)
    ]


def test_posting_entries_are_their_articles_ordinal_objects(tmp_path):
    # past 256 articles, where an ordinal is no longer one of CPython's
    # cached small ints, so only sharing the article's own object passes
    # each article opens a group (its own word u) and joins others (w, common)
    docs = {f"d{i:03d}": f"u{i} w{i % 7} w{i % 11} w{i % 11} common" for i in range(300)}
    built = make_kb(docs)
    path = tmp_path / "index.mcrx"
    save_index(built, str(path))
    for kb in (built, load_index(str(path))):
        groups = [group for by_tf in kb.postings.values() for group in by_tf.values()]
        assert all(type(group) is list for group in groups)
        entries = [ordinal for group in groups for ordinal in group]
        assert len(entries) == sum(len(article.bag) for article in kb.articles)
        assert max(entries) == 299
        assert all(ordinal is kb.articles[ordinal].ordinal for ordinal in entries)
        check_kb(kb)


def test_load_equals_build_node_for_node(tmp_path):
    rng = random.Random(20261018)
    for trial in range(25):
        docs = random_corpus(rng)
        titles = {i: f"title of {i}" if len(t) % 2 else None for i, t in docs.items()}
        built, skipped = build_corpus([RawDocument(i, t, titles[i]) for i, t in docs.items()])
        path = tmp_path / f"{trial}.mcrx"
        save_index(built, str(path))
        loaded = load_index(str(path))
        resaved = tmp_path / f"{trial}-again.mcrx"
        save_index(loaded, str(resaved))
        assert resaved.read_bytes() == path.read_bytes()
        check_kb(loaded)

        # load adds every word first, in token order; words pair up by token
        to_loaded = {w: loaded.word_id(built.nodes[w].label) for w in built.word_ids()}
        labels = sorted(article.label for article in built.articles)
        for label in labels:
            to_loaded[built.article_id(label)] = loaded.article_id(label)
        assert len(loaded.nodes) == len(built.nodes) == len(to_loaded)
        assert sorted(to_loaded.values()) == list(range(len(loaded.nodes)))
        for built_id in built.word_ids():
            loaded_id = to_loaded[built_id]
            b, l = built.nodes[built_id], loaded.nodes[loaded_id]
            assert (l.id, l.level, l.label, l.weight) == (loaded_id, WORD, b.label, b.weight)
        assert [a.id for a in loaded.articles] == [to_loaded[a.id] for a in built.articles]
        for b, l in zip(built.articles, loaded.articles):
            assert loaded.nodes[l.id] is l and built.nodes[b.id] is b and b.title == titles[b.label]
            assert (l.level, l.label, l.ordinal, l.length, l.title) == (
                ARTICLE, b.label, b.ordinal, b.length, b.title
            )
            assert list(l.bag.items()) == [(to_loaded[w], n) for w, n in b.bag.items()]
            assert (l.words, l.counts, l.sentence_runs, l.paragraph_sentences) == (
                array("i", [to_loaded[w] for w in b.words]),
                b.counts,
                b.sentence_runs,
                b.paragraph_sentences,
            )

        texts = [docs[label] for label in labels]
        segmented = [segment(text) for text in texts]
        tokens = {
            token
            for paragraphs in segmented
            for sentences in paragraphs
            for sentence in sentences
            for token in sentence
        }
        assert built.level_counts == loaded.level_counts == [
            len(tokens),
            sum(len(paragraph) for paragraphs in segmented for paragraph in paragraphs),
            sum(len(paragraphs) for paragraphs in segmented),
            len(segmented),
        ]

        query = docs[rng.choice(sorted(docs))]
        for label, paragraphs in zip(labels, segmented):
            built_id, loaded_id = built.article_id(label), loaded.article_id(label)
            assert reconstruct(built, built_id) == reconstruct(loaded, loaded_id) == paragraphs
            assert loaded.runs(loaded_id) == built.runs(built_id)
            for level in (WORD, SENTENCE, PARAGRAPH):
                assert _trace_rows(built, query, built_id, level) == _trace_rows(
                    loaded, query, loaded_id, level
                )

        assert loaded.postings == {to_loaded[w]: entry for w, entry in built.postings.items()}
        assert {w: loaded.df(w) for w in loaded.word_ids()} == {
            to_loaded[w]: built.df(w) for w in built.word_ids()
        }
        assert loaded.total_tokens == built.total_tokens
        check_kb(built)


def test_add_article_takes_what_runs_returns(tmp_path):
    # copying every node in id order, each article as add_article(label,
    # kb.runs(id), title), rebuilds the same knowledge base: a loaded one
    # holds its words first, so they are copied by add_word; a built one
    # interleaves them with the articles, so its articles alone bring them
    rng = random.Random(20261020)
    for trial in range(12):
        docs = random_corpus(rng, max_vocab=8 if trial % 2 else 200)
        titles = {i: f"title of {i}" if len(t) % 3 else None for i, t in docs.items()}
        built, _ = build_corpus([RawDocument(i, t, titles[i]) for i, t in docs.items()])
        path = tmp_path / f"{trial}.mcrx"
        save_index(built, str(path))
        for kb in (built, load_index(str(path))):
            copy = KnowledgeBase()
            for node in kb.nodes:
                if node.level == ARTICLE:
                    runs = kb.runs(node.id)
                    assert copy.add_article(node.label, runs, node.title) == node.id
                elif kb is not built:
                    assert copy.add_word(node.label) == node.id
            check_kb(copy)
            assert [(n.id, n.label) for n in copy.nodes] == [(n.id, n.label) for n in kb.nodes]
            assert copy.articles == kb.articles
            assert copy.postings == kb.postings
            assert copy.weights(copy.word_ids()) == kb.weights(kb.word_ids())
            again = tmp_path / f"{trial}-copy.mcrx"
            save_index(copy, str(again))
            assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("how", ["write", "replace"])
def test_failed_save_keeps_old_index(tmp_path, monkeypatch, how):
    path = tmp_path / "c.mcrx"
    save_index(make_kb({"d1": "a b", "d2": "b c"}), str(path))
    before = path.read_bytes()
    fail_saves(monkeypatch, how)
    assert load_index(str(path)).article_count == 2  # reads are not failed
    with pytest.raises(OSError):
        save_index(make_kb({"x": "a much longer corpus " * 50}), str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.mcrx"]


def test_save_syncs_the_temporary_file_before_the_replace(tmp_path, monkeypatch):
    # all or nothing after a crash too: the new bytes are on disk before
    # the temporary file, beside the target, takes the target's name
    path = tmp_path / "c.mcrx"
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def replace(src, dst):
        assert os.path.samefile(os.path.dirname(os.path.abspath(src)), tmp_path)
        events.append(("replace", os.stat(src).st_ino))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_index(make_kb({"d1": "a b", "d2": "b c"}), str(path))
    inode = path.stat().st_ino
    assert events == [("fsync", inode), ("replace", inode)]
    assert [p.name for p in tmp_path.iterdir()] == ["c.mcrx"]


def save_c2(tmp_path, texts=None):
    """An MCRX-1 file of make_kb(texts) and its lines, split on b"\\n"."""
    path = tmp_path / "index.mcrx"
    save_index(make_kb(texts or {"d1": "a b", "d2": "b c"}), str(path))
    return path, path.read_bytes().split(b"\n")


def load_error(path, lines):
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(IndexFormatError) as excinfo:
        load_index(str(path))
    return excinfo.value


@pytest.mark.parametrize(
    "line, at_end",
    [(1, False), (5, False), (6, True)],  # the header, an article, a sequence cut by b"\n"
)
def test_load_names_the_line_of_a_non_utf8_byte(tmp_path, line, at_end):
    path, lines = save_c2(tmp_path)
    raw = lines[line - 1]
    lines[line - 1] = raw + b"\xe9" if at_end else raw.replace(b'"', b'"\xe9', 1)
    error = load_error(path, lines)
    assert error.line == line
    assert str(error) == f"line {line}: not UTF-8 text (invalid continuation byte)"


def test_load_refuses_a_blank_line_inside_the_file(tmp_path):
    path, lines = save_c2(tmp_path)
    lines.insert(4, b"")
    error = load_error(path, lines)
    assert (error.line, str(error)) == (5, "line 5: blank line inside index")


def test_load_reports_header_faults_first_then_each_word_in_file_order(tmp_path):
    path, lines = save_c2(tmp_path)
    header, a, _, c = lines[:4]
    assert c == b'{"t":"word","tok":"c","df":1,"w":1.0986122886681098}'
    lines[0] = header.replace(b'"total_tokens":4', b'"total_tokens":5')
    lines[3] = c.replace(b'"df":1', b'"df":2')
    error = load_error(path, lines)
    assert str(error) == "line 1: header total_tokens=5 but file sums to 4"
    lines[0] = header
    lines[1] = a.replace(b'"w":1.0986122886681098', b'"w":1.5')
    error = load_error(path, lines)
    assert str(error) == "line 2: stored weight 1.5 for 'a' is not ln(1 + D/df)"
    lines[1] = a
    error = load_error(path, lines)
    assert str(error) == "line 4: stored df 2 for 'c' disagrees with derived df 1"


def test_load_reads_a_file_without_a_final_newline(tmp_path):
    path, lines = save_c2(tmp_path)
    assert lines[-1] == b""
    path.write_bytes(b"\n".join(lines[:-1]))
    loaded = load_index(str(path))
    check_kb(loaded)
    resaved = tmp_path / "resaved.mcrx"
    save_index(loaded, str(resaved))
    assert resaved.read_bytes() == b"\n".join(lines)


def test_title_with_unicode_line_separators_round_trips_byte_for_byte(tmp_path):
    docs = [
        RawDocument("d1", "a b", title="one\u2028two\u2029three\u0085four"),
        RawDocument("d2", "b c", title="\u2028"),
    ]
    path = tmp_path / "titled.mcrx"
    save_index(build_corpus(docs)[0], str(path))
    data = path.read_bytes()
    assert data.count(b"\n") == 6 and "\u2029".encode() in data
    loaded = load_index(str(path))
    assert loaded.title(loaded.article_id("d1")) == "one\u2028two\u2029three\u0085four"
    resaved = tmp_path / "resaved.mcrx"
    save_index(loaded, str(resaved))
    assert resaved.read_bytes() == data


def test_a_record_cut_at_its_line_break_is_unterminated(tmp_path):
    # the line break ends the record and is not part of it
    path, lines = save_c2(tmp_path)
    lines[2] = lines[2][: lines[2].index(b'"b"') + 2]
    error = load_error(path, lines)
    assert str(error) == "line 3: invalid record (Unterminated string starting at)"


def test_first_bad_line_wins(tmp_path):
    # a streamed load stops at the first bad line, whether the fault is its
    # JSON or its bytes
    path, lines = save_c2(tmp_path, {"d1": "a b", "d2": "b c", "d3": "c d", "d4": "d e"})
    assert len(lines) == 11  # header, 5 words, 4 articles, final newline
    word_b = lines[2]
    lines[2] = b"{not json"
    lines[9] = lines[9].replace(b'"', b'"\xff', 1)
    error = load_error(path, lines)
    assert error.line == 3 and "invalid record" in str(error)
    lines[2] = word_b
    error = load_error(path, lines)
    assert error.line == 10 and "not UTF-8 text" in str(error)


def test_load_and_save_hold_no_copy_of_the_whole_file(tmp_path):
    rng = random.Random(20261019)
    vocabulary = [f"w{i}" for i in range(400)]
    kb = make_kb(
        {f"d{i:04d}": " ".join(rng.choices(vocabulary, k=12)) for i in range(3000)}
    )
    path = tmp_path / "index.mcrx"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        save_index(kb, str(path))
        save_extra = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        loaded = load_index(str(path))
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 200_000 and loaded.article_count == 3000
    assert save_extra < size / 2, (save_extra, size)
    assert peak - after < size / 2, (peak - after, size)


@pytest.mark.parametrize("key", ["D", "total_tokens"])
@pytest.mark.parametrize("value", [b"true", b"2.0", b'"2"'])
def test_load_refuses_a_header_count_that_is_not_an_int(tmp_path, key, value):
    # D=1 and total_tokens=2: true == 1 and 2.0 == 2 would pass the count checks
    path, lines = save_c2(tmp_path, {"d1": "a b"})
    header = json.loads(lines[0])
    header[key] = json.loads(value)
    lines[0] = json.dumps(header).encode()
    error = load_error(path, lines)
    assert (error.line, str(error)) == (1, f"line 1: header {key} must be an int")


def test_load_refuses_an_empty_file(tmp_path):
    path = tmp_path / "empty.mcrx"
    error = load_error(path, [b""])
    assert (error.line, str(error)) == (1, "line 1: empty index file")


@pytest.mark.parametrize(
    "line, old, new, message",
    [
        (2, b'"t":"word"', b'"t":"phrase"', "unknown record type 'phrase'"),
        (2, b',"w":1.0986122886681098', b"", "word record missing 'w'"),
        (2, b'"w":1.0986122886681098', b'"w":"1.1"', "word record has non-numeric weight"),
        (2, b'"tok":"a"', b'"tok":5', "word record has bad tok/df"),
        (2, b'"df":1', b'"df":0', "word record has bad tok/df"),
        (2, b'"df":1', b'"df":true', "word record has bad tok/df"),
        (2, b'"df":1', b'"df":1.0', "word record has bad tok/df"),
        (2, b'"df":1', b'"df":"1"', "word record has bad tok/df"),
        (5, b'"label":"d1"', b'"label":1', "malformed article structure (label 1 is not a str)"),
        (5, b'["a",1]', b'["x",1]', "article references unlisted word 'x'"),
        (5, b'["a",1]', b'[1,1]', "malformed article structure (token 1 is not a str)"),
        (
            5,
            b'["a",1]',
            b'["a"]',
            "malformed article structure (not enough values to unpack (expected 2, got 1))",
        ),
        (5, b'["a",1]', b'[["a"],1]', "malformed article structure (unhashable type: 'list')"),
        (5, b'["a",1]', b'["a",0]', "malformed article structure (word count 0 is not a positive int)"),
        (5, b'[["a",1],["b",1]]', b"[]", "malformed article structure (empty article, paragraph or sentence)"),
    ],
)
def test_load_refuses_each_bad_record(tmp_path, line, old, new, message):
    path, lines = save_c2(tmp_path)
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new)
    error = load_error(path, lines)
    assert (error.line, str(error)) == (line, f"line {line}: {message}")


def test_save_skips_an_orphan_word(tmp_path):
    kb = make_kb({"d1": "a b", "d2": "b c"})
    path = tmp_path / "plain.mcrx"
    save_index(kb, str(path))
    kb.add_word("orphan")  # reachable from no article
    orphaned = tmp_path / "orphaned.mcrx"
    save_index(kb, str(orphaned))
    assert orphaned.read_bytes() == path.read_bytes()
    assert load_index(str(orphaned)).word_id("orphan") is None


def test_an_orphan_word_weighs_zero():
    kb = KnowledgeBase()
    a = kb.add_word("a")
    assert kb.weights([a]) == {a: 0.0}  # no articles: nothing to compute
    kb.add_article("d1", [[[("a", 1)]]])
    orphan = kb.add_word("orphan")
    assert kb.weights([a, orphan]) == {a: math.log(2.0), orphan: 0.0}
    kb.add_article("d2", [[[("a", 1)]]])
    assert kb.weights([orphan]) == {orphan: 0.0}


@pytest.mark.parametrize("token", [5, True, ("a",)])
def test_add_word_refuses_a_token_that_is_not_a_str(c2, token):
    words = c2.word_count
    with pytest.raises(TypeError, match="is not a str"):
        c2.add_word(token)
    assert c2.word_count == words
    check_kb(c2)


def test_save_into_a_missing_directory_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "missing" / "index.mcrx"
    with pytest.raises(FileNotFoundError):
        save_index(make_kb({"d1": "a b"}), str(target))
    assert list(tmp_path.iterdir()) == []
