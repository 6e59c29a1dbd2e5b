import hashlib
import json
import math
import random

import pytest

from mcrx import load_index
from mcrx.cli import main

from oracles import reference_compare


def build_c2(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b")
    (corpus / "d2.txt").write_text("b c")
    index = tmp_path / "c2.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    return index


def build_c3(tmp_path):
    corpus = tmp_path / "corpus3"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a")
    (corpus / "d2.txt").write_text("a b")
    index = tmp_path / "c3.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    return index


def test_build_summary(tmp_path, capsys):
    build_c2(tmp_path)
    out = capsys.readouterr().out
    assert "2 documents, 3 words, 4 tokens" in out


def test_build_empty_directory_exit_3(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code = main(["build", "--corpus", str(corpus), "--index", str(tmp_path / "x.mcrx")])
    assert code == 3


def test_build_unreadable_corpus_exit_1(tmp_path):
    code = main(
        ["build", "--corpus", str(tmp_path / "missing"), "--index", str(tmp_path / "x.mcrx")]
    )
    assert code == 1


def test_build_malformed_jsonl_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id":"d1","text":"fine"}\n{oops\n')
    code = main(["build", "--corpus", str(corpus), "--index", str(tmp_path / "x.mcrx")])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_rebuild_is_byte_identical(tmp_path):
    first = build_c2(tmp_path)
    data = first.read_bytes()
    second = tmp_path / "again.mcrx"
    corpus = tmp_path / "corpus"
    assert main(["build", "--corpus", str(corpus), "--index", str(second)]) == 0
    assert second.read_bytes() == data


def test_query_human_output(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "query.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc), "--include-self"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1\td1\t100.0")
    assert lines[1].startswith("2\td2\t18.0")


def test_query_punctuation_only_exit_4(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "punct.txt"
    doc.write_text("?!... ---")
    code = main(["query", "--index", str(index), "--doc", str(doc)])
    assert code == 4


def test_query_no_shared_vocabulary_exit_4(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "alien.txt"
    doc.write_text("zzz qqq")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc)])
    assert code == 4
    assert "2 unknown words" in capsys.readouterr().err


def test_query_watch_line(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "query.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(
        ["query", "--index", str(index), "--doc", str(doc), "--watch", "a", "--include-self"]
    )
    assert code == 0
    out = capsys.readouterr().out
    watch_lines = [line for line in out.splitlines() if line.startswith("watch\t")]
    assert len(watch_lines) == 1
    _, label, value = watch_lines[0].split("\t")
    assert label == "a"
    assert float(value) == pytest.approx(0.5493061443340549, abs=1e-12)


def test_query_tsv_full_precision(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "query.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(
        ["query", "--index", str(index), "--doc", str(doc), "--tsv", "--include-self"]
    )
    assert code == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [row[1] for row in rows] == ["d1", "d2"]
    assert float(rows[0][3]) == 100.0
    # 17 significant digits re-parse bit-for-bit against the library value
    from mcrx import load_index, rank

    expected = rank(load_index(str(index)), "a b", k=100, n=10, exclude_self=False)
    assert [float(row[3]) for row in rows] == [r.percent for r in expected]
    assert [float(row[4]) for row in rows] == [r.reverse for r in expected]
    assert [float(row[5]) for row in rows] == [r.forward for r in expected]


def test_query_tsv_and_human_rank_identically(tmp_path, capsys):
    # a tab, line break or backslash in an id or title is escaped: one line per result
    tabbed = tmp_path / "tabbed.jsonl"
    records = [{"id": "d1", "text": "a b"}, {"id": "d\t2", "title": "A\tB\nC\r\\", "text": "b c"}]
    tabbed.write_text("".join(json.dumps(record) + "\n" for record in records))
    tabbed_index = tmp_path / "tabbed.mcrx"
    assert main(["build", "--corpus", str(tabbed), "--index", str(tabbed_index)]) == 0
    doc = tmp_path / "query.txt"
    doc.write_text("b c a")
    for index, labels in ((build_c2(tmp_path), ["d1", "d2"]), (tabbed_index, ["d1", "d\\t2"])):
        capsys.readouterr()
        assert main(["query", "--index", str(index), "--doc", str(doc), "--include-self"]) == 0
        human = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert (
            main(["query", "--index", str(index), "--doc", str(doc), "--tsv", "--include-self"])
            == 0
        )
        tsv = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert sorted(row[1] for row in human) == labels
        assert [row[1] for row in human] == [row[1] for row in tsv]
        assert {len(row) for row in human} == {3} and {len(row) for row in tsv} == {6}
    assert {row[1]: row[2] for row in tsv}["d\\t2"] == "A\\tB\\nC\\r\\\\"
    (shown,) = [row[2] for row in human if row[1] == "d\\t2"]
    assert shown.endswith("  A\\tB\\nC\\r\\\\")


def test_query_attention_file(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "query.txt"
    doc.write_text("a b")
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"b": 0.0}))
    capsys.readouterr()
    code = main(
        [
            "query",
            "--index",
            str(index),
            "--doc",
            str(doc),
            "--attention",
            str(rules),
            "--include-self",
        ]
    )
    assert code == 0
    labels = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert labels == ["d1"]  # d2 only shares the muted word


def test_query_missing_index_exit_1(tmp_path):
    doc = tmp_path / "q.txt"
    doc.write_text("a")
    code = main(["query", "--index", str(tmp_path / "none.mcrx"), "--doc", str(doc)])
    assert code == 1


def test_query_rejects_unknown_flag(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["query", "--index", "x", "--doc", "y", "--bogus"])
    assert excinfo.value.code == 2


def test_compare_directions(tmp_path, capsys):
    index = build_c3(tmp_path)
    capsys.readouterr()
    code = main(["compare", "--index", str(index), "--a", "d1", "--b", "d2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.69315" in out
    assert "0.34657" in out


def test_compare_self_is_100(tmp_path, capsys):
    index = build_c3(tmp_path)
    capsys.readouterr()
    code = main(["compare", "--index", str(index), "--a", "d1", "--b", "d1"])
    assert code == 0
    assert "percent\t100.0" in capsys.readouterr().out


def test_compare_unknown_id_exit_5(tmp_path):
    index = build_c3(tmp_path)
    code = main(["compare", "--index", str(index), "--a", "d1", "--b", "nonexistent"])
    assert code == 5


def test_compare_accepts_file_side(tmp_path, capsys):
    index = build_c3(tmp_path)
    doc = tmp_path / "external.txt"
    doc.write_text("a")
    capsys.readouterr()
    code = main(["compare", "--index", str(index), "--a", str(doc), "--b", "d2"])
    assert code == 0
    assert "0.69315" in capsys.readouterr().out


def test_compare_text_sides_match_reference(tmp_path, capsys):
    index = build_c3(tmp_path)
    kb = load_index(str(index))
    doc = tmp_path / "external.txt"
    doc.write_text("a")
    other = tmp_path / "other.txt"
    other.write_text("b a b unknownword")
    for a, b, side_a, side_b in (
        ("d2", str(doc), kb.article_id("d2"), "a"),
        (str(other), str(doc), "b a b unknownword", "a"),
        (str(doc), str(doc), "a", "a"),
    ):
        forward, reverse, raw, percent = reference_compare(kb, side_a, side_b)
        capsys.readouterr()
        assert main(["compare", "--index", str(index), "--a", a, "--b", b]) == 0
        assert capsys.readouterr().out == (
            f"T {a}->{b}\t{forward:.5f}\nS {b}->{a}\t{reverse:.5f}\n"
            f"raw\t{raw:.5f}\npercent\t{percent:.1f}\n"
        )
    assert (forward, percent) == (reverse, 100.0)  # a text against itself


def test_compare_unscorable_a_exit_4(tmp_path, capsys):
    index = build_c3(tmp_path)
    doc = tmp_path / "unknown.txt"
    doc.write_text("zzz qqq")
    capsys.readouterr()
    assert main(["compare", "--index", str(index), "--a", str(doc), "--b", "d2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "shares no vocabulary" in captured.err


def test_trace_single_row(tmp_path, capsys):
    index = build_c2(tmp_path)
    capsys.readouterr()
    code = main(
        ["trace", "--index", str(index), "--source", "d1", "--dest", "d1", "--level", "sentence"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert "0.89588" in lines[0]
    assert lines[0].endswith("a b")


@pytest.mark.parametrize("top", ["0", "-1"])
def test_trace_top_out_of_range_exit_2(tmp_path, capsys, top):
    index = build_c2(tmp_path)
    capsys.readouterr()
    argv = ["trace", "--index", str(index), "--source", "d1", "--dest", "d1"]
    code = main([*argv, "--level", "sentence", "--top", top])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "--top" in captured.err


def test_trace_article_level_usage_error(tmp_path):
    index = build_c2(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "trace",
                "--index",
                str(index),
                "--source",
                "d1",
                "--dest",
                "d1",
                "--level",
                "article",
            ]
        )
    assert excinfo.value.code == 2


def test_trace_unknown_dest_exit_5(tmp_path):
    index = build_c2(tmp_path)
    code = main(
        ["trace", "--index", str(index), "--source", "d1", "--dest", "dX", "--level", "sentence"]
    )
    assert code == 5


def test_scl_demo_trivial(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "0,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "sequence\t(empty)" in out
    assert "exit\tthreshold" in out
    assert kb_path.exists()  # created with the default primitives


def test_saves_under_a_250_byte_name_leave_no_temporary_file(tmp_path):
    # a legal name may leave no room for a suffix: the temporary file's
    # name must not grow with the target's
    saves = tmp_path / "saves"
    saves.mkdir()
    index, actions = saves / ("b" * 250), saves / ("a" * 250)
    build_c2(tmp_path)
    corpus = tmp_path / "corpus"
    for _ in range(2):  # a new file, then one replaced
        assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
        argv = ["scl-demo", "--kb", str(actions), "--start", "0,0", "--target", "2,1"]
        assert main(argv) == 0
    assert load_index(str(index)).article_count == 2
    assert '"t":"comp"' in actions.read_text("utf-8")
    assert sorted(p.name for p in saves.iterdir()) == [actions.name, index.name]


def test_scl_demo_three_action_plan(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "2,1"])
    assert code == 0
    out = capsys.readouterr().out
    sequence_line = [l for l in out.splitlines() if l.startswith("sequence\t")][0]
    actions = sequence_line.split("\t")[1].split()
    assert len(actions) == 3
    assert "registered composite" in out
    # the file now carries the new composite
    assert '"t":"comp"' in kb_path.read_text("utf-8")


def test_scl_demo_learn_fig_scenario(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    kb_path.write_text(
        '{"t":"prim","label":"U","dx":0,"dy":1}\n{"t":"prim","label":"D","dx":0,"dy":-1}\n'
    )
    demo = tmp_path / "demo.txt"
    demo.write_text("0,0\n0,1\n0,2\n-1,2\n")
    code = main(
        [
            "scl-demo",
            "--kb",
            str(kb_path),
            "--learn",
            str(demo),
            "--start",
            "0,0",
            "--target",
            "0,1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "learned primitive L" in out
    assert "learned composite S1" in out


def test_scl_demo_invalid_demo_exit_6(tmp_path):
    kb_path = tmp_path / "actions.jsonl"
    demo = tmp_path / "demo.txt"
    demo.write_text("0,0\n5,5\n")
    code = main(
        [
            "scl-demo",
            "--kb",
            str(kb_path),
            "--learn",
            str(demo),
            "--start",
            "0,0",
            "--target",
            "0,1",
        ]
    )
    assert code == 6


def test_stats_output(tmp_path, capsys):
    index = build_c2(tmp_path)
    capsys.readouterr()
    code = main(["stats", "--index", str(index)])
    assert code == 0
    out = capsys.readouterr().out
    assert "documents: 2" in out
    assert "words: 3" in out
    assert "tokens: 4" in out
    assert "weight min: 0.69315" in out
    assert "weight max: 1.09861" in out
    assert "nodes[article]: 2" in out


def test_query_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    index = build_c2(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO("b c"))
    code = main(["query", "--index", str(index), "--doc", "-", "--include-self"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("1\td2\t100.0")


def test_query_top_limits_results(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "q.txt"
    doc.write_text("a b c")
    capsys.readouterr()
    code = main(
        ["query", "--index", str(index), "--doc", str(doc), "--top", "1", "--include-self"]
    )
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_build_tokenization_flags(tmp_path, capsys):
    corpus = tmp_path / "caps"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("Big WORDS ok")
    index = tmp_path / "caps.mcrx"
    code = main(
        [
            "build",
            "--corpus",
            str(corpus),
            "--index",
            str(index),
            "--lowercase",
            "false",
            "--min-token-len",
            "3",
        ]
    )
    assert code == 0
    assert "1 documents, 2 words, 2 tokens" in capsys.readouterr().out
    content = index.read_text("utf-8")
    assert '"tok":"WORDS"' in content and '"tok":"ok"' not in content


def build_cased(tmp_path, *flags):
    """d1..d3 with Alpha/alpha and one-letter words, built with flags."""
    corpus = tmp_path / "cased"
    corpus.mkdir(exist_ok=True)
    for label, text in (
        ("d1", "Alpha beta gamma."),
        ("d2", "alpha Beta delta."),
        ("d3", "x Alpha y z."),
    ):
        (corpus / f"{label}.txt").write_text(text)
    index = tmp_path / f"cased{''.join(flags)}.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index), *flags]) == 0
    return index


def query_labels(capsys, index, doc, *flags):
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc), *flags]) == 0
    return [line.split("\t")[:3] for line in capsys.readouterr().out.splitlines()]


def test_query_applies_the_index_lowercase_rule(tmp_path, capsys):
    index = build_cased(tmp_path, "--lowercase", "false")
    header = json.loads(index.read_text("utf-8").splitlines()[0])
    assert header["tokenization"] == {"lowercase": False, "min_token_len": 1}
    doc = tmp_path / "q.txt"
    doc.write_text("Alpha")
    # lowercased, the query would reach d2 only
    assert sorted(row[1] for row in query_labels(capsys, index, doc)) == ["d1", "d3"]
    rows = query_labels(capsys, index, doc, "--watch", "Alpha,alpha")
    assert rows[0][:2] == ["watch", "Alpha"] and float(rows[0][2]) > 0.0
    assert rows[1] == ["watch", "alpha", "0"]
    doc.write_text("Alpha beta gamma.")
    assert query_labels(capsys, index, doc, "--include-self")[0] == ["1", "d1", "100.0"]
    assert main(["compare", "--index", str(index), "--a", "d1", "--b", str(doc)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "percent\t100.0"
    doc.write_text("Alpha")
    argv = ["trace", "--index", str(index), "--source", str(doc), "--dest", "d3"]
    assert main([*argv, "--level", "word", "--top", "1"]) == 0
    _, contribution, text = capsys.readouterr().out.split("\t")[1:]
    assert float(contribution) > 0.0 and text.strip() == "Alpha"


def test_query_applies_the_index_min_token_len_rule(tmp_path, capsys):
    index = build_cased(tmp_path, "--min-token-len", "2")
    header = json.loads(index.read_text("utf-8").splitlines()[0])
    assert header["tokenization"] == {"lowercase": True, "min_token_len": 2}
    doc = tmp_path / "q.txt"
    # x, y and z are dropped from d3 and, under the index's rules, from its query
    doc.write_text("x Alpha y z.")
    assert query_labels(capsys, index, doc, "--include-self")[0] == ["1", "d3", "100.0"]
    assert main(["compare", "--index", str(index), "--a", "d3", "--b", str(doc)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "percent\t100.0"
    argv = ["trace", "--index", str(index), "--source", "d3", "--dest", "d3", "--level", "word"]
    assert main(argv) == 0
    assert [line.split("\t")[3] for line in capsys.readouterr().out.splitlines()] == ["alpha"]
    doc.write_text("x")
    assert main(["query", "--index", str(index), "--doc", str(doc)]) == 4


def test_default_rules_index_bytes_unchanged(tmp_path):
    index = build_cased(tmp_path)
    explicit = build_cased(tmp_path, "--lowercase", "true", "--min-token-len", "1")
    assert "tokenization" not in index.read_text("utf-8").splitlines()[0]
    assert explicit.read_bytes() == index.read_bytes()
    # recorded on the commit before the header key existed
    assert hashlib.sha256(index.read_bytes()).hexdigest() == (
        "c59fb1ab266ee81a3aae53a47809d9de9e7d9a7a4e75c13788b3c1dc807eba6e"
    )


def test_build_min_token_len_below_one_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b")
    index = tmp_path / "x.mcrx"
    argv = ["build", "--corpus", str(corpus), "--index", str(index), "--min-token-len", "0"]
    assert main(argv) == 2
    assert_one_error_line(capsys.readouterr().err)
    assert not index.exists()


@pytest.mark.parametrize(
    "value",
    [
        '"no"',
        "[]",
        "null",
        '{"lowercase":"false"}',
        '{"lowercase":0}',
        '{"min_token_len":0}',
        '{"min_token_len":true}',
        '{"min_token_len":1.5}',
        '{"lowercase":false,"stem":true}',
    ],
)
def test_bad_tokenization_header_exit_1(tmp_path, capsys, value):
    index = build_cased(tmp_path, "--lowercase", "false")
    lines = index.read_text("utf-8").splitlines(keepends=True)
    header = json.loads(lines[0])
    header["tokenization"] = json.loads(value)
    lines[0] = json.dumps(header, separators=(",", ":")) + "\n"
    index.write_text("".join(lines), "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("Alpha")
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "tokenization" in err


def test_stats_missing_index_exit_1(tmp_path):
    assert main(["stats", "--index", str(tmp_path / "none.mcrx")]) == 1


def test_stats_is_pure_read(tmp_path, capsys):
    index = build_c2(tmp_path)
    capsys.readouterr()
    assert main(["stats", "--index", str(index)]) == 0
    first = capsys.readouterr().out
    assert main(["stats", "--index", str(index)]) == 0
    assert capsys.readouterr().out == first


def assert_one_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize(
    "flags",
    [["--top", "-1"], ["--top", "0"], ["--candidates", "3", "--top", "10"]],
)
def test_query_cut_flags_out_of_range_exit_2(tmp_path, capsys, flags):
    index = build_c2(tmp_path)
    doc = tmp_path / "q.txt"
    doc.write_text("a b c")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc), *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


NOT_UTF8 = b"caf\xe9 a b\n"


def test_query_non_utf8_doc_exit_1(tmp_path, capsys, monkeypatch):
    import io

    index = build_c2(tmp_path)
    doc = tmp_path / "latin1.txt"
    doc.write_bytes(NOT_UTF8)
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc)]) == 1
    assert_one_error_line(capsys.readouterr().err)
    # what a C-locale stdin makes of the same bytes
    monkeypatch.setattr("sys.stdin", io.StringIO(NOT_UTF8.decode("utf-8", "surrogateescape")))
    assert main(["query", "--index", str(index), "--doc", "-"]) == 1
    assert_one_error_line(capsys.readouterr().err)


def test_compare_non_utf8_file_exit_1(tmp_path, capsys):
    index = build_c3(tmp_path)
    doc = tmp_path / "latin1.txt"
    doc.write_bytes(NOT_UTF8)
    capsys.readouterr()
    assert main(["compare", "--index", str(index), "--a", str(doc), "--b", "d2"]) == 1
    assert_one_error_line(capsys.readouterr().err)


def test_trace_non_utf8_source_exit_1(tmp_path, capsys):
    index = build_c2(tmp_path)
    doc = tmp_path / "latin1.txt"
    doc.write_bytes(NOT_UTF8)
    capsys.readouterr()
    code = main(
        ["trace", "--index", str(index), "--source", str(doc), "--dest", "d1", "--level", "sentence"]
    )
    assert code == 1
    assert_one_error_line(capsys.readouterr().err)


def test_build_non_utf8_corpus_exit_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b")
    (corpus / "d2.txt").write_bytes(NOT_UTF8)
    jsonl = tmp_path / "corpus.jsonl"
    jsonl.write_bytes(b'{"id":"d1","text":"fine"}\n{"id":"d2","text":"' + NOT_UTF8.strip() + b'"}\n')
    for source, detail in ((corpus, "d2.txt"), (jsonl, "line 2")):
        code = main(["build", "--corpus", str(source), "--index", str(tmp_path / "x.mcrx")])
        assert code == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert detail in err


def test_scl_demo_negative_coordinates(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "-5,3", "--target", "-4,-1"])
    assert code == 0
    out = capsys.readouterr().out
    sequence = [line for line in out.splitlines() if line.startswith("sequence\t")][0]
    moves = {"U": (0, 1), "D": (0, -1), "L": (-1, 0), "R": (1, 0)}
    x, y = -5, 3
    for action in sequence.split("\t")[1].split():
        x, y = x + moves[action][0], y + moves[action][1]
    assert (x, y) == (-4, -1)


@pytest.mark.parametrize(
    "old, new, line",
    [
        ('"w":1.0986122886681098', '"w":NaN', 2),
        ('"w":1.0986122886681098', '"w":Infinity', 2),
        ('"w":1.0986122886681098', '"w":1.0986122886681', 2),
        ('["a",1]', '["a",1.5]', 5),
        ('["a",1]', '["a",true]', 5),
        ('"label":"d2"', '"label":"d1"', 6),
        ('"label":"d1",', '"label":"d1","title":5,', 5),
        ('["a",1]', '["a",2147483648]', 5),  # past the 32-bit run count
    ],
)
def test_query_hand_edited_index_exit_1(tmp_path, capsys, old, new, line):
    index = build_c2(tmp_path)
    text = index.read_text("utf-8")
    assert old in text
    index.write_text(text.replace(old, new, 1), "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert f"line {line}:" in captured.err


@pytest.mark.parametrize("paragraphs", [[], [[]], [[[]]]])
@pytest.mark.parametrize(
    "command", [["stats"], ["compare", "--a", "d1", "--b", "d3"], ["compare", "--a", "d3", "--b", "d1"]]
)
def test_empty_article_record_exit_1(tmp_path, capsys, paragraphs, command):
    # build never writes an article with no paragraph, an empty paragraph or
    # an empty sentence; the rest of the file is made consistent with a third
    # article, so only the empty structure is at fault
    index = build_c2(tmp_path)
    lines = index.read_text("utf-8").splitlines()
    header = json.loads(lines[0])
    header["D"] = 3
    lines[0] = json.dumps(header, separators=(",", ":"))
    for number in (1, 2, 3):
        word = json.loads(lines[number])
        word["w"] = math.log(1.0 + 3 / word["df"])
        lines[number] = json.dumps(word, separators=(",", ":"))
    record = {"t": "article", "label": "d3", "paragraphs": paragraphs}
    lines.append(json.dumps(record, separators=(",", ":")))
    index.write_text("\n".join(lines) + "\n", "utf-8")
    capsys.readouterr()
    code = main([command[0], "--index", str(index), *command[1:]])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "line 7:" in captured.err and "empty article, paragraph or sentence" in captured.err


def test_scl_demo_non_object_action_record_exit_1(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    kb_path.write_text('{"t":"prim","label":"U","dx":0,"dy":1}\n[1,2]\n')
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "0,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert_one_error_line(err)
    assert "line 2" in err


def test_scl_demo_learn_taken_unit_label_exit_6(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    kb_path.write_text('{"t":"prim","label":"U","dx":0,"dy":2}\n')
    before = kb_path.read_bytes()
    demo = tmp_path / "demo.txt"
    demo.write_text("0,0\n0,1\n")
    argv = ["scl-demo", "--kb", str(kb_path), "--learn", str(demo)]
    code = main([*argv, "--start", "0,0", "--target", "0,2"])
    captured = capsys.readouterr()
    assert code == 6
    assert_one_error_line(captured.err)
    assert "'U'" in captured.err
    assert captured.out == ""
    assert kb_path.read_bytes() == before


def test_scl_demo_single_primitive_plan_is_no_composite(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "-5,3", "--target", "-4,3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sequence\tR\n" in out
    assert "composite" not in out
    assert '"t":"comp"' not in kb_path.read_text("utf-8")


def test_scl_demo_single_composite_plan_is_matched(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    demo = tmp_path / "demo.txt"
    demo.write_text("0,0\n1,0\n2,0\n")
    learn = ["--learn", str(demo), "--start", "0,0", "--target", "0,0"]
    assert main(["scl-demo", "--kb", str(kb_path), *learn]) == 0
    assert "learned composite S1" in capsys.readouterr().out
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "2,0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "sequence\tS1\n" in out
    assert "matched composite S1" in out


def scl_session(seed, calls):
    """Seeded scl-demo calls: every third learns a 3-12-step unit walk."""
    rng = random.Random(seed)
    steps = [(0, 1), (0, -1), (-1, 0), (1, 0)]
    session = []
    for call in range(calls):
        demo = None
        if call % 3 == 0:
            state = (rng.randint(-10, 10), rng.randint(-10, 10))
            demo = [state]
            for _ in range(rng.randint(3, 12)):
                dx, dy = rng.choice(steps)
                state = (state[0] + dx, state[1] + dy)
                demo.append(state)
        start = (rng.randint(-12, 12), rng.randint(-12, 12))
        target = (rng.randint(-12, 12), rng.randint(-12, 12))
        session.append((demo, start, target))
    return session


def test_scl_demo_seeded_session_is_pinned(tmp_path, capsys):
    kb_path, demo_path = tmp_path / "actions.jsonl", tmp_path / "demo.txt"
    stdout = []
    for demo, start, target in scl_session(20261018, 24):
        argv = ["scl-demo", "--kb", str(kb_path)]
        if demo is not None:
            demo_path.write_text("".join(f"{x},{y}\n" for x, y in demo))
            argv += ["--learn", str(demo_path)]
        argv += ["--start", "%d,%d" % start, "--target", "%d,%d" % target]
        assert main(argv) == 0
        stdout.append(capsys.readouterr().out)
    # any change to a parse or plan choice, or to the saved bytes, moves these
    assert hashlib.sha256("".join(stdout).encode()).hexdigest() == (
        "1b820372b39711f6f5d9709920dcfb9d7109b86d01f9f8c5a8ede069a92d7c4d"
    )
    assert hashlib.sha256(kb_path.read_bytes()).hexdigest() == (
        "4fdb48ab906baec1466cd46d07a3640468410487668c5276f9dc02bc4052f87d"
    )


# a single-child composite, two composites with one flattening, and
# non-unit primitives: K shares its net effect with those two composites
TIE_ACTIONS = """\
{"t": "prim", "label": "U", "dx": 0, "dy": 1}
{"t": "prim", "label": "R", "dx": 1, "dy": 0}
{"t": "prim", "label": "J", "dx": 3, "dy": 0}
{"t": "prim", "label": "K", "dx": 1, "dy": 1}
{"t": "comp", "id": "S1", "children": ["U"]}
{"t": "comp", "id": "S2", "children": ["U", "R"]}
{"t": "comp", "id": "S3", "children": ["S1", "R"]}
"""

TIE_CALLS = [
    # U R: S2 before S3 (earliest of one flattening); jump (3,0): J; jump
    # (1,1): composite S2 before S3 and before primitive K; U: composite
    # S1 before U (equal length)
    (
        "0,0 0,1 1,1 4,1 5,2 5,3 4,3",
        "0,0",
        "4,1",
        "learned primitive L\nlearned composite S4\nsequence\tJ K\niterations\t3\n"
        "exit\tthreshold\nregistered composite S5\n",
    ),
    ("0,0 0,1 1,1", "0,0", "1,1", "recognized composite S2\nsequence\tK\niterations\t2\nexit\tthreshold\n"),
    # the parse [S1] flattens to U's one step, and U owns that flattening
    ("3,3 3,4", "0,0", "0,1", "recognized composite U\nsequence\tU\niterations\t2\nexit\tthreshold\n"),
    (
        None,
        "0,0",
        "5,3",
        "sequence\tS4 R\niterations\t3\nexit\tthreshold\nregistered composite S6\n",
    ),
]

TIE_SAVED = """\
{"t":"prim","label":"U","dx":0,"dy":1}
{"t":"prim","label":"R","dx":1,"dy":0}
{"t":"prim","label":"J","dx":3,"dy":0}
{"t":"prim","label":"K","dx":1,"dy":1}
{"t":"prim","label":"L","dx":-1,"dy":0}
{"t":"comp","id":"S1","children":["U"]}
{"t":"comp","id":"S2","children":["U","R"]}
{"t":"comp","id":"S3","children":["S1","R"]}
{"t":"comp","id":"S4","children":["S2","J","S2","S1","L"]}
{"t":"comp","id":"S5","children":["J","K"]}
{"t":"comp","id":"S6","children":["S4","R"]}
"""


def test_scl_demo_tie_breaks_on_hand_written_actions(tmp_path, capsys):
    kb_path, demo_path = tmp_path / "actions.jsonl", tmp_path / "demo.txt"
    kb_path.write_text(TIE_ACTIONS)
    # a one-primitive plan adds no action, so the file is not rewritten
    assert main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "3,0"]) == 0
    assert capsys.readouterr().out == "sequence\tJ\niterations\t2\nexit\tthreshold\n"
    assert kb_path.read_text() == TIE_ACTIONS
    for demo, start, target, expected in TIE_CALLS:
        argv = ["scl-demo", "--kb", str(kb_path), "--start", start, "--target", target]
        if demo is not None:
            demo_path.write_text(demo.replace(" ", "\n"))
            argv += ["--learn", str(demo_path)]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert kb_path.read_text() == TIE_SAVED


def replace_line(path, number, data):
    lines = path.read_bytes().split(b"\n")
    lines[number - 1] = data
    path.write_bytes(b"\n".join(lines))


INDEX_COMMANDS = {
    "stats": [],
    "query": ["--doc", "QUERY"],
    "trace": ["--source", "d1", "--dest", "d1", "--level", "word"],
}


@pytest.mark.parametrize("command", sorted(INDEX_COMMANDS))
def test_index_commands_non_utf8_index_exit_1(tmp_path, capsys, command):
    index = build_c2(tmp_path)
    replace_line(index, 3, NOT_UTF8.strip())
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    args = [str(doc) if arg == "QUERY" else arg for arg in INDEX_COMMANDS[command]]
    capsys.readouterr()
    code = main([command, "--index", str(index), *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "line 3:" in captured.err and "UTF-8" in captured.err


ACTIONS = '{"t":"prim","label":"U","dx":0,"dy":1}\n{"t":"prim","label":"R","dx":1,"dy":0}\n'


def scl_demo_exit(tmp_path, capsys, kb_bytes):
    kb_path = tmp_path / "actions.jsonl"
    kb_path.write_bytes(kb_bytes)
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "1,1"])
    captured = capsys.readouterr()
    assert kb_path.read_bytes() == kb_bytes  # a refused file is never rewritten
    return code, captured


def test_scl_demo_non_utf8_action_file_exit_1(tmp_path, capsys):
    code, captured = scl_demo_exit(tmp_path, capsys, ACTIONS.encode() + NOT_UTF8)
    assert code == 1
    assert_one_error_line(captured.err)
    assert "line 3:" in captured.err and "UTF-8" in captured.err


@pytest.mark.parametrize(
    "record",
    [
        '{"t":"prim","label":"L","dx":-1,"dy":1.5}',
        '{"t":"prim","label":"L","dx":true,"dy":1}',
        '{"t":"prim","label":"L","dx":-1,"dy":1e400}',
        '{"t":"prim","label":"L","dx":"-1","dy":0}',
        '{"t":"prim","label":"L","dx":-1,"dy":null}',
        '{"t":"prim","label":"L","dx":-9007199254740993,"dy":0}',
        '{"t":"prim","label":"L","dx":-1' + "0" * 5000 + ',"dy":0}',
        '{"t":"prim","label":7,"dx":-1,"dy":0}',
        '{"t":"comp","id":7,"children":["U","R"]}',
        '{"t":"comp","id":"S1","children":"UR"}',
        '{"t":"comp","id":"S1","children":["U",["R"]]}',
        '{"t":"comp","id":"S1","children":[]}',
    ],
)
def test_scl_demo_bad_action_record_exit_1(tmp_path, capsys, record):
    code, captured = scl_demo_exit(tmp_path, capsys, (ACTIONS + record + "\n").encode())
    assert code == 1
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "line 3:" in captured.err


def test_scl_demo_empty_action_file_exit_1(tmp_path, capsys):
    code, captured = scl_demo_exit(tmp_path, capsys, b"\n")
    assert code == 1
    assert_one_error_line(captured.err)


@pytest.mark.parametrize("max_iter", ["0", "-1"])
@pytest.mark.parametrize("existing", [False, True])
def test_scl_demo_max_iter_out_of_range_exit_2(tmp_path, capsys, max_iter, existing):
    kb_path = tmp_path / "actions.jsonl"
    if existing:
        kb_path.write_bytes(ACTIONS.encode())
    demo = tmp_path / "demo.txt"
    demo.write_text("0,0\n0,1\n1,1\n")
    capsys.readouterr()
    argv = ["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "1,1"]
    code = main([*argv, "--learn", str(demo), "--max-iter", max_iter])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "--max-iter" in captured.err
    if existing:
        assert kb_path.read_bytes() == ACTIONS.encode()
    else:
        assert not kb_path.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["demo.txt", *["actions.jsonl"] * existing]
    )


def test_scl_demo_coordinate_flag_beyond_limit_exit_2(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", f"{2**53 + 1},0"])
    assert excinfo.value.code == 2
    assert not kb_path.exists()
    # the limit itself is a valid coordinate
    assert main(["scl-demo", "--kb", str(kb_path), "--start", f"{2**53},0", "--target", f"{2**53},1"]) == 0


def test_integer_too_long_to_parse_is_a_clean_error(tmp_path, capsys):
    huge = "1" + "0" * 5000  # past int's digit limit: json raises a plain ValueError
    index = build_c2(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(f'{{"a":{huge}}}', "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(f'{{"id":"d1","text":"a","n":{huge}}}\n', "utf-8")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc), "--attention", str(rules)])
    assert code == 1
    assert_one_error_line(capsys.readouterr().err)
    assert main(["build", "--corpus", str(corpus), "--index", str(tmp_path / "x.mcrx")]) == 2
    assert_one_error_line(capsys.readouterr().err)
    index.write_text(index.read_text("utf-8").replace('"df":1', f'"df":{huge}', 1), "utf-8")
    assert main(["stats", "--index", str(index)]) == 1
    assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("kind", ["index", "corpus", "actions", "attention"])
def test_deeply_nested_json_is_a_clean_error(tmp_path, capsys, kind):
    nested = "[" * 100_000
    index = build_c2(tmp_path)
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    path = tmp_path / "nested"
    path.write_text(nested + "\n")
    argv = {
        "index": ["stats", "--index", str(path)],
        "corpus": ["build", "--corpus", str(path), "--index", str(tmp_path / "x.mcrx")],
        "actions": ["scl-demo", "--kb", str(path), "--start", "0,0", "--target", "1,1"],
        "attention": ["query", "--index", str(index), "--doc", str(doc), "--attention", str(path)],
    }[kind]
    if kind == "index":
        path.write_text(index.read_text("utf-8").replace("\n", f"\n{nested}\n", 1), "utf-8")
    capsys.readouterr()
    assert main(argv) == (2 if kind == "corpus" else 1)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "recursion" in captured.err


def test_trace_word_level(tmp_path, capsys):
    index = build_c2(tmp_path)
    capsys.readouterr()
    code = main(
        ["trace", "--index", str(index), "--source", "d1", "--dest", "d1", "--level", "word"]
    )
    assert code == 0
    lines = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    # d1 = "a b": wt(a) = ln 3 > wt(b) = ln 2, each emitted at 1/2
    assert [(row[0], row[2], row[3]) for row in lines] == [
        ("1", "0.54931", "a"),
        ("2", "0.34657", "b"),
    ]


@pytest.mark.parametrize(
    "value",
    [
        "NaN",
        "Infinity",
        "-Infinity",
        "-1",
        "true",
        "false",
        pytest.param("1" + "0" * 400, id="10**400"),
        '"2"',
    ],
)
def test_query_bad_attention_multiplier_exit_1(tmp_path, capsys, value):
    index = build_c2(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text(f'{{"a": 2, "b": {value}}}', "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc), "--attention", str(rules)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert_one_error_line(captured.err)


@pytest.mark.parametrize("rules", ['{"a": 1e308}', '{"d2": 1e308, "b": 100}'])
@pytest.mark.parametrize("watch", [[], ["--watch", "a,d2"]])
def test_query_overflowing_attention_exit_4(tmp_path, capsys, rules, watch):
    # the first overflows the query's self score, the second d2's forward value
    index = build_c2(tmp_path)
    rules_file = tmp_path / "rules.json"
    rules_file.write_text(rules, "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    argv = ["query", "--index", str(index), "--doc", str(doc), "--attention", str(rules_file)]
    assert main([*argv, "--tsv", "--include-self", *watch]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_title_with_unicode_line_separator_round_trips(tmp_path, capsys, separator):
    corpus = tmp_path / "corpus.jsonl"
    docs = [
        {"id": "d1", "title": f"first{separator}title", "text": "a b"},
        {"id": "d2", "title": separator, "text": "b c"},
    ]
    corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs), "utf-8")
    index = tmp_path / "titled.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    assert separator in index.read_text("utf-8")  # written raw, not escaped
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc), "--tsv", "--include-self"])
    assert code == 0
    # query writes the separator escaped, so str.splitlines sees one line per result
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    escaped = {"\u2028": "\\u2028", "\u2029": "\\u2029", "\u0085": "\\x85"}[separator]
    assert [(row[1], row[2]) for row in rows] == [("d1", f"first{escaped}title"), ("d2", escaped)]


def test_trace_prints_positions(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b. c a.\n\nb.")
    (corpus / "d2.txt").write_text("c")
    index = tmp_path / "c.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    rows = {}
    for level in ("sentence", "paragraph"):
        capsys.readouterr()
        argv = ["trace", "--index", str(index), "--source", "d1", "--dest", "d1", "--level", level]
        assert main(argv) == 0
        rows[level] = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    # wt(a) = wt(b) = ln 3 > wt(c) = ln 2, each emitted per occurrence in d1
    assert [(row[0], row[1], row[3]) for row in rows["sentence"]] == [
        ("1", "p1.s1", "a b"),
        ("2", "p1.s2", "c a"),
        ("3", "p2.s1", "b"),
    ]
    assert [(row[0], row[1], row[3]) for row in rows["paragraph"]] == [
        ("1", "p1", "a b c a"),
        ("2", "p2", "b"),
    ]


@pytest.mark.parametrize(
    "record",
    [
        r'{"id":"d1","title":"bad \ud800 title","text":"alpha beta"}',
        r'{"id":"d\udc80","text":"alpha beta"}',
    ],
)
def test_lone_surrogate_in_a_jsonl_corpus_exit_2(tmp_path, capsys, record):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id":"d0","text":"fine"}\n' + record + "\n", "utf-8")
    index = tmp_path / "x.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "line 2: invalid record (lone surrogate \\ud" in captured.err
    assert not index.exists()


def test_escaped_surrogate_pair_in_a_jsonl_corpus_builds(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(r'{"id":"d\ud83d\ude00","title":"\ud83d\ude00","text":"a b"}' + "\n", "utf-8")
    index = tmp_path / "x.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc), "--include-self"]) == 0
    assert capsys.readouterr().out == "1\td\U0001f600\t100.0  \U0001f600\n"


def test_non_utf8_file_name_in_a_corpus_directory_exit_1(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "d1.txt").write_text("a b")
    with open(bytes(corpus) + b"/x\xff.txt", "wb") as handle:
        handle.write(b"c d")
    index = tmp_path / "x.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "file name b'x\\xff.txt' is not UTF-8" in err
    assert not index.exists()


@pytest.mark.parametrize("flags", [[], ["--tsv"]])
def test_hand_edited_lone_surrogate_title_exit_1(tmp_path, capsys, flags):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text('{"id":"d1","title":"t","text":"a b"}\n{"id":"d2","text":"b c"}\n')
    index = tmp_path / "x.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    lines = index.read_text("utf-8").splitlines()
    edited = [line.replace('"title":"t"', r'"title":"\ud800"') for line in lines]
    (line,) = [number for number, text in enumerate(edited, start=1) if text != lines[number - 1]]
    index.write_text("\n".join(edited) + "\n", "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert f"cannot load index: line {line}: invalid record (lone surrogate \\ud800)" in captured.err


def test_lone_surrogate_action_label_exit_1(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    kb_path.write_text(r'{"t":"prim","label":"\ud800","dx":3,"dy":0}' + "\n", "utf-8")
    before = kb_path.read_bytes()
    assert main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "3,0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "line 1: invalid record (lone surrogate \\ud800)" in captured.err
    assert kb_path.read_bytes() == before


@pytest.mark.parametrize("flags", [[], ["--tsv"]])
def test_query_escapes_every_line_boundary(tmp_path, capsys, flags):
    # every character str.splitlines breaks at, in an id and in a title
    boundaries = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    corpus = tmp_path / "corpus.jsonl"
    docs = [
        {"id": "d1", "title": "A\u2028B\u0085C\u000bD", "text": "a b"},
        {"id": f"d{boundaries}2", "title": f"x{boundaries}y", "text": "b c"},
    ]
    corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    index = tmp_path / "x.mcrx"
    assert main(["build", "--corpus", str(corpus), "--index", str(index)]) == 0
    doc = tmp_path / "q.txt"
    doc.write_text("a b c")
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc), *flags]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 2
    escaped = r"\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    assert r"A\u2028B\x85C\x0bD" in out and f"d{escaped}2" in out and f"x{escaped}y" in out


def test_compare_on_an_empty_index_exit_4(tmp_path, capsys):
    from mcrx import KnowledgeBase, save_index

    index = tmp_path / "empty.mcrx"
    save_index(KnowledgeBase(), str(index))
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    for command in (["compare", "--a", str(doc), "--b", str(doc)], ["query", "--doc", str(doc)]):
        assert main([*command, "--index", str(index)]) == 4
        assert capsys.readouterr().err == "error: the index holds no documents\n"


def test_build_lowercase_flag_not_a_bool_exit_2(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["build", "--corpus", str(tmp_path), "--index", "x", "--lowercase", "maybe"])
    assert excinfo.value.code == 2


def test_scl_demo_coordinates_not_x_comma_y_exit_2(tmp_path):
    kb_path = tmp_path / "actions.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(["scl-demo", "--kb", str(kb_path), "--start", "1;2", "--target", "0,0"])
    assert excinfo.value.code == 2
    assert not kb_path.exists()


def test_query_attention_file_not_an_object_exit_1(tmp_path, capsys):
    index = build_c2(tmp_path)
    rules = tmp_path / "rules.json"
    rules.write_text("[1]", "utf-8")
    doc = tmp_path / "q.txt"
    doc.write_text("a b")
    capsys.readouterr()
    code = main(["query", "--index", str(index), "--doc", str(doc), "--attention", str(rules)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: attention rules must map labels to numbers\n"


def learn_demo(tmp_path, capsys, demo_bytes, kb_bytes=None):
    """scl-demo --learn a demonstration file: its exit code, stdout and stderr."""
    kb_path = tmp_path / "actions.jsonl"
    if kb_bytes is not None:
        kb_path.write_bytes(kb_bytes)
    demo = tmp_path / "demo.txt"
    demo.write_bytes(demo_bytes)
    argv = ["scl-demo", "--kb", str(kb_path), "--learn", str(demo), "--start", "0,0", "--target", "2,1"]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scl_demo_demonstration_line_not_x_comma_y_exit_6(tmp_path, capsys):
    code, out, err = learn_demo(tmp_path, capsys, b"0,0\n\n 0,1 \n1,x\n")
    assert (code, out) == (6, "")
    assert err == "error: invalid demonstration: line 4: expected X,Y, got '1,x'\n"


DEMO = "0,0\n0,1\n\n1,1\n2,1\n"


def test_scl_demo_reads_crlf_action_and_demonstration_files_as_lf(tmp_path, capsys):
    runs = []
    for line_end in ("\n", "\r\n"):
        directory = tmp_path / repr(line_end)
        directory.mkdir()
        actions = ACTIONS.replace("\n", line_end).encode()
        runs.append(learn_demo(directory, capsys, DEMO.replace("\n", line_end).encode(), actions))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "learned composite S1" in runs[0][1]


# every line boundary of str.splitlines but "\n" and "\r\n"
@pytest.mark.parametrize(
    "separator", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_demonstration_lines_end_at_lf_only(tmp_path, capsys, separator):
    code, out, err = learn_demo(tmp_path, capsys, f"0,0{separator}0,1\n".encode())
    assert (code, out) == (6, "")
    assert err == f"error: invalid demonstration: line 1: expected X,Y, got {f'0,0{separator}0,1'!r}\n"


def test_build_cr_only_jsonl_corpus_exit_2(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b'{"id":"d1","text":"a b"}\r{"id":"d2","text":"b c"}\r')
    code = main(["build", "--corpus", str(corpus), "--index", str(tmp_path / "x.mcrx")])
    assert code == 2
    assert capsys.readouterr().err == "error: malformed corpus: line 1: invalid record (Extra data)\n"


def test_build_crlf_jsonl_corpus_writes_the_lf_bytes(tmp_path):
    lines = ['{"id":"d1","text":"a b"}', '{"id":"d2","title":"T","text":"b c"}']
    for name, line_end in (("lf", "\n"), ("crlf", "\r\n")):
        (tmp_path / f"{name}.jsonl").write_bytes(line_end.join(lines + [""]).encode())
        argv = ["build", "--corpus", str(tmp_path / f"{name}.jsonl"), "--index", str(tmp_path / name)]
        assert main(argv) == 0
    assert (tmp_path / "crlf").read_bytes() == (tmp_path / "lf").read_bytes()


def test_scl_demo_cr_only_action_file_exit_1(tmp_path, capsys):
    code, captured = scl_demo_exit(tmp_path, capsys, ACTIONS.replace("\n", "\r").encode())
    assert code == 1
    assert captured.err == "error: cannot load action kb: line 1: invalid record (Extra data)\n"
