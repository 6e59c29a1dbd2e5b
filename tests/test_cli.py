import hashlib
import json
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
    index = build_c2(tmp_path)
    doc = tmp_path / "query.txt"
    doc.write_text("b c a")
    capsys.readouterr()
    assert main(["query", "--index", str(index), "--doc", str(doc), "--include-self"]) == 0
    human = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert (
        main(["query", "--index", str(index), "--doc", str(doc), "--tsv", "--include-self"])
        == 0
    )
    tsv = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert human == tsv


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


def test_trace_top_zero_empty(tmp_path, capsys):
    index = build_c2(tmp_path)
    capsys.readouterr()
    code = main(
        [
            "trace",
            "--index",
            str(index),
            "--source",
            "d1",
            "--dest",
            "d1",
            "--level",
            "sentence",
            "--top",
            "0",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out == ""


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


def test_scl_demo_non_object_action_record_exit_1(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    kb_path.write_text('{"t":"prim","label":"U","dx":0,"dy":1}\n[1,2]\n')
    code = main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "0,1"])
    err = capsys.readouterr().err
    assert code == 1
    assert_one_error_line(err)
    assert "line 2" in err


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
    rows = [line.split("\t") for line in capsys.readouterr().out.split("\n") if line]
    assert [(row[1], row[2]) for row in rows] == [("d1", f"first{separator}title"), ("d2", separator)]


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
