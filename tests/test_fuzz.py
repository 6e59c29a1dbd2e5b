"""Seeded fuzz: mutated index, attention, action and corpus files through the CLI.

A valid file is changed once, either line by line (delete, duplicate,
swap, truncate, blank, or one JSON number replaced by NaN, 1e400, 1e308,
1.5, true, null or []) or byte by byte (bit flips, and bytes that are not
UTF-8). In a JSONL corpus the replaced value is a JSON string (an id, a
title or a text); in a *.txt corpus it is a word. Every mutant runs
through cli.main. The command must return one of its documented exit
codes without raising; a failure prints nothing on stdout and a single
error: line on stderr, and a success prints no NaN or infinite score.
A last case puts a surrogate escape inside a JSON string of an index,
action or corpus file: a lone one is refused with the line named, a
valid pair is read like any other character. The mutations are drawn
from fixed seeds, so a failure reproduces exactly.
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

import pytest

from mcrx import load_index
from mcrx.cli import main
from oracles import check_kb

DATA = Path(__file__).parent / "data"

# a JSON number in value position: after ':' ',' or '[', before ',' ']' or '}'
NUMBER_RE = re.compile(rb"(?<=[:,\[])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[,\]}])")
# a JSON string in value position, and a word of plain text
STRING_RE = re.compile(rb'(?<=: )"(?:[^"\\]|\\.)*"(?=[,}])')
WORD_RE = re.compile(rb"\S+")
NUMBER_SUBSTITUTES = [b"NaN", b"1e400", b"1e308", b"1.5", b"true", b"null", b"[]"]
LINE_MUTATIONS = ["delete", "duplicate", "swap", "truncate", "blank", "number"]
# a lone continuation byte, a truncated two-byte sequence, an invalid lead byte
NOT_UTF8 = [b"\x80", b"\xc3", b"\xff"]


def mutate_lines(rng: random.Random, data: bytes, values: re.Pattern = NUMBER_RE) -> bytes:
    """One line-level mutation of a line-delimited file; values are the
    spans a "number" mutation may replace."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    kind = rng.choice(LINE_MUTATIONS)
    i = rng.randrange(len(lines))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(max(len(lines[i]), 1))]
    elif kind == "blank":
        lines[i] = b""
    else:
        numbered = [k for k, line in enumerate(lines) if values.search(line)]
        i = rng.choice(numbered)
        matches = list(values.finditer(lines[i]))
        match = rng.choice(matches)
        line = lines[i]
        lines[i] = line[: match.start()] + rng.choice(NUMBER_SUBSTITUTES) + line[match.end() :]
    return b"\n".join(lines) + b"\n"


def mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """One to three byte-level changes: a flipped bit or a non-UTF-8 byte."""
    out = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(out))
        if rng.random() < 0.5:
            out[i] ^= 1 << rng.randrange(8)
        else:
            out[i : i + 1] = rng.choice(NOT_UTF8)
    return bytes(out)


def mutants(seed: int, data: bytes, count: int, values: re.Pattern = NUMBER_RE) -> list[bytes]:
    """count mutants of data, alternately line level and byte level."""
    rng = random.Random(seed)
    return [
        mutate_lines(rng, data, values) if i % 2 == 0 else mutate_bytes(rng, data)
        for i in range(count)
    ]


def run_cli(capsys, argv: list[str], allowed: set[int]) -> tuple[int, str]:
    """main(argv) must return an allowed code; a failure is one error: line."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code in allowed, (argv, code, captured.err)
    if code != 0:
        lines = captured.err.splitlines()
        assert captured.out == "", argv
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return code, captured.out


# titles holding characters that str.splitlines, but not JSON, takes for line ends
TITLED = [
    {"id": f"titled{i}", "title": f"line{separator}separator", "text": "garlic zest under the oven."}
    for i, separator in enumerate(["\u2028", "\u2029", "\u0085"])
]


@pytest.fixture(scope="module")
def corpus100_index(tmp_path_factory) -> bytes:
    work = tmp_path_factory.mktemp("fuzz")
    corpus, path = work / "corpus.jsonl", work / "corpus100.mcrx"
    titled = "".join(json.dumps(doc) + "\n" for doc in TITLED)
    corpus.write_text((DATA / "corpus100.jsonl").read_text("utf-8") + titled, "utf-8")
    assert main(["build", "--corpus", str(corpus), "--index", str(path)]) == 0
    return path.read_bytes()


def test_fuzzed_index_files(tmp_path, capsys, corpus100_index):
    index = tmp_path / "mutant.mcrx"
    query = tmp_path / "query.txt"
    query.write_text("Under into garlic flour? Zest under the zest oven 2015.", "utf-8")
    loaded = 0
    for mutant in mutants(20261018, corpus100_index, 200):
        index.write_bytes(mutant)
        code, _ = run_cli(capsys, ["stats", "--index", str(index)], {0, 1})
        if code == 0:
            loaded += 1
            check_kb(load_index(str(index)))
        code, out = run_cli(
            capsys,
            ["query", "--index", str(index), "--doc", str(query), "--tsv", "--top", "20"],
            {0, 1, 4},
        )
        for row in out.splitlines():
            assert all(math.isfinite(float(field)) for field in row.split("\t")[3:]), row
        run_cli(
            capsys,
            ["trace", "--index", str(index), "--source", "doc001", "--dest", "doc002",
             "--level", "word"],
            {0, 1, 4, 5},
        )
    # swaps and flips inside labels still load; the rest is refused
    assert 0 < loaded < 400


def test_fuzzed_attention_files(tmp_path, capsys, corpus100_index):
    index = tmp_path / "index.mcrx"
    index.write_bytes(corpus100_index)
    query = tmp_path / "query.txt"
    query.write_text("Under into garlic flour? Zest under the zest oven 2015.", "utf-8")
    rules = tmp_path / "rules.json"
    valid = b'{\n"zest":2.5,\n"garlic":0,\n"doc002":0.5,\n"under":1\n}\n'
    applied = 0
    for mutant in mutants(20261020, valid, 200):
        rules.write_bytes(mutant)
        code, out = run_cli(
            capsys,
            ["query", "--index", str(index), "--doc", str(query), "--tsv", "--attention",
             str(rules)],
            {0, 1, 4},
        )
        applied += code == 0
        for row in out.splitlines():
            assert all(math.isfinite(float(field)) for field in row.split("\t")[3:]), row
    assert 0 < applied < 200


def test_fuzzed_action_files(tmp_path, capsys):
    kb_path = tmp_path / "actions.jsonl"
    demo = tmp_path / "demo.txt"
    demo.write_text("0,0\n0,1\n-1,1\n-1,2\n", "utf-8")
    assert main(["scl-demo", "--kb", str(kb_path), "--learn", str(demo),
                 "--start", "0,0", "--target", "2,1"]) == 0
    assert main(["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "-2,3"]) == 0
    capsys.readouterr()
    learned = kb_path.read_bytes()
    assert learned.count(b'"t":"comp"') >= 2
    loaded = 0
    for mutant in mutants(20261019, learned, 400):
        kb_path.write_bytes(mutant)
        argv = ["scl-demo", "--kb", str(kb_path), "--start", "0,0", "--target", "2,1",
                "--max-iter", "300"]
        code, out = run_cli(capsys, argv, {0, 1})
        if code == 0:
            loaded += 1
            assert out.startswith("sequence\t")
        else:
            assert kb_path.read_bytes() == mutant  # a refused file is never rewritten
    assert 0 < loaded < 400


def built_index_loads(capsys, corpus: Path, index: Path) -> bool:
    """mcrx build exits 0, 1, 2 or 3; a built index loads and validates."""
    code, _ = run_cli(capsys, ["build", "--corpus", str(corpus), "--index", str(index)], {0, 1, 2, 3})
    if code == 0:
        check_kb(load_index(str(index)))
        index.unlink()
    return code == 0


def test_fuzzed_jsonl_corpus_files(tmp_path, capsys):
    records = (DATA / "corpus100.jsonl").read_text("utf-8").splitlines()[:24]
    valid = ("\n".join(records) + "\n" + "".join(json.dumps(doc) + "\n" for doc in TITLED)).encode()
    assert len(STRING_RE.findall(valid)) > 2 * len(records)
    corpus = tmp_path / "corpus.jsonl"
    built = 0
    for mutant in mutants(20261021, valid, 200, STRING_RE):
        corpus.write_bytes(mutant)
        built += built_index_loads(capsys, corpus, tmp_path / "index.mcrx")
    assert 0 < built < 200


def test_fuzzed_txt_corpus_files(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    records = (DATA / "corpus100.jsonl").read_text("utf-8").splitlines()[:12]
    texts = [json.loads(record)["text"].encode() for record in records]
    rng = random.Random(20261022)
    built = 0
    for i in range(200):
        for n, text in enumerate(texts):
            (corpus / f"doc{n:02}.txt").write_bytes(text)
        # one file changed, alternately line level and byte level
        n = rng.randrange(len(texts))
        mutant = mutate_lines(rng, texts[n], WORD_RE) if i % 2 == 0 else mutate_bytes(rng, texts[n])
        (corpus / f"doc{n:02}.txt").write_bytes(mutant)
        built += built_index_loads(capsys, corpus, tmp_path / "index.mcrx")
    assert 0 < built < 200


# a JSON string in value position, compact or not, or first in an array
JSON_STRING_RE = re.compile(rb'(?:(?<=:)|(?<=: )|(?<=\[))"(?:[^"\\]|\\.)*"')
# three lone surrogates, then a valid pair
SURROGATE_ESCAPES = [b"\\ud800", b"\\udc80", b"\\uDBFF", b"\\ud83d\\ude00"]


def insert_surrogate(rng: random.Random, data: bytes) -> tuple[bytes, bytes, int]:
    """data with a surrogate escape at the start or end of one JSON string,
    where it cannot split another escape; the escape; and its line number."""
    match = rng.choice(list(JSON_STRING_RE.finditer(data)))
    at = rng.choice([match.start() + 1, match.end() - 1])
    escape = rng.choice(SURROGATE_ESCAPES)
    return data[:at] + escape + data[at:], escape, data.count(b"\n", 0, at) + 1


def test_surrogate_escapes_in_index_action_and_corpus_files(tmp_path, capsys, corpus100_index):
    path = tmp_path / "mutant"
    index = tmp_path / "index.mcrx"
    assert main(["scl-demo", "--kb", str(path), "--start", "0,0", "--target", "2,1"]) == 0
    actions = path.read_bytes()
    records = (DATA / "corpus100.jsonl").read_text("utf-8").splitlines()[:24]
    corpus = ("\n".join(records) + "\n" + "".join(json.dumps(doc) + "\n" for doc in TITLED)).encode()
    cases = [
        (corpus100_index, ["stats", "--index", str(path)], 1),
        (actions, ["scl-demo", "--kb", str(path), "--start", "0,0", "--target", "2,1"], 1),
        (corpus, ["build", "--corpus", str(path), "--index", str(index)], 2),
    ]
    rng = random.Random(20261023)
    accepted = 0
    for valid, argv, refused in cases:
        for _ in range(40):
            mutant, escape, line = insert_surrogate(rng, valid)
            path.write_bytes(mutant)
            capsys.readouterr()
            code = main(argv)
            captured = capsys.readouterr()
            if escape == SURROGATE_ESCAPES[-1]:  # the valid pair
                assert code in {0, refused}, (argv, mutant, captured.err)
                accepted += code == 0
                if index.exists():
                    check_kb(load_index(str(index)))
                    index.unlink()
                continue
            assert code == refused and captured.out == "", (argv, mutant, captured.err)
            (error,) = captured.err.splitlines()
            assert error.startswith("error: ")
            assert f"line {line}: invalid record (lone surrogate \\u" in error.lower(), error
            assert path.read_bytes() == mutant and not index.exists()
    assert accepted > 0
