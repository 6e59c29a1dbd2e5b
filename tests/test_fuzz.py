"""Seeded fuzz: mutated index, attention and action files through the CLI.

A valid file is changed once, either line by line (delete, duplicate,
swap, truncate, blank, or one JSON number replaced by NaN, 1e400, 1e308,
1.5, true, null or []) or byte by byte (bit flips, and bytes that are not
UTF-8). Every mutant runs through cli.main. The command must return one
of its documented exit codes without raising; a failure prints nothing
on stdout and a single error: line on stderr, and a success prints no
NaN or infinite score. The mutations are drawn from fixed seeds, so a
failure reproduces exactly.
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

DATA = Path(__file__).parent / "data"

# a JSON number in value position: after ':' ',' or '[', before ',' ']' or '}'
NUMBER_RE = re.compile(rb"(?<=[:,\[])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?=[,\]}])")
NUMBER_SUBSTITUTES = [b"NaN", b"1e400", b"1e308", b"1.5", b"true", b"null", b"[]"]
LINE_MUTATIONS = ["delete", "duplicate", "swap", "truncate", "blank", "number"]
# a lone continuation byte, a truncated two-byte sequence, an invalid lead byte
NOT_UTF8 = [b"\x80", b"\xc3", b"\xff"]


def mutate_lines(rng: random.Random, data: bytes) -> bytes:
    """One line-level mutation of a line-delimited file."""
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
        lines[i] = lines[i][: rng.randrange(len(lines[i]))]
    elif kind == "blank":
        lines[i] = b""
    else:
        numbered = [k for k, line in enumerate(lines) if NUMBER_RE.search(line)]
        i = rng.choice(numbered)
        matches = list(NUMBER_RE.finditer(lines[i]))
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


def mutants(seed: int, data: bytes, count: int) -> list[bytes]:
    """count mutants of data, alternately line level and byte level."""
    rng = random.Random(seed)
    return [(mutate_lines, mutate_bytes)[i % 2](rng, data) for i in range(count)]


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
            load_index(str(index)).validate()
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
