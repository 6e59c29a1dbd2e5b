"""Tests of the benchmark itself: seeded inputs, trace hooks, metric coverage.

Workloads run here at tiny sizes for a fraction of a second, so these
check plumbing and correctness checks, not speed.
"""

from __future__ import annotations

import json
import sys

import pytest

import benchgen
import benchtrace
import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

TINY = {
    "build": {"docs": 40},
    "warm-rank": {"docs": 40, "long": 4, "short": 4},
    "scl-session": {"calls": 4},
}

QUERY_LAYERS = [
    "kb.load_s",
    "kb.index_bytes",
    "kb.nodes.article",
    "activation.emit_s",
    "activation.collect_s",
    "activation.postings_touched",
    "activation.articles_activated",
    "similarity.self_s",
    "similarity.select_s",
    "similarity.score_s",
    "similarity.candidates_scored",
    "layer_self.similarity_s",
]
# per-layer figures that must be positive where their layer runs
RUNNING = {
    "build": [
        "ingest.read_s",
        "ingest.segment_s",
        "ingest.insert_s",
        "ingest.weights_s",
        "ingest.tokens",
        "ingest.insert_growth",
        "kb.save_s",
        "kb.index_bytes",
        "kb.nodes.word",
        "kb.nodes.sentence",
        "kb.nodes.paragraph",
        "kb.nodes.article",
        "cli.startup_s",
        "cli.self_s",
        "layer_self.ingest_s",
        "layer_self.kb_s",
    ],
    "warm-rank": QUERY_LAYERS + ["similarity.own_text_cut_share"],
    "scl-session": [
        "seqdemo.load_actions_s",
        "seqdemo.solve_s",
        "seqdemo.save_actions_s",
        "seqdemo.actions",
        "scl.run_s",
        "scl.iterations",
        "cli.startup_s",
        "cli.self_s",
        "layer_self.seqdemo_s",
    ],
}


@pytest.fixture(autouse=True)
def program_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))


def generated(seed: int) -> bytes:
    corpus = benchgen.make_corpus(seed, 30)
    parts = [
        benchgen.index_bytes(corpus),
        "\n".join(doc.text for doc in corpus.docs).encode(),
        "\n".join(benchgen.short_queries(seed, corpus, 5)).encode(),
        "\n".join(f"{q.own}:{q.text}" for q in benchgen.long_queries(seed, corpus, 4)).encode(),
        repr(benchgen.scl_session(seed, 6)).encode(),
    ]
    return b"\0".join(parts)


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert generated(7) == generated(7)
    assert generated(7) != generated(8)


def test_generated_index_is_what_mcrx_build_writes(tmp_path):
    from mcrx import RawDocument, build_corpus, save_index

    corpus = benchgen.make_corpus(3, 25)
    kb, skipped = build_corpus([RawDocument(doc.id, doc.text) for doc in corpus.docs])
    assert not skipped
    save_index(kb, str(tmp_path / "index.mcrx"))
    assert (tmp_path / "index.mcrx").read_bytes() == benchgen.index_bytes(corpus)


def test_trace_hooks_restore_the_originals():
    before = benchtrace.originals()
    tracer = benchtrace.Tracer()
    with pytest.raises(RuntimeError):
        with benchtrace.traced(tracer):
            during = benchtrace.originals()
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("leave the block early")
    assert all(a is b for a, b in zip(before, benchtrace.originals()))


def test_spans_nest_and_give_self_time():
    import mcrx

    tracer = benchtrace.Tracer()
    kb, _ = mcrx.build_corpus([mcrx.RawDocument("a", "x y z."), mcrx.RawDocument("b", "y z w.")])
    tracer.op = 0
    with benchtrace.traced(tracer):
        mcrx.similarity.rank(kb, "x y", k=2, n=1)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "similarity.rank" and tracer.spans[0][3] == -1
    assert names.count("similarity.score") == 2
    values = benchtrace.op_values(tracer.spans)[0]
    assert values["similarity.candidates_scored"] == 2
    assert 0 < values["activation.collect_s"] < tracer.spans[0][2] - tracer.spans[0][1]


def test_tail_needs_ten_samples_above():
    assert run.tail([1.0] * 20) is None
    percentile, value = run.tail([float(i) for i in range(1, 101)])
    assert (percentile, value) == (90.0, 90.0)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_reported_where_its_layer_runs(workload):
    plain, report = run.run_workload(workload, 5, 0.05, False, TINY[workload])
    assert plain["correct"], report
    assert plain["failed"] == 0 and plain["attempted"] >= 1
    assert list(plain["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced, traced_report = run.run_workload(workload, 5, 0.05, True, TINY[workload])
    assert traced["correct"], traced_report
    assert list(traced["metrics"]) == PER_LAYER
    zero = [name for name in RUNNING[workload] if not traced["metrics"][name]["value"] > 0]
    assert not zero
    digests = [line for line in report + traced_report if line.startswith("digest ")]
    assert digests[0] == digests[1]


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
