"""Warm-rank worker: load an index, then rank a fixed query list in a closed loop.

    PYTHONPATH=src python3 bench/worker.py JOB.json

JOB.json holds the index path, the queries (each with the label of the
document whose own text it is, if any), the seconds to measure, the
minimum number of passes over the queries, whether to trace, and where
to write the results. The worker loads the index once, timed, and runs
in its own process so that its peak RSS is that of one loaded index and
its queries. With tracing on, every other operation runs traced, so the
untraced ones give the overhead.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from benchtrace import Tracer, traced


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    import mcrx.kb
    import mcrx.similarity

    tracer = Tracer()
    queries = job["queries"]
    n = len(queries)
    first_pass: list[str] = []
    ops: list[dict] = []
    failures: list[str] = []

    def timed(op, trace, fn):
        """(seconds, result) of fn(); hooks go in and out outside the timing."""
        tracer.op = op
        if trace:
            with traced(tracer):
                start = perf_counter()
                result = fn()
                return perf_counter() - start, result
        start = perf_counter()
        result = fn()
        return perf_counter() - start, result

    load_s, kb = timed("load", job["trace"], lambda: mcrx.kb.load_index(job["index"]))
    started = perf_counter()
    while True:
        i = len(ops)
        query = queries[i % n]
        # alternate by position and by pass, as run.traced_op does
        trace = job["trace"] and (i // n + i % n) % 2 == 0
        seconds_op, results = timed(
            i, trace, lambda: mcrx.similarity.rank(kb, query["text"], k=100, n=10)
        )
        elapsed = perf_counter() - started
        lines = mcrx.similarity.results_to_tsv(results)
        if i < n:
            first_pass.append(lines)
        elif lines != first_pass[i % n]:
            failures.append(f"query {i % n}: results differ between passes")
        op = {"seconds": seconds_op, "traced": trace, "query": i % n}
        own = query["own"]
        if own is not None:
            scores = {result.label: result.percent for result in results}
            if own in scores and scores[own] != 100.0:
                failures.append(f"query {i % n}: own text scores {scores[own]!r}")
            op["own_in_results"] = own in scores
            if trace:
                cut = next(s for s in reversed(tracer.spans) if s[0] == "similarity.select")
                op["own_in_cut"] = kb.article_id(own) in cut[5]["ids"]
        ops.append(op)
        done = elapsed >= job["seconds"] and len(ops) >= job["min_passes"] * n
        if done or elapsed >= job["cap_seconds"]:
            break

    with open(job["out"], "w", encoding="utf-8") as handle:
        json.dump(
            {
                "load_s": load_s,
                "ops": ops,
                "first_pass": first_pass,
                "failures": failures,
                "spans": tracer.spans,
            },
            handle,
        )


if __name__ == "__main__":
    main()
