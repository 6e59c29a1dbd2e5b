"""Seeded end-to-end benchmark of mcrx, with a traced per-layer mode.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is used from `src/` through
`python -m mcrx.cli` and its public functions. Every workload is one
closed-loop client: the next operation starts only after the previous
one returned. Each workload cycles through a fixed seeded list of
operations for S seconds, in two halves of at least one pass each.
Report lines come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1). See bench/NOTES.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import benchgen
import benchtrace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CHILD_TIMEOUT_S = 150  # a child still running after this is killed and counts as failed
MIN_PASSES = 2  # one pass in each half of the run; later passes must match the first
LOOP_CAP_S = 90  # stop cycling even if MIN_PASSES are incomplete
STARTUP_SAMPLES = 3  # children that only import mcrx.cli, before, between and after the halves


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    out: str
    err: str


def spawn(argv: list[str], work: Path) -> Child:
    """Run one child; time it from spawn to exit and take its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds,
        usage.ru_maxrss / 1024,
        proc.returncode,
        out_path.read_text("utf-8", errors="replace"),
        err_path.read_text("utf-8", errors="replace"),
    )


def mcrx_argv(args: list[str], spans: Path | None) -> list[str]:
    """Plain `python -m mcrx.cli`, or the traced launcher writing spans."""
    if spans is None:
        return [sys.executable, "-m", "mcrx.cli", *args]
    return [sys.executable, str(BENCH / "launcher.py"), str(spans), "--", *args]


def measure_startup(run: Run, work: Path) -> None:
    """Set-up of a CLI workload: interpreter start plus `import mcrx.cli`."""
    argv = [sys.executable, "-c", "import mcrx.cli"]
    run.setup_s += [spawn(argv, work).seconds for _ in range(STARTUP_SAMPLES)]
    run.extra_layer["cli.startup_s"] = statistics.median(run.setup_s)


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now.

    Printed at the start and the end of every run, so that a reader can
    tell a slow stretch of the host from a slow program (see NOTES.md).
    """
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(perf_counter() - start)
    return 1000 * statistics.median(times)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with >= 10 samples above it.

    None unless that percentile lies above the median (more than 20 samples).
    """
    n = len(values)
    if n <= 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def latency_line(label: str, values: list[float]) -> str:
    line = f"{label}: n={len(values)} p50_ms={1000 * statistics.median(values):.3f}"
    found = tail(values)
    if found:
        return line + f" tail_ms(p{found[0]:.1f})={1000 * found[1]:.3f}"
    return line + " tail_ms=none(n<=20)"


@dataclass
class Run:
    """What one workload run measured and checked."""

    trace: bool = False
    setup_s: list[float] = field(default_factory=list)
    samples: list[tuple[bool, float]] = field(default_factory=list)  # (traced, seconds) per operation
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    result_lines: list[str] = field(default_factory=list)  # first pass only
    layer_ops: list[dict[str, float]] = field(default_factory=list)
    extra_layer: dict[str, float] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        """Record one run-level correctness check as an attempted operation."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


def traced_op(trace: bool, i: int, n: int) -> bool:
    """Every other operation is traced, alternating by pass as well, so
    that each position of the list runs both traced and untraced."""
    return trace and (i // n + i % n) % 2 == 0


def cycle(run: Run, ops: list, seconds: float, do_op, between, whole_passes: bool = False) -> None:
    """Closed loop over ops for `seconds`, and for at least MIN_PASSES passes.

    do_op(index, op, first_pass, traced) returns (seconds, failure or None).
    The loop runs in two halves; between(stage) runs before, between and
    after them (stage 0, 1, 2), so that set-up samples and operations
    alike spread over the whole run and the host's drifting speed (see
    NOTES.md). Half h ends once the loop time of both halves together
    reaches (h + 1) * seconds / 2, so that the overshoot of a long
    operation in the first half shortens the second. With whole_passes
    a half ends only at the end of a pass.
    """
    n = len(ops)
    i = 0
    looped = 0.0  # time spent in the halves that have ended
    for half, passes in enumerate((MIN_PASSES // 2, MIN_PASSES - MIN_PASSES // 2)):
        between(half)
        started = perf_counter()
        stop = i + passes * n
        while True:
            traced = traced_op(run.trace, i, n)
            seconds_op, failure = do_op(i, ops[i % n], i < n, traced)
            run.samples.append((traced, seconds_op))
            run.attempted += 1
            if failure:
                run.failures.append(f"op {i}: {failure}")
            i += 1
            elapsed = perf_counter() - started
            due = looped + elapsed >= (half + 1) * seconds / 2
            done = due and i >= stop and (i % n == 0 or not whole_passes)
            if done or elapsed >= LOOP_CAP_S / 2:
                break
        looped += elapsed
    between(2)


def op_times(run: Run, traced: bool) -> list[float]:
    return [seconds for was_traced, seconds in run.samples if was_traced == traced]


def traced_child_ops(run: Run, spans_path: Path, extra: dict[str, float]) -> None:
    with open(spans_path, encoding="utf-8") as handle:
        spans = json.load(handle)
    for values in benchtrace.op_values(spans).values():
        values.update(extra)
        run.layer_ops.append(values)


def workload_build(run: Run, seed: int, seconds: float, sizes: dict, work: Path) -> None:
    corpus = benchgen.make_corpus(seed, sizes["docs"])
    run.report.append(f"input {benchgen.describe_corpus(corpus)}")
    corpus_path, index_path = work / "corpus.jsonl", work / "index.mcrx"
    benchgen.write_jsonl(corpus.docs, str(corpus_path))
    expected_line = f"{len(corpus.docs)} documents, {len(corpus.df)} words, {corpus.tokens} tokens\n"
    builds: list[bytes] = []

    def build(i, _op, first, traced):
        spans = work / f"spans-{i}.json" if traced else None
        args = ["build", "--corpus", str(corpus_path), "--index", str(index_path)]
        child = spawn(mcrx_argv(args, spans), work)
        run.rss_mb.append(child.rss_mb)
        if child.code != 0:
            return child.seconds, f"exit {child.code}: {child.err.strip()[-200:]}"
        if spans:
            traced_child_ops(run, spans, {})
        data = index_path.read_bytes()
        builds.append(data)
        if first:
            run.result_lines += [child.out, hashlib.sha256(data).hexdigest()]
        if child.out != expected_line:
            return child.seconds, f"printed {child.out!r}, generator counts {expected_line!r}"
        if data != builds[0]:
            return child.seconds, "rebuild of the same corpus is not byte-identical"
        return child.seconds, None

    def between(stage):
        measure_startup(run, work)
        if stage != 1 or not builds:
            return
        run.check(builds[0] == benchgen.index_bytes(corpus), "index differs from the generator's MCRX-1 bytes")
        from mcrx.kb import load_index, save_index

        resaved = work / "resaved.mcrx"
        save_index(load_index(str(index_path)), str(resaved))
        run.check(resaved.read_bytes() == builds[0], "reload-and-resave is not byte-identical")

    cycle(run, [None], seconds, build, between)
    builds_s = [seconds for _, seconds in run.samples]
    run.report.append(f"build_tokens_per_s {corpus.tokens * len(builds_s) / sum(builds_s):.1f}")


def postings(corpus: benchgen.Corpus, text: str) -> int:
    """Sum of df over the query's distinct indexed words."""
    words = {word.strip(".") for word in text.split()}
    return sum(corpus.df.get(word, 0) for word in words)


LOAD_ONLY = "import sys, time, mcrx.kb; t = time.perf_counter(); mcrx.kb.load_index(sys.argv[1]); print(time.perf_counter() - t)"


def timed_load(run: Run, index_path: Path, work: Path) -> None:
    """One set-up sample of a rank workload: load_index in a fresh process."""
    child = spawn([sys.executable, "-c", LOAD_ONLY, str(index_path)], work)
    run.rss_mb.append(child.rss_mb)
    if run.check(child.code == 0, f"load exit {child.code}: {child.err.strip()[-300:]}"):
        run.setup_s.append(float(child.out))


def workload_rank(run: Run, seed: int, seconds: float, sizes: dict, work: Path) -> None:
    corpus = benchgen.make_corpus(seed, sizes["docs"])
    long_list = [
        {"text": q.text, "own": q.own, "class": "long"}
        for q in benchgen.long_queries(seed, corpus, sizes["long"])
    ]
    short_list = [
        {"text": text, "own": None, "class": "short"}
        for text in benchgen.short_queries(seed, corpus, sizes["short"])
    ]
    queries = interleave(long_list, short_list)
    run.report.append(f"input {benchgen.describe_corpus(corpus)}")
    for kind, listed in (("long", long_list), ("short", short_list)):
        run.report.append(
            f"input {benchgen.describe_queries(kind, [q['text'] for q in listed])} "
            f"own_text={sum(q['own'] is not None for q in listed)}"
        )
    index_path, job_path, out_path = work / "index.mcrx", work / "job.json", work / "out.json"
    index_path.write_bytes(benchgen.index_bytes(corpus))
    job = {
        "index": str(index_path),
        "queries": queries,
        "seconds": seconds,
        "min_passes": MIN_PASSES,
        "cap_seconds": LOOP_CAP_S,
        "trace": run.trace,
        "out": str(out_path),
    }
    job_path.write_text(json.dumps(job), "utf-8")
    # set-up samples before, in and after the worker, spread over the run (see NOTES.md)
    timed_load(run, index_path, work)
    child = spawn([sys.executable, str(BENCH / "worker.py"), str(job_path)], work)
    run.rss_mb.append(child.rss_mb)
    timed_load(run, index_path, work)
    if not run.check(child.code == 0, f"worker exit {child.code}: {child.err.strip()[-300:]}"):
        return
    result = json.loads(out_path.read_text("utf-8"))
    run.setup_s.append(result["load_s"])
    run.result_lines = result["first_pass"]
    run.failures += result["failures"]
    run.attempted += len(result["ops"])
    per_op = benchtrace.op_values(result["spans"])
    for index, op in enumerate(result["ops"]):
        run.samples.append((op["traced"], op["seconds"]))
        if op["traced"]:
            values = per_op.get(index, {})
            values["activation.postings_touched"] = postings(corpus, queries[op["query"]]["text"])
            run.layer_ops.append(values)
    run.layer_ops.append(per_op.get("load", {}))
    owned = [op for op in result["ops"][: len(queries)] if "own_in_results" in op]
    cut = {op["query"]: op["own_in_cut"] for op in result["ops"] if "own_in_cut" in op}
    if cut:
        run.extra_layer["similarity.own_text_cut_share"] = sum(cut.values()) / len(cut)
    if owned:
        found = sum(op["own_in_results"] for op in owned)
        run.report.append(f"own-text queries whose document is in the top 10: {found} of {len(owned)}")
    for kind in ("long", "short"):
        times = [
            op["seconds"]
            for op in result["ops"]
            if not op["traced"] and queries[op["query"]]["class"] == kind
        ]
        if times:
            run.report.append(latency_line(f"untraced {kind}", times))


def interleave(*lists: list) -> list:
    """The lists merged so that each one's items spread evenly over the result."""
    keyed = [
        ((j + 0.5) / len(items), k, item)
        for k, items in enumerate(lists)
        for j, item in enumerate(items)
    ]
    return [item for _, _, item in sorted(keyed, key=lambda entry: entry[:2])]


def workload_scl(run: Run, seed: int, seconds: float, sizes: dict, work: Path) -> None:
    session = benchgen.scl_session(seed, sizes["calls"])
    run.report.append(f"input {benchgen.describe_session(session)}")
    actions = work / "actions.jsonl"
    demos = []
    for i, call in enumerate(session):
        path = None
        if call.demo:
            path = work / f"demo-{i}.txt"
            path.write_text(benchgen.demo_text(call.demo), "utf-8")
        demos.append(path)
    first_outputs: list[str] = []
    first_actions: list[bytes] = []

    def scl_call(i, call, first, traced):
        position = i % len(session)
        if position == 0 and actions.exists():
            actions.unlink()
        spans = work / f"spans-{i}.json" if traced else None
        # --start=X,Y: argparse takes "--start -5,3" for a flag (see NOTES.md)
        args = ["scl-demo", "--kb", str(actions)]
        if demos[position]:
            args += ["--learn", str(demos[position])]
        args += [f"--start={call.start[0]},{call.start[1]}", f"--target={call.target[0]},{call.target[1]}"]
        child = spawn(mcrx_argv(args, spans), work)
        run.rss_mb.append(child.rss_mb)
        if first:
            run.result_lines.append(child.out)
            first_outputs.append(child.out)
        if child.code != 0:
            return child.seconds, f"exit {child.code}: {child.err.strip()[-200:]}"
        if spans:
            traced_child_ops(run, spans, {})
        if "exit\tthreshold\n" not in child.out:
            return child.seconds, "scl-demo did not exit on the threshold"
        if child.out != first_outputs[position]:
            return child.seconds, "output differs between passes"
        if position == len(session) - 1:
            first_actions.append(actions.read_bytes())
            if first_actions[-1] != first_actions[0]:
                return child.seconds, "action file differs between passes"
        return child.seconds, None

    cycle(run, session, seconds, scl_call, lambda stage: measure_startup(run, work), whole_passes=True)
    if len(first_outputs) == len(session) and actions.exists():
        effects = replay_effects(first_actions[0] if first_actions else actions.read_bytes())
        for call, out in zip(session, first_outputs):
            run.check(reaches(effects, call, out), f"sequence does not lead {call.start} -> {call.target}")


def replay_effects(action_file: bytes) -> dict[str, tuple[int, int]]:
    """Net effect of every action in an action file, from its own records."""
    effects: dict[str, tuple[int, int]] = {}
    for line in action_file.decode("utf-8").splitlines():
        record = json.loads(line)
        if record["t"] == "prim":
            effects[record["label"]] = (record["dx"], record["dy"])
        else:
            parts = [effects[child] for child in record["children"]]
            effects[record["id"]] = (sum(p[0] for p in parts), sum(p[1] for p in parts))
    return effects


def reaches(effects: dict[str, tuple[int, int]], call: benchgen.SclCall, out: str) -> bool:
    sequence = next((line for line in out.splitlines() if line.startswith("sequence\t")), None)
    if sequence is None:
        return False
    x, y = call.start
    for action in sequence.split("\t")[1].split():
        if action not in effects:
            return False
        x, y = x + effects[action][0], y + effects[action][1]
    return (x, y) == call.target


WORKLOADS = {
    "build": workload_build,
    "warm-rank": workload_rank,
    "scl-session": workload_scl,
}


def end_to_end(run: Run) -> dict[str, float]:
    times = op_times(run, traced=False)
    return {
        "setup_s": statistics.median(run.setup_s),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": max(run.rss_mb),
    }


def per_layer(run: Run, names: list[str]) -> dict[str, float]:
    values = benchtrace.medians(run.layer_ops, names)
    values.update(run.extra_layer)
    traced, plain = op_times(run, True), op_times(run, False)
    if traced and plain:
        values["trace.overhead_ms"] = 1000 * (statistics.median(traced) - statistics.median(plain))
    return values


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None
) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the report lines."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    run = Run(trace=trace)
    probe_start = host_probe_ms()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        WORKLOADS[name](run, seed, seconds, sizes or benchgen.SIZES[name], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = [f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}", *run.report]
    report.append(f"host_probe_ms start={probe_start:.3f} end={host_probe_ms():.3f}")
    digest = hashlib.sha256("\n".join(run.result_lines).encode("utf-8")).hexdigest()
    report.append(f"digest {name} {digest}")
    for traced in (False, True) if trace else (False,):
        if op_times(run, traced):
            report.append(latency_line("traced" if traced else "untraced", op_times(run, traced)))
    if run.rss_mb:
        report.append(f"peak_rss_mb per child: min={min(run.rss_mb):.1f} max={max(run.rss_mb):.1f}")
    report += [f"failed: {message}" for message in run.failures[:20]]
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if trace and run.layer_ops:
        metrics = per_layer(run, names)
    elif not trace and op_times(run, False) and run.setup_s:
        metrics = end_to_end(run)
    else:
        metrics = {}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not run.failures and bool(metrics),
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names if n in metrics},
    }
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description="mcrx benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mcrx" / "cli.py").is_file():
        print(f"error: no mcrx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
