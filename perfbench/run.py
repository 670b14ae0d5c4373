"""The repository benchmark: seeded calculator sessions replayed end to end.

    python3 perfbench/run.py --workload session-mix --seed 1 --seconds 20 --trace 0

Run from the repository root.  The library is imported from `./src`.  The
last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the metrics
are the end-to-end ones, measured with tracing off.  With `--trace 1` they are
the per-layer ones, taken from traced replays of a fixed number of blocks and
set against untraced replays of the same lines.  Lines before the JSON
describe the workload, its verb mix and every failed line.  See README.md
for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import tracer  # noqa: E402
from check import ANSWER_VERBS, STATE_VERBS, Checker, State  # noqa: E402
from worker import PROGRESS  # noqa: E402

BUDGET_S = 1.0                 # per-line wall-time budget
MEM_LIMIT_BYTES = 1 << 30      # address-space limit of each replay process
WORKER_START_LIMIT_S = 60.0    # a replay process that runs no line by then is broken
SETUP_SAMPLES = 4  # before the replay, and as many again after it
POLL_S = 0.02
# Blocks generated for an untraced run, per second of --seconds: about 2.5
# times what the seed library gets through, so a faster library still has lines.
BLOCKS_PER_SECOND = {"session-mix": 7.0, "algebra-deep": 2.5, "surreal-genetic": 1.6}
# Blocks in one traced replay (a fixed amount of work, so layer totals compare).
TRACE_BLOCKS = {"session-mix": 4, "algebra-deep": 2, "surreal-genetic": 1}


@dataclass
class Replay:
    records: dict = field(default_factory=dict)   # index -> (end, latency, err, status, value)
    segments: list = field(default_factory=list)  # [(first line start, last line end)]
    body_wall_s: float = 0.0
    maxrss_kb: int = 0
    spans: list = field(default_factory=list)     # span file prefixes written

    @property
    def wall_s(self) -> float:
        return sum(last - first for first, last in self.segments)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_once(src: str, work: str) -> float:
    """Wall time of: fresh interpreter -> import numerosity -> Session ready."""
    code = ("import sys; import numerosity; from numerosity.cli import Session; "
            "Session(); sys.stdout.write('ready\\n'); sys.stdout.flush()")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            env=child_env(src), cwd=work)
    ready = proc.stdout.readline()
    t1 = time.perf_counter()
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or ready.strip() != b"ready":
        raise RuntimeError("the set-up probe did not start")
    return t1 - t0




def replay(work: str, src: str, name: str, n_lines: int, body_end: int,
           block_starts: list, state_lines: dict, deadline, trace: bool) -> Replay:
    """Run lines [0, n_lines) in replay processes, restarting after a stop."""
    out = Replay()
    results = os.path.join(work, f"{name}.results")
    progress = os.path.join(work, f"{name}.progress")
    open(results, "w").close()
    offset = start = 0
    while start < n_lines:
        with open(progress, "wb") as fh:
            fh.write(PROGRESS.pack(-1, 0.0))
        spans = os.path.join(work, f"{name}.spans{len(out.segments)}")
        job = {
            "src": src, "corpus": os.path.join(work, "corpus.txt"), "results": results,
            "progress": progress, "start": start, "body_end": body_end,
            "block_starts": block_starts, "deadline": deadline, "trace": trace,
            "spans": spans, "mem_limit_bytes": MEM_LIMIT_BYTES,
            "prelude": [state_lines[i] for i in sorted(state_lines) if i < start],
        }
        job_path = os.path.join(work, f"{name}.job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        stopped, rc, stderr = _watch(job_path, progress, work, src)
        with open(results, "rb") as fh:
            fh.seek(offset)
            chunk = fh.read()
        offset += len(chunk)
        seg, done = [], False
        for raw in chunk.decode("utf-8").splitlines():
            rec = json.loads(raw)
            if rec[0] == "body_end":
                out.maxrss_kb = max(out.maxrss_kb, rec[2])
                if trace:
                    out.spans.append(spans)
            elif rec[0] == "end":
                out.maxrss_kb = max(out.maxrss_kb, rec[1])
                done = True
            else:
                i, end, latency, err, status, value = rec
                out.records[i] = (end, latency, err, status, value)
                seg.append((end - latency, end))
        if seg:
            out.segments.append((seg[0][0], seg[-1][1]))
        if done:
            break
        with open(progress, "rb") as fh:
            idx, t_start = PROGRESS.unpack(fh.read(PROGRESS.size))
        if t_start == 0.0 or idx in out.records:
            raise RuntimeError(f"replay process exited with {rc} outside a line:\n{stderr}")
        now = time.monotonic()
        if stopped:
            out.records[idx] = (now, now - t_start, "budget", "error",
                                f"stopped at the {BUDGET_S:g} s budget")
        else:
            out.records[idx] = (now, now - t_start, "died", "error",
                                f"replay process exited with {rc}: {stderr[-200:]}")
        start = idx + 1
    body = [r for i, r in out.records.items() if i < body_end and r[2] not in ("budget", "died")]
    if body:
        out.body_wall_s = max(r[0] for r in body) - min(r[0] - r[1] for r in body)
    return out


def _watch(job_path: str, progress: str, work: str, src: str):
    """Run one replay process; stop it when a line passes the budget."""
    err_path = job_path + ".stderr"
    with open(err_path, "w") as err_fh:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                                cwd=work, env=child_env(src), stdout=subprocess.DEVNULL,
                                stderr=err_fh)
        spawned = time.monotonic()
        stopped = False
        fd = os.open(progress, os.O_RDONLY)
        try:
            while True:
                try:
                    rc = proc.wait(timeout=POLL_S)
                    break
                except subprocess.TimeoutExpired:
                    pass
                idx, t_start = PROGRESS.unpack(os.pread(fd, PROGRESS.size, 0))
                now = time.monotonic()
                late = t_start > 0.0 and now - t_start > BUDGET_S
                if late or (idx < 0 and now - spawned > WORKER_START_LIMIT_S):
                    stopped = late
                    proc.kill()
                    rc = proc.wait()
                    break
        finally:
            os.close(fd)
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        return stopped, rc, fh.read()[-2000:]


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def judge(lines: list, replays: list, checker: Checker):
    """Verdicts of every attempted line of every replay, in corpus order."""
    verdicts = []
    for rep in replays:
        state = State()
        for i in sorted(rep.records):
            line = lines[i]
            end, latency, err, status, value = rep.records[i]
            v = checker.verdict(line, state, err, status, value)
            if err is None:
                state.apply(line.text)
            verdicts.append((i, line, v, latency, err))
    return verdicts


def report_lines(workload: str, lines: list, verdicts: list, seconds_by_verb: dict) -> None:
    print(f"workload {workload}: {corpus.WHY[workload]}")
    counts: dict = {}
    for _, line, _, _, _ in verdicts:
        counts[line.verb] = counts.get(line.verb, 0) + 1
    total_t = sum(seconds_by_verb.values()) or 1.0
    for verb in sorted(counts, key=lambda v: -counts[v]):
        share = seconds_by_verb.get(verb, 0.0) / total_t
        print(f"  verb {verb:<14} lines {counts[verb]:>7}  time share {share:.4f}")
    if workload == "surreal-genetic":
        share = corpus.repeated_pair_share([lines[i] for i, *_ in verdicts])
        print(f"  exactly repeated :sur operand pairs: {share:.4f} of :sur lines")
    failed: dict = {}
    for _, line, v, _, err in verdicts:
        if v.failed:
            key = (line.text if len(line.text) < 90 else line.text[:80] + "...", v.why, v.defect)
            failed[key] = failed.get(key, 0) + 1
    for (text, why, defect), n in sorted(failed.items(), key=lambda kv: (kv[0][2], kv[0][0])):
        tag = f"known defect {defect}" if defect else "UNEXPECTED"
        print(f"  failed x{n}: [{why}] [{tag}] {text}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(corpus.BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "numerosity", "cli.py")):
        return fail(f"no library at {src}/numerosity; run from the repository root")
    sys.path.insert(0, src)
    from numerosity import field, labtree, parser

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "standard.txt"), "w", encoding="utf-8") as fh:
        fh.write(labtree.format_instance(labtree.standard_instance()))
    for name, text in corpus.SMALL_INSTANCES.items():
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    if args.trace:
        n_blocks = TRACE_BLOCKS[args.workload]
    else:
        n_blocks = max(2, round(BLOCKS_PER_SECOND[args.workload] * args.seconds))
    body, block_starts, tail = corpus.generate(args.workload, args.seed, n_blocks)
    lines = body + ([] if args.trace else tail)
    with open(os.path.join(work, "corpus.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(line.text for line in lines))
    state_lines = {i: line.text for i, line in enumerate(lines)
                   if line.text.startswith(STATE_VERBS)}
    checker = Checker(parser, field)

    if args.trace:
        return traced_run(args, work, src, lines, body, block_starts, state_lines, checker)

    # Set-up is sampled on both sides of the replay, after one start that warms
    # the bytecode cache: process start-up cost drifts on this kind of machine.
    t0 = time.monotonic()
    start_once(src, work)
    setup_samples = [start_once(src, work) for _ in range(SETUP_SAMPLES)]
    t1 = time.monotonic()
    deadline = time.monotonic() + args.seconds
    rep = replay(work, src, "replay", len(lines), len(body), block_starts, state_lines,
                 deadline, False)
    t2 = time.monotonic()
    setup_samples += [start_once(src, work) for _ in range(SETUP_SAMPLES)]
    setup_s = statistics.median(setup_samples)
    verdicts = judge(lines, [rep], checker)
    print(f"  phases: set-up samples {t1 - t0:.1f} s, replay {t2 - t1:.1f} s, "
          f"check {time.monotonic() - t2:.1f} s")
    by_verb: dict = {}
    for _, line, _, latency, _ in verdicts:
        by_verb[line.verb] = by_verb.get(line.verb, 0.0) + latency
    report_lines(args.workload, lines, verdicts, by_verb)

    latencies_ms = [r[1] * 1e3 for r in rep.records.values() if r[2] not in ("budget", "died")]
    attempted = len(verdicts)
    failed_all = sum(v.failed for _, _, v, _, _ in verdicts)
    unexpected = sum(v.failed and not v.defect for _, _, v, _, _ in verdicts)
    answered = [v for _, line, v, _, err in verdicts if line.verb in ANSWER_VERBS and err is None]
    metrics = {
        "lines_per_s": (len(latencies_ms) / rep.wall_s, "lines/s"),
        "line_p50_ms": (statistics.median(latencies_ms), "ms"),
        "line_p99_ms": (percentile(latencies_ms, 99), "ms"),
        "setup_s": (setup_s, "s"),
        "error_share": (failed_all / attempted, "ratio"),
        "unknown_share": (sum(v.unknown for v in answered) / max(1, len(answered)), "ratio"),
        "peak_rss_mb": (rep.maxrss_kb / 1024, "MB"),
    }
    print(f"  timed lines {len(latencies_ms)} in {rep.wall_s:.3f} s; "
          f"{n_blocks} blocks generated, {sum(1 for s in block_starts if s in rep.records)} started")
    emit(unexpected == 0, attempted, unexpected, metrics)
    return 0


def traced_run(args, work, src, lines, body, block_starts, state_lines, checker) -> int:
    """Alternate untraced and traced replays of the same blocks until time is up."""
    start_once(src, work)  # warms the bytecode cache
    t_end = time.monotonic() + args.seconds
    plain, traced = [], []
    while not traced or time.monotonic() < t_end:
        k = len(traced)
        for trace in (False, True) if k % 2 == 0 else (True, False):
            rep = replay(work, src, f"{'traced' if trace else 'plain'}{k}", len(lines),
                         len(body), block_starts, state_lines, None, trace)
            (traced if trace else plain).append(rep)
    first = judge(lines, plain[:1], checker)
    by_verb: dict = {}
    for _, line, _, latency, _ in first:
        by_verb[line.verb] = by_verb.get(line.verb, 0.0) + latency
    report_lines(args.workload, lines, first, by_verb)
    verdicts = judge(lines, plain + traced, checker)

    per_replay = []
    for rep in traced:
        merged: dict = {}
        for prefix in rep.spans:
            buf, meta = tracer.load(prefix)
            for key, value in tracer.analyse(buf, meta).items():
                merged[key] = merged.get(key, 0.0) + value
        merged["trace.unattributed_s"] = rep.body_wall_s - merged.get("trace.root_s", 0.0)
        per_replay.append(merged)
    keys = [k for k in per_replay[0] if not k.startswith("trace.")]
    metrics = {k: (statistics.median(r.get(k, 0.0) for r in per_replay), unit_of(k)) for k in keys}
    overhead = (statistics.median(r.body_wall_s for r in traced)
                / statistics.median(r.body_wall_s for r in plain) - 1)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    metrics["trace.unattributed_s"] = (
        statistics.median(r["trace.unattributed_s"] for r in per_replay), "s")
    print(f"  traced replays {len(traced)}; spans per replay "
          f"{statistics.median(r['trace.spans'] for r in per_replay):.0f}")
    attempted = len(verdicts)
    unexpected = sum(v.failed and not v.defect for _, _, v, _, _ in verdicts)
    emit(unexpected == 0, attempted, unexpected, metrics)
    return 0


def unit_of(key: str) -> str:
    suffix = key.rpartition(".")[2]
    return {
        "calls": "count", "errors": "count", "self_s": "s", "self_share": "ratio",
        "tokens_per_s": "tokens/s", "terms_mean": "terms", "cmp_unknown_share": "ratio",
        "threshold_s": "s", "add_ms_p50": "ms", "mul_ms_p50": "ms", "check_ms_p50": "ms",
    }[suffix]


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
