"""One replay process: feeds corpus lines to `numerosity.cli.run_line`.

Run as `python3 worker.py JOB.json`.  The job names the corpus, the range of
lines to run and where to write.  Before each line the worker stamps the line
index and its start time into a small shared progress file, so the parent can
stop a line that runs past the time budget; the address-space limit set here
turns a runaway allocation into a MemoryError.  Each finished line is written
and flushed at once, so nothing is lost if the process is stopped.

Lines run closed-loop on one Session.  Body lines run in whole blocks until
the job's deadline; then the tail lines run.  With tracing on, spans are
written after the body, before the tail.
"""

from __future__ import annotations

import json
import mmap
import os
import resource
import struct
import sys
import time

# Line index and its start time (time.monotonic); start 0.0 between lines.
PROGRESS = struct.Struct("<qd")


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    VmHWM starts afresh at exec; getrusage's ru_maxrss also carries the
    parent's high-water mark across fork and exec, so it is the fallback only.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for row in fh:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    limit = job["mem_limit_bytes"]
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, job["src"])
    from numerosity import cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(job["src"]) + os.sep):
        print(f"numerosity imported from {cli.__file__}, not {job['src']}", file=sys.stderr)
        return 2
    tracer = None
    run_line = cli.run_line
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        run_line = tracer.root(cli.run_line, "cli.run_line")

    session = cli.Session()
    for text in job["prelude"]:
        cli.run_line(text, session)

    with open(job["progress"], "r+b") as pf, open(job["results"], "a", encoding="utf-8") as out, \
            open(job["corpus"], encoding="utf-8") as corpus:
        progress = mmap.mmap(pf.fileno(), PROGRESS.size)
        block_starts = set(job["block_starts"])
        start, body_end, deadline = job["start"], job["body_end"], job["deadline"]
        monotonic, perf = time.monotonic, time.perf_counter

        def run(i: int, text: str) -> None:
            PROGRESS.pack_into(progress, 0, i, monotonic())
            t0 = perf()
            try:
                if tracer is None:
                    record, err = run_line(text, session)
                else:
                    record, err = run_line(i, text, session)
                status, value = record["status"], record["value"]
            except Exception as exc:  # a line that escapes run_line is a result
                err, status, value = "raised", "error", f"{type(exc).__name__}: {exc}"[:300]
            latency = perf() - t0
            PROGRESS.pack_into(progress, 0, i, 0.0)
            out.write(json.dumps([i, monotonic(), latency, err, status, value]) + "\n")
            out.flush()

        def end_body(stop: int) -> None:
            if tracer is not None:
                tracer.dump(job["spans"], {"first": start, "stop": stop})
            out.write(json.dumps(["body_end", stop, peak_rss_kb()]) + "\n")
            out.flush()

        body_stop = None  # first body line not run
        for i, text in enumerate(corpus):
            if i < start:
                continue
            text = text.rstrip("\n")
            if i < body_end:
                if body_stop is None and deadline is not None and i in block_starts \
                        and monotonic() >= deadline:
                    body_stop = i
                    end_body(i)
                if body_stop is None:
                    run(i, text)
                continue
            if body_stop is None:
                body_stop = i
                end_body(i)
            run(i, text)
        if body_stop is None:
            end_body(body_end)
        out.write(json.dumps(["end", peak_rss_kb()]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
