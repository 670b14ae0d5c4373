"""In-process alternated replay of two checkouts' libraries on one benchmark workload.

Usage, from the root of a checkout:

    python3 tools/inproc_ab.py PARENT --workload algebra-deep --seed 31 --blocks 20 [--passes 3]

PARENT is another checkout, typically of the parent commit.  Both checkouts'
`src/numerosity` are imported in one process, under the package names
`numerosity_parent` and `numerosity_this`.  The workload's body lines (tail
lines are skipped, as they may not end) come from this checkout's
`perfbench/corpus.py` for the given seed and number of blocks.  Each block
runs through both libraries' `cli.run_line`, each side on its own `Session`
kept across blocks; the side that runs a block first alternates from block to
block, so drift in the machine's speed falls on both sides alike.  Each line
is timed with `time.perf_counter`.  With `--passes N` the whole replay runs N
times, on new sessions, the first side flipping from pass to pass, and each
line keeps its least time.  The `:labelcheck` instance files are written to a
temporary directory, which is the working directory while the lines run.

The script prints, for each side, the total time of the lines, their p50 and
p99 (the benchmark's percentile method), then for each verb its line count,
both sides' total time and the ratio of this checkout's time over PARENT's,
and last how many lines got different records on the two sides in the first
pass.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402
from run import percentile  # noqa: E402


def load(checkout: str, name: str):
    """The `cli` module of `checkout`'s library, imported as package `name`."""
    pkg = os.path.join(os.path.abspath(checkout), "src", "numerosity")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def replay(cli, session, texts: list[str]) -> tuple[list[float], list]:
    """Each line's time and record, run in turn on `session`."""
    run_line, perf = cli.run_line, time.perf_counter
    times, records = [], []
    for text in texts:
        t0 = perf()
        try:
            record = run_line(text, session)[0]
        except Exception as exc:  # a line escaping run_line is still timed and compared
            record = f"{type(exc).__name__}: {exc}"
        times.append(perf() - t0)
        records.append(record)
    return times, records


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("--workload", required=True, choices=sorted(corpus.BLOCKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blocks", type=int, default=20)
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args(argv)

    sides = {"parent": load(args.parent, "numerosity_parent"), "this": load(ROOT, "numerosity_this")}
    body, starts, _ = corpus.generate(args.workload, args.seed, args.blocks)
    texts = [line.text for line in body]
    bounds = list(zip(starts, starts[1:] + [len(texts)]))
    times = {side: [float("inf")] * len(texts) for side in sides}
    records = {side: [] for side in sides}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        labtree = sides["this"].__name__.rpartition(".")[0] + ".labtree"
        labtree = importlib.import_module(labtree)
        with open(os.path.join(work, "standard.txt"), "w", encoding="utf-8") as fh:
            fh.write(labtree.format_instance(labtree.standard_instance()))
        for name, text in corpus.SMALL_INSTANCES.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(work)
        try:
            for n in range(args.passes):
                sessions = {side: cli.Session() for side, cli in sides.items()}
                for k, (lo, hi) in enumerate(bounds):
                    order = ("parent", "this") if (k + n) % 2 == 0 else ("this", "parent")
                    for side in order:
                        got, recs = replay(sides[side], sessions[side], texts[lo:hi])
                        times[side][lo:hi] = map(min, times[side][lo:hi], got)
                        if n == 0:
                            records[side] += recs
        finally:
            os.chdir(here)

    print(f"{args.workload} seed {args.seed}: {len(bounds)} blocks, {len(texts)} lines, "
          f"best of {args.passes} passes")
    print(f"{'side':8} {'total_s':>9} {'p50_ms':>9} {'p99_ms':>9}")
    for side in sides:
        ms = [t * 1e3 for t in times[side]]
        print(f"{side:8} {sum(times[side]):9.3f} {statistics.median(ms):9.4f} {percentile(ms, 99):9.4f}")
    verbs: dict[str, list[int]] = {}
    for i, text in enumerate(texts):
        verbs.setdefault(text.split(" ", 1)[0], []).append(i)
    print(f"{'verb':14} {'lines':>6} {'parent_s':>9} {'this_s':>9} {'ratio':>6}")
    for verb, idx in sorted(verbs.items()):
        old = sum(times["parent"][i] for i in idx)
        new = sum(times["this"][i] for i in idx)
        print(f"{verb:14} {len(idx):6} {old:9.4f} {new:9.4f} {new / old if old else 1.0:6.3f}")
    differ = sum(a != b for a, b in zip(records["parent"], records["this"]))
    print(f"{differ} of {len(texts)} lines got different records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
