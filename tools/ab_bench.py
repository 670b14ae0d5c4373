"""Alternated-pair comparison of two checkouts on the repository benchmark.

Usage, from the root of a checkout:

    python3 tools/ab_bench.py PARENT --seeds 50,51,52,53,54,55,56,57,58,59
                              [--workloads algebra-deep,session-mix]

PARENT is another checkout, typically of the parent commit
(`git clone . /tmp/parent && git -C /tmp/parent checkout HEAD~1`).  For each
workload (by default every workload of `BENCHMARK.json`) and seed, the
benchmark command runs for the benchmark's `run_seconds` once in PARENT and
once in this checkout, back to back; the side that runs first alternates from
pair to pair.  A pair's two runs share the machine's speed of the moment, so
their ratio cancels slow drift in CPU speed that separate series of runs would
pick up; a claim of a gain needs at least ten pairs, so ten seeds.  For each
end-to-end metric the script prints every pair's ratio (this checkout over
PARENT) and the median ratio, then each side's median, the relative change
between them (`better` or `worse` by the metric's direction in
`BENCHMARK.json`), each side's first and third quartiles, PARENT's spread
(its interquartile range over its median) and the metric's `bound`.  The metric is marked `worse` when this checkout's
median is worse than PARENT's by more than the bound, `unresolved` when
PARENT's own spread is wider than the bound (or there are fewer than two
pairs), and `within bound` otherwise.  It also prints how many pairs this
checkout wins (a tie counts for neither side) and, last, `gain` when it wins
at least 9 of every 10 pairs and its median is better than PARENT's by more
than PARENT's interquartile range, `no gain` otherwise: the rule a claimed
speedup must pass.  A run whose answers fail the benchmark's checks is
reported with `correct: false`.  Each pair's line also gives both runs'
`attempted` line counts, so a run that used up its corpus before the time
was up shows in the pair table.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(checkout: str, command: list[str], workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", "0"]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ratio(new: float, old: float) -> float:
    if old == 0:
        return 1.0 if new == 0 else float("inf")
    return new / old


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles; both are nan for fewer than two values."""
    if len(values) < 2:
        return float("nan"), float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent: list[float], this: list[float], higher_better: bool, bound: float) -> str:
    """Each side's median and quartiles, the change between the medians,
    PARENT's spread, the verdict, the pairs this checkout wins and whether
    that makes a gain."""
    old, new = statistics.median(parent), statistics.median(this)
    change = ratio(new, old) - 1
    worse_by = -change if higher_better else change
    (p1, p3), (t1, t3) = quartiles(parent), quartiles(this)
    if len(parent) < 2:
        iqr = spread = float("inf")
    else:
        iqr = p3 - p1
        spread = iqr / old if old else 0.0 if iqr == 0 else float("inf")
    verdict = "worse" if worse_by > bound else "unresolved" if spread > bound else "within bound"
    direction = "same" if change == 0 else "worse" if worse_by > 0 else "better"
    wins = sum(n > o if higher_better else n < o for o, n in zip(parent, this))
    gain = 10 * wins >= 9 * len(parent) and worse_by < 0 and abs(new - old) > iqr
    return (f"medians {old:.4g} -> {new:.4g} ({direction} by {abs(change):.1%}); "
            f"quartiles {p1:.4g}..{p3:.4g} -> {t1:.4g}..{t3:.4g}; "
            f"parent spread {spread:.3f}; bound {bound}: {verdict}; "
            f"wins {wins}/{len(parent)}: {'gain' if gain else 'no gain'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="root of the checkout to compare against")
    ap.add_argument("--seeds", required=True, help="comma-separated, one pair per seed")
    ap.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sides = {"parent": os.path.abspath(args.parent), "this": ROOT}
    for workload in workloads:
        ratios: dict[str, list[float]] = {name: [] for name in better}
        values: dict[str, dict[str, list[float]]] = {
            name: {"parent": [], "this": []} for name in better}
        for i, seed in enumerate(int(s) for s in args.seeds.split(",")):
            order = ("parent", "this") if i % 2 == 0 else ("this", "parent")
            out = {side: run(sides[side], bench["command"], workload, seed, bench["run_seconds"])
                   for side in order}
            cells = []
            for name in better:
                old, new = (out[s]["metrics"][name]["value"] for s in ("parent", "this"))
                ratios[name].append(ratio(new, old))
                values[name]["parent"].append(old)
                values[name]["this"].append(new)
                cells.append(f"{name} {old:.4g} -> {new:.4g} ({ratios[name][-1]:.3f}x)")
            print(f"{workload} seed {seed} ({order[0]} first; correct: "
                  f"{out['parent']['correct']}/{out['this']['correct']}; attempted: "
                  f"{out['parent']['attempted']}/{out['this']['attempted']}): " + "; ".join(cells),
                  flush=True)
        for name, rs in ratios.items():
            print(f"{workload} {name}: median ratio {statistics.median(rs):.3f}; pairs "
                  + " ".join(f"{r:.3f}" for r in rs) + "; "
                  + judge(values[name]["parent"], values[name]["this"], better[name] == "higher",
                          bounds[name]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
