"""Script-mode JSON of the benchmark corpus, for byte-level comparison of two checkouts.

Usage, from the root of a checkout:

    python3 tools/corpus_json.py > corpus.txt
    python3 tools/corpus_json.py --write
    python3 tools/corpus_json.py --diff

The second form rewrites the golden file `tests/golden_corpus.txt.gz`, which
`tests/test_golden.py` compares against fresh records.  The third prints each
fresh record that differs from the golden file: its workload and index, the
spec of its corpus line (what `perfbench/check.py` takes for a right answer;
`-` for an `EXTRA` line), then the golden and the fresh record; it exits 1
when some record differs.  So the records a change moves, and whether each
moves to its spec's answer, come from the tool.

For each workload of `perfbench/corpus.py` (seed 1, 12 blocks) every body line
runs through `numerosity.cli.run_line` on one `Session`, and one output line
is written per input line: the workload, the line index and the error class
(`parse`, `eval`, `raised` or `-`), tab-separated, then the record exactly as
script mode prints it.  Tail lines are skipped, since they may not end
(defect C).  After the corpus, the fixed `EXTRA` lines run on one more
`Session` under the workload name `extra`: they reach field code the corpus
does not (linear exponents of 2, rational powers of an alpha-monomial,
`w`-powers read back as ordinals, `:mode_bb on`, dense powers, declared
order, rational gammas, integer powers and modulus factor searches at their
budgets, rational roots of an alpha-monomial's coefficient, dyadic powers and
surreal sign counts at their budgets, finite `w`-powers and `beth1`-powers
under `:mode_bb on`, genetic `:sur` sums and products at the caps, all-plus
expansions of ordinal length, surreal counts past Python's digit limit, a
`pow` threshold with a large prime factor, a `pow` exponent past the factor
search budget, the partial overlap of two rational intervals, dyadic
literals as `:sur` operands: unreduced, non-dyadic before a later error, and
at the caps, unions, intersections and differences counted through their
meet, a denominator of undecided sign, shifts of intersections with one
bounded side, repeated groups within a comparison) and parse errors from every
production, on literals over the digit budget and on zero denominators, so
the diff covers each error text and column; then `:labelcheck` in both modes on every instance file: the corpus
files plus `EXTRA_INSTANCES`, whose label-tree, table and directedness checks
fail, so the diff reaches the witness paths, whose elements do not parse, or
whose table is an 80- or a 320-element chain.  The instance files are written
to a temporary directory, which is the working directory while the lines
run.  The library is imported from the `src/` of the checkout this script
lives in, so running it in two checkouts and diffing the outputs shows every
changed answer.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, BLOCKS = 1, 12
GOLDEN = os.path.join(ROOT, "tests", "golden_corpus.txt.gz")
EXTRA = [
    ":st 2^(3*alpha+1)/X^3", ":st 4^(alpha-2)/X^2", ":num maps(4, N+)",
    ":st (4*alpha^2)^(1/2)/alpha", ":st (1/9*alpha)^(-1/2)*alpha^(1/2)",
    ":st (alpha+1)^(w+1)/w^(w+1)", ":cmp (alpha+1)^(w+1) w^(w+1)",
    ":mode_bb on", ":st (beth1 - X)/(2*beta)", ":cmp beth1 - X beta/2",
    ":measure R[0,1) (beth1 - X)/3", ":st (3*beth1 + 1)/(2*X + beta)", ":mode_bb off",
    ":st (2*alpha+beta+X+1)^8/X^8", ":st (2*alpha+X+1)^8/(2*X+1)^8",
    ":st (1/2*alpha+1/3)^6/(alpha^6+1)", ":cmp (alpha+beta+1)^5 (alpha+beta)^5",
    ":measure Q(0,1] 3/2*alpha", ":measure mod(3,1) alpha/3", ":measure R[0,1) 2/3*beta",
    ":cmp 1/3*alpha + 1/2 alpha/3", ":cmp (alpha^2+1)/(3*beta) 1/2",
    ":ord 2^2^2^2", ":st 2^2^2^2", ":ord 2^2^2^2^2", ":st 2^2^2^2^2",
    ":assert_order alpha^k < beta", ":assert_order beta < beth1",
    ":cmp beth1 - 2*beta 0", ":cmp 2*beta beth1", ":st alpha^5/(3*beta)",
    ":st (2*beth1+alpha)/(3*beth1+beta)", ":cmp (alpha^2+1)/(3*beta) 1/2",
    ":st (2*alpha)^(1/2)", ":st (2*alpha)^(1/10000000)",
    ":num mod(1099505336329,0)", ":num mod(10000000000037,0)",
    ":sur 1/2^10000000 + 1", ":sur 1/3^10000000 + 1", ":sur 1/2^7000", ":sur 1/2^7001",
    ":assert_order alpha* < X",
    ":sur 20000 + 1", ":simplest {20000} {}", ":cmp plus(20000) +", ":sur 14000",
    ":st w^40", ":cmp w^30 alpha^30", ":mode_bb on", ":st beth1^5/X^5", ":mode_bb off",
]
# Genetic sums and products at the combined-birthday caps (24 and 16), on
# alternating signs, so the diff reaches the largest tables.
_ALT = "+-" * 12
EXTRA += [f":sur {_ALT[:k] or '()'} {op} {_ALT[k:cap][::-1] or '()'}"
          for cap, ops in ((24, "+-"), (16, "*")) for op in ops for k in range(0, cap + 1, 4)]
# Parse errors from every production, so the diff covers each error text and
# column: the malformed lines of tests/test_cli.py, then lines per production.
EXTRA += [
    ":num mod(-3,1)", ":num pow(x)", ":num maps(k, N)", ":sur 1/2^", ":num mod(3,",
    ":sur 3/ + +", ":sur +- + 1/", ":sur 1 +- 1", ":sur 1 -* 1",
    ":simplest {0} {1} junk", ":simplest {0} {1} {5}",
    *[f"{verb} {'(' * n}{atom}{')' * n}"
      for n in (2000, 250) for verb, atom in ((":num", "N"), (":st", "alpha"), (":ord", "w"))],
    ":num " + "shift(0, " * 200 + "N" + ")" * 200,
    ":ord " + "^".join(["2"] * 1200),
    ":assert_order beta^(1/2) < X", ":assert_order X^(1/2) < beta",
    ":assert_order beta^(-1) < X", ":assert_order w^(0) < X", ":assert_order w^(3) < X",
    ":assert_order w^(w+1) < X", ":assert_order alpha^k*beta < X",
    ":assert_order beta*alpha^k < X", ":assert_order alpha^k*alpha^2 < X",
    # set atoms and set operators
    ":num M", ":num N+ +", ":num Q(1,2", ":num Q(1/0,1]", ":num R[1,2]", ":num R [0,1)",
    ":num fin{1,}", ":num fin 1", ":num mod(3)", ":num pow(1,2)", ":num Pfin(Q)",
    ":num shift(1/2 N)", ":num maps(2 N)", ":num [0,2]", ":num (N", ":num N |",
    ":num N >< ", ":num N $", ":measure N", ":measure N+ alpha beta",
    # numerosity and ordinal expressions
    ":st alpha +", ":st (alpha", ":st num(N", ":st w^", ":st alpha^", ":st 1 2", ":st -",
    ":st alpha*-1", ":st alpha + - 1", ":cmp alpha", ":cmp 1 +. alpha", ":cmp w +. 1 2 3",
    ":ord w +", ":ord (w", ":ord w ^<>", ":ord alpha", ":ord w +. +. w",
    # :simplest sets
    ":simplest {1/3} {}", ":simplest {0 {1}", ":simplest {0}", ":simplest {a} {}",
    ":simplest {0,} {1}", ":simplest 0 1",
    # :assert_order monomials
    ":assert_order alpha <", ":assert_order alpha beta", ":assert_order alpha^k < alpha^k",
    ":assert_order w < X", ":assert_order w^w < X", ":assert_order w^(w < X",
    ":assert_order X < beta junk", ":assert_order < X", ":assert_order alpha^(1/0) < X",
    # :sur operand words and sign words in :cmp
    ":sur", ":sur 1 +", ":sur x + 1", ":sur plus(w) + 1", ":sur plus(w", ":sur 1/ + 1",
    ":sur 1/2^ + 1", ":sur () + (", ":sur +-x + +", ":cmp ++ plus(", ":cmp () x",
    # command words
    ":mode_bb maybe", ":labelcheck", ":labelcheck a b c", ":frobnicate 1", "num 1",
    # all-plus expansions of ordinal length, finite and infinite
    ":sur plus(w)", ":sur plus(w^2+3)", ":sur plus(3)", ":sur plus(w) * +", ":sur + - plus(w)",
    ":cmp plus(w) plus(w^2)", ":cmp plus(w) plus(w)", ":cmp plus(w) ++++", ":cmp -- plus(w)",
    ":cmp plus(3) +++", ":cmp () ()",
]
# Natural-number literals one digit over Python's default int-from-str limit, one per grammar.
_LONG = "9" * 4301
EXTRA += [f":st {_LONG}*alpha", f":ord {_LONG}", f":sur {_LONG}", f":num fin{{{_LONG}}}",
          f":simplest {{{_LONG}}} {{}}"]
# Counts from literals at that limit: a combined birthday or sign count of 4,301
# digits is printed by its bit length, one of 4,300 digits in full.
_N = _LONG[1:]
EXTRA += [f":sur {_N} + 1", f":sur {_N} * 1", f":sur -{_N} - 1", f":simplest {{{_N}}} {{}}",
          f":sur {_N}", f":cmp plus({_N}) +"]
# A perfect-power threshold with a large prime factor: the least m with 10007 | m!.
EXTRA += [":num pow(10007)"]
# Zero denominators in the other productions that read rational and dyadic literals.
EXTRA += [":num R[0,1/0)", ":num shift(1/0, fin{1})", ":simplest {1/0} {}",
          ":sur 1/0 + +", ":sur 1/0^3 + +"]
# A perfect-power exponent with a prime factor past the trial-division budget.
EXTRA += [":num pow(10000000000037)"]
# Two overlapping rational intervals: `_meet`'s partial-overlap branch.
EXTRA += [":num Q(0,1] & Q(1/2,2]"]
# Dyadic literals as :sur operands: a non-dyadic literal fails before a later
# operand's parse error or power budget; unreduced literals, zero and -0; the
# caps on lines of literals alone.
EXTRA += [":sur 1/3 + 1/2^", ":sur 1/3 * 1/2^20000", ":sur 1/2^20000 * 1/3", ":sur 4/8 + 1/2",
          ":sur 0/5 + 1", ":sur -0", ":sur 3/4", ":sur 2/4 * -6/4", ":sur 12/2^3 - ()",
          ":sur 1/2^12 * 1/2^3", ":sur -1/2^13 - 1/2^10"]
# Unions, intersections and differences counted through their meet: lines that
# answer, then differences and intersections outside a subset certificate.
_SHIFT = "shift(1/10000000000037, Q(0,1])"
EXTRA += [":num Q(0,1] | Q+", ":num Q+ \\ Q(0,1]", ":num (Q+ | Q(0,1]) \\ Q(0,1]",
          ":num mod(4,1) & mod(6,3)", ":num mod(4,1) | mod(6,3)",
          ":num mod(2,0) \\ mod(3,0)", ":num Q+ & Q", ":num R[0,2) \\ R[1,3)", ":num N+ \\ N",
          f":num {_SHIFT} \\ {_SHIFT}", ":num mod(2,0) \\ pow(2)"]
# A denominator whose sign the field cannot decide.
EXTRA += [":cmp 1/(beth1 - X) 0"]
# Shifts of intersections with one bounded side.
EXTRA += [":num shift(1/2, Q(0,1] & Q+)", ":num shift(1/2, Q(0,1] & Q)"]
# Repeated groups within one comparison: equal values, groups that tokenize
# alike but parse differently, repeated groups past the nesting limit and
# repeated groups holding an error.
_DEEP = "(" * 60 + "alpha" + ")" * 60
EXTRA += [":cmp (alpha-1)*(beta+1) + (alpha-1)*(beta+1) 2*(alpha-1)*(beta+1)",
          ":cmp (alpha+w^(w+1))/(alpha+w^(w+1)) + (alpha+w^(w+1)) alpha+w^(w+1)",
          ":cmp (w^(w+1)+alpha)*(w^(w+1)+alpha) (3*w^(w+1)+alpha)^2/9",
          ":cmp (num(N+)) + (num(N +)) (alpha-1)*(alpha-1)",
          ":cmp (num(N+)) + (num(N+)) (alpha-1)*(alpha-1)",
          f":cmp {_DEEP} + {'(' * 10}{_DEEP}{')' * 10} 1", f":cmp {_DEEP} + {'(' * 4}{_DEEP}{')' * 4} 1",
          f":cmp {_DEEP} + ({_DEEP}) + {'(' * 5}({_DEEP}){')' * 5} 1",
          ":cmp (alpha + 1/0) + (alpha + 1/0) 1",
          ":cmp (alpha + *) + (alpha + *) 1", ":cmp (alpha^(1/2)) + (alpha^(1/2) (alpha^(1/2))"]
EXTRA_INSTANCES = {
    # Pivotal, but the labels of 2 and 3 share 1 and neither holds the other,
    # so meet trichotomy fails.
    "branch.txt": "elem {} 1 2 3 {1,2,3}\nle 1 2\nle 1 3\n"
    + "".join(f"le {x} {{1,2,3}}\n" for x in "123")
    + "succ 1 2\nsucc 2 3\nsucc 3 {1,2,3}\n",
    # Pairs with an end outside the universe.
    "outside.txt": "elem {} 1 2\nle 7 1\nle 2 8\nsucc 1 2\n",
    # No common upper bound for 2 and the others.
    "undirected.txt": "elem {} 1 2 {1}\nle 1 {1}\nsucc 1 {1}\n",
    # Label-tree elements that do not parse.
    "badelem.txt": "elem {} 1 {1,,2}\n",
    "badpair.txt": "elem {} 1 {1}\nle 1 {1\n",
    "badsucc.txt": "elem {} 1 {1}\nsucc 1 -{1}\n",
    # A chain of 80 elements, so the table closure runs at instance size.
    "chain80.txt": "elem {} " + " ".join(map(str, range(1, 80))) + "\n"
    + "".join(f"le {i} {i + 1}\nsucc {i} {i + 1}\n" for i in range(1, 79)),
    # A chain of 320 elements, so the label-tree checks run at instance size.
    "chain320.txt": "elem {} " + " ".join(map(str, range(1, 320))) + "\n"
    + "".join(f"le {i} {i + 1}\nsucc {i} {i + 1}\n" for i in range(1, 319)),
}


def _imports():
    """The corpus module and the library modules, from this checkout."""
    saved = sys.path[:]
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    try:
        import corpus
        from numerosity import cli, labtree
    finally:
        sys.path[:] = saved  # the caller may be a test session
    return corpus, cli, labtree


def records() -> list[str]:
    """Every output line, newline included, in corpus order."""
    corpus, cli, labtree = _imports()

    out: list[str] = []

    def replay(workload: str, texts: list[str]) -> None:
        session = cli.Session()
        for i, text in enumerate(texts):
            try:
                record, err = cli.run_line(text, session)
            except Exception as exc:  # a line escaping run_line is itself a finding
                record = {"input": text, "status": "error",
                          "value": f"{type(exc).__name__}: {exc}"}
                err = "raised"
            out.append(f"{workload}\t{i}\t{err or '-'}\t"
                       f"{json.dumps(record, sort_keys=True)}\n")

    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "standard.txt"), "w", encoding="utf-8") as fh:
            fh.write(labtree.format_instance(labtree.standard_instance()))
        instances = {**corpus.SMALL_INSTANCES, **EXTRA_INSTANCES}
        for name, text in instances.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        labelchecks = [f":labelcheck {name} {mode}" for name in ["standard.txt", *instances]
                       for mode in ("literal", "hereditary")]
        here = os.getcwd()
        os.chdir(work)
        try:
            for workload in sorted(corpus.BLOCKS):
                body, _, _ = corpus.generate(workload, SEED, BLOCKS)
                replay(workload, [line.text for line in body])
            replay("extra", EXTRA + labelchecks)
        finally:
            os.chdir(here)
    return out


def diff() -> int:
    """Print each fresh record that differs from the golden one beside its line's spec."""
    corpus = _imports()[0]
    specs = {(workload, str(i)): line.spec for workload in corpus.BLOCKS
             for i, line in enumerate(corpus.generate(workload, SEED, BLOCKS)[0])}
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        golden = {tuple(r.split("\t", 2)[:2]): r for r in fh}
    fresh = {tuple(r.split("\t", 2)[:2]): r for r in records()}
    moved = [key for key in {**golden, **fresh} if golden.get(key) != fresh.get(key)]
    for key in moved:
        spec = specs.get(key)
        print("\t".join(key), "-" if spec is None else " ".join(spec), sep="\t")
        for side, rows in (("golden", golden), ("now", fresh)):
            row = rows.get(key)
            print(f"  {side}:", row.split("\t", 2)[2] if row else "(none)\n", end="")
    print(f"{len(moved)} of {len(golden)} golden records differ", file=sys.stderr)
    return 1 if moved else 0


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        # mtime 0 keeps the file's bytes a function of the records alone.
        with open(GOLDEN, "wb") as raw, gzip.GzipFile("", "wb", fileobj=raw, mtime=0) as fh:
            fh.write("".join(records()).encode("utf-8"))
        return 0
    if argv == ["--diff"]:
        return diff()
    if argv:
        print("usage: corpus_json.py [--write | --diff]", file=sys.stderr)
        return 2
    sys.stdout.writelines(records())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
