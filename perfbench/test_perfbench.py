"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
from check import Checker, State  # noqa: E402
from numerosity import field, ordinals, parser  # noqa: E402
from numerosity.cli import Session, run_line  # noqa: E402

VERBS = {":num", ":cmp", ":st", ":measure", ":ord", ":sur", ":simplest", ":labelcheck",
         ":assert_order", ":mode_bb"}


def _block_mix(workload: str, seed: int, n_blocks: int) -> list[Counter]:
    body, starts, _ = corpus.generate(workload, seed, n_blocks)
    ends = starts[1:] + [len(body)]
    return [Counter(line.verb for line in body[a:b]) for a, b in zip(starts, ends)]


def test_generator_is_deterministic_per_seed():
    for workload in corpus.BLOCKS:
        assert corpus.generate(workload, 7, 3) == corpus.generate(workload, 7, 3)
        assert corpus.generate(workload, 7, 3)[0] != corpus.generate(workload, 8, 3)[0]


def test_every_verb_appears_in_session_mix():
    body, _, tail = corpus.generate("session-mix", 1, 3)
    assert VERBS <= {line.verb for line in body + tail}


def test_held_out_seed_gives_the_same_verb_mix():
    for workload in corpus.BLOCKS:
        assert _block_mix(workload, 1, 4) == _block_mix(workload, 987654321, 4)


def test_sign_arithmetic_round_trips_and_matches_known_values():
    assert oracle.signs_value("+-") == Fraction(1, 2)
    assert oracle.signs_value("-++") == Fraction(-1, 4)
    assert oracle.value_signs(Fraction(3, 2)) == "++-"
    assert oracle.simplest_between([Fraction(0)], [Fraction(1)]) == "+-"
    rng = random.Random(3)
    for _ in range(200):
        s = "".join(rng.choice("+-") for _ in range(rng.randint(1, 12)))
        assert oracle.value_signs(oracle.signs_value(s)) == s


def test_cnf_oracle_agrees_with_the_library_on_random_ordinals():
    rng = random.Random(5)
    for _ in range(100):
        a, b = oracle.random_cnf(rng, 3), oracle.random_cnf(rng, 3)
        pa, pb = parser.parse_ordinal(oracle.format_ord(a)), parser.parse_ordinal(oracle.format_ord(b))
        assert oracle.format_ord(oracle.cantor_mul(a, b)) == ordinals.format_ordinal(
            ordinals.cantor_mul(pa, pb))
        assert oracle.format_ord(oracle.cantor_add(a, b)) == ordinals.format_ordinal(
            ordinals.cantor_add(pa, pb))
        assert oracle.format_ord(oracle.natural_mul(a, b)) == ordinals.format_ordinal(
            ordinals.natural_mul(pa, pb))


def _verdict(line: corpus.Line, value: str, err=None, status="exact"):
    return Checker(parser, field).verdict(line, State(), err, status, value)


def test_oracles_reject_deliberately_wrong_answers():
    wrong = [
        (corpus.Line(":num mod(3,0)", ("num", "alpha/3")), "1/2*alpha"),
        (corpus.Line(":sur + + +", ("exact", oracle.value_signs(Fraction(2)))), "+++"),
        (corpus.Line(":ord (w) + (1)", ("ord_nat", "w", "+", "1", "w + 1")), "w"),
        (corpus.Line(":ord (w) * (2)", ("ord_nat", "w", "*", "2", "w*2")), "w*2 + 1"),
        (corpus.Line(":ord (w+1) +. w", ("exact", "w*2")), "w*2 + 1"),
        (corpus.Line(":st (2*X + 1)/(X)", ("st", Fraction(2))), "3"),
        (corpus.Line(":cmp (alpha) (beta)", ("cmp", "less")), "greater"),
        (corpus.PROBE_LINES[0], "less"),
        (corpus.README_LINES[-1], '[{"check": "pivotal", "status": "violations"}]'),
    ]
    for line, value in wrong:
        assert _verdict(line, value).failed, line.text


def test_oracles_accept_the_library_on_a_generated_block():
    body, _, _ = corpus.generate("session-mix", 2, 1)
    checker, state, session = Checker(parser, field), State(), Session()
    cwd = os.getcwd()
    os.chdir(HERE)  # :labelcheck lines of this block may name missing files
    try:
        for line in body[:150]:
            if line.verb == ":labelcheck":
                continue
            record, err = _run(line.text, session)
            v = checker.verdict(line, state, err, record["status"], record["value"])
            state.apply(line.text)
            assert not v.failed or v.defect, (line.text, record["value"])
    finally:
        os.chdir(cwd)


def _run(text: str, session: Session):
    try:
        return run_line(text, session)
    except RecursionError as exc:
        return {"status": "error", "value": f"RecursionError: {exc}"}, "raised"


def test_wrong_error_class_and_known_defect_signatures():
    e_line = corpus.DEFECT_E[0]
    v = _verdict(e_line, "ValueError: invalid literal for int() with base 10: '-'", err="eval",
                 status="error")
    assert v.failed and v.defect == "E"
    v = _verdict(corpus.Line(":cmp alpha", ("err", "parse")), "boom", err="eval", status="error")
    assert v.failed and not v.defect
    v = _verdict(corpus.DEFECT_A, "ValueError: non-subtractable ordinal pair", err="eval",
                 status="error")
    assert v.failed and v.defect == "A"
