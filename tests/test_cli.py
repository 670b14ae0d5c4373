"""Parser, command dispatch, script mode, and printer round-trips."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import numerosity
from numerosity import chains, field, labtree, ordinals, sets
from numerosity.cli import HELP_TEXT, Session, eval_line, main, repl, run_line, run_script
from numerosity.parser import (
    MAX_LITERAL_DIGITS,
    ParseError,
    parse_num,
    parse_ordinal,
    parse_set,
)


def value_of(line: str, session=None) -> str:
    session = session or Session()
    return eval_line(line, session)["value"]


class TestParsers:
    def test_numexpr_atoms(self):
        assert field.nf_eq(parse_num("alpha"), field.ALPHA)
        assert field.nf_eq(parse_num("w"), field.OMEGA_NF)
        assert field.nf_eq(parse_num("X"), field.X2W)
        assert field.nf_eq(parse_num("1/2"), field.from_rational(F(1, 2)))

    def test_numexpr_shapes(self):
        e = parse_num("2*alpha^2 + 1")
        want = field.nf_add(
            field.nf_mul(field.from_rational(2), field.nf_mul(field.ALPHA, field.ALPHA)),
            field.ONE,
        )
        assert field.nf_eq(e, want)
        assert field.nf_eq(parse_num("alpha^(1/2) * alpha^(1/2)"), field.ALPHA)
        assert field.nf_eq(parse_num("w^(w)"), field.omega_power(ordinals.OMEGA))
        assert field.nf_eq(parse_num("-alpha + alpha"), field.ZERO)

    def test_ordinal_expressions(self):
        assert parse_ordinal("w") == ordinals.OMEGA
        assert parse_ordinal("(w+1) +. w") == ordinals.cantor_add(
            ordinals.cantor_add(ordinals.OMEGA, ordinals.ONE), ordinals.OMEGA
        )
        assert parse_ordinal("2 ^<> w") == ordinals.OMEGA
        assert parse_ordinal("w*2 + 1") == ordinals.fold_cantor(
            [ordinals.omega_pow(ordinals.ONE, 2), ordinals.ONE]
        )

    def test_set_expressions(self):
        assert parse_set("mod(2,0)") == sets.Mod(2, 0)
        assert parse_set("N+") == sets.NatPos()
        assert parse_set("N") == sets.NatAll()
        assert parse_set("Q(0,1]") == sets.QInterval(F(0), F(1))
        assert parse_set("R[-1/2,3/4)") == sets.RInterval(F(-1, 2), F(3, 4))
        assert parse_set("[0,1]") == sets.UnitInterval01()
        assert parse_set("fin{1,2,3}") == sets.FinSet(frozenset({1, 2, 3}))
        assert parse_set("Pfin(N)") == sets.PfinN()
        assert parse_set("maps(2, N)") == sets.FinMapsInto(2, sets.NatAll())
        assert parse_set("mod(2,0) | mod(2,1)") == sets.Union_(sets.Mod(2, 0), sets.Mod(2, 1))
        assert parse_set("N+ \\ mod(2,0)") == sets.Diff(sets.NatPos(), sets.Mod(2, 0))
        assert parse_set("mod(2,0) >< mod(3,0)") == sets.Prod(sets.Mod(2, 0), sets.Mod(3, 0))
        assert parse_set("shift(7/2, Q(0,1])") == sets.Shift(F(7, 2), sets.QInterval(F(0), F(1)))

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_num("alpha + $")
        assert "column 9" in str(err.value)

    def test_set_printer_roundtrip(self):
        for text in ["mod(2,0)", "N+", "Q(0,1]", "R[-1/2,3/4)", "fin{1,2,3}",
                     "Pfin(N)", "[0,1]", "maps(2, N)"]:
            assert parse_set(sets.format_set(parse_set(text))) == parse_set(text)

    def test_numexpr_printer_roundtrip(self):
        for text in ["2*alpha^2 + 1", "beta + 1", "X", "alpha^(1/2)",
                     "(alpha+1)/(beta+2)", "w^(w)*2 + alpha"]:
            e = parse_num(text)
            assert field.nf_eq(parse_num(field.format_numexpr(e)), e)

    def test_ordinal_printer_roundtrip(self):
        for text in ["w^(w+1)*2 + w + 1", "w*3", "5", "w^w"]:
            o = parse_ordinal(text)
            assert parse_ordinal(ordinals.format_ordinal(o)) == o

    def test_surreal_printer_roundtrip(self):
        from numerosity.parser import parse_surreal_operand
        from numerosity.surreal import all_expansions, ordinal_plus

        for x in all_expansions(6):
            assert parse_surreal_operand(str(x)) == x
        w_exp = ordinal_plus(parse_ordinal("w^w*2 + 1"))
        assert parse_surreal_operand(str(w_exp)) == w_exp
        assert parse_surreal_operand("5/2^3") == parse_surreal_operand("5/8")


    def test_surreal_operators_resolved_at_call_time(self, monkeypatch):
        from numerosity import parser, surreal
        calls = []
        real = surreal.s_add
        monkeypatch.setattr(surreal, "s_add", lambda x, y: calls.append((x, y)) or real(x, y))
        assert parser.parse_surreal("1 + 1") == surreal.se_from_dyadic(F(2))
        assert len(calls) == 1


class TestCommands:
    def test_num(self):
        assert value_of(":num mod(2,0)") == "1/2*alpha"
        assert value_of(":num Q") == "2*alpha^2 + 1"

    def test_cmp_kinds(self):
        s = Session()
        assert value_of(":cmp alpha beta", s) == "less"
        assert value_of(":cmp (w+1) +. w w*2", s) == "equal"
        assert value_of(":cmp +- +", s) == "less"
        assert value_of(":cmp beta X", s) == "unknown (beta vs 2^w undeclared)"

    def test_ord(self):
        assert value_of(":ord 2 ^<> w") == "w"
        assert value_of(":ord (w+1) +. w") == "w*2"
        assert value_of(":ord (w+1) * (w+1)") == "w^2 + w*2 + 1"

    def test_st_and_measure(self):
        assert value_of(":st (2*alpha^2+1)/alpha^2") == "2"
        assert value_of(":st 1/alpha") == "0"
        assert value_of(":measure R[1/4,3/4) beta") == "1/2"

    def test_surreal_commands(self):
        assert value_of(":sur +- + +-") == "+"
        assert value_of(":sur 3/4 * 1/2") == "+--+"
        assert value_of(":simplest {0} {1}") == "+-"
        assert value_of(":simplest {} {}") == "()"

    def test_assert_order_flow(self):
        s = Session()
        assert "unknown" in value_of(":cmp alpha^2 beta", s)
        assert value_of(":assert_order alpha^k < beta", s) == "ok"
        assert value_of(":cmp alpha^2 beta", s) == "less"

    def test_concrete_order_assertion(self):
        s = Session()
        assert "unknown" in value_of(":cmp beta X", s)
        assert value_of(":assert_order beta < X", s) == "ok"
        assert value_of(":cmp beta X", s) == "less"
        assert value_of(":cmp X beta", s) == "greater"

    def test_inconsistent_assertion_rejected(self):
        rec, err = run_line(":assert_order beta < alpha", Session())
        assert err == "eval" and "InconsistentOrder" in rec["value"]

    def test_mode_bb_flow(self):
        s = Session()
        assert value_of(":mode_bb on", s) == "bb_mode=on"
        assert value_of(":cmp num([0,1]) beth1 - X + 1", s) == "equal"
        assert value_of(":cmp beta beth1 - X", s) == "equal"

    def test_labelcheck(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text(labtree.format_instance(labtree.standard_instance()))
        out = value_of(f":labelcheck {path}")
        reports = json.loads(out)
        assert [r["status"] for r in reports] == ["ok", "ok"]

    def test_labelcheck_rejects(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(labtree.format_instance(labtree.counterexample_noninjective()))
        reports = json.loads(value_of(f":labelcheck {path}"))
        assert reports[0]["status"] == "violations"

    @pytest.mark.parametrize("line, want", [
        (":st w^(w^2)/w^(w)", "+infinity"),
        (":cmp w^(w^2)/w^(w*5) 1", "greater"),
        (":cmp w^(w^2)/w^(w) w^(w*2)", "greater"),
        (":st w^(w)/w^(w^2)", "0"),
    ])
    def test_quotients_of_unrelated_omega_powers(self, line, want):
        # The exponents share no CNF term, so the common content is 1.
        assert value_of(line) == want

    def test_dense_power_ends(self):
        start = time.perf_counter()
        rec, err = run_line(":st (alpha+beta+X+1)^16", Session())
        assert time.perf_counter() - start < 5
        assert err is None and rec["value"] == "unknown (dominant term undecided)"

    def test_errors_surface_with_names(self):
        rec, err = run_line(":num Q(0,1] >< oops", Session())
        assert err == "parse" and rec["status"] == "error"
        rec, err = run_line(":st alpha/(alpha - alpha)", Session())
        assert err == "eval" and "DivisionByZero" in rec["value"]

    def test_stray_key_error_surfaces(self, monkeypatch):
        """A KeyError is a library bug, not an evaluation error."""
        monkeypatch.setattr(sets, "num", lambda e: {}["missing"])
        with pytest.raises(KeyError):
            run_line(":num N", Session())

    def test_unknown_command(self):
        rec, err = run_line(":frobnicate 1", Session())
        assert err == "parse"


class TestScripts:
    def write(self, tmp_path, text):
        p = tmp_path / "script.txt"
        p.write_text(text)
        return str(p)

    def test_clean_script(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            "# exercise several subsystems",
            ":num Q",
            ":ord 2 ^<> w",
            ":cmp alpha beta",
            ":sur +- + +-",
            "",
        ]))
        buf = io.StringIO()
        code = run_script(path, out=buf)
        assert code == 0
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert [l["status"] for l in lines] == ["exact"] * 4
        assert lines[0]["value"] == "2*alpha^2 + 1"
        assert lines[1]["value"] == "w"

    def test_empty_script(self, tmp_path):
        path = self.write(tmp_path, "")
        buf = io.StringIO()
        assert run_script(path, out=buf) == 0
        assert buf.getvalue() == ""

    def test_strict_cmp_exit_code(self, tmp_path):
        path = self.write(tmp_path, ":cmp beta X\n")
        buf = io.StringIO()
        assert run_script(path, strict_cmp=True, out=buf) == 3
        assert run_script(path, strict_cmp=False, out=io.StringIO()) == 0

    def test_parse_error_exit_code(self, tmp_path):
        path = self.write(tmp_path, ":num $$$\n:cmp beta X\n")
        assert run_script(path, strict_cmp=True, out=io.StringIO()) == 1

    def test_eval_error_exit_code(self, tmp_path):
        path = self.write(tmp_path, ":st alpha/(alpha-alpha)\n")
        assert run_script(path, out=io.StringIO()) == 2

    def test_bb_flag(self, tmp_path):
        path = self.write(tmp_path, ":cmp num([0,1]) beth1 - X + 1\n")
        buf = io.StringIO()
        assert run_script(path, bb=True, out=buf) == 0
        assert json.loads(buf.getvalue())["value"] == "equal"

    def test_deterministic_reruns(self, tmp_path):
        path = self.write(tmp_path, "\n".join([
            ":num R", ":assert_order alpha^k < beta", ":cmp alpha^2 beta",
            ":measure Q(0,1] beta", ":sur 3/4 * 1/2",
        ]))
        a, b = io.StringIO(), io.StringIO()
        assert run_script(path, out=a) == run_script(path, out=b)
        assert a.getvalue() == b.getvalue()

    def test_main_entry(self, tmp_path, capsys):
        path = self.write(tmp_path, ":num mod(3,0)\n")
        assert main(["--script", path]) == 0
        assert "1/3*alpha" in capsys.readouterr().out

    def test_quit_stops_the_script(self, tmp_path):
        path = self.write(tmp_path, ":help\n:quit\n:num $$$\n")
        buf = io.StringIO()
        assert run_script(path, out=buf) == 0
        help_rec, quit_rec = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert help_rec["value"] == HELP_TEXT and help_rec["kind"] == "report"
        assert quit_rec["value"] == "bye"


def _repl_lines(monkeypatch, lines):
    """Feed `lines` to the REPL prompt, then end of input."""
    feed = iter(lines)

    def fake_input(prompt):
        assert prompt == "num> "
        try:
            return next(feed)
        except StopIteration:
            raise EOFError from None

    monkeypatch.setattr("builtins.input", fake_input)
    return feed


class TestRepl:
    def test_text_mode(self, monkeypatch, capsys):
        feed = _repl_lines(monkeypatch, [":num mod(3,0)", "   ", ":num $$$", ":help", ":quit",
                                         ":num N"])
        repl(Session())
        assert capsys.readouterr().out.splitlines() == [
            "numerosity calculator; :help for commands, :quit to leave",
            "1/3*alpha    [numexpr, exact]",
            *run_line(":num $$$", Session())[0]["value"].splitlines(),
            f"{HELP_TEXT}    [report, exact]",
            "bye    [report, exact]",
        ]
        assert list(feed) == [":num N"]  # nothing is read after :quit

    def test_json_mode_ends_at_end_of_input(self, monkeypatch, capsys):
        _repl_lines(monkeypatch, [":cmp beta X", ":st alpha/(alpha-alpha)"])
        assert main(["--json", "--bb"]) == 0
        banner, *records = capsys.readouterr().out.splitlines()
        assert banner.startswith("numerosity calculator")
        records = [json.loads(r) for r in records]
        assert [r["status"] for r in records] == ["unknown", "error"]
        assert records[1]["value"].startswith("DivisionByZero: ")


def _short(line: str) -> str:
    return line if len(line) <= 40 else f"{line[:16]}...[{len(line)} chars]"


_OVER = "9" * (MAX_LITERAL_DIGITS + 1)
MALFORMED_LINES = [
    # integer arguments are natural-number tokens, not int() of any text
    ":num mod(-3,1)", ":num pow(x)", ":num maps(k, N)", ":sur 1/2^", ":num mod(3,",
    ":sur 3/ + +", ":sur +- + 1/",
    # every verb consumes its whole line
    ":sur 1 +- 1", ":sur 1 -* 1", ":simplest {0} {1} junk", ":simplest {0} {1} {5}",
    # nesting past the parser's limit
    *[f"{verb} {'(' * n}{atom}{')' * n}"
      for n in (2000, 250) for verb, atom in ((":num", "N"), (":st", "alpha"), (":ord", "w"))],
    ":num " + "shift(0, " * 200 + "N" + ")" * 200,
    ":ord " + "^".join(["2"] * 1200),
    # order-assertion monomials: natural exponents, infinite limit w-exponents
    ":assert_order beta^(1/2) < X", ":assert_order X^(1/2) < beta",
    ":assert_order beta^(-1) < X", ":assert_order w^(0) < X", ":assert_order w^(3) < X",
    ":assert_order w^(w+1) < X",
    # a universal alpha^k stands alone
    ":assert_order alpha^k*beta < X", ":assert_order beta*alpha^k < X",
    ":assert_order alpha^k*alpha^2 < X",
    # every factor of a monomial is a generator: no empty side, no trailing *
    ":assert_order < X", ":assert_order alpha <", ":assert_order alpha* < X",
    # natural-number literals over the digit budget, one per grammar
    f":st {_OVER}*alpha", f":ord {_OVER}", f":sur {_OVER}", f":num fin{{{_OVER}}}",
    f":simplest {{{_OVER}}} {{}}",
]


class TestStartup:
    def test_a_session_loads_no_dataclasses_inspect_or_argparse(self):
        code = ("import sys; before = set(sys.modules); import numerosity; "
                "from numerosity.cli import Session; Session(); "
                "print(sorted({'dataclasses', 'inspect', 'argparse'} & (set(sys.modules) - before)))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(numerosity.__file__)))
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestMalformedLines:
    def records(self, tmp_path, text, strict_cmp=False):
        path = tmp_path / "script.txt"
        path.write_text(text)
        buf = io.StringIO()
        code = run_script(str(path), strict_cmp=strict_cmp, out=buf)
        return code, [json.loads(l) for l in buf.getvalue().splitlines()]

    def assert_one_parse_record(self, tmp_path, line):
        code, records = self.records(tmp_path, line + "\n")
        assert code == 1
        [record] = records
        assert record["status"] == "error" and record["value"].startswith("ParseError")

    @pytest.mark.parametrize("line", MALFORMED_LINES, ids=_short)
    def test_one_parse_record(self, tmp_path, line):
        self.assert_one_parse_record(tmp_path, line)

    @pytest.mark.parametrize("words", ["bogus", "literal extra", "hereditary literal"])
    def test_labelcheck_mode_words(self, tmp_path, words):
        path = tmp_path / "instance.txt"
        path.write_text(labtree.format_instance(labtree.standard_instance()))
        self.assert_one_parse_record(tmp_path, f":labelcheck {path} {words}")

    def test_labelcheck_element_budget(self, tmp_path):
        n = labtree.MAX_INSTANCE_ELEMENTS + 1
        (tmp_path / "chain.txt").write_text(
            "elem {} " + " ".join(map(str, range(1, n))) + "\n"
            + "".join(f"le {i} {i + 1}\n" for i in range(1, n - 1)))
        code, records = self.records(tmp_path, f":labelcheck {tmp_path / 'chain.txt'}\n")
        assert code == 2
        [record] = records
        assert record["status"] == "error"
        assert record["value"] == (f"BudgetExceeded: an instance of {n} elements is over the "
                                   f"budget MAX_INSTANCE_ELEMENTS = {n - 1}")

    def test_mixed_script(self, tmp_path):
        lines = [":num " + "(" * 2000 + "N" + ")" * 2000, ":st alpha/(alpha-alpha)", ":cmp beta X"]
        code, records = self.records(tmp_path, "\n".join(lines) + "\n", strict_cmp=True)
        assert code == 1
        assert [r["status"] for r in records] == ["error", "error", "unknown"]
        assert records[0]["value"].startswith("ParseError")
        assert "DivisionByZero" in records[1]["value"]

    @pytest.mark.parametrize("line", [":ord 2^2^2^2^2", ":st 2^2^2^2^2",
                                      ":ord 2^2^2^2^2^2", ":st 2^2^2^2^2^2"])
    def test_integer_tower_over_budget(self, tmp_path, line):
        start = time.perf_counter()
        code, records = self.records(tmp_path, line + "\n")
        assert time.perf_counter() - start < 0.1
        assert code == 2
        [record] = records
        assert record["status"] == "error"
        assert record["value"].startswith("BudgetExceeded") and "MAX_POWER_BITS" in record["value"]

    def test_integer_power_under_budget(self):
        assert value_of(":ord 2^2^2^2") == "65536"
        half = ordinals.MAX_POWER_BITS // 2
        assert value_of(f":ord 2^{half}") == str(2**half)

    @pytest.mark.parametrize("line", [":sur 1/2^10000000 + 1", ":sur 1/3^10000000 + 1",
                                      ":sur 1/2^7001", ":sur 3/4^10000000 + 1"])
    def test_dyadic_power_over_budget(self, line):
        start = time.perf_counter()
        record, err = run_line(line, Session())
        assert time.perf_counter() - start < 0.01
        assert err == "eval"
        assert record["value"] == ("BudgetExceeded: integer power over the budget "
                                   "MAX_POWER_BITS = 14000 bits")

    def test_dyadic_power_under_budget(self):
        start = time.perf_counter()
        assert value_of(":sur 1/2^7000") == "+" + "-" * 7000
        assert time.perf_counter() - start < 0.5
        assert value_of(":sur 3/3^1 + 1") == "++"
        assert value_of(":sur 1/1^10000000 + 1") == "++"

    @pytest.mark.parametrize("line, want", [
        (":sur 1000000000000", "BudgetExceeded: an expansion of 1000000000000 signs"),
        (":simplest {1000000000000} {}", "BudgetExceeded: an expansion of 1000000000001 signs"),
        (":cmp plus(2^<>40) ++", "BudgetExceeded: an expansion of 1099511627776 signs"),
        # An operand is counted unbuilt, so the cap rejects it as it would the built one.
        (":sur 1000000000000 + 1", "RecursionCapExceeded: addition: combined birthday 1000000000001"),
        (":sur ++ - -1099511627776", "RecursionCapExceeded: addition: combined birthday 1099511627778"),
        (":sur 1/4 * 1000000000000", "RecursionCapExceeded: multiplication: combined birthday 1000000000003"),
        (":sur plus(w) - 1000000000000", "RecursionCapExceeded: addition is not offered on ordinal"),
    ])
    def test_surreal_sign_budget(self, line, want):
        start = time.perf_counter()
        record, err = run_line(line, Session())
        assert time.perf_counter() - start < 0.01
        assert err == "eval"
        assert record["value"].startswith(want)
        assert want.startswith("Rec") or record["value"].endswith(" over the budget MAX_SIGNS = 14000")

    def test_surreal_sign_budget_edge(self):
        assert value_of(":sur 14000") == "+" * 14000
        assert value_of(":cmp plus(14000) -") == "greater"
        assert value_of(":sur -13999/2") == "-" * 7000 + "+"
        assert run_line(":sur 14001", Session())[0]["value"].startswith("BudgetExceeded")

    def test_literal_digit_budget_edge(self):
        edge = "9" * MAX_LITERAL_DIGITS
        assert value_of(f":ord {edge}") == edge
        assert value_of(f":st {edge}*alpha") == "+infinity"
        assert value_of(f":num fin{{{edge}}}") == "1"
        record, err = run_line(f":sur {edge}", Session())
        assert err == "eval" and record["value"].startswith("BudgetExceeded")
        record, err = run_line(f":ord {edge}9", Session())
        assert err == "parse" and "MAX_LITERAL_DIGITS = 4300 digits" in record["value"]

    def test_rational_root_of_large_order_ends(self):
        start = time.perf_counter()
        record, err = run_line(":st (2*alpha)^(1/10000000)", Session())
        assert time.perf_counter() - start < 0.01
        assert err == "eval"
        assert record["value"] == ("UnsupportedPowerPair: the coefficient 2 has no "
                                   "non-negative rational root of order 10000000")

    @pytest.mark.parametrize("line, want", [
        (":st (2*alpha)^(1/2)",
         "UnsupportedPowerPair: the coefficient 2 has no non-negative rational root of order 2"),
        (":st beta^(1/2)",
         "UnsupportedPowerPair: rational exponent 1/2 requires a single alpha-monomial base"),
        (":st (4*alpha^2)^(1/2)/alpha", "2"),
    ])
    def test_rational_root_messages(self, line, want):
        assert run_line(line, Session())[0]["value"] == want

    def test_modulus_factor_budget_edge(self):
        # The primes on either side of the largest trial divisor.
        below, above = 1048573, 1048583
        assert below <= chains.MAX_TRIAL_DIVISOR < above
        assert value_of(f":num mod({below**2},0)") == f"1/{below**2}*alpha"
        rec, err = run_line(f":num mod({above**2},0)", Session())
        assert err == "eval"
        assert rec["value"] == ("BudgetExceeded: modulus factor search over the budget "
                                "MAX_TRIAL_DIVISOR = 1048576")

    @pytest.mark.parametrize("line", [":num Q(0,1/10000000000037]"])
    def test_denominator_factor_budget(self, line):
        rec, err = run_line(line, Session())
        assert err == "eval"
        assert rec["value"] == ("BudgetExceeded: denominator factor search over the budget "
                                "MAX_TRIAL_DIVISOR = 1048576")

    def test_shift_denominator_factor_budget(self):
        # A shift's count needs its threshold; its numerosity, the child's, does not.
        shift = sets.Shift(F(1, 10000000000037), sets.QInterval(F(0), F(1)))
        with pytest.raises(ordinals.BudgetExceeded) as info:
            sets.counting_fn(shift)
        assert str(info.value) == ("denominator factor search over the budget "
                                   "MAX_TRIAL_DIVISOR = 1048576")
        assert value_of(f":num {shift} \\ {shift}") == "0"

    @pytest.mark.parametrize("line", [
        ":st {0}*{0}", ":ord {0}*{0}", ":ord w^({0}*{0})", ":st {1}+1", ":st 1/({1}+1)",
        ":cmp beta^({0}*{0}) beth1",
    ])
    def test_printed_digit_budget(self, line):
        line = line.format("9" * 3000, "9" * MAX_LITERAL_DIGITS)
        rec, err = run_line(line, Session())
        assert err == "eval"
        assert rec["value"] == ("BudgetExceeded: integer to print over the budget "
                                "MAX_LITERAL_DIGITS = 4300 digits")

    @pytest.mark.parametrize("factors", [2, 4])
    def test_monomial_power_in_one_step(self, factors):
        # The exponent has about 28,600 bits per two factors; the power scales
        # beta's exponent once instead of squaring once per bit.
        exponent = "*".join(["9" * MAX_LITERAL_DIGITS] * factors)
        start = time.perf_counter()
        rec, err = run_line(f":st beta^({exponent})/beth1", Session())
        assert time.perf_counter() - start < 0.1
        assert err == "eval"
        assert rec["value"] == ("BudgetExceeded: integer to print over the budget "
                                "MAX_LITERAL_DIGITS = 4300 digits")
        assert value_of(":st (2*beta)^(100000)/beth1") == (
            "unknown (beta^100000 vs beth1 dominance undeclared)")

    def test_pow_threshold_budget(self):
        # The least m with k | m! comes from k's prime powers, so a large prime
        # answers at once and one past the trial divisors meets the same budget.
        assert value_of(":num pow(10007)") == "alpha^(1/10007)"
        rec, err = run_line(":num pow(10000000000037)", Session())
        assert err == "eval"
        assert rec["value"] == ("BudgetExceeded: exponent factor search over the budget "
                                "MAX_TRIAL_DIVISOR = 1048576")
