"""Command dispatch, REPL loop, and batch script mode with JSON output.

Commands (one per line)::

    :num <set>              numerosity of a set expression
    :cmp <e1> <e2>          compare (numerosity, ordinal, or surreal operands)
    :st <expr>              standard part
    :measure <set> <gamma>  gamma-measure of a set
    :ord <expr>             ordinal arithmetic (+ * natural, +. *. Cantor, ^<> power)
    :sur <a> (+|-|*) <b>    surreal arithmetic on sign strings / dyadics
    :simplest {..} {..}     earliest-born number between two dyadic sets
    :labelcheck <file> [literal|hereditary]   validate a pivotal-tree instance
    :assert_order <m1> < <m2>   extend the session order table (alpha^k universal)
    :mode_bb on|off         rewrite beth1 = beta + X on input
    :help  :quit

Every argument is read by `numerosity.parser`, and every command consumes its
whole line.  Script mode emits one JSON object per input line:
{"input":..., "kind":..., "value":..., "status":...}; exit 0 on success, 1 on
a parse error, 2 on an evaluation error, 3 if a :cmp was unknown under
--strict-cmp, which only script mode reads (precedence 1 > 2 > 3 when several
occur).
"""

from __future__ import annotations

import json
import sys
from typing import Optional, Union

from . import field, labtree, ordinals, sets, surreal
from .field import AxiomTable, Comparison, NumExpr, StandardPart
from .ordinals import Ord
from .parser import (
    ParseError,
    parse_comparands,
    parse_dyadic_sets,
    parse_labelcheck,
    parse_measure,
    parse_num,
    parse_order_assertion,
    parse_ordinal,
    parse_set,
    parse_surreal,
    parse_switch,
)


class Session:
    __slots__ = ("table", "done")

    def __init__(self, table: AxiomTable = field.DEFAULT_TABLE, done: bool = False):
        self.table, self.done = table, done


HELP_TEXT = (
    "commands: :num :cmp :st :measure :ord :sur :simplest :labelcheck "
    ":assert_order :mode_bb :help :quit"
)

_ORDER = {-1: field.LESS, 0: field.EQUAL, 1: field.GREATER}


def _answer(result: Union[Comparison, StandardPart]) -> dict:
    status = "unknown" if result.kind == field.UNKNOWN else "exact"
    return {"value": str(result), "status": status}


def _compare(a, b, table: AxiomTable) -> Comparison:
    if isinstance(a, NumExpr):
        return field.nf_cmp(field.apply_bb(a, table), field.apply_bb(b, table), table)
    sign = ordinals.ord_cmp(a, b) if isinstance(a, Ord) else surreal.se_cmp(a, b)
    return Comparison(_ORDER[sign])


def eval_line(line: str, session: Session) -> dict:
    """Evaluate one command line; mutates the session for :assert_order etc."""
    record = {"input": line, "kind": "report", "value": "", "status": "exact"}
    stripped = line.strip()
    if not stripped.startswith(":"):
        raise ParseError(0, "a command starting with ':'", line)
    verb, _, rest = stripped.partition(" ")
    rest = rest.strip()
    table = session.table

    if verb == ":quit":
        session.done = True
        record["value"] = "bye"
    elif verb == ":help":
        record["value"] = HELP_TEXT
    elif verb == ":mode_bb":
        session.table = table.with_bb(parse_switch(rest))
        record["value"] = f"bb_mode={rest}"
    elif verb == ":assert_order":
        a = parse_order_assertion(rest)
        if a.universal_alpha:
            session.table = table.with_alpha_dominated_by(a.rhs)
        else:
            session.table = table.with_order(a.lhs, a.rhs)
        record["value"] = "ok"
    elif verb == ":num":
        # No `:mode_bb` rewrite: set numerosities are built from alpha, beta, X
        # and w-powers by sums, products and powers that keep beth1 out.
        record.update(kind="numexpr", value=field.format_numexpr(sets.num(parse_set(rest))))
    elif verb == ":cmp":
        record.update(_answer(_compare(*parse_comparands(rest), table)))
    elif verb == ":st":
        record.update(_answer(field.standard_part(field.apply_bb(parse_num(rest), table), table)))
    elif verb == ":measure":
        e, gamma = parse_measure(rest)
        record.update(_answer(sets.measure(e, field.apply_bb(gamma, table), table)))
    elif verb == ":ord":
        record.update(kind="ordinal", value=ordinals.format_ordinal(parse_ordinal(rest)))
    elif verb == ":sur":
        record.update(kind="surreal", value=str(parse_surreal(rest)))
    elif verb == ":simplest":
        record.update(kind="surreal", value=str(surreal.simplest(*parse_dyadic_sets(rest))))
    elif verb == ":labelcheck":
        path, mode = parse_labelcheck(rest)
        with open(path, "r", encoding="utf-8") as fh:
            tree = labtree.parse_instance(fh.read())
        reports = labtree.check_instance(tree, mode)
        record.update(value="[" + ", ".join(r.to_json() for r in reports) + "]")
    else:
        raise ParseError(0, f"a known command (got {verb!r})", line)
    return record


_CORE_ERRORS = (ValueError, ZeroDivisionError, OSError)


def run_line(line: str, session: Session) -> tuple[dict, Optional[str]]:
    """Evaluate one line; returns (record, error_class) with class in
    {'parse', 'eval', None}."""
    try:
        return eval_line(line, session), None
    except ParseError as exc:
        value, err = f"ParseError: {exc}", "parse"
    except _CORE_ERRORS as exc:
        value, err = f"{type(exc).__name__}: {exc}", "eval"
    return {"input": line, "kind": "report", "value": value, "status": "error"}, err


def run_script(path: str, strict_cmp: bool = False, bb: bool = False,
               out=None) -> int:
    """Run a command file; one JSON line per input line; returns the exit code."""
    out = out if out is not None else sys.stdout
    session = Session(AxiomTable(bb_mode=bb))
    saw_parse = saw_eval = saw_unknown = False
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        record, err = run_line(line, session)
        if err == "parse":
            saw_parse = True
        elif err == "eval":
            saw_eval = True
        if (
            strict_cmp
            and line.startswith(":cmp")
            and record["status"] == "unknown"
        ):
            saw_unknown = True
        print(json.dumps(record, sort_keys=True), file=out)
        if session.done:
            break
    if saw_parse:
        return 1
    if saw_eval:
        return 2
    if saw_unknown:
        return 3
    return 0


def repl(session: Session, json_mode: bool = False) -> None:
    print("numerosity calculator; :help for commands, :quit to leave")
    while not session.done:
        try:
            line = input("num> ")
        except EOFError:
            break
        if not line.strip():
            continue
        record, _ = run_line(line, session)
        if json_mode:
            print(json.dumps(record, sort_keys=True))
        elif record["status"] == "error":
            print(record["value"])
        else:
            print(f"{record['value']}    [{record['kind']}, {record['status']}]")


def main(argv: Optional[list[str]] = None) -> int:
    import argparse  # only the command line needs it; a session starts without
    ap = argparse.ArgumentParser(prog="numerosity", description=__doc__)
    ap.add_argument("--script", help="run commands from a file and emit JSON lines")
    ap.add_argument("--strict-cmp", action="store_true",
                    help="with --script: exit 3 when a :cmp stays unknown")
    ap.add_argument("--bb", action="store_true", help="start with bb_mode on")
    ap.add_argument("--json", action="store_true", help="JSON output in the REPL")
    args = ap.parse_args(argv)
    if args.script:
        return run_script(args.script, args.strict_cmp, args.bb)
    repl(Session(AxiomTable(bb_mode=args.bb)), args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
