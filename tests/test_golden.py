"""Script-mode records of the benchmark corpus match the committed golden file.

`tests/golden_corpus.txt.gz` holds the output of `tools/corpus_json.py`: one
line per corpus and `EXTRA` line with its workload, index, error class and
record.  A change that moves an answer, a printed form or an error text fails
here; `python3 tools/corpus_json.py --diff` prints each moved record beside
its corpus line's spec.  If the move is intended, rewrite the file with
`python3 tools/corpus_json.py --write` and list the moved records in
`CHANGES.md`.
"""

from __future__ import annotations

import gzip
import importlib.util
from itertools import zip_longest
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "corpus_json.py"


def _tool():
    spec = importlib.util.spec_from_file_location("corpus_json", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_records_match_golden():
    tool = _tool()
    with gzip.open(tool.GOLDEN, "rt", encoding="utf-8") as fh:
        want = fh.read().splitlines(keepends=True)
    got = tool.records()
    diffs = [(w, g) for w, g in zip_longest(want, got) if w != g]
    shown = "".join(f"\n  golden: {w!r}\n  now:    {g!r}" for w, g in diffs[:3])
    assert not diffs, f"{len(diffs)} of {len(want)} golden records differ; the first:{shown}"


def test_diff_prints_moved_records_beside_their_spec(monkeypatch, capsys):
    tool = _tool()
    with gzip.open(tool.GOLDEN, "rt", encoding="utf-8") as fh:
        golden = fh.read().splitlines(keepends=True)
    moved = golden[:]
    i = next(k for k, r in enumerate(moved) if r.startswith("algebra-deep\t") and '":cmp ' in r)
    moved[i] = moved[i].replace('"report"', '"moved"')
    monkeypatch.setattr(tool, "records", lambda: moved + ["extra\t99999\t-\t{}\n"])
    assert tool.diff() == 1
    out = capsys.readouterr()
    head, old, new, extra, none, added = out.out.splitlines()
    workload, index, spec = head.split("\t")
    assert (workload, int(index)) == ("algebra-deep", int(moved[i].split("\t")[1]))
    assert spec.startswith("cmp ")
    assert old == "  golden: " + golden[i].split("\t", 2)[2].rstrip("\n")
    assert new == "  now: " + moved[i].split("\t", 2)[2].rstrip("\n")
    assert (extra, none, added) == ("extra\t99999\t-", "  golden: (none)", "  now: -\t{}")
    assert out.err == f"2 of {len(golden)} golden records differ\n"
