"""Script-mode records of the benchmark corpus match the committed golden file.

`tests/golden_corpus.txt.gz` holds the output of `tools/corpus_json.py`: one
line per corpus and `EXTRA` line with its workload, index, error class and
record.  A change that moves an answer, a printed form or an error text fails
here; if the move is intended, rewrite the file with
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
