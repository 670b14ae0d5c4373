"""Script-mode JSON of the benchmark corpus, for byte-level comparison of two checkouts.

Usage, from the root of a checkout:

    python3 tools/corpus_json.py > corpus.txt

For each workload of `perfbench/corpus.py` (seed 1, 12 blocks) every body line
runs through `numerosity.cli.run_line` on one `Session`, and one output line
is written per input line: the workload, the line index and the error class
(`parse`, `eval`, `raised` or `-`), tab-separated, then the record exactly as
script mode prints it.  Tail lines are skipped, since they may not end
(defect C).  The `:labelcheck` instance files are written to a temporary
directory, which is the working directory while the lines run.  The library
is imported from the `src/` of the checkout this script lives in, so running
it in two checkouts and diffing the outputs shows every changed answer.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED, BLOCKS = 1, 12


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import corpus
    from numerosity import cli, labtree

    out = sys.stdout
    with tempfile.TemporaryDirectory() as work:
        with open(os.path.join(work, "standard.txt"), "w", encoding="utf-8") as fh:
            fh.write(labtree.format_instance(labtree.standard_instance()))
        for name, text in corpus.SMALL_INSTANCES.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        here = os.getcwd()
        os.chdir(work)
        try:
            for workload in sorted(corpus.BLOCKS):
                body, _, _ = corpus.generate(workload, SEED, BLOCKS)
                session = cli.Session()
                for i, line in enumerate(body):
                    try:
                        record, err = cli.run_line(line.text, session)
                    except Exception as exc:  # a line escaping run_line is itself a finding
                        record = {"input": line.text, "status": "error",
                                  "value": f"{type(exc).__name__}: {exc}"}
                        err = "raised"
                    out.write(f"{workload}\t{i}\t{err or '-'}\t"
                              f"{json.dumps(record, sort_keys=True)}\n")
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    sys.exit(main())
