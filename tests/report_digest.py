"""Print the count and a sha256 of the reports of every benchmark case.

Usage:

    python tests/report_digest.py
    python tests/report_digest.py --list

For seeds 1-3 of the corpus-cli, conjugates and analyze-families
workloads of bench/inputs.py, every case is turned into the JSON report
that the CLI would write for it: `_classify_one` for the classify cases,
`_analyze_one` for the analyze cases, with the CLI's default options (and
`--dim` from the case). The reports are serialized canonically and hashed
in order. Two trees that print the same line produce byte-identical
reports on all of these inputs. The cases are read from bench.inputs,
which is left unchanged.

With --list, one line per report is printed first:
`<workload>/<seed>/<case key> <first 16 hex digits of the report's sha256>`,
then the same summary line. tests/report_digest.expected holds that
listing, so diffing it against a tree's listing names each report that a
change of the digest moves; tests/test_golden.py compares its seed-1
lines.
"""

from __future__ import annotations

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import inputs  # noqa: E402
from holonomy import cli, fileio  # noqa: E402

WORKLOADS = ("corpus-cli", "conjugates", "analyze-families")
SEEDS = (1, 2, 3)
OPTIONS = {
    "search_bound": 2,
    "format": "json",
    "suspension_factor": Fraction(2),
    "max_word_length": 6,
    "commutator_depth": 8,
    "dim": None,
    "output": None,
}


def report(case) -> dict:
    if case.argv is not None:  # a CLI case: classify --dim D ... FILE, or analyze ... FILE
        command = case.argv[0]
        rep = fileio.load_rep_file(ROOT / case.argv[-1])
    else:
        command = case.command
        rep = fileio.rep_from_document(case.doc)
    if command == "analyze":
        return cli._analyze_one(rep, OPTIONS)
    return cli._classify_one(rep, dict(OPTIONS, dim=case.dim))


def listing(seeds=SEEDS):
    """(listing line, canonical report bytes) of every case of the seeds,
    in digest order."""
    for workload in WORKLOADS:
        for seed in seeds:
            for cycle in inputs.make_cycles(workload, seed, ROOT):
                for case in cycle:
                    data = fileio.dumps_canonical(report(case)).encode("utf-8")
                    yield f"{workload}/{seed}/{case.key} {hashlib.sha256(data).hexdigest()[:16]}", data


def main(argv: list[str]) -> int:
    listed = argv == ["--list"]
    if argv and not listed:
        print("usage: python tests/report_digest.py [--list]", file=sys.stderr)
        return 2
    h = hashlib.sha256()
    count = 0
    for line, data in listing():
        h.update(data)
        count += 1
        if listed:
            print(line)
    print(f"{count} reports sha256:{h.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
