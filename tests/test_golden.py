"""Corpus CLI reports must stay byte-identical.

tests/golden/ holds the JSON and text classify and analyze reports, and the
suspended document that `holonomy suspend` writes to stdout, of every
corpus document and of the documents in tests/data/: conjugated
corpus groups whose certificates contain non-integer fractions, and
dimension-3 documents whose classifications reach branches no corpus
document reaches. J3(1) + [1] and J3(1) + [2] reach the
noncommutative-radical flag and the zero set of dimension 2 meeting the
field's image in a line. The four dim3_zero_set_* documents without
declarations reach the zero set that equals the field's image (through
the one-dimensional reduction), the zero set complementary to the image
with a non-scalar and with scalar restrictions, and the zero set of
dimension 3 with a second field restricting nontrivially, realized after
a radial shift. Four more documents pin branches of the decision tree that
nothing else reaches: dim3_anticommuting_radical (I plus right
multiplication by e1 and by e2 on the exterior algebra of Q^2) has a radical
of square-zero elements and reaches the noncommuting-pair flag;
dim3_mixed_radical (diag(2, 3, 3, 5) and I + E12) reaches the "noncommutative
only through mixed radical terms" note; dim3_quartic_field (the companion
matrix of x^4 - 2) reaches the "no zero set of dimension 1 to 3" note; and
dim2_cubic_field (the companion matrix of x^3 - 2, declared compact,
connected and oriented) reaches the dimension-2 "found no witness" branch.
The corpus JSON reports and the text classify reports were captured
before the exact kernels moved to integer rows, the text analyze reports
before the classify pipeline was merged, the conjugated tests/data reports
before subspaces moved to integer rows, the J3(1) reports before
polynomials moved to integer coefficients, the dim3_zero_set_* reports
(other than dim3_zero_set_line) before the zero-set stage dropped its shift
lattice and its equal-diagonal-block check, and the reports of the four
documents above before the case analysis dropped its unreachable
fallbacks (the dim3_quartic_field classify reports again when that note
stopped naming the deleted shift bounds), and the suspend documents before
the suspension dropped its sphere-lift sign option. An output change shows up here as a byte difference; an intended
one replaces the snapshot in the same change.

The reports of the seed-1 benchmark cases are checked the same way, by
their lines in tests/report_digest.expected (see tests/report_digest.py);
a failure names each report that moved.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from holonomy import cli

import report_digest
from helpers import CORPUS

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent / "data"


def _invocations():
    for path in sorted(CORPUS.glob("*.json")) + sorted(DATA.glob("*.json")):
        dim = str(json.loads(path.read_text(encoding="utf-8"))["dimension"])
        yield f"{path.stem}.classify.json", ["classify", "--dim", dim, "--format", "json", str(path)]
        yield f"{path.stem}.analyze.json", ["analyze", "--format", "json", str(path)]
        yield f"{path.stem}.analyze.txt", ["analyze", "--format", "text", str(path)]
        yield f"{path.stem}.classify.txt", ["classify", "--dim", dim, "--format", "text", str(path)]
        yield f"{path.stem}.suspend.json", ["suspend", str(path)]


@pytest.mark.parametrize("name,argv", [pytest.param(n, a, id=n) for n, a in _invocations()])
def test_report_bytes(name, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    assert out.getvalue() == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_snapshot_is_checked():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(name for name, _ in _invocations())


def test_seed_one_reports_keep_their_digest_lines():
    expected = (Path(__file__).resolve().parent / "report_digest.expected").read_text(encoding="utf-8")
    seed_one = [line for line in expected.splitlines() if line.split("/")[1:2] == ["1"]]
    assert len(seed_one) == 226
    assert [line for line, _ in report_digest.listing(seeds=(1,))] == seed_one
