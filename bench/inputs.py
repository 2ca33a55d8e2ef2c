"""Seeded inputs for the three workloads.

Everything here runs before the timed region. The same seed gives the same
cases, and `digest` fingerprints them so that two runs can be shown to
have measured the same inputs. Generation uses bench.exact only, never
the library under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import exact

# Hand-written expectations for the worked corpus, from README.md and
# acceptance criterion 6 of tests/test_acceptance.py; branch None means
# only the conclusion is checked.
DISJUNCTION = "SphericalManifold|S2xS1|TorusBundleFiniteCover"
CORPUS_EXPECT = {
    "dim2_trivial": (2, None, "TorusOrSphere"),
    # classify_dim2 takes the radical branch when the radical is nonzero,
    # as it is for two commuting translations.
    "dim2_translation_torus": (2, "SolvableNoncommutativeAut", "TorusOrSphere"),
    "dim3_torus_translations": (3, "CommutativeAut", "SolvableFundamentalGroup"),
    "dim3_trivial_injective": (3, None, DISJUNCTION),
    "dim3_scalar_commutant": (3, "AutTooSmall", "Undetermined"),
}
# Every corpus group is solvable with derived length at most 2 (trivial,
# abelian, or diagonal-by-cyclic monomial), so the analyze probe reaches an
# all-identity level well inside the default depth.
CORPUS_ANALYZE_VERDICT = "yes"
# The corpus documents with generators; conjugating the others is a no-op.
CONJUGATE_SOURCES = ("dim2_translation_torus", "dim3_torus_translations", "dim3_scalar_commutant")
SCALES = (Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-5, 3))

# Distinct cases per workload; a run that outlasts them starts over.
CONJUGATES_PER_SOURCE = 60
FAMILY_CYCLES = 4
FAMILY_DIMS = (3, 4, 5, 6)


@dataclass
class Case:
    """One operation's input and what its output must satisfy."""

    key: str
    family: str
    command: str  # "cli", "classify" or "analyze"
    dim: int
    doc: dict | None = None  # representation document (library cases)
    argv: list[str] | None = None  # CLI arguments (cli cases)
    matrices: list = field(default_factory=list)  # Fraction rows, for the oracle
    expect: dict = field(default_factory=dict)


def _entry(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _document(kind: str, dimension: int, mats, assumptions=None, labels=None) -> dict:
    labels = labels or [f"g{i}" for i in range(len(mats))]
    return {
        "schema_version": "1",
        "dimension": dimension,
        "kind": kind,
        "generators": [
            {"label": lab, "matrix": [[_entry(x) for x in row] for row in m]}
            for lab, m in zip(labels, mats)
        ],
        "assumptions": dict(assumptions or {}),
    }


def _fractions(matrix_json) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in matrix_json]


def load_corpus(root: Path) -> dict[str, dict]:
    return {
        name: json.loads((root / "corpus" / f"{name}.json").read_text(encoding="utf-8"))
        for name in CORPUS_EXPECT
    }


def corpus_cli_cases(root: Path, rng: random.Random) -> list[Case]:
    """The ten CLI invocations over the worked corpus, in a seeded order."""
    cases = []
    for name, doc in load_corpus(root).items():
        dim, branch, conclusion = CORPUS_EXPECT[name]
        mats = [_fractions(g["matrix"]) for g in doc["generators"]]
        size = dim + 1
        expect = {"commutant_dim": exact.commutant_dim(mats, size) if mats else size * size}
        path = str(Path("corpus") / f"{name}.json")
        cases.append(Case(
            f"cli/classify/{name}", name, "cli", dim,
            argv=["classify", "--dim", str(dim), "--format", "json", path], matrices=mats,
            expect=dict(expect, branch=branch, conclusion=conclusion),
        ))
        cases.append(Case(
            f"cli/analyze/{name}", name, "cli", dim,
            argv=["analyze", "--format", "json", path], matrices=mats,
            expect=dict(expect, derived=CORPUS_ANALYZE_VERDICT),
        ))
    rng.shuffle(cases)
    return cases


def _unimodular(rng: random.Random, n: int, ops: int = 8):
    """A product of elementary row additions and swaps, with its inverse."""
    p, q = exact.identity(n), exact.identity(n)
    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            p[i], p[j] = p[j], p[i]
            for row in q:
                row[i], row[j] = row[j], row[i]
        else:
            c = rng.choice((-2, -1, 1, 2))
            p[i] = [a + c * b for a, b in zip(p[i], p[j])]
            for row in q:
                row[j] -= c * row[i]
    return p, q


def conjugate_cases(root: Path, rng: random.Random) -> list[Case]:
    """Each case conjugates a non-trivial corpus document by a seeded
    unimodular matrix (as acceptance criterion 5 does), rescales one
    generator, which must not change its projective class, and permutes the
    generators. Consecutive cases cycle through the sources."""
    corpus = load_corpus(root)
    cases = []
    for k in range(CONJUGATES_PER_SOURCE):
        for name in CONJUGATE_SOURCES:
            doc = corpus[name]
            dim, branch, conclusion = CORPUS_EXPECT[name]
            p, q = _unimodular(rng, dim + 1)
            mats = [exact.mat_mul(exact.mat_mul(p, _fractions(g["matrix"])), q) for g in doc["generators"]]
            idx = rng.randrange(len(mats))
            scale = rng.choice(SCALES)
            mats[idx] = [[scale * x for x in row] for row in mats[idx]]
            labels = [g["label"] for g in doc["generators"]]
            order = list(range(len(mats)))
            rng.shuffle(order)
            mats = [mats[i] for i in order]
            labels = [labels[i] for i in order]
            cases.append(Case(
                f"conj/{name}/{k}", name, "classify", dim,
                doc=_document("projective-class", dim, mats, doc["assumptions"], labels),
                matrices=mats,
                expect={"branch": branch, "conclusion": conclusion},
            ))
    return cases


def _unipotent_pair(n: int):
    """A regular unipotent Jordan block and a dense unipotent partner that
    does not commute with it."""
    a = [[Fraction(int(j == i or j == i + 1)) for j in range(n)] for i in range(n)]
    b = [[Fraction(1 if j == i else (-1) ** (i + j) if j > i else 0) for j in range(n)] for i in range(n)]
    b[0][1] = Fraction(2)
    return a, b


def _rotation_pair(n: int):
    """Rotation block diag(R, T) with R in the circle-commuting family
    {x I + y J} and T upper triangular with +-1 on the diagonal."""
    a = [[Fraction(0)] * n for _ in range(n)]
    b = [[Fraction(0)] * n for _ in range(n)]
    a[0][:2], a[1][:2] = [Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]
    b[0][:2], b[1][:2] = [Fraction(1), Fraction(-1)], [Fraction(1), Fraction(1)]
    for i in range(2, n):
        a[i][i] = Fraction((-1) ** i)
        b[i][i] = Fraction(1)
        for j in range(i + 1, n):
            a[i][j] = Fraction(1)
            b[i][j] = Fraction((-1) ** j)
    return a, b


def _generic_pair(rng: random.Random, n: int):
    """Random invertible integer pair, entries in [-3, 3], whose commutant
    is only the scalars."""
    while True:
        mats = []
        while len(mats) < 2:
            m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
            if exact.rank(m) == n:
                mats.append(m)
        if exact.commutant_dim(mats, n) == 1:
            return mats


def family_cases(rng: random.Random) -> list[Case]:
    """Cycles of analyze inputs: per dimension 3..6 one unipotent and one
    rotation-block case, then one generic case whose dimension rotates.

    Each structured (family, dimension) pair is one fixed group, conjugated
    by a seeded diagonal sign matrix, which keeps its shape and the size of
    every entry. The probe is equivariant under that conjugation, so a
    structured case costs the same for every seed, which keeps the middle
    quantiles of this small workload steady. The generic pairs are drawn
    afresh for every seed.
    """
    cases = []
    first_generic = rng.randrange(len(FAMILY_DIMS))
    for cycle in range(FAMILY_CYCLES):
        for n in FAMILY_DIMS:
            for family, pair, expect in (
                ("unipotent", _unipotent_pair(n), {"derived": "yes"}),
                ("rotation", _rotation_pair(n), {"derived": "yes", "rotational": True}),
            ):
                signs = [rng.choice((-1, 1)) for _ in range(n)]
                mats = [[[signs[i] * signs[j] * x for j, x in enumerate(row)] for i, row in enumerate(m)]
                        for m in pair]
                cases.append(_family_case(f"fam/{family}/{n}/{cycle}", family, n, mats, expect))
        n = FAMILY_DIMS[(first_generic + cycle) % len(FAMILY_DIMS)]
        cases.append(_family_case(f"fam/generic/{n}/{cycle}", "generic", n, _generic_pair(rng, n),
                                  {"derived_not": "yes"}))
    return cases


def _family_case(key, family, n, mats, expect) -> Case:
    expect = dict(expect, commutant_dim=exact.commutant_dim(mats, n))
    return Case(key, family, "analyze", n, doc=_document("linear", n, mats), matrices=mats,
                expect=expect)


def make_cycles(workload: str, seed: int, root: Path) -> list[list[Case]]:
    """The workload's cases in cycles; a run measures whole cycles, so every
    run sees the same mix of case kinds."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-cli":
        return [corpus_cli_cases(root, rng)]
    if workload == "conjugates":
        cases = conjugate_cases(root, rng)
        width = len(CONJUGATE_SOURCES)
    elif workload == "analyze-families":
        cases = family_cases(rng)
        width = 2 * len(FAMILY_DIMS) + 1
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [cases[i:i + width] for i in range(0, len(cases), width)]


def digest(cases: list[Case], root: Path) -> str:
    """sha256 over every case's document or argv, plus the corpus bytes the
    CLI cases read."""
    h = hashlib.sha256()
    for c in cases:
        h.update(json.dumps([c.key, c.doc, c.argv], sort_keys=True).encode("utf-8"))
        if c.argv is not None:
            h.update((root / c.argv[-1]).read_bytes())
    return "sha256:" + h.hexdigest()
