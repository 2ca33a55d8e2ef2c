"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. All checks
are exact (no tolerances); the stated runtime budgets are asserted.
"""

import io
import json
import random
import time
from fractions import Fraction

from holonomy.classify import classify_dim3
from holonomy.cli import run_batch
from holonomy.commutant import (
    AlgebraBasis,
    InvariantFlagCertificate,
    RotationalElementCertificate,
    FixedProjectivePointCertificate,
    centralizer_algebra,
    dickson_radical,
    matrix_centralizer,
    orbit_dimension_at,
    verify_flag_invariant,
)
from holonomy.classify import (
    CaseAnalysisError,
    classify_dim2,
    flag_from_nilpotent_element,
    flag_from_nilpotent_pair,
)
from holonomy.fileio import dumps_canonical, load_rep_file, rep_to_document, save_rep_file
from holonomy.linalg import RatMatrix
from holonomy.representation import (
    benzecri_suspend,
    canonicalize_projective_class,
    embed_linear_as_affine,
    radiant_fixed_point,
    validate_rep,
)

from helpers import (
    CORPUS,
    algebra_closure_of,
    assert_dim3_invariance,
    centralizer_oracle,
    frac_rows,
    quotient_regular_radical_dim,
    random_int_matrix,
    random_invertible,
    random_unimodular,
    vectorize,
)


def report(number: int, ok: bool, message: str, elapsed: float | None = None) -> None:
    status = "PASS" if ok else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {number}: {status} - {message}{timing}")
    assert ok


def unit4(i, j):
    rows = [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(4)] for r in range(4)]
    return frac_rows(rows)


def test_criterion_1_centralizer_oracle_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(50):
        d = rng.randint(2, 5)
        gens = [random_invertible(rng, d) for _ in range(rng.randint(1, 3))]
        mine = matrix_centralizer(gens, d).span
        oracle = centralizer_oracle(gens, d)
        assert mine == oracle
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        checked == 50 and elapsed < 10.0,
        f"centralizer span equals the dense-nullspace oracle on {checked} random representations",
        elapsed,
    )


def _random_closure_seeds(rng, style):
    if style == 0:  # dense: usually closes to the full algebra
        return [random_int_matrix(rng, 4, -2, 2) for _ in range(rng.randint(1, 2))]
    p = random_unimodular(rng, 4)
    pinv = p.inverse()
    if style == 1:  # conjugated triangular: nontrivial radical
        rows = [
            [rng.randint(-2, 2) if c >= r else 0 for c in range(4)] for r in range(4)
        ]
        return [p * frac_rows(rows) * pinv]
    # conjugated idempotent-plus-nilpotent span
    seeds = [unit4(1, 1) + unit4(2, 2), unit4(1, 2)]
    if rng.random() < 0.5:
        seeds.append(unit4(3, 4))
    return [p * s * pinv for s in seeds]


def test_criterion_2_radical_soundness():
    rng = random.Random(103)
    start = time.perf_counter()
    checked = 0
    nontrivial_radicals = 0
    while checked < 30:
        seeds = _random_closure_seeds(rng, checked % 3)
        algebra = algebra_closure_of(seeds, 4, include_identity=rng.random() < 0.5)
        decomp = dickson_radical(algebra)
        if decomp.radical.dim:
            nontrivial_radicals += 1
        for r in decomp.radical.basis:
            assert (r * r * r * r).is_zero(), "radical element with nonzero fourth power"
        span = algebra.span
        rad_span = decomp.radical.span
        for r in decomp.radical.basis:
            for b in algebra.basis:
                assert rad_span.contains(vectorize(b * r))
                assert rad_span.contains(vectorize(r * b))
        assert quotient_regular_radical_dim(algebra, decomp) == 0
        assert span.dim == decomp.radical.dim + decomp.quotient_dim
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        elapsed < 10.0 and nontrivial_radicals >= 10,
        f"{checked} closure-generated subalgebras ({nontrivial_radicals} with nonzero radical):"
        " radical nilpotent, two-sided, semisimple quotient",
        elapsed,
    )


def _random_square_zero_rank2(rng):
    p = random_unimodular(rng, 4)
    return p * (unit4(1, 3) + unit4(2, 4)) * p.inverse()


def _random_invertible_commutant_elements(rng, mats, count):
    cent = matrix_centralizer(mats, 4)
    out = []
    attempts = 0
    while len(out) < count and attempts < 500:
        attempts += 1
        m = RatMatrix.zeros(4, 4)
        for b in cent.basis:
            c = rng.randint(-2, 2)
            if c:
                m = m + b.scale(c)
        if not m.is_zero() and m.det() != 0:
            out.append(m)
    return out


def test_criterion_3_nilpotent_flag_suite():
    rng = random.Random(107)
    start = time.perf_counter()
    pairs_done = 0
    while pairs_done < 100:
        a = _random_square_zero_rank2(rng)
        b = _random_square_zero_rank2(rng)
        if a * b == b * a:
            continue
        try:
            flag = flag_from_nilpotent_pair(a, b)
        except CaseAnalysisError:
            continue
        assert flag.dims == (1, 2, 3)
        witnesses = _random_invertible_commutant_elements(rng, [a, b], 10)
        assert len(witnesses) == 10
        rep = validate_rep(
            [(f"w{i}", w) for i, w in enumerate(witnesses)], "linear", 4
        )
        ok, _ = verify_flag_invariant(rep, flag)
        assert ok
        pairs_done += 1
    singles_done = 0
    while singles_done < 100:
        seed = unit4(1, 2) + unit4(2, 3) + (unit4(3, 4) if rng.random() < 0.5 else RatMatrix.zeros(4, 4))
        p = random_unimodular(rng, 4)
        a = p * seed * p.inverse()
        if (a * a).is_zero():
            continue
        flag = flag_from_nilpotent_element(a)
        assert flag.dims == (1, 2, 3)
        witnesses = _random_invertible_commutant_elements(rng, [a], 10)
        assert len(witnesses) == 10
        rep = validate_rep(
            [(f"w{i}", w) for i, w in enumerate(witnesses)], "linear", 4
        )
        ok, _ = verify_flag_invariant(rep, flag)
        assert ok
        singles_done += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 30.0,
        "100 square-zero pairs and 100 nonzero-square nilpotents yield verified (1,2,3) flags",
        elapsed,
    )


def test_criterion_4_suspension_contract():
    rng = random.Random(109)
    start = time.perf_counter()
    two_i = RatMatrix.identity(4).scale(2)
    for _ in range(20):
        gens = [
            canonicalize_projective_class(random_invertible(rng, 4))
            for _ in range(rng.randint(1, 3))
        ]
        rep = validate_rep(
            [(f"g{i}", g) for i, g in enumerate(gens)], "projective-class", 3
        )
        susp = benzecri_suspend(rep)
        assert two_i in susp.matrices
        for m in susp.matrices:
            assert m * two_i == two_i * m
        without_deck = matrix_centralizer(list(susp.matrices[:-1]), 4)
        with_deck = centralizer_algebra(susp)
        assert without_deck.dim == with_deck.dim
        assert without_deck.basis == with_deck.basis
        assert radiant_fixed_point(embed_linear_as_affine(susp)) == (0, 0, 0, 0)
    elapsed = time.perf_counter() - start
    report(
        4,
        True,
        "20 random suspensions contain a central doubling, keep the centralizer, fix the origin",
        elapsed,
    )


def test_criterion_5_classification_invariance():
    rng = random.Random(113)
    start = time.perf_counter()
    corpus = [
        "dim3_torus_translations.json",
        "dim3_trivial_injective.json",
        "dim3_scalar_commutant.json",
    ]
    trials = 20
    for name in corpus:
        assert_dim3_invariance(load_rep_file(CORPUS / name), rng, name, trials)
    elapsed = time.perf_counter() - start
    report(
        5,
        True,
        f"outcome labels invariant under conjugation, rescaling, permutation ({trials} trials each)",
        elapsed,
    )


def test_criterion_6_worked_corpus():
    start = time.perf_counter()
    out_a = classify_dim2(load_rep_file(CORPUS / "dim2_trivial.json"))
    assert out_a.conclusion == "TorusOrSphere"
    assert any(isinstance(c, FixedProjectivePointCertificate) for c in out_a.certificates)

    out_b = classify_dim3(load_rep_file(CORPUS / "dim3_torus_translations.json"))
    assert out_b.conclusion == "SolvableFundamentalGroup"
    flags = [c for c in out_b.certificates if isinstance(c, InvariantFlagCertificate)]
    assert flags and flags[0].flag.complete

    out_c = classify_dim3(load_rep_file(CORPUS / "dim3_trivial_injective.json"))
    assert out_c.conclusion == "SphericalManifold|S2xS1|TorusBundleFiniteCover"
    assert any(isinstance(c, RotationalElementCertificate) for c in out_c.certificates)

    out_d = classify_dim3(load_rep_file(CORPUS / "dim3_scalar_commutant.json"))
    assert out_d.branch == "AutTooSmall"
    assert out_d.conclusion == "Undetermined"

    # determinism of the full pipeline
    again = classify_dim3(load_rep_file(CORPUS / "dim3_torus_translations.json"))
    assert again == out_b
    elapsed = time.perf_counter() - start
    report(6, True, "worked corpus verdicts match: torus/sphere, solvable, disjunction, too-small", elapsed)


def test_criterion_7_orbit_dimensions():
    rng = random.Random(127)
    start = time.perf_counter()
    full = AlgebraBasis.from_span(
        [unit4(i, j) for i in range(1, 5) for j in range(1, 5)], 4
    )
    scalars = AlgebraBasis.from_span([RatMatrix.identity(4)], 4)
    for _ in range(25):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        if all(v == 0 for v in x):
            continue
        assert orbit_dimension_at(full, x) == 3
        assert orbit_dimension_at(scalars, x) == 0
    elapsed = time.perf_counter() - start
    report(7, True, "orbit dimension 3 everywhere for the full commutant, 0 for scalars", elapsed)


def test_criterion_8_cli_roundtrip_and_determinism(tmp_path):
    start = time.perf_counter()
    for path in sorted(CORPUS.glob("*.json")):
        rep = load_rep_file(path)
        out = tmp_path / path.name
        save_rep_file(rep, out)
        assert load_rep_file(out) == rep
        assert dumps_canonical(rep_to_document(rep)) == dumps_canonical(
            rep_to_document(load_rep_file(out))
        )
    base_options = {
        "format": "json",
        "search_bound": 2,
        "suspension_factor": Fraction(2),
        "max_word_length": 6,
        "commutator_depth": 8,
        "dim": None,
        "output": None,
    }
    for path in sorted(CORPUS.glob("*.json")):
        rep = load_rep_file(path)
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            opts = dict(base_options, dim=rep.dimension)
            assert run_batch([path], "classify", opts, buf) == 0
            runs.append(buf.getvalue())
        assert runs[0] == runs[1], f"report for {path.name} not deterministic"
        json.loads(runs[0])  # valid JSON document
    elapsed = time.perf_counter() - start
    report(8, True, "corpus round-trips bit-exactly and reports are byte-identical", elapsed)
