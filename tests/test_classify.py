import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from holonomy import classify as classify_module
from holonomy import cli, commutant, linalg, polys
from holonomy.classify import (
    BRANCH_AUT_TOO_SMALL,
    BRANCH_COMMUTATIVE,
    BRANCH_NOT_SOLVABLE,
    CONCLUSION_SOLVABLE_PI1,
    CONCLUSION_T2_BUNDLE,
    CONCLUSION_TORUS_OR_SPHERE,
    CONCLUSION_UNDETERMINED,
    DIM3_DISJUNCTION,
    CaseAnalysisError,
    _finalize,
    classify_dim2,
    classify_dim3,
    flag_from_nilpotent_element,
    flag_from_nilpotent_pair,
    zero_set_of_affine_field,
)
from holonomy.commutant import (
    FixedProjectivePointCertificate,
    InvariantFlagCertificate,
    InvariantSubspaceCertificate,
    RotationalElementCertificate,
    centralizer_algebra,
    dickson_radical,
    find_rotational_element,
    invariant_flag_search,
    matrix_centralizer,
    verify_certificate,
)
from holonomy.linalg import RatMatrix, Subspace, image_of, kernel_of
from holonomy.representation import (
    AssumptionSet,
    ValidationError,
    benzecri_suspend,
    validate_rep,
)

from helpers import (
    CORPUS,
    assert_dim3_invariance,
    conjugate_representation,
    equal_diagonal_blocks,
    frac_rows,
    random_unimodular,
    solve_restrict_to_subspace,
)

from holonomy.fileio import load_rep_file

DATA = Path(__file__).resolve().parent / "data"


def unit(i, j):
    rows = [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(4)] for r in range(4)]
    return frac_rows(rows)


def span4(*vecs):
    return Subspace.span(list(vecs), 4)


class TestNilpotentPairFlag:
    def test_worked_pair(self):
        a = unit(1, 3) + unit(2, 4)
        b = unit(3, 2) + unit(1, 4)
        assert a * b == unit(1, 2)
        assert b * a == unit(3, 4)
        flag = flag_from_nilpotent_pair(a, b)
        assert flag.chain == (
            span4([1, 0, 0, 0]),
            span4([1, 0, 0, 0], [0, 1, 0, 0]),
            span4([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]),
        )

    def test_commuting_pair_rejected(self):
        a = unit(1, 3) + unit(2, 4)
        b = unit(1, 2) + unit(3, 4)
        assert a * b == b * a == unit(1, 4)
        with pytest.raises(ValueError, match="commutes"):
            flag_from_nilpotent_pair(a, b)

    def test_kernel_dim_three_rejected(self):
        a = unit(1, 2)  # square zero, kernel dim 3
        b = unit(2, 3)
        assert (a * a).is_zero() and (b * b).is_zero() and a * b != b * a
        with pytest.raises(CaseAnalysisError, match="dimension 3"):
            flag_from_nilpotent_pair(a, b)

    def test_trivial_kernel_intersection_rejected(self):
        a = unit(1, 3) + unit(2, 4)
        b = unit(3, 1) + unit(4, 2)
        assert (a * a).is_zero() and (b * b).is_zero() and a * b != b * a
        with pytest.raises(CaseAnalysisError, match="trivially"):
            flag_from_nilpotent_pair(a, b)

    def test_nonzero_square_rejected(self):
        j = unit(1, 2) + unit(2, 3)
        with pytest.raises(ValueError, match="squares"):
            flag_from_nilpotent_pair(j, unit(1, 3))


class TestNilpotentElementFlag:
    def test_regular_nilpotent(self):
        a = unit(1, 2) + unit(2, 3) + unit(3, 4)
        flag = flag_from_nilpotent_element(a)
        assert flag.chain == (
            span4([1, 0, 0, 0]),
            span4([1, 0, 0, 0], [0, 1, 0, 0]),
            span4([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]),
        )

    def test_kernel_dim_two(self):
        a = unit(1, 2) + unit(2, 3)  # kills e1? no: sends e2->e1, e3->e2; kernel e1, e4
        flag = flag_from_nilpotent_element(a)
        assert flag.chain == (
            span4([1, 0, 0, 0]),
            span4([1, 0, 0, 0], [0, 0, 0, 1]),
            span4([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]),
        )

    def test_square_zero_rejected(self):
        with pytest.raises(ValueError, match="square vanishes"):
            flag_from_nilpotent_element(unit(1, 3) + unit(2, 4))

    def test_non_nilpotent_rejected(self):
        with pytest.raises(ValueError, match="not nilpotent"):
            flag_from_nilpotent_element(RatMatrix.identity(4))


class TestZeroSet:
    def test_radial_field_vanishes_at_origin(self):
        # I is invertible, so 0 is no shift; I - I vanishes everywhere
        assert zero_set_of_affine_field(RatMatrix.identity(4)) == [-1]

    # 2 x 2 blocks without rational eigenvalues: +-sqrt(2), +-i, golden ratio
    IRRATIONAL_BLOCKS = ([[0, 2], [1, 0]], [[0, -1], [1, 0]], [[1, 1], [1, 0]])

    def test_shifts_are_the_negated_rational_eigenvalues(self):
        rng = random.Random(17)
        for _ in range(30):
            # p t p^-1 with t block upper triangular: its rational eigenvalues
            # are the 1 x 1 diagonal blocks of t
            t = [[rng.randint(-2, 2) if j > i else 0 for j in range(4)] for i in range(4)]
            eigen = set()
            i = 0
            while i < 4:
                if i < 3 and rng.random() < 0.3:
                    block = rng.choice(self.IRRATIONAL_BLOCKS)
                    for a in range(2):
                        t[i + a][i : i + 2] = block[a]
                    i += 2
                else:
                    t[i][i] = rng.randint(-2, 2)
                    eigen.add(t[i][i])
                    i += 1
            p = random_unimodular(rng, 4)
            lin = p * frac_rows(t) * p.inverse()
            shifts = zero_set_of_affine_field(lin)
            # 0 first when lin is singular, then increasing
            assert shifts == [0] * (0 in eigen) + sorted(-e for e in eigen if e != 0)
            for c in shifts:
                assert kernel_of(lin + RatMatrix.identity(4).scale(c)).dim >= 1
            # every other shift leaves the origin as the only zero
            for c in range(-3, 4):
                if c not in shifts:
                    assert kernel_of(lin + RatMatrix.identity(4).scale(c)).dim == 0

    def test_rank_one_projection_kernel(self):
        lin = frac_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
        assert zero_set_of_affine_field(lin) == [0, -1]
        assert kernel_of(lin) == span4([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0])

    def test_zero_field_and_rotation(self):
        # the zero field vanishes everywhere with no shift; a rotation has no
        # rational eigenvalue, so it vanishes only at the origin for every c
        assert zero_set_of_affine_field(RatMatrix.zeros(2, 2)) == [0]
        assert zero_set_of_affine_field(frac_rows([[0, -1], [1, 0]])) == []


class TestScalarOn:
    def test_scalar_and_jordan_restrictions(self):
        s = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
        assert classify_module._scalar_on(frac_rows([[2, 0, 0], [0, 2, 0], [0, 0, 5]]), s) == 2
        assert classify_module._scalar_on(frac_rows([[2, 1, 0], [0, 2, 0], [0, 0, 5]]), s) is None
        # the denominator of y enters the scalar
        half = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 3]]).scale(Fraction(1, 2))
        assert classify_module._scalar_on(half, s) == Fraction(1, 2)

    def test_noninvariant_line_is_not_scalar(self):
        # the rotation sends e1 to e2, off span(e1)
        rot = frac_rows([[0, -1], [1, 0]])
        assert classify_module._scalar_on(rot, Subspace.span([[1, 0]], 2)) is None
        # a line through a vector with a leading zero: the pivot is not 0
        assert classify_module._scalar_on(frac_rows([[3, 0], [0, -2]]), Subspace.span([[0, 1]], 2)) == -2


def test_scalar_restriction_check_matches_the_solve_reference():
    """_scalar_on reads y|u = c id off integer rows; the reference restricts
    y to u by linear solves. The eigenspaces of x are invariant under every
    y that commutes with x, and both outcomes occur."""
    rng = random.Random(31)
    outcomes = set()
    for _ in range(25):
        # repeated eigenvalues give eigenspaces of dimension >= 2, on which
        # a commuting y need not act as a scalar
        diag = [rng.choice([-1, 0, 0, 2]) for _ in range(4)]
        t = [[diag[i] if i == j else 0 for j in range(4)] for i in range(4)]
        for i in range(3):
            if diag[i] == diag[i + 1] and rng.random() < 0.3:
                t[i][i + 1] = 1
        p = random_unimodular(rng, 4)
        x = p * frac_rows(t) * p.inverse()
        commuting = list(matrix_centralizer([x], 4).basis)
        y = RatMatrix.zeros(4, 4)
        for b in commuting:
            y = y + b.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for c in set(diag):
            u = kernel_of(x - RatMatrix.identity(4).scale(c))
            for z in (x, y):
                expected = solve_restrict_to_subspace(z, u)
                scalar = classify_module._scalar_on(z, u)
                outcomes.add(scalar is not None)
                assert (scalar is not None) == expected.is_scalar()
                if scalar is not None:
                    assert expected == RatMatrix.identity(u.dim).scale(scalar)
    assert outcomes == {True, False}


class TestEqualDiagonalBlocks:
    """The zero set equals the image: xt = [[0, I], [0, 0]] in a basis
    (u1, u2, w1, w2) with xt(wi) = ui, and every g commuting with xt is
    [[A, B], [0, A]] there, so the classifier states the form unchecked."""

    NOTE = "equal-diagonal-block form verified in an adapted basis"

    def test_every_generator_of_the_equals_image_document(self, monkeypatch):
        rep = load_rep_file(DATA / "dim3_zero_set_equals_image.json")
        reached = []
        original = classify_module._zero_dim2_case

        def recording(xt, u, im, outside):
            reached.append((xt, u))
            return original(xt, u, im, outside)

        monkeypatch.setattr(classify_module, "_zero_dim2_case", recording)
        out = classify_dim3(rep)
        assert self.NOTE in out.notes
        equal = [(xt, u) for xt, u in reached if u == image_of(xt)]
        assert equal
        susp = benzecri_suspend(rep)
        for xt, u in equal:
            assert equal_diagonal_blocks(xt, u, susp.matrices)

    def test_random_commuting_matrices_with_kernel_equal_to_image(self):
        rng = random.Random(19)
        n0 = unit(1, 3) + unit(2, 4)
        for _ in range(20):
            p = random_unimodular(rng, 4)
            xt = p * n0 * p.inverse()
            u = kernel_of(xt)
            assert u.dim == 2 and u == image_of(xt)
            commuting = list(matrix_centralizer([xt], 4).basis)
            g = RatMatrix.zeros(4, 4)
            for b in commuting:
                g = g + b.scale(rng.randint(-3, 3))
            assert g * xt == xt * g
            assert equal_diagonal_blocks(xt, u, commuting + [g])


GEOMETRIC = AssumptionSet(compact=True, connected=True, oriented=True)


class TestClassifyDim2:
    def test_trivial_holonomy(self):
        rep = validate_rep([], "projective-class", 2, GEOMETRIC)
        out = classify_dim2(rep)
        assert out.conclusion == CONCLUSION_TORUS_OR_SPHERE
        assert any(isinstance(c, FixedProjectivePointCertificate) for c in out.certificates)
        assert set(out.assumptions_used) == {"compact", "connected", "oriented"}

    def test_translation_torus(self):
        rep = load_rep_file(CORPUS / "dim2_translation_torus.json")
        out = classify_dim2(rep)
        assert out.conclusion == CONCLUSION_TORUS_OR_SPHERE
        [cert] = [c for c in out.certificates if isinstance(c, FixedProjectivePointCertificate)]
        # the invariant line is the image of a square-zero centralizer element
        assert verify_certificate(rep, cert)

    def test_scalar_commutant_undetermined(self):
        cyc = frac_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        diag = frac_rows([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        rep = validate_rep([("c", cyc), ("d", diag)], "projective-class", 2, GEOMETRIC)
        out = classify_dim2(rep)
        assert out.branch == BRANCH_AUT_TOO_SMALL
        assert out.conclusion == CONCLUSION_UNDETERMINED

    def test_missing_declarations_downgrade(self):
        rep = validate_rep([], "projective-class", 2)  # nothing declared
        out = classify_dim2(rep)
        assert out.conclusion == CONCLUSION_UNDETERMINED
        assert out.certificates  # the fixed point is still certified

    def test_dimension_checked(self):
        rep = validate_rep([], "projective-class", 3)
        with pytest.raises(ValidationError):
            classify_dim2(rep)


class TestClassifyDim3:
    def test_torus_translations(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        out = classify_dim3(rep)
        assert out.branch == BRANCH_COMMUTATIVE
        assert out.conclusion == CONCLUSION_SOLVABLE_PI1
        flags = [c for c in out.certificates if isinstance(c, InvariantFlagCertificate)]
        assert flags and flags[0].flag.complete
        assert verify_certificate(rep, flags[0])

    def test_trivial_holonomy_disjunction(self):
        rep = load_rep_file(CORPUS / "dim3_trivial_injective.json")
        out = classify_dim3(rep)
        assert out.conclusion == DIM3_DISJUNCTION
        assert out.conclusion == "SphericalManifold|S2xS1|TorusBundleFiniteCover"
        assert any(isinstance(c, RotationalElementCertificate) for c in out.certificates)
        assert {"developing_map_injective", "compact"} <= set(out.assumptions_used)

    def test_scalar_commutant(self):
        rep = load_rep_file(CORPUS / "dim3_scalar_commutant.json")
        out = classify_dim3(rep)
        assert out.branch == BRANCH_AUT_TOO_SMALL
        assert out.conclusion == CONCLUSION_UNDETERMINED

    def test_rotation_with_declared_avoidance(self):
        rot = frac_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        asmp = AssumptionSet(
            developing_map_injective=True,
            compact=True,
            connected=True,
            oriented=True,
            developing_image_avoids_fixed_space=True,
        )
        rep = validate_rep([("r", rot)], "projective-class", 3, asmp)
        out = classify_dim3(rep)
        assert out.branch == BRANCH_NOT_SOLVABLE
        assert out.conclusion == CONCLUSION_T2_BUNDLE
        [cert] = [c for c in out.certificates if isinstance(c, RotationalElementCertificate)]
        assert cert.fixed_space.dim == 2
        assert "developing_image_avoids_fixed_space" in out.assumptions_used

    def test_rotation_without_avoidance_stays_open(self):
        rot = frac_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        rep = validate_rep([("r", rot)], "projective-class", 3, GEOMETRIC)
        out = classify_dim3(rep)
        assert out.conclusion == CONCLUSION_UNDETERMINED
        assert any(isinstance(c, RotationalElementCertificate) for c in out.certificates)

    def test_solvable_without_geometry_stays_solvable_label(self):
        # same translations but with no declarations at all: the flag
        # certificate alone supports the solvability verdict
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        bare = validate_rep(
            [(g.label, g.matrix) for g in rep.generators], "projective-class", 3
        )
        out = classify_dim3(bare)
        assert out.conclusion == CONCLUSION_SOLVABLE_PI1
        assert out.assumptions_used == ()

    def test_every_conclusion_is_supported(self):
        for name in (
            "dim3_torus_translations.json",
            "dim3_trivial_injective.json",
            "dim3_scalar_commutant.json",
        ):
            rep = load_rep_file(CORPUS / name)
            out = classify_dim3(rep)
            if out.conclusion != CONCLUSION_UNDETERMINED:
                assert out.certificates or out.assumptions_used
            for cert in out.certificates:
                assert verify_certificate(rep, cert)

    # a rotation by the Pythagorean angle plus two distinct eigenvalues: the
    # model is commutative and the zero-set analysis rests on declarations
    ROTATION_BLOCK = frac_rows(
        [[Fraction(3, 5), Fraction(-4, 5), 0, 0], [Fraction(4, 5), Fraction(3, 5), 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    )

    @pytest.mark.parametrize(
        "declared, missing",
        [
            ((), "compact, developing_map_injective"),
            (("compact",), "developing_map_injective"),
            (("developing_map_injective",), "compact"),
        ],
    )
    def test_zero_set_analysis_names_the_missing_declarations(self, declared, missing):
        asmp = AssumptionSet(**{n: True for n in declared})
        out = classify_dim3(validate_rep([("g", self.ROTATION_BLOCK)], "projective-class", 3, asmp))
        assert (out.branch, out.conclusion, out.assumptions_used) == (BRANCH_COMMUTATIVE, CONCLUSION_UNDETERMINED, ())
        assert out.notes[-1] == "the zero-set analysis applies but needs undeclared hypotheses: " + missing

    def test_zero_set_analysis_with_the_declarations_gives_the_disjunction(self):
        asmp = AssumptionSet(compact=True, developing_map_injective=True)
        out = classify_dim3(validate_rep([("g", self.ROTATION_BLOCK)], "projective-class", 3, asmp))
        assert (out.branch, out.conclusion) == (BRANCH_COMMUTATIVE, DIM3_DISJUNCTION)
        assert out.assumptions_used == ("compact", "developing_map_injective")
        assert "solvability concluded from the declared geometric hypotheses" in out.notes


def _count_work(monkeypatch) -> dict[str, int]:
    """Count minimal_polynomial, factor_polynomial and eliminate calls, and
    the rows handed to rref, through every module that binds them."""
    counts = dict(minimal_polynomial=0, factor_polynomial=0, eliminate=0, rref_rows=0)

    def counting(name, fn):
        def wrapper(*args):
            if name == "rref":
                counts["rref_rows"] += len(args[0])
            else:
                counts[name] += 1
            return fn(*args)
        return wrapper

    for module in (linalg, polys, commutant, classify_module):
        for name in ("minimal_polynomial", "factor_polynomial", "eliminate", "rref"):
            if name in vars(module):
                monkeypatch.setattr(module, name, counting(name, vars(module)[name]))
    return counts


@pytest.mark.parametrize(
    "name, classify_fn, expected",
    [
        ("conj_dim3_torus_translations_1", classify_dim3,
         dict(minimal_polynomial=0, factor_polynomial=1, eliminate=162, rref_rows=93)),
        ("conj_dim2_translation_torus_2", classify_dim2,
         dict(minimal_polynomial=0, factor_polynomial=0, eliminate=62, rref_rows=32)),
    ],
)
def test_work_counts_of_conjugated_translation_groups(name, classify_fn, expected, monkeypatch):
    """A conjugated translation group's suspension has a local centralizer
    (QI plus the radical), so dickson_radical runs no idempotent search: no
    minimal polynomial, and the one factorization left is the zero-set
    analysis's characteristic polynomial. The central 2I adds no
    commutation rows. The first translation is derogatory, so the
    centralizer's Krylov pass stops at its square, after 0 + 1 + 2 = 3
    eliminations, and the commutation system is solved as before. The
    centralizer's closure is proven when it is built, so no product of its
    basis is reduced along its span (13 and 9 eliminations). The radical's
    trace-form kernel vectors are combined with the basis before they are
    spanned, so no canonical kernel is spanned (3 and 2 rows). The zero
    sets are eigenspaces: the invertible basis field is not solved for a
    zero set, Ker and Im of the shifted field come from one RREF (its image
    is spanned from 1 pivot column, not 4 transposed rows), and the scalar
    restriction is an integer check with no membership test (93 rows, not
    100; 162 eliminations, not 173). A fixed point is verified as the line
    through it: one row is spanned, then one row per generator, not two
    (32 rows, not 33; 62 eliminations, not 64). The counts are
    deterministic; a search, zero rows or a closure check brought back
    raise them."""
    rep = load_rep_file(DATA / f"{name}.json")
    counts = _count_work(monkeypatch)
    classify_fn(rep)
    assert counts == expected


class TestOutcomeInvariance:
    @pytest.mark.parametrize(
        "path", [pytest.param(p, id=p.stem) for p in sorted(CORPUS.glob("*.json")) + sorted(DATA.glob("*.json"))]
    )
    def test_suspension_factor_configurable(self, path):
        # the deck generator is the central scalar factor * I, so no factor
        # changes a verdict: the JSON classify reports at 2, 3 and 7/3 differ
        # only in the echoed option
        dim = str(json.loads(path.read_text(encoding="utf-8"))["dimension"])
        reports, echoed = [], []
        for factor in ("2", "3", "7/3"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                argv = ["classify", "--dim", dim, "--format", "json", "--suspension-factor", factor, str(path)]
                assert cli.main(argv) == 0
            report = json.loads(out.getvalue())
            echoed.append(report["options"].pop("suspension_factor"))
            reports.append(report)
        assert len(set(map(str, echoed))) == 3
        assert reports[0] == reports[1] == reports[2]

    def test_permutation_invariance_quick(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        base = classify_dim3(rep)
        rng = random.Random(71)
        gens = list(rep.generators)
        for _ in range(3):
            rng.shuffle(gens)
            shuffled = validate_rep(
                [(g.label, g.matrix) for g in gens], "projective-class", 3, rep.assumptions
            )
            out = classify_dim3(shuffled)
            assert (out.branch, out.conclusion) == (base.branch, base.conclusion)

    def test_rescale_invariance_quick(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        base = classify_dim3(rep)
        for lam in (Fraction(2), Fraction(-3), Fraction(1, 2)):
            scaled = validate_rep(
                [(g.label, g.matrix.scale(lam)) for g in rep.generators],
                "projective-class",
                3,
                rep.assumptions,
            )
            out = classify_dim3(scaled)
            assert (out.branch, out.conclusion) == (base.branch, base.conclusion)


def _rotation_block(*blocks) -> RatMatrix:
    """diag of the blocks: R = [[3/5, -4/5], [4/5, 3/5]] for "R", the
    number itself otherwise."""
    rot = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
    parts = [rot if b == "R" else [[b]] for b in blocks]
    n = sum(len(p) for p in parts)
    rows = [[0] * n for _ in range(n)]
    k = 0
    for p in parts:
        for i, row in enumerate(p):
            rows[k + i][k : k + len(row)] = row
        k += len(p)
    return frac_rows(rows)


# each rotation block, and how many of its 12 conjugates leave its verdict today
ROTATION_LEDGER = ((("R", 1, 2), 10), (("R", 1, 1), 11), (("R", "R"), 12))
ROTATION_ASSUMPTIONS = AssumptionSet(compact=True, developing_image_avoids_fixed_space=True, connected=True)


def _rotation_id(blocks) -> str:
    return ",".join(map(str, blocks))


@pytest.mark.parametrize("blocks", [b for b, _ in ROTATION_LEDGER], ids=_rotation_id)
def test_rotation_blocks_base_verdict(blocks):
    rep = validate_rep([("g", _rotation_block(*blocks))], "projective-class", 3, ROTATION_ASSUMPTIONS)
    out = classify_dim3(rep)
    assert (out.branch, out.conclusion) == (BRANCH_NOT_SOLVABLE, CONCLUSION_T2_BUNDLE)


@pytest.mark.parametrize(
    "blocks",
    [
        pytest.param(b, id=_rotation_id(b), marks=pytest.mark.xfail(
            strict=True, reason=f"{failing}/12 conjugates leave NotSolvableAut/T2BundleOverS1 (ROADMAP item 4)"))
        for b, failing in ROTATION_LEDGER
    ],
)
def test_rotation_blocks_keep_their_verdict_under_conjugation(blocks):
    """The rotation blocks, declared compact, connected and with a
    developing image that avoids the fixed space, under 12 seeded
    unimodular conjugations. Most conjugates leave the base verdict today:
    (R, 1, 2) drops to CommutativeAut/Undetermined with no rotational
    certificate, (R, 1, 1) and (R, R) to NotSolvableAut/Undetermined.
    ROADMAP item 4 replaces the basis walks that make this depend on the
    basis."""
    rep = validate_rep([("g", _rotation_block(*blocks))], "projective-class", 3, ROTATION_ASSUMPTIONS)
    moved = []
    for seed in range(12):
        out = classify_dim3(conjugate_representation(rep, random_unimodular(random.Random(seed), 4, ops=12)))
        if (out.branch, out.conclusion) != (BRANCH_NOT_SOLVABLE, CONCLUSION_T2_BUNDLE):
            moved.append(seed)
    assert moved == []


def _dim3_documents():
    return [pytest.param(path, id=path.stem) for path in sorted(DATA.glob("dim3_*.json"))]


@pytest.mark.parametrize("path", _dim3_documents())
def test_data_documents_keep_their_outcome_labels(path):
    """Acceptance criterion 5's conjugations, rescalings and permutations,
    applied to each dimension-3 document of tests/data/, each drawn from a
    fresh seed-113 generator."""
    assert_dim3_invariance(load_rep_file(path), random.Random(113), path.stem)


class TestFinalGate:
    """_finalize is the one place classify verifies certificates."""

    def _tampered(self, rep):
        # the last coordinate line is moved by every nontrivial translation
        cert = InvariantSubspaceCertificate(span4([0, 0, 0, 1]))
        assert not verify_certificate(rep, cert)
        return cert

    def test_tampered_certificate_is_dropped_and_the_conclusion_withdrawn(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        out = classify_dim3(rep)
        gated = _finalize(
            rep, out.commutant, out.decomposition, out.branch, CONCLUSION_SOLVABLE_PI1,
            [self._tampered(rep)], set(), [],
        )
        assert gated.certificates == ()
        assert gated.conclusion == CONCLUSION_UNDETERMINED
        assert gated.notes == (
            "dropped a certificate that failed re-verification: InvariantSubspaceCertificate",
            "conclusion withdrawn: no surviving certificate or declared assumption",
        )

    def test_conclusion_kept_while_a_certificate_survives(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        out = classify_dim3(rep)
        gated = _finalize(
            rep, out.commutant, out.decomposition, out.branch, out.conclusion,
            list(out.certificates) + [self._tampered(rep)], set(), [],
        )
        assert gated.certificates == out.certificates
        assert gated.conclusion == CONCLUSION_SOLVABLE_PI1
        assert gated.notes == (
            "dropped a certificate that failed re-verification: InvariantSubspaceCertificate",
        )

    def test_conclusion_kept_on_declared_assumptions(self):
        rep = load_rep_file(CORPUS / "dim3_torus_translations.json")
        out = classify_dim3(rep)
        gated = _finalize(
            rep, out.commutant, out.decomposition, out.branch, DIM3_DISJUNCTION,
            [self._tampered(rep)], {"compact", "developing_map_injective"}, [],
        )
        assert gated.certificates == ()
        assert gated.conclusion == DIM3_DISJUNCTION
        assert gated.assumptions_used == ("compact", "developing_map_injective")


# The worked square-zero pair: its centralizer is spanned by I, e12 + e34
# and e14, so the group below has the algebra generated by a, b and I as
# its commutant, whose radical is noncommutative and contains a and b.
PAIR_A = unit(1, 3) + unit(2, 4)
PAIR_B = unit(3, 2) + unit(1, 4)
PAIR_GROUP = [
    ("p", RatMatrix.identity(4) + unit(1, 2) + unit(3, 4)),
    ("q", RatMatrix.identity(4) + unit(1, 4)),
]
# One unipotent Jordan block of size 2: a noncommutative radical whose
# sums of basis elements have nonzero squares.
JORDAN_211 = [("j", RatMatrix.identity(4) + unit(1, 2))]


def _radical_flags(radical):
    """The flags that flag_from_nilpotent_* build from radical elements: the
    basis and its pairwise sums and differences, as classify tries them, and
    every noncommuting square-zero pair among those."""
    basis = list(radical.basis)
    cands = list(basis)
    for x, y in combinations(basis, 2):
        cands.extend([x + y, x - y])
    element_flags, pair_flags = [], []
    for a in cands:
        if not (a * a).is_zero():
            try:
                element_flags.append(flag_from_nilpotent_element(a))
            except CaseAnalysisError:
                pass
    square_zero = [a for a in cands if (a * a).is_zero()]
    for x, y in combinations(square_zero, 2):
        if x * y != y * x:
            try:
                pair_flags.append(flag_from_nilpotent_pair(x, y))
            except CaseAnalysisError:
                pass
    return element_flags, pair_flags


def test_constructions_are_invariant_by_construction():
    """What the searches return verifies against the suspension without a
    check of their own: the invariant that lets _finalize be the only gate.
    The inputs are those of acceptance criterion 5 (the dimension-3 corpus
    under unimodular conjugation), plus two groups with a noncommutative
    radical so that the nilpotent flag constructions run."""
    rng = random.Random(113)
    names = ("dim3_torus_translations.json", "dim3_trivial_injective.json", "dim3_scalar_commutant.json")
    sources = [(load_rep_file(CORPUS / name), False) for name in names] + [
        (validate_rep(PAIR_GROUP, "projective-class", 3), True),
        (validate_rep(JORDAN_211, "projective-class", 3), False),
    ]
    counts = dict(element=0, pair=0, search=0, rotational=0)
    for base, holds_pair in sources:
        for trial in range(4):
            p = RatMatrix.identity(4) if trial == 0 else random_unimodular(rng, 4)
            rep = conjugate_representation(base, p)
            susp = benzecri_suspend(rep)
            cent = centralizer_algebra(susp)
            radical = dickson_radical(cent).radical
            element_flags, pair_flags = _radical_flags(radical)
            if holds_pair:
                a, b = p * PAIR_A * p.inverse(), p * PAIR_B * p.inverse()
                assert radical.contains(a) and radical.contains(b)
                pair_flags.append(flag_from_nilpotent_pair(a, b))
            certs = [InvariantFlagCertificate(f) for f in element_flags + pair_flags]
            general = invariant_flag_search(susp, cent)
            rot = find_rotational_element(cent)
            certs += [InvariantFlagCertificate(general)] if general is not None else []
            certs += [rot] if rot is not None else []
            for cert in certs:
                assert verify_certificate(susp, cert)
            counts["element"] += len(element_flags)
            counts["pair"] += len(pair_flags)
            counts["search"] += general is not None
            counts["rotational"] += rot is not None
    assert all(counts.values()), counts
