import random
from fractions import Fraction

import pytest

from holonomy.commutant import (
    AlgebraBasis,
    ClosureError,
    FixedProjectivePointCertificate,
    Flag,
    InvariantFlagCertificate,
    InvariantSubspaceCertificate,
    algebra_closure_check,
    centralizer_algebra,
    dickson_radical,
    find_rotational_element,
    invariant_affine_fields,
    invariant_flag_search,
    matrix_centralizer,
    orbit_dimension_at,
    project_automorphism_algebra,
    truncated_derived_series,
    verify_certificate,
    verify_flag_invariant,
)
from holonomy.fileio import load_rep_file
from holonomy.linalg import RatMatrix, Subspace, kernel_of, vectorize
from holonomy.representation import (
    benzecri_suspend,
    conjugate_representation,
    embed_linear_as_affine,
    validate_rep,
)

from helpers import (
    CORPUS,
    centralizer_oracle,
    frac_rows,
    passes_trace_screen,
    random_invertible,
    random_unimodular,
    unscreened_rotational_element,
)

E = {}
for i in range(1, 5):
    for j in range(1, 5):
        rows = [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(4)] for r in range(4)]
        E[(i, j)] = frac_rows(rows)

ROT90 = frac_rows([[0, -1], [1, 0]])


class TestCentralizer:
    def test_no_generators_full_algebra(self):
        rep = validate_rep([], "projective-class", 3)
        cent = centralizer_algebra(rep)
        assert cent.dim == 16
        assert cent.contains_identity

    def test_scalar_generator_centralizes_everything(self):
        rep = benzecri_suspend(validate_rep([], "projective-class", 3))
        assert centralizer_algebra(rep).dim == 16

    def test_distinct_diagonal(self):
        rep = validate_rep([("d", frac_rows([[2, 0], [0, 3]]))], "linear", 2)
        cent = centralizer_algebra(rep)
        assert cent.dim == 2
        assert all(b.rows[0][1] == 0 and b.rows[1][0] == 0 for b in cent.basis)

    def test_commutation_is_exact(self):
        rng = random.Random(41)
        for _ in range(10):
            gens = [random_invertible(rng, 3) for _ in range(rng.randint(1, 2))]
            rep = validate_rep([(f"g{i}", g) for i, g in enumerate(gens)], "linear", 3)
            cent = centralizer_algebra(rep)
            for b in cent.basis:
                for g in gens:
                    assert (b * g - g * b).is_zero()

    def test_matches_independent_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            d = rng.randint(2, 4)
            gens = [random_invertible(rng, d) for _ in range(rng.randint(1, 3))]
            mine = matrix_centralizer(gens, d).span_subspace()
            oracle = centralizer_oracle(gens, d)
            assert mine == oracle

    def test_scale_invariance(self):
        rng = random.Random(47)
        g = random_invertible(rng, 3)
        rep1 = validate_rep([("g", g)], "linear", 3)
        rep2 = validate_rep([("g", g.scale(Fraction(-7, 3)))], "linear", 3)
        assert centralizer_algebra(rep1).basis == centralizer_algebra(rep2).basis

    def test_conjugation_equivariance(self):
        rng = random.Random(53)
        g = random_invertible(rng, 3)
        p = random_unimodular(rng, 3)
        pinv = p.inverse()
        cent = matrix_centralizer([g], 3)
        conj = matrix_centralizer([p * g * pinv], 3)
        expected = AlgebraBasis.from_span([p * b * pinv for b in cent.basis], 3)
        assert conj.basis == expected.basis


class TestInvariantAffineFields:
    def test_suspension_contains_radial_field(self):
        susp = benzecri_suspend(validate_rep([], "projective-class", 3))
        fields = invariant_affine_fields(embed_linear_as_affine(susp))
        span = Subspace.span([vectorize(f.linear_part) for f in fields], 16)
        assert span.contains(vectorize(RatMatrix.identity(4)))
        assert all(f.constant_part == (0, 0, 0, 0) for f in fields)

    def test_translation_group_has_constant_fields(self):
        t1 = frac_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        t2 = frac_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        rep = validate_rep([("t1", t1), ("t2", t2)], "affine", 2)
        fields = invariant_affine_fields(rep)
        # translations commute only with constant fields here
        assert all(f.linear_part.is_zero() for f in fields)
        span = Subspace.span([f.constant_part for f in fields], 2)
        assert span.dim == 2

    def test_diagonal_rep_fields(self):
        rep = validate_rep([("d", frac_rows([[2, 0], [0, 3]]))], "linear", 2)
        fields = invariant_affine_fields(embed_linear_as_affine(rep))
        assert all(f.constant_part == (0, 0) for f in fields)
        assert all(f.linear_part.rows[0][1] == 0 and f.linear_part.rows[1][0] == 0 for f in fields)
        assert len(fields) == 2


class TestProjectAutomorphismAlgebra:
    def _fields(self, mats, d):
        from holonomy.representation import AffineField

        return [AffineField(m, (Fraction(0),) * d) for m in mats]

    def test_scalar_span_gives_zero(self):
        assert project_automorphism_algebra(self._fields([RatMatrix.identity(4)], 4)) == []

    def test_dimension_counts(self):
        mats = [RatMatrix.identity(4), frac_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])]
        assert len(project_automorphism_algebra(self._fields(mats, 4))) == 1
        full = [E[(i, j)] for i in range(1, 5) for j in range(1, 5)]
        assert len(project_automorphism_algebra(self._fields(full, 4))) == 15

    def test_identity_missing_flagged(self):
        with pytest.raises(ValueError, match="identity not in span"):
            project_automorphism_algebra(self._fields([E[(1, 2)]], 4))


class TestClosureAndRadical:
    def test_diagonal_closed(self):
        a = AlgebraBasis.from_span([frac_rows([[1, 0], [0, 0]]), frac_rows([[0, 0], [0, 1]])], 2)
        ok, witness = algebra_closure_check(a)
        assert ok and witness is None

    def test_open_span_with_witness(self):
        a = AlgebraBasis.from_span([frac_rows([[0, 1], [0, 0]]), frac_rows([[0, 0], [1, 0]])], 2)
        ok, witness = algebra_closure_check(a)
        assert not ok
        assert witness.product == frac_rows([[1, 0], [0, 0]])
        assert not witness.residual.is_zero()

    def test_centralizer_outputs_closed(self):
        rng = random.Random(59)
        gens = [random_invertible(rng, 3) for _ in range(2)]
        cent = matrix_centralizer(gens, 3)
        ok, _ = algebra_closure_check(cent)
        assert ok

    def test_radical_of_upper_triangular_pair(self):
        a = AlgebraBasis.from_span([RatMatrix.identity(2), frac_rows([[0, 1], [0, 0]])], 2)
        d = dickson_radical(a)
        assert d.radical.basis == (frac_rows([[0, 1], [0, 0]]),)
        assert d.quotient_dim == 1
        assert d.quotient_commutative

    def test_full_matrix_algebra_semisimple(self):
        units = [E[(i, j)] for i in range(1, 3) for j in range(1, 3)]
        two = AlgebraBasis.from_span(
            [frac_rows([r[:2] for r in u.rows[:2]]) for u in units], 2
        )
        d = dickson_radical(two)
        assert d.radical.dim == 0
        assert d.quotient_dim == 4
        assert not d.quotient_commutative

    def test_diagonal_algebra_commutative_semisimple(self):
        diag = AlgebraBasis.from_span(
            [frac_rows([[1 if (r == c == i) else 0 for c in range(3)] for r in range(3)]) for i in range(3)],
            3,
        )
        d = dickson_radical(diag)
        assert d.radical.dim == 0
        assert d.quotient_commutative
        assert len(d.idempotent_witnesses) > 0

    def test_radical_requires_closure(self):
        a = AlgebraBasis.from_span([frac_rows([[0, 1], [0, 0]]), frac_rows([[0, 0], [1, 0]])], 2)
        with pytest.raises(ClosureError):
            dickson_radical(a)

    def test_idempotent_witnesses_are_idempotent(self):
        rep = validate_rep([], "projective-class", 2)
        cent = centralizer_algebra(benzecri_suspend(rep))
        d = dickson_radical(cent)
        assert d.idempotent_witnesses
        ident = RatMatrix.identity(3)
        for e in d.idempotent_witnesses:
            assert e * e == e
            assert not e.is_zero() and e != ident


class TestRotationalElement:
    def test_rotation_block_found(self):
        j = frac_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        a = AlgebraBasis.from_span([RatMatrix.identity(4), j], 4)
        found = find_rotational_element(a)
        assert found is not None
        assert found.rotation_space == Subspace.span([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
        assert found.fixed_space == Subspace.span([[0, 0, 1, 0], [0, 0, 0, 1]], 4)

    def test_diagonal_algebra_has_none(self):
        diag = AlgebraBasis.from_span(
            [frac_rows([[1 if (r == c == i) else 0 for c in range(4)] for r in range(4)]) for i in range(4)],
            4,
        )
        assert find_rotational_element(diag) is None

    def test_full_algebra_pair_search(self):
        full = AlgebraBasis.from_span([E[(i, j)] for i in range(1, 5) for j in range(1, 5)], 4)
        found = find_rotational_element(full)
        assert found is not None
        assert verify_certificate(validate_rep([], "linear", 4), found)


def _rotation_conjugate(rng, blocks):
    """P J P^-1 with J block diagonal: [[0, -a], [a, 0]] for each a in
    blocks, a 1 x 1 zero block for each None."""
    n = sum(1 if a is None else 2 for a in blocks)
    j = [[Fraction(0)] * n for _ in range(n)]
    k = 0
    for a in blocks:
        if a is not None:
            j[k][k + 1], j[k + 1][k] = -a, a
            k += 2
        else:
            k += 1
    p = random_invertible(rng, n)
    return p * RatMatrix.from_rows(j) * p.inverse()


class TestTraceScreen:
    def test_conjugated_rotation_blocks_pass(self):
        rng = random.Random(31)
        values = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)]
        for _ in range(60):
            count = rng.randint(1, 3)
            blocks = [rng.choice(values) for _ in range(count)] + [None] * rng.randint(0, 2)
            rng.shuffle(blocks)
            assert passes_trace_screen(_rotation_conjugate(rng, blocks))

    def test_conjugated_rotational_elements_match_unscreened_walk(self):
        rng = random.Random(32)
        finds = 0
        for blocks in ([Fraction(2)], [Fraction(1, 3), None], [Fraction(-1), Fraction(1)], [Fraction(3), None, None]):
            for _ in range(5):
                j = _rotation_conjugate(rng, blocks)
                n = j.nrows
                ident = RatMatrix.identity(n)
                # not a canonical basis: the walk reaches -j as I - (j + I)
                a = AlgebraBasis(n, (ident, j + ident, j * j), True)
                found = find_rotational_element(a)
                assert found == unscreened_rotational_element(a)
                finds += found is not None and found.element == -j
        assert finds == 20

    def test_trace_form_is_the_gram_matrix(self):
        a = centralizer_algebra(benzecri_suspend(load_rep_file(CORPUS / "dim3_torus_translations.json")))
        gram = a.trace_form
        assert a.trace_form is gram
        for i, x in enumerate(a.basis):
            for j, y in enumerate(a.basis):
                assert gram.rows[i][j] == sum(((x * y).rows[k][k] for k in range(4)), Fraction(0))


class TestScreenedWalk:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_matches_unscreened_walk_on_corpus(self, path):
        susp = benzecri_suspend(load_rep_file(path))
        cent = centralizer_algebra(susp)
        for bound in (1, 2):
            expected = unscreened_rotational_element(cent, susp, bound)
            assert find_rotational_element(cent, susp, bound) == expected

    def test_matches_unscreened_walk_on_conjugates(self):
        rng = random.Random(41)
        rotation = frac_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        reps = [load_rep_file(p) for p in sorted(CORPUS.glob("dim3_*.json"))]
        reps.append(validate_rep([("r", rotation)], "projective-class", 3))
        hits = []
        for rep in reps:
            for _ in range(6):
                p = random_unimodular(rng, 4, ops=rng.choice([2, 4, 8]))
                susp = benzecri_suspend(conjugate_representation(rep, p))
                cent = centralizer_algebra(susp)
                expected = unscreened_rotational_element(cent, susp)
                assert find_rotational_element(cent, susp) == expected
                hits.append(expected is not None)
        assert any(hits[-6:])  # a conjugated rotation is found, not only missed


class TestFlags:
    def test_flag_validation(self):
        with pytest.raises(ValueError):
            Flag((Subspace.span([[1, 0]], 2), Subspace.span([[0, 1]], 2)))
        f = Flag((Subspace.span([[1, 0, 0]], 3), Subspace.span([[1, 0, 0], [0, 1, 0]], 3)))
        assert f.dims == (1, 2)
        assert f.complete

    def test_identity_rep_any_flag_invariant(self):
        rep = validate_rep([("i", RatMatrix.identity(2))], "linear", 2)
        f = Flag((Subspace.span([[1, 0]], 2),))
        assert verify_flag_invariant(rep, f) == (True, None)

    def test_rotation_breaks_line(self):
        rep = validate_rep([("r", ROT90)], "linear", 2)
        f = Flag((Subspace.span([[1, 0]], 2),))
        ok, witness = verify_flag_invariant(rep, f)
        assert not ok
        assert witness[0] == "r"

    def test_search_upper_triangular(self):
        gens = [frac_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]]), frac_rows([[2, 0, 1], [0, 1, 0], [0, 0, 1]])]
        rep = validate_rep([("a", gens[0]), ("b", gens[1])], "linear", 3)
        flag = invariant_flag_search(rep)
        assert flag is not None
        assert Subspace.span([[1, 0, 0]], 3) in flag.chain
        assert Subspace.span([[1, 0, 0], [0, 1, 0]], 3) in flag.chain

    def test_search_irreducible_rotation_absent(self):
        rep = validate_rep([("r", ROT90)], "linear", 2)
        assert invariant_flag_search(rep) is None

    def test_search_harvests_commuting_kernel(self):
        c = E[(1, 3)] + E[(2, 4)]
        g = RatMatrix.identity(4) + c  # unipotent, commutes with c
        rep = validate_rep([("g", g)], "linear", 4)
        flag = invariant_flag_search(rep)
        assert flag is not None
        assert flag.complete
        assert verify_flag_invariant(rep, flag) == (True, None)
        # the kernel of c is itself invariant and extends to a verified flag
        ker_c = Subspace.span([[1, 0, 0, 0], [0, 1, 0, 0]], 4)
        assert kernel_of(c) == ker_c
        through_kernel = Flag(
            (
                Subspace.span([[1, 0, 0, 0]], 4),
                ker_c,
                Subspace.span([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], 4),
            )
        )
        assert verify_flag_invariant(rep, through_kernel) == (True, None)


class TestDerivedSeries:
    def test_commuting_diagonals(self):
        rep = validate_rep(
            [("a", frac_rows([[2, 0], [0, 3]])), ("b", frac_rows([[5, 0], [0, 7]]))],
            "linear",
            2,
        )
        report = truncated_derived_series(rep, commutator_depth=4, word_length=3)
        assert report.verdict == "yes"
        assert report.levels[0].all_identity

    def test_upper_triangular_pair_depth_two(self):
        rep = validate_rep(
            [("a", frac_rows([[1, 1], [0, 1]])), ("b", frac_rows([[2, 0], [0, 1]]))],
            "linear",
            2,
        )
        report = truncated_derived_series(rep, commutator_depth=4, word_length=3)
        assert report.verdict == "yes"
        assert not report.levels[0].all_identity
        assert report.levels[-1].all_identity
        assert len(report.levels) == 2

    def test_generic_rotations_unknown(self):
        r1 = frac_rows(
            [[Fraction(3, 5), Fraction(-4, 5), 0], [Fraction(4, 5), Fraction(3, 5), 0], [0, 0, 1]]
        )
        r2 = frac_rows(
            [[1, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5)], [0, Fraction(4, 5), Fraction(3, 5)]]
        )
        rep = validate_rep([("a", r1), ("b", r2)], "linear", 3)
        report = truncated_derived_series(rep, commutator_depth=3, word_length=2)
        assert report.verdict == "unknown"
        assert all(not level.all_identity for level in report.levels)

    def test_generic_pair_stops_at_entry_bits(self):
        # a generic invertible integer pair: commutator entries grow in bit
        # size from level to level, so the probe runs into the entry-size
        # budget long before the default depth of 8
        a = frac_rows([[-2, -1, -3, 2], [0, 0, -2, -3], [-3, -3, 0, 1], [-1, 3, 3, -3]])
        b = frac_rows([[-2, 1, 1, -1], [-1, 3, -2, 3], [-3, -1, -2, -3], [3, 2, 3, -1]])
        rep = validate_rep([("a", a), ("b", b)], "linear", 4)
        report = truncated_derived_series(rep)
        assert report.verdict == "unknown"
        assert report.stopped == "entry_bits"
        assert len(report.levels) < report.commutator_depth
        assert all(level.pool_size <= 32 and level.nontrivial_commutators <= 32 for level in report.levels)

    def test_unitriangular_group_has_derived_length_three(self):
        # I + E_{i,i+1}, i = 1..4, generate the 5x5 upper unitriangular
        # group: level 1 holds non-commuting elements such as I + E_13 and
        # I + E_35, level 2 only central ones. Every commutator and conjugate
        # in the probe uses an inverse, so a wrong one shows in these counts.
        gens = []
        for i in range(4):
            rows = [[int(r == c or (r, c) == (i, i + 1)) for c in range(5)] for r in range(5)]
            gens.append((f"e{i}", frac_rows(rows)))
        report = truncated_derived_series(validate_rep(gens, "linear", 5))
        assert report.verdict == "yes"
        levels = [(lv.pool_size, lv.nontrivial_commutators) for lv in report.levels]
        assert levels == [(28, 32), (32, 2), (2, 0)]

    def test_pool_never_exceeds_max_level(self):
        gens = [
            frac_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
            frac_rows([[1, 2, -1, 1], [0, 1, 1, -1], [0, 0, 1, 1], [0, 0, 0, 1]]),
        ]
        rep = validate_rep([("a", gens[0]), ("b", gens[1])], "linear", 4)
        for max_level in (3, 5, 32):
            report = truncated_derived_series(rep, max_level=max_level)
            assert report.verdict == "yes" and report.stopped is None
            assert all(level.pool_size <= max_level for level in report.levels)
            assert all(level.nontrivial_commutators <= max_level for level in report.levels)


class TestOrbitDimension:
    def test_scalars_act_trivially(self):
        a = AlgebraBasis.from_span([RatMatrix.identity(4)], 4)
        assert orbit_dimension_at(a, (1, 2, 3, 4)) == 0

    def test_full_algebra_transitive(self):
        full = AlgebraBasis.from_span([E[(i, j)] for i in range(1, 5) for j in range(1, 5)], 4)
        assert orbit_dimension_at(full, (1, 0, 0, 0)) == 3
        assert orbit_dimension_at(full, (1, -2, 3, 5)) == 3

    def test_diagonal_algebra_depends_on_point(self):
        diag = AlgebraBasis.from_span(
            [frac_rows([[1 if (r == c == i) else 0 for c in range(4)] for r in range(4)]) for i in range(4)],
            4,
        )
        assert orbit_dimension_at(diag, (1, 0, 0, 0)) == 0
        assert orbit_dimension_at(diag, (1, 1, 1, 1)) == 3

    def test_zero_rejected(self):
        a = AlgebraBasis.from_span([RatMatrix.identity(2)], 2)
        with pytest.raises(ValueError):
            orbit_dimension_at(a, (0, 0))


class TestCertificates:
    def test_fixed_point_certificate(self):
        rep = validate_rep([("d", frac_rows([[2, 0], [0, 3]]))], "linear", 2)
        assert verify_certificate(rep, FixedProjectivePointCertificate((1, 0)))
        assert not verify_certificate(rep, FixedProjectivePointCertificate((1, 1)))

    def test_invariant_subspace_certificate(self):
        rep = validate_rep([("r", ROT90)], "linear", 2)
        assert verify_certificate(rep, InvariantSubspaceCertificate(Subspace.full(2)))
        assert not verify_certificate(
            rep, InvariantSubspaceCertificate(Subspace.span([[1, 0]], 2))
        )

    def test_flag_certificate_roundtrip(self):
        gens = [frac_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])]
        rep = validate_rep([("g", gens[0])], "linear", 3)
        flag = invariant_flag_search(rep)
        assert flag is not None
        assert verify_certificate(rep, InvariantFlagCertificate(flag))
