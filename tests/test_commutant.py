import contextlib
import dataclasses
import gc
import io
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy import classify as classify_module
from holonomy import cli, commutant, linalg, polys
from holonomy.commutant import (
    AlgebraBasis,
    ClosureError,
    Decomposition,
    FixedProjectivePointCertificate,
    Flag,
    InvariantFlagCertificate,
    InvariantSubspaceCertificate,
    RotationalElementCertificate,
    _commutation_rows,
    _invariant_candidates,
    _longest_chain,
    _pairwise_commute,
    algebra_closure_check,
    centralizer_algebra,
    dickson_radical,
    find_rotational_element,
    invariant_affine_fields,
    invariant_flag_search,
    matrix_centralizer,
    orbit_dimension_at,
    truncated_derived_series,
    verify_certificate,
    verify_flag_invariant,
)
from holonomy.fileio import load_rep_file
from holonomy.linalg import RatMatrix, Subspace, kernel_and_image, kernel_of
from holonomy.representation import (
    Generator,
    Representation,
    benzecri_suspend,
    embed_linear_as_affine,
    validate_rep,
)

from helpers import (
    CORPUS,
    centralizer_oracle,
    closed_under_products,
    conjugate_representation,
    egcd_idempotent_witnesses,
    frac_rows,
    fraction_affine_fields,
    fraction_rref,
    harvested_flag,
    minimal_polynomial_witnesses,
    pair_loop_derived_series,
    passes_trace_screen,
    primary_decomposition_harvest,
    random_int_matrix,
    random_invertible,
    random_unimodular,
    unscreened_rotational_element,
    vectorize,
)

E = {}
for i in range(1, 5):
    for j in range(1, 5):
        rows = [[1 if (r, c) == (i - 1, j - 1) else 0 for c in range(4)] for r in range(4)]
        E[(i, j)] = frac_rows(rows)

ROT90 = frac_rows([[0, -1], [1, 0]])

DATA = Path(__file__).resolve().parent / "data"


class TestCentralizer:
    def test_no_generators_full_algebra(self):
        rep = validate_rep([], "projective-class", 3)
        cent = centralizer_algebra(rep)
        assert cent.dim == 16
        assert cent.contains_identity

    def test_scalar_generator_centralizes_everything(self):
        rep = benzecri_suspend(validate_rep([], "projective-class", 3))
        assert centralizer_algebra(rep).dim == 16
        # scalar generators give no commutation rows, but their size is checked
        for n in (1, 3):
            scalars = [RatMatrix.identity(n).scale(2), RatMatrix.identity(n).scale(Fraction(-3, 2))]
            assert matrix_centralizer(scalars, n).span == Subspace.full(n * n)
        for wrong in (RatMatrix.identity(2).scale(2), RatMatrix.zeros(4, 4), RatMatrix.zeros(2, 3)):
            with pytest.raises(ValueError, match="size mismatch"):
                matrix_centralizer([RatMatrix.identity(3), wrong], 3)

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
            mine = matrix_centralizer(gens, d).span
            oracle = centralizer_oracle(gens, d)
            assert mine == oracle

    def test_scale_invariance(self):
        rng = random.Random(47)
        g = random_invertible(rng, 3)
        rep1 = validate_rep([("g", g)], "linear", 3)
        rep2 = validate_rep([("g", g.scale(Fraction(-7, 3)))], "linear", 3)
        assert centralizer_algebra(rep1).basis == centralizer_algebra(rep2).basis

    def test_sphere_lift_signs_do_not_change_the_centralizer(self):
        # each projective class has the two sphere lifts g and -g; X commutes
        # with -g exactly when it commutes with g, so negating any subset of
        # the suspension's non-deck generators leaves its centralizer as it is
        rng = random.Random(59)
        dims = set()
        for n in (2, 3, 2, 3, 2, 3):
            size = n + 1
            p = random_unimodular(rng, size)
            pinv = p.inverse()
            # a generic generator and commuting unipotent / repeated-eigenvalue
            # ones, so that some centralizers are larger than the scalars
            unipotent = RatMatrix.identity(size) + frac_rows(
                [[rng.randint(-2, 2) if c > r else 0 for c in range(size)] for r in range(size)]
            )
            diagonal = frac_rows([[rng.choice((1, 2)) if c == r else 0 for c in range(size)] for r in range(size)])
            pool = [random_invertible(rng, size), p * unipotent * pinv, p * diagonal * pinv]
            gens = rng.sample(pool, rng.randint(1, 3))
            rep = validate_rep([(f"g{i}", g) for i, g in enumerate(gens)], "projective-class", n)
            susp = benzecri_suspend(rep)
            cent = matrix_centralizer(susp.matrices, size)
            dims.add(cent.dim)
            *lifts, deck = susp.matrices
            for signs in itertools.product((1, -1), repeat=len(lifts)):
                negated = [g if s == 1 else g.scale(-1) for s, g in zip(signs, lifts)]
                assert matrix_centralizer(negated + [deck], size) == cent
        assert max(dims) > 1

    def test_conjugation_equivariance(self):
        rng = random.Random(53)
        g = random_invertible(rng, 3)
        p = random_unimodular(rng, 3)
        pinv = p.inverse()
        cent = matrix_centralizer([g], 3)
        conj = matrix_centralizer([p * g * pinv], 3)
        expected = AlgebraBasis.from_span([p * b * pinv for b in cent.basis], 3)
        assert conj.basis == expected.basis

    def test_mixed_sets_match_oracle_and_kernel_of_path(self):
        # the single-RREF centralizer against the dense Fraction oracle and
        # against the basis the kernel_of path gives, on sets mixing the
        # suspension's scalar 2I, p/q entries and conjugated Jordan blocks
        rng = random.Random(59)
        checked = 0
        for n in range(2, 7):
            for gens in _mixed_generator_sets(rng, n):
                cent = matrix_centralizer(gens, n)
                assert cent.span == centralizer_oracle(gens, n)
                if gens:
                    rows = _commutation_rows(gens, n)
                    via_kernel_of = AlgebraBasis(n, kernel_of(RatMatrix.from_integer_form(rows, 1)))
                    assert cent.basis == via_kernel_of.basis
                else:
                    assert cent.dim == n * n
                assert cent.contains_identity
                checked += 1
        assert checked == 25

    def test_one_span_per_call(self, monkeypatch):
        calls = []
        span = Subspace.span

        def counting_span(vectors, ambient_dim):
            calls.append(ambient_dim)
            return span(vectors, ambient_dim)

        monkeypatch.setattr(Subspace, "span", staticmethod(counting_span))
        rng = random.Random(61)
        for gens, n in (([random_invertible(rng, 4), RatMatrix.identity(4).scale(2)], 4), ([], 3)):
            calls.clear()
            matrix_centralizer(gens, n)
            assert calls == [n * n]

    def test_eliminations_of_one_seeded_system(self, monkeypatch):
        # the 48 x 16 commutation system has rank 13; rref drops each
        # dependent row once it reduces to zero, so no kept pivot is ever
        # cleared from it. Gauss-Jordan over every row took 140 eliminations.
        # The first generator is derogatory (minimal polynomial of degree 3),
        # which the Krylov pass finds at N^3 after 0 + 1 + 2 + 3 = 6
        # eliminations; the RREF takes the other 87.
        p = random_unimodular(random.Random(71), 4)
        j = frac_rows([[3, 1, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, -1]])
        k = frac_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 5], [0, 0, 0, 2]])
        gens = [p * j * p.inverse(), p * k * p.inverse(), RatMatrix.identity(4).scale(2)]
        calls = []
        eliminate = linalg.eliminate
        monkeypatch.setattr(linalg, "eliminate", lambda *args: calls.append(1) or eliminate(*args))
        cent = matrix_centralizer(gens, 4)
        assert cent.dim == 3
        assert len(calls) == 93

    def test_hostile_pq_pair_has_scalar_centralizer(self):
        # two 6 x 6 generators with entries p/q of up to 20 bits each: the
        # 72 x 36 system has rank 35, and over the lcm of each generator's
        # denominators its entries have up to 552 bits. The first generator
        # is cyclic, so the solve has 6 unknowns instead of 36.
        rng = random.Random(7)
        gens = [_hostile_pq(rng, 6) for _ in range(2)]
        cent = matrix_centralizer(gens, 6)
        assert cent.dim == 1 and cent.contains_identity

    def test_hostile_8x8_centralizers(self):
        # the 8 x 8 seed-7 pair and a block-diagonal 8 x 8 whose blocks are
        # two random 4 x 4 p/q matrices, whose centralizer is the block
        # scalars; the oracle's 128 x 64 Fraction elimination would take
        # seconds, so each basis element is checked against the generators
        rng = random.Random(7)
        pair = [_hostile_pq(rng, 8) for _ in range(2)]
        rng = random.Random(7)
        blocks = [_block_diagonal(_hostile_pq(rng, 4), _hostile_pq(rng, 4)) for _ in range(2)]
        upper = _block_diagonal(RatMatrix.identity(4), RatMatrix.zeros(4, 4))
        for gens, dim in ((pair, 1), (blocks, 2)):
            cent = matrix_centralizer(gens, 8)
            assert cent.dim == dim and cent.contains_identity
            assert cent.contains(upper) == (dim == 2)
            for b in cent.basis:
                for g in gens:
                    assert (b * g - g * b).is_zero()

    def test_cyclic_path_matches_oracle(self, monkeypatch):
        # C(A) = Q[A] for a cyclic A: the centralizer solves for polynomials
        # in the first non-scalar generator when it is cyclic, and falls back
        # to the n^2-unknown commutation system when it is derogatory
        widths = []
        rref = commutant.rref
        monkeypatch.setattr(commutant, "rref", lambda rows: widths.extend(map(len, rows)) or rref(rows))
        rng = random.Random(73)
        paths = {True: 0, False: 0}
        for n in range(1, 8):
            for gens, cyclic in _cyclic_generator_sets(rng, n):
                widths.clear()
                cent = matrix_centralizer(gens, n)
                assert cent.span == centralizer_oracle(gens, n)
                assert cent.contains_identity
                assert set(widths) <= ({n} if cyclic else {n * n})
                paths[cyclic] += 1
        assert paths == {True: 20, False: 15}

    def test_cyclic_first_generator_hands_rref_no_long_row(self, monkeypatch):
        # a cyclic 6 x 6 first generator: 36 rows of 6 unknowns for the second
        # generator, none for the scalar 2I, and no row of length 36. The
        # integer products: N, ..., N^5 in the Krylov pass, N^k M and M N^k
        # for k = 1..5, and one to combine the kernel with the powers.
        rng = random.Random(79)
        a, b = _cyclic_pq(rng, 6), _cyclic_pq(rng, 6)
        calls, products = [], []
        rref = commutant.rref
        monkeypatch.setattr(commutant, "rref", lambda rows: calls.append(list(map(len, rows))) or rref(rows))
        for module in (linalg, commutant):
            matmul = module.integer_matmul
            monkeypatch.setattr(module, "integer_matmul", lambda x, y, f=matmul: products.append(1) or f(x, y))
        matrix_centralizer([RatMatrix.identity(6).scale(2), a, b], 6)
        assert calls == [[6] * 36]
        assert len(products) == 5 + 10 + 1
        calls.clear()
        matrix_centralizer([a], 6)
        assert calls == [[]]
        calls.clear()
        p = random_unimodular(rng, 6)
        derogatory = p * _jordan(6, Fraction(3, 2), 3) * p.inverse()
        matrix_centralizer([derogatory, a], 6)
        assert calls == [[36] * 72]


def _hostile_pq(rng: random.Random, n: int) -> RatMatrix:
    """Entries p/q with |p| <= 10^6 and 1 <= q <= 10^6."""
    return frac_rows([[Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n)]
                      for _ in range(n)])


def _block_diagonal(*blocks: RatMatrix) -> RatMatrix:
    a = blocks[0]
    zeros = [Fraction(0)]
    for b in blocks[1:]:
        a = frac_rows([list(r) + zeros * b.ncols for r in a.rows] + [zeros * a.ncols + list(r) for r in b.rows])
    return a


def _cyclic_pq(rng: random.Random, n: int) -> RatMatrix:
    """A random n x n matrix with small p/q entries whose first n powers are
    independent: cyclic, and for n >= 2 not scalar."""
    while True:
        m = frac_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)] for _ in range(n)])
        if _is_cyclic(m):
            return m


def _is_cyclic(m: RatMatrix) -> bool:
    """Whether I, m, ..., m^(n-1) are independent, by a plain Fraction rank."""
    n = m.nrows
    powers, power = [], RatMatrix.identity(n)
    for _ in range(n):
        powers.append(list(vectorize(power)))
        power = power * m
    return len(fraction_rref(powers, n * n)[1]) == n


def _cyclic_generator_sets(rng: random.Random, n: int) -> list[tuple[list[RatMatrix], bool]]:
    """Generator sets, each with whether its first non-scalar generator is
    cyclic: a cyclic or derogatory single generator, a derogatory one
    followed by a cyclic one, scalars (such as the suspension's 2I) mixed
    in, and p/q entries; up to n = 5 also second generators that leave a
    centralizer between Q I and Q[A] (the oracle takes seconds beyond)."""
    scalar = RatMatrix.identity(n).scale(2)
    if n == 1:
        return [([scalar], False), ([scalar, RatMatrix.identity(1).scale(Fraction(-3, 5))], False)]
    p = random_unimodular(rng, n)
    pinv = p.inverse()
    cyc, other = _cyclic_pq(rng, n), _cyclic_pq(rng, n)
    sets = [([cyc], True), ([scalar, cyc, other], True)]
    if n <= 5:
        k = rng.randint(1, n - 1)
        while True:  # cyclic when the blocks' characteristic polynomials are coprime
            blocks = p * _block_diagonal(_cyclic_pq(rng, k), _cyclic_pq(rng, n - k)) * pinv
            if _is_cyclic(blocks):
                break
        partial = p * _block_diagonal(_cyclic_pq(rng, k), RatMatrix.identity(n - k).scale(Fraction(5, 3))) * pinv
        sets += [([cyc, scalar, cyc * cyc - cyc.scale(3)], True), ([blocks, scalar, partial], True)]
    if n >= 3:
        derogatory = p * _jordan(n, Fraction(3, 2), rng.randint(2, n - 1)) * pinv
        sets += [([derogatory], False), ([derogatory, cyc], False)]
        if n <= 5:
            sets.append(([scalar, derogatory, other, scalar], False))
    return sets


def E_n(n: int, i: int, j: int) -> RatMatrix:
    """The n x n matrix unit with a 1 at (i, j), counted from 0."""
    return frac_rows([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def _jordan(n: int, eigenvalue, block: int) -> RatMatrix:
    """One Jordan block of the given size, then eigenvalue * I: a large centralizer."""
    rows = [[eigenvalue if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(block - 1):
        rows[i][i + 1] = 1
    return frac_rows(rows)


def _mixed_generator_sets(rng: random.Random, n: int) -> list[list[RatMatrix]]:
    scalar = RatMatrix.identity(n).scale(2)
    p = random_unimodular(rng, n)
    jordan = p * _jordan(n, Fraction(3, 2), rng.randint(2, n)) * p.inverse()
    while True:
        pq = frac_rows([[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)])
        if pq.det() != 0:
            break
    return [[], [scalar], [scalar, jordan], [pq, scalar], [jordan, pq.scale(Fraction(-5, 3)), scalar]]


class TestInvariantAffineFields:
    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_suspension_fields_match_fraction_construction(self, path):
        rep = embed_linear_as_affine(benzecri_suspend(load_rep_file(path)))
        fields = invariant_affine_fields(rep)
        assert fields == fraction_affine_fields(rep)
        assert all(type(x) is Fraction for f in fields for x in f.constant_part)

    def test_random_affine_fields_match_fraction_construction(self):
        rng = random.Random(67)
        for _ in range(12):
            n = rng.randint(1, 4)
            gens = []
            for _ in range(rng.randint(1, 3)):
                lin = random_invertible(rng, n, -2, 2) if rng.random() < 0.6 else RatMatrix.identity(n)
                shift = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                rows = [list(r) + [t] for r, t in zip(lin.rows, shift)] + [[0] * n + [1]]
                gens.append(frac_rows(rows))
            rep = validate_rep([(f"g{i}", g) for i, g in enumerate(gens)], "affine", n)
            assert invariant_affine_fields(rep) == fraction_affine_fields(rep)

    def test_fields_are_a_slice_of_the_centralizer_not_basis_members(self):
        # g(x) = 2x + 1 keeps the field x -> x + 1 (the matrix g - I), but
        # neither canonical basis member of its centralizer span{I, g} has a
        # zero last row
        rep = validate_rep([("g", frac_rows([[2, 1], [0, 1]]))], "affine", 1)
        assert all(any(v[-2:]) for v in centralizer_algebra(rep).span.num)
        fields = invariant_affine_fields(rep)
        assert fields == fraction_affine_fields(rep) and len(fields) == 1

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


class TestClosureAndRadical:
    def test_diagonal_closed(self):
        a = AlgebraBasis.from_span([frac_rows([[1, 0], [0, 0]]), frac_rows([[0, 0], [0, 1]])], 2)
        ok, witness = algebra_closure_check(a)
        assert ok and witness is None

    def test_open_span_is_refused_naming_the_pair(self):
        # the canonical basis is (E12, E21): E12 E12 = 0 stays, E12 E21 = E11
        # leaves
        with pytest.raises(ClosureError, match=r"^basis pair \(0, 1\) leaves the span$"):
            AlgebraBasis.from_span([frac_rows([[0, 1], [0, 0]]), frac_rows([[0, 0], [1, 0]])], 2)

    def test_centralizer_outputs_closed(self):
        # matrix_centralizer checks nothing, so the oracle re-checks every
        # product of two basis elements, on the cyclic and the n^2-unknown path
        paths = {"cyclic": 0, "n^2": 0}
        for name, gens, size in _harvest_inputs():
            cent = matrix_centralizer(gens, size)
            assert closed_under_products(cent), name
            nonscalar = [g for g in gens if not g.is_scalar()]
            cyclic = nonscalar and linalg.krylov_powers(nonscalar[0].num, size)[1] is None
            paths["cyclic" if cyclic else "n^2"] += 1
        assert min(paths.values()) >= 5, paths
        # the oracle rejects an open span, built here without from_span's
        # check: E12 E21 = E11 leaves sl_2
        sl2 = AlgebraBasis(2, Subspace.span([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, -1]], 4))
        assert not closed_under_products(sl2)

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

    def test_constructor_takes_the_canonical_span(self):
        # span{I, E12} of 2 x 2 matrices, as row-major entries
        span = Subspace.span([[1, 0, 0, 1], [0, 1, 0, 0]], 4)
        a = AlgebraBasis(2, span)
        assert [f.name for f in dataclasses.fields(AlgebraBasis)] == ["ambient_dim", "span"]
        assert a == AlgebraBasis.from_span([RatMatrix.identity(2), frac_rows([[0, 3], [0, 0]])], 2)
        assert a.contains(frac_rows([[2, 5], [0, 2]])) and not a.contains(frac_rows([[1, 0], [0, 2]]))
        assert a.contains_identity and a.dim == 2
        assert algebra_closure_check(a) == (True, None)
        d = dickson_radical(a)
        assert d.radical == AlgebraBasis(2, Subspace.span([[0, 1, 0, 0]], 4))
        assert (d.quotient_dim, d.quotient_commutative, d.idempotent_witnesses) == (1, True, ())
        zero = AlgebraBasis(2, Subspace.zero(4))
        assert dickson_radical(zero) == Decomposition(zero, 0, True, ())
        for n in (1, 3):
            with pytest.raises(ValueError, match="ambient size"):
                AlgebraBasis(n, span)

    def test_local_centralizers_have_no_idempotent(self):
        # The centralizers of conjugated unipotent, full-lattice translation
        # and Jordan-block groups, with the suspension's 2I, are local: QI
        # plus the radical. dickson_radical skips the idempotent search on
        # them, and the search itself finds nothing there either.
        rng = random.Random(83)
        checked = 0
        for n in range(2, 6):
            unipotent = [RatMatrix.identity(n) + E_n(n, i, i + 1) for i in range(n - 1)]
            translations = [RatMatrix.identity(n) + E_n(n, i, n - 1) for i in range(n - 1)]
            for gens in (unipotent, translations, [_jordan(n, Fraction(-2, 3), n)]):
                p = random_unimodular(rng, n)
                pinv = p.inverse()
                conj = [p * g * pinv for g in gens] + [RatMatrix.identity(n).scale(2)]
                cent = matrix_centralizer(conj, n)
                d = dickson_radical(cent)
                assert cent.contains_identity and d.quotient_dim == 1 and d.quotient_commutative
                assert d.idempotent_witnesses == () == commutant._idempotent_witnesses(cent)
                checked += 1
        assert checked == 12

    def test_idempotent_search_boundaries(self):
        # span{E11, E12} is closed with a one-dimensional quotient but lacks
        # I, so it is searched and holds E11; a strictly upper triangular
        # algebra is its own radical and holds no idempotent
        e11, e12 = frac_rows([[1, 0], [0, 0]]), frac_rows([[0, 1], [0, 0]])
        corner = AlgebraBasis.from_span([e11, e12], 2)
        d = dickson_radical(corner)
        assert not corner.contains_identity and d.quotient_dim == 1
        assert d.idempotent_witnesses[0] == e11
        strict = AlgebraBasis.from_span([E[(1, 2)], E[(1, 3)], E[(2, 4)], E[(3, 4)], E[(1, 4)]], 4)
        d = dickson_radical(strict)
        assert d.radical == strict and d.quotient_dim == 0 and d.quotient_commutative
        assert d.idempotent_witnesses == () == commutant._idempotent_witnesses(strict)

    def test_radical_input_is_checked_by_from_span(self):
        # an open span never reaches dickson_radical: from_span refuses it,
        # and the algebra it generates, M_2(Q), is accepted and semisimple
        e12, e21 = frac_rows([[0, 1], [0, 0]]), frac_rows([[0, 0], [1, 0]])
        with pytest.raises(ClosureError):
            AlgebraBasis.from_span([e12, e21], 2)
        d = dickson_radical(AlgebraBasis.from_span([e12, e21, e12 * e21, e21 * e12], 2))
        assert (d.radical.dim, d.quotient_dim, d.quotient_commutative) == (0, 4, False)

    def test_idempotent_witnesses_are_idempotent(self):
        rep = validate_rep([], "projective-class", 2)
        cent = centralizer_algebra(benzecri_suspend(rep))
        d = dickson_radical(cent)
        assert d.idempotent_witnesses
        ident = RatMatrix.identity(3)
        for e in d.idempotent_witnesses:
            assert e * e == e
            assert not e.is_zero() and e != ident

    def test_idempotent_witnesses_are_pinned(self):
        # reports carry only the witness count, so this pins which
        # idempotents the search keeps and their order: it walks the basis,
        # then sums of basis pairs, and the linear factors of each one's
        # characteristic polynomial in factor_polynomial's order
        rep = load_rep_file(DATA / "dim3_noncommutative_radical.json")
        cent = centralizer_algebra(benzecri_suspend(rep))
        assert dickson_radical(cent).idempotent_witnesses == tuple(
            frac_rows(e)
            for e in (
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
                [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
                [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
                [[0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
                [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]],
                [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 1]],
            )
        )
        diag = matrix_centralizer([frac_rows([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]])], 4)
        assert dickson_radical(diag).idempotent_witnesses == tuple(
            frac_rows([[int(r == c and r in ones) for c in range(4)] for r in range(4)])
            for ones in ((0,), (1, 2, 3), (1,), (0, 2, 3), (2,), (0, 1, 3))
        )

    def test_witnesses_match_the_egcd_construction(self):
        # the projection onto Ker f(m)^k along Im f(m)^k is the polynomial
        # (s * cofactor)(m) that the search built before, and the projection
        # that it read off one RREF of f(m)^k for the minimal polynomial's
        # factors, witness for witness and in order, on diagonal, Jordan and
        # trivial groups and on two unimodular conjugates of each
        rng = random.Random(47)
        groups = [
            ([_diagonal(1, 2, 3)], 3),
            ([_diagonal(1, 1, 2)], 3),
            ([_diagonal(-1, Fraction(1, 2), Fraction(1, 2), 3)], 4),
            ([_diagonal(2, 2, 5, 5)], 4),
            ([_jordan(3, 1, 2)], 3),
            ([_jordan(4, Fraction(-2, 3), 3)], 4),
            ([_block_diagonal(_jordan(2, 1, 2), _jordan(2, 3, 2))], 4),
            ([], 2),
            ([], 3),
        ]
        found = []
        for gens, n in groups:
            for conjugate in (False, True, True):
                p = random_unimodular(rng, n) if conjugate else RatMatrix.identity(n)
                pinv = p.inverse()
                cent = matrix_centralizer([p * g * pinv for g in gens], n)
                witnesses = commutant._idempotent_witnesses(cent)
                assert witnesses == egcd_idempotent_witnesses(cent) == minimal_polynomial_witnesses(cent)
                found.append(len(witnesses))
        assert len(found) == 27 and all(found) and sum(found) == 144

    def test_projection_has_the_given_image_and_kernel(self):
        rng = random.Random(59)
        for n in range(2, 6):
            for k in range(1, n + 1):
                p = random_invertible(rng, n) * random_unimodular(rng, n).scale(Fraction(2, 3))
                cols = list(zip(*p.num))
                onto, along = Subspace.span(cols[:k], n), Subspace.span(cols[k:], n)
                e = commutant._projection(onto.num, along.num)
                assert commutant._projection(cols[:k], cols[k:]) == e
                assert e * e == e
                assert kernel_and_image(e) == (along, onto)
                keep = frac_rows([[int(i == j and i < k) for j in range(n)] for i in range(n)])
                assert e == p * keep * p.inverse()


class TestAlgebraProducts:
    @staticmethod
    def _count_products(monkeypatch) -> list:
        products = []
        matmul = RatMatrix.matmul
        monkeypatch.setattr(RatMatrix, "matmul", lambda x, y: products.append(1) or matmul(x, y))
        return products

    @pytest.mark.parametrize(("name", "n"), [("dim2_trivial", 3), ("dim3_trivial_injective", 4)])
    def test_trivial_holonomy_radical_forms_at_most_two_products(self, name, n, monkeypatch):
        # the suspended centralizer is M_n(Q): closed without a product, its
        # trace form read off the entries, and its quotient non-commutative
        # at the first pair, E11 E12 != E12 E11; confirming closure formed
        # all n^4 products
        cent = centralizer_algebra(benzecri_suspend(load_rep_file(CORPUS / f"{name}.json")))
        assert cent.dim == n * n
        products = self._count_products(monkeypatch)
        d = dickson_radical(cent)
        assert (d.radical.dim, d.quotient_dim, d.quotient_commutative) == (0, n * n, False)
        assert len(products) <= 2
        assert not cent.is_commutative()  # reads the same pair from the memo
        assert len(products) <= 2

    def test_is_commutative_on_full_matrix_algebra_stops_after_first_pair(self, monkeypatch):
        products = self._count_products(monkeypatch)
        for n in range(2, 6):
            products.clear()
            assert not matrix_centralizer([], n).is_commutative()
            assert len(products) == 2

    def test_product_is_memoized(self, monkeypatch):
        a = matrix_centralizer([], 3)
        products = self._count_products(monkeypatch)
        p = a.product(0, 1)
        assert a.product(0, 1) is p and p == a.basis[0] * a.basis[1]
        assert len(products) == 2  # the first call and the check's own product
        assert not hasattr(a, "products")

    def test_trace_form_forms_no_product_and_matches_product_traces(self, monkeypatch):
        # centralizers of conjugated derogatory generators, whose canonical
        # bases have non-integer entries
        rng = random.Random(67)
        fractional = 0
        for n in range(2, 6):
            p = random_invertible(rng, n)
            pinv = p.inverse()
            transvection = E_n(n, 0, n - 1) + RatMatrix.identity(n)
            for gens in ([_jordan(n, Fraction(1, 2), max(1, n - 2))], [transvection]):
                a = matrix_centralizer([p * g * pinv for g in gens], n)
                fractional += any(b.den > 1 for b in a.basis)
                with monkeypatch.context() as m:
                    products = self._count_products(m)
                    gram = a.trace_form
                    assert products == []
                k = a.dim
                traces = [[a.product(i, j).trace() for j in range(k)] for i in range(k)]
                assert gram == RatMatrix.from_rows(traces)
        assert fractional >= 4

    def test_from_span_checks_every_product_below_full_dimension(self, monkeypatch):
        # the diagonal algebra of M_3 is closed, with all 9 products checked;
        # the trace-zero 2 x 2 matrices span 3 < 4 dimensions and are not
        # closed: in the canonical basis (E11 - E22, E12, E21) the first
        # pair already leaves, (E11 - E22)^2 = I; M_n(Q) forms no product
        products = self._count_products(monkeypatch)
        diag = AlgebraBasis.from_span([E_n(3, i, i) for i in range(3)], 3)
        assert len(products) == 9 and len(diag._products) == 9
        products.clear()
        with pytest.raises(ClosureError, match=r"^basis pair \(0, 0\) leaves the span$"):
            AlgebraBasis.from_span([E_n(2, 0, 1), E_n(2, 1, 0), E_n(2, 0, 0) - E_n(2, 1, 1)], 2)
        assert len(products) == 1
        products.clear()
        full = AlgebraBasis.from_span([E_n(3, i, j) for i in range(3) for j in range(3)], 3)
        assert full.dim == 9 and products == []

    def test_centralizer_and_radical_form_no_product_for_closure(self, monkeypatch):
        # a conjugated Jordan block (cyclic path) and a conjugated pair of
        # transvections (n^2-unknown path): both centralizers are local, so
        # dickson_radical needs no quotient test and no idempotent search.
        # Neither it nor matrix_centralizer forms a product or tests a
        # membership; the same span built by from_span is equal to it and is
        # checked product by product
        calls = []
        contains = Subspace.contains
        monkeypatch.setattr(Subspace, "contains", lambda s, v: calls.append(1) or contains(s, v))
        products = self._count_products(monkeypatch)
        rng = random.Random(89)
        translations = [RatMatrix.identity(3) + E_n(3, 0, 2), RatMatrix.identity(3) + E_n(3, 1, 2)]
        paths = []
        for gens in ([_jordan(3, Fraction(-2, 3), 3)], translations):
            p = random_unimodular(rng, 3)
            conj = [p * g * p.inverse() for g in gens]
            paths.append(linalg.krylov_powers(conj[0].num, 3)[1] is None)
            products.clear()
            calls.clear()
            cent = matrix_centralizer(conj, 3)
            assert products == [] and calls == []
            assert 1 < cent.dim < 9 and cent.contains_identity
            calls.clear()
            d = dickson_radical(cent)
            assert d.quotient_dim == 1 and products == [] and calls == []
            rebuilt = AlgebraBasis.from_span(cent.basis, 3)
            assert rebuilt == cent
            assert len(products) == cent.dim**2
        assert paths == [True, False]

    def test_closure_check_forms_no_product(self, monkeypatch):
        # every AlgebraBasis is closed, so the check reads nothing: not on a
        # centralizer, and not on a span that from_span has already checked
        cent = centralizer_algebra(benzecri_suspend(load_rep_file(CORPUS / "dim3_torus_translations.json")))
        corner = AlgebraBasis.from_span([E_n(2, 0, 0), E_n(2, 0, 1)], 2)
        assert cent.dim < 16
        calls = []
        contains = Subspace.contains
        monkeypatch.setattr(Subspace, "contains", lambda s, v: calls.append(1) or contains(s, v))
        products = self._count_products(monkeypatch)
        assert algebra_closure_check(cent) == algebra_closure_check(corner) == (True, None)
        assert products == [] and calls == []


class TestRotationalElement:
    def test_rotation_block_found(self):
        # span{I, j} is not closed, j^2 = -diag(1, 1, 0, 0); span{I, j, j^2} is
        j = frac_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        a = AlgebraBasis.from_span([RatMatrix.identity(4), j, j * j], 4)
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
                # the canonical basis of span{I, j, j^2}: within bound 2 the
                # walk reaches -j on one of the 20 and nothing on the others,
                # and the screened walk must agree with the unscreened one
                a = AlgebraBasis.from_span([ident, j + ident, j * j], n)
                found = find_rotational_element(a)
                assert found == unscreened_rotational_element(a)
                finds += found is not None
                assert found is None or found.element == -j
        assert finds == 1

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


def _diagonal(*entries) -> RatMatrix:
    return frac_rows([[x if i == j else 0 for j, _ in enumerate(entries)] for i, x in enumerate(entries)])


def _harvest_inputs() -> list[tuple[str, list[RatMatrix], int]]:
    """(name, generators, size) of flag-search and closure inputs: the
    suspension of every corpus and tests/data document; M_n(Q) for
    n = 2..6, as the centralizer of the suspended trivial group; diagonal
    and block-diagonal generators conjugated by unimodular matrices; and
    the analyze-families shapes (unipotent, rotation block, generic pair)
    in dimensions 3-6; and conjugated unequal Jordan blocks."""
    rng = random.Random(71)

    def conj(mats):
        p = random_unimodular(rng, mats[0].nrows)
        pinv = p.inverse()
        return [p * g * pinv for g in mats]

    inputs = []
    for path in sorted(CORPUS.glob("*.json")) + sorted(DATA.glob("*.json")):
        susp = benzecri_suspend(load_rep_file(path))
        inputs.append((path.stem, list(susp.matrices), susp.matrix_size))
    for n in range(2, 7):
        inputs.append((f"M_{n}", [RatMatrix.identity(n).scale(2)], n))
    j2 = _jordan(2, 1, 2)
    inputs += [
        ("diag(1,1,2,2,3,3,4,4)", conj([_diagonal(1, 1, 2, 2, 3, 3, 4, 4)]), 8),
        ("diag(1,2,2,3,3,3)", conj([_diagonal(1, 2, 2, 3, 3, 3)]), 6),
        ("blocks(J2,J2,2)", conj([_block_diagonal(j2, j2, _diagonal(2))]), 5),
        ("blocks(R,R)", conj([_block_diagonal(ROT90, ROT90)]), 4),
        ("blocks(R,R,J2)+diag", conj([_block_diagonal(ROT90, ROT90, j2), _diagonal(1, 1, 1, 1, 3, 3)]), 6),
    ]
    for n in range(3, 7):
        generic = [random_invertible(rng, n), random_invertible(rng, n)]
        families = (("unipotent", _unipotent_pair(n)), ("rotation", _rotation_pair(n)), ("generic", generic))
        for family, pair in families:
            inputs.append((f"{family}-{n}", conj(list(pair)), n))
    # unequal Jordan blocks of one eigenvalue: the chain's last kernel,
    # of dimension n - 1, is not found elsewhere on these conjugates
    j3 = _jordan(3, 1, 3)
    inputs += [
        ("blocks(J3,1)", conj([_block_diagonal(j3, _diagonal(1))]), 4),
        ("blocks(J3,J2)", conj([_block_diagonal(j3, _jordan(2, 1, 2))]), 5),
    ]
    return inputs


class TestFlagHarvest:
    """_invariant_candidates against the harvest that forms every kernel,
    image and primary component (helpers.primary_decomposition_harvest)."""

    @pytest.mark.parametrize("cap", [None, 3, 5])
    def test_matches_primary_decomposition_harvest(self, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(commutant, "_FLAG_CANDIDATE_CAP", cap)
        cap = commutant._FLAG_CANDIDATE_CAP
        sizes = {}
        for name, gens, size in _harvest_inputs():
            cent = matrix_centralizer(gens, size)
            expected = primary_decomposition_harvest(gens, cent.basis, size, cap)
            assert _invariant_candidates(gens, cent, size) == expected, name
            sizes[name] = len(expected)
        if cap == 48:
            # no input reaches the default cap
            assert (sizes["M_6"], sizes["diag(1,1,2,2,3,3,4,4)"]) == (12, 30)
            assert max(sizes.values()) < cap
        else:
            # the cap cuts the harvest of many inputs short
            assert sum(k == cap for k in sizes.values()) >= 15

    def test_witnesses_match_the_minimal_polynomial_search(self):
        # the search reads each candidate's primary decomposition, through
        # the memo for basis elements; the parent construction factored
        # each minimal polynomial and took one RREF of f(m)^k
        found = 0
        for name, gens, size in _harvest_inputs():
            cent = matrix_centralizer(gens, size)
            witnesses = commutant._idempotent_witnesses(cent)
            assert witnesses == minimal_polynomial_witnesses(cent), name
            found += len(witnesses)
        assert found == 117  # over 41 centralizers

    def test_closure_skips_are_exact(self):
        # invariant_flag_search forms no sum or intersection of a nested
        # pair and no intersection of a direct sum; helpers.harvested_flag
        # forms them all. A group of scalars takes the coordinate flag
        # instead (TestScalarGroupFlag).
        closed = []
        for name, gens, size in _harvest_inputs():
            if all(g.is_scalar() for g in gens):
                continue
            cent = matrix_centralizer(gens, size)
            rep = validate_rep([(f"g{i}", g) for i, g in enumerate(gens)], "linear", size)
            assert invariant_flag_search(rep, cent) == harvested_flag(gens, cent, size), name
            if len(_longest_chain(_invariant_candidates(gens, cent, size))) < size - 1:
                closed.append(name)
        assert {"rotation-4", "rotation-5", "rotation-6"} <= set(closed)


class TestOneFactorizationPerElement:
    """The idempotent search, the flag harvest and the zero-set analysis
    read each centralizer basis element's primary decomposition from the
    algebra's memo, so within one analyze or classify call no basis
    element's polynomial is factored twice."""

    @staticmethod
    def _factored_matrices(monkeypatch) -> list:
        """Wraps factor_polynomial, and the polynomials it is fed, in every
        namespace that binds them; returns the list that collects the matrix
        whose polynomial each factor_polynomial call receives."""
        made, factored = {}, []  # made keeps each polynomial alive, so its id names it

        def track(fn):
            def tracked(m):
                p = fn(m)
                made[id(p)] = (p, m)
                return p
            return tracked

        def count(fn):
            def counted(p):
                factored.append(made[id(p)][1] if id(p) in made else None)
                return fn(p)
            return counted

        wrappers = {
            "factor_polynomial": count(polys.factor_polynomial),
            "characteristic_polynomial": track(polys.characteristic_polynomial),
            "minimal_polynomial": track(polys.minimal_polynomial),
        }
        for module in (polys, commutant, classify_module):
            for name, wrapper in wrappers.items():
                monkeypatch.setattr(module, name, wrapper, raising=False)
        return factored

    @staticmethod
    def _assert_once(factored, cent):
        counts = {b: sum(m == b for m in factored) for b in cent.basis}
        assert max(counts.values()) == 1, counts

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_analyze_on_rotation_blocks(self, n, monkeypatch):
        p = random_unimodular(random.Random(n), n)
        pinv = p.inverse()
        rep = validate_rep([(f"g{i}", p * g * pinv) for i, g in enumerate(_rotation_pair(n))], "linear", n)
        options = {"search_bound": 2, "commutator_depth": 8, "max_word_length": 6, "format": "json"}
        factored = self._factored_matrices(monkeypatch)
        cli._analyze_one(rep, options)
        self._assert_once(factored, centralizer_algebra(rep))

    @pytest.mark.parametrize("name", ["conj_dim3_torus_translations_1.json", "dim3_zero_set_line.json"])
    def test_classify_dim3_on_commutative_conjugates(self, name, monkeypatch):
        rep = load_rep_file(DATA / name)
        factored = self._factored_matrices(monkeypatch)
        outcome = classify_module.classify_dim3(rep)
        assert outcome.branch == classify_module.BRANCH_COMMUTATIVE
        self._assert_once(factored, outcome.commutant)


class TestKernelChainFlag:
    """Ker f(m)^j for 1 < j < k is a candidate, so a regular unipotent
    block, whose only invariant subspaces are span(e_1, ..., e_j), gets
    that complete flag and not just its kernel and image."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_unipotent_pair_and_a_conjugate_get_the_complete_flag(self, n):
        a, b = _unipotent_pair(n)
        p = random_unimodular(random.Random(n), n)
        pinv = p.inverse()
        coordinate = [Subspace.span(RatMatrix.identity(n).num[:j], n) for j in range(1, n)]
        conjugated = [s.apply(p) for s in coordinate]
        for gens, expected in (([a, b], coordinate), ([p * a * pinv, p * b * pinv], conjugated)):
            rep = validate_rep([("a", gens[0]), ("b", gens[1])], "linear", n)
            flag = invariant_flag_search(rep)
            assert flag == Flag(tuple(expected))
            assert verify_certificate(rep, InvariantFlagCertificate(flag))


class TestScalarGroupFlag:
    """A group of scalars leaves every subspace invariant, so
    invariant_flag_search builds its complete flag: no centralizer and no
    harvest."""

    @staticmethod
    def _scalar_rep(n, *scalars):
        gens = [(f"s{i}", RatMatrix.identity(n).scale(c)) for i, c in enumerate(scalars)]
        return validate_rep(gens, "linear", n)

    def test_dimension_one_has_no_flag(self):
        assert invariant_flag_search(self._scalar_rep(1, 2)) is None
        assert invariant_flag_search(self._scalar_rep(1)) is None

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_the_harvest_on_the_full_matrix_algebra(self, n):
        full = matrix_centralizer([], n)
        for scalars in ((2,), (1, Fraction(-3, 2)), ()):
            rep = self._scalar_rep(n, *scalars)
            flag = invariant_flag_search(rep)
            assert flag == harvested_flag(list(rep.matrices), full, n)
            assert flag.complete

    @pytest.mark.parametrize("n", range(6, 9))
    def test_complete_where_the_harvest_is_capped(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("a group of scalars needs no centralizer and no harvest")

        monkeypatch.setattr(commutant, "matrix_centralizer", refuse)
        monkeypatch.setattr(commutant, "_invariant_candidates", refuse)
        rep = self._scalar_rep(n, 2, Fraction(1, 3))
        flag = invariant_flag_search(rep)
        assert flag.complete and verify_certificate(rep, InvariantFlagCertificate(flag))

    def test_the_capped_harvest_left_dimension_six_incomplete(self):
        # the defect that the construction fixes: the harvest on M_6(Q) ends
        # with the incomplete chain of dimensions (1, 2, 4, 5)
        rep = self._scalar_rep(6, 2)
        flag = harvested_flag(list(rep.matrices), matrix_centralizer([], 6), 6)
        assert flag.dims == (1, 2, 4, 5)

    @pytest.mark.parametrize(
        "argv, harvests",
        [
            (["classify", "--dim", "3", str(CORPUS / "dim3_trivial_injective.json")], False),
            (["analyze", str(CORPUS / "dim2_trivial.json")], False),
            (["analyze", str(CORPUS / "dim2_translation_torus.json")], True),
        ],
    )
    def test_trivial_holonomy_runs_no_harvest(self, argv, harvests, monkeypatch):
        searches, candidates = [], []
        for module in (cli, classify_module):
            search = module.invariant_flag_search
            monkeypatch.setattr(
                module, "invariant_flag_search", lambda *a, f=search: searches.append(1) or f(*a)
            )
        harvest = commutant._invariant_candidates
        monkeypatch.setattr(commutant, "_invariant_candidates", lambda *a: candidates.append(1) or harvest(*a))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["--format", "json"]) == 0
        assert searches and bool(candidates) == harvests


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

    def test_pool_never_exceeds_max_level(self, monkeypatch):
        gens = [
            frac_rows([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]),
            frac_rows([[1, 2, -1, 1], [0, 1, 1, -1], [0, 0, 1, 1], [0, 0, 0, 1]]),
        ]
        rep = validate_rep([("a", gens[0]), ("b", gens[1])], "linear", 4)
        for max_level in (3, 5, 32):
            monkeypatch.setattr(commutant, "_MAX_LEVEL", max_level)
            report = truncated_derived_series(rep)
            assert report.verdict == "yes" and report.stopped is None
            assert all(level.pool_size <= max_level for level in report.levels)
            assert all(level.nontrivial_commutators <= max_level for level in report.levels)

    def test_pool_cap_below_two_is_rejected(self, monkeypatch):
        # the Sanov pair generates a free group; a pool capped at one
        # matrix would have no pairs and pass for a commuting level, so the
        # cap is at least two, and at two the verdict stays unknown
        a = frac_rows([[1, 2], [0, 1]])
        b = frac_rows([[1, 0], [2, 1]])
        rep = validate_rep([("a", a), ("b", b)], "linear", 2)
        monkeypatch.setattr(commutant, "_MAX_LEVEL", 2)
        assert truncated_derived_series(rep).verdict == "unknown"


def _unipotent_pair(n):
    """A regular unipotent Jordan block and a dense unipotent partner that
    does not commute with it (the analyze-families benchmark shape)."""
    a = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
    b = [[1 if j == i else (-1) ** (i + j) if j > i else 0 for j in range(n)] for i in range(n)]
    b[0][1] = 2
    return frac_rows(a), frac_rows(b)


def _rotation_pair(n):
    """diag(R, T): R in the circle family {x I + y J}, T upper triangular
    with +-1 on the diagonal (the analyze-families benchmark shape)."""
    a = [[0] * n for _ in range(n)]
    b = [[0] * n for _ in range(n)]
    a[0][:2], a[1][:2] = [0, -1], [1, 0]
    b[0][:2], b[1][:2] = [1, -1], [1, 1]
    for i in range(2, n):
        a[i][i], b[i][i] = (-1) ** i, 1
        for j in range(i + 1, n):
            a[i][j], b[i][j] = 1, (-1) ** j
    return frac_rows(a), frac_rows(b)


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return frac_rows([[rng.choice([-1, 1]) * (perm[i] == j) for j in range(n)] for i in range(n)])


def _groups_with_relations():
    """Generator lists whose conjugates recur, so that the probe's
    letter-by-letter conjugation finds most of its steps in its memo."""
    rng = random.Random(31)
    groups = {
        f"signed-permutations-{n}-{k}": [_signed_permutation(rng, n) for _ in range(k)]
        for n in (3, 4)
        for k in (2, 3)
    }
    e12 = frac_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    e23 = frac_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
    groups["heisenberg"] = [e12, e23]  # the commutator I + E_13 is central
    groups["involution"] = [frac_rows([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), e12 * e23]
    a, b = _unipotent_pair(3)
    groups["own-inverse"] = [a, a.inverse(), b]
    return groups


def _assert_matches_pair_loop(rep, options=((8, 6, 32, 24), (3, 2, 5, 24))):
    for depth, words, max_level, max_conjugators in options:
        expected = pair_loop_derived_series(rep, depth, words, max_conjugators, max_level)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(commutant, "_MAX_LEVEL", max_level)
            mp.setattr(commutant, "_MAX_CONJUGATORS", max_conjugators)
            assert truncated_derived_series(rep, depth, words) == expected


class TestCommutingLevelShortcut:
    """A level whose pool commutes is settled from a basis of the pool's
    span, conjugates are built letter by letter and inverses only when
    read; the reports must equal the pair loop's, which builds every
    matrix whole and with its inverse."""

    @pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem)
    def test_matches_pair_loop_on_corpus(self, path):
        rep = load_rep_file(path)
        _assert_matches_pair_loop(rep)
        _assert_matches_pair_loop(benzecri_suspend(rep))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_pair_loop_on_families(self, n):
        for pair in (_unipotent_pair(n), _rotation_pair(n)):
            rep = validate_rep([("a", pair[0]), ("b", pair[1])], "linear", n)
            _assert_matches_pair_loop(rep)
            assert truncated_derived_series(rep).verdict == "yes"

    def test_matches_pair_loop_on_seeded_generic_pairs(self):
        rng = random.Random(23)
        for n in (2, 3, 4, 5):
            rep = validate_rep([("a", random_invertible(rng, n)), ("b", random_invertible(rng, n))], "linear", n)
            _assert_matches_pair_loop(rep, options=((8, 6, 32, 24), (2, 2, 3, 24)))

    @pytest.mark.parametrize("name", sorted(_groups_with_relations()))
    def test_matches_pair_loop_on_groups_with_relations(self, name):
        # the small caps fill the pool, or run out of conjugators, partway
        # through a level
        gens = _groups_with_relations()[name]
        rep = validate_rep([(f"g{i}", g) for i, g in enumerate(gens)], "linear", gens[0].nrows)
        _assert_matches_pair_loop(rep, options=((8, 6, 32, 24), (4, 3, 3, 5), (8, 6, 7, 3)))

    def test_commuting_pool_costs_at_most_d_times_d_minus_one_products(self, monkeypatch):
        # 32 members of the commutative algebra {a I + [[0, B], [0, 0]]} of
        # 6 x 6 matrices, B any 3 x 3 block: its dimension 10 is Schur's
        # bound floor(36 / 4) + 1, and the pair loop would take 992 products
        rng = random.Random(9)
        pool = []
        for _ in range(32):
            a = rng.randint(-3, 3)
            rows = [[a * (r == c) for c in range(6)] for r in range(6)]
            for r in range(3):
                rows[r][3:] = [rng.randint(-3, 3) for _ in range(3)]
            pool.append(frac_rows(rows))
        d = Subspace.span([vectorize(m) for m in pool], 36).dim
        assert d == 10
        products = []
        matmul = RatMatrix.matmul
        monkeypatch.setattr(RatMatrix, "matmul", lambda x, y: products.append(1) or matmul(x, y))
        assert _pairwise_commute(pool)
        assert len(products) <= d * (d - 1)


class TestDerivedSeriesWork:
    @pytest.mark.parametrize(
        ("pair", "bound"),
        [(_rotation_pair(4), 244), (_unipotent_pair(3), 283)],
        ids=["rotation-4", "unipotent-3"],
    )
    def test_default_probe_products(self, pair, bound, monkeypatch):
        # building every inverse with its matrix, and each conjugate c s c^-1
        # whole, took 677 and 432 products
        rep = validate_rep([("a", pair[0]), ("b", pair[1])], "linear", pair[0].nrows)
        products = []
        matmul = RatMatrix.matmul
        monkeypatch.setattr(RatMatrix, "matmul", lambda x, y: products.append(1) or matmul(x, y))
        assert truncated_derived_series(rep).verdict == "yes"
        assert len(products) <= bound

    def test_probe_leaves_no_reference_cycles(self):
        # the memo lives in the call's frame; a cycle, such as a closure
        # that calls itself, would leave it to the cycle collector
        a, b = _unipotent_pair(4)
        rep = validate_rep([("a", a), ("b", b)], "linear", 4)
        gc.collect()
        gc.disable()
        try:
            truncated_derived_series(rep)
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def mixed_pools(draw):
    """Pools of polynomials in one random matrix, or of diagonal matrices
    conjugated by one unimodular matrix, each with at most one perturbed
    member inserted at a random position."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(1, 12))
    if draw(st.booleans()):
        m = random_int_matrix(rng, n)
        powers = [RatMatrix.identity(n)]
        while len(powers) < n:
            powers.append(powers[-1] * m)
        pool = []
        for _ in range(size):
            total = RatMatrix.zeros(n, n)
            for power in powers:
                total = total + power.scale(rng.randint(-2, 2))
            pool.append(total)
    else:
        p = random_unimodular(rng, n, ops=rng.choice([0, 2, 6]))
        pinv = p.inverse()
        pool = [
            p * frac_rows([[rng.randint(-2, 2) * (r == c) for c in range(n)] for r in range(n)]) * pinv
            for _ in range(size)
        ]
    if draw(st.booleans()):
        unit = [[0] * n for _ in range(n)]
        unit[rng.randrange(n)][rng.randrange(n)] = rng.choice([-1, 1, Fraction(1, 2)])
        pool.insert(rng.randrange(len(pool) + 1), rng.choice(pool) + frac_rows(unit))
    return pool


@settings(max_examples=150, deadline=None)
@given(mixed_pools())
def test_pairwise_commute_matches_every_pair(pool):
    expected = all(a * b == b * a for i, a in enumerate(pool) for b in pool[i + 1 :])
    assert _pairwise_commute(pool) == expected


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

    def test_zero_fixed_point_is_rejected(self):
        # with no generator, only the zero test rejects the zero vector
        assert not verify_certificate(validate_rep([], "linear", 2), FixedProjectivePointCertificate((0, 0)))

    def test_point_sent_to_zero_is_not_fixed(self):
        # diag(1, 1, 0) sends e3 to 0, so span(e3) is not kept: the point
        # and its line get the same verdict. validate_rep refuses singular
        # matrices, so the representation is built directly
        g = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        rep = Representation(3, "linear", (Generator("g", g),))
        line = Subspace.span([[0, 0, 1]], 3)
        assert not verify_certificate(rep, InvariantSubspaceCertificate(line))
        assert not verify_certificate(rep, FixedProjectivePointCertificate((0, 0, 1)))
        assert not verify_certificate(rep, FixedProjectivePointCertificate((0, 0, 0)))
        assert verify_certificate(rep, FixedProjectivePointCertificate((1, 1, 0)))

    # j = [[0, -1, 0], [1, 0, 0], [0, 0, 0]]: x(x^2 + 1), rotation plane
    # span(e1, e2), fixed line span(e3)
    J3 = frac_rows([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    PLANE = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
    LINE = Subspace.span([[0, 0, 1]], 3)

    def test_rotational_certificate_checks(self):
        rep = validate_rep([("g", frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))], "linear", 3)
        assert verify_certificate(rep, RotationalElementCertificate(self.J3, self.PLANE, self.LINE))
        # a projection with the same image and kernel as j: minimal
        # polynomial x(x - 1), not x^2 + c or x(x^2 + c)
        not_rotational = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert not verify_certificate(rep, RotationalElementCertificate(not_rotational, self.PLANE, self.LINE))
        # spaces that are not Im j and Ker j
        assert not verify_certificate(rep, RotationalElementCertificate(self.J3, Subspace.full(3), self.LINE))
        assert not verify_certificate(rep, RotationalElementCertificate(self.J3, self.PLANE, Subspace.zero(3)))

    @pytest.mark.parametrize("g", [[[0, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 0]]],
                             ids=["E33", "diag110"])
    def test_rotational_spaces_must_be_kept(self, g):
        # a singular g commutes with j but does not keep the plane (E33) or
        # the line (diag(1, 1, 0)); validate_rep refuses singular matrices,
        # so the representation is built directly
        g = frac_rows(g)
        assert g * self.J3 == self.J3 * g
        rep = Representation(3, "linear", (Generator("g", g),))
        assert not verify_certificate(rep, RotationalElementCertificate(self.J3, self.PLANE, self.LINE))

    def test_rotational_search_drops_what_rep_rejects(self):
        # span{I, j} holds the rotation j, but j does not commute with diag(2, 3)
        a = AlgebraBasis.from_span([RatMatrix.identity(2), ROT90], 2)
        assert find_rotational_element(a) is not None
        rep = validate_rep([("d", frac_rows([[2, 0], [0, 3]]))], "linear", 2)
        assert find_rotational_element(a, rep=rep) is None

    def test_flag_certificate_roundtrip(self):
        gens = [frac_rows([[1, 1, 0], [0, 1, 1], [0, 0, 1]])]
        rep = validate_rep([("g", gens[0])], "linear", 3)
        flag = invariant_flag_search(rep)
        assert flag is not None
        assert verify_certificate(rep, InvariantFlagCertificate(flag))
