import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.linalg import RatMatrix, Subspace
from holonomy.polys import (
    Polynomial,
    char_min_poly,
    characteristic_polynomial,
    factor_polynomial,
    minimal_polynomial,
    primary_decomposition,
)

from helpers import FractionPolynomial, charpoly_oracle, frac_rows, polynomial, random_int_matrix, random_unimodular


def poly(*coeffs):
    return polynomial(coeffs)


def product(*factors: Polynomial) -> Polynomial:
    """The product of the factors, formed in FractionPolynomial."""
    out = FractionPolynomial([1])
    for f in factors:
        out = out * FractionPolynomial(f.coeffs)
    return polynomial(out.coeffs)


def monic(p: Polynomial) -> Polynomial:
    return polynomial(FractionPolynomial(p.coeffs).monic().coeffs)


def reconstruct(factors) -> Polynomial:
    """The product of factor_polynomial's factors, each to its multiplicity."""
    return product(*[f.poly for f in factors for _ in range(f.multiplicity)])


def sympy_factors(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """The monic irreducible factors of p over Q and their multiplicities,
    from sympy.factor_list, in factor_polynomial's order."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), x, domain=sympy.QQ))
    out = []
    for f, k in factors:
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(f.monic().all_coeffs())]
        out.append((polynomial(coeffs), k))
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


class TestCharMinPoly:
    def test_nilpotent_shift_chain(self):
        # powers computed by direct multiplication die exactly at the fourth
        j4 = frac_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        char, minp, nil = char_min_poly(j4)
        assert minp == poly(0, 0, 0, 0, 1)
        assert char == minp
        assert nil == 4

    def test_identity(self):
        char, minp, nil = char_min_poly(RatMatrix.identity(3))
        assert char == poly(-1, 3, -3, 1)  # (x-1)^3
        assert minp == poly(-1, 1)
        assert nil is None

    def test_idempotent_signature(self):
        _, minp, _ = char_min_poly(frac_rows([[0, 0], [0, 1]]))
        assert minp == poly(0, -1, 1)  # x(x-1)

    def test_char_against_leibniz_oracle(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 4)
            m = random_int_matrix(rng, n, -2, 2)
            char, _, _ = char_min_poly(m)
            assert char == charpoly_oracle(m)

    def test_cayley_hamilton_and_divisibility(self):
        rng = random.Random(14)
        for _ in range(20):
            m = random_int_matrix(rng, rng.randint(1, 4), -2, 2)
            char, minp, _ = char_min_poly(m)
            assert char.eval_matrix(m).is_zero()
            assert minp.eval_matrix(m).is_zero()
            assert FractionPolynomial(char.coeffs).divmod(FractionPolynomial(minp.coeffs))[1].is_zero

    def test_minimal_polynomial_standalone_agrees(self):
        rng = random.Random(15)
        for _ in range(10):
            m = random_int_matrix(rng, 4, -2, 2)
            assert minimal_polynomial(m) == char_min_poly(m)[1]


class TestFactorization:
    def test_rational_roots_with_multiplicity(self):
        # (x-1)^2 (x+2) x
        p = product(poly(-1, 1), poly(-1, 1), poly(2, 1), poly(0, 1))
        factors = {(f.poly, f.multiplicity) for f in factor_polynomial(p)}
        assert (poly(-1, 1), 2) in factors
        assert (poly(2, 1), 1) in factors
        assert (poly(0, 1), 1) in factors

    def test_nonzero_constant_has_no_factor(self):
        # a nonzero constant is a unit of Q[x], the empty product; only the
        # zero polynomial is refused
        for c in (1, -3, Fraction(5, 7)):
            assert factor_polynomial(poly(c)) == []
        with pytest.raises(ValueError, match="zero polynomial"):
            factor_polynomial(poly())

    def test_irreducible_quadratic_proven(self):
        [f] = factor_polynomial(poly(1, 0, 1))
        assert (f.poly, f.multiplicity) == (poly(1, 0, 1), 1)

    def test_quartic_splits_into_quadratics(self):
        p = product(poly(1, 0, 1), poly(-2, 0, 1))  # (x^2+1)(x^2-2)
        factors = sorted((f.poly.coeffs for f in factor_polynomial(p)))
        assert factors == [(Fraction(-2), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(1))]

    def test_irreducible_quartic_proven(self):
        [f] = factor_polynomial(poly(1, 0, 0, 0, 1))  # x^4 + 1
        assert (f.poly, f.multiplicity) == (poly(1, 0, 0, 0, 1), 1)

    def test_monic_integer_rescaling_uses_exact_roots(self):
        # (x + 12/11)^4: the primitive integer multiple (11x + 12)^4 has a
        # squarefree part of degree 1, whose multiplicity is counted by
        # exact division
        p = product(*[poly(Fraction(12, 11), 1)] * 4)
        [f] = factor_polynomial(p)
        assert (f.poly, f.multiplicity) == (poly(Fraction(12, 11), 1), 4)

    def test_factors_sort_by_coefficient_values(self):
        # by value x - 2 < x + 1/3 < x + 1/2 < x + 2/3, while the integer
        # forms (-2, 1)/1, (1, 3)/3, (1, 2)/2 and (2, 3)/3 would put x + 1/2
        # before x + 1/3; the order decides which idempotents the capped
        # witness search keeps
        linear = [poly(Fraction(1, 2), 1), poly(Fraction(2, 3), 1), poly(-2, 1), poly(Fraction(1, 3), 1)]
        p = product(*linear, poly(1, 0, 1))
        factors = [f.poly for f in factor_polynomial(p)]
        assert factors == [poly(-2, 1), poly(Fraction(1, 3), 1), poly(Fraction(1, 2), 1),
                           poly(Fraction(2, 3), 1), poly(1, 0, 1)]
        assert factors == [f for f, _ in sympy_factors(p)]

    def test_large_constant_quartic_splits(self):
        # (x^2+x+300)(x^2+x+420) has constant term 126000; a search cut at a
        # fixed lattice size once kept only b = 1 here and returned the
        # product as one quartic marked proven irreducible
        p = product(poly(300, 1, 1), poly(420, 1, 1))
        factors = [(f.poly, f.multiplicity) for f in factor_polynomial(p)]
        assert factors == [(poly(300, 1, 1), 1), (poly(420, 1, 1), 1)]

    def test_degree_eight_splits_into_quartics(self):
        # x^4+2 and x^4+3 are Eisenstein, so the product has no factor of
        # degree 1, 2 or 3 and splits only into the two quartics
        p = product(poly(2, 0, 0, 0, 1), poly(3, 0, 0, 0, 1))
        factors = [(f.poly, f.multiplicity) for f in factor_polynomial(p)]
        assert factors == [(poly(2, 0, 0, 0, 1), 1), (poly(3, 0, 0, 0, 1), 1)]
        assert factors == sympy_factors(p)

    def test_rational_coefficients(self):
        # (x - 1/2)(x^2 + 1/3): denominators are cleared internally
        p = product(poly(Fraction(-1, 2), 1), poly(Fraction(1, 3), 0, 1))
        factors = {f.poly for f in factor_polynomial(p)}
        assert poly(Fraction(-1, 2), 1) in factors
        assert poly(Fraction(1, 3), 0, 1) in factors

    def test_product_of_factors_reconstructs(self):
        rng = random.Random(21)
        for _ in range(15):
            m = random_int_matrix(rng, 4, -2, 2)
            char, _, _ = char_min_poly(m)
            assert reconstruct(factor_polynomial(char)) == char


class TestPrimaryDecomposition:
    def test_two_eigenvalue_blocks(self):
        m = frac_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        comps = primary_decomposition(m)
        by_factor = {c.factor: c.subspace for c in comps}
        assert by_factor[poly(0, 1)].basis == ((1, 0, 0, 0), (0, 1, 0, 0))
        assert by_factor[poly(-1, 1)].basis == ((0, 0, 1, 0), (0, 0, 0, 1))

    def test_rotation_plus_zero_block(self):
        # kernel of p(m) computed directly: x^2+1 on the rotation plane
        m = frac_rows([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
        comps = {c.factor: c for c in primary_decomposition(m)}
        rot = comps[poly(1, 0, 1)]
        zero = comps[poly(0, 1)]
        assert rot.subspace.dim == 2 and rot.multiplicity == 1
        assert zero.subspace.dim == 2 and zero.multiplicity == 2

    def test_nilpotent_full_space(self):
        m = frac_rows([[0, 1], [0, 0]])
        [comp] = primary_decomposition(m)
        assert comp.factor == poly(0, 1)
        assert comp.subspace.dim == 2

    def test_invariance_directness_and_fullness(self):
        rng = random.Random(23)
        for _ in range(15):
            n = rng.randint(2, 4)
            m = random_int_matrix(rng, n, -2, 2)
            comps = primary_decomposition(m)
            total = 0
            for c in comps:
                total += c.subspace.dim
                # m-invariance verified by membership of each image vector
                for b in c.subspace.basis:
                    assert c.subspace.contains(m.apply(b))
            assert total == n
            for i in range(len(comps)):
                for j in range(i + 1, len(comps)):
                    assert comps[i].subspace.intersect(comps[j].subspace).dim == 0

    def test_hostile_entries_match_sympy(self):
        # two 3x3 blocks with entries p/q, |p| <= 10^6 and 1 <= q <= 10^6,
        # conjugated by a unimodular matrix, so that the components are not
        # coordinate subspaces
        rng = random.Random(7)
        rows = [[Fraction(0)] * 6 for _ in range(6)]
        for base in (0, 3):
            for i in range(3):
                for j in range(3):
                    rows[base + i][base + j] = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))
        u = random_unimodular(rng, 6)
        m = u * RatMatrix.from_rows(rows) * u.inverse()
        comps = primary_decomposition(m)
        assert [(c.factor, c.multiplicity) for c in comps] == sympy_factors(characteristic_polynomial(m))
        assert sum(c.subspace.dim for c in comps) == 6
        assert Subspace.span([b for c in comps for b in c.subspace.basis], 6).dim == 6
        for c in comps:
            assert all(c.subspace.contains(m.apply(b)) for b in c.subspace.basis)


class TestIntegerDivisors:
    """Inputs with large integer coefficients, which factoring through the
    divisors of integer coefficients could not finish or could not prove;
    the complete factorization agrees with sympy on each."""

    def test_large_constant_finishes(self):
        # clearing the denominators of this degree-9 product gives a constant
        # term of about 1.7e17
        p = poly(
            *[-1, 2, Fraction(-65, 9), Fraction(47, 3), Fraction(-227, 27), Fraction(572, 27),
             Fraction(-22, 3), Fraction(-62, 9), Fraction(-16, 3), -12]
        )
        factors = factor_polynomial(p)
        assert [f.poly.degree for f in factors] == [2, 3, 4]
        assert reconstruct(factors) == monic(p)
        assert [(f.poly, f.multiplicity) for f in factors] == sympy_factors(p)

    @pytest.mark.parametrize(
        "const",
        [
            1152921504606847009 * 2305843009213693967,  # a product of two 61-bit primes
            1237940039285380274899124357,  # a 91-bit prime
        ],
    )
    def test_unfactored_constant_proves_nothing(self, const):
        # no factor of the constant term is needed: x^4 + c stays one
        # quartic, and (x + c)(x^2 + 1) splits into its two factors
        p = poly(const, 0, 0, 0, 1)
        assert [(f.poly, f.multiplicity) for f in factor_polynomial(p)] == [(p, 1)] == sympy_factors(p)
        q = poly(const, 1)
        factors = [(f.poly, f.multiplicity) for f in factor_polynomial(product(q, poly(1, 0, 1)))]
        assert factors == [(q, 1), (poly(1, 0, 1), 1)] == sympy_factors(product(q, poly(1, 0, 1)))

    def test_unfactored_value_at_one_proves_nothing(self):
        # p(1) is a product of two 61-bit primes; p is irreducible
        p = poly(2, 1152921504606847009 * 2305843009213693967 - 3, 0, 0, 1)
        assert [(f.poly, f.multiplicity) for f in factor_polynomial(p)] == [(p, 1)] == sympy_factors(p)


@st.composite
def factored_polynomials(draw):
    """Products of one to three polynomials of degree 1 to 4 with small
    integer or rational coefficients, so that reducible inputs are common."""
    coeff = st.one_of(st.integers(-3, 3).map(Fraction), st.fractions(-2, 2, max_denominator=3))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 4))
        lower = draw(st.lists(coeff, min_size=deg, max_size=deg))
        factors.append(polynomial(lower + [draw(st.sampled_from([1, 1, 2, -3]))]))
    return product(*factors)


@settings(max_examples=80, deadline=None)
@given(factored_polynomials())
def test_factors_reconstruct_and_proofs_hold(p):
    factors = factor_polynomial(p)
    for f in factors:
        assert f.multiplicity >= 1 and f.poly == monic(f.poly)
    assert reconstruct(factors) == monic(p)
    assert [(f.poly, f.multiplicity) for f in factors] == sympy_factors(p)
