import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.linalg import RatMatrix
from holonomy.polys import (
    Polynomial,
    char_min_poly,
    factor_polynomial,
    minimal_polynomial,
    _divides_monic,
    _integer_divisors,
    _quadratic_factor_search,
    _quartic_factor_search,
    _to_monic_integer,
    primary_decomposition,
)

from helpers import charpoly_oracle, frac_rows, random_int_matrix


def poly(*coeffs):
    return Polynomial.from_coeffs(list(coeffs))


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
            assert minp.divides(char)

    def test_minimal_polynomial_standalone_agrees(self):
        rng = random.Random(15)
        for _ in range(10):
            m = random_int_matrix(rng, 4, -2, 2)
            assert minimal_polynomial(m) == char_min_poly(m)[1]


class TestFactorization:
    def test_rational_roots_with_multiplicity(self):
        # (x-1)^2 (x+2) x
        p = poly(-1, 1) * poly(-1, 1) * poly(2, 1) * poly(0, 1)
        factors = {(f.poly, f.multiplicity) for f in factor_polynomial(p)}
        assert (poly(-1, 1), 2) in factors
        assert (poly(2, 1), 1) in factors
        assert (poly(0, 1), 1) in factors

    def test_irreducible_quadratic_proven(self):
        [f] = factor_polynomial(poly(1, 0, 1))
        assert f.poly == poly(1, 0, 1) and f.proven_irreducible

    def test_quartic_splits_into_quadratics(self):
        p = poly(1, 0, 1) * poly(-2, 0, 1)  # (x^2+1)(x^2-2)
        factors = sorted((f.poly.coeffs for f in factor_polynomial(p)))
        assert factors == [(Fraction(-2), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(1))]

    def test_irreducible_quartic_proven(self):
        [f] = factor_polynomial(poly(1, 0, 0, 0, 1))  # x^4 + 1
        assert f.multiplicity == 1
        assert f.proven_irreducible

    def test_monic_integer_rescaling_uses_exact_roots(self):
        # (x + 12/11)^4: the coefficient denominators are 11, 11^2, 11^3,
        # 11^4, so y = 11 x already gives (y + 12)^4; the lcm scale 11^4 would
        # make the constant term 20736 * 11^12, too large to divide by trial
        p = poly(Fraction(12, 11), 1) ** 4
        assert _to_monic_integer(p) == ([20736, 6912, 864, 48, 1], 11)
        assert _to_monic_integer(poly(Fraction(1, 8), 0, 1)) == ([2, 0, 1], 4)
        assert _to_monic_integer(poly(Fraction(1, 2), 0, 1)) == ([2, 0, 1], 2)
        assert _to_monic_integer(poly(Fraction(5, 36), Fraction(1, 6), 1)) == ([5, 1, 1], 6)
        [f] = factor_polynomial(p)
        assert (f.poly, f.multiplicity, f.proven_irreducible) == (poly(Fraction(12, 11), 1), 4, True)

    def test_quadratic_search_matches_the_full_lattice_walk(self):
        # the search tests only the a allowed by g(1) and g(-1); it must
        # return the first (b, a) of the plain walk over every a in range,
        # also when g(1) = 0
        def walk(ints):
            root_bound = 1 + max(abs(c) for c in ints[:-1])
            a_bound = 2 * root_bound
            bs = [b for d in _integer_divisors(ints[0]) for b in (d, -d) if abs(b) <= root_bound**2]
            for b in bs:
                for a in range(-a_bound, a_bound + 1):
                    if _divides_monic([b, a, 1], ints):
                        return [b, a, 1]
            return None

        def mul(p, q):
            out = [0] * (len(p) + len(q) - 1)
            for i, x in enumerate(p):
                for j, y in enumerate(q):
                    out[i + j] += x * y
            return out

        rng = random.Random(5)
        found = 0
        for k in range(60):
            if k % 3 == 0:
                middle = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
                ints = [rng.choice((-3, -2, -1, 1, 2, 3))] + middle + [1]
            else:
                ints = [1]
                for _ in range(rng.randint(1, 3)):
                    ints = mul(ints, [rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3), 1])
                if k % 3 == 2:
                    ints = mul(ints, [rng.choice((-1, 1)), 1])  # a root at y = 1 or y = -1
            expected = walk(ints)
            assert _quadratic_factor_search(ints) == expected
            found += expected is not None
        assert found > 20

    def test_large_constant_quartic_splits(self):
        # (x^2+x+300)(x^2+x+420) has constant term 126000; a search cut at a
        # fixed lattice size once kept only b = 1 here and returned the
        # product as one quartic marked proven irreducible
        p = poly(300, 1, 1) * poly(420, 1, 1)
        factors = [(f.poly, f.multiplicity, f.proven_irreducible) for f in factor_polynomial(p)]
        assert factors == [(poly(300, 1, 1), 1, True), (poly(420, 1, 1), 1, True)]

    def test_degree_eight_splits_into_quartics(self):
        # x^4+2 and x^4+3 are Eisenstein, so no quadratic factor exists and
        # only the bounded quartic search can split the product
        ints = [6, 0, 0, 0, 5, 0, 0, 0, 1]
        assert _quadratic_factor_search(ints) is None
        assert _quartic_factor_search(ints, 2) == [2, 0, 0, 0, 1]
        p = poly(2, 0, 0, 0, 1) * poly(3, 0, 0, 0, 1)
        factors = factor_polynomial(p)
        assert [(f.poly, f.multiplicity, f.proven_irreducible) for f in factors] == [
            (poly(2, 0, 0, 0, 1), 1, False),
            (poly(3, 0, 0, 0, 1), 1, True),
        ]
        assert factors[0].poly * factors[1].poly == p

    def test_rational_coefficients(self):
        # (x - 1/2)(x^2 + 1/3): denominators are cleared internally
        p = poly(Fraction(-1, 2), 1) * poly(Fraction(1, 3), 0, 1)
        factors = {f.poly for f in factor_polynomial(p)}
        assert poly(Fraction(-1, 2), 1) in factors
        assert poly(Fraction(1, 3), 0, 1) in factors

    def test_product_of_factors_reconstructs(self):
        rng = random.Random(21)
        for _ in range(15):
            m = random_int_matrix(rng, 4, -2, 2)
            char, _, _ = char_min_poly(m)
            product = Polynomial.one()
            for f in factor_polynomial(char):
                product = product * f.poly**f.multiplicity
            assert product == char.monic()


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
        assert rot.subspace.dim == 2 and rot.proven_irreducible
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


class TestPolynomialArithmetic:
    def test_divmod_roundtrip(self):
        rng = random.Random(31)
        for _ in range(25):
            a = poly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
            b = poly(*[rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
            if b.is_zero:
                continue
            q, r = a.divmod(b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            poly(1, 1).divmod(Polynomial.zero())


class TestIntegerDivisors:
    @given(st.integers(-(10**6), 10**6))
    @settings(max_examples=200, deadline=None)
    def test_against_trial_division(self, n):
        m = abs(n)
        assert _integer_divisors(n) == [d for d in range(1, m + 1) if m % d == 0]

    @given(st.lists(st.sampled_from([2, 3, 1021, 1031, 1033, 65537, 268435459, 536870923]), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_products_of_primes_above_the_trial_limit(self, primes):
        # 1031 is the first prime above the trial-division limit, so these
        # products go through Pollard's rho and the primality test
        n = math.prod(primes)
        expected = {math.prod(c) for r in range(len(primes) + 1) for c in itertools.combinations(primes, r)}
        assert _integer_divisors(n) == sorted(expected)

    def test_large_constant_finishes(self):
        # clearing the denominators of this degree-9 product gives a constant
        # term of about 1.7e17: listing its divisors by trial division up to
        # its square root took 4e8 steps
        p = Polynomial.from_coeffs(
            [-1, 2, Fraction(-65, 9), Fraction(47, 3), Fraction(-227, 27), Fraction(572, 27),
             Fraction(-22, 3), Fraction(-62, 9), Fraction(-16, 3), -12]
        )
        product = Polynomial.one()
        for f in factor_polynomial(p):
            product = product * f.poly**f.multiplicity
        assert product == p.monic()

    @pytest.mark.parametrize(
        "const",
        [
            1152921504606847009 * 2305843009213693967,  # two 61-bit primes: beyond the rho budget
            1237940039285380274899124357,  # a 91-bit prime: Miller-Rabin is not a proof there
        ],
    )
    def test_unfactored_constant_proves_nothing(self, const):
        p = poly(const, 0, 0, 0, 1)
        assert [(f.poly, f.multiplicity, f.proven_irreducible) for f in factor_polynomial(p)] == [(p, 1, False)]
        q = poly(const, 1)
        assert [(f.poly, f.proven_irreducible) for f in factor_polynomial(q * poly(1, 0, 1))] == [
            (q * poly(1, 0, 1), False)
        ]

    def test_unfactored_value_at_one_proves_nothing(self):
        # the constant 2 factors, but the quadratic search also needs the
        # divisors of p(1), a product of two 61-bit primes
        p = poly(2, 1152921504606847009 * 2305843009213693967 - 3, 0, 0, 1)
        assert [(f.poly, f.multiplicity, f.proven_irreducible) for f in factor_polynomial(p)] == [(p, 1, False)]


@st.composite
def factored_polynomials(draw):
    """Products of one to three polynomials of degree 1 to 4 with small
    integer or rational coefficients, so that reducible inputs are common."""
    coeff = st.one_of(st.integers(-3, 3).map(Fraction), st.fractions(-2, 2, max_denominator=3))
    out = Polynomial.one()
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 4))
        lower = draw(st.lists(coeff, min_size=deg, max_size=deg))
        out = out * Polynomial.from_coeffs(lower + [draw(st.sampled_from([1, 1, 2, -3]))])
    return out


@settings(max_examples=80, deadline=None)
@given(factored_polynomials())
def test_factors_reconstruct_and_proofs_hold(p):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    product = Polynomial.one()
    for f in factor_polynomial(p):
        assert f.multiplicity >= 1 and f.poly == f.poly.monic()
        product = product * f.poly**f.multiplicity
        if f.proven_irreducible:
            oracle = sympy.Poly(list(reversed(f.poly.coeffs)), x, domain=sympy.QQ)
            assert oracle.is_irreducible, str(f.poly)
    assert product == p.monic()
