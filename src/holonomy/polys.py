"""Rational polynomials: characteristic and minimal polynomials, complete
factorization over Q, and primary decomposition into invariant subspaces.

A polynomial is stored as its normalized integer form, as a `RatMatrix` is,
and `Polynomial.coeffs` is the `Fraction` view. The library evaluates
polynomials at matrices and factors them, and does no other arithmetic on
them: the factorization runs on integer coefficient lists.

Factorization is Zassenhaus's algorithm on integer coefficients: the
squarefree part of the primitive integer polynomial is factored modulo a
small prime by Berlekamp's algorithm, the modular factors are Hensel-lifted
past a bound on the coefficients of every true factor, and products of
lifted factors are tested as divisors by exact integer division. Every
factor returned is irreducible over Q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Sequence

from .linalg import (
    RatMatrix,
    Subspace,
    integer_matmul,
    krylov_powers,
    nullspace,
    primitive_part,
    rref,
)


@dataclass(frozen=True)
class Polynomial:
    """Rational polynomial num / den in its normalized integer form: num the
    integer coefficients, lowest degree first, without trailing zeros (() is
    the zero polynomial), and den > 0 coprime to their content. The form is
    unique, so == and hash compare integers. from_integer_form normalizes;
    `coeffs` is the Fraction view."""

    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def from_integer_form(num: Sequence[int], den: int) -> "Polynomial":
        """The polynomial num / den (den != 0), normalized."""
        num = _trim(list(num))
        g = gcd(den, *num) if den > 0 else -gcd(den, *num)
        if g != 1:
            num, den = [x // g for x in num], den // g
        return Polynomial(tuple(num), den)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first; built on first use."""
        return tuple([Fraction(x, self.den) for x in self.num])

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    def eval_matrix(self, m: RatMatrix) -> RatMatrix:
        """p(m) by Horner's rule on integers: with m = N / d and p = num / L,
        p(m) = (sum of num_i d^(k-i) N^i) / (L d^k), k the degree."""
        if not m.is_square:
            raise ValueError("square matrix required")
        n = m.nrows
        num, d = m.integer_form
        acc = [[0] * n for _ in range(n)]
        for i, a in enumerate(reversed(self.num)):  # a = num_(k-i)
            if i:
                acc = integer_matmul(acc, num)
            a *= d**i
            for r in range(n):
                acc[r][r] += a
        return RatMatrix.from_integer_form(acc, self.den * d ** max(self.degree, 0))


def minimal_polynomial(m: RatMatrix) -> Polynomial:
    """Monic minimal polynomial, from the first linear dependence among the
    vectorized powers I, m, m^2, ...

    With m = N / d, linalg.krylov_powers finds the first power N^k that
    depends on the earlier ones, and the dependence: q with q(N) = 0. The
    minimal polynomial is q(d x) / (lc(q) d^deg(q)).
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    num, d = m.integer_form
    _, coeffs = krylov_powers(num, m.nrows + 1)
    k = len(coeffs) - 1
    return Polynomial.from_integer_form([c * d**i for i, c in enumerate(coeffs)], coeffs[k] * d**k)


def characteristic_polynomial(m: RatMatrix) -> Polynomial:
    """det(xI - m), monic, by the Faddeev-LeVerrier recursion on the integer
    form m = N / d.

    For N the recursion's c_k are integers and each division by k is exact;
    det(xI - N / d) = sum_k c_k d^(n-k) x^(n-k) / d^n.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    num, d = m.integer_form
    n = m.nrows
    coeffs = [1]  # c_0, c_1, ..., leading first
    mk = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        mk = integer_matmul(num, mk)
        ck = -sum(mk[i][i] for i in range(n)) // k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] += ck
    return Polynomial.from_integer_form([coeffs[k] * d ** (n - k) for k in range(n, -1, -1)], d**n)


def char_min_poly(m: RatMatrix) -> tuple[Polynomial, Polynomial, int | None]:
    """Characteristic and minimal polynomial, plus the nilpotency index when
    the minimal polynomial is a pure power of x."""
    char = characteristic_polynomial(m)
    minp = minimal_polynomial(m)
    return char, minp, None if any(minp.num[:-1]) else minp.degree


@dataclass(frozen=True)
class PolyFactor:
    poly: Polynomial
    multiplicity: int


# Factorization over Q runs on integer polynomials: lists of ints, lowest
# degree first, without trailing zeros; [] is the zero polynomial.


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _add(a: list[int], b: list[int], c: int = 1) -> list[int]:
    """a + c b."""
    return _trim([x + c * y for x, y in zip_longest(a, b, fillvalue=0)])


def _mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _mod(a: list[int], m: int) -> list[int]:
    return _trim([x % m for x in a])


def _derivative(a: list[int]) -> list[int]:
    return [i * x for i, x in enumerate(a)][1:]


def _exact_quotient(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[x] for nonzero a and b, or None when b does not divide a.
    A divisor's constant term divides a's, which rejects most candidates
    before the long division."""
    if b[0] and a[0] % b[0]:
        return None
    r, d = list(a), len(b) - 1
    q = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c, rem = divmod(r[i], b[-1])
        if rem:
            return None
        q[i - d] = c
        if c:
            for j in range(d):
                r[i - d + j] -= c * b[j]
    return None if any(r[:d]) else q


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """r with c a = q b + r and deg r < deg b in Z[x] for some q and some
    power c of lc(b), for nonzero b, by steps
    r <- lc(b) r - r_top x^(deg r - deg b) b."""
    r, d, lead = list(a), len(b) - 1, b[-1]
    while len(r) > d:
        top = r.pop()
        pos = len(r) - d
        if lead != 1:
            r = [x * lead for x in r]
        for j in range(d):
            r[pos + j] -= top * b[j]
        _trim(r)
    return r


def _gcd_z(a: list[int], b: list[int]) -> list[int]:
    """A primitive gcd of the primitive a and b (b nonzero) in Z[x], by the
    primitive polynomial remainder sequence."""
    while b:
        a, b = b, primitive_part(_pseudo_remainder(a, b))
    return a


def _divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (nonzero mod p) in F_p[x]."""
    r, d = [x % p for x in a], len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = q[i - d] = r[i] * inv % p
        if c:
            for j in range(d):
                r[i - d + j] = (r[i - d + j] - c * b[j]) % p
    return _trim(q), _trim(r[:d])


def _gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd in F_p[x] of a (nonzero mod p) and b."""
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _inverse_p(h: list[int], g: list[int], p: int) -> list[int]:
    """t with t h = 1 modulo g in F_p[x], for h and g coprime mod p."""
    r0, r1, t0, t1 = g, _divmod_p(h, g, p)[1], [], [1]
    while r1:  # r_i = t_i h modulo g
        q, r = _divmod_p(r0, r1, p)
        r0, r1, t0, t1 = r1, r, t1, _mod(_add(t0, _mul(q, t1), -1), p)
    inv = pow(r0[0], -1, p)
    return [x * inv % p for x in t0]


def _berlekamp(f: list[int], p: int) -> list[int]:
    """The monic irreducible factors in F_p[x] of f, monic and squarefree mod p.

    The v with v^p = v modulo f form the kernel of Q - I, where row i of Q is
    x^(ip) mod f; their number is the number of factors. Each such v splits
    every factor g as the product of gcd(g, v - s) over s in F_p.
    """
    n = len(f) - 1
    xp = _divmod_p([0] * p + [1], f, p)[1]
    powers, r = [], [1]
    for _ in range(n):
        powers.append(r + [0] * (n - len(r)))
        r = _divmod_p(_mul(r, xp), f, p)[1]
    # Gauss-Jordan on the equations sum_i v_i (x^(ip) - x^i) = 0 mod f
    rows = [[(powers[i][j] - (i == j)) % p for i in range(n)] for j in range(n)]
    pivots: list[int] = []
    for c in range(n):
        k = next((k for k in range(len(pivots), n) if rows[k][c]), None)
        if k is None:
            continue
        top = len(pivots)
        rows[top], rows[k] = rows[k], rows[top]
        inv = pow(rows[top][c], -1, p)
        rows[top] = [x * inv % p for x in rows[top]]
        for k in range(n):
            if k != top and rows[k][c]:
                rows[k] = [(x - rows[k][c] * y) % p for x, y in zip(rows[k], rows[top])]
        pivots.append(c)
    free = [c for c in range(n) if c not in pivots]
    factors = [f]
    for c in free[1:]:  # the first free column gives the constants
        if len(factors) == len(free):
            break
        v = [0] * n
        v[c] = 1
        for k, pc in enumerate(pivots):
            v[pc] = -rows[k][c] % p
        split = []
        for g in factors:
            for s in range(p):
                h = _gcd_p(g, _mod(_add(v, [s], -1), p), p)
                if len(h) > 1:
                    split.append(h)
                    g = _divmod_p(g, h, p)[0]
                    if len(g) == 1:
                        break
        factors = split
    return factors


def _hensel_lift(f: list[int], g: list[int], h: list[int], p: int, k: int) -> tuple[list[int], list[int]]:
    """G, H with f = G H mod p^k and G monic, lifted linearly from f = g h mod
    p with g monic and g, h coprime mod p."""
    t = _inverse_p(h, g, p)
    q = p
    for _ in range(k - 1):
        # solve a h + b g = e mod p with deg a < deg g, then G += q a, H += q b
        e = _mod([x // q for x in _add(f, _mul(g, h), -1)], p)
        a = _divmod_p(_mul(t, e), g, p)[1]
        b = _divmod_p(_add(e, _mul(a, h), -1), g, p)[0]
        g, h = _add(g, a, q), _add(h, b, q)
        q *= p
    return g, h


def _factor_squarefree(f: list[int]) -> list[list[int]]:
    """The irreducible factors in Z[x] of the primitive squarefree f, by
    Zassenhaus's algorithm (von zur Gathen and Gerhard, Modern Computer
    Algebra, ch. 15).

    f is factored mod the smallest prime p that keeps it squarefree and of
    its degree, and the factors are lifted to p^k > 2 |lc| 2^n |f|_2, which
    bounds the coefficients of lc/lc(g) g for every factor g of f (Mignotte).
    Products of subsets of the lifted factors, in increasing size, are then
    tried as divisors of f; the first that divides is irreducible, because
    no smaller subset yields a factor.
    """
    if len(f) <= 2:
        return [f]
    lc = f[-1]
    p = next(
        q for q in itertools.count(2)
        if all(q % d for d in range(2, isqrt(q) + 1))
        and lc % q and len(_gcd_p(_mod(f, q), _mod(_derivative(f), q), q)) == 1
    )
    modular = _berlekamp([x * pow(lc, -1, p) % p for x in f], p)
    if len(modular) == 1:
        return [f]
    bound = 2 * abs(lc) * 2 ** (len(f) - 1) * (isqrt(sum(x * x for x in f)) + 1)
    k = 1
    while p**k <= bound:
        k += 1
    m = p**k
    lifted, rest = [], f
    for g in modular[:-1]:
        g, rest = _hensel_lift(rest, g, _divmod_p(rest, g, p)[0], p, k)
        lifted.append(g)
        rest = _mod(rest, m)
    lifted.append([x * pow(rest[-1], -1, m) % m for x in rest])
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            cand = [f[-1]]
            for i in subset:
                cand = _mod(_mul(cand, lifted[i]), m)
            cand = primitive_part([x - m if 2 * x > m else x for x in cand])
            quotient = _exact_quotient(f, cand)
            if quotient is not None:
                out.append(cand)
                f = quotient
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f]


def factor_polynomial(p: Polynomial) -> list[PolyFactor]:
    """Factor a nonzero rational polynomial completely over Q: its monic
    irreducible factors with their multiplicities, sorted by degree and then
    by the values of the coefficients, lowest degree first.

    The primitive integer multiple f of p is reduced to its squarefree part
    f / gcd(f, f'), which is factored by _factor_squarefree; each factor's
    multiplicity is the number of times it divides f exactly.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    f = primitive_part(list(p.num))
    if len(f) == 1:
        return []
    squarefree = _exact_quotient(f, _gcd_z(f, primitive_part(_derivative(f))))
    out = []
    for g in _factor_squarefree(squarefree):
        mult = 0
        while (q := _exact_quotient(f, g)) is not None:
            f, mult = q, mult + 1
        out.append(PolyFactor(Polynomial.from_integer_form(g, g[-1]), mult))
    # the value order of the coefficients, read on one common denominator
    den = lcm(*[f.poly.den for f in out])
    return sorted(out, key=lambda f: (f.poly.degree, [x * (den // f.poly.den) for x in f.poly.num]))


def _factor_power(f: PolyFactor, m: RatMatrix) -> list[list[int]]:
    """The integer rows of f(m)^k, k the multiplicity of f: a positive
    multiple of that matrix, so with the same kernel and image."""
    return reduce(integer_matmul, [f.poly.eval_matrix(m).num] * f.multiplicity)


@dataclass(frozen=True)
class PrimaryComponent:
    factor: Polynomial
    multiplicity: int
    subspace: Subspace


def primary_decomposition(m: RatMatrix) -> list[PrimaryComponent]:
    """Split the ambient space into the generalized kernels ker f(m)^k of the
    irreducible factors f, of multiplicity k, of the characteristic
    polynomial.

    The components are m-invariant, pairwise independent, and sum to the
    full space.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    out = []
    for f in factor_polynomial(characteristic_polynomial(m)):
        sub = nullspace(*rref(_factor_power(f, m)), m.ncols)
        out.append(PrimaryComponent(f.poly, f.multiplicity, sub))
    return out
