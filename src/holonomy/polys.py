"""Rational polynomials: characteristic and minimal polynomials, bounded
factorization over Q, and primary decomposition into invariant subspaces.

Factorization is complete for the degrees the analyses actually meet
(<= 5: rational roots plus an exhaustive integer quadratic-factor search);
higher-degree remainders that survive the bounded search are returned with
a "possibly reducible" mark instead of a false irreducibility claim. The
same mark goes on what is left when an integer whose divisors a search
enumerates cannot be factored within a fixed work bound.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import RatMatrix, Subspace, eliminate, integer_matmul, kernel_of, primitive_part, to_fraction


@dataclass(frozen=True)
class Polynomial:
    """Coefficients lowest degree first; no trailing zeros; () is the zero polynomial."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(cs) -> "Polynomial":
        cs = [to_fraction(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Polynomial(tuple(cs))

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.from_coeffs([1])

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial.from_coeffs([0, 1])

    @staticmethod
    def x_minus(c) -> "Polynomial":
        return Polynomial.from_coeffs([-to_fraction(c), 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        inv = 1 / self.leading
        return Polynomial.from_coeffs([c * inv for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial.from_coeffs(
            [
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            ]
        )

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "Polynomial":
        c = to_fraction(c)
        return Polynomial.from_coeffs([c * a for a in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial.from_coeffs(out)

    def __pow__(self, k: int) -> "Polynomial":
        out = Polynomial.one()
        for _ in range(k):
            out = out * self
        return out

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and rem:
            f = rem[-1] / lead
            pos = len(rem) - 1 - d
            quot[pos] = f
            for i, c in enumerate(other.coeffs):
                rem[pos + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial.from_coeffs(quot), Polynomial.from_coeffs(rem)

    def divides(self, other: "Polynomial") -> bool:
        return other.divmod(self)[1].is_zero

    def eval_scalar(self, x) -> Fraction:
        x = to_fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def eval_matrix(self, m: RatMatrix) -> RatMatrix:
        """p(m) by Horner's rule on integers: with m = N / d and coefficients
        a_i / L, p(m) = (sum of a_i d^(k-i) N^i) / (L d^k), k the degree."""
        if not m.is_square:
            raise ValueError("square matrix required")
        n = m.nrows
        num, d = m.integer_form
        den = lcm(*[c.denominator for c in self.coeffs])
        acc = [[0] * n for _ in range(n)]
        for i, c in enumerate(reversed(self.coeffs)):  # c = a_(k-i) / L
            if i:
                acc = integer_matmul(acc, num)
            a = c.numerator * (den // c.denominator) * d**i
            for r in range(n):
                acc[r][r] += a
        return RatMatrix.from_integer_form(acc, den * d ** max(self.degree, 0))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(parts))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic() if not a.is_zero else a


def poly_egcd(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """g, s, t with s*a + t*b = g and g monic."""
    r0, r1 = a, b
    s0, s1 = Polynomial.one(), Polynomial.zero()
    t0, t1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    inv = 1 / r0.leading
    return r0.monic(), s0.scale(inv), t0.scale(inv)


def minimal_polynomial(m: RatMatrix) -> Polynomial:
    """Monic minimal polynomial, from the first linear dependence among the
    vectorized powers I, m, m^2, ...

    With m = N / d, the powers N^k are integer vectors. Each new power is
    reduced against the echelon rows kept so far, by integer
    cross-multiplication, while its coefficients over the powers are
    tracked alongside. The first power that reduces to zero yields q with
    q(N) = 0, and the minimal polynomial is q(d x) / d^deg(q).
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    num, d = m.integer_form
    n = m.nrows
    size = n * n
    # each echelon row is a power's entries followed by its coefficients over
    # I, N, N^2, ..., so one elimination step updates both
    echelon: list[tuple[int, list[int]]] = []  # (pivot, row)
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in itertools.count():
        v = [x for row in power for x in row] + [int(i == k) for i in range(n + 1)]
        for p, row in echelon:
            if v[p]:
                v = primitive_part(eliminate(v, row, p)[1])
        pivot = next((i for i in range(size) if v[i]), None)
        if pivot is None:
            coeffs = v[size:]
            lead = coeffs[k]
            return Polynomial.from_coeffs(
                [Fraction(c, lead * d ** (k - i)) for i, c in enumerate(coeffs[: k + 1])]
            )
        echelon.append((pivot, v))
        power = integer_matmul(power, num)


def characteristic_polynomial(m: RatMatrix) -> Polynomial:
    """det(xI - m), monic, by the Faddeev-LeVerrier recursion on the integer
    form m = N / d.

    For N the recursion's c_k are integers and each division by k is exact;
    det(xI - N / d) = sum_k c_k x^(n-k) / d^k.
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
    return Polynomial.from_coeffs([Fraction(coeffs[k], d**k) for k in range(n, -1, -1)])


def char_min_poly(m: RatMatrix) -> tuple[Polynomial, Polynomial, int | None]:
    """Characteristic and minimal polynomial, plus the nilpotency index when
    the minimal polynomial is a pure power of x."""
    char = characteristic_polynomial(m)
    minp = minimal_polynomial(m)
    nil_index: int | None = None
    if all(c == 0 for c in minp.coeffs[:-1]):
        nil_index = minp.degree
    return char, minp, nil_index


@dataclass(frozen=True)
class PolyFactor:
    poly: Polynomial
    multiplicity: int
    proven_irreducible: bool


# Miller-Rabin with these bases is exact below _MR_EXACT_BELOW (Sorenson
# and Webster 2015); a larger probable prime is not proven prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
_TRIAL_LIMIT = 1024
# Pollard rho steps allowed for one integer before its divisors count as unknown.
_RHO_STEPS = 1 << 16


class _FactorBudget(Exception):
    """An integer was not factored within the work bound, so its divisors,
    and every search that enumerates them, are incomplete."""


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases _MR_BASES, for odd n > 41."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite n by Pollard's rho (Floyd's
    cycle test), or _FactorBudget after _RHO_STEPS steps in all."""
    steps = 0
    for c in itertools.count(1):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
            steps += 1
            if steps > _RHO_STEPS:
                raise _FactorBudget(n)
        if g != n:
            return g


def _prime_factors(n: int) -> list[int]:
    """The prime factors of n > 0 with multiplicity, in no fixed order:
    trial division below _TRIAL_LIMIT, then Pollard's rho. Raises
    _FactorBudget when a factor cannot be split or proven prime."""
    out = []
    for p in itertools.chain([2], range(3, _TRIAL_LIMIT, 2)):
        if p * p > n:
            break
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL_LIMIT**2:  # no factor below _TRIAL_LIMIT, so prime
            out.append(m)
        elif _is_probable_prime(m):
            if m >= _MR_EXACT_BELOW:
                raise _FactorBudget(m)
            out.append(m)
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return out


def _integer_divisors(n: int) -> list[int]:
    """The positive divisors of n in increasing order ([] for n = 0)."""
    if n == 0:
        return []
    divs = [1]
    for p, k in Counter(_prime_factors(abs(n))).items():
        divs = [d * p**e for d in divs for e in range(k + 1)]
    return sorted(divs)


def _exact_root(b: int, k: int) -> int | None:
    """The positive integer r with r^k == b, or None."""
    r = 1 << -(-b.bit_length() // k)  # r >= b^(1/k)
    while True:  # integer Newton iteration, decreasing to floor(b^(1/k))
        s = ((k - 1) * r + b // r ** (k - 1)) // k
        if s >= r:
            return r if r**k == b else None
        r = s


def _root_scale(b: int, k: int) -> int:
    """A small r with b | r^k: writing b = s^j with j as large as possible,
    r = s^ceil(j / k), which is the smallest such r when s is squarefree."""
    for j in range(b.bit_length(), 1, -1):
        s = _exact_root(b, j)
        if s is not None:
            return s ** -(-j // k)
    return b


def _to_monic_integer(p: Polynomial) -> tuple[list[int], int]:
    """Rewrite monic rational p(x) as monic integer g(y) with y = D x.

    g(y) = D^deg * p(y / D). The coefficient c_i of x^i needs its
    denominator b_i to divide D^(deg - i); D is the lcm of the
    `_root_scale(b_i, deg - i)`, so (x + 12/11)^4 becomes (y + 12)^4 rather
    than a polynomial in 11^4 x with a 56-bit constant term.
    """
    n = p.degree
    d = lcm(*[_root_scale(c.denominator, n - i) for i, c in enumerate(p.coeffs[:-1])])
    out = []
    for i, c in enumerate(p.coeffs):
        v = c * Fraction(d) ** (n - i)
        assert v.denominator == 1
        out.append(v.numerator)
    return out, d


def _rational_roots(p: Polynomial) -> list[Fraction]:
    """All rational roots of a monic polynomial, without multiplicity."""
    if p.eval_scalar(0) == 0:
        roots = [Fraction(0)]
    else:
        roots = []
    ints, d = _to_monic_integer(p)
    const = ints[0]
    if const == 0:
        # x factor was already reported; divide it out in integer form
        while ints and ints[0] == 0:
            ints = ints[1:]
        if not ints or len(ints) == 1:
            return roots
        const = ints[0]
    for cand in _integer_divisors(const):
        for sign in (1, -1):
            y = sign * cand
            # evaluate integer poly at y
            acc = 0
            for c in reversed(ints):
                acc = acc * y + c
            if acc == 0:
                roots.append(Fraction(y, d))
    return sorted(set(roots))


def _divides_monic(q: list[int], p: list[int]) -> bool:
    """Whether the monic integer polynomial q divides the integer polynomial
    p (coefficients lowest first), by long division in the integers."""
    rem = list(p)
    d = len(q) - 1
    for top in range(len(rem) - 1, d - 1, -1):
        f = rem[top]
        if f:
            for i in range(d):
                rem[top - d + i] -= f * q[i]
    return not any(rem[:d])


def _quadratic_factor_search(ints: list[int]) -> list[int] | None:
    """Search a monic integer quadratic y^2 + a y + b dividing the monic
    integer polynomial with the given coefficients (lowest first).

    b must divide the constant term; |a| is bounded by twice the Cauchy root
    bound. Returns [b, a, 1] or None. The search is exhaustive: every b and
    a that a factor can have is tried, so None proves that no monic integer
    quadratic factor exists. The divisor tests at y = 1 and y = -1 below
    keep its cost near #divisors(g(0)) * #divisors(g(1)) trial divisions.
    """
    const = ints[0]
    if const == 0:
        return None
    root_bound = 1 + max(abs(c) for c in ints[:-1])
    a_bound = 2 * root_bound
    b_cands = [b for d in _integer_divisors(const) for b in (d, -d) if abs(b) <= root_bound**2]
    # A factor's value at y = 1 and y = -1 divides the polynomial's value
    # there, so when g(1) != 0 only the a with 1 + a + b | g(1) can occur.
    # Testing just those, in increasing order, finds the same first factor
    # as walking the whole range; the walk's cost grew with the coefficients.
    g_plus = sum(ints)
    g_minus = sum(c if i % 2 == 0 else -c for i, c in enumerate(ints))
    shifts = [s for d in _integer_divisors(g_plus) for s in (d, -d)] if g_plus else None
    for b in b_cands:
        if shifts is None:
            a_cands = range(-a_bound, a_bound + 1)
        else:
            a_cands = sorted(a for a in (s - 1 - b for s in shifts) if -a_bound <= a <= a_bound)
        for a in a_cands:
            q_minus = 1 - a + b
            if g_minus and (q_minus == 0 or g_minus % q_minus):
                continue
            if _divides_monic([b, a, 1], ints):
                return [b, a, 1]
    return None


def _quartic_factor_search(ints: list[int], bound: int) -> list[int] | None:
    """Bounded search for a monic integer quartic factor of a degree-8 monic
    integer polynomial. Incomplete by design; callers mark the remainder as
    possibly reducible when nothing is found."""
    const = ints[0]
    if const == 0:
        return None
    d_cands = [d for dd in _integer_divisors(const) for d in (dd, -dd) if abs(dd) <= bound**4]
    rng = range(-2 * bound, 2 * bound + 1)
    for d0 in d_cands:
        for a, b, c in itertools.product(rng, rng, rng):
            if _divides_monic([d0, c, b, a, 1], ints):
                return [d0, c, b, a, 1]
    return None


def _scale_back(ints: list[int], d: int) -> Polynomial:
    """Inverse of the y = D x substitution, renormalized to monic."""
    deg = len(ints) - 1
    return Polynomial.from_coeffs([Fraction(c, d**deg) * d**i for i, c in enumerate(ints)]).monic()


def factor_polynomial(p: Polynomial, search_bound: int = 2) -> list[PolyFactor]:
    """Factor a nonzero rational polynomial into monic factors over Q.

    Linear factors are found completely via the rational root theorem;
    quadratic factors via an exhaustive bounded integer search (complete
    through degree 5). Remainders that may still split carry
    proven_irreducible=False.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    work = p.monic()
    factors: dict[Polynomial, int] = {}
    proven: dict[Polynomial, bool] = {}

    def record(f: Polynomial, mult: int, is_proven: bool):
        factors[f] = factors.get(f, 0) + mult
        proven[f] = proven.get(f, True) and is_proven

    # x factors
    k = 0
    while not work.is_zero and work.degree >= 1 and work.coeffs[0] == 0:
        work = work.divmod(Polynomial.x())[0]
        k += 1
    if k:
        record(Polynomial.x(), k, True)

    # rational roots, with multiplicity
    try:
        while work.degree >= 1:
            roots = _rational_roots(work)
            if not roots:
                break
            for r in roots:
                lin = Polynomial.x_minus(r)
                while lin.divides(work):
                    work = work.divmod(lin)[0]
                    record(lin, 1, True)
    except _FactorBudget:
        # roots may be missing, so no remaining factor is proven irreducible
        record(work.monic(), 1, work.degree == 1)
        work = Polynomial.one()

    # what remains has no rational roots
    queue = [work] if work.degree >= 1 else []
    while queue:
        h = queue.pop()
        if h.degree in (2, 3):
            record(h.monic(), 1, True)
            continue
        ints, d = _to_monic_integer(h.monic())
        try:
            quad = _quadratic_factor_search(ints)
            quart = _quartic_factor_search(ints, search_bound) if quad is None and h.degree == 8 else None
        except _FactorBudget:
            record(h.monic(), 1, False)
            continue
        if quad is not None or quart is not None:
            q = _scale_back(quad or quart, d)
            mult = 0
            while q.divides(h):
                h = h.divmod(q)[0]
                mult += 1
            record(q, mult, quad is not None)
            if h.degree >= 1:
                queue.append(h)
            continue
        # Degrees 4 and 5 are settled by the exhaustive quadratic search;
        # higher degrees might still split into two cubics etc.
        record(h.monic(), 1, h.degree in (4, 5))

    ordered = sorted(factors, key=lambda f: (f.degree, f.coeffs))
    return [PolyFactor(f, factors[f], proven[f]) for f in ordered]


@dataclass(frozen=True)
class PrimaryComponent:
    factor: Polynomial
    multiplicity: int
    subspace: Subspace
    proven_irreducible: bool


def primary_decomposition(m: RatMatrix, search_bound: int = 2) -> list[PrimaryComponent]:
    """Split the ambient space into the generalized kernels of the
    irreducible factors of the characteristic polynomial.

    The components are m-invariant, pairwise independent, and sum to the
    full space even when a factor carries the possibly-reducible mark.
    """
    if not m.is_square:
        raise ValueError("square matrix required")
    out = []
    for f in factor_polynomial(characteristic_polynomial(m), search_bound=search_bound):
        power = f.poly**f.multiplicity
        sub = kernel_of(power.eval_matrix(m))
        out.append(PrimaryComponent(f.poly, f.multiplicity, sub, f.proven_irreducible))
    return out
