"""Centralizer algebras of matrix representations and their structure.

The centralizer (commutant) of a representation models the Lie algebra of
its automorphism group: for a compact structure the infinitesimal
automorphisms are exactly the matrices commuting with every holonomy
generator. This module computes that algebra exactly, splits it into its
Dickson radical and semisimple quotient, hunts for rotational elements
(circle directions) and invariant flags, probes solvability of the
generated group by truncated commutator series, and packages every claim
as a re-verifiable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, islice
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .linalg import (
    RatMatrix,
    Subspace,
    Vec,
    _product_kernel,
    eliminate,
    integer_matmul,
    is_zero_vec,
    kernel_and_image,
    kernel_vectors,
    krylov_powers,
    nullspace,
    numerator_vector,
    primitive_part,
    rref,
    vector,
)
from .polys import (
    Polynomial,
    _factor_power,
    characteristic_polynomial,
    factor_polynomial,
    minimal_polynomial,
)
from .representation import (
    KIND_AFFINE,
    AffineField,
    Representation,
    ValidationError,
)


# Entry-size budget of the derived-series probe: a commutator with a
# numerator or denominator longer than this many bits ends the probe.
# Every "yes" case in the corpus and the structured families peaks at 23
# bits; a generic pair passes thousands within seconds.
_MAX_ENTRY_BITS = 256

# Work bounds of the derived-series probe: conjugator words kept, and
# matrices per level's pool and commutators kept per level. A level's cap
# is at least 2, so that a pool that stands for a level has pairs to test.
_MAX_CONJUGATORS, _MAX_LEVEL = 24, 32

# Work bounds: idempotent witnesses kept and candidate elements tried, and
# invariant subspaces harvested by the flag search (twice as many once
# closed under sums and intersections).
_MAX_WITNESSES, _MAX_CANDIDATES = 6, 80
_FLAG_CANDIDATE_CAP = 48


class ClosureError(ValueError):
    """Raised by AlgebraBasis.from_span on a span that is not closed under
    the matrix product."""


@dataclass(frozen=True)
class AlgebraBasis:
    """A matrix subalgebra span, stored as its canonical span.

    span is the canonical subspace (see Subspace) of the row-major entries
    of the algebra's matrices, so two algebras are equal, and hash alike,
    exactly when they are equal as spans. basis and contains_identity are
    views of span: each basis matrix is one primitive integer row over its
    pivot entry, which is already the matrix's normalized integer form, so
    the basis is one-to-one with the span and nothing else is stored.
    The span is closed under the matrix product; the constructor takes that
    as given. matrix_centralizer and dickson_radical build their algebras
    with it, since a centralizer and a radical are closed by construction;
    from_span, which takes arbitrary matrices, checks it. The basis
    products are formed on demand by product(i, j) and memoized, so every
    consumer (from_span's check, the commutativity tests) shares each one
    and pays only for the pairs it reads.
    """

    ambient_dim: int
    span: Subspace

    def __post_init__(self):
        if self.span.ambient_dim != self.ambient_dim * self.ambient_dim:
            raise ValueError("subspace does not match the ambient size")

    @staticmethod
    def from_span(mats: Sequence[RatMatrix], ambient_dim: int) -> "AlgebraBasis":
        """The algebra spanned by mats, checked for closure: every product of
        two basis elements, formed through the product memo, must lie in the
        span, and the first pair in row-major order that leaves it raises
        ClosureError. A span of dimension n^2 is M_n(Q) itself and forms no
        product."""
        for m in mats:
            if m.nrows != ambient_dim or m.ncols != ambient_dim:
                raise ValueError("algebra elements must be square of the ambient size")
        a = AlgebraBasis(
            ambient_dim, Subspace.span([numerator_vector(m) for m in mats], ambient_dim * ambient_dim)
        )
        if a.dim < ambient_dim * ambient_dim:
            for i in range(a.dim):
                for j in range(a.dim):
                    if not a.contains(a.product(i, j)):
                        raise ClosureError(f"basis pair ({i}, {j}) leaves the span")
        return a

    @cached_property
    def basis(self) -> tuple[RatMatrix, ...]:
        n = self.ambient_dim
        return tuple(
            RatMatrix.from_integer_form([v[i * n : (i + 1) * n] for i in range(n)], next(x for x in v if x))
            for v in self.span.num
        )

    @cached_property
    def contains_identity(self) -> bool:
        return self.contains(RatMatrix.identity(self.ambient_dim))

    @property
    def dim(self) -> int:
        return self.span.dim

    def contains(self, m: RatMatrix) -> bool:
        return self.span.contains(numerator_vector(m))

    @cached_property
    def _products(self) -> dict[tuple[int, int], RatMatrix]:
        """The memo of product: (i, j) -> basis[i] * basis[j]. It is not a
        field, so it takes no part in == or hash."""
        return {}

    def product(self, i: int, j: int) -> RatMatrix:
        """basis[i] * basis[j], formed on first request and memoized on the
        algebra, so each product is computed at most once."""
        p = self._products.get((i, j))
        if p is None:
            p = self._products[i, j] = self.basis[i] * self.basis[j]
        return p

    @cached_property
    def _common_rows(self) -> tuple[list[list[int]], int]:
        """(rows, den) with basis[i] = rows[i] / den, rows[i] its row-major
        integer entries and den the lcm of the basis denominators; the
        trace form and the Dickson radical read the basis here."""
        den = lcm(*[b.den for b in self.basis])
        return [[x * (den // b.den) for r in b.num for x in r] for b in self.basis], den

    @cached_property
    def trace_form(self) -> RatMatrix:
        """Gram matrix of the trace form: trace_form[i][j] = tr(basis[i] *
        basis[j]) = sum over r, c of basis[i][r][c] * basis[j][c][r], read
        off the integer entries once per unordered pair; no product is
        formed. Computed once per algebra; it is not a field, so it takes
        no part in == or hash."""
        rows, den = self._common_rows
        n = self.ambient_dim
        cols = [[x for c in range(n) for x in v[c::n]] for v in rows]  # the transposes
        k = self.dim
        gram = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                gram[i][j] = gram[j][i] = sum(map(mul, rows[i], cols[j]))
        return RatMatrix.from_integer_form(gram, den * den)

    def is_commutative(self) -> bool:
        """True iff the basis elements commute pairwise; the pairs are walked
        through the product memo up to the first that does not commute."""
        return all(self.product(i, j) == self.product(j, i) for i, j in combinations(range(self.dim), 2))


def _commutation_rows(mats: Sequence[RatMatrix], size: int) -> list[list[int]]:
    """Rows of the linear system Xg - gX = 0 in the row-major entries of X,
    one block per generator g, each scaled by g's common denominator."""
    rows: list[list[int]] = []
    for g in mats:
        num, _ = g.integer_form
        for i in range(size):
            for j in range(size):
                row = [0] * (size * size)
                for l in range(size):
                    row[i * size + l] += num[l][j]
                for k in range(size):
                    row[k * size + j] -= num[i][k]
                rows.append(row)
    return rows


def matrix_centralizer(mats: Sequence[RatMatrix], size: int) -> AlgebraBasis:
    """Basis of {X : Xg = gX for every g}, the joint kernel of the
    commutation maps X -> Xg - gX.

    Every generator's size is checked, but a scalar generator cI constrains
    nothing, since XcI - cIX = 0 for every X: the suspension's central 2I
    is skipped. With no generators, or only scalar ones, the centralizer is
    the whole matrix algebra.

    Cyclic rule: let A = N / d be the first non-scalar generator. One
    Krylov pass (krylov_powers) over I, N, ..., N^(n-1) stops at the first
    power that depends on the earlier ones. When all n are independent, A
    is cyclic (non-derogatory), and a matrix that commutes with a cyclic
    matrix is a polynomial in it (Horn-Johnson, Matrix Analysis, 2nd ed.,
    Thm 3.2.4.2), so C(A) = Q[N]. The centralizer is then the set of
    sum_k c_k N^k with sum_k c_k (N^k M - M N^k) = 0 for the numerator M of
    every other non-scalar generator: an integer system in n unknowns,
    whose kernel vectors are combined with the powers and spanned once.

    Fallback, when A is derogatory: the kernel of the integer commutation
    system in the n^2 entries of X, read off one RREF with one span of the
    free-column vectors; no image of the (k n^2) x n^2 system is built.

    The span is canonical, so both paths give the same AlgebraBasis. On
    either path it is closed under the product, since XY commutes with g
    whenever X and Y do, so it is built with the plain constructor, which
    forms no product to confirm it.
    """
    for g in mats:
        if g.nrows != size or g.ncols != size:
            raise ValueError("generator size mismatch")
    nonscalar = [g for g in mats if not g.is_scalar()]
    span = None
    if nonscalar:
        powers, dependence = krylov_powers(nonscalar[0].num, size)
        if dependence is None:
            span = _polynomial_centralizer(powers, nonscalar[1:], size)
    if span is None:
        span = nullspace(*rref(_commutation_rows(nonscalar, size)), size * size)
    return AlgebraBasis(size, span)


def _polynomial_centralizer(
    powers: list[list[list[int]]], others: Sequence[RatMatrix], size: int
) -> Subspace:
    """The elements of Q[N] = span{I, N, ..., N^(n-1)} (powers, the integer
    powers of a cyclic N) that commute with every matrix of others.

    Column k of the system is the vectorized commutator N^k M - M N^k, one
    block of n^2 rows per M = numerator of an element of others; column 0
    is zero, since I commutes with M. Each kernel vector c gives the
    element sum_k c_k N^k."""
    rows: list[tuple[int, ...]] = []
    for g in others:
        m = g.num
        comms = [[0] * (size * size)]
        for p in powers[1:]:
            pm, mp = integer_matmul(p, m), integer_matmul(m, p)
            comms.append([a - b for ra, rb in zip(pm, mp) for a, b in zip(ra, rb)])
        rows.extend(zip(*comms))
    flat = [[x for row in p for x in row] for p in powers]
    return Subspace.span(integer_matmul(kernel_vectors(*rref(rows), size), flat), size * size)


def centralizer_algebra(rep: Representation) -> AlgebraBasis:
    """Centralizer of the holonomy image: the commutant model of the
    automorphism Lie algebra. Always contains the identity and is closed
    under the matrix product."""
    return matrix_centralizer(rep.matrices, rep.matrix_size)


def invariant_affine_fields(rep: Representation) -> list[AffineField]:
    """Affine vector fields x -> Lx + c invariant under every generator of a
    homogeneous affine representation.

    Invariance of the field under g(x) = Ax + b means AL = LA and
    Ac = Lb + c, that is: the field matrix [[L, c], [0, 0]] commutes with
    every generator. So the fields are the elements of the centralizer
    whose last row is zero: the kernel vectors of the centralizer basis's
    last rows, combined with its basis and spanned once. For a linear
    (radiant) representation embedded as affine, the radial field (I, 0)
    is always present.
    """
    if rep.kind != KIND_AFFINE:
        raise ValidationError("kind must be affine (homogeneous form)")
    size = rep.dimension + 1
    basis = centralizer_algebra(rep).span.num
    last_rows = list(zip(*[v[-size:] for v in basis]))  # one equation per entry of the last row
    ker = kernel_vectors(*rref(last_rows), len(basis))
    n = rep.dimension
    fields = []
    # each canonical row over its pivot entry is a field matrix [[L, c], [0, 0]]
    for v in Subspace.span(integer_matmul(ker, basis), size * size).num:
        piv = next(x for x in v if x)
        lin = RatMatrix.from_integer_form([v[i * size : i * size + n] for i in range(n)], piv)
        const = tuple(Fraction(v[i * size + n], piv) for i in range(n))
        fields.append(AffineField(lin, const))
    return fields


def algebra_closure_check(a: AlgebraBasis) -> tuple[bool, None]:
    """Always (True, None): every AlgebraBasis is closed under the product,
    by construction or by from_span's check, so there is nothing left to
    test and no product is formed."""
    return True, None


@dataclass(frozen=True)
class Decomposition:
    """Radical/semisimple split data of a product-closed matrix algebra."""

    radical: AlgebraBasis
    quotient_dim: int
    quotient_commutative: bool
    idempotent_witnesses: tuple[RatMatrix, ...]


def _projection(onto: Sequence[Sequence[int]], along: Sequence[Sequence[int]]) -> RatMatrix:
    """The projection onto the span of the integer vectors `onto` along the
    span of `along`, two bases of complementary subspaces of Q^n:
    P diag(I, 0) P^-1, where P has the vectors of onto and then of along as
    its columns. The projection depends on the two subspaces only, so any
    bases give the same matrix. Only the first len(onto) columns of P and
    rows of P^-1 meet the identity block."""
    k = len(onto)
    cols = RatMatrix(tuple(zip(*(list(onto) + list(along)))))
    inv, den = cols.inverse().integer_form
    return RatMatrix.from_integer_form(integer_matmul([r[:k] for r in cols.num], inv[:k]), den)


def _idempotent_witnesses(a: AlgebraBasis) -> tuple[RatMatrix, ...]:
    """Bounded search for idempotents e with e*e = e, e not in {0, I}.

    For each candidate element m whose minimal polynomial has at least two
    distinct factors, and each linear factor f of it, of multiplicity k, let
    B = f(m)^k. By Fitting's lemma Q^n is the direct sum of Ker B and Im B,
    and e is the projection onto Ker B along Im B (_projection), read from
    one RREF of B: its kernel vectors and its pivot columns. Ker B != 0
    as f divides the minimal polynomial, and Im B != 0 as another factor
    remains, so e*e = e, e != 0 and e != I hold without a check. e is a
    polynomial in m, (s c)(m) for c the cofactor of f^k and s c + t f^k = 1,
    so a unital closed algebra contains it; membership is tested because a
    non-unital algebra need not.

    dickson_radical calls it only when the semisimple quotient has
    dimension >= 2 or the algebra lacks I: on a local algebra every
    candidate has a minimal polynomial with one factor, so it would find
    nothing.
    """
    sums = (x + y for x, y in combinations(a.basis, 2))
    witnesses: list[RatMatrix] = []
    seen: set[RatMatrix] = set()
    span = a.span
    for m in islice(chain(a.basis, sums), _MAX_CANDIDATES):
        if len(witnesses) >= _MAX_WITNESSES:
            break
        factors = factor_polynomial(minimal_polynomial(m))
        if len(factors) < 2:
            continue
        for f in factors:
            if f.poly.degree != 1:
                continue
            power = _factor_power(f, m)
            reduced, pivots = rref(power)
            image = [[r[p] for r in power] for p in pivots]
            e = _projection(kernel_vectors(reduced, pivots, len(power)), image)
            if e in seen or not span.contains(numerator_vector(e)):
                continue
            witnesses.append(e)
            seen.add(e)
            if len(witnesses) >= _MAX_WITNESSES:
                break
    return tuple(witnesses)


def dickson_radical(a: AlgebraBasis) -> Decomposition:
    """Radical of a product-closed matrix algebra via the trace form.

    Over the rationals the kernel of (x, y) -> trace(xy) on the algebra is
    exactly its maximal nilpotent ideal (Dickson's criterion), so its
    elements are not re-checked for nilpotency. For x in the kernel and
    k >= 2, x^k = x * x^(k-1) with x^(k-1) in the algebra, so tr(x^k) = 0:
    every power sum of x^2 vanishes, which over Q makes x^2, and so x,
    nilpotent. That argument needs closure, which every AlgebraBasis has.
    The radical is an ideal, so it is closed too and is built with the
    plain constructor. Commutativity of the semisimple quotient is decided
    by testing commutators modulo the radical span, up to the first that
    leaves it; a quotient of dimension <= 1 is spanned by at most one
    class, so it is commutative without a test.

    The idempotent search (_idempotent_witnesses) runs only when the
    quotient has dimension >= 2 or the algebra lacks I. Otherwise the
    algebra is local: A = J, or A = QI + J with I outside the nilpotent J.
    Every candidate is then cI + n with n nilpotent, whose minimal
    polynomial (x - c)^s has one factor, so the search cannot succeed and
    the empty witness tuple is a proven absence, not a bound. A non-unital
    algebra with a quotient of dimension 1, such as span{E11, E12}, can
    hold an idempotent, so it is searched. The zero algebra takes the same
    path to a zero radical, a commutative quotient of dimension 0 and no
    witnesses.
    """
    k, n = a.dim, a.ambient_dim
    ker = kernel_vectors(*rref(a.trace_form.num), k)
    radical = AlgebraBasis(n, Subspace.span(integer_matmul(ker, a._common_rows[0]), n * n))
    quotient_dim = k - radical.dim
    rad_span = radical.span
    quotient_commutative = quotient_dim <= 1 or all(
        rad_span.contains(numerator_vector(a.product(i, j) - a.product(j, i)))
        for i, j in combinations(range(k), 2)
    )
    local = quotient_dim == 0 or (quotient_dim == 1 and a.contains_identity)
    witnesses = () if local else _idempotent_witnesses(a)
    return Decomposition(radical, quotient_dim, quotient_commutative, witnesses)


@dataclass(frozen=True)
class Flag:
    """Strictly increasing chain of proper nonzero subspaces."""

    chain: tuple[Subspace, ...]

    def __post_init__(self):
        if not self.chain:
            raise ValueError("empty flag")
        ambient = self.chain[0].ambient_dim
        prev: Subspace | None = None
        for s in self.chain:
            if s.ambient_dim != ambient:
                raise ValueError("mixed ambient dimensions in flag")
            if not 0 < s.dim < ambient:
                raise ValueError("flag members must be proper nonzero subspaces")
            if prev is not None:
                if not (prev.dim < s.dim and prev.is_subspace_of(s)):
                    raise ValueError("flag chain must be strictly increasing")
            prev = s

    @property
    def ambient_dim(self) -> int:
        return self.chain[0].ambient_dim

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.chain)

    @property
    def complete(self) -> bool:
        """True when the chain has one member of every dimension 1..d-1, so
        an invariant complete flag triangularizes the group and certifies
        solvability."""
        return self.dims == tuple(range(1, self.ambient_dim))


def verify_flag_invariant(
    rep: Representation, f: Flag
) -> tuple[bool, tuple[str, Subspace] | None]:
    """True iff g V = V for every generator g and every chain member V;
    otherwise names the failing pair."""
    if f.ambient_dim != rep.matrix_size:
        raise ValueError("flag ambient dimension does not match the representation")
    for g in rep.generators:
        for s in f.chain:
            if s.apply(g.matrix) != s:
                return False, (g.label, s)
    return True, None


@dataclass(frozen=True)
class RotationalElementCertificate:
    """A commutant element generating a circle: minimal polynomial x^2+c or
    x(x^2+c) with c > 0, splitting the space into its rotation planes
    (image) and fixed subspace (kernel), both holonomy-invariant."""

    element: RatMatrix
    rotation_space: Subspace
    fixed_space: Subspace


@dataclass(frozen=True)
class InvariantFlagCertificate:
    flag: Flag


@dataclass(frozen=True)
class FixedProjectivePointCertificate:
    point: Vec


@dataclass(frozen=True)
class InvariantSubspaceCertificate:
    subspace: Subspace


Certificate = Union[
    InvariantFlagCertificate,
    RotationalElementCertificate,
    FixedProjectivePointCertificate,
    InvariantSubspaceCertificate,
]


def _is_rotational_minpoly(minp: Polynomial) -> bool:
    # minp is monic, so its integer coefficients have the signs of its coefficients
    if minp.degree == 2:
        c0, c1, _ = minp.num
        return c1 == 0 and c0 > 0
    if minp.degree == 3:
        c0, c1, c2, _ = minp.num
        return c0 == 0 and c2 == 0 and c1 > 0
    return False


def verify_certificate(rep: Representation, cert: Certificate) -> bool:
    """Pure re-verification of a certificate against a representation.

    This is the check of the two exits where certificates leave the
    library: classify's _finalize and the CLI's analyze report."""
    mats = rep.matrices
    if isinstance(cert, InvariantFlagCertificate):
        return verify_flag_invariant(rep, cert.flag)[0]
    if isinstance(cert, FixedProjectivePointCertificate):
        # a projective point is fixed iff the line through it is invariant
        v = vector(cert.point)
        if is_zero_vec(v):
            return False
        cert = InvariantSubspaceCertificate(Subspace.span([v], len(v)))
    if isinstance(cert, InvariantSubspaceCertificate):
        s = cert.subspace
        return all(s.apply(g) == s for g in mats)
    if isinstance(cert, RotationalElementCertificate):
        j = cert.element
        if not _is_rotational_minpoly(minimal_polynomial(j)):
            return False
        ker, img = kernel_and_image(j)
        if img != cert.rotation_space or ker != cert.fixed_space:
            return False
        for g in mats:
            if g * j != j * g:
                return False
            if cert.rotation_space.apply(g) != cert.rotation_space:
                return False
            if cert.fixed_space.dim and cert.fixed_space.apply(g) != cert.fixed_space:
                return False
        return True
    raise TypeError(f"unknown certificate type: {type(cert).__name__}")


def find_rotational_element(
    a: AlgebraBasis, rep: Representation | None = None, bound: int = 2
) -> RotationalElementCertificate | None:
    """Bounded search for a rotational element of a product-closed algebra.

    Scans the basis, then integer combinations of basis pairs with
    coefficients in {-bound, ..., bound}, for an element whose minimal
    polynomial is x^2+c or x(x^2+c) with c > 0. Absence of a find never
    asserts that no rotational element exists.

    When a is the centralizer of a representation, the certificate holds
    for it by construction: the element commutes with every generator, so
    its image and kernel are invariant. A caller that supplies rep gets
    only candidates that pass verify_certificate against it, which matters
    only for an algebra that does not centralize rep.

    The eigenvalues of a rotational element are 0 and pairs +-i sqrt(c), so
    it has tr(j) = 0 and tr(j^2) < 0. Both are read off the basis traces and
    the trace form, and only candidates passing them get a minimal
    polynomial; the walk order, and so the first find, is unchanged.
    """
    gram, _ = a.trace_form.integer_form  # tr(j^2) has the sign of the numerator
    traces = [b.trace() for b in a.basis]

    def check(i: int, j: int, cx: int, cy: int) -> RotationalElementCertificate | None:
        if cx * cx * gram[i][i] + 2 * cx * cy * gram[i][j] + cy * cy * gram[j][j] >= 0:
            return None
        if cx * traces[i] + cy * traces[j] != 0:
            return None
        cand = a.basis[i] if i == j else a.basis[i].scale(cx) + a.basis[j].scale(cy)
        if not _is_rotational_minpoly(minimal_polynomial(cand)):
            return None
        ker, img = kernel_and_image(cand)
        cert = RotationalElementCertificate(cand, img, ker)
        if rep is not None and not verify_certificate(rep, cert):
            return None
        return cert

    for i in range(a.dim):
        found = check(i, i, 1, 0)
        if found is not None:
            return found
    coeff_pairs = [
        (x, y)
        for x in range(0, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and (x > 0 or y > 0)
    ]
    for i, j in combinations(range(a.dim), 2):
        for cx, cy in coeff_pairs:
            found = check(i, j, cx, cy)
            if found is not None:
                return found
    return None


def _invariant_candidates(gens: Sequence[RatMatrix], cent: Sequence[RatMatrix], size: int) -> list[Subspace]:
    """Harvest the kernel chains and images of f(m) for the centralizer
    elements cent, then for the generators.

    For each non-scalar m and each irreducible factor f, of multiplicity k,
    of the characteristic polynomial (in factor_polynomial's order): Ker f(m)
    and Im f(m), both from one kernel_and_image, then Ker f(m)^j for
    j = 2, 3, ... The kernel chain grows strictly until it reaches the
    primary component Ker f(m)^k, of dimension k * deg f, and is constant
    from there on, so the chain stops at that dimension. The factor f = x
    gives Ker m and Im m, and the last kernel of each chain is its
    component. Nothing is formed that would be rejected as Q^n: a factor
    of degree n has f(m) = 0, so it is skipped; and each step of the chain
    adds a multiple of deg f to the kernel's dimension, so the chain also
    stops once that dimension reaches n - deg f.

    One taken from a generator is kept only when every generator maps each
    of its basis vectors into it; as every generator is invertible, it then
    maps the subspace onto itself. One taken from an element m of cent
    needs no check: each generator g commutes with m, so g maps every
    Ker f(m)^j and Im f(m) into itself, and onto itself. Proper nonzero
    subspaces not seen before are kept, in the order offered, while fewer
    than _FLAG_CANDIDATE_CAP are.
    """
    seen: dict[Subspace, None] = {}

    def consider(s: Subspace, check: bool):
        if not 0 < s.dim < size or s in seen or len(seen) >= _FLAG_CANDIDATE_CAP:
            return
        if not check or all(all(map(s.contains, _product_kernel(size)(s.num, g.num))) for g in gens):
            seen[s] = None

    for m, check in [(m, False) for m in cent] + [(g, True) for g in gens]:
        if m.is_scalar():
            continue
        for f in factor_polynomial(characteristic_polynomial(m)):
            d = f.poly.degree
            if d == size:  # f(m) = 0: its kernel is Q^n and its image 0
                continue
            fm = f.poly.eval_matrix(m)
            kernel, image = kernel_and_image(fm)
            consider(kernel, check)
            consider(image, check)
            power = fm.num
            while kernel.dim < min(f.multiplicity * d, size - d):
                power = integer_matmul(power, fm.num)
                kernel = nullspace(*rref(power), size)
                consider(kernel, check)
    return list(seen)


def _longest_chain(cands: list[Subspace]) -> list[Subspace]:
    ordered = sorted(cands, key=lambda s: (s.dim, s.basis))
    best_len = [1] * len(ordered)
    prev = [-1] * len(ordered)
    for i, s in enumerate(ordered):
        for j in range(i):
            if ordered[j].dim < s.dim and ordered[j].is_subspace_of(s):
                if best_len[j] + 1 > best_len[i]:
                    best_len[i] = best_len[j] + 1
                    prev[i] = j
    if not ordered:
        return []
    top = max(range(len(ordered)), key=lambda i: (best_len[i], -ordered[i].dim))
    chain = []
    while top != -1:
        chain.append(ordered[top])
        top = prev[top]
    return list(reversed(chain))


def invariant_flag_search(rep: Representation, cent: AlgebraBasis | None = None) -> Flag | None:
    """Search for a chain of subspaces invariant under every generator.

    When every generator is scalar, every subspace is invariant, and the
    complete flag span(e_n) < span(e_(n-1), e_n) < ... < span(e_2, ..., e_n)
    is built directly, with no centralizer and no search. A space of
    dimension n <= 1 has no proper nonzero subspace, so there is no flag.

    Otherwise: harvest the kernel chains and images of f(m) for the
    centralizer elements and the generators (_invariant_candidates), and
    take the longest containment chain. When it is not complete, close the
    harvest once under pairwise intersections and sums, up to twice the
    candidate cap, and take the longest chain again. Two kinds of pair add
    nothing to the closure, so neither is formed: a pair in which one
    member contains the other, whose sum and intersection are the pair
    itself; and the intersection of a pair with dim(a + b) = dim a + dim b,
    which is 0. Each generator maps every harvested subspace onto itself,
    and an invertible generator maps sums and intersections of such
    subspaces onto themselves too, so the returned flag is invariant by
    construction. Absence of a find is not a nonexistence claim. cent is
    the centralizer of rep when the caller already holds it; it is computed
    here otherwise.
    """
    gens = list(rep.matrices)
    size = rep.matrix_size
    if all(g.is_scalar() for g in gens):
        if size <= 1:
            return None
        units = RatMatrix.identity(size).num  # e_1, ..., e_n: each tail is a canonical span
        return Flag(tuple(Subspace(size, units[k:]) for k in range(size - 1, 0, -1)))
    if cent is None:
        cent = matrix_centralizer(gens, size)
    cands = _invariant_candidates(gens, cent.basis, size)
    chain = _longest_chain(cands)
    if chain and len(chain) == size - 1:  # a strictly increasing chain this long is complete
        return Flag(tuple(chain))
    extra: dict[Subspace, None] = {s: None for s in cands}
    for a, b in combinations(cands, 2):
        low, high = (a, b) if a.dim <= b.dim else (b, a)
        if low.is_subspace_of(high):
            continue
        total = a.add(b)
        for s in (total,) if total.dim == a.dim + b.dim else (a.intersect(b), total):
            if 0 < s.dim < size and s not in extra and len(extra) < 2 * _FLAG_CANDIDATE_CAP:
                extra[s] = None
    chain = _longest_chain(list(extra))
    return Flag(tuple(chain)) if chain else None


@dataclass(frozen=True)
class DerivedLevel:
    depth: int
    pool_size: int
    nontrivial_commutators: int
    all_identity: bool


@dataclass(frozen=True)
class DerivedSeriesReport:
    levels: tuple[DerivedLevel, ...]
    verdict: str  # "yes" (trivial within depth) or "unknown"
    commutator_depth: int
    word_length: int
    stopped: str | None = None  # "entry_bits" when the entry-size budget ended the probe


def _pairwise_commute(mats: Iterable[RatMatrix]) -> bool:
    """True iff the square matrices mats commute pairwise.

    The commutator ab - ba is bilinear, so it vanishes on all pairs exactly
    when it vanishes on the pairs of a basis of the span. The walk keeps a
    member only when it leaves the span of the members kept so far (an
    integer echelon form of their numerator vectors) and checks it against
    each of them, returning False at the first pair that does not commute.
    The kept members commute pairwise, and such matrices span at most
    floor(n^2 / 4) + 1 dimensions at size n (Schur 1905; Jacobson 1944),
    and with d members kept the walk makes at most d(d - 1) products.
    """
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, integer row)
    kept: list[RatMatrix] = []
    for m in mats:
        v = list(numerator_vector(m))
        for col, row in echelon:
            if v[col]:
                v = primitive_part(eliminate(v, row, col)[1])
        col = next((i for i, x in enumerate(v) if x), None)
        if col is None:
            continue  # in the span of the kept members
        if any(m * b != b * m for b in kept):
            return False
        echelon.append((col, v))
        kept.append(m)
    return True


def _conjugate(word: tuple[int, ...], s: RatMatrix, letters: list[RatMatrix], memo: list[dict]) -> RatMatrix:
    """g1 (... (gk s gk^-1) ...) g1^-1 for the word (gk, ..., g1) of indices
    into letters, the generators and then their inverses; each step is
    looked up in memo[letter index] by matrix."""
    half = len(letters) // 2
    for i in word:
        t = memo[i].get(s)
        if t is None:
            t = memo[i][s] = letters[i] * s * letters[i - half]
        s = t
    return s


def truncated_derived_series(
    rep: Representation,
    commutator_depth: int = 8,
    word_length: int = 6,
) -> DerivedSeriesReport:
    """Finite, sound-but-incomplete solvability probe.

    Level 0 is the generator set; each next level collects commutators of
    the previous level and of its conjugates by bounded words in the
    generators. If some level consists only of the identity the verdict is
    "yes" (solvable up to this truncation); otherwise "unknown". The probe
    never claims non-solvability.

    At most _MAX_CONJUGATORS conjugator words are kept, each level's pool
    holds at most _MAX_LEVEL matrices and at most _MAX_LEVEL commutators
    are kept. Commutator entries of a generic group grow in bit size from
    level to level; once one has a numerator or denominator longer than
    _MAX_ENTRY_BITS the probe stops with "unknown" and stopped="entry_bits".

    Conjugates are built letter by letter through a memo local to a level:
    two products each in a free group, fewer where steps recur. Inverses
    are built only for the members of a pair that does not commute.

    A level whose pool commutes pairwise is settled from a basis of the
    pool's span (_pairwise_commute), at most d(d - 1) products for a basis
    of d matrices instead of two for each of the pool's pairs; it is
    recorded as the pair loop would record it, so reports are unchanged.
    Otherwise the pair loop forms the commutators.
    """
    if commutator_depth < 1 or word_length < 1:
        raise ValueError("depth and word length must be >= 1")
    size = rep.matrix_size
    ident = RatMatrix.identity(size)
    gens = []
    for m in rep.matrices:
        if m != ident and m not in gens:
            gens.append(m)

    # Only the generators are inverted by elimination, whose cost grows
    # fastest with entry size; other inverses are products.
    letters = gens + [g.inverse() for g in gens]
    conjugators = {ident: ()}  # matrix -> its word, innermost letter first
    frontier = [(ident, ())]
    for _ in range(word_length):
        new_frontier = []
        for w, word in frontier:
            for i, g in enumerate(letters):
                nw = w * g
                if nw not in conjugators:
                    conjugators[nw] = (i,) + word
                    new_frontier.append((nw, conjugators[nw]))
                    if len(conjugators) >= _MAX_CONJUGATORS:
                        break
            if len(conjugators) >= _MAX_CONJUGATORS:
                break
        frontier = new_frontier
        if not frontier or len(conjugators) >= _MAX_CONJUGATORS:
            break

    def too_large(m: RatMatrix) -> bool:
        """True when some entry, in lowest terms, has a numerator or
        denominator longer than _MAX_ENTRY_BITS."""
        d = m.den
        if d.bit_length() <= _MAX_ENTRY_BITS and all(
            x.bit_length() <= _MAX_ENTRY_BITS for row in m.num for x in row
        ):
            return False  # an entry in lowest terms is no longer than x / d
        for row in m.num:
            for x in row:
                g = gcd(x, d)
                if (x // g).bit_length() > _MAX_ENTRY_BITS or (d // g).bit_length() > _MAX_ENTRY_BITS:
                    return True
        return False

    inverses = dict(zip(gens, letters[len(gens) :]))
    levels: list[DerivedLevel] = []
    # a commutator a b a^-1 b^-1 -> (b a, b^-1, a^-1), the factors of its inverse
    current: dict[RatMatrix, tuple | None] = dict.fromkeys(gens)
    verdict = "unknown"
    stopped = None
    for depth in range(1, commutator_depth + 1):
        pool: dict[RatMatrix, tuple] = {}  # c s c^-1 -> (word of c, s)
        memo: list[dict] = [{} for _ in letters]  # per letter g: s -> g s g^-1
        for word in conjugators.values():
            for s in current:
                if len(pool) >= _MAX_LEVEL:
                    break
                m = _conjugate(word, s, letters, memo)
                if m not in pool:
                    pool[m] = (word, s)
        if _pairwise_commute(pool):
            # what the pair loop records when every commutator is the identity
            levels.append(DerivedLevel(depth, len(pool), 0, True))
            verdict = "yes"
            break
        nxt: dict[RatMatrix, tuple] = {}
        for a, b in combinations(pool, 2):
            if len(nxt) >= _MAX_LEVEL:
                break
            ab = a * b
            ba = b * a
            if ab == ba:  # exactly when the commutator is the identity
                continue
            for m in (a, b):
                if m not in inverses:
                    word, s = pool[m]  # the inverse of c s c^-1 is c s^-1 c^-1
                    if s not in inverses:  # a commutator
                        x, y, z = current[s]
                        inverses[s] = x * y * z
                    inverses[m] = _conjugate(word, inverses[s], letters, memo)
            ai, bi = inverses[a], inverses[b]
            comm = ab * ai * bi
            if comm not in nxt:
                if too_large(comm):
                    stopped = "entry_bits"
                    break
                nxt[comm] = (ba, bi, ai)
        if stopped:
            break
        # the pool has a pair that does not commute, so nxt is not empty
        levels.append(DerivedLevel(depth, len(pool), len(nxt), False))
        current = nxt
    return DerivedSeriesReport(tuple(levels), verdict, commutator_depth, word_length, stopped)


def orbit_dimension_at(a: AlgebraBasis, x: Sequence) -> int:
    """Tangent dimension at [x] of the orbit of the projectivized action:
    the rank of {b x} over the basis, taken modulo the line R x."""
    xv = vector(x)
    if is_zero_vec(xv):
        raise ValueError("x must be nonzero")
    if len(xv) != a.ambient_dim:
        raise ValueError("point does not match the ambient dimension")
    rows = [list(xv)] + [list(b.apply(xv)) for b in a.basis]
    _, pivots = rref(rows)
    return len(pivots) - 1
