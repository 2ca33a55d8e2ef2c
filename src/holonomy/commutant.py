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
from itertools import combinations
from typing import Sequence, Union

from .linalg import (
    RatMatrix,
    Subspace,
    Vec,
    image_of,
    is_zero_vec,
    kernel_of,
    matrix_from_vec,
    rref,
    vector,
    vectorize,
)
from .polys import (
    Polynomial,
    characteristic_polynomial,
    factor_polynomial,
    minimal_polynomial,
    poly_egcd,
    primary_decomposition,
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


class ClosureError(ValueError):
    """Raised when an operation requires a product-closed algebra span."""


@dataclass(frozen=True)
class AlgebraBasis:
    """A matrix subalgebra span in canonical form.

    The basis rows are the RREF of the vectorized spanning set, so two
    spans are equal exactly when the data is. Closure under the matrix
    product is a property of the span, checked by algebra_closure_check,
    not enforced by construction.
    """

    ambient_dim: int
    basis: tuple[RatMatrix, ...]
    contains_identity: bool

    @staticmethod
    def from_span(mats: Sequence[RatMatrix], ambient_dim: int) -> "AlgebraBasis":
        for m in mats:
            if m.nrows != ambient_dim or m.ncols != ambient_dim:
                raise ValueError("algebra elements must be square of the ambient size")
        span = Subspace.span([vectorize(m) for m in mats], ambient_dim * ambient_dim)
        basis = tuple(matrix_from_vec(v, ambient_dim, ambient_dim) for v in span.basis)
        has_id = span.contains(vectorize(RatMatrix.identity(ambient_dim)))
        return AlgebraBasis(ambient_dim, basis, has_id)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span_subspace(self) -> Subspace:
        # basis vectors are already canonical RREF rows
        return Subspace(self.ambient_dim * self.ambient_dim, tuple(vectorize(m) for m in self.basis))

    def contains(self, m: RatMatrix) -> bool:
        return self.span_subspace().contains(vectorize(m))

    @cached_property
    def products(self) -> tuple[tuple[RatMatrix, ...], ...]:
        """products[i][j] = basis[i] * basis[j]. Computed once per algebra;
        it is not a field, so it takes no part in == or hash."""
        return tuple(tuple(x * y for y in self.basis) for x in self.basis)

    @cached_property
    def trace_form(self) -> RatMatrix:
        """Gram matrix of the trace form: trace_form[i][j] = tr(basis[i] *
        basis[j]), read off the cached products. Computed once per algebra;
        it is not a field, so it takes no part in == or hash."""
        return RatMatrix.from_rows([[xy.trace() for xy in row] for row in self.products])

    def is_commutative(self) -> bool:
        p = self.products
        return all(p[i][j] == p[j][i] for i, j in combinations(range(self.dim), 2))


def _commutation_rows(mats: Sequence[RatMatrix], size: int) -> list[list[int]]:
    """Rows of the linear system Xg - gX = 0 in the row-major entries of X,
    one block per generator g, each scaled by g's common denominator."""
    rows: list[list[int]] = []
    for g in mats:
        if g.nrows != size or g.ncols != size:
            raise ValueError("generator size mismatch")
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
    commutation maps X -> Xg - gX."""
    rows = _commutation_rows(mats, size)
    if not rows:
        units = [
            matrix_from_vec(
                tuple(Fraction(1 if t == s else 0) for t in range(size * size)), size, size
            )
            for s in range(size * size)
        ]
        return AlgebraBasis.from_span(units, size)
    ker = kernel_of(RatMatrix.from_integer_form(rows, 1))
    return AlgebraBasis.from_span(
        [matrix_from_vec(v, size, size) for v in ker.basis], size
    )


def centralizer_algebra(rep: Representation) -> AlgebraBasis:
    """Centralizer of the holonomy image: the commutant model of the
    automorphism Lie algebra. Always contains the identity and is closed
    under the matrix product."""
    return matrix_centralizer(rep.matrices, rep.matrix_size)


def invariant_affine_fields(rep: Representation) -> list[AffineField]:
    """Affine vector fields x -> Lx + c invariant under every generator of a
    homogeneous affine representation.

    Invariance of the field under g(x) = Ax + b means AL = LA and
    Ac = Lb + c, which is one joint linear system in homogeneous form: the
    field matrix [[L, c], [0, 0]] must commute with every generator. For a
    linear (radiant) representation embedded as affine, the radial field
    (I, 0) is always present.
    """
    if rep.kind != KIND_AFFINE:
        raise ValidationError("kind must be affine (homogeneous form)")
    size = rep.dimension + 1
    rows = _commutation_rows(rep.matrices, size)
    # force the last row of the field matrix to zero
    for j in range(size):
        row = [0] * (size * size)
        row[(size - 1) * size + j] = 1
        rows.append(row)
    ker = kernel_of(RatMatrix.from_integer_form(rows, 1))
    n = rep.dimension
    fields = []
    for v in ker.basis:
        f = matrix_from_vec(v, size, size)
        lin = RatMatrix.from_rows([r[:n] for r in f.rows[:n]])
        const = tuple(f.rows[i][n] for i in range(n))
        fields.append(AffineField(lin, const))
    return fields


def project_automorphism_algebra(susp_fields: Sequence[AffineField]) -> list[RatMatrix]:
    """Quotient of the span of the linear parts by the radial line R*I.

    This is the Lie-algebra shadow of passing from the automorphisms of the
    suspended radiant structure back down to the base: the radial direction
    acts trivially there. The identity must lie in the span (the radial
    field is invariant for every radiant representation); if it does not,
    the input was not a suspension field system and this is flagged.
    """
    if not susp_fields:
        raise ValueError("identity not in span: no fields supplied")
    d = susp_fields[0].dim
    span = Subspace.span([vectorize(f.linear_part) for f in susp_fields], d * d)
    ident = RatMatrix.identity(d)
    if not span.contains(vectorize(ident)):
        raise ValueError("identity not in span: radiant direction missing from the fields")
    acc = Subspace.span([vectorize(ident)], d * d)
    reps: list[RatMatrix] = []
    for v in span.basis:
        if not acc.contains(v):
            reps.append(matrix_from_vec(v, d, d))
            acc = acc.add(Subspace.span([v], d * d))
    return reps


@dataclass(frozen=True)
class ClosureWitness:
    left_index: int
    right_index: int
    product: RatMatrix
    residual: RatMatrix


def algebra_closure_check(a: AlgebraBasis) -> tuple[bool, ClosureWitness | None]:
    """True iff every pairwise product of basis elements stays in the span;
    otherwise the offending pair and the component outside the span."""
    span = a.span_subspace()
    for i, row in enumerate(a.products):
        for j, p in enumerate(row):
            residual = span.reduce(vectorize(p))
            if not is_zero_vec(residual):
                return False, ClosureWitness(
                    i, j, p, matrix_from_vec(residual, a.ambient_dim, a.ambient_dim)
                )
    return True, None


@dataclass(frozen=True)
class Decomposition:
    """Radical/semisimple split data of a product-closed matrix algebra."""

    radical: AlgebraBasis
    quotient_dim: int
    quotient_commutative: bool
    idempotent_witnesses: tuple[RatMatrix, ...]


def _idempotent_witnesses(
    a: AlgebraBasis, max_witnesses: int = 6, max_candidates: int = 80
) -> tuple[RatMatrix, ...]:
    """Bounded search for idempotents e with e*e = e, e not in {0, I}.

    For each candidate element and each rational eigenvalue, the projection
    onto the generalized eigenspace is a polynomial in the element (by the
    coprime splitting of its minimal polynomial), hence lies in the algebra
    whenever the algebra is unital and closed; membership is re-checked.
    """
    d = a.ambient_dim
    ident = RatMatrix.identity(d)
    candidates = list(a.basis)
    for x, y in combinations(a.basis, 2):
        candidates.append(x + y)
    witnesses: list[RatMatrix] = []
    seen: set[RatMatrix] = set()
    span = a.span_subspace()
    for m in candidates[:max_candidates]:
        if len(witnesses) >= max_witnesses:
            break
        minp = minimal_polynomial(m)
        factors = factor_polynomial(minp)
        if len(factors) < 2:
            continue
        for f in factors:
            if f.poly.degree != 1:
                continue
            lam = -f.poly.coeffs[0]
            primary = Polynomial.x_minus(lam) ** f.multiplicity
            cofactor = minp.divmod(primary)[0]
            _, s, _ = poly_egcd(cofactor, primary)
            e = (s * cofactor).eval_matrix(m)
            if e.is_zero() or e == ident or e in seen:
                continue
            if not span.contains(vectorize(e)):
                continue
            if e * e != e:
                continue
            witnesses.append(e)
            seen.add(e)
            if len(witnesses) >= max_witnesses:
                break
    return tuple(witnesses)


def dickson_radical(a: AlgebraBasis, find_idempotents: bool = True) -> Decomposition:
    """Radical of a product-closed matrix algebra via the trace form.

    Over the rationals the kernel of (x, y) -> trace(xy) on the algebra is
    exactly its maximal nilpotent ideal. Every returned radical element is
    re-verified nilpotent; commutativity of the semisimple quotient is
    decided by testing commutators modulo the radical span.
    """
    ok, witness = algebra_closure_check(a)
    if not ok:
        raise ClosureError(
            f"basis pair ({witness.left_index}, {witness.right_index}) leaves the span"
        )
    k = a.dim
    if k == 0:
        return Decomposition(AlgebraBasis.from_span([], a.ambient_dim), 0, True, ())
    p = a.products
    ker = kernel_of(a.trace_form)
    rad_mats = []
    for coeffs in ker.basis:
        m = RatMatrix.zeros(a.ambient_dim, a.ambient_dim)
        for c, b in zip(coeffs, a.basis):
            if c:
                m = m + b.scale(c)
        rad_mats.append(m)
    radical = AlgebraBasis.from_span(rad_mats, a.ambient_dim)
    for r in radical.basis:
        if any(characteristic_polynomial(r).coeffs[:-1]):  # nilpotent iff char = x^n
            raise ClosureError("trace-form kernel contains a non-nilpotent element")
    rad_span = radical.span_subspace()
    quotient_commutative = all(
        rad_span.contains(vectorize(p[i][j] - p[j][i])) for i, j in combinations(range(k), 2)
    )
    witnesses = _idempotent_witnesses(a) if find_idempotents else ()
    return Decomposition(radical, k - radical.dim, quotient_commutative, witnesses)


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
    if minp.degree == 2:
        c0, c1, _ = minp.coeffs
        return c1 == 0 and c0 > 0
    if minp.degree == 3:
        c0, c1, c2, _ = minp.coeffs
        return c0 == 0 and c2 == 0 and c1 > 0
    return False


def verify_certificate(rep: Representation, cert: Certificate) -> bool:
    """Pure re-verification of a certificate against a representation."""
    mats = rep.matrices
    if isinstance(cert, InvariantFlagCertificate):
        return verify_flag_invariant(rep, cert.flag)[0]
    if isinstance(cert, InvariantSubspaceCertificate):
        s = cert.subspace
        return all(s.apply(g) == s for g in mats)
    if isinstance(cert, FixedProjectivePointCertificate):
        v = vector(cert.point)
        if is_zero_vec(v):
            return False
        for g in mats:
            if _rank_of_rows([v, g.apply(v)]) != 1:
                return False
        return True
    if isinstance(cert, RotationalElementCertificate):
        j = cert.element
        if not _is_rotational_minpoly(minimal_polynomial(j)):
            return False
        if image_of(j) != cert.rotation_space or kernel_of(j) != cert.fixed_space:
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


def _rank_of_rows(rows) -> int:
    _, pivots = rref([list(r) for r in rows])
    return len(pivots)


def find_rotational_element(
    a: AlgebraBasis, rep: Representation | None = None, bound: int = 2
) -> RotationalElementCertificate | None:
    """Bounded search for a rotational element of a product-closed algebra.

    Scans the basis, then integer combinations of basis pairs with
    coefficients in {-bound, ..., bound}, for an element whose minimal
    polynomial is x^2+c or x(x^2+c) with c > 0. The image/kernel splitting
    is re-verified invariant when a representation is supplied. Absence of
    a find never asserts that no rotational element exists.

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
        cert = RotationalElementCertificate(cand, image_of(cand), kernel_of(cand))
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


def _invariant_candidates(
    gens: Sequence[RatMatrix], sources: Sequence[RatMatrix], size: int, cap: int
) -> list[Subspace]:
    """Harvest kernels, images, and primary components of the sources, kept
    only when invariant under every generator."""
    seen: dict[Subspace, None] = {}

    def consider(s: Subspace):
        if not 0 < s.dim < size or s in seen or len(seen) >= cap:
            return
        if all(s.apply(g) == s for g in gens):
            seen[s] = None

    for m in sources:
        if m.is_scalar():
            continue
        consider(kernel_of(m))
        consider(image_of(m))
        for comp in primary_decomposition(m):
            consider(comp.subspace)
            evaluated = comp.factor.eval_matrix(m)
            consider(kernel_of(evaluated))
            consider(image_of(evaluated))
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


def invariant_flag_search(
    rep: Representation, cent: AlgebraBasis | None = None, cap: int = 48
) -> Flag | None:
    """Search for a chain of subspaces invariant under every generator.

    Strategy: harvest kernels, images, and primary components of commutant
    elements (and of the generators themselves), close once under pairwise
    intersections and sums, and take the longest containment chain. The
    returned flag is verified; absence of a find is not a nonexistence claim.
    cent is the centralizer of rep when the caller already holds it; it is
    computed here otherwise.
    """
    gens = list(rep.matrices)
    size = rep.matrix_size
    if cent is None:
        cent = matrix_centralizer(gens, size)
    sources = list(cent.basis) + gens
    cands = _invariant_candidates(gens, sources, size, cap)

    def finish(chain: list[Subspace]) -> Flag | None:
        if not chain:
            return None
        flag = Flag(tuple(chain))
        ok, _ = verify_flag_invariant(rep, flag)
        return flag if ok else None

    chain = _longest_chain(cands)
    if chain and Flag(tuple(chain)).complete:
        return finish(chain)
    extra: dict[Subspace, None] = {s: None for s in cands}
    for a, b in combinations(list(cands), 2):
        for s in (a.intersect(b), a.add(b)):
            if 0 < s.dim < size and s not in extra and len(extra) < 2 * cap:
                extra[s] = None
    chain = _longest_chain(list(extra))
    return finish(chain)


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


def truncated_derived_series(
    rep: Representation,
    commutator_depth: int = 8,
    word_length: int = 6,
    max_conjugators: int = 24,
    max_level: int = 32,
) -> DerivedSeriesReport:
    """Finite, sound-but-incomplete solvability probe.

    Level 0 is the generator set; each next level collects commutators of
    the previous level and of its conjugates by bounded words in the
    generators. If some level consists only of the identity the verdict is
    "yes" (solvable up to this truncation); otherwise "unknown". The probe
    never claims non-solvability.

    Each level's pool holds at most max_level matrices and at most
    max_level commutators are kept. Commutator entries of a generic group
    grow in bit size from level to level; once one has a numerator or
    denominator longer than _MAX_ENTRY_BITS the probe stops with "unknown"
    and stopped="entry_bits".
    """
    if commutator_depth < 1 or word_length < 1:
        raise ValueError("depth and word length must be >= 1")
    size = rep.matrix_size
    ident = RatMatrix.identity(size)
    gens = []
    for m in rep.matrices:
        if m != ident and m not in gens:
            gens.append(m)

    # Every matrix travels with its inverse, built from products: the
    # inverse of w g is g^-1 w^-1, of c s c^-1 is c s^-1 c^-1, and of the
    # commutator a b a^-1 b^-1 is b a b^-1 a^-1. Only the generators are
    # inverted by elimination, whose cost grows fastest with entry size.
    letters = [(g, g.inverse()) for g in gens]
    letters += [(gi, g) for g, gi in letters]
    conjugators = [ident]
    conjugator_invs = [ident]
    frontier = [(ident, ident)]
    for _ in range(word_length):
        new_frontier = []
        for w, wi in frontier:
            for g, gi in letters:
                nw = w * g
                if nw not in conjugators:
                    conjugators.append(nw)
                    conjugator_invs.append(gi * wi)
                    new_frontier.append((nw, conjugator_invs[-1]))
                    if len(conjugators) >= max_conjugators:
                        break
            if len(conjugators) >= max_conjugators:
                break
        frontier = new_frontier
        if not frontier or len(conjugators) >= max_conjugators:
            break

    def too_large(m: RatMatrix) -> bool:
        return any(
            x.numerator.bit_length() > _MAX_ENTRY_BITS or x.denominator.bit_length() > _MAX_ENTRY_BITS
            for row in m.rows
            for x in row
        )

    levels: list[DerivedLevel] = []
    current = letters[: len(gens)]
    verdict = "unknown"
    stopped = None
    for depth in range(1, commutator_depth + 1):
        pool: list[RatMatrix] = []
        pool_inv: list[RatMatrix] = []
        for s, si in current:
            if s not in pool and len(pool) < max_level:
                pool.append(s)
                pool_inv.append(si)
        for c, ci in zip(conjugators[1:], conjugator_invs[1:]):
            for s, si in current:
                if len(pool) >= max_level:
                    break
                m = c * s * ci
                if m not in pool:
                    pool.append(m)
                    pool_inv.append(c * si * ci)
        nxt: list[RatMatrix] = []
        nxt_inv: list[RatMatrix] = []
        for (a, ai), (b, bi) in combinations(zip(pool, pool_inv), 2):
            if len(nxt) >= max_level:
                break
            ab = a * b
            ba = b * a
            if ab == ba:
                continue
            comm = ab * ai * bi
            if comm != ident and comm not in nxt:
                if too_large(comm):
                    stopped = "entry_bits"
                    break
                nxt.append(comm)
                nxt_inv.append(ba * bi * ai)
        if stopped:
            break
        levels.append(DerivedLevel(depth, len(pool), len(nxt), not nxt))
        if not nxt:
            verdict = "yes"
            break
        current = list(zip(nxt, nxt_inv))
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
