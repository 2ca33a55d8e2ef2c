"""Shared test utilities: deterministic samplers and independent oracles.

The oracles here deliberately avoid the library's code paths: the dense
nullspace solver is a self-contained forward/back elimination, the
characteristic polynomial oracle expands det(xI - A) by the Leibniz
permutation sum, and the quotient-semisimplicity check uses the regular
representation's trace form instead of the matrix trace form. The
unscreened rotational walk is the rotational search as it was before the
trace screen, the pair-loop probe is the derived-series probe as it was
before commuting levels were settled from a basis, the Fraction affine
fields are invariant_affine_fields as it was before it read its kernel off
the integer RREF, FractionPolynomial is the polynomial arithmetic (sums,
products, division, the extended gcd) that the library dropped when its
idempotent witnesses became Fitting projections, and `polynomial` builds
a library Polynomial from rational coefficients, the egcd witnesses are
the idempotent search as it was before that, the solve-based
restriction is the restriction to an invariant subspace that the
classifier read before it checked a scalar action on integer rows, the
equal-diagonal-block check is the one the classifier ran before it was
shown to always pass, and the primary-
decomposition harvest is the flag search's candidate harvest as it was
before it skipped the subspaces that it rejects, and the harvested flag
is the flag search's result as it was before a group of scalars got its
flag by construction, to check that no shortcut changes a result.
closed_under_products re-checks an algebra's closure pair by pair, with
Fraction arithmetic and coordinates read at the pivots, independently of
AlgebraBasis.from_span's check. assert_dim3_invariance is the
conjugation, rescaling and permutation check of acceptance criterion 5.
vectorize, matrix_from_vec and conjugate_representation are the tests'
own conversions and conjugation; no library path needs them.
reference_matmul and reference_eliminate are linalg's integer product and
elimination step as they were before each became a function compiled once
per width, as loops over zipped rows. linear_hensel_lift is the Hensel
lift of the factorization as it was before it doubled the modulus, one
power of p per step.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path
from typing import Sequence

from holonomy.classify import classify_dim3
from holonomy.commutant import (
    AlgebraBasis,
    Decomposition,
    DerivedLevel,
    DerivedSeriesReport,
    Flag,
    RotationalElementCertificate,
    _FLAG_CANDIDATE_CAP,
    _MAX_CANDIDATES,
    _MAX_WITNESSES,
    _commutation_rows,
    _invariant_candidates,
    _longest_chain,
    verify_certificate,
)
from holonomy.linalg import (
    RatMatrix,
    Subspace,
    image_of,
    kernel_of,
    solve_linear,
)
from holonomy.representation import (
    KIND_PROJECTIVE,
    AffineField,
    Generator,
    Representation,
    canonicalize_projective_class,
    validate_rep,
)
from holonomy.polys import (
    Polynomial,
    _add,
    _divmod_p,
    _inverse_p,
    _mod,
    _mul,
    factor_polynomial,
    minimal_polynomial,
    primary_decomposition,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

INVARIANCE_SCALES = [Fraction(2), Fraction(-1), Fraction(3), Fraction(1, 2), Fraction(-5, 3)]


def frac_rows(rows):
    return RatMatrix.from_rows(rows)


def reference_matmul(a, b) -> list[list[int]]:
    """Product of two integer matrices given as rows, one sum of zipped
    products per entry."""
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def reference_eliminate(v, top, col: int) -> tuple[int, list[int]]:
    """(a, a*v - b*top) with a/b = top[col]/v[col] in lowest terms, row by
    zipped row."""
    p, f = top[col], v[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    return a, [a * x - b * y for x, y in zip(v, top)]


def linear_hensel_lift(f: list[int], g: list[int], h: list[int], p: int, k: int) -> tuple[list[int], list[int]]:
    """G, H with f = G H mod p^k and G monic, lifted one power of p per step
    from f = g h mod p with g monic and g, h coprime mod p."""
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


def vectorize(m: RatMatrix) -> tuple[Fraction, ...]:
    """Row-major flattening."""
    return tuple(x for row in m.rows for x in row)


def matrix_from_vec(v: Sequence[Fraction], nrows: int, ncols: int) -> RatMatrix:
    if len(v) != nrows * ncols:
        raise ValueError("vector length does not match shape")
    return RatMatrix.from_rows(v[i * ncols : (i + 1) * ncols] for i in range(nrows))


def conjugate_representation(rep: Representation, p: RatMatrix) -> Representation:
    """Replace every generator g by p g p^-1 (re-canonicalizing classes)."""
    pinv = p.inverse()
    gens = []
    for g in rep.generators:
        m = p * g.matrix * pinv
        if rep.kind == KIND_PROJECTIVE:
            m = canonicalize_projective_class(m)
        gens.append(Generator(g.label, m))
    return replace(rep, generators=tuple(gens))


def random_int_matrix(rng, n, lo=-3, hi=3) -> RatMatrix:
    return RatMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    )


def random_invertible(rng, n, lo=-3, hi=3) -> RatMatrix:
    while True:
        m = random_int_matrix(rng, n, lo, hi)
        if m.det() != 0:
            return m


def random_unimodular(rng, n, ops=8) -> RatMatrix:
    """Product of elementary row additions and swaps: small integer entries,
    determinant +-1, exactly invertible."""
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(ops):
        if rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                m[i][k] += c * m[j][k]
    return RatMatrix.from_rows(m)


def assert_dim3_invariance(rep, rng, name: str, trials: int = 20) -> None:
    """classify_dim3 keeps (branch, conclusion) on `trials` unimodular
    conjugates of rep, then on `trials` rescalings of one random generator,
    then on `trials` random permutations of the generators."""
    base = classify_dim3(rep)
    label = (base.branch, base.conclusion)
    for _ in range(trials):
        conj = conjugate_representation(rep, random_unimodular(rng, 4))
        out = classify_dim3(conj)
        assert (out.branch, out.conclusion) == label, f"conjugation changed {name}"
    for _ in range(trials):
        if rep.generators:
            idx = rng.randrange(len(rep.generators))
            gens = [
                (g.label, g.matrix.scale(rng.choice(INVARIANCE_SCALES)) if i == idx else g.matrix)
                for i, g in enumerate(rep.generators)
            ]
        else:
            gens = []
        scaled = validate_rep(gens, "projective-class", 3, rep.assumptions)
        out = classify_dim3(scaled)
        assert (out.branch, out.conclusion) == label, f"rescaling changed {name}"
    for _ in range(trials):
        gens = [(g.label, g.matrix) for g in rep.generators]
        rng.shuffle(gens)
        permuted = validate_rep(gens, "projective-class", 3, rep.assumptions)
        out = classify_dim3(permuted)
        assert (out.branch, out.conclusion) == label, f"permutation changed {name}"


def fraction_rref(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], dict[int, int]]:
    """Plain Fraction Gauss-Jordan, written independently of
    holonomy.linalg.rref: (RREF rows, pivot column -> its row)."""
    work = [list(map(Fraction, r)) for r in rows]
    nrows = len(work)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = Fraction(1) / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivot_of_col[c] = r
        r += 1
    return work, pivot_of_col


def brute_force_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Self-contained dense nullspace by forward elimination and back
    substitution on fraction_rref."""
    work, pivot_of_col = fraction_rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivot_of_col]
    basis = []
    for f in free_cols:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for c, pr in pivot_of_col.items():
            v[c] = -work[pr][f]
        basis.append(v)
    return basis


def centralizer_oracle(mats: list[RatMatrix], size: int) -> Subspace:
    """Independent centralizer computation: constraint columns are built by
    multiplying matrix units through the generators, and the nullspace comes
    from the standalone eliminator above. Returns the canonical span."""
    units = []
    for i in range(size):
        for j in range(size):
            rows = [[Fraction(0)] * size for _ in range(size)]
            rows[i][j] = Fraction(1)
            units.append(RatMatrix.from_rows(rows))
    constraint_rows: list[list[Fraction]] = []
    for g in mats:
        columns = [vectorize(u * g - g * u) for u in units]
        for entry in range(size * size):
            constraint_rows.append([col[entry] for col in columns])
    if not constraint_rows:
        basis = [vectorize(u) for u in units]
    else:
        basis = brute_force_nullspace(constraint_rows, size * size)
    return Subspace.span(basis, size * size)


def polynomial(coeffs) -> Polynomial:
    """The library Polynomial with the given coefficients (ints, Fractions or
    'p/q' strings), lowest degree first, over their common denominator."""
    cs = [Fraction(c) for c in coeffs]
    den = lcm(*[c.denominator for c in cs])
    return Polynomial.from_integer_form([c.numerator * (den // c.denominator) for c in cs], den)


class FractionPolynomial:
    """Plain Fraction coefficients, lowest degree first, no trailing zeros."""

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def monic(self) -> "FractionPolynomial":
        return FractionPolynomial([c / self.coeffs[-1] for c in self.coeffs]) if self.coeffs else self

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        pad = lambda cs: list(cs) + [Fraction(0)] * (n - len(cs))
        return FractionPolynomial([a + b for a, b in zip(pad(self.coeffs), pad(other.coeffs))])

    def scale(self, c) -> "FractionPolynomial":
        return FractionPolynomial([c * a for a in self.coeffs])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def divmod(self, other):
        rem = list(self.coeffs)
        d = other.degree
        quot = [Fraction(0)] * max(0, len(rem) - d)
        while rem and len(rem) - 1 >= d:
            f = rem[-1] / other.coeffs[-1]
            pos = len(rem) - 1 - d
            quot[pos] = f
            for i, c in enumerate(other.coeffs):
                rem[pos + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return FractionPolynomial(quot), FractionPolynomial(rem)

    def egcd(self, other):
        """g, s, t with s*self + t*other = g and g monic (or zero)."""
        r0, r1 = self, other
        s0, s1 = FractionPolynomial([1]), FractionPolynomial([])
        t0, t1 = FractionPolynomial([]), FractionPolynomial([1])
        while not r1.is_zero:
            q, r = r0.divmod(r1)
            r0, r1, s0, s1, t0, t1 = r1, r, s1, s0 - q * s1, t1, t0 - q * t1
        if r0.is_zero:
            return r0, s0, t0
        inv = 1 / r0.coeffs[-1]
        return r0.monic(), s0.scale(inv), t0.scale(inv)

    def eval_matrix(self, rows) -> list[list[Fraction]]:
        """p(m) by Horner's rule on the Fraction rows of m."""
        n = len(rows)
        acc = [[Fraction(0)] * n for _ in range(n)]
        for c in reversed(self.coeffs):
            acc = [[sum((a * rows[k][j] for k, a in enumerate(r)), Fraction(0)) for j in range(n)] for r in acc]
            for i in range(n):
                acc[i][i] += c
        return acc


def egcd_idempotent_witnesses(a: AlgebraBasis) -> tuple[RatMatrix, ...]:
    """The idempotent search as it was before its witnesses became Fitting
    projections: the same candidate walk, dedupe and membership test, with
    each witness e = (s * cofactor)(m) built in FractionPolynomial, where
    primary = f^k for a linear factor f of multiplicity k of the minimal
    polynomial, cofactor = minp / primary and s * cofactor + t * primary = 1."""
    sums = (x + y for x, y in itertools.combinations(a.basis, 2))
    witnesses: list[RatMatrix] = []
    for m in itertools.islice(itertools.chain(a.basis, sums), _MAX_CANDIDATES):
        if len(witnesses) >= _MAX_WITNESSES:
            break
        minp = minimal_polynomial(m)
        factors = factor_polynomial(minp)
        if len(factors) < 2:
            continue
        for f in factors:
            if f.poly.degree != 1:
                continue
            primary = FractionPolynomial([1])
            for _ in range(f.multiplicity):
                primary = primary * FractionPolynomial(f.poly.coeffs)
            cofactor = FractionPolynomial(minp.coeffs).divmod(primary)[0]
            _, s, _ = cofactor.egcd(primary)
            e = RatMatrix.from_rows((s * cofactor).eval_matrix([list(r) for r in m.rows]))
            if e in witnesses or not a.contains(e):
                continue
            witnesses.append(e)
            if len(witnesses) >= _MAX_WITNESSES:
                break
    return tuple(witnesses)


def charpoly_oracle(m: RatMatrix) -> Polynomial:
    """det(xI - A) by the Leibniz permutation expansion over Q[x], in
    FractionPolynomial arithmetic."""
    n = m.nrows
    x = FractionPolynomial([0, 1])
    entries = [
        [(x if i == j else FractionPolynomial([])) - FractionPolynomial([m.rows[i][j]]) for j in range(n)]
        for i in range(n)
    ]
    total = FractionPolynomial([])
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            k = start
            while not seen[k]:
                seen[k] = True
                k = perm[k]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = FractionPolynomial([1])
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (term if sign == 1 else term.scale(-1))
    return polynomial(total.coeffs)


def algebra_closure_of(mats: list[RatMatrix], size: int, include_identity: bool) -> AlgebraBasis:
    """Smallest product-closed span containing the given matrices."""
    seed = list(mats) + ([RatMatrix.identity(size)] if include_identity else [])
    span = Subspace.span([vectorize(m) for m in seed], size * size)
    while span.dim < size * size:
        basis = [m for m in _unvec_all(span, size)]
        new = []
        for a in basis:
            for b in basis:
                v = vectorize(a * b)
                if not span.contains(v):
                    new.append(v)
        if not new:
            break
        span = Subspace.span(list(span.basis) + new, size * size)
    return AlgebraBasis.from_span(_unvec_all(span, size), size)


def _unvec_all(span: Subspace, size: int):
    return [matrix_from_vec(v, size, size) for v in span.basis]


def quotient_regular_radical_dim(algebra: AlgebraBasis, decomp: Decomposition) -> int:
    """Dickson criterion re-applied to the quotient algebra through its left
    regular representation: returns the dimension of the trace-form kernel,
    which must be zero when the computed radical was the full radical.

    Coordinates are read off the pivot columns of the canonical basis, so no
    linear system is solved per product."""
    rad_span = decomp.radical.span
    reps = []
    acc = rad_span
    d2 = algebra.ambient_dim**2
    for b in algebra.basis:
        v = vectorize(b)
        if not acc.contains(v):
            reps.append(b)
            acc = acc.add(Subspace.span([v], d2))
    q = len(reps)
    assert q == decomp.quotient_dim
    if q == 0:
        return 0
    span = algebra.span
    pivots = [next(i for i, x in enumerate(row) if x != 0) for row in span.basis]

    def canonical_coords(x: RatMatrix):
        v = vectorize(x)
        return tuple(v[p] for p in pivots)

    # change of basis: canonical coordinates of (reps | radical basis)
    change = RatMatrix.from_rows(
        [canonical_coords(m) for m in list(reps) + list(decomp.radical.basis)]
    ).transpose()
    change_inv = change.inverse()

    def quotient_coords(x: RatMatrix):
        return change_inv.apply(canonical_coords(x))[:q]

    left_mults = []
    for r in reps:
        columns = [quotient_coords(r * s) for s in reps]
        left_mults.append(RatMatrix.from_rows(columns).transpose())

    def trace_of_product(a: RatMatrix, b: RatMatrix) -> Fraction:
        return sum(
            (a.rows[i][j] * b.rows[j][i] for i in range(q) for j in range(q)),
            Fraction(0),
        )

    gram = RatMatrix.from_rows(
        [[trace_of_product(a, b) for b in left_mults] for a in left_mults]
    )
    return kernel_of(gram).dim


def rotational_candidates(a: AlgebraBasis, bound: int):
    """The rotational search's walk: each basis element, then cx * b_i +
    cy * b_j over basis pairs i < j and coefficient pairs in walk order."""
    yield from a.basis
    coeff_pairs = [
        (x, y)
        for x in range(0, bound + 1)
        for y in range(-bound, bound + 1)
        if (x, y) != (0, 0) and (x > 0 or y > 0)
    ]
    for i, j in itertools.combinations(range(a.dim), 2):
        for cx, cy in coeff_pairs:
            yield a.basis[i].scale(cx) + a.basis[j].scale(cy)


def passes_trace_screen(m: RatMatrix) -> bool:
    """tr(m) = 0 and tr(m^2) < 0, summed entry by entry in Fractions."""
    n = m.nrows
    rows = m.rows
    trace = sum((rows[i][i] for i in range(n)), Fraction(0))
    trace_sq = sum((rows[i][k] * rows[k][i] for i in range(n) for k in range(n)), Fraction(0))
    return trace == 0 and trace_sq < 0


def unscreened_rotational_element(a: AlgebraBasis, rep=None, bound: int = 2):
    """Reference rotational search without the trace screen: every nonzero
    candidate gets a minimal polynomial, and the first one that is x^2 + c
    or x(x^2 + c) with c > 0 and verifies against rep is returned."""
    for cand in rotational_candidates(a, bound):
        if cand.is_zero():
            continue
        p = minimal_polynomial(cand).coeffs
        if not (len(p) == 3 and p[1] == 0 and p[0] > 0) and not (
            len(p) == 4 and p[0] == 0 and p[2] == 0 and p[1] > 0
        ):
            continue
        cert = RotationalElementCertificate(cand, image_of(cand), kernel_of(cand))
        if rep is None or verify_certificate(rep, cert):
            return cert
    return None


def pair_loop_derived_series(
    rep, commutator_depth=8, word_length=6, max_conjugators=24, max_level=32, max_entry_bits=256
) -> DerivedSeriesReport:
    """Reference derived-series probe: every level, commuting or not, is
    settled by forming the commutator of each pair of its pool. Pool order
    and caps are those of truncated_derived_series, but every matrix is
    built whole, c s c^-1 as two products, and with its inverse as soon as
    it is made; the entry-size check reads the reduced Fraction entries."""
    size = rep.matrix_size
    ident = RatMatrix.identity(size)
    gens = []
    for m in rep.matrices:
        if m != ident and m not in gens:
            gens.append(m)
    letters = [(g, g.inverse()) for g in gens]
    letters += [(gi, g) for g, gi in letters]
    conjugators = {ident: ident}
    frontier = [(ident, ident)]
    for _ in range(word_length):
        new_frontier = []
        for w, wi in frontier:
            for g, gi in letters:
                nw = w * g
                if nw not in conjugators:
                    conjugators[nw] = gi * wi
                    new_frontier.append((nw, conjugators[nw]))
                    if len(conjugators) >= max_conjugators:
                        break
            if len(conjugators) >= max_conjugators:
                break
        frontier = new_frontier
        if not frontier or len(conjugators) >= max_conjugators:
            break

    def too_large(m):
        return any(
            max(x.numerator.bit_length(), x.denominator.bit_length()) > max_entry_bits
            for row in m.rows
            for x in row
        )

    levels = []
    current = letters[: len(gens)]
    verdict, stopped = "unknown", None
    for depth in range(1, commutator_depth + 1):
        pool = {}
        for s, si in current:
            if s not in pool and len(pool) < max_level:
                pool[s] = si
        for c, ci in list(conjugators.items())[1:]:
            for s, si in current:
                if len(pool) >= max_level:
                    break
                m = c * s * ci
                if m not in pool:
                    pool[m] = c * si * ci
        nxt = {}
        for (a, ai), (b, bi) in itertools.combinations(pool.items(), 2):
            if len(nxt) >= max_level:
                break
            ab, ba = a * b, b * a
            if ab == ba:
                continue
            comm = ab * ai * bi
            if comm not in nxt:
                if too_large(comm):
                    stopped = "entry_bits"
                    break
                nxt[comm] = ba * bi * ai
        if stopped:
            break
        levels.append(DerivedLevel(depth, len(pool), len(nxt), not nxt))
        if not nxt:
            verdict = "yes"
            break
        current = list(nxt.items())
    return DerivedSeriesReport(tuple(levels), verdict, commutator_depth, word_length, stopped)


def fraction_affine_fields(rep) -> list[AffineField]:
    """Reference invariant_affine_fields: the kernel of the commutation
    system with the last field row forced to zero, through kernel_of, and
    each field built from the kernel's Fraction basis vector."""
    size = rep.dimension + 1
    rows = _commutation_rows(rep.matrices, size)
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


def solve_restrict_to_subspace(m: RatMatrix, s: Subspace) -> RatMatrix:
    """The matrix of m restricted to the m-invariant subspace s in its
    canonical basis, by one linear solve per basis vector of s."""
    cols = []
    basis_matrix = RatMatrix.from_rows(s.basis).transpose()
    for b in s.basis:
        res = solve_linear(basis_matrix, m.apply(b))
        if res is None:
            raise ValueError("subspace is not invariant under the matrix")
        cols.append(res[0])
    return RatMatrix.from_rows(cols).transpose()


def equal_diagonal_blocks(xt: RatMatrix, u: Subspace, mats) -> bool:
    """In a basis (u1, u2, w1, w2) with xt(wi) = ui, check that every matrix
    of mats is block upper triangular with equal diagonal blocks."""
    cols = list(u.basis)
    for b in u.basis:
        res = solve_linear(xt, b)
        if res is None:
            return False
        cols.append(res[0])
    p = RatMatrix.from_rows(cols).transpose()
    if p.det() == 0:
        return False
    pinv = p.inverse()
    for g in mats:
        h = pinv * g * p
        for i in range(2, 4):
            for j in range(2):
                if h.rows[i][j] != 0:
                    return False
        if any(h.rows[i][j] != h.rows[i + 2][j + 2] for i in range(2) for j in range(2)):
            return False
    return True


def primary_decomposition_harvest(gens, cent, size: int, cap: int) -> list[Subspace]:
    """Reference candidate harvest of the flag search: for each non-scalar
    element m of cent, then each generator, and each component f^k of
    primary_decomposition(m), Ker f(m) and Im f(m), then Ker f(m)^j for
    every j = 2..k, with f(m)^j formed afresh by matrix products and no
    early stop; the last kernel must be the component. Every subspace is
    formed and offered; proper nonzero ones not seen before are kept while
    fewer than cap are, those of a generator only when every generator maps
    them onto themselves."""
    seen: dict[Subspace, None] = {}

    def consider(s: Subspace, check: bool):
        if not 0 < s.dim < size or s in seen or len(seen) >= cap:
            return
        if not check or all(s.apply(g) == s for g in gens):
            seen[s] = None

    for m, check in [(m, False) for m in cent] + [(g, True) for g in gens]:
        if m.is_scalar():
            continue
        for comp in primary_decomposition(m):
            fm = comp.factor.eval_matrix(m)
            consider(kernel_of(fm), check)
            consider(image_of(fm), check)
            power = fm
            for _ in range(comp.multiplicity - 1):
                power = power * fm
                consider(kernel_of(power), check)
            if kernel_of(power) != comp.subspace:
                raise AssertionError("the kernel chain does not end at the primary component")
    return list(seen)


def harvested_flag(gens, cent, size: int) -> Flag | None:
    """The flag search on any generators, scalar ones included: the longest
    chain of the harvest (_invariant_candidates) when it is complete, else
    the longest chain once the harvest is closed under pairwise sums and
    intersections, up to twice the candidate cap."""
    cands = _invariant_candidates(gens, cent, size)
    chain = _longest_chain(cands)
    if chain and len(chain) == size - 1:
        return Flag(tuple(chain))
    extra = dict.fromkeys(cands)
    for a, b in itertools.combinations(cands, 2):
        for s in (a.intersect(b), a.add(b)):
            if 0 < s.dim < size and s not in extra and len(extra) < 2 * _FLAG_CANDIDATE_CAP:
                extra[s] = None
    chain = _longest_chain(list(extra))
    return Flag(tuple(chain)) if chain else None


def closed_under_products(a: AlgebraBasis) -> bool:
    """True iff the product of every ordered pair of basis elements of a lies
    in its span. The span's basis is its reduced echelon form, so a vector
    of the span is the combination of the basis rows with its own entries at
    the pivot columns as coefficients; each product, formed entry by entry
    in Fractions, must vanish once that combination is subtracted."""
    n = a.ambient_dim
    rows = [list(r) for r in a.span.basis]
    pivots = [next(i for i, x in enumerate(r) if x) for r in rows]
    if any(rows[j][p] != (i == j) for i, p in enumerate(pivots) for j in range(len(rows))):
        raise AssertionError("the span's basis is not in reduced echelon form")
    mats = [[r[i * n : (i + 1) * n] for i in range(n)] for r in rows]
    for x in mats:
        for y in mats:
            v = [0] * (n * n)
            for i, l in itertools.product(range(n), repeat=2):
                if x[i][l]:
                    for j in range(n):
                        v[i * n + j] += x[i][l] * y[l][j]
            for p, r in zip(pivots, rows):
                c = v[p]
                if c:
                    v = [s - c * t for s, t in zip(v, r)]
            if any(v):
                return False
    return True
