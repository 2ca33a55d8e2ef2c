"""Shared test utilities: deterministic samplers and independent oracles.

The oracles here deliberately avoid the library's code paths: the dense
nullspace solver is a self-contained forward/back elimination, the
characteristic polynomial oracle expands det(xI - A) by the Leibniz
permutation sum, and the quotient-semisimplicity check uses the regular
representation's trace form instead of the matrix trace form. The
unscreened rotational walk is the rotational search as it was before the
trace screen, to check that the screen changes no result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

from holonomy.commutant import AlgebraBasis, Decomposition, RotationalElementCertificate, verify_certificate
from holonomy.linalg import RatMatrix, Subspace, image_of, kernel_of, vectorize
from holonomy.polys import Polynomial, minimal_polynomial

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def frac_rows(rows):
    return RatMatrix.from_rows(rows)


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


def brute_force_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Self-contained dense nullspace by forward elimination and back
    substitution; written independently of holonomy.linalg.rref."""
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


def charpoly_oracle(m: RatMatrix) -> Polynomial:
    """det(xI - A) by the Leibniz permutation expansion over Q[x]."""
    n = m.nrows
    x = Polynomial.x()
    entries = [
        [
            (x if i == j else Polynomial.zero()) - Polynomial.from_coeffs([m.rows[i][j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    total = Polynomial.zero()
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
        term = Polynomial.one()
        for i in range(n):
            term = term * entries[i][perm[i]]
        total = total + (term if sign == 1 else term.scale(-1))
    return total


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
    from holonomy.linalg import matrix_from_vec

    return [matrix_from_vec(v, size, size) for v in span.basis]


def quotient_regular_radical_dim(algebra: AlgebraBasis, decomp: Decomposition) -> int:
    """Dickson criterion re-applied to the quotient algebra through its left
    regular representation: returns the dimension of the trace-form kernel,
    which must be zero when the computed radical was the full radical.

    Coordinates are read off the pivot columns of the canonical basis, so no
    linear system is solved per product."""
    rad_span = decomp.radical.span_subspace()
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
    span = algebra.span_subspace()
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
