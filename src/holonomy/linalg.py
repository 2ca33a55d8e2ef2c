"""Exact linear algebra over the rationals.

Dense matrices of `fractions.Fraction` entries, reduced row echelon form,
kernels, images, linear solving, and canonical subspaces. Everything is
computed without tolerances so that dimension counts downstream are exact.
All values are immutable and safe to share between threads.

The kernels run on integer rows: a matrix is multiplied through its integer
numerators over one common denominator, and elimination is fraction-free
(integer cross-multiplication with gcd content removal, Bareiss 1968 for the
determinant), so `Fraction` objects are built only for the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
# One shared object per small integer: kernel results are mostly small
# integers, and building a new Fraction costs far more than a dict lookup.
_SMALL_INTS = {i: Fraction(i) for i in range(-256, 257)}


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction; reject floats."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("boolean is not a rational entry")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def vector(entries: Iterable) -> Vec:
    return tuple([x if type(x) is Fraction else to_fraction(x) for x in entries])


def _int_fractions(row: Iterable[int]) -> Vec:
    try:
        return tuple(map(_SMALL_INTS.__getitem__, row))
    except KeyError:
        return tuple([Fraction(x) for x in row])


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Fraction, v: Vec) -> Vec:
    return tuple(c * a for a in v)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def _integer_row(row: Sequence) -> tuple[list[int], int]:
    """(numerators, d) with row == numerators / d, d the lcm of the denominators."""
    den = lcm(*[x.denominator for x in row])
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // x.denominator) for x in row], den


def primitive_part(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def eliminate(v: list[int], top: Sequence[int], col: int) -> tuple[int, list[int]]:
    """Clear column col of the integer row v (v[col] != 0) against top by
    integer cross-multiplication: (a, a*v - b*top) with a/b = top[col]/v[col]
    in lowest terms."""
    p, f = top[col], v[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    return a, [a * x - b * y for x, y in zip(v, top)]


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(int.__mul__, u, v))


def integer_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two integer matrices given as rows."""
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix, stored as a tuple of row tuples."""

    rows: tuple[Vec, ...]

    def __post_init__(self):
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "RatMatrix":
        return RatMatrix(tuple(vector(r) for r in rows))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(tuple(unit_vec(n, i) for i in range(n)))

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix(tuple(zero_vec(ncols) for _ in range(nrows)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @cached_property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(N, d) with self == N / d: integer numerators over the lcm d of all
        entry denominators. Computed once per matrix; it is not a field, so it
        takes no part in == or hash."""
        flat, den = _integer_row([x for r in self.rows for x in r])
        n = self.ncols
        return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(self.nrows)), den

    @staticmethod
    def from_integer_form(num: Sequence[Sequence[int]], den: int) -> "RatMatrix":
        """The matrix num / den (den > 0), with its integer form already cached."""
        g = gcd(den, *[x for r in num for x in r])
        if g > 1:
            num = [[x // g for x in r] for r in num]
            den //= g
        num = tuple(tuple(r) for r in num)
        if den == 1:
            rows = tuple(_int_fractions(r) for r in num)
        else:
            rows = tuple(tuple(Fraction(x, den) if x else ZERO for x in r) for r in num)
        out = RatMatrix(rows)
        out.__dict__["integer_form"] = (num, den)
        return out

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.rows, strict=True))) if self.rows else self

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        """self + sign * other, on the integer forms."""
        a, da = self.integer_form
        b, db = other.integer_form
        den = lcm(da, db)
        fa, fb = den // da, sign * (den // db)
        return RatMatrix.from_integer_form(
            [[fa * x + fb * y for x, y in zip(r, s, strict=True)] for r, s in zip(a, b, strict=True)], den
        )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self._combine(other, -1)

    def __neg__(self) -> "RatMatrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "RatMatrix":
        c = to_fraction(c)
        a, da = self.integer_form
        p = c.numerator
        return RatMatrix.from_integer_form([[p * x for x in r] for r in a], da * c.denominator)

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        a, da = self.integer_form
        b, db = other.integer_form
        return RatMatrix.from_integer_form(integer_matmul(a, b), da * db)

    def __pow__(self, k: int) -> "RatMatrix":
        if not self.is_square or k < 0:
            raise ValueError("power needs a square matrix and k >= 0")
        out = RatMatrix.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch in matrix-vector product")
        a, da = self.integer_form
        w, dw = _integer_row(v)
        den = da * dw
        return tuple(Fraction(_dot(row, w), den) for row in a)

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        num, den = self.integer_form
        return Fraction(sum(num[i][i] for i in range(self.nrows)), den)

    def det(self) -> Fraction:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        # Bareiss elimination on the integer form: after step c every entry
        # is a minor of N, and the division by the previous pivot is exact.
        num, den = self.integer_form
        n = self.nrows
        m = [list(r) for r in num]
        sign, prev = 1, 1
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c]), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                sign = -sign
            top = m[c]
            p = top[c]
            for i in range(c + 1, n):
                f = m[i][c]
                row = m[i]
                row[c + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[c + 1 :], top[c + 1 :])]
            prev = p
        return Fraction(sign * prev, den**n)

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        aug = [list(self.rows[i]) + list(unit_vec(n, i)) for i in range(n)]
        reduced, pivots = rref(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix.from_rows(row[n:] for row in reduced)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.rows)

    def is_identity(self) -> bool:
        return self.is_square and self == RatMatrix.identity(self.nrows)

    def is_scalar(self) -> bool:
        return self.is_square and self == RatMatrix.identity(self.nrows).scale(self.rows[0][0] if self.rows else 0)

    def __str__(self) -> str:
        return "\n".join("[" + " ".join(str(x) for x in r) + "]" for r in self.rows)


def vectorize(m: RatMatrix) -> Vec:
    """Row-major flattening."""
    return tuple(x for row in m.rows for x in row)


def matrix_from_vec(v: Sequence[Fraction], nrows: int, ncols: int) -> RatMatrix:
    if len(v) != nrows * ncols:
        raise ValueError("vector length does not match shape")
    return RatMatrix(tuple(tuple(v[i * ncols : (i + 1) * ncols]) for i in range(nrows)))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (rows, pivot column indices).

    Fraction-free Gauss-Jordan: each row is cleared of denominators, rows
    are combined by integer cross-multiplication and divided by their gcd
    content, and each pivot row is divided by its pivot only at the end.
    """
    m = [primitive_part(_integer_row(r)[0]) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        for i in range(nrows):
            if m[i][c] and i != r:
                m[i] = primitive_part(eliminate(m[i], top, c)[1])
        pivots.append(c)
        r += 1
    out = []
    for row, c in zip(m, pivots):
        p = row[c]
        out.append([Fraction(x, p) if x else ZERO for x in row])
    out.extend([ZERO] * ncols for _ in range(nrows - r))
    return out, pivots


@dataclass(frozen=True)
class Subspace:
    """Rational subspace in canonical form.

    The basis is the set of nonzero rows of the RREF of any spanning set,
    so two subspaces are equal as data exactly when they are equal as spans.
    """

    ambient_dim: int
    basis: tuple[Vec, ...]

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = [vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector does not match ambient dimension")
        if not vecs:
            return Subspace(ambient_dim, ())
        reduced, pivots = rref(vecs)
        return Subspace(ambient_dim, tuple(tuple(reduced[i]) for i in range(len(pivots))))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.span([unit_vec(ambient_dim, i) for i in range(ambient_dim)], ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _integer_basis(self) -> tuple[tuple[int, list[int]], ...]:
        """(pivot column, basis row cleared of denominators) for each basis row."""
        out = []
        for row in self.basis:
            ints = _integer_row(row)[0]
            out.append((next(i for i, x in enumerate(ints) if x), ints))
        return tuple(out)

    def _residual(self, v: Sequence) -> tuple[list[int], int]:
        """(numerators, d) of the residual of v along the canonical basis."""
        w, den = _integer_row(vector(v))
        if len(w) != self.ambient_dim:
            raise ValueError("vector does not match ambient dimension")
        for piv, row in self._integer_basis:
            if w[piv]:
                a, w = eliminate(w, row, piv)
                den *= a
                g = gcd(den, *w)
                if g > 1:
                    w = [x // g for x in w]
                    den //= g
        return w, den

    def reduce(self, v: Sequence) -> Vec:
        """Residual of v after eliminating along the canonical basis."""
        w, den = self._residual(v)
        return tuple(Fraction(x, den) if x else ZERO for x in w)

    def contains(self, v: Sequence) -> bool:
        return not any(self._residual(v)[0])

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(b) for b in self.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.basis + other.basis, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # Kernel of [A | -B] with basis vectors as columns: a kernel element
        # (x, y) encodes the intersection vector sum_i x_i a_i.
        cols = [list(b) for b in self.basis] + [[-x for x in b] for b in other.basis]
        stacked = RatMatrix.from_rows(cols).transpose()
        _, _, ker, _ = rref_kernel_image(stacked)
        vecs = []
        for coeffs in ker.basis:
            v = zero_vec(self.ambient_dim)
            for c, b in zip(coeffs[: self.dim], self.basis):
                v = vec_add(v, vec_scale(c, b))
            vecs.append(v)
        return Subspace.span(vecs, self.ambient_dim)

    def apply(self, m: RatMatrix) -> "Subspace":
        """Image of this subspace under m."""
        if m.ncols != self.ambient_dim:
            raise ValueError("shape mismatch")
        return Subspace.span([m.apply(b) for b in self.basis], m.nrows)


def rref_kernel_image(m: RatMatrix) -> tuple[RatMatrix, int, Subspace, Subspace]:
    """RREF, rank, kernel, and column-space image, all canonical.

    rank + dim(kernel) = ncols; the image is spanned by the pivot columns
    of the original matrix.
    """
    reduced, pivots = rref(m.rows)
    kernel = _nullspace(reduced, pivots, m.ncols)
    image = Subspace.span([m.col(p) for p in pivots], m.nrows)
    return RatMatrix.from_rows(reduced), len(pivots), kernel, image


def _nullspace(reduced: Sequence[Sequence[Fraction]], pivots: Sequence[int], ncols: int) -> Subspace:
    """Kernel of a matrix whose RREF occupies the first ncols columns of
    reduced, with the given pivot columns: one vector per free column."""
    kernel_vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [ZERO] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        kernel_vecs.append(v)
    return Subspace.span(kernel_vecs, ncols)


def kernel_of(m: RatMatrix) -> Subspace:
    return rref_kernel_image(m)[2]


def image_of(m: RatMatrix) -> Subspace:
    """Column space: the row space of the transpose."""
    return Subspace.span(m.transpose().rows, m.nrows)


def solve_linear(a: RatMatrix, b: Sequence) -> tuple[Vec, Subspace] | None:
    """Solve a x = b exactly.

    Returns (particular solution, nullspace) with free variables set to 0,
    or None when the system is inconsistent. Raises on shape mismatch.
    One RREF of [a | b] gives both: when no pivot lies in the last column,
    its left block is the RREF of a.
    """
    bv = vector(b)
    if len(bv) != a.nrows:
        raise ValueError("right-hand side does not match row count")
    aug = [list(row) + [bv[i]] for i, row in enumerate(a.rows)]
    reduced, pivots = rref(aug)
    if a.ncols in pivots:
        return None
    sol = [ZERO] * a.ncols
    for i, p in enumerate(pivots):
        sol[p] = reduced[i][a.ncols]
    return tuple(sol), _nullspace(reduced, pivots, a.ncols)


def restrict_to_subspace(m: RatMatrix, s: Subspace) -> RatMatrix:
    """Matrix of m restricted to an m-invariant subspace, in its canonical basis."""
    cols = []
    basis_matrix = RatMatrix.from_rows(s.basis).transpose()
    for b in s.basis:
        res = solve_linear(basis_matrix, m.apply(b))
        if res is None:
            raise ValueError("subspace is not invariant under the matrix")
        cols.append(res[0])
    return RatMatrix.from_rows(cols).transpose()
