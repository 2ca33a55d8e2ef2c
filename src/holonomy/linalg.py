"""Exact linear algebra over the rationals.

Dense rational matrices, reduced row echelon form, kernels, images, linear
solving, and canonical subspaces. Everything is computed without tolerances
so that dimension counts downstream are exact. All values are immutable and
safe to share between threads.

A matrix is stored as its normalized integer form N / d: integer numerator
rows N and a denominator d > 0 with gcd(d, content(N)) = 1. The form is
unique, so == and hash compare integers. Products, sums and traces work on
N and d, and elimination is fraction-free (integer cross-multiplication with
gcd content removal, Bareiss 1968 for the determinant) and returns integer
rows. A subspace is stored the same way: its RREF rows, each scaled to a
primitive integer row with a positive pivot entry. `RatMatrix.rows` and
`Subspace.basis` are the public `Fraction` views, built on first use;
vectors are `Fraction`s.

The inner loops run as functions compiled from generated source on first
use and cached, as `dataclasses` builds its methods: rows are unpacked into
locals and every entry is one written-out expression, so the interpreter
does no per-entry call, zip or iteration; entries are mostly small, so that
bookkeeping would otherwise take more time than the integer arithmetic.
RatMatrix.matmul, the product of two operators on Q^n with n <= 8, runs one
function per shape k x m of its right factor (_shape_kernel): it unpacks
that factor into k * m locals once per call and returns the rows as the
tuples RatMatrix stores. The integer product integer_matmul and the
elimination step eliminate run one function per width k (_product_kernel,
_combination_kernel). Their callers combine kernel vectors with wide bases,
shapes such as dim x n^2, where a kernel per shape would cost more to
compile than it saves: 15 ms at 36 x 36 and 77 ms at 64 x 64, against
0.48 ms and 0.69 ms for the width kernels of k = 36 and 64. Only the
shape enters the source. A product entry's k terms are summed in
parenthesized groups of at most 64, because one flat chain of k additions
nests k deep and the compiler's recursion limit rejects it at k near 3000.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]


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


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def _integer_row(row: Sequence) -> tuple[list[int], int]:
    """(numerators, d) with row == numerators / d, d the lcm of the
    denominators, every numerator an int. Entries are ints, Fractions or
    'p/q' strings; a float or a bool raises TypeError (see to_fraction).

    One scan picks out the entries that are not ints, and only those are
    coerced or read for denominators: a row of ints (a commutation row, a
    kernel vector, a matrix's or a subspace's integer form) is then copied
    once, and a Fraction with denominator 1 still comes back as an int.
    """
    odd = [x for x in row if type(x) is not int]
    if not odd:
        return list(row), 1
    dens = [x.denominator for x in odd if type(x) is Fraction]
    if len(dens) < len(odd):
        return _integer_row([x if type(x) is int else to_fraction(x) for x in row])
    den = lcm(*dens)
    return [x.numerator * (den // x.denominator) for x in row], den


def primitive_part(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


# Largest number of terms in one parenthesized group of a product entry.
_CHUNK = 64


def _compile_kernel(source: str, label: str):
    """The function `kernel` defined by source, compiled on its own."""
    namespace: dict = {}
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace["kernel"]


def _names(prefix: str, k: int) -> str:
    """The unpacking target (prefix0, ..., prefix{k-1},)."""
    return "(" + "".join(f"{prefix}{i}, " for i in range(k)) + ")"


def _sum(terms: list[str]) -> str:
    """The sum of terms as one expression, in parenthesized groups of at
    most _CHUNK terms; "0" when there are none."""
    chunks = ["(" + " + ".join(terms[lo : lo + _CHUNK]) + ")" for lo in range(0, len(terms), _CHUNK)]
    return " + ".join(chunks) or "0"


@cache
def _product_kernel(k: int):
    """kernel(a, cols): the rows [row . col for col in cols] for each row of
    a, every row and col of length k (otherwise ValueError)."""
    entry = _sum([f"x{i} * y{i}" for i in range(k)])
    source = (
        "def kernel(a, cols):\n"
        f"    return [[{entry} for {_names('y', k)} in cols] for {_names('x', k)} in a]\n"
    )
    return _compile_kernel(source, f"product kernel {k}")


@cache
def _shape_kernel(k: int, m: int):
    """kernel(a, b): the product of the rows a and the k x m matrix b as a
    tuple of row tuples. b is unpacked into the k * m locals y{i}_{j} once
    per call; a row of a of another length than k, or a b of another shape,
    raises ValueError."""
    entries = "".join(_sum([f"x{i} * y{i}_{j}" for i in range(k)]) + ", " for j in range(m))
    source = (
        "def kernel(a, b):\n"
        f"    ({''.join(_names(f'y{i}_', m) + ', ' for i in range(k))}) = b\n"
        f"    return (*[({entries}) for {_names('x', k)} in a],)\n"
    )
    return _compile_kernel(source, f"shape kernel {k} x {m}")


@cache
def _combination_kernel(k: int):
    """kernel(a, b, v, top): the row a*v - b*top, v and top of length k
    (otherwise ValueError)."""
    entries = ", ".join(f"a * x{i} - b * y{i}" for i in range(k))
    source = (
        "def kernel(a, b, v, top):\n"
        f"    {_names('x', k)} = v\n"
        f"    {_names('y', k)} = top\n"
        f"    return [{entries}]\n"
    )
    return _compile_kernel(source, f"combination kernel {k}")


def eliminate(v: list[int], top: Sequence[int], col: int) -> tuple[int, list[int]]:
    """Clear column col of the integer row v (v[col] != 0) against top by
    integer cross-multiplication: (a, a*v - b*top) with a/b = top[col]/v[col]
    in lowest terms. v and top have one length (otherwise ValueError)."""
    p, f = top[col], v[col]
    g = gcd(p, f)
    a, b = p // g, f // g
    return a, _combination_kernel(len(v))(a, b, v, top)


def integer_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two integer matrices given as rows. Every row of a has
    len(b) entries and the rows of b have one length (otherwise
    ValueError)."""
    return _product_kernel(len(b))(a, list(zip(*b, strict=True)))


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix num / den in its normalized integer form.

    num is a tuple of integer rows and den > 0 with gcd(den, every entry of
    num) = 1. The form is unique, so == and hash compare integers and agree
    with entrywise Fraction equality. The constructor takes a form that is
    already normalized; from_rows and from_integer_form normalize. `rows`
    is the public Fraction view, built on first use.
    """

    num: tuple[tuple[int, ...], ...]
    den: int = 1

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "RatMatrix":
        vecs = [list(r) for r in rows]
        ncols = len(vecs[0]) if vecs else 0
        if any(len(v) != ncols for v in vecs):
            raise ValueError("ragged rows")
        # over the lcm of the denominators of reduced Fractions the form is
        # normalized; _integer_row coerces and checks the entries
        flat, den = _integer_row([x for v in vecs for x in v])
        return RatMatrix(tuple(tuple(flat[i * ncols : (i + 1) * ncols]) for i in range(len(vecs))), den)

    @staticmethod
    def from_integer_form(num: Sequence[Sequence[int]], den: int) -> "RatMatrix":
        """The matrix num / den (den > 0), normalized."""
        if den != 1:
            g = gcd(den, *[x for r in num for x in r])
            if g > 1:
                num = [[x // g for x in r] for r in num]
                den //= g
        return RatMatrix(tuple(map(tuple, num)), den)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "RatMatrix":
        return RatMatrix(((0,) * ncols,) * nrows)

    @property
    def nrows(self) -> int:
        return len(self.num)

    @property
    def ncols(self) -> int:
        return len(self.num[0]) if self.num else 0

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def integer_form(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(num, den): the stored form, self == num / den."""
        return self.num, self.den

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        """The entries as Fractions, row by row; built on first use."""
        d = self.den
        return tuple(tuple([Fraction(x, d) for x in r]) for r in self.num)

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.num)), self.den)

    def _combine(self, other: "RatMatrix", sign: int) -> "RatMatrix":
        """self + sign * other, on the integer forms."""
        a, da = self.num, self.den
        b, db = other.num, other.den
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
        p = c.numerator
        return RatMatrix.from_integer_form([[p * x for x in r] for r in self.num], self.den * c.denominator)

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        return self.matmul(other)

    def matmul(self, other: "RatMatrix") -> "RatMatrix":
        a, b = self.num, other.num
        try:
            if b and not a:  # a matrix without rows has no columns
                raise ValueError
            num = _shape_kernel(len(b), len(b[0]) if b else 0)(a, b)
        except ValueError:
            raise ValueError("shape mismatch in matrix product") from None
        den = self.den * other.den
        return RatMatrix(num) if den == 1 else RatMatrix.from_integer_form(num, den)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.ncols:
            raise ValueError("shape mismatch in matrix-vector product")
        w, dw = _integer_row(v)
        den = self.den * dw
        return tuple(Fraction(x, den) for (x,) in _product_kernel(len(w))(self.num, [w]))

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(r[i] for i, r in enumerate(self.num)), self.den)

    def det(self) -> Fraction:
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        # Bareiss elimination on the integer form: after step c every entry
        # is a minor of N, and the division by the previous pivot is exact.
        n = self.nrows
        m = [list(r) for r in self.num]
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
        return Fraction(sign * prev, self.den**n)

    def inverse(self) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        # the RREF of [N | d I] is [I | d N^-1], and d N^-1 is the inverse of
        # N / d; row i of the integer RREF is p_i times its RREF row, so over
        # L = lcm(p_i) the inverse is the rows (L / p_i) row_i[n:] over L
        n, d = self.nrows, self.den
        aug = [list(r) + [d if j == i else 0 for j in range(n)] for i, r in enumerate(self.num)]
        reduced, pivots = rref(aug)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        den = lcm(*[row[i] for i, row in enumerate(reduced)])
        inv = [[x * (den // row[i]) for x in row[n:]] for i, row in enumerate(reduced)]
        return RatMatrix.from_integer_form(inv, den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_identity(self) -> bool:
        return self.is_square and self == RatMatrix.identity(self.nrows)

    def is_scalar(self) -> bool:
        if not self.is_square:
            return False
        c = self.num[0][0] if self.num else 0
        return all(x == (c if i == j else 0) for i, r in enumerate(self.num) for j, x in enumerate(r))


def numerator_vector(m: RatMatrix) -> tuple[int, ...]:
    """Row-major flattening of the numerators: m.den times the row-major
    entries of m, which spans the same line, for spans and membership
    tests."""
    return tuple(x for row in m.num for x in row)


def rref(rows: Sequence[Sequence[int | Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of rows of ints, Fractions or 'p/q'
    strings, in integers: (rows, pivot column indices). Row i < len(pivots)
    is primitive with a positive entry at pivots[i] and zeros at the other
    pivots; divided by that entry it is the RREF row. The zero rows follow.

    Fraction-free and incremental: the reduced rows found so far are kept
    by pivot column, each zero at the other pivots and left of its own.
    The rows are taken in order, each cleared of denominators and reduced
    against the kept rows by integer cross-multiplication. A row that
    vanishes is dropped then and there, before it costs a clearing or a
    content gcd, which is most rows of a tall system of low rank (the
    commutation system of the centralizer). A row that survives is divided
    by its content, given a positive pivot at its first nonzero column,
    and its pivot column is cleared from the kept rows; the RREF of a row
    space is unique, so the order does not change the result.
    """
    kept: dict[int, list[int]] = {}
    ncols = len(rows[0]) if rows else 0
    for r in rows:
        v = _integer_row(r)[0]
        for p, top in kept.items():
            if v[p]:
                v = eliminate(v, top, p)[1]
        if not any(v):
            continue
        c = v.index(next(filter(None, v)))  # the first nonzero column
        v = primitive_part(v) if v[c] > 0 else [-x for x in primitive_part(v)]
        for p, row in kept.items():
            if row[c]:  # eliminate keeps the kept row's pivot positive
                kept[p] = primitive_part(eliminate(row, v, c)[1])
        kept[c] = v
    pivots = sorted(kept)
    return [kept[p] for p in pivots] + [[0] * ncols for _ in range(len(rows) - len(kept))], pivots


@dataclass(frozen=True)
class Subspace:
    """Rational subspace in canonical form.

    num holds the nonzero rows of the integer RREF (see rref) of any
    spanning set, so two subspaces are equal as data, and hash alike,
    exactly when they are equal as spans. `basis` is the public Fraction
    view of the same rows, each divided by its pivot entry.
    """

    ambient_dim: int
    num: tuple[tuple[int, ...], ...]

    @staticmethod
    def span(vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        vecs = list(vectors)
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector does not match ambient dimension")
        reduced, pivots = rref(vecs)  # rref coerces and checks each entry once
        return Subspace(ambient_dim, tuple(map(tuple, reduced[: len(pivots)])))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, RatMatrix.identity(ambient_dim).num)

    @property
    def dim(self) -> int:
        return len(self.num)

    @cached_property
    def _pivots(self) -> tuple[int, ...]:
        return tuple(next(i for i, x in enumerate(row) if x) for row in self.num)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The RREF rows as Fractions, pivot entries 1; built on first use."""
        return tuple(tuple([Fraction(x, row[p]) for x in row]) for row, p in zip(self.num, self._pivots))

    def _residual(self, v: Sequence) -> tuple[list[int], int]:
        """(numerators, d) of the residual of v along the canonical basis."""
        w, den = _integer_row(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector does not match ambient dimension")
        for piv, row in zip(self._pivots, self.num):
            if w[piv]:
                a, w = eliminate(w, row, piv)
                den *= a
                g = gcd(den, *w)
                if g > 1:
                    w = [x // g for x in w]
                    den //= g
        return w, den

    def contains(self, v: Sequence) -> bool:
        return not any(self._residual(v)[0])

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(b) for b in self.num)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.span(self.num + other.num, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        # Kernel of [A | -B] with the rows of both as columns: a kernel
        # vector (x, y) gives the intersection vector x A.
        cols = self.num + tuple(tuple(-x for x in b) for b in other.num)
        ker = kernel_vectors(*rref(list(zip(*cols))), len(cols))
        return Subspace.span(integer_matmul([v[: self.dim] for v in ker], self.num), self.ambient_dim)

    def apply(self, m: RatMatrix) -> "Subspace":
        """Image of this subspace under m."""
        if m.ncols != self.ambient_dim:
            raise ValueError("shape mismatch")
        # row i of the product kernel's result is m times row i
        return Subspace.span(_product_kernel(self.ambient_dim)(self.num, m.num), m.nrows)


def kernel_and_image(m: RatMatrix) -> tuple[Subspace, Subspace]:
    """Kernel and column-space image of m, both canonical, from one RREF.

    dim(kernel) + dim(image) = ncols; the image is spanned by the pivot
    columns of the original matrix.
    """
    reduced, pivots = rref(m.num)
    kernel = nullspace(reduced, pivots, m.ncols)
    return kernel, Subspace.span([[r[p] for r in m.num] for p in pivots], m.nrows)


def nullspace(reduced: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int) -> Subspace:
    """Kernel of a matrix whose integer RREF (as rref returns it) occupies
    the first ncols columns of reduced: the kernel_vectors, spanned once.
    `nullspace(*rref(rows), ncols)` is the kernel of rows alone, with no
    image. A kernel that is only combined with known rows before it is
    spanned (Subspace.intersect, the polynomial centralizer, the invariant
    affine fields, the Dickson radical) takes kernel_vectors instead, so
    only the combination is spanned."""
    return Subspace.span(kernel_vectors(reduced, pivots, ncols), ncols)


def kernel_vectors(
    reduced: Sequence[Sequence[int]], pivots: Sequence[int], ncols: int
) -> list[list[int]]:
    """A basis of the kernel that nullspace spans, one integer vector per
    free column, not yet in canonical form.

    For free column f, with t the lcm of the pivot entries r[p] of the rows
    r with r[f] != 0, the vector is t at f, -r[f] * (t / r[p]) at each such
    pivot p and 0 elsewhere, which is t times the Fraction vector with 1 at
    f."""
    rows = list(zip(pivots, reduced))
    kernel_vecs = []
    for f in range(ncols):
        if f in pivots:
            continue
        touched = [(p, r) for p, r in rows if r[f]]
        top = lcm(*[r[p] for p, r in touched])
        v = [0] * ncols
        v[f] = top
        for p, r in touched:
            v[p] = -r[f] * (top // r[p])
        kernel_vecs.append(v)
    return kernel_vecs


def krylov_powers(
    num: Sequence[Sequence[int]], limit: int
) -> tuple[list[list[list[int]]], list[int] | None]:
    """The powers I, N, N^2, ... of the square integer matrix N up to the
    first one that depends linearly on those before it: (powers, q).

    Each new power, vectorized, is reduced against the echelon rows kept so
    far by integer cross-multiplication, while its coefficients over the
    powers are tracked alongside, so one elimination step updates both.
    When N^k is the first dependent power, powers is [I, ..., N^(k-1)] and
    q = [q_0, ..., q_k] with q_k != 0 and sum q_i N^i = 0. When the first
    `limit` powers are independent, q is None, powers holds those `limit`
    powers and N^limit is not formed. minimal_polynomial reads q (with
    limit n + 1, which Cayley-Hamilton never reaches); the centralizer reads
    whether the first n powers are independent, that is whether N is
    cyclic, and those powers.
    """
    n = len(num)
    size = n * n
    # each echelon row is a power's entries followed by its coefficients
    # over I, N, N^2, ...
    echelon: list[tuple[int, list[int]]] = []  # (pivot, row)
    powers: list[list[list[int]]] = []
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(limit):
        v = [x for row in power for x in row] + [int(i == k) for i in range(limit)]
        for p, row in echelon:
            if v[p]:
                v = primitive_part(eliminate(v, row, p)[1])
        pivot = next((i for i in range(size) if v[i]), None)
        if pivot is None:
            return powers, v[size : size + k + 1]
        echelon.append((pivot, v))
        powers.append(power)
        if k + 1 < limit:
            power = integer_matmul(power, num)
    return powers, None


def kernel_of(m: RatMatrix) -> Subspace:
    """Kernel of m, through kernel_and_image: this also spans the image,
    then drops it. Kernel-only hot paths read `nullspace(*rref(...))`
    instead, and callers that need the image too take both from one
    kernel_and_image call."""
    return kernel_and_image(m)[0]


def image_of(m: RatMatrix) -> Subspace:
    """Column space: the row space of the transpose."""
    return Subspace.span(m.transpose().num, m.nrows)


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
    # a = N / d, so a x = b is N x = d b
    aug = [list(row) + [a.den * bv[i]] for i, row in enumerate(a.num)]
    reduced, pivots = rref(aug)
    if a.ncols in pivots:
        return None
    sol = [Fraction(0)] * a.ncols
    for i, p in enumerate(pivots):
        sol[p] = Fraction(reduced[i][a.ncols], reduced[i][p])
    return tuple(sol), nullspace(reduced, pivots, a.ncols)
