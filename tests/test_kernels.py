"""The integer-row kernels against independent Fraction oracles.

rref, det, matmul, apply, add/scale, Subspace.reduce and
minimal_polynomial run on integer numerators over common denominators;
each is checked here against a plain Fraction computation or one of the
oracles in helpers.py, on inputs with non-integer entries, zero rows,
empty inputs and 1 x n shapes.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.linalg import RatMatrix, Subspace, rref
from holonomy.polys import minimal_polynomial

from helpers import brute_force_nullspace, charpoly_oracle

entries = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


@st.composite
def row_lists(draw, max_rows=5, max_cols=5):
    """Rows of a common width; some rows are zero or repeated."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    zero = st.just([Fraction(0)] * ncols)
    rows = draw(st.lists(st.one_of(row, row, zero), min_size=0, max_size=max_rows))
    if rows and draw(st.booleans()):
        rows.append(list(rows[0]))
    return rows


def square_of(n):
    # sparse draws make singular, nilpotent and repeated-eigenvalue cases common
    entry = st.one_of(st.just(Fraction(0)), entries)
    row = st.lists(entry, min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n).map(RatMatrix.from_rows)


def square(max_n=4):
    return st.integers(1, max_n).flatmap(square_of)


def square_pairs(max_n=4):
    return st.integers(1, max_n).flatmap(lambda n: st.tuples(square_of(n), square_of(n)))


def matrices(nrows, ncols):
    return st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


def naive_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def leibniz_det(m: RatMatrix) -> Fraction:
    n = m.nrows
    return charpoly_oracle(m).eval_scalar(0) * (-1) ** n


class TestRref:
    @given(row_lists())
    @settings(max_examples=150, deadline=None)
    def test_against_brute_force_nullspace(self, rows):
        reduced, pivots = rref(rows)
        if not rows:
            assert (reduced, pivots) == ([], [])
            return
        ncols = len(rows[0])
        assert len(reduced) == len(rows)
        assert all(isinstance(x, Fraction) for r in reduced for x in r)
        # reduced row echelon shape
        assert pivots == sorted(set(pivots))
        for i, p in enumerate(pivots):
            assert reduced[i][p] == 1
            assert all(x == 0 for x in reduced[i][:p])
            assert all(reduced[k][p] == 0 for k in range(len(rows)) if k != i)
        assert all(x == 0 for r in reduced[len(pivots):] for x in r)
        # The nullspace read off the RREF equals the independent one; with
        # the shape above this pins down the RREF uniquely.
        kernel = []
        for f in (c for c in range(ncols) if c not in pivots):
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -reduced[i][f]
            kernel.append(v)
        assert kernel == brute_force_nullspace(rows, ncols)

    def test_one_by_n(self):
        reduced, pivots = rref([[Fraction(0), Fraction(-3, 4), Fraction(1, 2)]])
        assert pivots == [1]
        assert reduced == [[0, 1, Fraction(-2, 3)]]

    def test_zero_width(self):
        assert rref([[], []]) == ([[], []], [])


class TestMatrixArithmetic:
    @given(product_pairs())
    @settings(max_examples=100, deadline=None)
    def test_matmul_matches_naive_product(self, pair):
        a, b = pair
        prod = RatMatrix.from_rows(a) * RatMatrix.from_rows(b)
        assert prod == RatMatrix.from_rows(naive_product(a, b))
        num, den = prod.integer_form
        assert den >= 1
        assert all(Fraction(x, den) == y for r, q in zip(num, prod.rows) for x, y in zip(r, q))

    @given(square_pairs(), entries)
    @settings(max_examples=100, deadline=None)
    def test_add_sub_scale_apply(self, pair, c):
        a, b = pair
        assert (a + b).rows == tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows))
        assert (a - b).rows == tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(a.rows, b.rows))
        assert a.scale(c).rows == tuple(tuple(c * x for x in r) for r in a.rows)
        v = b.rows[0]
        assert a.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in a.rows)

    def test_integer_form_is_not_part_of_equality(self):
        a = RatMatrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-2, 3)]])
        b = RatMatrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-2, 3)]])
        assert a.integer_form == (((3, 18), (0, -4)), 6)
        assert "integer_form" not in b.__dict__
        assert a == b and hash(a) == hash(b)

    def test_empty_shapes(self):
        empty = RatMatrix(())
        assert empty * empty == empty
        assert empty.det() == 1
        wide = RatMatrix.from_rows([[1, Fraction(1, 2), 0]])
        assert wide * RatMatrix.from_rows([[2], [2], [7]]) == RatMatrix.from_rows([[3]])

    @given(square(max_n=5))
    @settings(max_examples=100, deadline=None)
    def test_det_matches_leibniz(self, m):
        assert m.det() == leibniz_det(m)


class TestSubspaceReduce:
    @given(row_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_reduce_matches_fraction_elimination(self, rows, data):
        if not rows:
            return
        n = len(rows[0])
        s = Subspace.span(rows, n)
        v = [data.draw(entries) for _ in range(n)]
        w = list(v)
        for row in s.basis:
            piv = next(i for i, x in enumerate(row) if x != 0)
            w = [a - w[piv] * b for a, b in zip(w, row)]
        assert s.reduce(v) == tuple(w)
        assert s.contains(v) == all(x == 0 for x in w)
        assert all(s.contains(r) for r in rows)


class TestMinimalPolynomial:
    @given(square())
    @settings(max_examples=100, deadline=None)
    def test_against_krylov_oracle(self, m):
        n = m.nrows
        p = minimal_polynomial(m)
        assert p.leading == 1
        # p(m) = 0, evaluated by Horner with the naive product
        acc = [[Fraction(0)] * n for _ in range(n)]
        for c in reversed(p.coeffs):
            acc = naive_product(acc, [list(r) for r in m.rows])
            for i in range(n):
                acc[i][i] += c
        assert all(x == 0 for r in acc for x in r)
        # its degree is the first k with I, m, ..., m^k dependent
        powers = [[Fraction(int(i == j)) for i in range(n) for j in range(n)]]
        cur = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        while True:
            cur = naive_product(cur, [list(r) for r in m.rows])
            powers.append([x for r in cur for x in r])
            columns = [list(col) for col in zip(*powers)]
            if brute_force_nullspace(columns, len(powers)):
                break
        assert p.degree == len(powers) - 1
        # and it divides the Leibniz characteristic polynomial
        assert p.divides(charpoly_oracle(m))
