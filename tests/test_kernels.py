"""The integer-row kernels against independent Fraction oracles.

rref, det, inverse, matmul, apply, add/scale, Subspace._residual,
minimal_polynomial, characteristic_polynomial and Polynomial.eval_matrix
run on integer numerators over common denominators, and Subspace stores
integer RREF rows; each is checked here against a plain Fraction
computation or one of the oracles in helpers.py, on inputs with
non-integer entries, zero rows, empty inputs and 1 x n shapes. RatMatrix and Polynomial store their
normalized integer forms, so their == and hash are checked against
Fraction equality, and the derived-series probe's entry-size budget
against reduced entries. integer_matmul and eliminate run functions
compiled once per width; they are checked against the loops they replaced
(helpers.reference_matmul, helpers.reference_eliminate) at widths 0-70 and
5000, on small and 300-bit entries. RatMatrix.matmul runs a function
compiled once per shape k x m of its right factor; its products are checked
against the same loop and against Fraction products.
"""

import dataclasses
import random
import types
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from holonomy import commutant, linalg, polys
from holonomy.cli import main
from holonomy.commutant import truncated_derived_series
from holonomy.linalg import (
    RatMatrix,
    Subspace,
    _combination_kernel,
    _integer_row,
    _product_kernel,
    _shape_kernel,
    eliminate,
    integer_matmul,
    krylov_powers,
    nullspace,
    rref,
)
from holonomy.polys import Polynomial, characteristic_polynomial, factor_polynomial, minimal_polynomial
from holonomy.representation import validate_rep

from helpers import (
    CORPUS,
    FractionPolynomial,
    brute_force_nullspace,
    charpoly_oracle,
    fraction_rref,
    polynomial,
    reference_eliminate,
    reference_matmul,
)

entries = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-4, max_value=4, max_denominator=7),
)


@st.composite
def row_lists(draw, max_rows=5, max_cols=5, tall=False):
    """Rows of a common width; some rows are zero or repeated. A tall draw
    has up to four times as many rows as columns, each zero or an integer
    combination of 1-3 drawn rows, so most rows vanish during reduction and
    leading entries are often negative."""
    ncols = draw(st.integers(1, max_cols))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    zero = st.just([Fraction(0)] * ncols)
    if tall:
        base = draw(st.lists(row, min_size=1, max_size=3))
        coeffs = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
        combination = coeffs.map(lambda cs: [sum(c * b[k] for c, b in zip(cs, base)) for k in range(ncols)])
        return draw(st.lists(st.one_of(combination, combination, zero), min_size=ncols, max_size=4 * ncols))
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
    n, k, m = draw(st.integers(1, 4)), draw(st.integers(1, 9)), draw(st.integers(1, 4))
    return draw(matrices(n, k)), draw(matrices(k, m))


def naive_product(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
            for i in range(len(a))]


def leibniz_det(m: RatMatrix) -> Fraction:
    n = m.nrows
    return charpoly_oracle(m).coeffs[0] * (-1) ** n


class TestRref:
    @given(st.one_of(row_lists(), row_lists(tall=True)))
    @settings(max_examples=150, deadline=None)
    def test_against_brute_force_nullspace(self, rows):
        reduced, pivots = rref(rows)
        if not rows:
            assert (reduced, pivots) == ([], [])
            return
        ncols = len(rows[0])
        assert len(reduced) == len(rows)
        assert all(type(x) is int for r in reduced for x in r)
        # each pivot row is primitive with a positive pivot entry
        for i, p in enumerate(pivots):
            assert reduced[i][p] > 0 and gcd(*reduced[i]) == 1
        reduced = [[Fraction(x, r[p]) for x in r] for r, p in zip(reduced, pivots)] + reduced[len(pivots):]
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
        # nullspace builds the same kernel from integer vectors
        assert nullspace(*rref(rows), ncols) == Subspace.span(kernel, ncols)

    def test_one_by_n(self):
        reduced, pivots = rref([[Fraction(0), Fraction(-3, 4), Fraction(1, 2)]])
        assert pivots == [1]
        assert reduced == [[0, 3, -2]]
        assert [Fraction(x, reduced[0][1]) for x in reduced[0]] == [0, 1, Fraction(-2, 3)]

    def test_zero_width(self):
        assert rref([[], []]) == ([[], []], [])

    def test_integer_row(self):
        # the lcm skips int entries, but every numerator comes back an int,
        # and a row of ints comes back as a new list
        for row, expected in (
            ([Fraction(2), 3], ([2, 3], 1)),
            ([Fraction(1, 2), 1], ([1, 2], 2)),
            ([Fraction(-3, 4), Fraction(5, 6), 0], ([-9, 10, 0], 12)),
            ([3, -4, 0], ([3, -4, 0], 1)),
            ((7,), ([7], 1)),
            ([], ([], 1)),
        ):
            nums, den = _integer_row(row)
            assert (nums, den) == expected
            assert type(nums) is list and nums is not row
            assert all(type(x) is int for x in nums)
        # the one scan also coerces 'p/q' strings and rejects floats and bools,
        # for spans, residuals and matrices alike
        assert _integer_row(["1/2", 3, Fraction(1, 3)]) == ([3, 18, 2], 6)
        s = Subspace.span([["1/2", 1], [0, 0]], 2)
        assert s == Subspace.span([[1, 2]], 2) and s.contains(["-1", "-2"])
        assert RatMatrix.from_rows([["1/2", 1]]) == RatMatrix.from_integer_form([[1, 2]], 2)
        for bad in (0.5, True):
            for build in (
                lambda: _integer_row([1, bad]),
                lambda: _integer_row([Fraction(1, 2), bad]),
                lambda: Subspace.span([[1, bad]], 2),
                lambda: s.contains([bad, 0]),
                lambda: RatMatrix.from_rows([[bad, 1]]),
            ):
                with pytest.raises(TypeError):
                    build()

    @given(st.one_of(row_lists(), row_lists(tall=True)))
    @settings(max_examples=100, deadline=None)
    def test_kernel_image_matrix_is_the_fraction_rref(self, rows):
        if not rows:
            return
        reduced, pivots = rref(rows)
        work, pivot_of_col = fraction_rref(rows, len(rows[0]))
        assert pivots == list(pivot_of_col)
        head = [[Fraction(x, r[p]) for x in r] for r, p in zip(reduced, pivots)]
        assert head + reduced[len(pivots):] == work


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

    @given(square(max_n=5))
    @example(RatMatrix.from_rows([[Fraction(2, 3), 0], [0, Fraction(-4, 9)]]))
    @settings(max_examples=100, deadline=None)
    def test_inverse_matches_fraction_gauss_jordan(self, m):
        # Gauss-Jordan on [m | I] in Fractions: the right block of the RREF
        n = m.nrows
        aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(m.rows)]
        reduced, pivots = fraction_rref(aug, 2 * n)
        if sorted(pivots) != list(range(n)):
            with pytest.raises(ValueError, match="singular"):
                m.inverse()
            return
        inv = m.inverse()
        assert is_normalized(inv)
        assert [list(r) for r in inv.rows] == [r[n:] for r in reduced[:n]]


KERNEL_WIDTHS = [*range(71), 5000]


def int_rows(rng, nrows, ncols, bound):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


def global_names(code: types.CodeType):
    """The global and attribute names read by code and its nested code."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from global_names(const)


class TestFixedWidthKernels:
    """integer_matmul and eliminate run one function per width k, compiled
    on first use; each is checked against the loop it replaced."""

    @pytest.mark.parametrize("bound", [3, 2**300], ids=["small", "300-bit"])
    def test_products_match_the_reference_loop(self, bound):
        rng = random.Random(bound.bit_length())
        for k in KERNEL_WIDTHS:
            n, m = (2, 3) if k == 5000 else (rng.randint(1, 4), rng.randint(1, 4))
            a, b = int_rows(rng, n, k, bound), int_rows(rng, k, m, bound)
            assert integer_matmul(a, b) == reference_matmul(a, b)
            assert integer_matmul(tuple(map(tuple, a)), tuple(map(tuple, b))) == reference_matmul(a, b)
            row, col = int_rows(rng, 1, k, bound), int_rows(rng, k, 1, bound)
            assert integer_matmul(row, col) == reference_matmul(row, col)  # 1 x k times k x 1
            small = col[:70]  # at k = 5000 the full outer product has 25 million entries
            assert integer_matmul(small, row) == reference_matmul(small, row)  # k x 1 times 1 x k

    def test_empty_factors(self):
        assert integer_matmul([[], [], []], []) == [[], [], []] == reference_matmul([[], [], []], [])
        assert integer_matmul([], []) == [] == reference_matmul([], [])
        assert integer_matmul([], [[1, 2], [3, 4]]) == []
        assert integer_matmul([[1, 2]], [[], []]) == [[]] == reference_matmul([[1, 2]], [[], []])

    @pytest.mark.parametrize("bound", [3, 2**300], ids=["small", "300-bit"])
    def test_elimination_matches_the_reference_loop(self, bound):
        rng = random.Random(bound.bit_length() + 1)
        for k in KERNEL_WIDTHS[1:]:
            v, top = int_rows(rng, 2, k, bound)
            col = rng.randrange(k)
            v[col] = v[col] or 1
            top[col] = top[col] or -1
            a, row = eliminate(v, top, col)
            assert (a, row) == reference_eliminate(v, top, col)
            assert row[col] == 0 and len(row) == k
            assert eliminate(v, tuple(top), col) == (a, row)

    def test_each_width_compiles_once(self):
        a, b = [[1, 2, 3]], [[4], [5], [6]]
        integer_matmul(a, b)
        misses = _product_kernel.cache_info().misses
        assert integer_matmul(a, b) == [[32]]
        assert _product_kernel.cache_info().misses == misses
        for k in (0, 1, 3, 64, 65, 5000):
            assert _product_kernel(k) is _product_kernel(k)
            assert _combination_kernel(k) is _combination_kernel(k)

    def test_kernels_read_no_global_name(self):
        # only the locals x0, y0, ... derived from k appear in the source
        for k in (0, 1, 2, 64, 65, 129):
            assert not list(global_names(_product_kernel(k).__code__))
            assert not list(global_names(_combination_kernel(k).__code__))

    def test_rows_of_unequal_length_raise(self):
        with pytest.raises(ValueError):
            integer_matmul([[1, 2], [3]], [[1], [2]])  # a row of a is short
        with pytest.raises(ValueError):
            integer_matmul([[1, 2, 3]], [[1], [2]])  # a row of a is long
        with pytest.raises(ValueError):
            integer_matmul([[1, 2]], [[1, 2], [3]])  # the rows of b differ
        with pytest.raises(ValueError):
            integer_matmul([[1, 2]], [[], [2]])
        with pytest.raises(ValueError):
            eliminate([1, 2], [1, 2, 3], 0)
        with pytest.raises(ValueError):
            eliminate([1, 2, 3], [1, 2], 0)


SHAPE_WIDTHS = [*range(9), 64, 65, 130]


class TestShapeKernel:
    """RatMatrix.matmul runs one function per shape k x m of its right
    factor, compiled on first use, which returns the rows as tuples."""

    @pytest.mark.parametrize("bound", [3, 2**300], ids=["small", "300-bit"])
    def test_products_match_the_reference_loop_and_fractions(self, bound):
        rng = random.Random(bound.bit_length() + 2)
        for k in SHAPE_WIDTHS:
            for m in range(9) if k < 9 else (1, 2):
                n = rng.randint(1, 3)
                a, b = int_rows(rng, n, k, bound), int_rows(rng, k, m, bound)
                prod = RatMatrix(tuple(map(tuple, a))) * RatMatrix(tuple(map(tuple, b)))
                assert prod == RatMatrix(tuple(map(tuple, reference_matmul(a, b))))
                assert type(prod.num) is tuple and all(type(r) is tuple for r in prod.num)
                da, db = rng.randint(1, 12), rng.randint(1, 12)
                x, y = RatMatrix.from_integer_form(a, da), RatMatrix.from_integer_form(b, db)
                prod = x * y
                assert is_normalized(prod)
                assert [list(r) for r in prod.rows] == naive_product(x.rows, y.rows) if k else prod.is_zero()

    def test_denominators_that_need_the_gcd_step(self):
        # odd entries over 2: a product of even width has even entries over 4
        rng = random.Random(3)
        for k in (2, 4, 6, 8, 64):
            a = [[2 * rng.randint(-9, 9) + 1 for _ in range(k)] for _ in range(3)]
            b = [[2 * rng.randint(-9, 9) + 1 for _ in range(2)] for _ in range(k)]
            x, y = RatMatrix.from_integer_form(a, 2), RatMatrix.from_integer_form(b, 2)
            assert (x.den, y.den) == (2, 2)
            prod = x * y
            assert is_normalized(prod) and prod.den < 4
            assert [list(r) for r in prod.rows] == naive_product(x.rows, y.rows)

    def test_each_shape_compiles_once(self):
        a, b = RatMatrix.from_rows([[1, 2, 3]]), RatMatrix.from_rows([[4, 1], [5, 1], [6, 1]])
        a * b
        misses = _shape_kernel.cache_info().misses
        assert (a * b).num == ((32, 6),)
        assert _shape_kernel.cache_info().misses == misses
        for k, m in ((0, 0), (1, 0), (3, 2), (2, 3), (65, 1)):
            assert _shape_kernel(k, m) is _shape_kernel(k, m)

    def test_kernel_reads_no_global_name(self):
        # only the locals x0, y0_0, ... derived from k and m appear in the source
        for k, m in ((0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (3, 2), (65, 2), (129, 1)):
            assert not list(global_names(_shape_kernel(k, m).__code__))

    def test_wrong_shape_raises(self):
        square = RatMatrix.from_rows([[1, 2], [3, 4]])
        for x, y in (
            (RatMatrix.from_rows([[1, 2, 3]]), square),  # a row of self is long
            (RatMatrix.from_rows([[1]]), square),  # a row of self is short
            (square, RatMatrix.from_rows([[1], [2], [3]])),
            (RatMatrix(((1, 2), (3,))), square),  # ragged rows of self
            (square, RatMatrix(((1, 2), (3,)))),  # ragged rows of other
            (RatMatrix(()), square),  # a matrix without rows has no columns
        ):
            with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
                x * y

    def test_corpus_cli_compiles_shapes_within_the_matrix_size(self, monkeypatch, capsys):
        # the corpus documents have dimension 2 and 3; their suspensions and
        # affine matrices have one row and column more
        shapes = set()
        monkeypatch.setattr(linalg, "_shape_kernel", lambda k, m: shapes.add((k, m)) or _shape_kernel(k, m))
        docs = sorted(CORPUS.glob("*.json"))
        for dim in ("2", "3"):
            assert main(["classify", "--dim", dim, *[str(p) for p in docs if p.name.startswith(f"dim{dim}")]]) == 0
        assert main(["analyze", *map(str, docs)]) == 0
        capsys.readouterr()
        assert shapes and all(k <= 4 and m <= 4 for k, m in shapes)


class TestSubspaceResidual:
    @given(row_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_residual_matches_fraction_elimination(self, rows, data):
        if not rows:
            return
        n = len(rows[0])
        s = Subspace.span(rows, n)
        v = [data.draw(entries) for _ in range(n)]
        w = list(v)
        for row in s.basis:
            piv = next(i for i, x in enumerate(row) if x != 0)
            w = [a - w[piv] * b for a, b in zip(w, row)]
        num, den = s._residual(v)
        assert [Fraction(x, den) for x in num] == w
        assert s.contains(v) == all(x == 0 for x in w)
        assert all(s.contains(r) for r in rows)


nonzero = entries.filter(lambda x: x != 0)


def reference_span(rows, ncols) -> tuple[tuple[Fraction, ...], ...]:
    """The nonzero rows of the plain Fraction RREF."""
    work, pivot_of_col = fraction_rref(rows, ncols)
    return tuple(tuple(r) for r in work[: len(pivot_of_col)])


def combinations_of(data, rows, count):
    """count random linear combinations of rows."""
    out = []
    for _ in range(count):
        coeffs = [data.draw(entries) for _ in rows]
        out.append([sum((c * r[k] for c, r in zip(coeffs, rows)), Fraction(0)) for k in range(len(rows[0]))])
    return out


class TestSubspaceForm:
    @given(row_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_span_is_one_integer_form(self, rows, data):
        if not rows:
            return
        n = len(rows[0])
        s = Subspace.span(rows, n)
        for row in s.num:
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1 and next(x for x in row if x) > 0
        assert s.basis == reference_span(rows, n)
        # the same span, rescaled and permuted, or with combinations appended
        rescaled = data.draw(st.permutations([[c * x for x in r] for c, r in zip(
            [data.draw(nonzero) for _ in rows], rows)]))
        extended = rows + combinations_of(data, rows, data.draw(st.integers(1, 3)))
        for other in (Subspace.span(rescaled, n), Subspace.span(extended, n)):
            assert other.num == s.num
            assert other == s and hash(other) == hash(s)

    @given(row_lists(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_apply_add_intersect_match_fraction_references(self, rows, data):
        if not rows:
            return
        n = len(rows[0])
        s = Subspace.span(rows, n)
        # a second span that shares combinations of the first
        more = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=3))
        shared = combinations_of(data, rows, data.draw(st.integers(0, 2)))
        t = Subspace.span(more + shared, n)
        m = data.draw(matrices(data.draw(st.integers(1, 4)), n))
        image = [[sum((x * y for x, y in zip(r, b)), Fraction(0)) for r in m] for b in s.basis]
        assert s.apply(RatMatrix.from_rows(m)).basis == reference_span(image, len(m))
        total = s.add(t)
        assert total.basis == reference_span(list(s.basis + t.basis), n)
        meet = s.intersect(t)
        assert meet == t.intersect(s)
        assert all(s.contains(v) and t.contains(v) for v in meet.basis)
        assert meet.dim == s.dim + t.dim - total.dim
        assert meet.basis == reference_span(list(meet.basis), n)


class TestMinimalPolynomial:
    @given(square())
    @settings(max_examples=100, deadline=None)
    def test_against_krylov_oracle(self, m):
        n = m.nrows
        p = minimal_polynomial(m)
        assert p.coeffs[-1] == 1
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
        assert FractionPolynomial(charpoly_oracle(m).coeffs).divmod(FractionPolynomial(p.coeffs))[1].is_zero


class TestKrylovPowers:
    @given(square(5), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_against_fraction_rank(self, m, past_n):
        # the powers up to the first dependent one, against the naive product
        # and a plain Fraction rank; with limit n + 1 there always is one
        n = m.nrows
        limit = n + 1 if past_n else n
        powers, q = krylov_powers(m.num, limit)
        expected = [[[int(i == j) for j in range(n)] for i in range(n)]]
        while len(expected) < len(powers) + (q is not None):
            expected.append(naive_product(expected[-1], m.num))
        assert powers == expected[: len(powers)]
        flat = [[Fraction(x) for r in p for x in r] for p in expected]
        assert len(fraction_rref(flat[: len(powers)], n * n)[1]) == len(powers)
        if q is None:
            assert len(powers) == limit and not past_n
        else:
            assert len(q) == len(powers) + 1 and q[-1] != 0
            assert all(sum(c * v[e] for c, v in zip(q, flat)) == 0 for e in range(n * n))


class TestCharacteristicPolynomial:
    @given(square())
    @example(RatMatrix.zeros(1, 1))
    @example(RatMatrix.zeros(4, 4))
    @example(RatMatrix.from_rows([[Fraction(-7, 3)]]))
    @settings(max_examples=100, deadline=None)
    def test_against_leibniz_oracle(self, m):
        assert characteristic_polynomial(m) == charpoly_oracle(m)


def fraction_horner(p: Polynomial, m: RatMatrix) -> list[list[Fraction]]:
    n = m.nrows
    acc = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(p.coeffs):
        acc = naive_product(acc, [list(r) for r in m.rows])
        for i in range(n):
            acc[i][i] += c
    return acc


class TestEvalMatrix:
    @given(st.lists(entries, max_size=5).map(polynomial), square())
    @example(polynomial([]), RatMatrix.from_rows([[Fraction(1, 2), 3], [0, Fraction(-2, 5)]]))
    @example(polynomial([Fraction(-4, 9)]), RatMatrix.from_rows([[Fraction(1, 2), 3], [0, 1]]))
    @example(polynomial([1, Fraction(2, 3), 5]), RatMatrix.zeros(3, 3))
    @settings(max_examples=150, deadline=None)
    def test_against_fraction_horner(self, p, m):
        assert [list(r) for r in p.eval_matrix(m).rows] == fraction_horner(p, m)


polynomial_coeffs = st.lists(st.one_of(st.just(Fraction(0)), entries), max_size=6)


def is_normalized_poly(p: Polynomial) -> bool:
    return p.den > 0 and gcd(p.den, *p.num) == 1 and (not p.num or p.num[-1] != 0)


class TestPolynomialIntegerForm:
    """Polynomial stores num / den; its form must be unique."""

    @given(polynomial_coeffs, st.integers(1, 6), st.integers(0, 3))
    @example([], 5, 2)
    @example([Fraction(-1, 2), Fraction(3, 4), Fraction(5)], 4, 1)
    @settings(max_examples=150, deadline=None)
    def test_equal_polynomials_built_differently_compare_and_hash_equal(self, cs, k, zeros):
        base = polynomial(cs)
        # a common denominator that is not the least one, of either sign
        den = k * lcm(*[x.denominator for x in cs])
        num = [int(x * den) for x in cs] + [0] * zeros
        builds = [
            base,
            polynomial(list(cs) + [0] * zeros),
            polynomial([str(x) for x in cs]),
            polynomial(base.coeffs),
            Polynomial.from_integer_form(num, den),
            Polynomial.from_integer_form([-x for x in num], -den),
        ]
        for p in builds:
            assert is_normalized_poly(p)
            assert (p.num, p.den) == (base.num, base.den)
            assert p == base and hash(p) == hash(base)
            assert p.coeffs == FractionPolynomial(cs).coeffs
        assert [f.name for f in dataclasses.fields(Polynomial)] == ["num", "den"]
        assert all(type(x) is Fraction for x in base.coeffs) and base.coeffs is base.coeffs

    def test_kernels_and_arithmetic_build_no_fraction(self, monkeypatch):
        m = RatMatrix.from_rows([[Fraction(1, 2), 3, 0], [0, Fraction(-2, 5), 1], [1, 0, 2]])
        a = polynomial(FractionPolynomial([Fraction(1, 2), 0, Fraction(-3, 4)]).monic().coeffs)
        built = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw))
        minp, char = minimal_polynomial(m), characteristic_polynomial(m * m)
        # char * minp * a on the integer forms, as a degree-8 reducible product
        product = Polynomial.from_integer_form(
            polys._mul(polys._mul(char.num, minp.num), a.num), char.den * minp.den * a.den
        )
        factors = factor_polynomial(product)
        inverse = m.inverse()
        minp.eval_matrix(m)
        monkeypatch.undo()
        assert built == []
        assert product.degree == 8 and len(factors) >= 2
        assert sum(f.poly.degree * f.multiplicity for f in factors) == 8
        assert inverse * m == RatMatrix.identity(3)


def rectangular():
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(lambda shape: matrices(*shape))


def is_normalized(m: RatMatrix) -> bool:
    return m.den > 0 and gcd(m.den, *[x for r in m.num for x in r]) == 1


class TestNormalizedForm:
    @given(rectangular(), st.integers(1, 6), st.integers(-3, 3))
    @example([[Fraction(0)] * 3] * 2, 5, 0)
    @example([[Fraction(-1, 2), Fraction(3, 4)], [Fraction(5), Fraction(-7, 6)]], 4, -1)
    @settings(max_examples=150, deadline=None)
    def test_equal_matrices_built_differently_compare_and_hash_equal(self, rows, k, c):
        base = RatMatrix.from_rows(rows)
        # a common denominator that is not the least one, numerators scaled with it
        den = k * lcm(*[x.denominator for r in rows for x in r])
        num = [[int(x * den) for x in r] for r in rows]
        builds = [
            base,
            RatMatrix.from_integer_form(num, den),
            RatMatrix.from_rows([[str(x) for x in r] for r in rows]),
            RatMatrix.from_rows(base.rows),
            base.transpose().transpose(),
        ]
        if c:
            builds.append(base.scale(Fraction(c, k)).scale(Fraction(k, c)))
        for m in builds:
            assert is_normalized(m)
            assert m == base and hash(m) == hash(base)
            assert m.rows == base.rows
            assert m in {base}

    @given(square_pairs(max_n=3))
    @settings(max_examples=150, deadline=None)
    def test_equality_agrees_with_fraction_rows(self, pair):
        a, b = pair
        assert (a == b) == (a.rows == b.rows)
        assert (a + b - b) == a and hash(a + b - b) == hash(a)

    def test_zero_matrix_has_denominator_one(self):
        z = RatMatrix.from_integer_form([[0, 0], [0, 0]], 7)
        assert z.integer_form == (((0, 0), (0, 0)), 1)
        assert z == RatMatrix.zeros(2, 2) == RatMatrix.from_rows([[0, Fraction(0, 3)], [0, 0]])
        assert hash(z) == hash(RatMatrix.zeros(2, 2))
        assert z.is_zero() and z.is_scalar()

    def test_negative_entries(self):
        m = RatMatrix.from_integer_form([[-6, 4], [0, -2]], 4)
        assert m.integer_form == (((-3, 2), (0, -1)), 2)
        assert m.rows == ((Fraction(-3, 2), Fraction(1)), (Fraction(0), Fraction(-1, 2)))
        assert m == RatMatrix.from_rows([["-3/2", 1], [0, Fraction(-1, 2)]])
        assert -m == RatMatrix.from_integer_form([[3, -2], [0, 1]], 2)

    @given(rectangular())
    @settings(max_examples=100, deadline=None)
    def test_rows_round_trip(self, rows):
        m = RatMatrix.from_rows(rows)
        assert m.rows == tuple(tuple(r) for r in rows)
        assert all(type(x) is Fraction for r in m.rows for x in r)
        assert RatMatrix.from_rows(m.rows) == m
        assert RatMatrix.from_integer_form(*m.integer_form).rows == m.rows


def derived_probe(x, y):
    """The probe to depth 1 with one conjugator on a = diag(-1, 1, 1) and
    b = I + x E12 + y E13. The pool is a, b and a b a^-1, and the two
    nontrivial commutators are I -+ (2x E12 + 2y E13), so their largest
    entries in lowest terms are 2x and 2y."""
    a = RatMatrix.from_rows([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = RatMatrix.from_rows([[1, x, y], [0, 1, 0], [0, 0, 1]])
    rep = validate_rep([("a", a), ("b", b)], "linear", 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commutant, "_MAX_CONJUGATORS", 1)
        return truncated_derived_series(rep, commutator_depth=1, word_length=1)


class TestEntryBitsBudget:
    def test_common_denominator_form_over_budget_does_not_stop(self):
        # entries 2^101 and 1/2^200: over the common denominator 2^200 the
        # first has a 301-bit numerator, but no entry in lowest terms is
        # longer than 201 bits
        report = derived_probe(2**100, Fraction(1, 2**201))
        assert report.stopped is None
        assert [(lv.pool_size, lv.nontrivial_commutators) for lv in report.levels] == [(3, 2)]

    def test_entries_of_256_bits_do_not_stop(self):
        for x, y in ((2**255 - 1, 0), (-(2**255 - 1), 0), (1, Fraction(1, 2**256))):
            report = derived_probe(x, y)
            assert report.stopped is None
            assert [(lv.pool_size, lv.nontrivial_commutators) for lv in report.levels] == [(3, 2)]

    def test_an_entry_of_257_bits_stops(self):
        for x, y in ((2**255, 0), (-(2**255), 0), (1, Fraction(1, 2**257))):
            report = derived_probe(x, y)
            assert report.stopped == "entry_bits"
            assert report.verdict == "unknown"
            assert report.levels == ()
