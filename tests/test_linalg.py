import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonomy.linalg import (
    RatMatrix,
    Subspace,
    image_of,
    kernel_and_image,
    kernel_of,
    solve_linear,
)

from helpers import frac_rows, random_int_matrix, random_invertible


def span4(*vecs):
    return Subspace.span(list(vecs), 4)


E13_E24 = frac_rows([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]])


class TestRrefKernelImage:
    def test_identity(self):
        ker, im = kernel_and_image(RatMatrix.identity(4))
        assert ker.dim == 0
        assert im == Subspace.full(4)

    def test_shift_matrix(self):
        # e3 -> e1, e4 -> e2: hand row-reduction gives rank 2 with kernel and
        # image both spanned by e1, e2
        ker, im = kernel_and_image(E13_E24)
        assert im.dim == 2
        assert ker == span4([1, 0, 0, 0], [0, 1, 0, 0])
        assert im == span4([1, 0, 0, 0], [0, 1, 0, 0])

    def test_zero_matrix(self):
        ker, im = kernel_and_image(RatMatrix.zeros(3, 3))
        assert ker.dim == 3
        assert im.dim == 0

    def test_rank_nullity_random(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = random_int_matrix(rng, n)
            ker, im = kernel_and_image(m)
            assert im.dim + ker.dim == m.ncols

    @given(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_nullity_property(self, rows):
        m = frac_rows(rows)
        ker, im = kernel_and_image(m)
        assert im.dim + ker.dim == m.ncols

    @given(
        st.integers(1, 5).flatmap(
            lambda ncols: st.lists(
                st.lists(st.fractions(-8, 8, max_denominator=6), min_size=ncols, max_size=ncols),
                min_size=1,
                max_size=5,
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_one_call_gives_kernel_and_image(self, rows):
        # the callers that need both read them from one kernel_and_image
        m = frac_rows(rows)
        assert kernel_and_image(m) == (kernel_of(m), image_of(m))


class TestCanonicalForm:
    def test_equal_row_spans_give_equal_kernels(self):
        rng = random.Random(5)
        for _ in range(20):
            m = random_int_matrix(rng, 4)
            u = random_invertible(rng, 4, -2, 2)
            # left multiplication preserves the row space, hence the kernel
            assert kernel_of(u * m) == kernel_of(m)

    def test_equal_column_spans_give_equal_images(self):
        rng = random.Random(6)
        for _ in range(20):
            m = random_int_matrix(rng, 4)
            u = random_invertible(rng, 4, -2, 2)
            assert image_of(m * u) == image_of(m)

    def test_span_is_order_and_scale_independent(self):
        a = span4([1, 2, 0, 0], [0, 0, 1, 1])
        b = span4([0, 0, 2, 2], [3, 6, 0, 0], [3, 6, 2, 2])
        assert a == b
        assert hash(a) == hash(b)

    def test_sum_and_intersection_dims(self):
        rng = random.Random(9)
        for _ in range(25):
            u = Subspace.span(
                [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(1, 3))], 4
            )
            v = Subspace.span(
                [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(1, 3))], 4
            )
            inter = u.intersect(v)
            total = u.add(v)
            assert inter.dim + total.dim == u.dim + v.dim
            assert inter.is_subspace_of(u) and inter.is_subspace_of(v)
            assert u.is_subspace_of(total) and v.is_subspace_of(total)


class TestSolveLinear:
    def test_identity_system(self):
        sol, null = solve_linear(RatMatrix.identity(2), [1, 2])
        assert sol == (Fraction(1), Fraction(2))
        assert null.dim == 0

    def test_inconsistent(self):
        assert solve_linear(RatMatrix.zeros(2, 2), [1, 0]) is None

    def test_underdetermined(self):
        # E12 x = (1, 0): direct substitution gives x = (0, 1) + span(e1)
        sol, null = solve_linear(frac_rows([[0, 1], [0, 0]]), [1, 0])
        assert sol == (Fraction(0), Fraction(1))
        assert null == Subspace.span([[1, 0]], 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear(RatMatrix.identity(2), [1, 2, 3])

    def test_random_solutions_verify(self):
        rng = random.Random(3)
        for _ in range(30):
            m = random_int_matrix(rng, rng.randint(1, 4))
            x = [rng.randint(-3, 3) for _ in range(m.ncols)]
            b = m.apply([Fraction(v) for v in x])
            res = solve_linear(m, b)
            assert res is not None
            sol, _ = res
            assert m.apply(sol) == b


class TestMatrixBasics:
    def test_inverse(self):
        rng = random.Random(2)
        for _ in range(15):
            m = random_invertible(rng, rng.randint(1, 4))
            assert (m * m.inverse()).is_identity()

    def test_det_multiplicative(self):
        rng = random.Random(4)
        for _ in range(15):
            a = random_int_matrix(rng, 3)
            b = random_int_matrix(rng, 3)
            assert (a * b).det() == a.det() * b.det()

    def test_matrices_hashable_and_immutable(self):
        m = RatMatrix.identity(3)
        assert m in {m}
        with pytest.raises(Exception):
            m.rows = ()

    def test_stored_form_and_view_are_immutable(self):
        m = RatMatrix.from_rows([[Fraction(1, 2), 3], [0, -1]])
        before = hash(m)
        assert isinstance(m.rows, tuple) and all(isinstance(r, tuple) for r in m.rows)
        for name, value in (("num", ((0, 0), (0, 0))), ("den", 1), ("rows", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, value)
        assert hash(m) == before and m == RatMatrix.from_integer_form([[1, 6], [0, -2]], 2)

    def test_shapes_without_rows_or_columns(self):
        # n x 0: rows of width zero
        tall = RatMatrix.from_rows([[], [], []])
        assert (tall.nrows, tall.ncols) == (3, 0)
        assert tall == RatMatrix.from_integer_form([[], [], []], 4) == RatMatrix.zeros(3, 0)
        assert tall.integer_form == (((), (), ()), 1)
        assert tall.rows == ((), (), ())
        assert hash(tall) == hash(RatMatrix.zeros(3, 0))
        assert tall.is_zero() and not tall.is_square
        ker, im = kernel_and_image(tall)
        assert ker == Subspace.zero(0) and im == Subspace.zero(3)
        # 0 x n: a matrix without rows has no columns either
        empty = RatMatrix.from_rows([])
        assert (empty.nrows, empty.ncols) == (0, 0)
        assert empty == RatMatrix(()) == RatMatrix.zeros(0, 4) == tall.transpose()
        assert empty.rows == () and empty.is_identity() and empty.is_scalar()
        assert tall * empty == tall
        assert empty.det() == 1 and empty.inverse() == empty
