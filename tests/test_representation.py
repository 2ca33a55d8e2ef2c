import random
from fractions import Fraction

import pytest

from holonomy.linalg import RatMatrix
from holonomy.representation import (
    AssumptionSet,
    ValidationError,
    benzecri_suspend,
    canonicalize_projective_class,
    embed_linear_as_affine,
    radiant_fixed_point,
    validate_rep,
)

from helpers import frac_rows, random_invertible


class TestValidateRep:
    def test_identity_projective(self):
        rep = validate_rep([("a", RatMatrix.identity(4))], "projective-class", 3)
        assert rep.matrix_size == 4
        assert rep.matrices[0].is_identity()

    def test_singular_generator(self):
        with pytest.raises(ValidationError, match="not invertible"):
            validate_rep([("bad", RatMatrix.zeros(3, 3))], "projective-class", 2)

    def test_wrong_shape(self):
        with pytest.raises(ValidationError, match="expected 4x4"):
            validate_rep([("g", RatMatrix.identity(3))], "projective-class", 3)

    def test_bad_affine_last_row(self):
        m = frac_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
        with pytest.raises(ValidationError, match="homogeneous-affine"):
            validate_rep([("g", m)], "affine", 2)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            validate_rep([], "spherical", 3)

    def test_unknown_assumption_flag(self):
        with pytest.raises(ValidationError, match="unknown assumption"):
            AssumptionSet.from_dict({"compactt": True})


class TestCanonicalize:
    def test_negative_scalar_matrix(self):
        assert canonicalize_projective_class(frac_rows([[-2, 0], [0, -2]])).is_identity()

    def test_fractional_identity(self):
        m = RatMatrix.identity(4).scale(Fraction(1, 3))
        assert canonicalize_projective_class(m).is_identity()

    def test_sign_rule_on_first_nonzero(self):
        m = frac_rows([[0, -4], [2, 0]])
        assert canonicalize_projective_class(m) == frac_rows([[0, 2], [-1, 0]])

    def test_idempotent_and_class_invariant(self):
        rng = random.Random(17)
        for _ in range(20):
            m = random_invertible(rng, 3)
            canon = canonicalize_projective_class(m)
            assert canonicalize_projective_class(canon) == canon
            for lam in (Fraction(2), Fraction(-1), Fraction(3, 7), Fraction(-5, 2)):
                assert canonicalize_projective_class(m.scale(lam)) == canon


class TestSuspension:
    def test_trivial_holonomy(self):
        susp = benzecri_suspend(validate_rep([], "projective-class", 3))
        assert susp.kind == "linear" and susp.dimension == 4
        assert [g.label for g in susp.generators] == ["deck"]
        assert susp.matrices[0] == RatMatrix.identity(4).scale(2)

    def test_one_generator(self):
        g = frac_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        susp = benzecri_suspend(validate_rep([("g", g)], "projective-class", 2))
        assert susp.matrices == (g, RatMatrix.identity(3).scale(2))

    def test_kind_mismatch_rejected(self):
        linear = benzecri_suspend(validate_rep([], "projective-class", 2))
        with pytest.raises(ValidationError):
            benzecri_suspend(linear)

    def test_deck_generator_is_central(self):
        rng = random.Random(19)
        g = canonicalize_projective_class(random_invertible(rng, 4))
        susp = benzecri_suspend(validate_rep([("g", g)], "projective-class", 3))
        deck = susp.matrices[-1]
        for m in susp.matrices:
            assert m * deck == deck * m

    def test_configurable_factor(self):
        susp = benzecri_suspend(
            validate_rep([], "projective-class", 2), factor=Fraction(3, 2)
        )
        assert susp.matrices[0] == RatMatrix.identity(3).scale(Fraction(3, 2))


class TestRadiantFixedPoint:
    def test_linear_rep_fixes_origin(self):
        rep = validate_rep([("a", frac_rows([[2, 1], [1, 1]]))], "linear", 2)
        assert radiant_fixed_point(embed_linear_as_affine(rep)) == (0, 0)

    def test_no_generators_fix_the_origin(self):
        # the trivial group fixes every point; the origin is the one returned
        for n in (1, 3):
            assert radiant_fixed_point(validate_rep([], "affine", n)) == (0,) * n

    def test_pure_translation_has_no_fixed_point(self):
        t = frac_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        assert radiant_fixed_point(validate_rep([("t", t)], "affine", 2)) is None

    def test_dilation_with_translation(self):
        # (2I - I) x = -(1, 0) solved directly
        g = frac_rows([[2, 0, 1], [0, 2, 0], [0, 0, 1]])
        assert radiant_fixed_point(validate_rep([("g", g)], "affine", 2)) == (-1, 0)

    def test_suspension_is_radiant_at_origin(self):
        rng = random.Random(29)
        g = canonicalize_projective_class(random_invertible(rng, 4))
        susp = benzecri_suspend(validate_rep([("g", g)], "projective-class", 3))
        assert radiant_fixed_point(embed_linear_as_affine(susp)) == (0, 0, 0, 0)
