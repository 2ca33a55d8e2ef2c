import random
from fractions import Fraction

import pytest

from holonomy.linalg import RatMatrix
from holonomy.representation import (
    AssumptionSet,
    ValidationError,
    benzecri_suspend,
    canonicalize_projective_class,
    develop_eval,
    embed_affine_as_projective,
    embed_linear_as_affine,
    lift_to_sphere,
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


class TestLiftToSphere:
    def test_single_generator_two_lifts(self):
        rep = validate_rep([("a", RatMatrix.identity(4))], "projective-class", 3)
        lifts = lift_to_sphere(rep)
        assert len(lifts) == 2
        assert lifts[0].matrices[0].is_identity()
        assert lifts[1].matrices[0] == RatMatrix.identity(4).scale(-1)
        assert all(l.kind == "linear" and l.dimension == 4 for l in lifts)

    def test_selection_count(self):
        gens = [("a", frac_rows([[1, 1], [0, 1]])), ("b", frac_rows([[1, 0], [1, 1]]))]
        rep = validate_rep(gens, "projective-class", 1)
        assert len(lift_to_sphere(rep)) == 4

    def test_selection_count_is_bounded(self):
        gens = [(f"g{i}", frac_rows([[1, i], [0, 1]])) for i in range(7)]
        rep = validate_rep(gens, "projective-class", 1)
        assert len(lift_to_sphere(validate_rep(gens[:6], "projective-class", 1))) == 64
        with pytest.raises(ValidationError, match="128 lift selections exceed max_selections=64"):
            lift_to_sphere(rep)

    def test_diagonal_sign_pair(self):
        m = frac_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
        rep = validate_rep([("s", m)], "projective-class", 3)
        lifts = lift_to_sphere(rep)
        assert {lifts[0].matrices[0], lifts[1].matrices[0]} == {m, m.scale(-1)}

    def test_rejects_linear_kind(self):
        rep = validate_rep([], "linear", 3)
        with pytest.raises(ValidationError):
            lift_to_sphere(rep)


class TestEmbedding:
    def test_linear_block_embedding(self):
        rep = validate_rep([("a", RatMatrix.identity(2).scale(2))], "linear", 2)
        emb = embed_affine_as_projective(rep)
        assert emb.kind == "projective-class"
        assert emb.generators[0].matrix == frac_rows([[2, 0, 0], [0, 2, 0], [0, 0, 1]])

    def test_affine_passthrough(self):
        t = frac_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        rep = validate_rep([("t", t)], "affine", 2)
        emb = embed_affine_as_projective(rep)
        assert emb.generators[0].matrix == t

    def test_empty(self):
        emb = embed_affine_as_projective(validate_rep([], "linear", 3))
        assert emb.generators == () and emb.dimension == 3

    def test_embed_then_lift_recovers_block(self):
        a = frac_rows([[2, 1], [1, 1]])  # integer, content 1, positive lead
        rep = validate_rep([("a", a)], "linear", 2)
        lifted = lift_to_sphere(embed_affine_as_projective(rep))[0]
        assert lifted.matrices[0] == frac_rows([[2, 1, 0], [1, 1, 0], [0, 0, 1]])


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

    def test_lift_selection(self):
        g = frac_rows([[1, 1], [0, 1]])
        rep = validate_rep([("g", g)], "projective-class", 1)
        susp = benzecri_suspend(rep, lift_signs=(-1,))
        assert susp.matrices[0] == g.scale(-1)


class TestRadiantFixedPoint:
    def test_linear_rep_fixes_origin(self):
        rep = validate_rep([("a", frac_rows([[2, 1], [1, 1]]))], "linear", 2)
        point, translation = radiant_fixed_point(embed_linear_as_affine(rep))
        assert point == (0, 0) and translation == (0, 0)

    def test_pure_translation_has_no_fixed_point(self):
        t = frac_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
        assert radiant_fixed_point(validate_rep([("t", t)], "affine", 2)) is None

    def test_dilation_with_translation(self):
        # (2I - I) x = -(1, 0) solved directly
        g = frac_rows([[2, 0, 1], [0, 2, 0], [0, 0, 1]])
        point, translation = radiant_fixed_point(validate_rep([("g", g)], "affine", 2))
        assert point == (-1, 0)
        assert translation == point

    def test_suspension_is_radiant_at_origin(self):
        rng = random.Random(29)
        g = canonicalize_projective_class(random_invertible(rng, 4))
        susp = benzecri_suspend(validate_rep([("g", g)], "projective-class", 3))
        point, _ = radiant_fixed_point(embed_linear_as_affine(susp))
        assert point == (0, 0, 0, 0)


class TestDevelopEval:
    def test_identity_scale(self):
        assert develop_eval((1, 0, 0, 0), 1) == (1, 0, 0, 0)

    def test_scaling(self):
        assert develop_eval((0, 1, 0, 0), 2) == (0, 2, 0, 0)
        assert develop_eval((1, 1, 0, 0), Fraction(1, 2)) == (
            Fraction(1, 2),
            Fraction(1, 2),
            0,
            0,
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            develop_eval((1, 0), 0)
        with pytest.raises(ValueError):
            develop_eval((0, 0), 1)
