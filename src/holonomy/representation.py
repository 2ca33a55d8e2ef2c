"""Holonomy data for flat structures.

A Representation is a finitely generated matrix group presentation over Q,
of one of three kinds:

* ``linear``            d x d invertible matrices acting on R^d,
* ``affine``            homogeneous (n+1) x (n+1) matrices with last row (0..0 1),
* ``projective-class``  (n+1) x (n+1) matrices taken up to nonzero scale.

The module also provides the constructions relating them: the scale-canonical
representative of a projective class, the view of linear data as affine with
zero translations, the suspension that turns an n-dimensional
projective-class representation into a radiant linear one in dimension n+1
(new central generator 2*I) and common fixed points of affine
representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .linalg import RatMatrix, Vec, numerator_vector, solve_linear, to_fraction, zero_vec

KIND_LINEAR = "linear"
KIND_AFFINE = "affine"
KIND_PROJECTIVE = "projective-class"
KINDS = (KIND_LINEAR, KIND_AFFINE, KIND_PROJECTIVE)


_DECK_LABEL = "deck"  # the suspension's central generator


class ValidationError(ValueError):
    """Raised when raw input does not form a valid representation."""


ASSUMPTION_NAMES = (
    "developing_map_injective",
    "compact",
    "oriented",
    "connected",
    "developing_image_avoids_fixed_space",
)


@dataclass(frozen=True)
class AssumptionSet:
    """Declared geometric hypotheses. Purely declarative: they are never
    inferred from generators, only recorded into the verdicts that use them.

    ``developing_image_avoids_fixed_space`` declares that the developing
    image misses the fixed subspace of a detected circle direction; it is
    the input the fiber-bundle branch of the dimension-3 classifier needs.
    """

    developing_map_injective: bool = False
    compact: bool = False
    oriented: bool = False
    connected: bool = False
    developing_image_avoids_fixed_space: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in ASSUMPTION_NAMES}

    @staticmethod
    def from_dict(d: dict[str, bool]) -> "AssumptionSet":
        unknown = sorted(set(d) - set(ASSUMPTION_NAMES))
        if unknown:
            raise ValidationError(f"unknown assumption flags: {', '.join(unknown)}")
        for k, v in d.items():
            if not isinstance(v, bool):
                raise ValidationError(f"assumption {k!r} must be a boolean")
        return AssumptionSet(**d)


@dataclass(frozen=True)
class Generator:
    label: str
    matrix: RatMatrix


@dataclass(frozen=True)
class Representation:
    """A validated, finitely generated matrix group presentation."""

    dimension: int
    kind: str
    generators: tuple[Generator, ...]
    assumptions: AssumptionSet = field(default_factory=AssumptionSet)

    @property
    def matrix_size(self) -> int:
        return self.dimension if self.kind == KIND_LINEAR else self.dimension + 1

    @property
    def matrices(self) -> tuple[RatMatrix, ...]:
        return tuple(g.matrix for g in self.generators)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(g.label for g in self.generators)


def canonicalize_projective_class(m: RatMatrix) -> RatMatrix:
    """Scale-canonical representative of the class of an invertible matrix:
    integer entries, content 1, first nonzero entry (row-major) positive.
    Idempotent, and constant on the whole class {lambda * m, lambda != 0}."""
    # m = N / d, so the integer matrix N is in the class
    entries = numerator_vector(m)
    content = gcd(*entries)
    if content == 0:
        raise ValidationError("zero matrix has no projective class")
    if next(x for x in entries if x) < 0:
        content = -content
    return RatMatrix(tuple(tuple(x // content for x in row) for row in m.num))


def _check_affine_last_row(m: RatMatrix) -> None:
    if m.num[-1] != (0,) * (m.ncols - 1) + (m.den,):  # m = N / d
        raise ValidationError("not homogeneous-affine: last row must be (0, ..., 0, 1)")


def validate_rep(
    raw_generators,
    kind: str,
    dimension: int,
    assumptions: AssumptionSet | None = None,
) -> Representation:
    """Validate (label, RatMatrix) generator pairs into a Representation.

    Projective-class generators are stored in canonical scale. Errors name
    the offending generator.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}")
    if dimension < 1:
        raise ValidationError("dimension must be >= 1")
    size = dimension if kind == KIND_LINEAR else dimension + 1
    gens = []
    for label, matrix in raw_generators:
        if matrix.nrows != size or matrix.ncols != size:
            raise ValidationError(
                f"generator {label!r}: expected {size}x{size}, got {matrix.nrows}x{matrix.ncols}"
            )
        if matrix.det() == 0:
            raise ValidationError(f"generator {label!r} not invertible")
        if kind == KIND_AFFINE:
            _check_affine_last_row(matrix)
        if kind == KIND_PROJECTIVE:
            matrix = canonicalize_projective_class(matrix)
        gens.append(Generator(label, matrix))
    return Representation(dimension, kind, tuple(gens), assumptions or AssumptionSet())


def _block_with_one(m: RatMatrix) -> RatMatrix:
    """diag(m, 1), which is diag(N, d) / d for m = N / d."""
    return RatMatrix(tuple(r + (0,) for r in m.num) + ((0,) * m.nrows + (m.den,),), m.den)


def embed_linear_as_affine(rep: Representation) -> Representation:
    """View a linear representation on R^d as an affine one with zero
    translations, in homogeneous (d+1) x (d+1) form."""
    if rep.kind != KIND_LINEAR:
        raise ValidationError("kind must be linear")
    gens = tuple(Generator(g.label, _block_with_one(g.matrix)) for g in rep.generators)
    return Representation(rep.dimension, KIND_AFFINE, gens, rep.assumptions)


def benzecri_suspend(rep: Representation, factor: Fraction | int = 2) -> Representation:
    """Benzecri suspension at the holonomy level.

    The n-dimensional projective-class input becomes a linear representation
    in dimension n+1 whose generators are the canonical representatives of
    the classes plus one extra central generator factor * I, the image of the
    circle deck transformation. The output fixes the origin, i.e. it is
    radiant. Each class has the two sphere lifts g and -g, and the canonical
    g stands for both: X commutes with -g exactly when it commutes with g,
    so the centralizer that models the automorphism algebra is the same for
    every choice of signs (and -g keeps exactly the subspaces g keeps).
    """
    if rep.kind != KIND_PROJECTIVE:
        raise ValidationError("kind must be projective-class")
    factor = to_fraction(factor)
    if factor <= 0 or factor == 1:
        raise ValidationError("suspension factor must be a positive rational != 1")
    size = rep.dimension + 1
    deck = Generator(_DECK_LABEL, RatMatrix.identity(size).scale(factor))
    return Representation(size, KIND_LINEAR, rep.generators + (deck,), rep.assumptions)


@dataclass(frozen=True)
class AffineField:
    """Affine vector field x -> L x + c."""

    linear_part: RatMatrix
    constant_part: Vec

    def __post_init__(self):
        if not self.linear_part.is_square or self.linear_part.nrows != len(self.constant_part):
            raise ValueError("field shape mismatch")

    @property
    def dim(self) -> int:
        return self.linear_part.nrows


def affine_parts(m: RatMatrix) -> tuple[RatMatrix, Vec]:
    """Split a homogeneous affine matrix into (linear part, translation)."""
    n = m.nrows - 1
    lin = RatMatrix.from_rows([row[:n] for row in m.rows[:n]])
    trans = tuple(m.rows[i][n] for i in range(n))
    return lin, trans


def radiant_fixed_point(rep: Representation) -> Vec | None:
    """Common fixed point of an affine representation, if one exists.

    Solves the joint system (L_i - I) x = -t_i over all generators. Returns
    the fixed point, which is also the translation that conjugates the
    representation to its linear part, or None when there is no common
    fixed point.
    """
    if rep.kind != KIND_AFFINE:
        raise ValidationError("kind must be affine (homogeneous form)")
    n = rep.dimension
    if not rep.generators:
        return zero_vec(n)
    rows: list[Vec] = []
    rhs: list[Fraction] = []
    for g in rep.generators:
        lin, trans = affine_parts(g.matrix)
        shifted = lin - RatMatrix.identity(n)
        rows.extend(shifted.rows)
        rhs.extend(-t for t in trans)
    res = solve_linear(RatMatrix.from_rows(rows), tuple(rhs))
    return None if res is None else res[0]
