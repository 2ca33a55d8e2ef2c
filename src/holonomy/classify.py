"""Decision procedures for projective holonomy in dimensions 2 and 3.

The classifiers suspend the input to a radiant linear representation,
compute the commutant model of the automorphism algebra, and walk a case
analysis: a non-solvability probe through rotational elements, flag
constructions from a noncommutative nilpotent radical, and a zero-set
dimension analysis in the commutative case. Every verdict carries
re-verifiable certificates and the list of declared geometric assumptions
it consumed; Undetermined is always a legal outcome and is preferred to an
unverified claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .commutant import (
    AlgebraBasis,
    Certificate,
    Decomposition,
    Flag,
    FixedProjectivePointCertificate,
    InvariantFlagCertificate,
    InvariantSubspaceCertificate,
    centralizer_algebra,
    dickson_radical,
    find_rotational_element,
    invariant_flag_search,
    verify_certificate,
    verify_flag_invariant,
)
from .linalg import (
    RatMatrix,
    Subspace,
    Vec,
    image_of,
    is_zero_vec,
    kernel_of,
    restrict_to_subspace,
    solve_linear,
    vectorize,
    zero_vec,
)
from .polys import characteristic_polynomial, factor_polynomial
from .representation import (
    KIND_PROJECTIVE,
    AffineField,
    AssumptionSet,
    Representation,
    ValidationError,
    benzecri_suspend,
)

BRANCH_NOT_SOLVABLE = "NotSolvableAut"
BRANCH_SOLVABLE_NONCOMMUTATIVE = "SolvableNoncommutativeAut"
BRANCH_COMMUTATIVE = "CommutativeAut"
BRANCH_AUT_TOO_SMALL = "AutTooSmall"

CONCLUSION_SPHERICAL = "SphericalManifold"
CONCLUSION_S2XS1 = "S2xS1"
CONCLUSION_TORUS_BUNDLE_COVER = "TorusBundleFiniteCover"
CONCLUSION_T2_BUNDLE = "T2BundleOverS1"
CONCLUSION_TORUS_OR_SPHERE = "TorusOrSphere"
CONCLUSION_SOLVABLE_PI1 = "SolvableFundamentalGroup"
CONCLUSION_UNDETERMINED = "Undetermined"

# Emitted verbatim as a disjunction: no finite procedure separates the three.
DIM3_DISJUNCTION = "|".join(
    [CONCLUSION_SPHERICAL, CONCLUSION_S2XS1, CONCLUSION_TORUS_BUNDLE_COVER]
)


class CaseAnalysisError(ValueError):
    """A flag construction was fed data outside its exhaustive case split."""


@dataclass(frozen=True)
class Outcome:
    """Classification verdict: the branch of machinery that decided, the
    conclusion label, the certificates backing it, and the declared
    assumptions it consumed. The centralizer of the suspension and its
    radical split are carried along for reports; they take no part in ==."""

    branch: str
    conclusion: str
    certificates: tuple[Certificate, ...]
    assumptions_used: tuple[str, ...]
    notes: tuple[str, ...]
    commutant: AlgebraBasis = field(compare=False)
    decomposition: Decomposition = field(compare=False)


@dataclass(frozen=True)
class ZeroSet:
    """Solution set of L x + c = 0: affine dimension (None when empty), a
    particular point, and the direction space Ker L."""

    dim: int | None
    point: Vec | None
    direction_space: Subspace

    @property
    def is_empty(self) -> bool:
        return self.dim is None


@dataclass(frozen=True)
class ZeroSetAnalysis:
    base: ZeroSet
    shifts: tuple[tuple[Fraction, ZeroSet], ...]

    def first_nonempty(self) -> tuple[Fraction, ZeroSet] | None:
        if not self.base.is_empty:
            return Fraction(0), self.base
        for c, zs in self.shifts:
            if not zs.is_empty:
                return c, zs
        return None


def _solve_zero_set(f: AffineField) -> ZeroSet:
    res = solve_linear(f.linear_part, tuple(-c for c in f.constant_part))
    if res is None:
        return ZeroSet(None, None, kernel_of(f.linear_part))
    point, null = res
    return ZeroSet(null.dim, point, null)


def zero_set_of_affine_field(
    f: AffineField, lattice: tuple[int, ...] = (-2, -1, 1, 2)
) -> ZeroSetAnalysis:
    """Zero set of an affine field, plus its radial-shift variants.

    The shifts f + c * (I, 0) are tried for c over the negated rational
    eigenvalues of the linear part (the shifts that can produce a
    positive-dimensional zero set) and over a small integer lattice (which
    restores solvability when the linear part is too degenerate, e.g. a
    pure translation field).
    """
    base = _solve_zero_set(f)
    eigen = []
    for fac in factor_polynomial(characteristic_polynomial(f.linear_part)):
        if fac.poly.degree == 1:
            eigen.append(-fac.poly.coeffs[0])
    shift_values = sorted(
        (set(-e for e in eigen) | {Fraction(c) for c in lattice}) - {Fraction(0)}
    )
    shifts = tuple((c, _solve_zero_set(f.shifted(c))) for c in shift_values)
    return ZeroSetAnalysis(base, shifts)


def _require_m4(m: RatMatrix, name: str) -> None:
    if not m.is_square or m.nrows != 4:
        raise ValueError(f"{name} must be a 4x4 matrix")


def flag_from_nilpotent_pair(
    a: RatMatrix, b: RatMatrix, rep: Representation | None = None
) -> Flag:
    """Invariant flag from a square-zero noncommuting pair in dimension 4.

    Returns Ker(a) cap Ker(b) < Ker(a) < Ker(a) + Ker(b), of dimensions
    (1, 2, 3). Everything commuting with a and b preserves the chain.
    Kernel configurations outside the exhaustive case split (a kernel of
    dimension 3, or trivially intersecting kernels) are rejected.
    """
    _require_m4(a, "a")
    _require_m4(b, "b")
    if not (a * a).is_zero() or not (b * b).is_zero():
        raise ValueError("both squares must vanish")
    if a * b == b * a:
        raise ValueError("pair commutes")
    ka, kb = kernel_of(a), kernel_of(b)
    if ka.dim == 3 or kb.dim == 3:
        raise CaseAnalysisError(
            "case analysis: a kernel of dimension 3 forces a commuting pair"
        )
    inter = ka.intersect(kb)
    if inter.dim == 0:
        raise CaseAnalysisError("case analysis exhausted: kernels intersect trivially")
    if inter.dim != 1:
        raise CaseAnalysisError("case analysis: equal kernels force a commuting pair")
    return _checked(Flag((inter, ka, ka.add(kb))), rep)


def flag_from_nilpotent_element(a: RatMatrix, rep: Representation | None = None) -> Flag:
    """Invariant flag from a nilpotent 4x4 element with nonzero square.

    Kernel of dimension 1 gives Ker(a) < Ker(a^2) < Im(a); kernel of
    dimension 2 gives Ker(a) cap Im(a) < Ker(a) < Ker(a) + Im(a). Both are
    (1, 2, 3)-chains preserved by everything commuting with a.
    """
    _require_m4(a, "a")
    if any(characteristic_polynomial(a).coeffs[:-1]):  # nilpotent iff char = x^4
        raise ValueError("matrix is not nilpotent")
    if (a * a).is_zero():
        raise ValueError("square vanishes: use the pair construction instead")
    ka = kernel_of(a)
    if ka.dim == 1:
        flag = Flag((ka, kernel_of(a * a), image_of(a)))
    elif ka.dim == 2:
        ia = image_of(a)
        flag = Flag((ka.intersect(ia), ka, ka.add(ia)))
    else:
        raise CaseAnalysisError("case analysis: nilpotent with nonzero square has kernel dim 1 or 2")
    return _checked(flag, rep)


def _checked(flag: Flag, rep: Representation | None) -> Flag:
    """The flag, after checking its invariance under rep when one is given."""
    if rep is not None:
        ok, witness = verify_flag_invariant(rep, flag)
        if not ok:
            raise ValueError(f"flag not invariant under generator {witness[0]!r}")
    return flag


@dataclass
class _BranchResult:
    kind: str  # "flag" or "assumed"
    flag: Flag | None
    certificates: list[Certificate] = field(default_factory=list)
    needed: frozenset[str] = frozenset()
    notes: list[str] = field(default_factory=list)


def _independent_of(mats: list[RatMatrix], m: RatMatrix) -> bool:
    d = m.nrows
    span = Subspace.span([vectorize(x) for x in mats], d * d)
    return not span.contains(vectorize(m))


def _restriction_is_zero(m: RatMatrix, s: Subspace) -> bool:
    return all(is_zero_vec(m.apply(b)) for b in s.basis)


def _square_zero_elements(radical: AlgebraBasis) -> list[RatMatrix]:
    """One nonzero square-zero element per radical basis element n: n when
    n^2 = 0, else n^2 (a nilpotent matrix of size at most 4 has n^4 = 0)."""
    out = []
    for n in radical.basis:
        sq = n * n
        out.append(n if sq.is_zero() else sq)
    return out


def _zero_dim3_case(
    xt: RatMatrix, u: Subspace, lin_parts: list[RatMatrix], susp: Representation
) -> _BranchResult | None:
    ident = RatMatrix.identity(4)
    assumed: _BranchResult | None = None
    for y in lin_parts:
        if not _independent_of([ident, xt], y):
            continue
        # a radial shift killing a scalar restriction keeps the field
        # independent and moves it into the vanishing-restriction case
        restriction = restrict_to_subspace(y, u)
        if restriction.is_scalar():
            y = y - ident.scale(restriction.rows[0][0])
        if _restriction_is_zero(y, u):
            v = image_of(xt)
            w = image_of(y)
            if v.dim == 1 and w.dim == 1 and v.is_subspace_of(u) and w.is_subspace_of(u) and v != w:
                flag = Flag((v, v.add(w), u))
                if verify_flag_invariant(susp, flag)[0]:
                    return _BranchResult(
                        "flag",
                        flag,
                        notes=[
                            "zero set of dimension 3: the images of two independent"
                            " commuting fields inside it form an invariant complete flag"
                        ],
                    )
        elif assumed is None:
            assumed = _BranchResult(
                "assumed",
                None,
                certificates=[InvariantSubspaceCertificate(u)],
                needed=frozenset({"developing_map_injective", "compact"}),
                notes=[
                    "zero set of dimension 3 with a second field restricting"
                    " nontrivially: the quotient surface inherits nondiscrete"
                    " automorphisms, so its fundamental group is solvable and the"
                    " restriction exact sequence makes the whole group solvable"
                ],
            )
    return assumed


def _equal_diagonal_blocks(xt: RatMatrix, u: Subspace, susp: Representation) -> bool:
    """In a basis (u1, u2, w1, w2) with xt(wi) = ui, check that every
    generator is block upper triangular with equal diagonal blocks."""
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
    for g in susp.matrices:
        h = pinv * g * p
        for i in range(2, 4):
            for j in range(2):
                if h.rows[i][j] != 0:
                    return False
        if any(h.rows[i][j] != h.rows[i + 2][j + 2] for i in range(2) for j in range(2)):
            return False
    return True


def _zero_dim2_case(
    xt: RatMatrix, u: Subspace, lin_parts: list[RatMatrix], susp: Representation
) -> _BranchResult | None:
    ident = RatMatrix.identity(4)
    im = image_of(xt)
    inter = u.intersect(im)
    if inter.dim == 1:
        flag = Flag((inter, u, u.add(im)))
        if verify_flag_invariant(susp, flag)[0]:
            return _BranchResult(
                "flag",
                flag,
                notes=[
                    "zero set of dimension 2 meeting the image of the field in a"
                    " line: the chain line < zero set < zero set + image is invariant"
                ],
            )
        return None
    if u == im:
        notes = [
            "zero set equals the image of the field: commuting matrices are block"
            " upper triangular with equal diagonal blocks in an adapted basis, and"
            " the diagonal action lies in the holonomy of a closed surface"
        ]
        if _equal_diagonal_blocks(xt, u, susp):
            notes.append("equal-diagonal-block form verified in an adapted basis")
        return _BranchResult(
            "assumed",
            None,
            certificates=[InvariantSubspaceCertificate(u)],
            needed=frozenset({"developing_map_injective", "compact"}),
            notes=notes,
        )
    # complementary case: R^4 = U + Im(xt)
    rx = restrict_to_subspace(xt, im)
    for y in lin_parts:
        if not _independent_of([ident, xt], y):
            continue
        ry = restrict_to_subspace(y, im)
        if not rx.is_scalar() or not ry.is_scalar():
            return _BranchResult(
                "assumed",
                None,
                certificates=[
                    InvariantSubspaceCertificate(u),
                    InvariantSubspaceCertificate(im),
                ],
                needed=frozenset({"developing_map_injective", "compact"}),
                notes=[
                    "zero set complementary to the image: a field restricts"
                    " non-scalar to one block, so the holonomy restriction there is"
                    " commutative, and the other block lies in the holonomy of a"
                    " closed surface"
                ],
            )
        scalar = ry.rows[0][0]
        z = y - ident.scale(scalar)
        if z.is_zero():
            continue
        rzu = restrict_to_subspace(z, u)
        if rzu.is_scalar():
            continue
        return _BranchResult(
            "assumed",
            None,
            certificates=[
                InvariantSubspaceCertificate(u),
                InvariantSubspaceCertificate(im),
            ],
            needed=frozenset({"developing_map_injective", "compact"}),
            notes=[
                "zero set complementary to the image with scalar restrictions:"
                " subtracting the scalar yields a field vanishing on the image and"
                " non-scalar on the zero set, reducing to the non-scalar case"
            ],
        )
    return None


def _zero_dim1_case(
    xt: RatMatrix,
    u: Subspace,
    lin_parts: list[RatMatrix],
    susp: Representation,
    decomp: Decomposition,
) -> _BranchResult | None:
    ident = RatMatrix.identity(4)
    discrepancy = (
        "one-dimensional zero set: the stated conclusion would be a nilpotent"
        " fundamental group, but the derivation reduces to the higher-dimensional"
        " zero-set analyses, which certify solvability; the verdict records"
        " SolvableFundamentalGroup"
    )
    reducers = _square_zero_elements(decomp.radical)
    if decomp.radical.dim == 0:
        for e in decomp.idempotent_witnesses:
            reducers.extend([e, e - ident])
    for a in reducers:
        k = kernel_of(a)
        sub = None
        if k.dim == 3:
            sub = _zero_dim3_case(a, k, lin_parts, susp)
        elif k.dim == 2:
            sub = _zero_dim2_case(a, k, lin_parts, susp)
        if sub is not None:
            sub.certificates.append(InvariantSubspaceCertificate(u))
            sub.notes.insert(0, discrepancy)
            return sub
    return None


def _commutative_branch(
    cent: AlgebraBasis,
    susp: Representation,
    decomp: Decomposition,
) -> _BranchResult | None:
    # The invariant affine fields of the suspension are (x, 0) for x in the
    # centralizer: invariance under the central generator k * I, k != 1,
    # forces k c = c for the constant part c.
    lin_parts = list(cent.basis)
    zero = zero_vec(cent.ambient_dim)
    assumed: _BranchResult | None = None
    for x in lin_parts:
        if x.is_scalar():
            continue
        f = AffineField(x, zero)
        analysis = zero_set_of_affine_field(f)
        variants = [(Fraction(0), analysis.base)] + list(analysis.shifts)
        for shift, zs in variants:
            # f and its shifts are (y, 0), so zs is never empty and passes the origin
            if zs.dim not in (1, 2, 3):
                continue
            u = zs.direction_space
            xt = f.shifted(shift).linear_part
            if zs.dim == 3:
                res = _zero_dim3_case(xt, u, lin_parts, susp)
            elif zs.dim == 2:
                res = _zero_dim2_case(xt, u, lin_parts, susp)
            else:
                res = _zero_dim1_case(xt, u, lin_parts, susp, decomp)
            if res is None:
                continue
            if res.kind == "flag":
                if shift != 0:
                    res.notes.append(f"zero set realized after radial shift by {shift}")
                return res
            if assumed is None:
                if shift != 0:
                    res.notes.append(f"zero set realized after radial shift by {shift}")
                assumed = res
    return assumed


def _flag_from_noncommutative_radical(
    radical: AlgebraBasis, susp: Representation
) -> tuple[Flag | None, list[str]]:
    basis = list(radical.basis)
    candidates = list(basis)
    for x, y in combinations(basis, 2):
        candidates.extend([x + y, x - y])
    for a in candidates:
        if not (a * a).is_zero():
            try:
                flag = flag_from_nilpotent_element(a, rep=susp)
            except (ValueError, CaseAnalysisError):
                continue
            return flag, [
                "noncommutative radical: a nilpotent element with nonzero square"
                " yields the invariant kernel-image chain"
            ]
    for x, y in combinations(basis, 2):
        if x * y == y * x:
            continue
        try:
            flag = flag_from_nilpotent_pair(x, y, rep=susp)
        except (ValueError, CaseAnalysisError):
            continue
        return flag, [
            "noncommutative radical of square-zero elements: a noncommuting pair"
            " yields the invariant kernel chain"
        ]
    return None, []


def _declared(asmp: AssumptionSet, names: frozenset[str]) -> bool:
    return all(getattr(asmp, n) for n in names)


def _finalize(
    rep: Representation,
    cent: AlgebraBasis,
    decomp: Decomposition,
    branch: str,
    conclusion: str,
    certificates: list[Certificate],
    used: set[str],
    notes: list[str],
) -> Outcome:
    """Final soundness gate: drop any certificate that fails re-verification
    against the input, and refuse a conclusion left without support."""
    verified: list[Certificate] = []
    for c in certificates:
        if verify_certificate(rep, c):
            verified.append(c)
        else:
            notes.append(f"dropped a certificate that failed re-verification: {type(c).__name__}")
    if conclusion != CONCLUSION_UNDETERMINED and not verified and not used:
        notes.append("conclusion withdrawn: no surviving certificate or declared assumption")
        conclusion = CONCLUSION_UNDETERMINED
    return Outcome(
        branch, conclusion, tuple(verified), tuple(sorted(used)), tuple(notes), cent, decomp
    )


def _suspension_data(
    rep: Representation, suspension_factor
) -> tuple[Representation, AlgebraBasis, Decomposition]:
    """The suspension, its centralizer and the centralizer's radical split.
    The centralizer contains the radial field I, so the automorphism model
    on the base (the centralizer modulo R*I) has dimension cent.dim - 1."""
    susp = benzecri_suspend(rep, factor=suspension_factor)
    cent = centralizer_algebra(susp)
    return susp, cent, dickson_radical(cent)


def classify_dim2(
    rep: Representation,
    assumptions: AssumptionSet | None = None,
    suspension_factor=2,
) -> Outcome:
    """Two-dimensional classification.

    With a nondiscrete automorphism model the holonomy fixes a projective
    point: either the image line of a square-zero radical element, or the
    one-dimensional eigenspace of a nontrivial idempotent. With the compact,
    connected, oriented declarations the conclusion is TorusOrSphere.
    """
    if rep.kind != KIND_PROJECTIVE:
        raise ValidationError("kind must be projective-class")
    if rep.dimension != 2:
        raise ValidationError("dimension must be 2")
    asmp = assumptions if assumptions is not None else rep.assumptions
    susp, cent, decomp = _suspension_data(rep, suspension_factor)
    notes: list[str] = []
    if cent.dim - 1 < 1:
        return _finalize(
            rep,
            cent,
            decomp,
            BRANCH_AUT_TOO_SMALL,
            CONCLUSION_UNDETERMINED,
            [],
            set(),
            ["automorphism model is the radial line only: nondiscreteness hypothesis unmet"],
        )
    certificates: list[Certificate] = []
    branch = BRANCH_COMMUTATIVE
    point: Vec | None = None
    if decomp.radical.dim > 0:
        branch = BRANCH_SOLVABLE_NONCOMMUTATIVE
        point = image_of(_square_zero_elements(decomp.radical)[0]).basis[0]
        notes.append(
            "nonzero radical: the image line of a square-zero element is fixed by"
            " the holonomy"
        )
    else:
        for e in decomp.idempotent_witnesses:
            ident = RatMatrix.identity(cent.ambient_dim)
            for eigen_kernel in (kernel_of(e), kernel_of(e - ident)):
                if eigen_kernel.dim == 1:
                    point = eigen_kernel.basis[0]
                    break
            if point is not None:
                break
        if point is None:
            notes.append(
                "semisimple model of dimension >= 2 but the bounded idempotent"
                " search found no witness: no conclusion is asserted"
            )
            return _finalize(rep, cent, decomp, branch, CONCLUSION_UNDETERMINED, [], set(), notes)
        notes.append(
            "trivial radical: a nontrivial idempotent has a one-dimensional"
            " eigenspace fixed by the holonomy"
        )
    certificates.append(FixedProjectivePointCertificate(point))
    needed = frozenset({"compact", "connected", "oriented"})
    if _declared(asmp, needed):
        notes.append("branch label records the machinery that produced the certificate")
        return _finalize(
            rep, cent, decomp, branch, CONCLUSION_TORUS_OR_SPHERE, certificates, set(needed), notes
        )
    notes.append(
        "invariant projective point certified; the topological conclusion needs"
        " the compact, connected, oriented declarations"
    )
    return _finalize(rep, cent, decomp, branch, CONCLUSION_UNDETERMINED, certificates, set(), notes)


def classify_dim3(
    rep: Representation,
    assumptions: AssumptionSet | None = None,
    suspension_factor=2,
    search_bound: int = 2,
) -> Outcome:
    """Three-dimensional classification pipeline.

    (a) suspend; (b) require an automorphism model of dimension >= 2;
    (c) probe for a rotational element: with a declared avoidance of its
    fixed space the manifold fibers over the circle with torus fiber;
    (d) a noncommutative radical yields an invariant complete flag;
    (e) a commutative model goes through the zero-set dimension analysis;
    (f) a certified solvable holonomy plus the injective-developing-map and
    compactness declarations upgrades to the three-way disjunction.
    """
    if rep.kind != KIND_PROJECTIVE:
        raise ValidationError("kind must be projective-class")
    if rep.dimension != 3:
        raise ValidationError("dimension must be 3")
    asmp = assumptions if assumptions is not None else rep.assumptions
    susp, cent, decomp = _suspension_data(rep, suspension_factor)
    notes: list[str] = []
    certificates: list[Certificate] = []
    used: set[str] = set()
    if cent.dim - 1 < 2:
        return _finalize(
            rep,
            cent,
            decomp,
            BRANCH_AUT_TOO_SMALL,
            CONCLUSION_UNDETERMINED,
            [],
            set(),
            ["automorphism model has dimension < 2: the dimension hypothesis is unmet"],
        )

    rot = find_rotational_element(cent, rep=susp, bound=search_bound)
    if rot is not None:
        certificates.append(rot)
        if rot.fixed_space.dim >= 1 and asmp.developing_image_avoids_fixed_space and asmp.compact:
            used |= {"developing_image_avoids_fixed_space", "compact"}
            if asmp.connected:
                used.add("connected")
            notes.append(
                "rotational element with the declared avoidance of its fixed"
                " space: two commuting fields act locally freely, so a finite"
                " cover fibers over the circle with torus fiber"
            )
            return _finalize(
                rep, cent, decomp, BRANCH_NOT_SOLVABLE, CONCLUSION_T2_BUNDLE, certificates, used,
                notes,
            )
        if rot.fixed_space.dim == 0:
            notes.append(
                "rotational element acts without nonzero fixed vectors; the"
                " fixed-space avoidance analysis does not apply"
            )
        else:
            notes.append(
                "rotational element found; if the developing map is injective and"
                " its image meets the fixed space, the holonomy is solvable"
            )

    radical_noncommutative = decomp.radical.dim > 0 and not decomp.radical.is_commutative()
    flag: Flag | None = None
    branch: str | None = None
    assumed: _BranchResult | None = None

    if radical_noncommutative:
        branch = BRANCH_SOLVABLE_NONCOMMUTATIVE
        flag, extra = _flag_from_noncommutative_radical(decomp.radical, susp)
        notes.extend(extra)
    elif cent.is_commutative():
        branch = BRANCH_COMMUTATIVE
        res = _commutative_branch(cent, susp, decomp)
        if res is not None:
            certificates.extend(res.certificates)
            notes.extend(res.notes)
            if res.kind == "flag":
                flag = res.flag
            else:
                assumed = res

    if flag is None:
        general = invariant_flag_search(susp, cent)
        if general is not None:
            if general.complete:
                flag = general
                notes.append("complete invariant flag found by direct search")
            else:
                certificates.append(InvariantFlagCertificate(general))
                notes.append(
                    "partial invariant flag found; it does not certify solvability"
                )
    if flag is not None:
        certificates.append(InvariantFlagCertificate(flag))

    if branch is None:
        if not decomp.quotient_commutative:
            branch = BRANCH_NOT_SOLVABLE
            notes.append(
                "noncommutative semisimple part: the automorphism model is not"
                " solvable"
                + ("" if rot is not None else "; no rotational witness within the search bound")
            )
        else:
            branch = BRANCH_SOLVABLE_NONCOMMUTATIVE
            notes.append(
                "algebra noncommutative only through mixed radical terms; no"
                " dedicated analysis applies"
            )

    solvable = flag is not None and flag.complete
    if not solvable and assumed is not None and _declared(asmp, assumed.needed):
        solvable = True
        used |= set(assumed.needed)
        notes.append("solvability concluded from the declared geometric hypotheses")

    if solvable:
        if asmp.developing_map_injective and asmp.compact:
            used |= {"developing_map_injective", "compact"}
            notes.append(
                "solvable holonomy with an injective developing map on a compact"
                " manifold: the homeomorphism type is one of the listed three;"
                " the connected sum of two projective 3-spaces is excluded since"
                " it carries no projective structure (Benoist; Cooper-Goldman)"
            )
            return _finalize(rep, cent, decomp, branch, DIM3_DISJUNCTION, certificates, used, notes)
        if flag is not None and flag.complete:
            notes.append(
                "the invariant complete flag certifies solvability of the"
                " holonomy image of the suspension"
            )
        return _finalize(
            rep, cent, decomp, branch, CONCLUSION_SOLVABLE_PI1, certificates, used, notes
        )

    if branch == BRANCH_COMMUTATIVE and assumed is None and flag is None:
        notes.append(
            "commutative model but no rational zero set of dimension 1 to 3 was"
            " realizable within the shift bounds; a freely acting pair of fields"
            " would make a torus bundle, which is not decidable from generators"
        )
    if assumed is not None and not _declared(asmp, assumed.needed):
        missing = sorted(set(assumed.needed) - {n for n in assumed.needed if getattr(asmp, n)})
        notes.append(
            "the zero-set analysis applies but needs undeclared hypotheses: "
            + ", ".join(missing)
        )
    return _finalize(rep, cent, decomp, branch, CONCLUSION_UNDETERMINED, certificates, used, notes)
