"""Decision procedures for projective holonomy in dimensions 2 and 3.

The classifiers suspend the input to a radiant linear representation,
compute the commutant model of the automorphism algebra, and walk a case
analysis: a non-solvability probe through rotational elements, flag
constructions from a noncommutative nilpotent radical, and a zero-set
dimension analysis in the commutative case. The invariant fields of the
suspension commute with the radial field, so they are the linear fields
(x, 0) with x in the centralizer, and each zero set there is an eigenspace
Ker(x + c I), for c = 0 when x is singular or c = -lam over the nonzero
rational eigenvalues lam of x; its kernel and image come from one exact
RREF, and restrictions to it are tested on integer rows. Every verdict
carries re-verifiable certificates and the list of declared geometric
assumptions it consumed; Undetermined is always a legal outcome and is
preferred to an unverified claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations

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
)
from .linalg import (
    RatMatrix,
    Subspace,
    image_of,
    integer_matmul,
    kernel_and_image,
    nullspace,
    numerator_vector,
    rref,
)
from .polys import characteristic_polynomial, factor_polynomial
from .representation import (
    KIND_PROJECTIVE,
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

# The declarations that every zero-set analysis resting on geometry needs,
# and that upgrade certified solvability to DIM3_DISJUNCTION.
_INJECTIVE_COMPACT = frozenset({"developing_map_injective", "compact"})


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


def zero_set_of_affine_field(x: RatMatrix) -> list[Fraction]:
    """The shifts c for which the zero set Ker(x + c I) of the linear field
    x, radially shifted by c, is more than the origin: c = 0 first when 0 is
    an eigenvalue of x, then c = -lam over the nonzero rational eigenvalues
    lam of x, in increasing order. These are the constant terms of the
    monic linear factors of x's characteristic polynomial; for any other c,
    x + c I is invertible.

    The invariant fields of the suspension are linear, so this is the whole
    zero-set analysis of an affine field there. It returns a list, not a
    generator, so the factorization runs inside the call, where a tracer
    that wraps the call times it.
    """
    shifts = {
        fac.poly.coeffs[0]
        for fac in factor_polynomial(characteristic_polynomial(x))
        if fac.poly.degree == 1
    }
    return sorted(shifts, key=lambda c: (c != 0, c))


def _require_m4(m: RatMatrix, name: str) -> None:
    if not m.is_square or m.nrows != 4:
        raise ValueError(f"{name} must be a 4x4 matrix")


def flag_from_nilpotent_pair(a: RatMatrix, b: RatMatrix) -> Flag:
    """Invariant flag from a square-zero noncommuting pair in dimension 4.

    Returns Ker(a) cap Ker(b) < Ker(a) < Ker(a) + Ker(b), of dimensions
    (1, 2, 3). Every invertible matrix commuting with a and b maps each
    member onto itself, so for a pair from a centralizer the flag is
    invariant by construction and is not checked here. Kernel
    configurations outside the exhaustive case split (a kernel of
    dimension 3, or trivially intersecting kernels) are rejected.
    """
    _require_m4(a, "a")
    _require_m4(b, "b")
    if not (a * a).is_zero() or not (b * b).is_zero():
        raise ValueError("both squares must vanish")
    if a * b == b * a:
        raise ValueError("pair commutes")
    ka, kb = nullspace(*rref(a.num), a.ncols), nullspace(*rref(b.num), b.ncols)
    if ka.dim == 3 or kb.dim == 3:
        raise CaseAnalysisError(
            "case analysis: a kernel of dimension 3 forces a commuting pair"
        )
    inter = ka.intersect(kb)
    if inter.dim == 0:
        raise CaseAnalysisError("case analysis exhausted: kernels intersect trivially")
    if inter.dim != 1:
        raise CaseAnalysisError("case analysis: equal kernels force a commuting pair")
    return Flag((inter, ka, ka.add(kb)))


def flag_from_nilpotent_element(a: RatMatrix) -> Flag:
    """Invariant flag from a nilpotent 4x4 element with nonzero square.

    Kernel of dimension 1 gives Ker(a) < Ker(a^2) < Im(a); kernel of
    dimension 2 gives Ker(a) cap Im(a) < Ker(a) < Ker(a) + Im(a). Both are
    (1, 2, 3)-chains that every invertible matrix commuting with a maps
    onto themselves, so they are not checked here. No other kernel
    dimension occurs: a nilpotent rank-one matrix squares to zero.
    """
    _require_m4(a, "a")
    sq = a * a
    if not (sq * sq).is_zero():  # a 4x4 matrix is nilpotent iff a^4 = 0
        raise ValueError("matrix is not nilpotent")
    if sq.is_zero():
        raise ValueError("square vanishes: use the pair construction instead")
    return _element_flag(a, sq)


def _element_flag(a: RatMatrix, sq: RatMatrix) -> Flag:
    """flag_from_nilpotent_element's chain for a nilpotent 4x4 a with
    nonzero square sq = a * a, taken as given: a radical element is
    nilpotent, and its caller has formed sq already."""
    ka, ia = kernel_and_image(a)
    if ka.dim == 1:
        return Flag((ka, nullspace(*rref(sq.num), sq.ncols), ia))
    return Flag((ka.intersect(ia), ka, ka.add(ia)))


@dataclass
class _BranchResult:
    """What a zero-set analysis found: an invariant complete flag, or (flag
    None) invariant subspaces whose conclusion needs _INJECTIVE_COMPACT."""

    flag: Flag | None
    certificates: list[Certificate] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _square_zero_element(radical: AlgebraBasis) -> RatMatrix:
    """A nonzero square-zero element of a nonzero nilpotent radical: its first
    basis element n if n^2 = 0, else n^2 (a nilpotent 4x4 n has n^4 = 0)."""
    n = radical.basis[0]
    sq = n * n
    return n if sq.is_zero() else sq


def _outside_plane(xt: RatMatrix, lin_parts: list[RatMatrix]) -> list[RatMatrix]:
    """The elements of lin_parts outside span(I, xt), which is span(I, xt +
    cI) for every shift c."""
    plane = Subspace.span([numerator_vector(RatMatrix.identity(4)), numerator_vector(xt)], 16)
    return [y for y in lin_parts if not plane.contains(numerator_vector(y))]


def _scalar_on(y: RatMatrix, u: Subspace) -> Fraction | None:
    """The scalar by which y acts on the nonzero subspace u, or None when it
    acts otherwise. With N = y.num, b0 the first canonical row of u and p
    its pivot, y acts as a scalar iff (N b) b0[p] = (N b0)[p] b for every
    canonical row b: a check in integers."""
    images = integer_matmul(u.num, y.transpose().num)  # row i is N times row i of u
    b0 = u.num[0]
    p = next(i for i, x in enumerate(b0) if x)
    top, lam = b0[p], images[0][p]
    if any(x * top != lam * e for nb, b in zip(images, u.num) for x, e in zip(nb, b)):
        return None
    return Fraction(lam, top * y.den)


def _zero_dim3_case(xt: RatMatrix, u: Subspace, im: Subspace, outside: list[RatMatrix]) -> _BranchResult:
    """u = Ker xt has dimension 3, so xt = v phi with Ker phi = u and Im xt =
    im. A y outside span(I, xt) with y|u = c id gives y - cI = w phi, w not
    parallel to v; commuting with xt forces phi(w) v = phi(v) w, so phi(v) =
    phi(w) = 0 and Im xt, Im(y - cI) are distinct lines in u: the flag
    needs no test. Without such a y, some y outside span(I, xt) restricts
    non-scalar."""
    for y in outside:
        # a radial shift killing a scalar restriction keeps the field
        # independent and makes it vanish on u; a non-scalar restriction
        # is nonzero, so this is the only way to reach the vanishing case
        c = _scalar_on(y, u)
        if c is not None:
            w = image_of(y - RatMatrix.identity(4).scale(c))
            return _BranchResult(
                Flag((im, im.add(w), u)),
                notes=[
                    "zero set of dimension 3: the images of two independent"
                    " commuting fields inside it form an invariant complete flag"
                ],
            )
    return _BranchResult(
        None,
        certificates=[InvariantSubspaceCertificate(u)],
        notes=[
            "zero set of dimension 3 with a second field restricting"
            " nontrivially: the quotient surface inherits nondiscrete"
            " automorphisms, so its fundamental group is solvable and the"
            " restriction exact sequence makes the whole group solvable"
        ],
    )


def _zero_dim2_case(xt: RatMatrix, u: Subspace, im: Subspace, outside: list[RatMatrix]) -> _BranchResult:
    """u = Ker xt has dimension 2 and im = Im xt. In the last, complementary
    case Q^4 = u + im, the first y outside span(I, xt) decides: if xt|im = r
    id and y|im = s id, then z = y - sI vanishes on im, and z|u = t id would
    put y = (s + t)I - (t/r)xt in span(I, xt), so z|u is non-scalar without
    a test."""
    inter = u.intersect(im)
    if inter.dim == 1:
        return _BranchResult(
            Flag((inter, u, u.add(im))),
            notes=[
                "zero set of dimension 2 meeting the image of the field in a"
                " line: the chain line < zero set < zero set + image is invariant"
            ],
        )
    if u == im:
        # U = Im(xt), so some wi has xt(wi) = ui, and in the basis
        # (u1, u2, w1, w2) xt = [[0, I], [0, 0]]; g = [[A, B], [C, D]]
        # commutes with it iff C = 0 and D = A. Every generator of the
        # suspension commutes with every xt that reaches here, so the
        # equal-block form holds without a check.
        return _BranchResult(
            None,
            certificates=[InvariantSubspaceCertificate(u)],
            notes=[
                "zero set equals the image of the field: commuting matrices are"
                " block upper triangular with equal diagonal blocks in an adapted"
                " basis, and the diagonal action lies in the holonomy of a closed"
                " surface",
                "equal-diagonal-block form verified in an adapted basis",
            ],
        )
    if _scalar_on(xt, im) is not None and _scalar_on(outside[0], im) is not None:
        note = (
            "zero set complementary to the image with scalar restrictions:"
            " subtracting the scalar yields a field vanishing on the image and"
            " non-scalar on the zero set, reducing to the non-scalar case"
        )
    else:
        note = (
            "zero set complementary to the image: a field restricts"
            " non-scalar to one block, so the holonomy restriction there is"
            " commutative, and the other block lies in the holonomy of a"
            " closed surface"
        )
    return _BranchResult(
        None,
        certificates=[InvariantSubspaceCertificate(u), InvariantSubspaceCertificate(im)],
        notes=[note],
    )


def _zero_dim1_case(u: Subspace, lin_parts: list[RatMatrix], decomp: Decomposition) -> _BranchResult:
    """Reduce a one-dimensional zero set u to a kernel of dimension 2 or 3:
    that of a nonzero square-zero radical element (rank <= 2), or, for a
    zero radical, of the first idempotent witness e or of e - I (Ker(e - I)
    = Im e and Im(e - I) = Ker e, so dim Ker e + dim Ker(e - I) = 4). A zero
    radical makes C semisimple, so the element with eigenspace u has a
    squarefree minimal polynomial with a linear and another factor, from
    which the witness search builds an idempotent."""
    if decomp.radical.dim:
        a = _square_zero_element(decomp.radical)
        k, im = kernel_and_image(a)
    else:
        e = decomp.idempotent_witnesses[0]
        ker, img = kernel_and_image(e)
        a, k, im = (e, ker, img) if ker.dim > 1 else (e - RatMatrix.identity(4), img, ker)
    case = _zero_dim3_case if k.dim == 3 else _zero_dim2_case
    sub = case(a, k, im, _outside_plane(a, lin_parts))
    sub.certificates.append(InvariantSubspaceCertificate(u))
    sub.notes.insert(
        0,
        "one-dimensional zero set: the stated conclusion would be a nilpotent"
        " fundamental group, but the derivation reduces to the higher-dimensional"
        " zero-set analyses, which certify solvability; the verdict records"
        " SolvableFundamentalGroup",
    )
    return sub


def _commutative_branch(cent: AlgebraBasis, decomp: Decomposition) -> _BranchResult | None:
    """The first zero set whose analysis gives a flag, else the first
    assumption-backed result, else None. C is commutative, contains I and
    has dim C >= 3 (classify_dim3 stops at AutTooSmall otherwise), so for
    each non-scalar x some basis element lies outside span(I, x) and every
    case concludes. A zero set of dimension 1 enters its reduction only as
    an appended certificate, so only the first one is reduced."""
    # The invariant affine fields of the suspension are (x, 0) for x in the
    # centralizer: invariance under the central generator k * I, k != 1,
    # forces k c = c for the constant part c. The zero set of (x, 0) shifted
    # by c is the eigenspace Ker(x + c I), a line, plane or hyperplane.
    lin_parts = list(cent.basis)
    assumed: _BranchResult | None = None
    reduced = False
    for x in lin_parts:
        if x.is_scalar():
            continue
        outside: list[RatMatrix] | None = None
        for shift in zero_set_of_affine_field(x):
            xt = x + RatMatrix.identity(4).scale(shift) if shift else x
            u, im = kernel_and_image(xt)
            if u.dim == 1:
                if reduced:
                    continue
                res = _zero_dim1_case(u, lin_parts, decomp)
                reduced = True
            else:
                if outside is None:
                    outside = _outside_plane(x, lin_parts)
                case = _zero_dim3_case if u.dim == 3 else _zero_dim2_case
                res = case(xt, u, im, outside)
            if shift != 0:
                res.notes.append(f"zero set realized after radial shift by {shift}")
            if res.flag is not None:
                return res
            if assumed is None:
                assumed = res
    return assumed


def _flag_from_noncommutative_radical(radical: AlgebraBasis) -> tuple[Flag, list[str]]:
    """Invariant complete flag from a noncommutative nilpotent radical.

    A candidate a with a^2 != 0 has rank >= 2 (a nilpotent rank-one matrix
    squares to zero), so its kernel has dimension 1 or 2 and the element
    construction applies. If every candidate squares to zero, (x + y)^2 = 0
    gives xy = -yx, nonzero for a noncommuting basis pair, so Ker x cap Ker
    y contains Im(xy) != 0; a kernel of dimension 3 or two equal kernels
    would force xy = yx = 0, so the pair construction applies.
    """
    basis = list(radical.basis)
    pairs = (s for x, y in combinations(basis, 2) for s in (x + y, x - y))
    for a in chain(basis, pairs):
        sq = a * a
        if not sq.is_zero():
            return _element_flag(a, sq), [
                "noncommutative radical: a nilpotent element with nonzero square"
                " yields the invariant kernel-image chain"
            ]
    x, y = next((x, y) for x, y in combinations(basis, 2) if x * y != y * x)
    return flag_from_nilpotent_pair(x, y), [
        "noncommutative radical of square-zero elements: a noncommuting pair"
        " yields the invariant kernel chain"
    ]


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
    """Final soundness gate, and the only place classify verifies a
    certificate: drop any certificate that fails re-verification against
    the input, and refuse a conclusion left without support. The searches
    and flag constructions upstream do not check what they build; their
    candidates are invariant by construction."""
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


def classify_dim2(rep: Representation, suspension_factor=2) -> Outcome:
    """Two-dimensional classification.

    With a nondiscrete automorphism model the holonomy fixes a projective
    point: either the image line of a square-zero radical element, or the
    one-dimensional eigenspace of the first idempotent witness (a nontrivial
    idempotent on Q^3 has exactly one of Ker e and Im e a line). With the
    compact, connected, oriented declarations the conclusion is
    TorusOrSphere.
    """
    if rep.kind != KIND_PROJECTIVE:
        raise ValidationError("kind must be projective-class")
    if rep.dimension != 2:
        raise ValidationError("dimension must be 2")
    asmp = rep.assumptions
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
    branch = BRANCH_COMMUTATIVE
    if decomp.radical.dim > 0:
        branch = BRANCH_SOLVABLE_NONCOMMUTATIVE
        point = image_of(_square_zero_element(decomp.radical)).basis[0]
        notes.append(
            "nonzero radical: the image line of a square-zero element is fixed by"
            " the holonomy"
        )
    elif not decomp.idempotent_witnesses:
        notes.append(
            "semisimple model of dimension >= 2 but the bounded idempotent"
            " search found no witness: no conclusion is asserted"
        )
        return _finalize(rep, cent, decomp, branch, CONCLUSION_UNDETERMINED, [], set(), notes)
    else:
        ker, im = kernel_and_image(decomp.idempotent_witnesses[0])  # Im e = Ker(e - I)
        point = (ker if ker.dim == 1 else im).basis[0]
        notes.append(
            "trivial radical: a nontrivial idempotent has a one-dimensional"
            " eigenspace fixed by the holonomy"
        )
    certificates: list[Certificate] = [FixedProjectivePointCertificate(point)]
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


def classify_dim3(rep: Representation, suspension_factor=2, search_bound: int = 2) -> Outcome:
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
    asmp = rep.assumptions
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

    rot = find_rotational_element(cent, bound=search_bound)
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

    flag: Flag | None = None
    branch: str | None = None
    assumed: _BranchResult | None = None

    # the centralizer's test reads the products that the radical's quotient
    # test left in its memo (a centralizer is built without a closure
    # check, so only that test formed any); a commutative centralizer has a
    # commutative radical, so the radical is tested only when the
    # centralizer is not commutative, and a zero radical forms no product
    cent_commutative = cent.is_commutative()
    if not cent_commutative and not decomp.radical.is_commutative():
        branch = BRANCH_SOLVABLE_NONCOMMUTATIVE
        flag, extra = _flag_from_noncommutative_radical(decomp.radical)
        notes.extend(extra)
    elif cent_commutative:
        branch = BRANCH_COMMUTATIVE
        res = _commutative_branch(cent, decomp)
        if res is not None:
            certificates.extend(res.certificates)
            notes.extend(res.notes)
            if res.flag is not None:
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

    # flag is only ever a complete flag: a (1, 2, 3)-chain from the radical
    # or a zero set, or the direct search's result when it is complete
    declared = _declared(asmp, _INJECTIVE_COMPACT)
    if flag is not None or (assumed is not None and declared):
        if flag is None:
            notes.append("solvability concluded from the declared geometric hypotheses")
        if declared:
            used |= _INJECTIVE_COMPACT
            notes.append(
                "solvable holonomy with an injective developing map on a compact"
                " manifold: the homeomorphism type is one of the listed three;"
                " the connected sum of two projective 3-spaces is excluded since"
                " it carries no projective structure (Benoist; Cooper-Goldman)"
            )
            return _finalize(rep, cent, decomp, branch, DIM3_DISJUNCTION, certificates, used, notes)
        notes.append(
            "the invariant complete flag certifies solvability of the"
            " holonomy image of the suspension"
        )
        return _finalize(
            rep, cent, decomp, branch, CONCLUSION_SOLVABLE_PI1, certificates, used, notes
        )

    if branch == BRANCH_COMMUTATIVE and assumed is None:
        notes.append(
            "commutative model but no basis field of the centralizer has a zero"
            " set of dimension 1 to 3, unshifted or radially shifted by a rational"
            " eigenvalue; a freely acting pair of fields would make a torus"
            " bundle, which is not decidable from generators"
        )
    if assumed is not None:
        missing = sorted(n for n in _INJECTIVE_COMPACT if not getattr(asmp, n))
        notes.append(
            "the zero-set analysis applies but needs undeclared hypotheses: "
            + ", ".join(missing)
        )
    return _finalize(rep, cent, decomp, branch, CONCLUSION_UNDETERMINED, certificates, used, notes)
