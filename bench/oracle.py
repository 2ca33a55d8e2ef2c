"""Output checks that do not come from the code under test.

Certificates are re-checked with bench.exact's own rank and invariance
tests, never with holonomy.commutant.verify_certificate. A certificate is
handled as plain data: the dict form of the JSON report, which
`certificate_data` also builds from the library's certificate objects by
reading their fields.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import identity, mat_mul, mat_vec, rank, spans_invariant

UNDETERMINED = "Undetermined"
SOLVABLE = "SolvableFundamentalGroup"


def _rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def certificate_data(cert) -> dict:
    """Plain-data form of a library certificate object, read field by field."""
    kind = type(cert).__name__
    if kind in ("InvariantFlagCertificate", "Flag"):
        flag = cert.flag if kind == "InvariantFlagCertificate" else cert
        return {"type": "invariant-flag", "complete": flag.complete,
                "chain": [{"basis": _rows(s.basis)} for s in flag.chain]}
    if kind == "RotationalElementCertificate":
        return {"type": "rotational-element", "element": _rows(cert.element.rows),
                "rotation_space": {"basis": _rows(cert.rotation_space.basis)},
                "fixed_space": {"basis": _rows(cert.fixed_space.basis)}}
    if kind == "FixedProjectivePointCertificate":
        return {"type": "fixed-projective-point", "point": [Fraction(x) for x in cert.point]}
    if kind == "InvariantSubspaceCertificate":
        return {"type": "invariant-subspace", "subspace": {"basis": _rows(cert.subspace.basis)}}
    return {"type": kind}


def _independent(basis, size: int) -> bool:
    return bool(basis) and all(len(v) == size for v in basis) and rank(basis) == len(basis)


def _flag_problem(cert: dict, mats, size: int) -> str | None:
    chain = [_rows(s["basis"]) for s in cert["chain"]]
    if not chain:
        return "empty flag"
    dims = []
    for member in chain:
        if not _independent(member, size) or not 0 < len(member) < size:
            return "flag member is not a proper nonzero subspace"
        dims.append(len(member))
    for lower, upper in zip(chain, chain[1:]):
        if len(lower) >= len(upper) or rank(upper + lower) != len(upper):
            return "flag chain is not strictly increasing"
    if any(not spans_invariant(member, mats) for member in chain):
        return "flag member not invariant"
    if cert.get("complete") is not None and cert["complete"] != (dims == list(range(1, size))):
        return "flag completeness claim is wrong"
    return None


def _rotation_problem(cert: dict, mats, size: int) -> str | None:
    j = _rows(cert["element"])
    if len(j) != size or any(len(row) != size for row in j):
        return "element has the wrong size"
    if all(x == 0 for row in j for x in row):
        return "rotational element is zero"
    if any(mat_mul(g, j) != mat_mul(j, g) for g in mats):
        return "rotational element does not commute with the holonomy"
    j2 = mat_mul(j, j)
    c = -j2[0][0]
    if j2 == [[-c * x for x in row] for row in identity(size)]:
        ok = c > 0  # minimal polynomial x^2 + c
    else:
        j3 = mat_mul(j, j2)
        c = next((-a / b for ra, rb in zip(j3, j) for a, b in zip(ra, rb) if b != 0), Fraction(0))
        ok = c > 0 and j3 == [[-c * x for x in row] for row in j]  # x (x^2 + c)
    if not ok:
        return "minimal polynomial is not x^2+c or x(x^2+c) with c > 0"
    image = _rows(cert["rotation_space"]["basis"])
    kernel = _rows(cert["fixed_space"]["basis"])
    r = rank(j)
    columns = [list(col) for col in zip(*j)]
    if len(image) != r or rank(image) != r or rank(image + columns) != r:
        return "rotation space is not the image of the element"
    if len(kernel) != size - r or (kernel and rank(kernel) != len(kernel)):
        return "fixed space has the wrong dimension"
    if any(any(x != 0 for x in mat_vec(j, v)) for v in kernel):
        return "fixed space is not in the kernel of the element"
    if not spans_invariant(image, mats) or (kernel and not spans_invariant(kernel, mats)):
        return "rotation splitting is not invariant"
    return None


def certificate_problem(cert: dict, mats, size: int) -> str | None:
    """None when the certificate holds for the generators `mats` acting on
    Q^size; otherwise what is wrong with it."""
    mats = [_rows(g) for g in mats]
    kind = cert["type"]
    if kind == "invariant-flag":
        return _flag_problem(cert, mats, size)
    if kind == "rotational-element":
        return _rotation_problem(cert, mats, size)
    if kind == "fixed-projective-point":
        v = [Fraction(x) for x in cert["point"]]
        if len(v) != size or all(x == 0 for x in v):
            return "point is zero or has the wrong size"
        if any(rank([v, mat_vec(g, v)]) != 1 for g in mats):
            return "point is not fixed projectively"
        return None
    if kind == "invariant-subspace":
        basis = _rows(cert["subspace"]["basis"])
        if not _independent(basis, size) or not spans_invariant(basis, mats):
            return "subspace not invariant"
        return None
    return f"unexpected certificate type {kind}"


def outcome_problems(case, branch, conclusion, assumptions_used, certs, size) -> list[str]:
    """Checks on a classification verdict: the hand-written expected label,
    the soundness contract, and every certificate."""
    problems = []
    expect = case.expect
    if conclusion != expect["conclusion"]:
        problems.append(f"conclusion {conclusion} != expected {expect['conclusion']}")
    if expect.get("branch") is not None and branch != expect["branch"]:
        problems.append(f"branch {branch} != expected {expect['branch']}")
    if conclusion != UNDETERMINED and not certs and not assumptions_used:
        problems.append("conclusion without certificate or declared assumption")
    if conclusion == SOLVABLE and not assumptions_used and not any(
        c["type"] == "invariant-flag" and c.get("complete") for c in certs
    ):
        problems.append("solvability claimed without a complete invariant flag")
    problems.extend(_certificate_problems(certs, case.matrices, size))
    return problems


def analysis_problems(case, commutant_dim, derived, certs, size) -> list[str]:
    """Checks on an analysis: commutant dimension against bench.exact, the
    expected derived-series verdict, and every certificate."""
    problems = []
    expect = case.expect
    if commutant_dim != expect["commutant_dim"]:
        problems.append(f"commutant dimension {commutant_dim} != {expect['commutant_dim']}")
    if "derived" in expect and derived != expect["derived"]:
        problems.append(f"derived verdict {derived} != expected {expect['derived']}")
    if "derived_not" in expect and derived == expect["derived_not"]:
        problems.append(f"derived verdict {derived} claimed for a non-solvable group")
    if expect.get("rotational") and not any(c["type"] == "rotational-element" for c in certs):
        problems.append("no rotational certificate for a rotation block")
    problems.extend(_certificate_problems(certs, case.matrices, size))
    return problems


def _certificate_problems(certs, mats, size) -> list[str]:
    out = []
    for cert in certs:
        problem = certificate_problem(cert, mats, size)
        if problem is not None:
            out.append(f"{cert['type']}: {problem}")
    return out
