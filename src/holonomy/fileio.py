"""JSON interchange: representation documents and analysis reports.

Rationals are serialized as JSON integers when integral and as "p/q"
strings otherwise, never as floats. Serialization is canonical (sorted
keys, normalized rationals), so equal inputs produce byte-identical
documents and reports.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .commutant import (
    Certificate,
    FixedProjectivePointCertificate,
    InvariantFlagCertificate,
    InvariantSubspaceCertificate,
    RotationalElementCertificate,
)
from .classify import Outcome
from .linalg import RatMatrix, Subspace
from .representation import (
    KINDS,
    AssumptionSet,
    Representation,
    ValidationError,
    validate_rep,
)

SCHEMA_VERSION = "1"


def fraction_to_json(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fraction_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError("matrix entries must be integers or 'p/q' strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValidationError(f"zero denominator in entry {value!r}") from None
        except ValueError:
            raise ValidationError(f"malformed rational entry {value!r}") from None
    if isinstance(value, float):
        raise ValidationError("float entries are not allowed; use integers or 'p/q' strings")
    raise ValidationError(f"matrix entries must be integers or 'p/q' strings, got {value!r}")


def matrix_to_json(m: RatMatrix) -> list[list]:
    return [[fraction_to_json(x) for x in row] for row in m.rows]


def matrix_from_json(rows) -> RatMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError("matrix must be a nonempty list of rows")
    return RatMatrix.from_rows([[fraction_from_json(x) for x in r] for r in rows])


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "basis": [[fraction_to_json(x) for x in v] for v in s.basis],
    }


def rep_to_document(rep: Representation) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dimension": rep.dimension,
        "kind": rep.kind,
        "generators": [
            {"label": g.label, "matrix": matrix_to_json(g.matrix)} for g in rep.generators
        ],
        "assumptions": rep.assumptions.as_dict(),
    }


def rep_from_document(doc) -> Representation:
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}; expected {SCHEMA_VERSION!r}")
    dimension = doc.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise ValidationError("dimension must be a positive integer")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ValidationError(f"kind must be one of {', '.join(KINDS)}")
    raw = doc.get("generators", [])
    if not isinstance(raw, list):
        raise ValidationError("generators must be a list")
    gens = []
    for i, item in enumerate(raw):
        if not isinstance(item, dict) or "matrix" not in item:
            raise ValidationError(f"generator #{i}: expected an object with a 'matrix' field")
        label = item.get("label", f"g{i}")
        if not isinstance(label, str):
            raise ValidationError(f"generator #{i}: label must be a string")
        try:
            matrix = matrix_from_json(item["matrix"])
        except ValidationError as exc:
            raise ValidationError(f"generator {label!r}: {exc}") from None
        gens.append((label, matrix))
    assumptions = doc.get("assumptions", {})
    if not isinstance(assumptions, dict):
        raise ValidationError("assumptions must be an object of boolean flags")
    return validate_rep(gens, kind, dimension, AssumptionSet.from_dict(assumptions))


def load_rep_file(path) -> Representation:
    """Load and validate a representation document; errors carry the file
    path and, for parse errors, the line and column."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{p}: cannot read file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{p}: not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{p}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValidationError(f"{p}: JSON nested too deeply to parse") from None
    try:
        return rep_from_document(doc)
    except ValidationError as exc:
        raise ValidationError(f"{p}: {exc}") from None


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save_rep_file(rep: Representation, destination) -> None:
    _write_text(dumps_canonical(rep_to_document(rep)), destination)


def document_digest(doc: dict) -> str:
    return "sha256:" + hashlib.sha256(dumps_canonical(doc).encode("utf-8")).hexdigest()


def certificate_to_json(cert: Certificate) -> dict:
    if isinstance(cert, InvariantFlagCertificate):
        return {
            "type": "invariant-flag",
            "complete": cert.flag.complete,
            "chain": [subspace_to_json(s) for s in cert.flag.chain],
        }
    if isinstance(cert, RotationalElementCertificate):
        return {
            "type": "rotational-element",
            "element": matrix_to_json(cert.element),
            "rotation_space": subspace_to_json(cert.rotation_space),
            "fixed_space": subspace_to_json(cert.fixed_space),
        }
    if isinstance(cert, FixedProjectivePointCertificate):
        return {"type": "fixed-projective-point", "point": [fraction_to_json(x) for x in cert.point]}
    if isinstance(cert, InvariantSubspaceCertificate):
        return {"type": "invariant-subspace", "subspace": subspace_to_json(cert.subspace)}
    raise TypeError(f"unknown certificate type {type(cert).__name__}")


def outcome_to_json(outcome: Outcome) -> dict:
    return {
        "branch": outcome.branch,
        "conclusion": outcome.conclusion,
        "assumptions_used": list(outcome.assumptions_used),
        "notes": list(outcome.notes),
        "certificates": [certificate_to_json(c) for c in outcome.certificates],
    }


def build_report(
    rep: Representation,
    command: str,
    options: dict,
    commutant_summary: dict,
    certificates: tuple[Certificate, ...],
    outcome: Outcome | None,
    derived_series: dict | None = None,
) -> dict:
    """Assemble a report document. It does not check the certificates: the
    caller passes ones already verified against rep, by classify's
    _finalize or by the CLI's analyze."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": {
            "digest": document_digest(rep_to_document(rep)),
            "dimension": rep.dimension,
            "kind": rep.kind,
            "generator_labels": list(rep.labels),
            "assumptions": rep.assumptions.as_dict(),
        },
        "options": options,
        "commutant": commutant_summary,
        "certificates": [certificate_to_json(c) for c in certificates],
        "outcome": None if outcome is None else outcome_to_json(outcome),
    }
    if derived_series is not None:
        report["derived_series"] = derived_series
    return report


def _fmt_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _render_matrix_rows(rows: list[list], indent: str) -> list[str]:
    return [indent + "[" + " ".join(_fmt_scalar(x) for x in row) + "]" for row in rows]


def render_text(report: dict) -> str:
    """Deterministic plain-text rendering of a report document."""
    lines: list[str] = []
    lines.append(f"holonomy report (schema {report['schema_version']}) command={report['command']}")
    inp = report["input"]
    lines.append(
        f"input: kind={inp['kind']} dimension={inp['dimension']} "
        f"generators=[{', '.join(inp['generator_labels'])}]"
    )
    lines.append(f"  digest: {inp['digest']}")
    assumptions = " ".join(f"{k}={_fmt_scalar(v)}" for k, v in sorted(inp["assumptions"].items()))
    lines.append(f"  assumptions: {assumptions}")
    opts = " ".join(f"{k}={_fmt_scalar(v)}" for k, v in sorted(report["options"].items()))
    lines.append(f"options: {opts}")
    comm = report["commutant"]
    lines.append("commutant: " + " ".join(f"{k}={_fmt_scalar(v)}" for k, v in sorted(comm.items())))
    if "derived_series" in report:
        ds = report["derived_series"]
        lines.append(
            f"derived series probe: verdict={ds['solvable_up_to_truncation']} "
            f"(depth={ds['commutator_depth']}, word_length={ds['word_length']})"
        )
        for level in ds["levels"]:
            lines.append(
                f"  depth {level['depth']}: pool={level['pool_size']} "
                f"nontrivial_commutators={level['nontrivial_commutators']} "
                f"all_identity={_fmt_scalar(level['all_identity'])}"
            )
        if "stopped" in ds:
            lines.append(f"  stopped at depth {len(ds['levels']) + 1}: {ds['stopped']} budget")
    lines.append(f"certificates: {len(report['certificates'])}")
    for cert in report["certificates"]:
        kind = cert["type"]
        if kind == "invariant-flag":
            dims = ",".join(str(s["dim"]) for s in cert["chain"])
            lines.append(f"  - invariant-flag dims=({dims}) complete={_fmt_scalar(cert['complete'])}")
            for s in cert["chain"]:
                lines.append(f"      member of dim {s['dim']}:")
                lines.extend(_render_matrix_rows(s["basis"], "        "))
        elif kind == "rotational-element":
            lines.append("  - rotational-element")
            lines.extend(_render_matrix_rows(cert["element"], "      "))
            lines.append(f"      rotation_space dim={cert['rotation_space']['dim']}")
            lines.append(f"      fixed_space dim={cert['fixed_space']['dim']}")
        elif kind == "fixed-projective-point":
            lines.append(
                "  - fixed-projective-point [" + " ".join(_fmt_scalar(x) for x in cert["point"]) + "]"
            )
        else:  # invariant-subspace, the last kind certificate_to_json writes
            lines.append(f"  - invariant-subspace dim={cert['subspace']['dim']}")
            lines.extend(_render_matrix_rows(cert["subspace"]["basis"], "      "))
    outcome = report["outcome"]
    if outcome is None:
        lines.append("outcome: (analysis only)")
    else:
        lines.append(f"outcome: branch={outcome['branch']} conclusion={outcome['conclusion']}")
        used = ", ".join(outcome["assumptions_used"]) or "(none)"
        lines.append(f"  assumptions_used: {used}")
        lines.append("  notes:")
        for note in outcome["notes"]:
            lines.append(f"    - {note}")
    return "\n".join(lines) + "\n"


def _write_text(text: str, destination) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")

