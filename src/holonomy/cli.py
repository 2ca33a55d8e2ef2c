"""Command-line driver: analyze, suspend, and classify representation files.

Subcommands mirror the library surface. ``analyze`` reports the commutant
and its decomposition, ``suspend`` writes the suspended representation as a
new document, ``classify`` runs the dimension-2/3 decision trees. Reports
are deterministic byte-for-byte for a fixed input and option set; exit
status is 0 when every input was processed (Undetermined is not a failure)
and 1 on any parse or validation error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import fileio
from .classify import classify_dim2, classify_dim3
from .commutant import (
    InvariantFlagCertificate,
    centralizer_algebra,
    dickson_radical,
    find_rotational_element,
    invariant_flag_search,
    truncated_derived_series,
    verify_certificate,
)
from .representation import KIND_PROJECTIVE, Representation, ValidationError, benzecri_suspend


def _summarize_algebra(algebra, decomp) -> dict:
    return {
        "dimension": algebra.dim,
        "contains_identity": algebra.contains_identity,
        "product_closed": True,
        "radical_dimension": decomp.radical.dim,
        "semisimple_quotient_dimension": decomp.quotient_dim,
        "semisimple_quotient_commutative": decomp.quotient_commutative,
        "idempotent_witnesses": len(decomp.idempotent_witnesses),
        "automorphism_quotient_dimension": algebra.dim - 1 if algebra.contains_identity else algebra.dim,
    }


def _derived_to_json(report) -> dict:
    out = {
        "solvable_up_to_truncation": report.verdict,
        "commutator_depth": report.commutator_depth,
        "word_length": report.word_length,
        "levels": [
            {
                "depth": level.depth,
                "pool_size": level.pool_size,
                "nontrivial_commutators": level.nontrivial_commutators,
                "all_identity": level.all_identity,
            }
            for level in report.levels
        ],
    }
    if report.stopped is not None:
        out["stopped"] = report.stopped
    return out


def _echo_options(options: dict, keys: list[str]) -> dict:
    out = {}
    for k in keys:
        v = options[k]
        out[k] = fileio.fraction_to_json(v) if isinstance(v, Fraction) else v
    return out


def _analyze_one(rep: Representation, options: dict) -> dict:
    """The analyze report of one representation. Its certificates are
    verified here, once, before the report is built: the gate of the
    analyze exit, as _finalize is of classify's."""
    algebra = centralizer_algebra(rep)
    decomp = dickson_radical(algebra)  # a centralizer: closed by proof, no product is checked
    certificates = []
    rot = find_rotational_element(algebra, bound=options["search_bound"])
    if rot is not None:
        certificates.append(rot)
    flag = invariant_flag_search(rep, algebra)
    if flag is not None:
        certificates.append(InvariantFlagCertificate(flag))
    for cert in certificates:
        if not verify_certificate(rep, cert):
            raise RuntimeError(f"refusing to write a report with an unverifiable {type(cert).__name__}")
    derived = truncated_derived_series(
        rep,
        commutator_depth=options["commutator_depth"],
        word_length=options["max_word_length"],
    )
    return fileio.build_report(
        rep,
        "analyze",
        _echo_options(options, ["format", "search_bound", "commutator_depth", "max_word_length"]),
        _summarize_algebra(algebra, decomp),
        tuple(certificates),
        outcome=None,
        derived_series=_derived_to_json(derived),
    )


def _classify_one(rep: Representation, options: dict) -> dict:
    dim = options["dim"]
    if rep.dimension != dim:
        raise ValidationError(f"--dim {dim} but the document has dimension {rep.dimension}")
    factor = options["suspension_factor"]
    if dim == 2:
        outcome = classify_dim2(rep, suspension_factor=factor)
    else:
        outcome = classify_dim3(rep, suspension_factor=factor, search_bound=options["search_bound"])
    return fileio.build_report(
        rep,
        "classify",
        _echo_options(options, ["format", "dim", "suspension_factor", "search_bound"]),
        _summarize_algebra(outcome.commutant, outcome.decomposition),
        outcome.certificates,
        outcome=outcome,
    )


def run_batch(paths, command: str, options: dict, stdout=None) -> int:
    """Process input files; one report (or suspension document) per input.

    Returns 0 when every input was processed and 1 on the first parse or
    validation error. Undetermined classification outcomes are not failures.
    """
    stdout = stdout if stdout is not None else sys.stdout
    try:
        if options["search_bound"] < 0:
            raise ValidationError(f"--search-bound must be at least 0, got {options['search_bound']}")
        if command == "analyze":
            for key in ("commutator_depth", "max_word_length"):
                if options[key] < 1:
                    flag = "--" + key.replace("_", "-")
                    raise ValidationError(f"{flag} must be at least 1, got {options[key]}")
        if command == "suspend":
            if len(paths) != 1:
                raise ValidationError("suspend takes exactly one input file")
            rep = fileio.load_rep_file(paths[0])
            if rep.kind != KIND_PROJECTIVE:
                raise ValidationError("kind must be projective-class")
            susp = benzecri_suspend(rep, factor=options["suspension_factor"])
            destination = options.get("output")
            if destination is None:
                fileio.save_rep_file(susp, stdout)
            else:
                try:
                    fileio.save_rep_file(susp, destination)
                except OSError as exc:
                    raise ValidationError(f"{destination}: cannot write file: {exc}") from None
            return 0
        reports = []
        for path in paths:
            rep = fileio.load_rep_file(path)
            if command == "analyze":
                reports.append(_analyze_one(rep, options))
            elif command == "classify":
                reports.append(_classify_one(rep, options))
            else:
                raise ValidationError(f"unknown command {command!r}")
        fmt = options["format"]
        if fmt == "json":
            payload = reports[0] if len(reports) == 1 else reports
            stdout.write(fileio.dumps_canonical(payload))
        else:
            stdout.write("\n".join(fileio.render_text(r) for r in reports))
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="holonomy",
        description="Exact analysis of holonomy representations: commutant "
        "algebras, suspensions, and low-dimensional classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--search-bound", type=int, default=2,
                       help="coefficient bound for the rotational-element search (default 2)")
        p.add_argument("--format", choices=["json", "text"], default="json",
                       help="report format (default json)")

    p_analyze = sub.add_parser("analyze", help="commutant and decomposition report")
    p_analyze.add_argument("files", nargs="+", metavar="file")
    p_analyze.add_argument("--max-word-length", type=int, default=6,
                           help="word length cap for the derived-series probe (default 6)")
    p_analyze.add_argument("--commutator-depth", type=int, default=8,
                           help="depth cap for the derived-series probe (default 8)")
    add_common(p_analyze)

    p_suspend = sub.add_parser("suspend", help="write the suspended representation")
    p_suspend.add_argument("file")
    p_suspend.add_argument("-o", "--output", default=None, help="output path (default stdout)")
    p_suspend.add_argument("--suspension-factor", type=_fraction_arg, default=Fraction(2),
                           help="image of the circle deck generator (default 2)")

    p_classify = sub.add_parser("classify", help="run the classification decision tree")
    p_classify.add_argument("files", nargs="+", metavar="file")
    p_classify.add_argument("--dim", type=int, choices=[2, 3], required=True)
    p_classify.add_argument("--suspension-factor", type=_fraction_arg, default=Fraction(2))
    add_common(p_classify)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    options = {
        "search_bound": getattr(args, "search_bound", 2),
        "format": getattr(args, "format", "json"),
        "suspension_factor": getattr(args, "suspension_factor", Fraction(2)),
        "max_word_length": getattr(args, "max_word_length", 6),
        "commutator_depth": getattr(args, "commutator_depth", 8),
        "dim": getattr(args, "dim", None),
        "output": getattr(args, "output", None),
    }
    paths = [args.file] if args.command == "suspend" else list(args.files)
    return run_batch(paths, args.command, options)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
