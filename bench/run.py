"""Time-to-verdict benchmark for the holonomy library and CLI.

Run from the repository root:

    python3 bench/run.py --workload corpus-cli --seed 1 --seconds 18 --trace 0

One client in one process sends the next operation only after the previous
one returned (a closed loop), so there is no queueing and latency is the
time of one call. Workloads:

* corpus-cli: the five corpus documents through ``holonomy.cli.main``, each
  as ``classify --dim N`` and as ``analyze``, JSON output; what a CLI user
  runs. Covers the CLI's recomputation and the report rendering.
* conjugates: seeded unimodular conjugates, rescalings and generator
  permutations of the non-trivial corpus documents through
  ``classify_dim2``/``classify_dim3``, no CLI, no report: small commutants
  with larger entries, so the exact kernels carry the time.
* analyze-families: seeded analyze inputs in dimensions 3 to 6 (unipotent
  pairs, rotation blocks, generic pairs) at the CLI's default options:
  the derived-series probe dominates. The generic pairs do not finish at
  depth 8, so they run over the budget; that is measured, not avoided.

Every operation runs under a per-op budget (bench.budget) and its output is
checked by bench.oracle. Times are reported at a reference host speed
(bench.gauge), because a shared host can swing in speed by up to 2x within
seconds; the wall-clock figures are printed and recorded next to them. A
run measures whole cycles of cases until the ops have taken ``--seconds``
of reference-speed time. With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` every operation runs once untraced
and once traced, and the last line holds per-layer metrics from the traced
calls plus the tracing overhead. A full record goes to bench/out/.

An operation over budget is not a program failure: it counts against
``completed_share`` and in the op latencies at the time it was stopped.
``failed`` in the result counts outputs that were wrong or raised; any
such op makes ``correct`` false and the exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import inputs, oracle  # noqa: E402
from bench.budget import attempt  # noqa: E402
from bench.gauge import Gauge  # noqa: E402
from bench.tracer import TARGETS, Tracer, aggregate, metric_name  # noqa: E402

WORKLOADS = ("corpus-cli", "conjugates", "analyze-families")
# Per-op budget of each workload in reference-speed seconds (bench.gauge),
# with a margin of 2.5x or more on both sides, so that the set of overruns
# repeats exactly. corpus-cli: every op finishes within 0.9 s. conjugates:
# ops finish within 0.4 s, except the rare conjugate whose zero-set
# analysis factors a polynomial with a large constant term (12.9 s, in
# polys._integer_divisors). analyze-families: the slowest structured op
# (dimension 6) takes 2.3-3.2 s; no generic pair finished within 30 s.
BUDGET_S = {"corpus-cli": 4.0, "conjugates": 2.0, "analyze-families": 8.0}
WARMUP_BUDGET_S = 0.5
WARMUP_S = 2.0
SETUP_REPEATS = 5
# The CLI's analyze defaults.
SEARCH_BOUND = 2
COMMUTATOR_DEPTH = 8
WORD_LENGTH = 6
TAIL_BEYOND = 10
CALLS_PER_OP = (
    "representation.benzecri_suspend",
    "commutant.matrix_centralizer",
    "commutant.dickson_radical",
    "commutant.verify_certificate",
    "polys.minimal_polynomial",
)
RATIOS = {
    "commutant.find_rotational_element": "hit_ratio",
    "commutant.invariant_flag_search": "complete_ratio",
    "commutant.truncated_derived_series": "yes_ratio",
}


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "holonomy" or n.startswith("holonomy.")]:
        del sys.modules[name]
    importlib.import_module("holonomy.cli")
    return {m: sys.modules[f"holonomy.{m}"] for m in ("cli", "fileio", "classify", "commutant")}


def setup(cases, gauge):
    """Import plus loading every distinct input, repeated; returns the last
    set of modules and representations, and every set-up time as
    (reference-speed seconds, wall seconds)."""
    times = []
    for _ in range(SETUP_REPEATS):
        gauge.sample()
        start = time.perf_counter()
        lib = fresh_import()
        reps = {}
        for case in cases:
            if case.doc is not None:
                reps[case.key] = lib["fileio"].rep_from_document(case.doc)
            elif case.argv[-1] not in reps:
                reps[case.argv[-1]] = lib["fileio"].load_rep_file(case.argv[-1])
        wall = time.perf_counter() - start
        gauge.sample()
        times.append((gauge.to_reference(wall), wall))
    return lib, reps, times


def operation(lib, reps, case):
    """The call to time for one case."""
    if case.command == "cli":
        def run_cli():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = lib["cli"].main(list(case.argv))
            return code, out.getvalue()
        return run_cli
    rep = reps[case.key]
    if case.command == "classify":
        classify = lib["classify"]
        fn = classify.classify_dim2 if case.dim == 2 else classify.classify_dim3
        return lambda: fn(rep)

    def run_analyze():
        c = lib["commutant"]
        algebra = c.centralizer_algebra(rep)
        closed, _ = c.algebra_closure_check(algebra)
        c.dickson_radical(algebra)
        rot = c.find_rotational_element(algebra, rep=rep, bound=SEARCH_BOUND)
        flag = c.invariant_flag_search(rep)
        derived = c.truncated_derived_series(rep, commutator_depth=COMMUTATOR_DEPTH, word_length=WORD_LENGTH)
        return closed, algebra.dim, rot, flag, derived
    return run_analyze


class Checker:
    """Turns an op's result into (certificates, conclusive, problems)."""

    def __init__(self):
        self.first_report: dict[str, str] = {}

    def __call__(self, case, result):
        if case.command == "cli":
            return self._cli(case, result)
        if case.command == "classify":
            certs = [oracle.certificate_data(c) for c in result.certificates]
            problems = oracle.outcome_problems(
                case, result.branch, result.conclusion, result.assumptions_used, certs, case.dim + 1)
            return len(certs), result.conclusion != oracle.UNDETERMINED, problems
        closed, dim, rot, flag, derived = result
        certs = [oracle.certificate_data(c) for c in (rot, flag) if c is not None]
        problems = oracle.analysis_problems(case, dim, derived.verdict, certs, case.dim)
        if not closed:
            problems.append("centralizer reported as not product-closed")
        return len(certs), derived.verdict == "yes", problems

    def _cli(self, case, result):
        code, text = result
        problems = [] if code == 0 else [f"exit status {code}"]
        first = self.first_report.setdefault(case.key, text)
        if text != first:
            problems.append("report bytes differ from the first pass")
        try:
            report = json.loads(text)
        except ValueError:
            return 0, False, problems + ["report is not JSON"]
        certs = report["certificates"]
        size = case.dim + 1
        if case.argv[0] == "classify":
            out = report["outcome"]
            problems += oracle.outcome_problems(
                case, out["branch"], out["conclusion"], out["assumptions_used"], certs, size)
            if report["commutant"]["dimension"] != case.expect["commutant_dim"]:
                problems.append("commutant dimension differs from bench.exact")
            return len(certs), out["conclusion"] != oracle.UNDETERMINED, problems
        verdict = report["derived_series"]["solvable_up_to_truncation"]
        problems += oracle.analysis_problems(case, report["commutant"]["dimension"], verdict, certs, size)
        return len(certs), verdict == "yes", problems


def measure(cycles, seconds, run_case):
    """Run whole cycles of cases until the ops have taken `seconds` of
    reference-speed time, so that a run does the same work however busy the
    host is; a run that takes twice that in wall time stops early.
    run_case returns the records of one case."""
    start = time.perf_counter()
    records = []
    spent = 0.0
    n = 0
    while True:
        for case in cycles[n % len(cycles)]:
            for record in run_case(case):
                records.append(record)
                spent += record["ms"] / 1000.0
        n += 1
        if spent >= seconds or time.perf_counter() - start >= 2 * seconds:
            return records


def tail(times):
    """The value with exactly TAIL_BEYOND samples above it, with its
    percentile; with fewer than 2 * TAIL_BEYOND samples that would lie below
    the median, and the median is returned."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def _timing(times, setup):
    n = len(times)
    tail_ms, tail_pct = tail(times)
    return {"setup_s": statistics.median(setup), "op_p50_ms": statistics.median(times),
            "op_tail_ms": tail_ms, "ops_per_s": n / (sum(times) / 1000.0)}, tail_pct


def end_to_end(records, setup_times):
    """End-to-end metrics in reference-speed time (bench.gauge); the same
    timings in wall time go to the run record."""
    n = len(records)
    timing, tail_pct = _timing([r["ms"] for r in records], [ref for ref, _ in setup_times])
    wall, _ = _timing([r["wall_ms"] for r in records], [w for _, w in setup_times])
    completed = sum(r["status"] == "ok" and not r["problems"] for r in records)
    metrics = {
        "setup_s": (timing["setup_s"], "s"),
        "op_p50_ms": (timing["op_p50_ms"], "ms"),
        "op_tail_ms": (timing["op_tail_ms"], "ms"),
        "ops_per_s": (timing["ops_per_s"], "1/s"),
        "completed_share": (completed / n, "share"),
        "conclusive_share": (sum(r["conclusive"] for r in records) / n, "share"),
        "certificates_per_op": (sum(r["certificates"] for r in records) / n, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"tail_percentile": tail_pct, "samples": n, "wall_clock": wall}


def per_layer(tracer, traced, pairs):
    """Per-function metrics from the traced calls, with span times scaled to
    the reference speed of their op; `pairs` are (untraced, traced) records
    of the ops that finished both times."""
    ops = len(traced)
    scale = [r["ms"] / r["wall_ms"] if r["wall_ms"] else 1.0 for r in traced]
    stats = aggregate(tracer.names, tracer.rows(), scale)
    metrics = {}
    for module, qualname in TARGETS:
        name = metric_name(module, qualname)
        s = stats[name]
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.total_ms"] = (s["total"] * 1000.0, "ms")
        metrics[f"{name}.self_ms"] = (s["self"] * 1000.0, "ms")
    for name, ratio in RATIOS.items():
        calls = stats[name]["calls"]
        metrics[f"{name}.{ratio}"] = (tracer.observed[name] / calls if calls else 0.0, "ratio")
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls_per_op"] = (stats[name]["calls"] / ops, "count")
    metrics["linalg.matmul.max_entry_bits"] = (tracer.max_matmul_bits, "bits")
    untraced_ms = sum(u["ms"] for u, _ in pairs)
    metrics["trace.overhead_ratio"] = (sum(t["ms"] for _, t in pairs) / untraced_ms if pairs else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="reference-speed seconds of operations to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "holonomy" / "__init__.py").is_file():
        print(f"error: no holonomy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("HOLONOMY_SEARCH_BOUND", None)

    cycles = inputs.make_cycles(args.workload, args.seed, ROOT)
    distinct = [c for cycle in cycles for c in cycle]
    gauge = Gauge()
    lib, reps, setup_times = setup(distinct, gauge)
    if not lib["cli"].__file__.startswith(str(ROOT / "src")):
        print(f"error: imported holonomy from {lib['cli'].__file__}", file=sys.stderr)
        return 2

    check = Checker()

    def run_one(case, tracer=None, budget=BUDGET_S[args.workload]):
        fn = operation(lib, reps, case)
        if tracer is not None:
            inner = fn

            def fn():
                root = tracer.begin_op()
                try:
                    return inner()
                finally:
                    tracer.close(root)
        gauge.sample()
        a = attempt(fn, gauge.to_wall(budget))
        gauge.sample()
        # An overrun was stopped after `budget` reference seconds by construction.
        ref_s = budget if a.status == "over_budget" else gauge.to_reference(a.seconds)
        record = {"key": case.key, "family": case.family, "status": a.status,
                  "ms": ref_s * 1000.0, "wall_ms": a.seconds * 1000.0,
                  "certificates": 0, "conclusive": False, "problems": []}
        if a.status == "ok":
            record["certificates"], record["conclusive"], record["problems"] = check(case, a.result)
        elif a.status == "error":
            record["problems"] = [a.error]
        return record

    warm_start = time.perf_counter()
    for case in cycles[0]:
        if time.perf_counter() - warm_start >= WARMUP_S:
            break
        run_one(case, budget=WARMUP_BUDGET_S)
    check.first_report.clear()

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_digest": inputs.digest(distinct, ROOT), "distinct_inputs": len(distinct),
        "git_sha": git_sha(ROOT), "python": platform.python_version(), "nproc": os.cpu_count(),
        "budget_s": BUDGET_S[args.workload], "setup_times_s": setup_times,
    }
    if args.trace:
        tracer = Tracer()

        def paired(case):
            untraced = run_one(case)
            tracer.install()
            try:
                return untraced, run_one(case, tracer)
            finally:
                tracer.uninstall()

        records = measure(cycles, args.seconds, paired)
        untraced, traced = records[0::2], records[1::2]
        pairs = [(u, t) for u, t in zip(untraced, traced) if u["status"] == t["status"] == "ok"]
        metrics = per_layer(tracer, traced, pairs)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        meta["spans"] = tracer.span_count
    else:
        records = measure(cycles, args.seconds, lambda case: [run_one(case)])
        metrics, extra = end_to_end(records, setup_times)
        meta.update(extra)

    failed = [r for r in records if r["status"] == "error" or r["problems"]]
    over = {}
    for r in records:
        if r["status"] == "over_budget":
            over[r["family"]] = over.get(r["family"], 0) + 1
    meta.update(attempted=len(records), failed=len(failed), over_budget=over,
                failed_share=(len(failed) + sum(over.values())) / len(records))
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"meta": meta, "metrics": metrics, "ops": records}, indent=1),
                           encoding="utf-8")

    for key in ("workload", "seed", "inputs_digest", "git_sha", "python", "nproc", "budget_s",
                "attempted", "failed", "over_budget", "failed_share", "tail_percentile", "samples",
                "wall_clock"):
        if key in meta:
            print(f"# {key}: {meta[key]}")
    for r in failed[:20]:
        print(f"# FAILED {r['key']}: {r['status']} {'; '.join(r['problems'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
