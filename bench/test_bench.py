"""Tests of the benchmark's own logic: span arithmetic, the op budget, the
output oracle and the tracer's wrapping."""

from __future__ import annotations

import time
from fractions import Fraction

from bench import oracle
from bench.budget import attempt
from bench.run import end_to_end, tail
from bench.tracer import FIELDS, Tracer, aggregate


def test_self_time_on_synthetic_span_tree():
    names = ["op", "a", "b"]
    rows = [
        (0, 0.0, 10.0, -1, 0),  # op root
        (1, 1.0, 6.0, 0, 0),  # a
        (2, 2.0, 4.0, 1, 0),  # b inside a
        (1, 2.5, 3.5, 2, 0),  # a nested inside b inside a
        (2, 7.0, 9.0, 0, 0),  # b
    ]
    stats = aggregate(names, rows)
    assert stats["op"] == {"calls": 1, "total": 10.0, "self": 3.0}
    assert stats["a"]["calls"] == 2
    assert stats["a"]["self"] == (5.0 - 2.0) + 1.0
    assert stats["a"]["total"] == 5.0  # the nested call is inside the outer one
    assert stats["b"] == {"calls": 2, "total": 4.0, "self": (2.0 - 1.0) + 2.0}
    assert aggregate(names, rows, [0.5])["b"] == {"calls": 2, "total": 2.0, "self": 1.5}


def test_interrupted_span_ends_with_its_op():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.begin_op()  # t=0
    tracer.open(1)  # t=1, never closed, as after an interrupt
    tracer.close(root)  # t=2
    rows = list(tracer.rows())
    assert rows[1][2] == 2.0
    assert aggregate(tracer.names, rows)[tracer.names[1]]["total"] == 1.0


def test_budget_stops_a_slow_op_and_counts_it():
    def spin():
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass
        return "finished"

    slow = attempt(spin, 0.05)
    assert slow.status == "over_budget"
    assert 0.05 <= slow.seconds < 1.0
    fast = attempt(lambda: 7, 1.0)
    assert (fast.status, fast.result) == ("ok", 7)
    broken = attempt(lambda: 1 / 0, 1.0)
    assert broken.status == "error" and "ZeroDivisionError" in broken.error

    records = [
        {"status": "ok", "ms": fast.seconds * 1000, "wall_ms": fast.seconds * 1000, "problems": [],
         "conclusive": True, "certificates": 2},
        {"status": "over_budget", "ms": slow.seconds * 1000, "wall_ms": slow.seconds * 1000,
         "problems": [], "conclusive": False, "certificates": 0},
    ]
    metrics, extra = end_to_end(records, [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3)])
    assert metrics["completed_share"][0] == 0.5
    assert metrics["conclusive_share"][0] == 0.5
    assert metrics["certificates_per_op"][0] == 1.0
    assert metrics["setup_s"][0] == 0.2
    # the overrun counts as a latency
    assert abs(metrics["op_p50_ms"][0] - (fast.seconds + slow.seconds) * 500) < 1e-9
    assert extra["samples"] == 2


def test_tail_has_ten_samples_beyond_it():
    value, pct = tail(list(range(100)))
    assert value == 89 and pct == 90.0
    assert tail(list(range(12))) == (5.5, 50.0)  # never below the median


def _f(rows):
    return [[Fraction(x) for x in r] for r in rows]


def test_oracle_rejects_tampered_certificates():
    # Two translations of the affine 3-space in homogeneous form.
    t1 = _f([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    t2 = _f([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]])
    e = _f([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    flag = {"type": "invariant-flag", "complete": True,
            "chain": [{"basis": e[:1]}, {"basis": e[:2]}, {"basis": e[:3]}]}
    assert oracle.certificate_problem(flag, [t1, t2], 4) is None
    moved = {"type": "invariant-flag", "complete": True,
             "chain": [{"basis": [e[3]]}, {"basis": e[:2]}, {"basis": e[:3]}]}
    assert oracle.certificate_problem(moved, [t1, t2], 4) is not None
    overclaimed = dict(flag, chain=flag["chain"][:2])
    assert oracle.certificate_problem(overclaimed, [t1, t2], 4) is not None

    # A quarter turn on the first plane, fixing the third axis.
    g = _f([[0, -1, 0], [1, 0, 0], [0, 0, 2]])
    j = _f([[0, -1, 0], [1, 0, 0], [0, 0, 0]])
    rot = {"type": "rotational-element", "element": j,
           "rotation_space": {"basis": _f([[1, 0, 0], [0, 1, 0]])},
           "fixed_space": {"basis": _f([[0, 0, 1]])}}
    assert oracle.certificate_problem(rot, [g], 3) is None
    sheared = dict(rot, element=_f([[0, -1, 1], [1, 0, 0], [0, 0, 0]]))
    assert oracle.certificate_problem(sheared, [g], 3) is not None
    wrong_image = dict(rot, rotation_space={"basis": _f([[1, 0, 0], [0, 0, 1]])})
    assert oracle.certificate_problem(wrong_image, [g], 3) is not None
    point = {"type": "fixed-projective-point", "point": [Fraction(0), Fraction(0), Fraction(1)]}
    assert oracle.certificate_problem(point, [g], 3) is None
    assert oracle.certificate_problem(dict(point, point=[1, 0, 0]), [g], 3) is not None


def test_oracle_accepts_the_library_certificates_and_rejects_a_tampered_one():
    from holonomy import classify_dim3, load_rep_file
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "corpus" / "dim3_torus_translations.json"
    rep = load_rep_file(path)
    mats = [[list(r) for r in m.rows] for m in rep.matrices]
    certs = [oracle.certificate_data(c) for c in classify_dim3(rep).certificates]
    assert certs and all(oracle.certificate_problem(c, mats, 4) is None for c in certs)
    tampered = certs[0]
    basis = tampered["chain"][0]["basis"]
    basis[0] = [x + 1 for x in basis[0]]
    assert oracle.certificate_problem(tampered, mats, 4) is not None


def test_tracer_wraps_every_binding_and_restores_them():
    import holonomy.commutant as commutant
    import holonomy.linalg as linalg

    original = linalg.rref
    tracer = Tracer()
    replaced = tracer.install()
    try:
        assert commutant.rref is linalg.rref is not original
        root = tracer.begin_op()
        linalg.kernel_of(linalg.RatMatrix.from_rows([[1, 2], [2, 4]]))
        tracer.close(root)
    finally:
        tracer.uninstall()
    assert linalg.rref is original and commutant.rref is original
    assert replaced > len(tracer.names)
    stats = aggregate(tracer.names, tracer.rows())
    assert stats["linalg.rref"]["calls"] >= 2  # the kernel's RREF and its span's
    assert stats["linalg.span"]["calls"] >= 2
    assert tracer.span_count == len(tracer.spans) // FIELDS


def test_printed_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    from bench.run import per_layer

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    record = {"status": "ok", "ms": 1.0, "wall_ms": 1.0, "problems": [], "conclusive": True, "certificates": 1}
    e2e, _ = end_to_end([record], [(0.1, 0.1)])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert {name: unit for name, (_, unit) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = per_layer(Tracer(), [record], [])
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    assert {name: unit for name, (_, unit) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_gauge_scales_wall_time_by_the_calibration_loop():
    from bench.gauge import REFERENCE_S, Gauge

    ticks = iter([0.0, 2 * REFERENCE_S, 10.0, 10.0 + 2 * REFERENCE_S])
    gauge = Gauge(clock=lambda: next(ticks), work=lambda: None)
    gauge.sample()
    gauge.sample()
    assert abs(gauge.to_reference(1.0) - 0.5) < 1e-9  # the loop ran at half the reference speed
    assert abs(gauge.to_wall(0.5) - 1.0) < 1e-9
