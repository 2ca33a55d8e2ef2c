"""Span tracer that wraps the library's public functions from outside.

`Tracer.install` replaces each listed function in every holonomy module
namespace that bound it (``from .linalg import rref`` makes a second
binding) and the listed methods on RatMatrix and Subspace; `uninstall`
puts the originals back. A span is (name, start, end, parent, op id); spans
are kept in memory in one flat array and written out after the run.
"""

from __future__ import annotations

import gzip
import importlib
import math
import sys
import time
from array import array

# (module, qualified name) of every traced function; the metric prefix is
# "<module>.<last part of the name>".
TARGETS = (
    ("cli", "main"),
    ("fileio", "load_rep_file"),
    ("fileio", "build_report"),
    ("fileio", "dumps_canonical"),
    ("classify", "classify_dim2"),
    ("classify", "classify_dim3"),
    ("classify", "zero_set_of_affine_field"),
    ("commutant", "matrix_centralizer"),
    ("commutant", "invariant_affine_fields"),
    ("commutant", "algebra_closure_check"),
    ("commutant", "dickson_radical"),
    ("commutant", "find_rotational_element"),
    ("commutant", "invariant_flag_search"),
    ("commutant", "truncated_derived_series"),
    ("commutant", "verify_certificate"),
    ("representation", "benzecri_suspend"),
    ("representation", "validate_rep"),
    ("polys", "minimal_polynomial"),
    ("polys", "char_min_poly"),
    ("polys", "factor_polynomial"),
    ("polys", "primary_decomposition"),
    ("linalg", "rref"),
    ("linalg", "RatMatrix.matmul"),
    ("linalg", "RatMatrix.inverse"),
    ("linalg", "Subspace.span"),
    ("linalg", "Subspace.intersect"),
)
OP = "op"
FIELDS = 5  # name id, start, end, parent index, op id


def metric_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def _entry_bits(matrix) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in matrix.rows for x in row),
        default=0,
    )


# What a call's result says beyond its duration, added up per function.
OBSERVERS = {
    "commutant.find_rotational_element": lambda r: r is not None,
    "commutant.invariant_flag_search": lambda r: r is not None and r.complete,
    "commutant.truncated_derived_series": lambda r: r.verdict == "yes",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = [OP] + [metric_name(m, q) for m, q in TARGETS]
        self.spans = array("d")
        self.current = -1
        self.op = -1
        self.observed = {name: 0 for name in OBSERVERS}
        self.max_matmul_bits = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name_id: int) -> int:
        spans = self.spans
        index = len(spans) // FIELDS
        spans.extend((name_id, self.clock(), math.nan, self.current, self.op))
        self.current = index
        return index

    def close(self, index: int) -> None:
        self.spans[index * FIELDS + 2] = self.clock()
        self.current = int(self.spans[index * FIELDS + 3])

    @property
    def span_count(self) -> int:
        return len(self.spans) // FIELDS

    def begin_op(self) -> int:
        """Open the root span of the next op; the caller closes it."""
        self.op += 1
        self.current = -1
        return self.open(0)

    def _wrap(self, name_id: int, fn):
        name = self.names[name_id]
        observe = OBSERVERS.get(name)
        is_matmul = name == "linalg.matmul"

        def traced(*args, **kwargs):
            index = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                self.observed[name] += bool(observe(result))
            elif is_matmul:
                self.max_matmul_bits = max(self.max_matmul_bits, _entry_bits(result))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------
    def install(self) -> int:
        """Wrap every target; returns the number of bindings replaced."""
        owners = [importlib.import_module(f"holonomy.{module}") for module, _ in TARGETS]
        modules = [m for n, m in sorted(sys.modules.items()) if n == "holonomy" or n.startswith("holonomy.")]
        for name_id, ((_, qualname), owner) in enumerate(zip(TARGETS, owners), start=1):
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(self._wrap(name_id, raw.__func__))
                else:
                    wrapped = self._wrap(name_id, raw)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(owner, qualname)
            wrapped = self._wrap(name_id, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        return len(self._saved)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results ---------------------------------------------------------
    def rows(self):
        """(name id, start, end, parent, op) per span. A span that an
        interrupt left open ends where its op's root span ended."""
        s = self.spans
        op_end = math.nan
        for i in range(self.span_count):
            b = i * FIELDS
            end = s[b + 2]
            if s[b] == 0:
                op_end = end
            elif math.isnan(end):
                end = op_end
            yield int(s[b]), s[b + 1], end, int(s[b + 3]), int(s[b + 4])

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("# span\top\tname\tstart_s\tend_s\tparent\n")
            for i, (name_id, start, end, parent, op) in enumerate(self.rows()):
                out.write(f"{i}\t{op}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def aggregate(names, rows, op_scale=None) -> dict[str, dict[str, float]]:
    """Per-name calls, total and self time in seconds from (name id, start,
    end, parent, op) rows listed parents first; op_scale[op], when given,
    multiplies the durations of that op's spans.

    Self time is a span's duration minus its children's durations. Total
    time counts only the outermost span of a name, so a call nested in a
    call of the same name is not counted twice.
    """
    rows = [
        (name_id, (end - start) * (op_scale[op] if op_scale else 1.0), parent)
        for name_id, start, end, parent, op in rows
    ]
    child = [0.0] * len(rows)
    for _, duration, parent in rows:
        if parent >= 0:
            child[parent] += duration
    out = {name: {"calls": 0, "total": 0.0, "self": 0.0} for name in names}
    for i, (name_id, duration, parent) in enumerate(rows):
        entry = out[names[name_id]]
        entry["calls"] += 1
        entry["self"] += duration - child[i]
        p = parent
        while p >= 0 and rows[p][0] != name_id:
            p = rows[p][2]
        if p < 0:
            entry["total"] += duration
    return out
