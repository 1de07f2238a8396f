"""Span and counter recording around tdlab's layers, from outside the package.

`Tracer.install()` replaces each layer's public functions with wrappers that
open a span, in every tdlab module namespace that bound the name, and wraps
the linalg primitives (`Matrix._matmul`, `Matrix.inverse`, `linalg.rref`,
`solve_commutant_constraint`) with counters charged to the innermost open
span.  `uninstall()` puts every original back.  Nothing is patched unless
`install()` is called.

Spans are kept in memory with their parent and written as JSON lines by
`write()`.  `layer_metrics()` derives self time (duration minus child spans,
minus linalg primitive time, minus the tracer's own bookkeeping) and the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (span name, module, attribute): layer functions that open a span.  Spans
# without a metric of their own (forge.build, tdsystem.instance, ...) keep
# their work out of their caller's self time.
SPANS = [
    ("cli.generate", "cli", "cmd_generate"),
    ("cli.verify", "cli", "cmd_verify"),
    ("cli.decompose", "cli", "cmd_decompose"),
    ("forge.ingest", "forge", "ingest"),
    ("forge.validate", "forge", "validate"),
    ("forge.build", "forge", "build_split_form"),
    ("forge.export", "forge", "export_instance"),
    ("forge.export", "forge", "format_instance"),
    ("tdsystem.eigendata", "tdsystem", "build_eigendata"),
    ("tdsystem.orderings", "tdsystem", "find_standard_orderings"),
    ("tdsystem.axioms", "tdsystem", "verify_td_axioms"),
    ("tdsystem.instance", "tdsystem", "make_instance"),
    ("split.decomposition", "split", "split_decomposition"),
    ("split.kspaces", "split", "compute_K_spaces"),
    ("split.cells", "split", "refined_decomposition"),
    ("split.KB", "split", "build_K"),
    ("split.KB", "split", "build_B"),
    ("split.apparatus", "split", "build_apparatus"),
    ("split.minpoly", "split", "verify_minpoly_on_MKi"),
    ("psi.raising", "psi", "build_R"),
    ("psi.raising", "psi", "build_Rdd"),
    ("psi.formula", "psi", "build_psi_from_formula"),
    ("psi.solver", "psi", "build_psi_from_solver"),
    ("psi.casimir", "psi", "casimir_action"),
    ("psi.operators", "psi", "build_operator_set"),
    ("psi.suite", "psi", "run_identity_suite"),
    ("uqsl2.structures", "uqsl2", "first_structure"),
    ("uqsl2.structures", "uqsl2", "second_structure"),
    ("uqsl2.relations", "uqsl2", "verify_uq_relations"),
    ("uqsl2.decompose", "uqsl2", "decompose_into_components"),
    ("suite", "suite", "full_suite"),
]
# (span name, module, class, method): methods that open a span.
METHOD_SPANS = [("report.json", "report", "VerificationReport", "to_json_lines")]

# Per-layer metrics: name -> (kind, span name, counter).  Kinds: "self" is
# self time, "count" the number of spans, "counter" a counter charged to
# spans of that name ("*" for every span).
LAYER_METRICS = {
    "tdsystem.eigendata.s": ("self", "tdsystem.eigendata", None),
    "tdsystem.eigendata.calls": ("count", "tdsystem.eigendata", None),
    "tdsystem.orderings.self_s": ("self", "tdsystem.orderings", None),
    "tdsystem.orderings.matmul_calls": ("counter", "tdsystem.orderings", "matmul_calls"),
    "tdsystem.axioms.s": ("self", "tdsystem.axioms", None),
    "tdsystem.axioms.rref_calls": ("counter", "tdsystem.axioms", "rref_calls"),
    "forge.ingest.self_s": ("self", "forge.ingest", None),
    "forge.export.s": ("self", "forge.export", None),
    "split.decomposition.s": ("self", "split.decomposition", None),
    "split.kspaces.s": ("self", "split.kspaces", None),
    "split.cells.s": ("self", "split.cells", None),
    "split.KB.s": ("self", "split.KB", None),
    "split.apparatus.self_s": ("self", "split.apparatus", None),
    "psi.raising.s": ("self", "psi.raising", None),
    "psi.raising.calls": ("count", "psi.raising", None),
    "psi.formula.s": ("self", "psi.formula", None),
    "psi.solver.s": ("self", "psi.solver", None),
    "psi.casimir.s": ("self", "psi.casimir", None),
    "psi.suite.s": ("self", "psi.suite", None),
    "psi.suite.matmul_calls": ("counter", "psi.suite", "matmul_calls"),
    "uqsl2.structures.s": ("self", "uqsl2.structures", None),
    "uqsl2.relations.s": ("self", "uqsl2.relations", None),
    "uqsl2.decompose.s": ("self", "uqsl2.decompose", None),
    "suite.self_s": ("self", "suite", None),
    "report.json.s": ("self", "report.json", None),
    "cli.generate.self_s": ("self", "cli.generate", None),
    "cli.verify.self_s": ("self", "cli.verify", None),
    "cli.decompose.self_s": ("self", "cli.decompose", None),
    "linalg.matmul.calls": ("counter", "*", "matmul_calls"),
    "linalg.matmul.s": ("counter", "*", "matmul_s"),
    "linalg.rref.calls": ("counter", "*", "rref_calls"),
    "linalg.rref.s": ("counter", "*", "rref_s"),
    "linalg.rref.cells": ("counter", "*", "rref_cells"),
    "linalg.inverse.calls": ("counter", "*", "inverse_calls"),
    "linalg.commutant.unknowns": ("counter", "*", "commutant_unknowns"),
}
LEAF_TIME = ("matmul_s", "rref_s", "trace_s")


def entry_bits(x) -> int:
    return abs(x.numerator).bit_length() + x.denominator.bit_length()


class Span:
    __slots__ = ("id", "parent", "name", "key", "start", "end", "counters")

    def __init__(self, sid, parent, name, key):
        self.id, self.parent, self.name, self.key = sid, parent, name, key
        self.start = perf_counter()
        self.end = None
        self.counters = {}

    def add(self, counter, value):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def record(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "key": self.key,
            "dur": self.end - self.start,
            "counters": self.counters,
        }


class Tracer:
    """Spans for one process.  `key` names the benchmark instance being run
    and is stamped on every root span; child spans inherit it."""

    def __init__(self, key=None):
        self.key = key
        self.records: list[dict] = []
        self.stack: list[Span] = []
        self.max_bits = 0
        self._patches: list = []  # (owner, attribute, original)
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(self._next_id, parent.id if parent else None, name,
                    parent.key if parent else self.key)
        self._next_id += 1
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError("spans closed out of order")
        self.records.append(span.record())

    def _charge(self, counter, value):
        if self.stack:
            self.stack[-1].add(counter, value)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import tdlab  # noqa: F401  (loads every tdlab module)

        mods = {name: importlib.import_module(f"tdlab.{name}")
                for name in ("cli", "forge", "tdsystem", "split", "psi", "uqsl2",
                             "suite", "report", "linalg")}
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "tdlab" or n.startswith("tdlab.")]
        for span_name, mod, attr in SPANS:
            original = getattr(mods[mod], attr)
            self._patch_everywhere(namespaces, original, self._span_wrapper(span_name, original))
        for span_name, mod, cls, meth in METHOD_SPANS:
            owner = getattr(mods[mod], cls)
            self._patch(owner, meth, self._span_wrapper(span_name, getattr(owner, meth)))
        linalg = mods["linalg"]
        matrix = linalg.Matrix
        self._patch(matrix, "_matmul", self._matmul_wrapper(matrix._matmul))
        self._patch(matrix, "inverse", self._counting_wrapper(matrix.inverse, "inverse_calls"))
        self._patch_everywhere(namespaces, linalg.rref, self._rref_wrapper(linalg.rref))
        solve = linalg.solve_commutant_constraint
        self._patch_everywhere(namespaces, solve, self._commutant_wrapper(solve))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, namespaces, original, wrapper):
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        wrapper.__wrapped__ = fn
        return wrapper

    def _bits(self, matrix) -> None:
        for x in matrix.entries():
            if x:
                b = entry_bits(x)
                if b > self.max_bits:
                    self.max_bits = b

    def _matmul_wrapper(self, fn):
        def matmul(a, b):
            t0 = perf_counter()
            out = fn(a, b)
            t1 = perf_counter()
            zero_a = [sum(1 for x in a.col(k) if x == 0) for k in range(a.cols)]
            zero_b = [sum(1 for x in b.row(k) if x == 0) for k in range(b.rows)]
            zero = sum(za * b.cols + (a.rows - za) * zb for za, zb in zip(zero_a, zero_b))
            self._bits(out)
            self._charge("matmul_calls", 1)
            self._charge("matmul_products", a.rows * a.cols * b.cols)
            self._charge("matmul_zero_products", zero)
            self._charge("matmul_s", t1 - t0)
            self._charge("trace_s", perf_counter() - t1)
            return out

        matmul.__wrapped__ = fn
        return matmul

    def _rref_wrapper(self, fn):
        def rref(m):
            t0 = perf_counter()
            out = fn(m)
            t1 = perf_counter()
            self._bits(out[1])
            self._charge("rref_calls", 1)
            self._charge("rref_cells", m.rows * m.cols)
            self._charge("rref_s", t1 - t0)
            self._charge("trace_s", perf_counter() - t1)
            return out

        rref.__wrapped__ = fn
        return rref

    def _counting_wrapper(self, fn, counter):
        def wrapper(*args, **kwargs):
            self._charge(counter, 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _commutant_wrapper(self, fn):
        def solve(r, c, annihilated):
            self._charge("commutant_unknowns", r.rows * r.rows)
            return fn(r, c, annihilated)

        solve.__wrapped__ = fn
        return solve

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Append the finished spans, and the largest entry size, as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"max_entry_bits": self.max_bits}) + "\n")
        self.records.clear()


def read_records(path, namespace: str) -> tuple:
    """Spans and the largest entry size from a file written by `Tracer.write`.

    Span ids are unique only within one process, so they are prefixed with
    `namespace`, which must differ between the processes merged.
    """
    spans, bits = [], 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "max_entry_bits" in rec:
                bits = max(bits, rec["max_entry_bits"])
                continue
            rec["id"] = f"{namespace}:{rec['id']}"
            if rec["parent"] is not None:
                rec["parent"] = f"{namespace}:{rec['parent']}"
            spans.append(rec)
    return spans, bits


def self_times(spans: list) -> dict:
    """span id -> duration minus child spans and time charged to leaf primitives."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["dur"]
    return {
        s["id"]: s["dur"] - child.get(s["id"], 0.0)
        - sum(s["counters"].get(k, 0.0) for k in LEAF_TIME)
        for s in spans
    }


def layer_metrics(spans: list, max_bits: int, instances: int) -> dict:
    """Per-layer metrics as means per instance, plus zero share and entry size."""
    selfs = self_times(spans)
    totals = dict.fromkeys(LAYER_METRICS, 0.0)
    products = zeros = 0
    for s in spans:
        products += s["counters"].get("matmul_products", 0)
        zeros += s["counters"].get("matmul_zero_products", 0)
        for metric, (kind, name, counter) in LAYER_METRICS.items():
            if name != "*" and name != s["name"]:
                continue
            if kind == "self":
                totals[metric] += selfs[s["id"]]
            elif kind == "count":
                totals[metric] += 1
            else:
                totals[metric] += s["counters"].get(counter, 0)
    out = {m: v / instances for m, v in totals.items()}
    out["linalg.matmul.zero_share"] = zeros / products if products else 0.0
    out["linalg.max_entry_bits"] = max_bits
    return out
