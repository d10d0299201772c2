"""Spans around the calls into each layer, recorded from outside the program.

The package's modules import each other's functions by name (`from .linalg
import determinant`), so a call made inside the package looks the function up
in the caller's own module. `installed()` therefore rebinds every module
attribute in the `cpgraphs.*` namespaces that holds a traced function, plus
the `IntMatrix.__matmul__` class attribute, and puts every original back on
exit. The iterator that `enumerate_neighborhood_sequences` returns is wrapped
too, so that the time spent inside each `next()` is a span.

A span is (name, start, end, parent, case id, order), where order is the `n`
of the first argument (the matrix or graph order) and parent is the index of
the enclosing span or -1. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import ExitStack, contextmanager
from functools import wraps

from cpgraphs import addressing, cli, crosschecks, formulas, graphs, linalg, reduction, sequences
from cpgraphs.matrices import IntMatrix
from workloads import SUITES

# span name -> the functions it covers
TRACED = {
    "graphs.build_cp_graph": (graphs.build_cp_graph,),
    "graphs.all_pairs_distances": (graphs.all_pairs_distances,),
    "reduction.reducing_matrix": (reduction.reducing_matrix,),
    "reduction.reduced_graph": (reduction.reduced_graph,),
    "reduction.congruence_reduce": (reduction.congruence_reduce,),
    "linalg.determinant": (linalg.determinant,),
    "linalg.inertia_congruence": (linalg.inertia_congruence,),
    "linalg.cofactor_sum": (linalg.cofactor_sum,),
    "linalg.reduced_cofactor_sum": (linalg.reduced_cofactor_sum,),
    "linalg.leading_principal_minors": (linalg.leading_principal_minors,),
    "formulas.distance_invariants": (formulas.distance_invariants,),
    "formulas.family_invariants": (formulas.family_invariants,),
    "formulas.block_2cp_inertia": (formulas.block_2cp_inertia,),
    "crosschecks": (
        crosschecks.det_by_cofactor_expansion,
        crosschecks.characteristic_polynomial,
        crosschecks.inertia_by_charpoly_signs,
    ),
    "addressing.search_scheme": (addressing.search_scheme,),
    "addressing.exact_n": (addressing.exact_n,),
    "addressing.verify_scheme": (addressing.verify_scheme,),
    "cli.main": (cli.main,),
}
ENUMERATE = "sequences.enumerate"
MATMUL = "matrices.matmul"

# (name, unit): <span>.<calls|self_s|max_order>, counters, suite times, overhead
PER_LAYER = (
    ("sequences.enumerate.members", "count"),
    ("sequences.enumerate.self_s", "s"),
    ("graphs.build_cp_graph.calls", "count"),
    ("graphs.build_cp_graph.self_s", "s"),
    ("graphs.all_pairs_distances.calls", "count"),
    ("graphs.all_pairs_distances.self_s", "s"),
    ("graphs.all_pairs_distances.max_order", "order"),
    ("reduction.reducing_matrix.self_s", "s"),
    ("reduction.reduced_graph.self_s", "s"),
    ("reduction.congruence_reduce.calls", "count"),
    ("reduction.congruence_reduce.self_s", "s"),
    ("reduction.congruence_reduce.max_order", "order"),
    ("matrices.matmul.calls", "count"),
    ("matrices.matmul.self_s", "s"),
    ("linalg.determinant.calls", "count"),
    ("linalg.determinant.self_s", "s"),
    ("linalg.determinant.max_order", "order"),
    ("linalg.inertia_congruence.calls", "count"),
    ("linalg.inertia_congruence.self_s", "s"),
    ("linalg.inertia_congruence.max_order", "order"),
    ("linalg.cofactor_sum.self_s", "s"),
    ("linalg.reduced_cofactor_sum.self_s", "s"),
    ("linalg.leading_principal_minors.calls", "count"),
    ("linalg.leading_principal_minors.self_s", "s"),
    ("formulas.distance_invariants.calls", "count"),
    ("formulas.distance_invariants.self_s", "s"),
    ("formulas.family_invariants.calls", "count"),
    ("formulas.family_invariants.self_s", "s"),
    ("formulas.block_2cp_inertia.self_s", "s"),
    ("crosschecks.self_s", "s"),
    ("addressing.search_scheme.calls", "count"),
    ("addressing.search_scheme.negative", "count"),
    ("addressing.search_scheme.self_s", "s"),
    ("addressing.exact_n.calls", "count"),
    ("addressing.exact_n.self_s", "s"),
    ("addressing.verify_scheme.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *((f"suites.{suite}.wall_s", "s") for suite in SUITES),
    ("trace.overhead_ratio", "1"),
)


@contextmanager
def patched(original, replacement):
    """Rebind `original` to `replacement` at every binding site in cpgraphs.*."""
    sites = []
    for name, module in list(sys.modules.items()):
        if name == "cpgraphs" or name.startswith("cpgraphs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    sites.append((module, attr))
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = -1
        self._stack: list[int] = []

    def _open(self, name: str, args: tuple) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case,
               getattr(args[0], "n", 0) if args else 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if result is None:
                self.counts[name + ".negative"] += 1
            return result

        return traced

    def wrap_enumerate(self, fn):
        tracer = self

        class TracedMembers:
            def __init__(self, inner):
                self.inner = inner

            def __iter__(self):
                return self

            def __next__(self):
                rec = tracer._open(ENUMERATE, ())
                try:
                    member = next(self.inner)
                finally:
                    tracer._close(rec)
                tracer.counts[ENUMERATE + ".members"] += 1
                return member

        @wraps(fn)
        def traced(*args, **kwargs):
            return TracedMembers(iter(fn(*args, **kwargs)))

        return traced

    @contextmanager
    def installed(self):
        """Trace every listed function while the block runs."""
        matmul = IntMatrix.__matmul__
        enum = sequences.enumerate_neighborhood_sequences
        with ExitStack() as stack:
            IntMatrix.__matmul__ = self.wrap(MATMUL, matmul)
            stack.callback(setattr, IntMatrix, "__matmul__", matmul)
            stack.enter_context(patched(enum, self.wrap_enumerate(enum)))
            for name, fns in TRACED.items():
                for fn in fns:
                    stack.enter_context(patched(fn, self.wrap(name, fn)))
            yield self

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, self time in seconds and the largest order seen."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict] = {}
        for i, (name, start, end, _, _, order) in enumerate(self.spans):
            s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "max_order": 0})
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            s["max_order"] = max(s["max_order"], order)
        return stats

    def metrics(self, suite_walls: dict[str, float], overhead: float) -> dict[str, float]:
        """Every PER_LAYER metric; layers the run never called read 0."""
        stats = self.layer_stats()
        out = {}
        for name, _ in PER_LAYER:
            if name in self.counts:
                out[name] = self.counts[name]
            elif name.startswith("suites."):
                out[name] = suite_walls.get(name.split(".")[1], 0.0)
            elif name == "trace.overhead_ratio":
                out[name] = overhead
            else:
                span, stat = name.rsplit(".", 1)
                out[name] = stats.get(span, {}).get(stat, 0)
        return out
