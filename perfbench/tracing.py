"""Per-layer spans around the package's public functions, from outside it.

Each traced function is replaced by a wrapper under every name that a
``tverrook`` module binds it to (``maps.build_chessboard``,
``geometry.solve_equality_feasibility``, ...), because callers look names
up in their own module.  A wrapper records calls, inclusive seconds and
self seconds (inclusive minus the time covered by nested spans), plus the
counts named in ``PER_LAYER``.  Nothing under ``src/`` is changed on disk.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

# (span name, module, attribute).  An attribute that no longer exists is
# skipped, and its metrics read zero.
TARGETS = (
    ("simplicial.antichain", "simplicial", "antichain"),
    ("simplicial.faces_by_dimension", "simplicial", "faces_by_dimension"),
    ("chessboard.build_chessboard", "chessboard", "build_chessboard"),
    ("chessboard.check_pseudomanifold", "chessboard", "check_pseudomanifold"),
    ("chessboard.orient", "chessboard", "orient"),
    ("chessboard.fixed_subcomplex", "chessboard", "fixed_subcomplex"),
    ("maps.degree_by_counting", "maps", "degree_by_counting"),
    ("maps.obstruction_report", "maps", "obstruction_report"),
    ("homology.boundary_matrix", "homology", "boundary_matrix"),
    ("homology.smith_invariants", "homology", "smith_invariants"),
    ("homology.betti_and_torsion", "homology", "betti_and_torsion"),
    ("exactlp.solve", "exactlp", "solve_equality_feasibility"),
    ("geometry.rainbow_faces", "geometry", "rainbow_faces"),
    ("geometry.hulls_intersect", "geometry", "hulls_intersect"),
    ("geometry.search", "geometry", "search_tverberg"),
    ("geometry.search", "geometry", "search_balanced"),
    ("geometry.verify_solution", "geometry", "verify_solution"),
    ("geometry.lift", "geometry", "lift_to_vertex_disjoint"),
    ("constraints.is_unavoidable", "constraints", "is_unavoidable"),
)

# Per-layer metric name -> unit; every one is reported, zero when unused.
# "<span>.calls", "<span>.s" and "<span>.self_s" are span totals, any other
# suffix is a count or ratio that a hook below records under the full name.
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "simplicial.Complex.from_json.s": "s",
    "simplicial.antichain.calls": "count",
    "simplicial.antichain.s": "s",
    "simplicial.antichain.faces_in": "count",
    "simplicial.faces_by_dimension.calls": "count",
    "simplicial.faces_by_dimension.s": "s",
    "simplicial.faces_by_dimension.cache_hits": "count",
    "chessboard.build_chessboard.calls": "count",
    "chessboard.build_chessboard.s": "s",
    "chessboard.build_chessboard.facets": "count",
    "chessboard.check_pseudomanifold.s": "s",
    "chessboard.orient.calls": "count",
    "chessboard.orient.s": "s",
    "chessboard.fixed_subcomplex.calls": "count",
    "chessboard.fixed_subcomplex.s": "s",
    "maps.degree_by_counting.calls": "count",
    "maps.degree_by_counting.self_s": "s",
    "maps.degree_by_counting.preimage_ratio": "ratio",
    "maps.obstruction_report.self_s": "s",
    "homology.boundary_matrix.s": "s",
    "homology.boundary_matrix.cells": "count",
    "homology.smith_invariants.calls": "count",
    "homology.smith_invariants.s": "s",
    "homology.smith_invariants.max_side": "count",
    "homology.betti_and_torsion.calls": "count",
    "exactlp.solve.calls": "count",
    "exactlp.solve.s": "s",
    "exactlp.solve.cells": "count",
    "exactlp.solve.feasible_ratio": "ratio",
    "geometry.rainbow_faces.s": "s",
    "geometry.hulls_intersect.calls": "count",
    "geometry.hulls_intersect.self_s": "s",
    "geometry.hulls_intersect.hit_ratio": "ratio",
    "geometry.search.self_s": "s",
    "geometry.exhausted.candidates": "count",
    "geometry.verify_solution.s": "s",
    "geometry.lift.s": "s",
    "constraints.is_unavoidable.calls": "count",
    "constraints.is_unavoidable.s": "s",
}


class Tracer:
    """Span stack and per-span totals for one pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.own = defaultdict(float)
        self.counts = defaultdict(int)
        self.children = []  # covered child time of each open span

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            self.children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                covered = self.children.pop()
                if self.children:
                    self.children[-1] += elapsed
                self.calls[name] += 1
                self.inclusive[name] += elapsed
                self.own[name] += elapsed - covered
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target under each name a tverrook module binds it to."""
        from tverrook import simplicial

        modules = [m for n, m in list(sys.modules.items()) if n == "tverrook" or n.startswith("tverrook.")]
        for name, module, attr in TARGETS:
            mod = sys.modules.get(f"tverrook.{module}")
            original = getattr(mod, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, *self._hooks(name, original))
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, binding, wrapper)
        from_json = simplicial.Complex.__dict__.get("from_json")
        if isinstance(from_json, classmethod):
            simplicial.Complex.from_json = classmethod(
                self.wrap("simplicial.Complex.from_json", from_json.__func__)
            )

    def _hooks(self, name, original):
        """(function to wrap, after-hook) adding the span's named counts."""
        counts = self.counts
        if name == "simplicial.antichain":
            def counted(faces):
                faces = list(faces)
                counts["simplicial.antichain.faces_in"] += len(faces)
                return original(faces)
            return counted, None
        if name == "simplicial.faces_by_dimension":
            info = getattr(original, "cache_info", None)
            if info is None:
                return original, None

            def cached(K):
                before = info().hits
                result = original(K)
                counts["simplicial.faces_by_dimension.cache_hits"] += info().hits - before
                return result
            return cached, None
        if name == "chessboard.build_chessboard":
            def after(args, K):
                counts["chessboard.build_chessboard.facets"] += len(K.facets)
            return original, after
        if name == "maps.degree_by_counting":
            def after(args, _):
                theta, source = args[0], args[1]
                a = source.col_caps
                b = [0] * max(theta.assignment)
                for cap, t in zip(a, theta.assignment):
                    b[t - 1] += cap
                # closed forms: one target facet has prod(b!)/prod(a!) preimage
                # facets, out of n * (sum a)!/prod(a!) = n!/prod(a!) scanned.
                den = math.prod(math.factorial(x) for x in a)
                counts["maps.preimage"] += math.prod(math.factorial(x) for x in b) // den
                counts["maps.scanned"] += math.factorial(source.n) // den
            return original, after
        if name == "homology.boundary_matrix":
            def after(args, matrix):
                counts["homology.boundary_matrix.cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)
            return original, after
        if name == "homology.smith_invariants":
            def before(matrix):
                side = max(len(matrix), len(matrix[0]) if matrix else 0)
                counts["homology.smith_invariants.max_side"] = max(
                    counts["homology.smith_invariants.max_side"], side
                )
                return original(matrix)
            return before, None
        if name == "exactlp.solve":
            def after(args, x):
                A = args[0]
                counts["exactlp.solve.cells"] += len(A) * (len(A[0]) if A else 0)
                counts["exactlp.feasible"] += x is not None
            return original, after
        if name == "geometry.hulls_intersect":
            def after(args, got):
                counts["geometry.hulls_hit"] += got is not None
            return original, after
        if name == "geometry.search":
            def after(args, result):
                examined = getattr(result, "candidates_examined", None)
                if examined is not None:
                    counts["geometry.exhausted.candidates"] += examined
            return original, after
        return original, None

    def metrics(self, scale: float = 1.0) -> dict:
        """Per-layer values of one pass, each ratio taken over its whole base;
        times are multiplied by ``scale`` (see ``speed.py``)."""
        n, calls = self.counts, self.calls

        def ratio(num, den):
            return num / den if den else 0.0

        derived = {
            "maps.degree_by_counting.preimage_ratio": ratio(n["maps.preimage"], n["maps.scanned"]),
            "exactlp.solve.feasible_ratio": ratio(n["exactlp.feasible"], calls["exactlp.solve"]),
            "geometry.hulls_intersect.hit_ratio": ratio(n["geometry.hulls_hit"], calls["geometry.hulls_intersect"]),
        }
        totals = {"calls": calls, "s": self.inclusive, "self_s": self.own}
        out = {}
        for metric in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if kind in totals:
                out[metric] = totals[kind][span] * (scale if kind != "calls" else 1)
            else:
                out[metric] = derived.get(metric, n[metric])
        return out
