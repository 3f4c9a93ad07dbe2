"""Multisets, proper collections, and unavoidable complexes.

A collection of r vertex sets is proper for a multiset when every vertex is
used at most its multiplicity across the collection.  A complex is
(r, multiset)-unavoidable when every proper r-collection has at least one
member among its faces; the verdict is decided by exhaustive enumeration of
proper collections up to reordering, with a candidate-count guard.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError, guard_from_env, json_int
from .simplicial import Complex, antichain

COLLECTION_GUARD_ENV = "TVERROOK_COLLECTION_GUARD"
DEFAULT_COLLECTION_GUARD = 10_000_000


@dataclass(frozen=True)
class Multiset:
    """Vertex set with positive multiplicities."""

    universe: frozenset
    multiplicity: tuple  # sorted tuple of (vertex, multiplicity) pairs

    @classmethod
    def from_dict(cls, mapping: dict) -> "Multiset":
        for v, mu in mapping.items():
            if mu < 1:
                raise InputError(f"multiplicity of vertex {v} must be >= 1, got {mu}")
        return cls(frozenset(mapping), tuple(sorted(mapping.items())))

    def m(self, vertex: int) -> int:
        return dict(self.multiplicity)[vertex]

    @property
    def total_weight(self) -> int:
        return sum(mu for _, mu in self.multiplicity)

    def weight(self, subset) -> int:
        lookup = dict(self.multiplicity)
        for v in subset:
            if v not in lookup:
                raise InputError(f"vertex {v} is outside the multiset universe")
        return sum(lookup[v] for v in subset)

    def to_json(self) -> dict:
        return {
            "vertices": sorted(self.universe),
            "multiplicity": {str(v): mu for v, mu in self.multiplicity},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Multiset":
        try:
            mapping = {int(v): json_int(mu, "multiplicity") for v, mu in data["multiplicity"].items()}
            vertices = set(data["vertices"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed multiset JSON: {exc}") from exc
        if set(mapping) != vertices:
            raise InputError("multiset vertices and multiplicity keys disagree")
        return cls.from_dict(mapping)


def is_V_proper(V: Multiset, collection, r: int) -> bool:
    """Every vertex used at most its multiplicity across the r members."""
    collection = [tuple(sorted(member)) for member in collection]
    if len(collection) != r:
        raise InputError(f"expected exactly {r} members, got {len(collection)}")
    usage: dict = {}
    lookup = dict(V.multiplicity)
    for member in collection:
        for v in member:
            if v not in lookup:
                raise InputError(f"vertex {v} is outside the multiset universe")
            usage[v] = usage.get(v, 0) + 1
    return all(count <= lookup[v] for v, count in usage.items())


@dataclass(frozen=True)
class UnavoidabilityVerdict:
    unavoidable: bool
    counterexample: tuple | None = None

    def to_json(self) -> dict:
        out = {"unavoidable": self.unavoidable}
        if self.counterexample is not None:
            out["counterexample"] = [list(m) for m in self.counterexample]
        return out


def is_unavoidable(K: Complex, r: int, V: Multiset, guard: int | None = None) -> UnavoidabilityVerdict:
    """Exhaustive search for a proper r-collection avoiding K entirely.

    Only non-faces of K can appear in an avoiding collection (the empty set
    is a face of every complex), so the enumeration runs over multisets of
    non-faces in lexicographic order; the first counterexample found is the
    lexicographically least one.
    """
    if not K.universe <= V.universe:
        raise InputError("the complex universe must lie inside the multiset universe")
    if r < 1:
        raise InputError(f"need at least r = 1 members, got {r}")
    limit = guard if guard is not None else guard_from_env(
        COLLECTION_GUARD_ENV, DEFAULT_COLLECTION_GUARD
    )
    vertices = sorted(V.universe)
    non_faces = [
        subset
        for size in range(1, len(vertices) + 1)
        for subset in itertools.combinations(vertices, size)
        if not K.is_face(subset)
    ]
    estimate = math.comb(len(non_faces) + r - 1, r)
    if estimate > limit:
        raise ResourceLimitError(
            f"about {estimate} candidate collections exceed the guard ({limit})"
        )

    lookup = dict(V.multiplicity)
    budget = {v: lookup[v] for v in vertices}
    chosen: list = []

    def rec(start: int):
        if len(chosen) == r:
            return tuple(chosen)
        for idx in range(start, len(non_faces)):
            member = non_faces[idx]
            if any(budget[v] < 1 for v in member):
                continue
            for v in member:
                budget[v] -= 1
            chosen.append(member)
            found = rec(idx)
            chosen.pop()
            for v in member:
                budget[v] += 1
            if found:
                return found
        return None

    counterexample = rec(0)
    if counterexample is None:
        return UnavoidabilityVerdict(True)
    return UnavoidabilityVerdict(False, counterexample)


@dataclass(frozen=True)
class FaceAvoidanceVerdict:
    m_weight: int
    hypothesis_holds: bool  # m(S) <= r - 1
    unavoidable: bool | None = None
    counterexample: tuple | None = None

    def to_json(self) -> dict:
        out = {"m_weight": self.m_weight, "hypothesis_holds": self.hypothesis_holds}
        if self.unavoidable is not None:
            out["unavoidable"] = self.unavoidable
        if self.counterexample is not None:
            out["counterexample"] = [list(m) for m in self.counterexample]
        return out


def full_simplex(vertices) -> Complex:
    """The complex of all subsets of the given vertex set."""
    verts = tuple(sorted(set(vertices)))
    return Complex(frozenset(verts), (verts,))


def check_face_avoidance_unavoidable(
    V: Multiset, S, r: int, guard: int | None = None
) -> FaceAvoidanceVerdict:
    """The avoidance complex on V - S, with the weight hypothesis m(S) <= r-1.

    When the hypothesis holds the unavoidability claim is verified by
    enumeration (within the guard); when it fails, no claim is made either
    way but an explicit counterexample is reported when one exists.
    """
    S = set(S)
    weight = V.weight(S)
    hypothesis = weight <= r - 1
    K = full_simplex(V.universe - S)
    try:
        verdict = is_unavoidable(K, r, V, guard=guard)
    except ResourceLimitError:
        return FaceAvoidanceVerdict(weight, hypothesis)
    if hypothesis and not verdict.unavoidable:
        raise AssertionError(
            "a set of weight <= r-1 produced an avoidable complex; "
            "this contradicts the verified avoidance property"
        )
    return FaceAvoidanceVerdict(weight, hypothesis, verdict.unavoidable, verdict.counterexample)


def constrain_complex(K: Complex, avoid_sets) -> Complex:
    """Full subcomplex of K on the vertices outside the union of avoid sets."""
    avoid_sets = [set(s) for s in avoid_sets]
    for a, b in itertools.combinations(avoid_sets, 2):
        if a & b:
            raise InputError("avoid sets must be pairwise disjoint")
    removed = set().union(*avoid_sets) if avoid_sets else set()
    facets = antichain(tuple(v for v in f if v not in removed) for f in K.facets)
    return Complex(K.universe - removed, facets)
