"""Multisets, proper collections, and unavoidable complexes.

A collection of r vertex sets is proper for a multiset when every vertex is
used at most its multiplicity across the collection.  A complex is
(r, multiset)-unavoidable when every proper r-collection has at least one
member among its faces.  Only non-faces can be members of an avoiding
collection, and each can shrink to a minimal non-face, so the verdict is
decided by exhaustive enumeration of proper collections of minimal non-faces
up to reordering.  The minimal non-faces are the minimal transversals of the
facet complements (Berge's incremental construction).  One guard caps both
that construction and the number of candidate collections.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import InputError, ResourceLimitError, json_int
from .simplicial import Complex, antichain

COLLECTION_GUARD = 10_000_000


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
    # {"minimal_non_faces": ..., "collections_examined": ...}; not part of the certificate
    stats: dict | None = field(default=None, compare=False)

    def to_json(self) -> dict:
        out = {"unavoidable": self.unavoidable}
        if self.counterexample is not None:
            out["counterexample"] = [list(m) for m in self.counterexample]
        return out


def minimal_non_faces(K: Complex, vertices, limit: int) -> list:
    """The minimal non-empty non-faces of K on `vertices`, sorted by (size, vertex ids).

    A set is a non-face iff it meets the complement of every facet, so the
    minimal non-faces are the minimal transversals of the facet complements.
    Berge's construction adds one complement at a time: a transversal that
    misses it grows by one of its vertices, and the result is kept when
    dropping any one of its old vertices misses some complement already
    processed.  A complex without facets gives every vertex as a singleton; a
    facet equal to `vertices` gives no non-faces.  The family is capped at
    `limit` after every step (no closed form bounds it).
    """
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    full = (1 << len(vertices)) - 1
    family = [0]
    processed: list = []
    for facet in K.facets or ((),):
        edge = full & ~sum(bit[v] for v in facet)
        grown: list = []
        for t in family:
            if t & edge:
                grown.append(t)
            else:
                old = [b for b in bit.values() if t & b]
                for b in bit.values():
                    if edge & b and all(any(e & (t | b) == u for e in processed) for u in old):
                        grown.append(t | b)
            if len(grown) > limit:
                raise ResourceLimitError(
                    f"more than {limit} minimal non-face candidates exceed the guard"
                )
        processed.append(edge)
        family = grown
    return sorted(
        (tuple(v for v in vertices if t & bit[v]) for t in family),
        key=lambda s: (len(s), s),
    )


def _least_proper_collection(members: list, r: int, budget: dict):
    """The lexicographically least proper r-collection of `members`, or None.

    Depth-first over distinct members in order, each placed with as many
    copies as the budget allows and then one copy fewer at a time, so the
    first collection completed is the lexicographically least.  Returns it
    with the number of placements made (a member with its copies counts once).
    """
    chosen: list = []  # (index, copies) of each distinct member placed, by index
    remaining, start, placements = r, 0, 0
    while remaining:
        idx = next(
            (i for i in range(start, len(members)) if all(budget[v] for v in members[i])), None
        )
        if idx is None:
            if not chosen:
                return None, placements
            # Dead end: take one copy of the last member back, resume after it.
            idx, copies = chosen.pop()
            for v in members[idx]:
                budget[v] += 1
            remaining += 1
            if copies > 1:
                chosen.append((idx, copies - 1))
                placements += 1
        else:
            copies = min(remaining, *(budget[v] for v in members[idx]))
            for v in members[idx]:
                budget[v] -= copies
            remaining -= copies
            chosen.append((idx, copies))
            placements += 1
        start = idx + 1
    return tuple(members[i] for i, copies in chosen for _ in range(copies)), placements


def is_unavoidable(K: Complex, r: int, V: Multiset, guard: int | None = None) -> UnavoidabilityVerdict:
    """Exhaustive search for a proper r-collection avoiding K entirely.

    Non-faces are closed upward, so a member of an avoiding collection can
    shrink to a minimal non-face below it and the collection stays proper
    and avoiding.  The search therefore runs over multisets of minimal
    non-faces (the empty set is a face of every complex), sorted by size and
    then vertex ids.  The first counterexample it finds is the
    lexicographically least avoiding collection over all non-faces too:
    shrinking a non-minimal member would lower its index.  The guard
    (`COLLECTION_GUARD` unless one is given, read at call time) bounds
    the number of multisets, comb(#minimal non-faces + r - 1, r), and the
    family that computes the minimal non-faces.
    """
    if not K.universe <= V.universe:
        raise InputError("the complex universe must lie inside the multiset universe")
    if r < 1:
        raise InputError(f"need at least r = 1 members, got {r}")
    limit = guard if guard is not None else COLLECTION_GUARD
    members = minimal_non_faces(K, sorted(V.universe), limit)
    estimate = math.comb(len(members) + r - 1, r)
    if estimate > limit:
        raise ResourceLimitError(
            f"about {estimate} candidate collections exceed the guard ({limit})"
        )
    counterexample, placements = _least_proper_collection(members, r, dict(V.multiplicity))
    stats = {"minimal_non_faces": len(members), "collections_examined": placements}
    return UnavoidabilityVerdict(counterexample is None, counterexample, stats)


@dataclass(frozen=True)
class FaceAvoidanceVerdict:
    m_weight: int
    hypothesis_holds: bool  # m(S) <= r - 1
    unavoidable: bool
    counterexample: tuple | None = None
    stats: dict | None = field(default=None, compare=False)  # as in UnavoidabilityVerdict

    def to_json(self) -> dict:
        out = {
            "m_weight": self.m_weight,
            "hypothesis_holds": self.hypothesis_holds,
            "unavoidable": self.unavoidable,
        }
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

    The unavoidability of the complex is decided by enumeration whether or
    not the hypothesis holds; when it holds, an avoidable complex would
    contradict the avoidance property.  A search beyond the guard raises
    `ResourceLimitError`, as `is_unavoidable` does.
    """
    S = set(S)
    weight = V.weight(S)
    hypothesis = weight <= r - 1
    K = full_simplex(V.universe - S)
    verdict = is_unavoidable(K, r, V, guard=guard)
    if hypothesis and not verdict.unavoidable:
        raise AssertionError(
            "a set of weight <= r-1 produced an avoidable complex; "
            "this contradicts the verified avoidance property"
        )
    return FaceAvoidanceVerdict(
        weight, hypothesis, verdict.unavoidable, verdict.counterexample, verdict.stats
    )


def constrain_complex(K: Complex, avoid_sets) -> Complex:
    """Full subcomplex of K on the vertices outside the union of avoid sets."""
    avoid_sets = [set(s) for s in avoid_sets]
    for a, b in itertools.combinations(avoid_sets, 2):
        if a & b:
            raise InputError("avoid sets must be pairwise disjoint")
    removed = set().union(*avoid_sets) if avoid_sets else set()
    facets = antichain(tuple(v for v in f if v not in removed) for f in K.facets)
    return Complex(K.universe - removed, facets)
