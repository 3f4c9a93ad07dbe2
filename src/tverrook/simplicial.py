"""Facet-presented abstract simplicial complexes.

A simplex is a strictly increasing tuple of non-negative vertex ids; the
empty tuple is the empty simplex (dimension -1).  A complex stores only its
facets (maximal faces), canonically sorted, together with its vertex
universe.  The complex whose only face is the empty simplex has the single
facet `()` and dimension -1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError

Simplex = tuple  # strictly increasing tuple of ints


def as_simplex(vertices) -> Simplex:
    """Canonicalize an iterable of vertex ids into a simplex tuple."""
    out = tuple(sorted(set(vertices)))
    for v in out:
        if not isinstance(v, int) or v < 0:
            raise InputError(f"vertex ids must be non-negative integers, got {v!r}")
    return out


def antichain(faces) -> tuple:
    """Reduce a collection of simplices to its maximal elements, lex sorted.

    Returns `((),)` when the collection is empty or contains only the empty
    simplex, so the result is always a valid facet list.
    """
    distinct = sorted(set(faces), key=len, reverse=True)
    kept: list = []
    larger: list = []  # sets of strictly larger kept faces; dups already gone
    current_size = None
    pending: list = []
    for f in distinct:
        if len(f) != current_size:
            larger.extend(pending)
            pending = []
            current_size = len(f)
        fs = set(f)
        if any(fs <= k for k in larger):
            continue
        kept.append(f)
        pending.append(fs)
    if not kept:
        kept = [()]
    return tuple(sorted(kept))


@dataclass(frozen=True)
class Complex:
    """Finite abstract simplicial complex given by universe and facets."""

    universe: frozenset
    facets: tuple

    def __post_init__(self):
        for f in self.facets:
            if not set(f) <= self.universe:
                raise InputError(f"facet {f} has vertices outside the universe")

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(set(itertools.chain.from_iterable(self.facets))))

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

    def is_face(self, simplex) -> bool:
        s = set(simplex)
        return any(s <= set(f) for f in self.facets)

    def to_json(self) -> dict:
        return {"universe": sorted(self.universe), "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json(cls, data: dict) -> "Complex":
        try:
            universe = data["universe"]
            facets = data["facets"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed complex JSON: {exc}") from exc
        return build_complex(universe, facets)


def build_complex(universe, facets) -> Complex:
    """Build a complex from facet lists, deduplicated and antichain-reduced."""
    uni = frozenset(universe)
    for v in uni:
        if not isinstance(v, int) or v < 0:
            raise InputError(f"vertex ids must be non-negative integers, got {v!r}")
    simplices = []
    for f in facets:
        s = as_simplex(f)
        if not set(s) <= uni:
            raise InputError(f"facet {sorted(f)} has vertices outside the universe")
        simplices.append(s)
    return Complex(uni, antichain(simplices))


def link(K: Complex, simplex) -> Complex:
    """Link of a face: all T disjoint from S with T + S a face of K."""
    s = as_simplex(simplex)
    if not K.is_face(s):
        raise InputError(f"{s} is not a face of the complex")
    sset = set(s)
    residues = [tuple(v for v in f if v not in sset) for f in K.facets if sset <= set(f)]
    facets = antichain(residues)
    universe = frozenset(itertools.chain.from_iterable(facets))
    return Complex(universe, facets)


def join(K1: Complex, K2: Complex):
    """Join of two complexes, relabeling K2 into fresh vertex ids.

    Returns `(complex, relabel)` where `relabel` maps old K2 vertex ids to
    their new ids; K1 keeps its ids.
    """
    offset = max(K1.universe, default=-1) + 1
    relabel = {v: v + offset for v in sorted(K2.universe)}
    facets = tuple(
        sorted(f1 + tuple(relabel[v] for v in f2) for f1 in K1.facets for f2 in K2.facets)
    )
    universe = K1.universe | frozenset(relabel.values())
    return Complex(universe, facets), relabel


def join_complexes(*complexes: Complex) -> Complex:
    """Iterated join, discarding the relabeling maps."""
    out = complexes[0]
    for K in complexes[1:]:
        out, _ = join(out, K)
    return out


def skeleton(K: Complex, k: int) -> Complex:
    """The subcomplex of all faces of dimension at most k."""
    if k < -1:
        raise InputError("skeleton dimension must be >= -1")
    if k >= K.dimension:
        return K
    faces = set()
    for f in K.facets:
        if len(f) <= k + 1:
            faces.add(f)
        else:
            faces.update(itertools.combinations(f, k + 1))
    return Complex(K.universe, antichain(faces))


def faces_by_dimension(K: Complex) -> dict:
    """All faces of K grouped by dimension (including the empty simplex)."""
    by_dim: dict = {}
    seen = set()
    for facet in K.facets:
        for q in range(len(facet) + 1):
            for face in itertools.combinations(facet, q):
                if face not in seen:
                    seen.add(face)
                    by_dim.setdefault(q - 1, []).append(face)
    return {q: sorted(fs) for q, fs in sorted(by_dim.items())}


def face_counts(K: Complex) -> dict:
    return {q: len(fs) for q, fs in faces_by_dimension(K).items()}


def euler_characteristic(K: Complex, reduced: bool = False) -> int:
    """Alternating sum of face counts; reduced version includes the empty face."""
    counts = face_counts(K)
    lo = -1 if reduced else 0
    return sum((-1) ** q * c for q, c in counts.items() if q >= lo)


def chain_boundary(chain: dict) -> dict:
    """Simplicial boundary of an integer chain {simplex: coefficient}."""
    out: dict = {}
    for simplex, coeff in chain.items():
        for idx in range(len(simplex)):
            face = simplex[:idx] + simplex[idx + 1:]
            val = out.get(face, 0) + (-1) ** idx * coeff
            if val:
                out[face] = val
            else:
                out.pop(face, None)
    return out
