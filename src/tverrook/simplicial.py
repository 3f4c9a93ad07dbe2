"""Facet-presented abstract simplicial complexes.

A simplex is a strictly increasing tuple of non-negative vertex ids; the
empty tuple is the empty simplex (dimension -1).  A complex stores only its
facets (maximal faces), canonically sorted, together with its vertex
universe.  The complex whose only face is the empty simplex has the single
facet `()` and dimension -1.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import InputError, ResourceLimitError, shown

Simplex = tuple  # strictly increasing tuple of ints

# Most faces `faces_by_dimension` lists, counted over the facets with
# repeats: M(7,7) has 645 120 and the multiple chessboard complex with column
# caps (2,2,2,2) on 9 rows has 5 806 080.  A single facet of 23 vertices, all
# 2^23 of its faces, still fits.
MAX_LISTED_FACES = 1 << 23
# Most boundary-matrix entries those faces make, also counted with repeats:
# a face of k vertices has k entries.  M(7,7) makes 2 257 920 and (2,2,2,2)
# on 9 rows 23 224 320; one facet of 22 vertices makes 46 137 344 and is
# refused.
MAX_BOUNDARY_ENTRIES = 1 << 25


def _vertex_ids(vertices) -> tuple:
    """The vertex ids as a tuple, each a non-negative int and not a bool.

    Checked before any set is formed: ``{1, True}`` would hide the bool.
    """
    out = tuple(vertices)
    for v in out:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise InputError(f"vertex ids must be non-negative integers, got {shown(v)}")
    return out


def as_simplex(vertices) -> Simplex:
    """Canonicalize an iterable of vertex ids into a simplex tuple."""
    return tuple(sorted(set(_vertex_ids(vertices))))


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


class Complex(NamedTuple):
    """Finite abstract simplicial complex given by universe and facets.

    Not checked here: the package's builders put the facets in the universe,
    and `build_complex` checks that a complex read from JSON has them there.
    """

    universe: frozenset
    facets: tuple

    @property
    def dimension(self) -> int:
        return max(len(f) for f in self.facets) - 1

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(set(itertools.chain.from_iterable(self.facets))))

    def is_pure(self) -> bool:
        return len({len(f) for f in self.facets}) == 1

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
    uni = frozenset(_vertex_ids(universe))
    kept = antichain([as_simplex(f) for f in facets])
    # a facet with a vertex outside the universe survives the antichain, or
    # lies in one that has that vertex too
    for f in kept:
        if not set(f) <= uni:
            raise InputError(f"facet {f} has vertices outside the universe")
    return Complex(uni, kept)


def faces_by_dimension(K: Complex, top: int | None = None) -> dict:
    """The faces of K of dimension at most `top` (default: all), by dimension.

    The empty simplex is included, as dimension -1.  When the facets have
    more than `MAX_LISTED_FACES` such faces, or their boundary matrices more
    than `MAX_BOUNDARY_ENTRIES` entries (k for a face of k vertices), both
    counted with repeats, this raises `ResourceLimitError` before any face
    is listed.
    """
    largest = max(map(len, K.facets))
    if top is None:
        top = largest - 1
    # a facet of s vertices has at most 2^s faces and s * 2^(s-1) entries, so
    # most complexes need no exact count; the count stops once it passes a
    # cap, so a huge facet costs few terms
    facet_count = len(K.facets)
    if (
        facet_count << largest > MAX_LISTED_FACES
        or (facet_count * largest << largest) >> 1 > MAX_BOUNDARY_ENTRIES
    ):
        sizes = list(map(len, K.facets))
        faces = entries = 0
        for size in set(sizes):
            count = sizes.count(size)
            for k in range(min(size, top + 1) + 1):
                faces += count * math.comb(size, k)
                entries += count * k * math.comb(size, k)
                if faces > MAX_LISTED_FACES:
                    raise ResourceLimitError(
                        f"more than MAX_LISTED_FACES = {MAX_LISTED_FACES} faces "
                        f"up to dimension {top}"
                    )
                if entries > MAX_BOUNDARY_ENTRIES:
                    raise ResourceLimitError(
                        f"more than MAX_BOUNDARY_ENTRIES = {MAX_BOUNDARY_ENTRIES} "
                        f"boundary-matrix entries up to dimension {top}"
                    )
    by_dim: dict = {}
    for q in range(min(top, largest - 1) + 2):
        faces = set()
        for facet in K.facets:
            faces.update(itertools.combinations(facet, q))
        by_dim[q - 1] = sorted(faces)
    return by_dim
