"""Independent reference implementations used as test oracles: brute-force
enumerators of chessboard facets, fixed subcomplexes and Tverberg solutions,
the `Fraction` phase-1 LP that `tverrook.exactlp` replaced, the
whole-matrix Smith normal form homology that sparse unit elimination
replaced in `tverrook.homology`, the whole-complex preimage scan that
direct preimage enumeration replaced in `tverrook.maps`, the scan of
every subset of V that the search over minimal non-faces replaced in
`tverrook.constraints`, the face-at-a-time prefix loop that the bitmask
candidate sets replaced in `tverrook.geometry._search`, ranks of
boundary maps over F_p, and the span-and-dedupe subspace enumerator and
the regular (Z_p)^k action that the reduced row echelon enumeration and
the closed-form fixed-point dimensions replaced in `tverrook.maps`."""

import functools
import itertools
import math
from fractions import Fraction

from tverrook import (
    HomologyProfile,
    InputError,
    ResourceLimitError,
    RowPermutation,
    Subgroup,
    TverbergSolution,
    UnavoidabilityVerdict,
    boundary_matrix,
    build_chessboard,
    constraints,
    faces_by_dimension,
    hulls_intersect,
    rainbow_faces,
    smith_invariants,
)
from tverrook.geometry import _box, _grid_projections

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _maximal_faces(vertices, admissible):
    """The maximal subsets of `vertices` that satisfy `admissible`, lex sorted.

    Every subset is tested; admissibility is closed under taking subsets, so
    a face is maximal iff no single vertex can be added to it.
    """
    faces = {
        s
        for k in range(len(vertices) + 1)
        for s in itertools.combinations(vertices, k)
        if admissible(s)
    }
    return sorted(
        f for f in faces
        if not any(tuple(sorted(f + (v,))) in faces for v in vertices if v not in f)
    )


def brute_force_facets(spec):
    """Facets of `build_chessboard(spec)`: all rook placements, cell by cell."""

    def admissible(cells):
        coords = [spec.cell_coords(v) for v in cells]
        return all(
            sum(1 for c, _ in coords if c == col) <= cap
            for col, cap in enumerate(spec.col_caps, start=1)
        ) and all(
            sum(1 for _, r in coords if r == row) <= cap
            for row, cap in enumerate(spec.row_caps, start=1)
        )

    return _maximal_faces(list(range(spec.m * spec.n)), admissible)


def brute_force_fixed_subcomplex(spec, orbits):
    """Universe and facets of `fixed_subcomplex` for a subgroup with these orbits.

    Vertex (j - 1) * m + (i - 1) is the barycenter of orbit j in column i,
    admissible iff |O_j| <= l_i.  A face uses each orbit at most once and
    puts orbits of total size at most l_i in column i.
    """
    m = spec.m
    sizes = [len(o) for o in orbits]
    universe = [
        j * m + i for j in range(len(orbits)) for i in range(m) if sizes[j] <= spec.col_caps[i]
    ]

    def admissible(vertices):
        used = [v // m for v in vertices]
        load = [0] * m
        for v in vertices:
            load[v % m] += sizes[v // m]
        return len(used) == len(set(used)) and all(x <= c for x, c in zip(load, spec.col_caps))

    return frozenset(universe), _maximal_faces(universe, admissible)


def omitted_row(spec, facet):
    """The one row of [1..n] that a facet of a pseudomanifold-family board leaves empty."""
    (w,) = set(range(1, spec.n + 1)) - {spec.cell_coords(v)[1] for v in facet}
    return w


@functools.lru_cache(maxsize=4)
def _oriented_facets(source):
    """Each facet of the whole source complex with its sign (-1)**(w-1), w the omitted row."""
    return tuple(
        (facet, (-1) ** (omitted_row(source, facet) - 1))
        for facet in build_chessboard(source).facets
    )


def _collapse_map(theta, source):
    """Target cell of each source cell: column j of row i goes to column theta(j) of row i."""
    mt = theta.target_columns
    cells = []
    for v in range(source.m * source.n):
        col, row = source.cell_coords(v)
        cells.append((row - 1) * mt + theta(col) - 1)
    return cells


def scan_preimage(theta, source, target_facet):
    """{source facet: orientation sign} for every facet of the whole source
    complex whose collapse image is `target_facet`.

    The reference for `tverrook.maps.preimage`.
    """
    image = _collapse_map(theta, source).__getitem__
    target_facet = tuple(target_facet)
    return {
        facet: sign
        for facet, sign in _oriented_facets(source)
        if tuple(sorted(map(image, facet))) == target_facet
    }


def scan_preimage_signs(theta, source):
    """Signs of the source facets over the image of the source's first facet,
    each times that target facet's sign, by a scan of the whole source complex.

    The reference for `tverrook.maps.preimage_signs`.
    """
    first, _ = _oriented_facets(source)[0]
    image = _collapse_map(theta, source)
    target_facet = tuple(sorted(image[v] for v in first))
    used = {v // theta.target_columns + 1 for v in target_facet}
    (w,) = set(range(1, source.n + 1)) - used
    return [sign * (-1) ** (w - 1) for sign in scan_preimage(theta, source, target_facet).values()]


def naive_rainbow_faces(config):
    """All nonempty faces with pairwise distinct colors, by direct subset scan."""
    n = len(config.points)
    out = []
    for size in range(1, n + 1):
        for face in itertools.combinations(range(n), size):
            colors = [config.points[v].color for v in face]
            if len(colors) == len(set(colors)):
                out.append(face)
    return sorted(out, key=lambda f: (len(f), f))


def naive_search_all(instance):
    """Unpruned enumeration of every solution, as canonical face tuples."""
    config = instance.config
    faces = naive_rainbow_faces(config)
    disjoint = instance.disjointness == "vertex-disjoint"
    caps = instance.dim_caps

    def admissible(tup):
        usage = {}
        for f in tup:
            for v in f:
                usage[v] = usage.get(v, 0) + 1
        if any(usage[v] > config.points[v].multiplicity for v in usage):
            return False
        if disjoint:
            if sum(len(f) for f in tup) != len(set(v for f in tup for v in f)):
                return False
        if caps is not None:
            dims = [len(f) - 1 for f in tup]
            if any(dim > caps.max_dim for dim in dims):
                return False
            if sum(1 for dim in dims if dim == caps.max_dim) > caps.s:
                return False
        return True

    solutions = []
    for tup in itertools.combinations_with_replacement(faces, instance.r):
        if not admissible(tup):
            continue
        if hulls_intersect(config, tup) is not None:
            solutions.append(tuple(tup))
    return solutions


def loop_search(instance, find_all):
    """The pruned search of `tverrook.geometry._search`, one candidate face at a time.

    Each level tries every face from its start in order, and tests the
    dimension caps, the multiplicity budget (or vertex-disjointness) and the
    running box, the intersection of the prefix faces' boxes, rule after
    rule.  Returns (solutions, stats) as `_search` does, counters included.
    """
    config = instance.config
    r = instance.r
    faces = rainbow_faces(config)
    projections = _grid_projections(config)
    boxes = [_box(projections, f) for f in faces]
    disjoint = instance.disjointness == "vertex-disjoint"
    caps = instance.dim_caps

    budget = [pt.multiplicity for pt in config.points]
    used_vertices = set()
    chosen = []
    solutions = []
    stats = {
        "rainbow_faces": len(faces),
        "pruned_dim_cap": 0,
        "pruned_budget": 0,
        "pruned_box": 0,
        "lp_calls": 0,
        "lp_feasible": 0,
    }

    def boxes_meet(box1, box2):
        lo = tuple(max(a, b) for a, b in zip(box1[0], box2[0]))
        hi = tuple(min(a, b) for a, b in zip(box1[1], box2[1]))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return lo, hi

    def rec(start, box, capped_used):
        if len(chosen) == r:
            stats["lp_calls"] += 1
            got = hulls_intersect(config, [faces[i] for i in chosen])
            if got is not None:
                stats["lp_feasible"] += 1
                witness, certs = got
                solutions.append(
                    TverbergSolution(
                        tuple(faces[i] for i in chosen), witness, certs,
                        caps.policy if caps else None,
                    )
                )
            return bool(solutions) and not find_all
        for fi in range(start, len(faces)):
            f = faces[fi]
            extra = 0
            if caps is not None:
                dim = len(f) - 1
                extra = 1 if dim == caps.max_dim else 0
                if dim > caps.max_dim or capped_used + extra > caps.s:
                    stats["pruned_dim_cap"] += 1
                    continue
            blocked = used_vertices.intersection(f) if disjoint else any(budget[v] < 1 for v in f)
            if blocked:
                stats["pruned_budget"] += 1
                continue
            nxt_box = boxes[fi] if box is None else boxes_meet(box, boxes[fi])
            if nxt_box is None:
                stats["pruned_box"] += 1
                continue
            if disjoint:
                used_vertices.update(f)
            else:
                for v in f:
                    budget[v] -= 1
            chosen.append(fi)
            done = rec(fi + 1 if disjoint else fi, nxt_box, capped_used + extra)
            chosen.pop()
            if disjoint:
                used_vertices.difference_update(f)
            else:
                for v in f:
                    budget[v] += 1
            if done:
                return True
        return False

    rec(0, None, 0)
    return solutions, stats


def rank_mod_p(columns, p):
    """Rank over F_p of a sparse integer matrix, given as columns {row: value}.

    A column is reduced by the earlier pivot columns until its lowest row is
    no pivot's; then it is a pivot itself, or it is zero.
    """
    pivots = {}  # lowest row -> the column with that lowest row, scaled to 1 there
    for column in columns:
        column = {i: v % p for i, v in column.items() if v % p}
        while column:
            low = max(column)
            other = pivots.get(low)
            if other is None:
                inverse = pow(column[low], -1, p)
                pivots[low] = {i: v * inverse % p for i, v in column.items()}
                break
            factor = column[low]
            for i, v in other.items():
                new = (column.get(i, 0) - factor * v) % p
                if new:
                    column[i] = new
                else:
                    column.pop(i, None)
    return len(pivots)


def fraction_equality_feasibility(A: list, b: list):
    """Phase-1 simplex with Bland's rule on a `Fraction` tableau: x >= 0 with Ax = b, or None.

    The reference for `tverrook.exactlp.solve_equality_feasibility`, which
    must return the same point (or None) on every system.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    # rows with negative right-hand side are negated so artificials start feasible
    T = []
    rhs = []
    for row, bi in zip(A, b):
        if bi < 0:
            T.append([-v for v in row])
            rhs.append(-bi)
        else:
            T.append(list(row))
            rhs.append(bi)

    # columns n..n+m-1 are artificials; basis starts as the artificials
    for i in range(m):
        T[i].extend(_ONE if j == i else _ZERO for j in range(m))
    basis = list(range(n, n + m))

    # phase-1 objective: minimize the sum of artificials.
    # reduced-cost row for the current (artificial) basis
    cost = [_ZERO] * (n + m)
    for j in range(n + m):
        cost[j] = (_ONE if j >= n else _ZERO) - sum(T[i][j] for i in range(m))
    value = -sum(rhs)

    while True:
        entering = next((j for j in range(n + m) if cost[j] < 0), None)
        if entering is None:
            break
        # Bland: smallest ratio, ties broken by smallest basis variable index
        leaving = None
        best = None
        for i in range(m):
            coeff = T[i][entering]
            if coeff > 0:
                ratio = rhs[i] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            raise AssertionError("phase-1 objective is bounded; unbounded pivot is impossible")
        piv = T[leaving][entering]
        T[leaving] = [v / piv for v in T[leaving]]
        rhs[leaving] /= piv
        for i in range(m):
            if i != leaving and T[i][entering]:
                factor = T[i][entering]
                T[i] = [v - factor * w for v, w in zip(T[i], T[leaving])]
                rhs[i] -= factor * rhs[leaving]
        if cost[entering]:
            factor = cost[entering]
            cost = [v - factor * w for v, w in zip(cost, T[leaving])]
            value -= factor * rhs[leaving]
        basis[leaving] = entering

    if value != 0:
        return None
    x = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i]
    return x


def dense_betti_and_torsion(K):
    """Reduced integral homology from the dense Smith form of each whole boundary matrix.

    The reference for `tverrook.betti_and_torsion`, which must give the same
    Betti numbers and torsion on every complex.
    """
    by_dim = faces_by_dimension(K)
    dim = K.dimension
    invariants = [smith_invariants(boundary_matrix(K, q)) for q in range(dim + 1)] + [[]]
    betti = tuple(
        len(by_dim[q]) - len(invariants[q]) - len(invariants[q + 1]) for q in range(dim + 1)
    )
    torsion = tuple(tuple(d for d in invariants[q + 1] if d > 1) for q in range(dim + 1))
    return HomologyProfile(betti, torsion)


def scan_is_unavoidable(K, r, V, guard=None):
    """Exhaustive search for a proper r-collection avoiding K entirely.

    Only non-faces of K can appear in an avoiding collection (the empty set
    is a face of every complex), so the enumeration runs over multisets of
    non-faces in lexicographic order; the first counterexample found is the
    lexicographically least one.

    The reference for `tverrook.is_unavoidable`: every subset of V is
    tested, and the search recurses once per member.
    """
    if not K.universe <= V.universe:
        raise InputError("the complex universe must lie inside the multiset universe")
    if r < 1:
        raise InputError(f"need at least r = 1 members, got {r}")
    limit = guard if guard is not None else constraints.COLLECTION_GUARD
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


def span_subspaces(p, k):
    """All subspaces of F_p^k as sorted tuples of vectors, sorted.

    The reference for `tverrook.maps.elementary_abelian_subgroups`: the span
    of every combination of nonzero generators, deduplicated.
    """
    vectors = list(itertools.product(range(p), repeat=k))

    def span(gens):
        elements = {(0,) * k}
        frontier = [(0,) * k]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = tuple((a + b) % p for a, b in zip(cur, g))
                if nxt not in elements:
                    elements.add(nxt)
                    frontier.append(nxt)
        return tuple(sorted(elements))

    subspaces = {span([])}
    for size in range(1, k + 1):
        for gens in itertools.combinations(vectors[1:], size):
            subspaces.add(span(gens))
    return sorted(subspaces)


def gaussian_binomial(n, h, p):
    """The number of h-dimensional subspaces of F_p^n."""
    num = den = 1
    for i in range(h):
        num *= p ** (n - i) - 1
        den *= p ** (h - i) - 1
    return num // den


def regular_action_subgroup(p, k, subspace):
    """The subspace acting on [p^k] by translation of group elements."""
    vectors = list(itertools.product(range(p), repeat=k))
    index = {v: i + 1 for i, v in enumerate(vectors)}
    perms = []
    for u in subspace:
        mapping = tuple(
            index[tuple((a + b) % p for a, b in zip(v, u))] for v in vectors
        )
        perms.append(RowPermutation(mapping))
    return Subgroup.from_generators(p**k, perms)
