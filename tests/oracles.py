"""Independent reference implementations used as test oracles: brute-force
enumerators of chessboard facets, fixed subcomplexes and Tverberg solutions,
the `Fraction` phase-1 LP that `tverrook.exactlp` replaced, the
`Fraction`-row hull intersection and `Fraction` re-substitution check that
the integer grid replaced in `tverrook.geometry`, the backtracking bin
packer that the closed-form Theorem 6.2 packing check replaced there, the
whole-matrix Smith normal form homology that sparse unit elimination
replaced in `tverrook.homology`, the one-heap Markowitz elimination that
the cost-0 heap and the late Markowitz heap replaced there, the
whole-complex preimage scan that
direct preimage enumeration replaced in `tverrook.maps`, the scan of
every subset of V that the search over minimal non-faces replaced in
`tverrook.constraints`, the face-at-a-time prefix loop that the bitmask
candidate sets replaced in `tverrook.geometry.search_tverberg`, the face
boxes and the pairwise box comparison that the box rows replaced, each
built on demand from the per-point chains of
`tverrook.geometry._meet_masks`, ranks of boundary maps over F_p, and the span-and-dedupe subspace enumerator and
the regular (Z_p)^k action that the reduced row echelon enumeration and
the closed-form fixed-point dimensions replaced in `tverrook.maps`, and
the argparse parse of a row's flags, whose exact forms
`tverrook.cli._parse_row` reads by hand.

It also holds the simplicial operations that no CLI command uses (links,
joins, skeleta, chain boundaries, Euler characteristics, dense boundary
matrices built from chain boundaries), the row-permutation action on an
oriented complex, every solution of the face-at-a-time search, and the
factorial-ratio collapse degree."""

import argparse
import functools
import itertools
import math
from fractions import Fraction
from heapq import heapify, heappop, heappush

from tverrook import (
    CollapseTheta,
    Complex,
    HomologyProfile,
    InputError,
    ResourceLimitError,
    RowPermutation,
    Subgroup,
    TverbergSolution,
    UnavoidabilityVerdict,
    antichain,
    build_chessboard,
    constraints,
    hulls_intersect,
    rainbow_faces,
    smith_invariants,
)
from tverrook.cli import _row_parser
from tverrook.geometry import _grid, _grid_projections, is_rainbow, respects_multiplicities

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
        coords = [cell_coords(spec, v) for v in cells]
        rows = [r for _, r in coords]
        return len(rows) == len(set(rows)) and all(
            sum(1 for c, _ in coords if c == col) <= cap
            for col, cap in enumerate(spec.col_caps, start=1)
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
    (w,) = set(range(1, spec.n + 1)) - {cell_coords(spec, v)[1] for v in facet}
    return w


@functools.lru_cache(maxsize=4)
def _oriented_facets(source):
    """Each facet of the whole source complex with its sign (-1)**(w-1), w the omitted row."""
    return tuple(
        (facet, (-1) ** (omitted_row(source, facet) - 1))
        for facet in build_chessboard(source).facets
    )


def collapse_map(theta, source):
    """Target cell of each source cell: column j of row i goes to column theta(j) of row i."""
    mt = theta.target_columns
    cells = []
    for v in range(source.m * source.n):
        col, row = cell_coords(source, v)
        cells.append((row - 1) * mt + theta.assignment[col - 1] - 1)
    return cells


def constant_theta(source_columns):
    """The collapse of every column onto one."""
    return CollapseTheta(source_columns, 1, (1,) * source_columns)


def degree_formula(caps, theta):
    """The collapse degree prod(b_i!) / prod(a_j!), b the caps that theta
    adds over its fibers, from the factorials alone."""
    b = [0] * theta.target_columns
    for t, a in zip(theta.assignment, caps):
        b[t - 1] += a
    num = math.prod(math.factorial(x) for x in b)
    den = math.prod(math.factorial(x) for x in caps)
    assert num % den == 0
    return num // den


def scan_preimage(theta, source, target_facet):
    """{source facet: orientation sign} for every facet of the whole source
    complex whose collapse image is `target_facet`.

    The reference for `tverrook.maps.preimage`.
    """
    image = collapse_map(theta, source).__getitem__
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
    image = collapse_map(theta, source)
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
    grid = _grid(config)
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
        if hulls_intersect(tup, grid)[0] is not None:
            solutions.append(tuple(tup))
    return solutions


def face_boxes(faces: list, projections: list) -> list:
    """Per face, its box: the least and the greatest projection of its points
    on each direction.

    Faces come in (size, lex) order, as `rainbow_faces` gives them, so the
    prefix face f[:-1] comes before f, and f's box is the prefix's box
    widened by the projections of f's last point.
    """
    index: dict = {}
    boxes = []
    for fi, f in enumerate(faces):
        index[f] = fi
        x = projections[f[-1]]
        if len(f) == 1:
            boxes.append((x, x))
        else:
            lo, hi = boxes[index[f[:-1]]]
            boxes.append((tuple(map(min, lo, x)), tuple(map(max, hi, x))))
    return boxes


def pairwise_meet_masks(boxes):
    """Per face i, the bitmask of the faces j whose box meets box i on every
    direction, by comparing every pair of boxes."""
    return [
        sum(
            1 << j
            for j, (lo_j, hi_j) in enumerate(boxes)
            if all(a <= d and c <= b for a, b, c, d in zip(lo_i, hi_i, lo_j, hi_j))
        )
        for lo_i, hi_i in boxes
    ]


def loop_search(instance, find_all):
    """The pruned search of `tverrook.geometry.search_tverberg`, one
    candidate face at a time.

    Each level tests every face from its start in order against the
    dimension caps, the multiplicity budget (or vertex-disjointness) and the
    running box, the intersection of the prefix faces' boxes, rule after
    rule.  At depths 1..r-2 it then closes the level, without visiting a
    face, when some color class is met by every surviving face and has
    less budget left than the r - depth faces still to come: its budget
    less one per prefix face that meets it.  Every full tuple goes to the
    LP: there is no Farkas cut, so its `lp_calls` is `search_tverberg`'s
    `lp_calls` + `pruned_farkas`, and it counts none of `pruned_farkas`,
    `lp_pivots` and `lp_direct`.  Returns (solutions, stats) as
    `search_tverberg` does, the other counters included.
    """
    config = instance.config
    r = instance.r
    faces = rainbow_faces(config)
    grid = _grid(config)
    boxes = face_boxes(faces, _grid_projections(grid[1]))
    disjoint = instance.disjointness == "vertex-disjoint"
    caps = instance.dim_caps

    budget = [pt.multiplicity for pt in config.points]
    classes = {}  # per color, its points
    for v, pt in enumerate(config.points):
        classes.setdefault(pt.color, set()).add(v)
    class_budget = {
        c: len(members) if disjoint else sum(config.points[v].multiplicity for v in members)
        for c, members in classes.items()
    }
    used_vertices = set()
    chosen = []
    solutions = []
    stats = {
        "rainbow_faces": len(faces),
        "pruned_dim_cap": 0,
        "pruned_budget": 0,
        "pruned_box": 0,
        "pruned_color": 0,
        "lp_calls": 0,
        "lp_feasible": 0,
    }

    def boxes_meet(box1, box2):
        lo = tuple(max(a, b) for a, b in zip(box1[0], box2[0]))
        hi = tuple(min(a, b) for a, b in zip(box1[1], box2[1]))
        if any(a > b for a, b in zip(lo, hi)):
            return None
        return lo, hi

    def first_rule(fi, box, capped_used):
        """(the counter of the first rule that cuts face fi, or None; its
        running box; 1 if it is at the top dimension)"""
        f = faces[fi]
        extra = 0
        if caps is not None:
            dim = len(f) - 1
            extra = 1 if dim == caps.max_dim else 0
            if dim > caps.max_dim or capped_used + extra > caps.s:
                return "pruned_dim_cap", None, extra
        blocked = used_vertices.intersection(f) if disjoint else any(budget[v] < 1 for v in f)
        if blocked:
            return "pruned_budget", None, extra
        nxt_box = boxes[fi] if box is None else boxes_meet(box, boxes[fi])
        if nxt_box is None:
            return "pruned_box", None, extra
        return None, nxt_box, extra

    def color_closes(survivors):
        depth = len(chosen)
        if not survivors or not 0 < depth < r - 1:
            return False
        for c, members in classes.items():
            left = class_budget[c] - sum(1 for fi in chosen if members.intersection(faces[fi]))
            if left < r - depth and all(members.intersection(f) for f in survivors):
                return True
        return False

    def rec(start, box, capped_used):
        if len(chosen) == r:
            stats["lp_calls"] += 1
            got = hulls_intersect([faces[i] for i in chosen], grid)[0]
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
        tested = [(fi, *first_rule(fi, box, capped_used)) for fi in range(start, len(faces))]
        if color_closes([faces[fi] for fi, rule, _, _ in tested if rule is None]):
            for _, rule, _, _ in tested:
                stats[rule or "pruned_color"] += 1
            return False
        for fi, rule, nxt_box, extra in tested:
            if rule is not None:
                stats[rule] += 1
                continue
            f = faces[fi]
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
    """Phase-1 simplex with Bland's rule on a `Fraction` tableau, with every
    artificial column from the start: (x, z, pivots) as
    `tverrook.exactlp.solve_equality_feasibility` returns them.

    The reference for that integer tableau, which must return the same point
    (or None) and make the same pivots on every system.  z is read from the
    final costs of the artificials, y_i = cost_i - 1 with the negated rows'
    signs undone, and cleared of denominators: a positive multiple of the
    tableau's vector.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    # rows with negative right-hand side are negated so artificials start
    # feasible; int cells become Fractions
    T = []
    rhs = []
    for row, bi in zip(A, b):
        sign = -1 if bi < 0 else 1
        T.append([sign * Fraction(v) for v in row])
        rhs.append(sign * Fraction(bi))

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
    pivots = 0

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
        pivots += 1

    if value != 0:
        y = [(cost[n + i] - 1) * (-1 if bi < 0 else 1) for i, bi in enumerate(b)]
        denominator = math.lcm(*(v.denominator for v in y))
        return None, [int(v * denominator) for v in y], pivots
    x = [_ZERO] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = rhs[i]
    return x, None, pivots


def dense_betti_and_torsion(K):
    """Reduced integral homology from the dense Smith form of each whole boundary matrix.

    The reference for `tverrook.betti_and_torsion`, which must give the same
    Betti numbers and torsion on every complex.
    """
    dim = K.dimension
    invariants = [smith_invariants(boundary_matrix(K, q)) for q in range(dim + 1)] + [[]]
    betti = tuple(
        len(q_faces(K, q)) - len(invariants[q]) - len(invariants[q + 1]) for q in range(dim + 1)
    )
    torsion = tuple(tuple(d for d in invariants[q + 1] if d > 1) for q in range(dim + 1))
    return HomologyProfile(betti, torsion)


def _leibniz_det(M):
    """Exact integer determinant as the signed sum over all permutations."""
    n = len(M)
    return sum(
        _sort_sign(perm) * math.prod(M[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def determinantal_divisors(A):
    """[D_1, ..., D_rank] of an integer matrix: D_k is the gcd of all k x k minors.

    D_k = d_1 ... d_k for the invariant factors d_i of the Smith normal form,
    and the first k with every k x k minor zero is rank + 1.
    """
    rows, cols = len(A), len(A[0]) if A else 0
    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for I in itertools.combinations(range(rows), k):
            for J in itertools.combinations(range(cols), k):
                g = math.gcd(g, _leibniz_det([[A[i][j] for j in J] for i in I]))
        if not g:
            break
        divisors.append(g)
    return divisors


def markowitz_eliminate_units(columns: list, n_rows: int):
    """Eliminate +-1 pivots of a sparse integer matrix through one Markowitz heap.

    The reference for `tverrook.homology.eliminate_units`, which must take
    the same pivots and leave the same remainder.

    Returns ``(pivots, remainder)``: the set of columns eliminated as unit
    pivots, each giving an invariant factor 1, and the dense matrix of the
    rows and columns left nonzero, whose Smith invariants are the rest.  A
    pivot (i, j) of value u clears row i by the column moves
    ``col_k -= a_ik * u * col_j``; then row i and column j are dropped.  The
    next pivot is the unit entry of least fill (r_i - 1)(c_j - 1), ties to
    the lowest column, then row.  The column dicts are updated in place.

    The heap keeps, for every unit entry, an item whose cost is at most the
    entry's current cost: an entry is pushed again when its value changes or
    a line through it shrinks.  A popped item whose entry is gone or no
    longer a unit is dropped; one below the current cost (a line grew) is
    pushed back at that cost; one above it is a duplicate and is dropped.
    So the first item popped at its entry's current cost is the least.
    """
    cols = list(columns)  # None once a column is eliminated
    rows = [set() for _ in range(n_rows)]  # row -> columns with an entry there
    for j, column in enumerate(cols):
        for i in column:
            rows[i].add(j)
    heap = [
        ((len(rows[i]) - 1) * (len(column) - 1), j, i)
        for j, column in enumerate(cols)
        for i, v in column.items()
        if v == 1 or v == -1
    ]
    heapify(heap)
    pivots = set()
    # each pivot removes a row and a column, so at most this many
    rank_cap = min(n_rows, len(cols))
    while heap and len(pivots) < rank_cap:
        cost, j, i = heappop(heap)
        pivot_col = cols[j]
        if pivot_col is None or pivot_col.get(i) not in (1, -1):
            continue
        now = (len(rows[i]) - 1) * (len(pivot_col) - 1)
        if now != cost:
            if now > cost:
                heappush(heap, (now, j, i))
            continue
        pivots.add(j)
        cols[j] = None
        u = pivot_col.pop(i)
        row_len = {}
        for r in pivot_col:
            row_len[r] = len(rows[r])
            rows[r].discard(j)
        others = rows[i]
        others.discard(j)
        rows[i] = set()
        shrunk = set()
        for k in others:
            target = cols[k]
            col_len = len(target)
            factor = target.pop(i) * u
            for r, v in pivot_col.items():
                new = target.get(r, 0) - factor * v
                if not new:
                    del target[r]
                    rows[r].discard(k)
                else:
                    if r not in target:
                        rows[r].add(k)
                    target[r] = new
            if len(target) < col_len:
                shrunk.add(k)
        # Push the final cost of every unit entry that changed in value (they
        # lie on the rows of column j) or lies on a line that shrank.
        for k in others:
            target = cols[k]
            c = len(target) - 1
            for r in target if k in shrunk else pivot_col:
                v = target.get(r)
                if v == 1 or v == -1:
                    heappush(heap, ((len(rows[r]) - 1) * c, k, r))
        for r in pivot_col:
            if len(rows[r]) < row_len[r]:
                c = len(rows[r]) - 1
                for k in rows[r]:
                    v = cols[k][r]
                    if v == 1 or v == -1:
                        heappush(heap, (c * (len(cols[k]) - 1), k, r))
    live_rows = {r: a for a, r in enumerate(r for r in range(n_rows) if rows[r])}
    live_cols = [column for column in cols if column]
    remainder = [[0] * len(live_cols) for _ in live_rows]
    for b, column in enumerate(live_cols):
        for r, v in column.items():
            remainder[live_rows[r]][b] = v
    return pivots, remainder


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
        if not is_face(K, subset)
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


def brute_force_subgroup(n, generators):
    """(order, orbits) of the group of [n] that the permutation tuples
    generate: products h . g of the elements g found so far with the
    generators h, until none is new; the orbit of i is its set of images."""
    elements = {tuple(range(1, n + 1))}
    while True:
        grown = elements | {tuple(h[g[i] - 1] for i in range(n)) for g in elements for h in generators}
        if grown == elements:
            break
        elements = grown
    orbits = {tuple(sorted({g[i] for g in elements})) for i in range(n)}
    return len(elements), tuple(sorted(orbits))


def translations(p, k, subspace):
    """The row permutation of [p^k] of each element of the subspace, which
    translates the vectors of F_p^k (numbered 1.. in lex order) by it."""
    vectors = list(itertools.product(range(p), repeat=k))
    index = {v: i + 1 for i, v in enumerate(vectors)}
    return [
        RowPermutation(tuple(index[tuple((a + b) % p for a, b in zip(v, u))] for v in vectors))
        for u in subspace
    ]


def regular_action_subgroup(p, k, subspace):
    """The subspace acting on [p^k] by translation of group elements."""
    return Subgroup.from_generators(p**k, translations(p, k, subspace))


def argparse_row_parse(words: tuple, rest: list, seed: int):
    """The argparse parse of a row's flags, as `cli._parse_row` falls back to it."""
    return _row_parser(words).parse_args(rest, argparse.Namespace(seed=seed))


def is_face(K, simplex):
    """Whether the simplex lies in some facet of K."""
    s = set(simplex)
    return any(s <= set(f) for f in K.facets)


def link(K, simplex):
    """Link of a face: all T disjoint from S with T + S a face of K."""
    s = set(simplex)
    if not is_face(K, s):
        raise InputError(f"{sorted(s)} is not a face of the complex")
    residues = [tuple(v for v in f if v not in s) for f in K.facets if s <= set(f)]
    facets = antichain(residues)
    return Complex(frozenset(itertools.chain.from_iterable(facets)), facets)


def join(K1, K2):
    """Join of two complexes, relabeling K2 into fresh vertex ids.

    Returns `(complex, relabel)` where `relabel` maps old K2 vertex ids to
    their new ids; K1 keeps its ids.
    """
    offset = max(K1.universe, default=-1) + 1
    relabel = {v: v + offset for v in sorted(K2.universe)}
    facets = tuple(
        sorted(f1 + tuple(relabel[v] for v in f2) for f1 in K1.facets for f2 in K2.facets)
    )
    return Complex(K1.universe | frozenset(relabel.values()), facets), relabel


def skeleton(K, k):
    """The subcomplex of all faces of dimension at most k."""
    faces = {face for f in K.facets for face in itertools.combinations(f, min(k + 1, len(f)))}
    return Complex(K.universe, antichain(faces))


def q_faces(K, q):
    """The q-faces of K, sorted: every (q+1)-subset of every facet."""
    return sorted({face for f in K.facets for face in itertools.combinations(f, q + 1)})


def euler_characteristic(K, reduced=False):
    """Alternating sum of face counts; the reduced one counts the empty face too."""
    lo = -1 if reduced else 0
    return sum((-1 if q % 2 else 1) * len(q_faces(K, q)) for q in range(lo, K.dimension + 1))


def chain_boundary(chain):
    """Simplicial boundary of an integer chain {simplex: coefficient}."""
    out = {}
    for simplex, coeff in chain.items():
        for idx in range(len(simplex)):
            face = simplex[:idx] + simplex[idx + 1:]
            val = out.get(face, 0) + (-1) ** idx * coeff
            if val:
                out[face] = val
            else:
                out.pop(face, None)
    return out


def boundary_matrix(K, q):
    """Dense matrix of the boundary map from q-faces to (q-1)-faces.

    Column j is the `chain_boundary` of the j-th q-face, and the faces of
    both dimensions are indexed in sorted order.  For q = 0 this is the
    augmentation map onto the empty simplex.
    """
    rows = {face: i for i, face in enumerate(q_faces(K, q - 1))}
    columns = q_faces(K, q)
    matrix = [[0] * len(columns) for _ in rows]
    for j, face in enumerate(columns):
        for subface, coeff in chain_boundary({face: 1}).items():
            matrix[rows[subface]][j] = coeff
    return matrix


def cell_coords(spec, vertex):
    """The 1-based (column, row) of a cell id: the inverse of `spec.cell`."""
    return vertex % spec.m + 1, vertex // spec.m + 1


def _sort_sign(values):
    """Sign of the permutation sorting a repetition-free sequence."""
    return math.prod(-1 if a > b else 1 for a, b in itertools.combinations(values, 2))


def parity(g):
    """+1 for an even row permutation, -1 for an odd one."""
    return _sort_sign(g.mapping)


def act_row_permutation(K, spec, g, tau):
    """Apply a row permutation to the oriented complex.

    Returns (vertex_map, sign) where sign compares g . tau with tau; the
    comparison must be globally constant (+1 for even g, -1 for odd g).
    """
    vertex_map = {}
    for v in range(spec.m * spec.n):
        col, row = cell_coords(spec, v)
        vertex_map[v] = spec.cell(col, g.mapping[row - 1])
    facet_set = set(K.facets)
    signs = set()
    for facet, coeff in tau.items():
        image = [vertex_map[v] for v in facet]
        image_sorted = tuple(sorted(image))
        assert image_sorted in facet_set, "row permutation failed to map a facet to a facet"
        signs.add(coeff * _sort_sign(image) * tau[image_sorted])
    (sign,) = signs
    return vertex_map, sign


def is_V_proper(V, collection, r):
    """Every vertex used at most its multiplicity across the r members."""
    if len(collection) != r:
        raise InputError(f"expected exactly {r} members, got {len(collection)}")
    lookup = dict(V.multiplicity)
    usage = {}
    for member in collection:
        for v in member:
            if v not in lookup:
                raise InputError(f"vertex {v} is outside the multiset universe")
            usage[v] = usage.get(v, 0) + 1
    return all(count <= lookup[v] for v, count in usage.items())


def search_tverberg_all(instance):
    """The face tuples of every solution of the face-at-a-time pruned search."""
    solutions, _ = loop_search(instance, True)
    return [s.faces for s in solutions]


def fraction_hulls_intersect(config, faces):
    """Common point of the faces' hulls from `Fraction` rows and the `Fraction`
    LP: (witness, certificates), or None.

    The reference for `tverrook.geometry.hulls_intersect`, which builds the
    same rows times L as ints and must return the same point.
    """
    faces = [tuple(f) for f in faces]
    offsets = list(itertools.accumulate((len(f) for f in faces), initial=0))
    total = offsets.pop()
    rows = []
    rhs = []
    for fi, f in enumerate(faces):
        row = [_ZERO] * total
        for j in range(len(f)):
            row[offsets[fi] + j] = _ONE
        rows.append(row)
        rhs.append(_ONE)
    for fi in range(1, len(faces)):
        for coord in range(config.d):
            row = [_ZERO] * total
            for j, v in enumerate(faces[0]):
                row[offsets[0] + j] += config.points[v].coords[coord]
            for j, v in enumerate(faces[fi]):
                row[offsets[fi] + j] -= config.points[v].coords[coord]
            rows.append(row)
            rhs.append(_ZERO)
    x, _, _ = fraction_equality_feasibility(rows, rhs)
    if x is None:
        return None
    certificates = tuple(
        tuple(x[offsets[fi] + j] for j in range(len(f))) for fi, f in enumerate(faces)
    )
    witness = tuple(
        sum((c * config.points[v].coords[coord] for c, v in zip(certificates[0], faces[0])), _ZERO)
        for coord in range(config.d)
    )
    return witness, certificates


def fraction_verify_solution(config, solution):
    """Re-substitution in `Fraction`s: the reference for
    `tverrook.geometry.verify_solution`, which checks in integers."""
    if len(solution.faces) != len(solution.certificates) or len(solution.witness) != config.d:
        return False
    for face, cert in zip(solution.faces, solution.certificates):
        if len(face) != len(cert) or not all(0 <= v < len(config.points) for v in face):
            return False
        if any(c < 0 for c in cert) or sum(cert) != 1:
            return False
        for coord in range(config.d):
            value = sum(c * config.points[v].coords[coord] for c, v in zip(cert, face))
            if value != solution.witness[coord]:
                return False
        if not is_rainbow(config, face):
            return False
    return respects_multiplicities(config, solution.faces)


def backtrack_can_pack(weights, bins, cap):
    """Whether the weights pack into `bins` sets of weight <= cap, by
    backtracking over the sets, heaviest weight first."""
    weights = sorted(weights, reverse=True)
    loads = [0] * bins

    def rec(idx):
        if idx == len(weights):
            return True
        seen = set()
        for b in range(bins):
            if loads[b] in seen:
                continue
            seen.add(loads[b])
            if loads[b] + weights[idx] <= cap:
                loads[b] += weights[idx]
                if rec(idx + 1):
                    return True
                loads[b] -= weights[idx]
        return False

    return rec(0)
