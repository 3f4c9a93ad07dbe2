"""Independent brute-force enumerators used as test oracles."""

import itertools

from tverrook import hulls_intersect


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
