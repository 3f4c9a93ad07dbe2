import math
import random

from oracles import rank_mod_p
from tverrook import (
    betti_and_torsion,
    boundary_matrix,
    build_chessboard,
    build_complex,
    euler_characteristic,
    face_counts,
    faces_by_dimension,
    homological_connectivity,
    homology,
    join,
    smith_invariants,
    sphere_spec,
    standard_spec,
)
from tverrook.homology import _boundary_columns, _reduce_boundaries


def matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


def test_smith_invariants_diagonal():
    assert smith_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariants([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariants([[0, 0], [0, 0]]) == []


def test_smith_invariants_divisibility_chain():
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        inv = smith_invariants(A)
        assert all(x > 0 for x in inv)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def unimodular_shuffle(A, rng):
    A = [row[:] for row in A]
    for _ in range(10):
        if len(A) > 1:
            i, j = rng.sample(range(len(A)), 2)
            c = rng.randint(-3, 3)
            A[i] = [x + c * y for x, y in zip(A[i], A[j])]
        if len(A[0]) > 1:
            i, j = rng.sample(range(len(A[0])), 2)
            c = rng.randint(-3, 3)
            for row in A:
                row[i] += c * row[j]
    return A


def test_smith_invariants_stable_under_unimodular_moves():
    rng = random.Random(11)
    for _ in range(10):
        A = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        assert smith_invariants(A) == smith_invariants(unimodular_shuffle(A, rng))


def test_boundary_composition_is_zero():
    K = build_chessboard(standard_spec(3, 4))
    for q in range(1, K.dimension + 1):
        low = boundary_matrix(K, q)
        high = boundary_matrix(K, q + 1)
        if not low or not high:
            continue
        product = matmul(low, high)
        assert all(x == 0 for row in product for x in row)


def test_hexagon_is_a_circle():
    profile = betti_and_torsion(build_chessboard(standard_spec(2, 3)))
    assert list(profile.betti) == [0, 1]
    assert all(t == () for t in profile.torsion)


def test_3_4_board_is_a_torus():
    profile = betti_and_torsion(build_chessboard(standard_spec(3, 4)))
    assert list(profile.betti) == [0, 2, 1]
    assert all(t == () for t in profile.torsion)


def test_simplex_boundary_is_a_sphere():
    profile = betti_and_torsion(build_chessboard(sphere_spec(4)))
    assert list(profile.betti) == [0, 0, 1]


def test_projective_plane_torsion():
    # Minimal 6-vertex triangulation of RP^2: Betti (0,0,0), H_1 torsion Z/2.
    facets = [
        (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
        (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
    ]
    K = build_complex(set(range(1, 7)), facets)
    profile = betti_and_torsion(K)
    assert list(profile.betti) == [0, 0, 0]
    assert profile.torsion_in(1) == (2,)


def test_euler_characteristic_matches_betti_sum():
    for spec in [standard_spec(2, 3), standard_spec(3, 4), sphere_spec(4)]:
        K = build_chessboard(spec)
        profile = betti_and_torsion(K)
        betti_sum = sum((-1) ** q * b for q, b in enumerate(profile.betti))
        assert betti_sum == euler_characteristic(K, reduced=True)


def test_connectivity_of_hexagon():
    K = build_chessboard(standard_spec(2, 3))
    assert homological_connectivity(K, -1)
    assert homological_connectivity(K, 0)
    assert not homological_connectivity(K, 1)


def test_connectivity_of_5_row_board():
    K = build_chessboard(standard_spec(3, 5))
    assert homological_connectivity(K, 1)


def test_connectivity_of_join():
    K1 = build_chessboard(standard_spec(2, 3))  # a circle
    K2 = build_chessboard(standard_spec(1, 3))  # three points
    J, _ = join(K1, K2)
    # Levels (m1-2) + (m2-2) + 2*(2-1) with m1=2, m2=1.
    assert homological_connectivity(J, 1)


def test_profile_json_shape():
    profile = betti_and_torsion(build_chessboard(standard_spec(2, 3)))
    data = profile.to_json()
    assert data == [
        {"q": 0, "betti": 0, "torsion": []},
        {"q": 1, "betti": 1, "torsion": []},
    ]


def test_point_is_fully_connected():
    K = build_complex({0}, [(0,)])
    assert homological_connectivity(K, 5)


def test_face_counts_feed_euler():
    K = build_chessboard(standard_spec(3, 4))
    counts = face_counts(K)
    assert counts[1] == 3 * 4 * 3  # edges: ordered pairs of non-attacking rooks / 2 = 36


def reduced_euler_closed_form(m, n):
    """Sum over k of (-1)^(k-1) C(m,k) C(n,k) k!: the faces of M(m,n) with k rooks."""
    return sum((-1) ** (k - 1) * math.comb(m, k) * math.comb(n, k) * math.factorial(k)
               for k in range(min(m, n) + 1))


def test_5_5_board_has_3_torsion():
    # Shareshian-Wachs, Adv. Math. 212 (2007): H_2(M(5,5)) = Z/3.
    K = build_chessboard(standard_spec(5, 5))
    profile = betti_and_torsion(K)
    assert profile.betti == (0, 0, 0, 56, 0)
    assert profile.torsion == ((), (), (3,), (), ())
    chi = sum((-1) ** q * b for q, b in enumerate(profile.betti))
    assert chi == reduced_euler_closed_form(5, 5) == euler_characteristic(K, reduced=True) == -56
    # Unit elimination leaves a remainder for the dense Smith form only in
    # the boundary map from 3-faces, and that remainder carries the Z/3.  It
    # is one row: the rows of 2-faces taken as unit pivots by the boundary
    # map from 2-faces are never built.
    assert [r["remainder"] for r in profile.boundary] == [[0, 0], [0, 0], [0, 0], [1, 46], [0, 0]]


def test_5_6_board_is_torsion_free():
    K = build_chessboard(standard_spec(5, 6))
    profile = betti_and_torsion(K)
    assert profile.betti == (0, 0, 0, 152, 1)
    assert profile.torsion == ((), (), (), (), ())
    chi = sum((-1) ** q * b for q, b in enumerate(profile.betti))
    assert chi == reduced_euler_closed_form(5, 6) == euler_characteristic(K, reduced=True) == -151


def test_5_7_board_is_torsion_free():
    K = build_chessboard(standard_spec(5, 7))
    profile = betti_and_torsion(K)
    assert profile.betti == (0, 0, 0, 98, 132)
    assert profile.torsion == ((), (), (), (), ())
    chi = sum((-1) ** q * b for q, b in enumerate(profile.betti))
    assert chi == reduced_euler_closed_form(5, 7) == euler_characteristic(K, reduced=True) == 34


def test_6_6_board_has_3_torsion_in_dimension_3():
    K = build_chessboard(standard_spec(6, 6))
    profile = betti_and_torsion(K)
    assert profile.betti == (0, 0, 0, 25, 210, 0)
    assert profile.torsion == ((), (), (), (3,) * 10, (), ())
    chi = sum((-1) ** q * b for q, b in enumerate(profile.betti))
    assert chi == reduced_euler_closed_form(6, 6) == euler_characteristic(K, reduced=True) == 185


def rational_ranks(K, top):
    """Ranks over Q of d_0, ..., d_top, from the integral reduction."""
    return [rank for rank, _, _ in _reduce_boundaries(faces_by_dimension(K), top)]


def columns(K, q):
    """The sparse columns {row: +-1} of d_q, as `boundary_matrix` lays them out."""
    return _boundary_columns(faces_by_dimension(K), q)


# Over F_p, d_q loses one rank per invariant factor divisible by p; those
# factors are the torsion of H_{q-1}.


def test_5_5_board_ranks_mod_p():
    # H_2 = Z/3: d_3 has one invariant factor 3 and no even one.
    K = build_chessboard(standard_spec(5, 5))
    A = columns(K, 3)
    rank = rational_ranks(K, 3)[3]
    assert (rank_mod_p(A, 2), rank_mod_p(A, 3)) == (rank, rank - 1) == (424, 423)


def test_5_6_board_ranks_mod_p_are_rational():
    K = build_chessboard(standard_spec(5, 6))
    ranks = rational_ranks(K, 4)
    for q in range(1, 5):
        A = columns(K, q)
        assert rank_mod_p(A, 2) == rank_mod_p(A, 3) == ranks[q], q


def test_6_6_board_ranks_mod_p():
    # H_3 torsion (Z/3)^10: d_4 has ten invariant factors 3 and no even one.
    K = build_chessboard(standard_spec(6, 6))
    A = columns(K, 4)
    rank = rational_ranks(K, 4)[4]
    # f_4 - rank d_5 - beta_4, where rank d_5 = f_5 = 720 as beta_5 = 0
    assert rank == 4320 - 720 - 210
    assert (rank_mod_p(A, 2), rank_mod_p(A, 3)) == (rank, rank - 10)


def test_connectivity_builds_only_the_maps_it_needs(monkeypatch):
    K = build_chessboard(standard_spec(6, 6))
    eliminate_units = homology.eliminate_units
    eliminated = []

    def counting(columns, n_rows):
        eliminated.append(len(columns))
        return eliminate_units(columns, n_rows)

    monkeypatch.setattr(homology, "eliminate_units", counting)
    # H_0..H_2 are decided by d_0..d_3: d_4 (from the 4320 4-faces) is never reduced.
    assert homological_connectivity(K, 2)
    counts = face_counts(K)
    assert eliminated == [counts[q] for q in range(4)] == [36, 450, 2400, 5400]
    profile = betti_and_torsion(K)
    assert all(profile.betti_number(q) == 0 and not profile.torsion_in(q) for q in range(3))
    assert not homological_connectivity(K, 3)


def test_chessboard_connectivity_ladder():
    # Bjorner-Lovasz-Vrecica-Zivaljevic, J. London Math. Soc. 49 (1994):
    # M(m,n) is (nu-2)-connected, nu = min(m, n, floor((m+n+1)/3)).
    for m in range(1, 7):
        for n in range(m, 36 // m + 1):
            nu = min(m, n, (m + n + 1) // 3)
            assert homological_connectivity(build_chessboard(standard_spec(m, n)), nu - 2), (m, n)
    # Sharp at M(5,5), nu = 3: H_2 = Z/3 (Shareshian-Wachs).
    assert not homological_connectivity(build_chessboard(standard_spec(5, 5)), 2)
