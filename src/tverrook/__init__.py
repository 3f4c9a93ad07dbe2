"""Rook-placement complexes, collapse-map degrees, and colored Tverberg search.

The package has three layers:

* combinatorics — ``simplicial`` (complexes as facet antichains),
  ``chessboard`` (multiple chessboard complexes, orientations, symmetry),
  ``homology`` (reduced integral homology by sparse unit elimination and
  Smith normal form), and
  ``maps`` (column-collapse maps, degrees, mod-p obstruction reports);
* geometry — exact rational point configurations and the rainbow
  Tverberg partition search (``geometry``, ``exactlp``);
* constraints — unavoidable complexes and constrained configuration
  spaces (``constraints``).

``cli`` exposes everything as a single ``tverrook`` command.
"""

from .chessboard import (
    ChessboardSpec,
    PseudomanifoldReport,
    RowPermutation,
    Subgroup,
    act_row_permutation,
    build_chessboard,
    check_pseudomanifold,
    fixed_subcomplex,
    one_row_spec,
    orient,
    sphere_spec,
    standard_spec,
    trivial_subgroup,
    verify_orientation,
)
from .constraints import (
    FaceAvoidanceVerdict,
    Multiset,
    UnavoidabilityVerdict,
    check_face_avoidance_unavoidable,
    constrain_complex,
    full_simplex,
    is_unavoidable,
    is_V_proper,
)
from .errors import InputError, ResourceLimitError
from .geometry import (
    ColoredPoint,
    DimCaps,
    Exhausted,
    LiftResult,
    PointConfig,
    TverbergInstance,
    TverbergSolution,
    build_example_a,
    hulls_intersect,
    lift_to_vertex_disjoint,
    rainbow_faces,
    random_balanced_config,
    random_prime_power_config,
    search_tverberg,
    search_tverberg_all,
    solve_balanced_caps,
    verify_solution,
)
from .homology import (
    HomologyProfile,
    betti_and_torsion,
    boundary_matrix,
    homological_connectivity,
    smith_invariants,
)
from .maps import (
    CollapseResult,
    CollapseTheta,
    ObstructionReport,
    collapse_complex,
    degree_by_counting,
    degree_formula,
    elementary_abelian_subgroups,
    legendre_valuation,
    multiplicity_vector,
    obstruction_report,
)
from .simplicial import (
    Complex,
    antichain,
    build_complex,
    chain_boundary,
    euler_characteristic,
    face_counts,
    faces_by_dimension,
    join,
    join_complexes,
    link,
    skeleton,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
