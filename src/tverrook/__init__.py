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
    build_chessboard,
    check_pseudomanifold,
    fixed_subcomplex,
    one_row_spec,
    orient,
    sphere_spec,
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
)
from .errors import InputError, ResourceLimitError
from .geometry import (
    ColoredPoint,
    DimCaps,
    LiftResult,
    PointConfig,
    TverbergInstance,
    TverbergSolution,
    build_example_a,
    hulls_intersect,
    lift_to_vertex_disjoint,
    rainbow_faces,
    search_tverberg,
    solve_balanced_caps,
    verify_solution,
)
from .homology import (
    HomologyProfile,
    betti_and_torsion,
    homological_connectivity,
    smith_invariants,
)
from .maps import (
    CollapseTheta,
    ObstructionReport,
    elementary_abelian_subgroups,
    legendre_valuation,
    multiplicity_vector,
    obstruction_report,
)
from .simplicial import Complex, antichain, build_complex, faces_by_dimension

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "1.0.0"
