"""Exact classification of fractal cubes of order n with N pieces.

The default pipeline enumerates all 7-piece digit sets of order 3, filters
for connectivity and the one-point intersection property, reduces by the 48
cube symmetries, and groups the surviving classes by the isomorphism type of
their intersection graph, which the paper takes for the bi-Lipschitz class at
(3, 7); at 9 pieces one type holds both a dendrite and a non-dendrite.
"""

from .core import (
    CUBE_GROUP,
    CanonicalForm,
    Digit,
    DigitSet,
    Isometry,
    apply_isometry,
    canonical_form,
    cell_index,
    parse_digitset,
)
from .faces import (
    OFFSETS,
    FaceClass,
    FaceKind,
    TriadicPoint,
    build_automaton,
    classify_face,
)
from .topology import (
    BipartiteGraph,
    GraphCode,
    PieceGraph,
    bipartite_graph,
    graph_code,
    has_one_point_property,
    intersection_graph,
    is_connected,
    is_dendrite,
    piece_adjacency,
    verify_no_triple_points,
)
from .pipeline import (
    ClassificationReport,
    ClassRecord,
    classify_all,
    enumerate_all,
    match_labels,
    verify_against_tables,
)
from .oracle import (
    VoxelSet,
    oracle_face_cardinality,
    oracle_face_empty,
    voxelize,
)

__version__ = "0.1.0"

__all__ = [
    "CUBE_GROUP",
    "CanonicalForm",
    "Digit",
    "DigitSet",
    "Isometry",
    "apply_isometry",
    "canonical_form",
    "cell_index",
    "parse_digitset",
    "OFFSETS",
    "FaceClass",
    "FaceKind",
    "TriadicPoint",
    "build_automaton",
    "classify_face",
    "BipartiteGraph",
    "GraphCode",
    "PieceGraph",
    "bipartite_graph",
    "graph_code",
    "has_one_point_property",
    "intersection_graph",
    "is_connected",
    "is_dendrite",
    "piece_adjacency",
    "verify_no_triple_points",
    "ClassificationReport",
    "ClassRecord",
    "classify_all",
    "enumerate_all",
    "match_labels",
    "verify_against_tables",
    "VoxelSet",
    "oracle_face_cardinality",
    "oracle_face_empty",
    "voxelize",
    "__version__",
]
