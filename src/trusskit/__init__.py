"""Graph cohesion analysis via triangle and 4-cycle support.

Core pipeline: load an edge list, count per-edge support, peel to the full
class decomposition, then read off maximal, strong, weighted, or summit
structures at any level. Trapezes run the parallel 4-cycle pipeline and a
planted-partition benchmark scores recovery quality by NMI.

trusskit calls no BLAS routine, yet numpy's bundled OpenBLAS starts one
spinning worker thread per core when numpy loads. So if this package is
what first imports numpy, and no BLAS thread count is set in the
environment, it sets OPENBLAS_NUM_THREADS to 1 first.
"""

import os as _os
import sys as _sys

_THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in _sys.modules and not _THREAD_SETTINGS & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .graph import (  # noqa: E402
    EdgeListParseError,
    Graph,
    Subgraph,
    VertexRanking,
    build_graph,
    connected_components,
    induced_edge_subgraph,
    load_edge_list,
    vertex_ranking,
)
from .triangles import SupportMap, brute_force_supports, edge_supports, triangle_list
from .truss import (
    ClusterFamily,
    Clusters,
    KClassDecomposition,
    iterative_deletion_oracle,
    k_classes,
    summit_trusses,
    truss_dendrogram,
    trusses_at,
)
from .strong import (
    strong_truss_family,
    strong_trusses_at,
    summit_strong_trusses,
    triangle_connected_components,
)
from .weighted import (
    TriangleWeightSpec,
    triangle_weight,
    weighted_k_classes,
    weighted_supports,
)
from .trapeze import (
    ETPGraph,
    LevelRun,
    brute_force_rectangles,
    build_etp_graph,
    rectangle_supports,
    strong_trapezes_at,
    trapeze_level_run,
    trapezes_at,
    trim,
)
from .bench import (
    BenchmarkReport,
    InfeasibleModelError,
    Partition,
    PlantedModel,
    clusters_to_node_partition,
    derive_inter_prob,
    generate_planted,
    nmi,
    run_benchmark,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
