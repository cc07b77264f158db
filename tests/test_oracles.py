import ast
import importlib
import pkgutil
from pathlib import Path

import trusskit
from trusskit import Graph, build_etp_graph
import oracles
from conftest import complete_graph

# names that left the library for oracles.py: what only the tests read
MOVED = [
    "brute_force_supports", "iterative_deletion_oracle", "triangle_connected_components",
    "is_strong_truss", "brute_force_rectangles",
    "adj", "_vertex", "degree", "neighbors", "edge_id", "has_edge", "edge_label_pair",
    "component_edge_sets", "connected_components", "Subgraph", "induced_edge_subgraph",
    "edge_nodes",
    "alive_triads", "alive_periphery_degrees", "LOW_APEX", "MEDIAN_APEX", "ranking",
    "rectangle_supports",
]


def test_library_holds_no_test_only_names():
    """Neither the package, nor any of its modules, nor a graph or an ETP
    structure (class or instance) reaches a name that moved to oracles.py."""
    modules = [trusskit] + [
        importlib.import_module(f"trusskit.{info.name}")
        for info in pkgutil.iter_modules(trusskit.__path__)
    ]
    graph = complete_graph(4)
    etp = build_etp_graph(graph)
    owners = [*modules, Graph, graph, type(etp), etp]
    reached = [(owner, name) for owner in owners for name in MOVED if hasattr(owner, name)]
    assert reached == []
    assert len(modules) > 1


def test_oracles_import_no_private_kernel():
    """An oracle shares no kernel with the fast path it checks: no function
    of oracles.py but component_edge_sets, whose component kernel is the
    subject that bfs_components checks, reads a `_`-prefixed name imported
    from trusskit or a `_`-prefixed attribute."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    private = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trusskit"
        for alias in node.names
        if alias.name.startswith("_")
    }
    readers = set()
    for top in tree.body:
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else ""
            )
            dunder = name.startswith("__") and name.endswith("__")
            if name in private or (isinstance(node, ast.Attribute) and name[:1] == "_" and not dunder):
                readers.add(getattr(top, "name", "<module>"))
    assert readers == {"component_edge_sets"}
