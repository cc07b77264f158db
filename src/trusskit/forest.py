"""The truss dendrogram's merge log from the vertex spanning forest.

The truss dendrogram is single-link agglomeration: an arriving edge joins
the clusters of its endpoints' components. So its merges follow from the
vertex spanning forest under arrival order (Gower & Ross, Applied
Statistics 1969): Borůvka rounds find the forest, and binary lifting over
its Kruskal reconstruction tree answers every edge's merge at once, with a
Python step per forest edge only, not per edge.
"""

from __future__ import annotations

import numpy as np

from .graph import _component_labels, _sorted_unique


def _spanning_forest(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending indices of the links (a[i], b[i]) over nodes 0..n-1 that
    join two components when the links arrive in index order: the minimum
    spanning forest under the unique weights i, found by Borůvka rounds
    (each component picks its lightest outgoing link, then the picks are
    contracted)."""
    ids = np.arange(len(a), dtype=np.int32)
    la, lb = a, b   # each live link's ends, read as their components' roots
    picked = []
    while True:
        apart = la != lb
        if not apart.all():
            ids, la, lb = ids[apart], la[apart], lb[apart]
        if not len(ids):
            break
        best = np.full(n, len(a), dtype=np.int32)   # each root's lightest link
        np.minimum.at(best, la, ids)
        np.minimum.at(best, lb, ids)
        pick = _sorted_unique(best[best < len(a)])
        picked.append(pick)
        at = np.searchsorted(ids, pick)
        root = _component_labels(n, la[at], lb[at])
        la, lb = root[la], root[lb]
    return np.sort(np.concatenate(picked)) if picked else ids


def _reconstruction_tree(n: int, ends: np.ndarray, forest: np.ndarray, none: int):
    """The Kruskal reconstruction tree of a spanning forest over nodes
    0..n-1, whose link j joins ends[j] and arrived as link forest[j], for
    binary lifting: node x < n is vertex x, node n+j joins the two subtrees
    that link j connects, so node ids ascend with arrival, and a root is
    its own parent. Returns the jump tables (the 2^k-th ancestor of every
    node, for as many k as the tree is high) and, per node, the earliest
    link below it (`none` for a vertex)."""
    up = list(range(n + len(forest)))
    low = [none] * n + forest.tolist()
    height = [0] * len(up)
    parent, top = list(range(n)), list(range(n))   # union-find over vertices
    for j, (x, y) in enumerate(ends.tolist(), start=n):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        a, b = top[x], top[y]
        up[a] = up[b] = j
        low[j] = min(low[a], low[b], low[j])
        height[j] = max(height[a], height[b]) + 1
        parent[y], top[x] = x, j
    jumps = [np.array(up, dtype=np.int32)]
    for _ in range(max(height, default=0).bit_length() - 1):
        jumps.append(jumps[-1][jumps[-1]])
    return jumps, np.array(low, dtype=np.int32)


def forest_merges(links: np.ndarray, nodes: int, leaves: int) -> np.ndarray:
    """The merge log `truss._replay` gives a vertex family's links, without
    replaying every link.

    Each leaf i is pendant: its one link joins it to vertex nodes u and v.
    So its row depends only on the smallest leaf in the components of u and
    v just before i (none while a vertex has no earlier edge): none on
    either side gives no row, one side or the same leaf on both gives
    (level, r, i, -1), two leaves r_lo < r_hi give (level, r_lo, r_hi, i).
    A component's smallest leaf is its earliest edge, a spanning forest
    edge, so the forest decides every query, and a leaf off the forest
    finds u and v already joined. The forest's reconstruction tree holds
    every component that ever forms as a subtree, with its smallest leaf;
    the queries climb it together by binary lifting.
    """
    n = nodes - leaves
    forest = _spanning_forest(n, links[:, 2] - leaves, links[:, 3] - leaves)
    jumps, low = _reconstruction_tree(n, links[forest, 2:] - leaves, forest, leaves)
    # climb from u, and from v where i is a forest edge, to the highest
    # ancestor formed before i: a node below n + (forest edges before i)
    at = np.concatenate((links[:, 2], links[forest, 3])) - leaves
    before = np.zeros(leaves, dtype=np.int32)
    before[forest] = 1
    bound = np.cumsum(before, dtype=np.int32)
    bound += n - before
    bound = np.concatenate((bound, bound[forest]))
    del before
    for jump in reversed(jumps):
        ahead = jump[at]
        np.copyto(at, ahead, where=ahead < bound)
    del ahead, bound
    side = low[at]   # each side's smallest leaf, or leaves for none
    del at
    lo, hi = side[:leaves], side[:leaves].copy()
    hi[forest] = side[leaves:]
    lo = np.minimum(lo, hi)
    np.maximum(side[:leaves], hi, out=hi)
    del side
    # rows (level, lo, i, -1), or (level, lo, hi, i) for two sides; none
    # where neither side has a leaf
    leaf = np.arange(leaves, dtype=np.int32)
    one = (hi == leaves) | (lo == hi)
    np.copyto(hi, leaf, where=one)
    np.copyto(leaf, -1, where=one)
    del one
    keep = lo < leaves
    rows = np.empty((np.count_nonzero(keep), 4), dtype=np.int32)
    for column, values in enumerate((links[:, 0], lo, hi, leaf)):
        rows[:, column] = values[keep]
    return rows
