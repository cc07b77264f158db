"""Weighted triangle support and the weighted trussness decomposition.

Each triangle confers an integer weight derived from its edge weights
(minimum or harmonic mean, scaled by alpha and floored), and an edge's
weighted support is the sum over its triangles. The supports are a plain
`SupportMap` over the same triangle list, carrying each row's weight; each
triangle is weighed once, before peeling. `k_classes` peels such a map like
a plain one, except that a killed triangle decrements its surviving edges
by its weight, clamped at the frontier, so weighting adds no complexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .graph import Graph, Weight, _first_seen, _sort_rows
from .triangles import SupportMap, triangle_list
from .truss import KClassDecomposition, k_classes

DEFAULT_SUPPORT_CAP = 1 << 24


@dataclass(frozen=True)
class TriangleWeightSpec:
    """How a triangle's integer weight is derived from its edge weights."""

    kind: Literal["minimum", "harmonic"] = "minimum"
    alpha: Weight = 1

    def __post_init__(self):
        if self.kind not in ("minimum", "harmonic"):
            raise ValueError(f"unknown triangle weight kind {self.kind!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive")


def triangle_weight(spec: TriangleWeightSpec, w1: Weight, w2: Weight, w3: Weight) -> int:
    """Integer weight of one triangle: floor(alpha * min) or
    floor(alpha / (1/w1 + 1/w2 + 1/w3))."""
    if not all(0 < w < math.inf for w in (w1, w2, w3)):
        raise ValueError("edge weights must be positive and finite")
    if spec.kind == "minimum":
        return math.floor(spec.alpha * min(w1, w2, w3))
    recip = Fraction(1, 1) / w1 + Fraction(1, 1) / w2 + Fraction(1, 1) / w3
    return math.floor(spec.alpha / recip)


def _weight_table(graph: Graph, spec: TriangleWeightSpec, triangles: np.ndarray):
    """Exact triangle weights as (values, index): triangle t weighs
    values[index[t]].

    minimum: values are floor(alpha * w) per stored edge weight w, and a
    triangle takes its lowest code's entry; the stored weights ascend and
    floor is monotone, so that is floor(alpha * min). harmonic:
    triangle_weight runs once per distinct code triple.
    """
    exact = [Fraction(w) for w in graph.weight_values]
    code = graph.weight_code
    tri_codes = np.zeros(triangles.shape, np.int32) if code is None else code[triangles]
    if spec.kind == "minimum":
        low = np.minimum(np.minimum(tri_codes[:, 0], tri_codes[:, 1]), tri_codes[:, 2])
        return [triangle_weight(spec, w, w, w) for w in exact], low
    rows = _sort_rows(tri_codes).astype(np.int64)
    # number each distinct (c0, c1) pair, then each distinct (pair, c2), by
    # first appearance; keys stay below D * D and T * D, so none overflows
    pair, count, _ = _first_seen(rows[:, 0] * len(exact) + rows[:, 1], len(exact) ** 2)
    index, _, first = _first_seen(pair * len(exact) + rows[:, 2], len(count) * len(exact))
    values = [triangle_weight(spec, *map(exact.__getitem__, row)) for row in rows[first].tolist()]
    return values, index


def weighted_supports(graph: Graph, spec: TriangleWeightSpec) -> SupportMap:
    """Weighted support per edge: the weights of its rows in the triangle
    list, summed exactly, returned with the list and its row weights. Fails
    fast if any support exceeds DEFAULT_SUPPORT_CAP, since the peel's level
    range is bounded by the maximum support."""
    triangles = triangle_list(graph)
    values, index = _weight_table(graph, spec, triangles)
    flat = triangles.ravel()
    most = int(np.bincount(flat).max()) if len(flat) else 0
    # int64 unless some sum could overflow it; exact Python ints then
    exact = np.int64 if max(values, default=0) * most < 1 << 63 else object
    weights = np.array(values, dtype=exact)[index]
    sup = np.zeros(graph.m, dtype=exact)
    np.add.at(sup, flat, np.repeat(weights, 3))
    top = int(sup.max()) if graph.m else 0
    if top > DEFAULT_SUPPORT_CAP:
        raise ValueError(
            f"maximum weighted support {top} exceeds cap {DEFAULT_SUPPORT_CAP}; "
            "rescale alpha or the edge weights"
        )
    # under the cap every support and row weight fits int64
    return SupportMap(
        np.asarray(sup, dtype=np.int64), triangles, np.asarray(weights, dtype=np.int64)
    )


def weighted_k_classes(graph: Graph, spec: TriangleWeightSpec) -> KClassDecomposition:
    """Weighted trussness of every edge: `k_classes` of the weighted
    supports. With unit weights and spec(minimum, alpha=1) this reduces
    exactly to the plain decomposition."""
    return k_classes(graph, weighted_supports(graph, spec))
