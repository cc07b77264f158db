"""Weighted triangle support and the weighted trussness decomposition.

Each triangle confers an integer weight derived from its edge weights
(minimum or harmonic mean, scaled by alpha and floored), and an edge's
weighted support is the sum over its triangles. Both come from the same
triangle list as plain supports, and each triangle is weighed once, before
peeling. The peel is the plain one, except that a killed triangle
decrements its surviving edges by its weight, clamped at the frontier, so
weighting adds no complexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

import numpy as np

from .graph import Graph, Weight
from .triangles import triangle_list
from .truss import KClassDecomposition, peel_triangles

DEFAULT_SUPPORT_CAP = 1 << 24


@dataclass(frozen=True)
class TriangleWeightSpec:
    """How a triangle's integer weight is derived from its edge weights."""

    kind: Literal["minimum", "harmonic"] = "minimum"
    alpha: Weight = 1

    def __post_init__(self):
        if self.kind not in ("minimum", "harmonic"):
            raise ValueError(f"unknown triangle weight kind {self.kind!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


def triangle_weight(spec: TriangleWeightSpec, w1: Weight, w2: Weight, w3: Weight) -> int:
    """Integer weight of one triangle: floor(alpha * min) or
    floor(alpha / (1/w1 + 1/w2 + 1/w3))."""
    if w1 <= 0 or w2 <= 0 or w3 <= 0:
        raise ValueError("edge weights must be positive")
    if spec.kind == "minimum":
        return math.floor(spec.alpha * min(w1, w2, w3))
    recip = Fraction(1, 1) / w1 + Fraction(1, 1) / w2 + Fraction(1, 1) / w3
    return math.floor(spec.alpha / recip)


@dataclass(frozen=True)
class WeightedSupportMap:
    """Sum of triangle weights per edge.

    `triangles` is the triangle list the sums came from and
    `triangle_weights` the int64 weight of each of its rows, so the peel
    neither scans nor weighs a triangle again.
    """

    sup: tuple[int, ...]
    max_support: int
    triangles: np.ndarray | None = field(default=None, compare=False, repr=False)
    triangle_weights: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __getitem__(self, eid: int) -> int:
        return self.sup[eid]


def _weight_table(graph: Graph, spec: TriangleWeightSpec, triangles: np.ndarray):
    """Exact triangle weights as (values, index): triangle t weighs
    values[index[t]].

    minimum: values are floor(alpha * w) per distinct edge weight w, in
    ascending order, and a triangle takes its lightest edge's entry; floor
    is monotone, so that is floor(alpha * min). harmonic: triangle_weight
    runs once per distinct weight triple.
    """
    # keyed by (numerator, denominator): Fraction hashing is slow
    distinct = list({w.as_integer_ratio() for w in graph.weights})
    if spec.kind == "minimum":
        scaled = {nd: triangle_weight(spec, *(Fraction(*nd),) * 3) for nd in distinct}
        distinct.sort(key=scaled.__getitem__)
    code_of = {nd: i for i, nd in enumerate(distinct)}
    codes = np.fromiter(
        (code_of[w.as_integer_ratio()] for w in graph.weights), dtype=np.int64, count=graph.m
    )
    tri_codes = codes[triangles]
    if spec.kind == "minimum":
        return [scaled[nd] for nd in distinct], tri_codes.min(axis=1)
    rows = np.sort(tri_codes, axis=1)
    # number each distinct (c0, c1) pair, then each distinct (pair, c2); no
    # key exceeds T * D, so none overflows
    pair = np.unique(rows[:, 0] * len(distinct) + rows[:, 1], return_inverse=True)[1]
    triple = pair.reshape(-1) * len(distinct) + rows[:, 2]
    _, first, index = np.unique(triple, return_index=True, return_inverse=True)
    values = [
        triangle_weight(spec, *(Fraction(*distinct[c]) for c in row))
        for row in rows[first].tolist()
    ]
    return values, index.reshape(-1)


def weighted_supports(
    graph: Graph,
    spec: TriangleWeightSpec,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> WeightedSupportMap:
    """Weighted support per edge: the weights of its rows in the triangle
    list, summed exactly. Fails fast if any support exceeds support_cap,
    since the peel's level range is bounded by the maximum support."""
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
    if top > support_cap:
        raise ValueError(
            f"maximum weighted support {top} exceeds cap {support_cap}; "
            "rescale alpha or the edge weights"
        )
    if top >= 1 << 63:
        raise ValueError(f"maximum weighted support {top} does not fit in 64 bits")
    return WeightedSupportMap(
        sup=tuple(sup.tolist()),
        max_support=top,
        triangles=triangles,
        triangle_weights=np.asarray(weights, dtype=np.int64),
    )


def weighted_k_classes(
    graph: Graph,
    spec: TriangleWeightSpec,
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> KClassDecomposition:
    """Weighted trussness of every edge: the plain peel, decrementing by
    each killed triangle's weight.

    With unit weights and spec(minimum, alpha=1) this reduces exactly to the
    plain decomposition.
    """
    supports = weighted_supports(graph, spec, support_cap)
    phi = peel_triangles(graph.m, supports.triangles, supports.sup, supports.triangle_weights)
    return KClassDecomposition.from_phi(phi, supports.triangles)
