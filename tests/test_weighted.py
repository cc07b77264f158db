import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import trusskit.weighted as weighted_module
from trusskit import (
    SupportMap,
    TriangleWeightSpec,
    build_graph,
    edge_supports,
    iterative_deletion_oracle,
    k_classes,
    strong_truss_family,
    summit_strong_trusses,
    triangle_weight,
    weighted_k_classes,
    weighted_supports,
)
from trusskit.triangles import triangle_list
from trusskit.truss import peel_triangles
from conftest import complete_graph, graph_from, random_graphs
from conftest import weighted_graphs as seeded_weighted_graphs

MIN1 = TriangleWeightSpec("minimum", 1)
HARM1 = TriangleWeightSpec("harmonic", 1)

weight_values = st.one_of(
    st.integers(min_value=1, max_value=1000),
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(50)),
)


def test_examples():
    assert triangle_weight(MIN1, 2, 3, 6) == 2
    assert triangle_weight(HARM1, 2, 3, 6) == 1  # reciprocals sum to exactly 1
    assert triangle_weight(MIN1, 1, 1, 1) == 1


def test_rejects_nonpositive_weight():
    for spec, bad in itertools.product(
        (MIN1, HARM1), (0, -1, Fraction(-1, 2), float("nan"), float("inf"))
    ):
        for weights in ((bad, 1, 1), (1, bad, 1), (2, 3, bad)):
            with pytest.raises(ValueError, match="edge weights must be positive and finite"):
                triangle_weight(spec, *weights)
    for alpha in (0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="alpha must be positive"):
            TriangleWeightSpec("minimum", alpha)
    with pytest.raises(ValueError):
        TriangleWeightSpec("median", 1)


@given(weight_values, weight_values, weight_values)
def test_symmetry(w1, w2, w3):
    for spec in (MIN1, HARM1):
        values = {
            triangle_weight(spec, *perm) for perm in itertools.permutations((w1, w2, w3))
        }
        assert len(values) == 1


@given(weight_values, weight_values, weight_values, weight_values)
def test_monotone_in_each_argument(w1, w2, w3, bump):
    for spec in (MIN1, HARM1):
        base = triangle_weight(spec, w1, w2, w3)
        assert triangle_weight(spec, w1 + bump, w2, w3) >= base


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
def test_integer_alpha_scales_minimum(alpha, w1, w2, w3):
    spec = TriangleWeightSpec("minimum", alpha)
    assert triangle_weight(spec, w1, w2, w3) == alpha * triangle_weight(MIN1, w1, w2, w3)


def test_k4_unit_weights_match_plain_support():
    g = complete_graph(4)
    assert weighted_supports(g, MIN1).sup == edge_supports(g).sup


def test_k3_min_weights():
    g = graph_from("a b 2\nb c 3\na c 6", weighted=True)
    ws = weighted_supports(g, MIN1)
    assert ws.sup == (2, 2, 2)
    assert ws.max_support == 2


def brute_weighted(g, spec):
    sup = [0] * g.m
    for a in range(g.n):
        for b in g.adj[a]:
            if b <= a:
                continue
            for c in g.adj[b]:
                if c <= b or c not in g.adj[a]:
                    continue
                eids = (g.adj[a][b], g.adj[b][c], g.adj[a][c])
                wt = triangle_weight(spec, *(g.weights[e] for e in eids))
                for e in eids:
                    sup[e] += wt
    return tuple(sup)


def test_weighted_supports_vs_triangle_scan():
    rng = random.Random(77)
    for trial in range(20):
        n = rng.randint(5, 20)
        edges, weights = [], []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.4:
                    edges.append((i, j))
                    weights.append(rng.randint(1, 9))
        if not edges:
            continue
        g = build_graph(n, edges, weights)
        for spec in (MIN1, HARM1, TriangleWeightSpec("minimum", Fraction(3, 2))):
            assert weighted_supports(g, spec).sup == brute_weighted(g, spec)


def test_unit_weight_reduction():
    for _, g in random_graphs(40, 25, seed=1111):
        assert weighted_k_classes(g, MIN1).phi == k_classes(g, edge_supports(g)).phi


def test_single_weighted_triangle_class():
    g = graph_from("a b 2\nb c 3\na c 6", weighted=True)
    dec = weighted_k_classes(g, MIN1)
    assert dec.phi == (4, 4, 4)  # support 2 peels at level 2+2


def test_weighted_strong_formation_levels():
    # heavy triangle forms its cluster 9 support levels above the light one
    g = graph_from(
        "a b 10\nb c 10\na c 10\nc d 1\nd e 1\nc e 1", weighted=True
    )
    dec = weighted_k_classes(g, MIN1)
    fam = strong_truss_family(dec)
    levels = sorted(summit_strong_trusses(fam).level.tolist())
    assert levels == [3, 12]
    assert levels[1] - levels[0] == 9


def test_unit_weights_reproduce_unweighted_family():
    for _, g in random_graphs(15, 18, seed=1212):
        dec_w = weighted_k_classes(g, MIN1)
        fam_w = strong_truss_family(dec_w)
        fam_u = strong_truss_family(k_classes(g, edge_supports(g)))
        assert fam_w == fam_u


def test_peeling_soundness_against_deletion_oracle():
    # phi_w(e) >= k exactly when e survives deleting edges whose weighted
    # support among survivors falls below k-2
    rng = random.Random(314)
    for trial in range(15):
        n = rng.randint(5, 16)
        edges, weights = [], []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges.append((i, j))
                    weights.append(rng.randint(1, 5))
        if not edges:
            continue
        g = build_graph(n, edges, weights)
        dec = weighted_k_classes(g, MIN1)
        for k in range(2, dec.k_max + 2):
            nbr = [dict(a) for a in g.adj]
            alive = set(range(g.m))
            changed = True
            while changed:
                changed = False
                for eid in sorted(alive):
                    lo, hi = g.edges[eid]
                    support = 0
                    for w, e1 in nbr[lo].items():
                        e2 = nbr[hi].get(w)
                        if e2 is not None:
                            support += triangle_weight(
                                MIN1, g.weights[eid], g.weights[e1], g.weights[e2]
                            )
                    if support < k - 2:
                        alive.discard(eid)
                        del nbr[lo][hi], nbr[hi][lo]
                        changed = True
            assert alive == {e for e in range(g.m) if dec.phi[e] >= k}


def test_support_cap_enforced():
    g = graph_from("a b 1\nb c 1\na c 1", weighted=True)
    with pytest.raises(ValueError):
        weighted_supports(g, TriangleWeightSpec("minimum", 1 << 30))


def test_huge_weights_stay_exact():
    # 10**400 is past every float and int64; the cap message names the
    # exact support, so the weights and the sums stay Python numbers
    g = graph_from("a b 1e400\nb c 1e400\na c 1e400", weighted=True)
    assert g.weight_values == (10**400,)
    for spec, top in ((MIN1, 10**400), (HARM1, 10**400 // 3)):
        with pytest.raises(ValueError, match=rf"^maximum weighted support {top} exceeds cap "):
            weighted_supports(g, spec)


def test_support_cap_is_read_at_call_time(monkeypatch):
    g = graph_from("a b 2\nb c 3\na c 6", weighted=True)   # every support is 2
    monkeypatch.setattr(weighted_module, "DEFAULT_SUPPORT_CAP", 2)
    assert weighted_supports(g, MIN1).max_support == 2
    monkeypatch.setattr(weighted_module, "DEFAULT_SUPPORT_CAP", 1)
    with pytest.raises(ValueError, match=r"maximum weighted support 2 exceeds cap 1"):
        weighted_supports(g, MIN1)


def test_weighted_map_counts_triangles_not_weights():
    for g in seeded_weighted_graphs(20, 14, seed=3131):
        for spec in (MIN1, TriangleWeightSpec("harmonic", 3)):
            ws = weighted_supports(g, spec)
            assert ws.total_triangles() == len(triangle_list(g))
            assert ws.max_support == max(ws.sup, default=0)
            assert isinstance(ws.max_support, int)


def test_weighted_separation_beats_unweighted():
    # planted groups with heavy internal ties: weighted classes should
    # separate at least as well at the matched support level
    from trusskit import PlantedModel, clusters_to_node_partition, generate_planted, nmi
    from trusskit import trusses_at

    model = PlantedModel(l=6, group_size=8, p=0.7, mu=0.35, seed=5)
    plain, truth = generate_planted(model)
    heavy = []
    for lo, hi in plain.edges:
        heavy.append(5 if truth.label[lo] == truth.label[hi] else 1)
    g = build_graph(plain.n, list(plain.edges), heavy, list(plain.labels))

    k = 4
    dec_u = k_classes(g, edge_supports(g))
    part_u = clusters_to_node_partition(g, list(trusses_at(dec_u, k)))
    dec_w = weighted_k_classes(g, MIN1)
    k_match = 2 + 5 * (k - 2)
    part_w = clusters_to_node_partition(g, list(trusses_at(dec_w, k_match)))
    assert nmi(truth, part_w) >= nmi(truth, part_u)


def weighted_deletion_survivors(g, spec, k):
    """Oracle: delete edges whose weighted support among survivors is
    below k-2, to a fixpoint."""
    nbr = [dict(a) for a in g.adj]
    alive = set(range(g.m))
    changed = True
    while changed:
        changed = False
        for eid in sorted(alive):
            lo, hi = g.edges[eid]
            support = 0
            for w, e1 in nbr[lo].items():
                e2 = nbr[hi].get(w)
                if e2 is not None:
                    support += triangle_weight(
                        spec, g.weights[eid], g.weights[e1], g.weights[e2]
                    )
            if support < k - 2:
                alive.discard(eid)
                del nbr[lo][hi], nbr[hi][lo]
                changed = True
    return alive


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, keep in zip(pairs, chosen) if keep]
    weights = draw(
        st.lists(st.integers(min_value=1, max_value=12), min_size=len(edges), max_size=len(edges))
    )
    return build_graph(n, edges, weights)


@given(
    weighted_graphs(),
    st.sampled_from(["minimum", "harmonic"]),
    st.sampled_from([1, 3, Fraction(1, 2), Fraction(7, 3)]),
)
def test_weighted_peel_matches_deletion_oracle(g, kind, alpha):
    spec = TriangleWeightSpec(kind, alpha)
    dec = weighted_k_classes(g, spec)
    assert weighted_supports(g, spec).sup == brute_weighted(g, spec)
    for k in range(2, dec.k_max + 2):
        assert weighted_deletion_survivors(g, spec, k) == {
            e for e in range(g.m) if dec.phi[e] >= k
        }


def test_weighted_map_equals_the_oracle_map():
    for g in seeded_weighted_graphs(20, 14, seed=3232):
        for spec in (MIN1, TriangleWeightSpec("harmonic", 3)):
            ws = weighted_supports(g, spec)
            oracle = SupportMap(np.array(brute_weighted(g, spec), dtype=np.int64))
            assert ws == oracle and hash(ws) == hash(oracle)
            assert ws.support.dtype == np.int64
            assert type(ws.total_triangles()) is int
            assert type(weighted_k_classes(g, spec).k_max) is int


@st.composite
def dense_weighted_graphs(draw):
    """Small dense graphs, where two or three edges of one triangle often
    leave the peel in one sub-round: a clique K4-K7, a wheel, or two
    cliques sharing an edge, with random integer weights."""
    shape = draw(st.sampled_from(["clique", "wheel", "two cliques"]))
    if shape == "clique":
        n = draw(st.integers(min_value=4, max_value=7))
        edges = list(itertools.combinations(range(n), 2))
    elif shape == "wheel":
        rim = draw(st.integers(min_value=3, max_value=8))
        n = rim + 1
        edges = [(0, v) for v in range(1, n)] + [(v, v % rim + 1) for v in range(1, n)]
    else:
        a, b = draw(st.integers(3, 6)), draw(st.integers(3, 6))
        n = a + b - 2   # the second clique reuses vertices 0 and 1
        second = [0, 1, *range(a, n)]
        edges = sorted(
            set(itertools.combinations(range(a), 2)) | set(itertools.combinations(second, 2))
        )
    weights = draw(st.lists(st.integers(1, 6), min_size=len(edges), max_size=len(edges)))
    return build_graph(n, edges, weights)


@given(
    dense_weighted_graphs(),
    st.sampled_from(["minimum", "harmonic"]),
    st.sampled_from([1, 3, Fraction(1, 2)]),
)
def test_peel_kills_each_triangle_once(g, kind, alpha):
    """peel_triangles, plain and weighted, keeps at level k exactly the
    edges the deletion oracles keep, on graphs whose triangles lose several
    edges in one sub-round."""
    plain = edge_supports(g)
    phi = peel_triangles(g.m, plain.triangles, plain.support)
    for k in sorted({2, *phi.tolist(), *(phi + 1).tolist()}):
        survivors = iterative_deletion_oracle(g, k).edges
        assert sorted(survivors.tolist()) == np.flatnonzero(phi >= k).tolist()
    spec = TriangleWeightSpec(kind, alpha)
    heavy = weighted_supports(g, spec)
    phi = peel_triangles(g.m, heavy.triangles, heavy.support, heavy.weights)
    for k in sorted({2, *phi.tolist(), *(phi + 1).tolist()}):
        assert weighted_deletion_survivors(g, spec, k) == set(np.flatnonzero(phi >= k).tolist())
