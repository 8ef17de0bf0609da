"""Family membership and bounded-scale closure verification."""

import dataclasses
import json
import random
import re
import sys

import networkx as nx
import pytest

from minorclass.enumeration import member_mask_array
from minorclass.errors import ResourceCapError
from minorclass.families import (
    _induced_cycles,
    _planar_predicate,
    _most_disjoint,
    builtin_family,
    derive_flags,
    dichotomy_scan,
    excluded_minor_family,
    family_from_spec,
    freely_addable_at_scale,
    limited_at_scale,
    load_family,
    max_disjoint_cycles,
    member,
    verify_bridge_addable,
    verify_decomposable,
    verify_trimmable,
)
from minorclass.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    component_masks,
    copies,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_to_text,
    induced_subgraph,
    pair_bit,
    path_graph,
    two_core,
    vertex_labels,
)


def test_membership_examples():
    forests = builtin_family("forests")
    assert member(forests, path_graph(5))
    assert not member(forests, cycle_graph(4))

    sp = builtin_family("series-parallel")
    assert not member(sp, complete_graph(4))
    assert member(sp, cycle_graph(5))

    exk = builtin_family("ex-k-disjoint-cycles:1")
    assert not member(exk, copies(cycle_graph(3), 2))
    assert member(exk, cycle_graph(3))

    planar = builtin_family("planar")
    assert member(planar, cycle_graph(3))
    assert not member(planar, complete_graph(5))
    assert not member(planar, complete_bipartite(3, 3))


def test_every_family_contains_the_empty_graph():
    for name in ("all", "forests", "planar", "series-parallel", "ex-k-disjoint-cycles:1"):
        assert member(builtin_family(name), empty_graph(0))


def test_trees_view():
    trees = builtin_family("trees")
    assert member(trees, path_graph(4))
    assert not member(trees, Graph.from_edges(4, [(1, 2), (3, 4)]))
    assert not member(trees, cycle_graph(3))


def test_membership_is_isomorphism_invariant():
    rng = random.Random(31)
    fams = [builtin_family(n) for n in ("forests", "series-parallel", "planar",
                                        "ex-k-disjoint-cycles:1")]
    for _ in range(30):
        n = rng.randrange(1, 7)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        perm = list(range(n))
        rng.shuffle(perm)
        h = Graph.from_edges(n, [(perm[u - 1] + 1, perm[v - 1] + 1) for u, v in g.edges])
        for fam in fams:
            assert fam.base_member(g) == fam.base_member(h)


def test_membership_closed_under_deletion():
    rng = random.Random(33)
    fams = [builtin_family(n) for n in ("forests", "series-parallel", "planar")]
    for fam in fams:
        for _ in range(40):
            n = rng.randrange(2, 7)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
            if not fam.base_member(g) or not g.edges:
                continue
            u, v = rng.choice(g.edges)
            assert fam.base_member(g.remove_edge(u, v))


def test_membership_closed_under_vertex_deletion():
    import random as _random

    from minorclass.graphs import induced_subgraph

    rng = _random.Random(41)
    fams = [builtin_family(n) for n in ("forests", "series-parallel", "planar",
                                        "ex-k-disjoint-cycles:1")]
    for fam in fams:
        for _ in range(25):
            n = rng.randrange(2, 7)
            g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
            if not fam.base_member(g):
                continue
            v = rng.randrange(1, n + 1)
            smaller = induced_subgraph(g, [u for u in range(1, n + 1) if u != v]).graph
            assert fam.base_member(smaller)


def _subdivided(g: Graph) -> Graph:
    """g with every edge replaced by a path of two edges through a new vertex."""
    edges = []
    for k, (u, v) in enumerate(g.edges, start=g.n + 1):
        edges += [(u, k), (k, v)]
    return Graph.from_edges(g.n + g.edge_count, edges)


def _nx_planar(g: Graph) -> bool:
    ng = nx.Graph()
    ng.add_nodes_from(range(1, g.n + 1))
    ng.add_edges_from(g.edges)
    return nx.check_planarity(ng)[0]


@pytest.mark.parametrize("n", range(7))
def test_planar_predicate_matches_excluded_minor_array(n):
    """At every edge mask, the predicate agrees with the array the membership
    DP builds from the excluded minors K5 and K3,3 alone."""
    arr = member_mask_array(builtin_family("planar"), n)
    got = [_planar_predicate(Graph(n, mask)) for mask in range(len(arr))]
    assert got == arr.astype(bool).tolist()


def test_planar_predicate_matches_networkx_on_random_graphs():
    rng = random.Random(10)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.randint(5, 16)
        p = rng.uniform(0.1, 0.5)
        g = Graph.from_edges(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                                 if rng.random() < p])
        want = _nx_planar(g)
        assert _planar_predicate(g) == want, graph_to_text(g)
        seen[want] += 1
    assert min(seen.values()) > 500


def _prism() -> Graph:
    return Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6),
                                (1, 4), (2, 5), (3, 6)])


def _k4_with_pendant_star() -> Graph:
    # the star's centre has degree 4 but lies outside the 2-core
    return Graph.from_edges(8, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                                (4, 5), (5, 6), (5, 7), (5, 8)])


@pytest.mark.parametrize("g, planar", [
    pytest.param(copies(complete_graph(4), 4), True, id="four-disjoint-k4"),
    pytest.param(_k4_with_pendant_star(), True, id="k4-with-pendant-star"),
    pytest.param(_subdivided(complete_graph(5)), False, id="subdivided-k5"),
    pytest.param(_subdivided(complete_bipartite(3, 3)), False, id="subdivided-k33"),
    pytest.param(disjoint_union(complete_bipartite(3, 3), complete_graph(4)), False,
                 id="k33-and-k4"),
    pytest.param(disjoint_union(complete_graph(4), complete_bipartite(3, 3)), False,
                 id="k4-and-k33"),
    pytest.param(_prism(), True, id="prism"),
    pytest.param(_subdivided(_prism()), True, id="subdivided-prism"),
])
def test_planar_predicate_constructed_cases(g, planar):
    assert _planar_predicate(g) is planar
    assert _nx_planar(g) is planar


@pytest.mark.parametrize("g", [
    copies(complete_graph(4), 4),
    _k4_with_pendant_star(),
    disjoint_union(_subdivided(complete_graph(4)), copies(cycle_graph(3), 3)),
], ids=["four-disjoint-k4", "k4-with-pendant-star", "subdivided-k4-and-triangles"])
def test_planar_predicate_decides_small_cores_without_networkx(g, monkeypatch):
    """Each component's 2-core has at most 4 branch vertices, so the answer
    comes without networkx, which this test makes unimportable."""
    monkeypatch.setitem(sys.modules, "networkx", None)
    assert _planar_predicate(g) is True


def test_max_disjoint_cycles():
    assert max_disjoint_cycles(cycle_graph(3)) == 1
    assert max_disjoint_cycles(copies(cycle_graph(3), 2)) == 2
    assert max_disjoint_cycles(path_graph(5)) == 0
    assert max_disjoint_cycles(complete_graph(6)) == 2
    assert max_disjoint_cycles(complete_graph(7)) == 2
    # each component is searched on its own, so small components pass the 15-vertex cap
    assert max_disjoint_cycles(copies(path_graph(4), 4)) == 0
    assert max_disjoint_cycles(copies(cycle_graph(4), 4)) == 4
    assert max_disjoint_cycles(copies(complete_graph(6), 3)) == 6
    assert max_disjoint_cycles(disjoint_union(cycle_graph(3), complete_graph(6)), stop_at=2) == 2
    # cycles are searched among the 2-core's branch vertices (degree >= 3), so
    # long cycles and paths of degree-2 vertices pass the cap ...
    assert max_disjoint_cycles(cycle_graph(16)) == 1
    theta = Graph.from_edges(17, [(i, i + 1) for i in range(1, 16)] + [(16, 1), (1, 17), (17, 9)])
    assert max_disjoint_cycles(theta) == 1
    # ... and 16 of them do not: the prism over C8 is 3-regular
    prism = Graph.from_edges(16, [(i, i % 8 + 1) for i in range(1, 9)]
                             + [(i + 8, i % 8 + 9) for i in range(1, 9)]
                             + [(i, i + 8) for i in range(1, 9)])
    with pytest.raises(ResourceCapError, match="15 vertices"):
        max_disjoint_cycles(prism)


def _max_disjoint_cycles_by_components(g):
    """Reference: every induced cycle of each whole component, searched exhaustively."""
    adj = g.adjacency()
    return sum(_most_disjoint(_induced_cycles(adj, c), c, None) for c in component_masks(g))


def test_max_disjoint_cycles_matches_whole_component_search():
    """Loops, digons and pendant trees of the suppressed 2-core against the
    unreduced search, on random graphs up to 11 vertices."""
    rng = random.Random(5)
    for _ in range(1500):
        n = rng.randrange(0, 12)
        p = rng.choice((0.1, 0.2, 0.3, 0.5))
        g = Graph(n, sum(1 << b for b in range(n * (n - 1) // 2) if rng.random() < p))
        want = _max_disjoint_cycles_by_components(g)
        assert max_disjoint_cycles(g) == want
        assert max_disjoint_cycles(g, stop_at=2) == min(want, 2)


def test_verify_bridge_addable():
    assert verify_bridge_addable(builtin_family("forests"), 6).holds
    assert verify_bridge_addable(builtin_family("series-parallel"), 6).holds
    fam = excluded_minor_family("ex-p3", (path_graph(3),))
    rep = verify_bridge_addable(fam, 4)
    assert not rep.holds
    g, u, v = rep.counterexample
    # the witness is genuine: a member that leaves the family when bridged
    assert fam.base_member(g) and not fam.base_member(g.add_edge(u, v))
    # a second witness: two disjoint edges leave the family when joined
    two_edges = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert fam.base_member(two_edges)
    assert not fam.base_member(two_edges.add_edge(2, 3))


def test_verify_decomposable():
    assert verify_decomposable(builtin_family("forests"), 6).holds
    assert verify_decomposable(builtin_family("planar"), 5).holds
    rep = verify_decomposable(builtin_family("ex-k-disjoint-cycles:1"), 6)
    assert not rep.holds
    (g,) = rep.counterexample
    assert g.n == 6 and g.edge_count == 6  # two disjoint triangles


def test_verify_trimmable():
    assert verify_trimmable(builtin_family("forests"), 5).holds
    assert verify_trimmable(builtin_family("series-parallel"), 5).holds
    rep = verify_trimmable(excluded_minor_family("ex-p3", (path_graph(3),)), 4)
    assert not rep.holds  # shortcut: delta(P3) = 1, and the direct check agrees
    assert "agreement=True" in rep.details


# Per-graph oracles for the whole-array checks: every labelled graph in mask
# order, with `base_member` on each relabelled component and 2-core.


def _bridge_addable_per_graph(fam, n_max):
    for n in range(1, n_max + 1):
        for mask in range(1 << n * (n - 1) // 2):
            g = Graph(n, mask)
            if not fam.base_member(g):
                continue
            comps = component_masks(g)
            for ci in range(len(comps)):
                for cj in range(ci + 1, len(comps)):
                    for u in vertex_labels(comps[ci]):
                        for v in vertex_labels(comps[cj]):
                            if not fam.base_member(Graph(n, mask | 1 << pair_bit(u, v))):
                                return False, (g, u, v)
    return True, None


def _decomposable_per_graph(fam, n_max):
    for n in range(1, n_max + 1):
        for mask in range(1 << n * (n - 1) // 2):
            g = Graph(n, mask)
            partwise = all(fam.base_member(induced_subgraph(g, vertex_labels(c)).graph)
                           for c in component_masks(g))
            if fam.base_member(g) != partwise:
                return False, (g,)
    return True, None


def _trimmable_per_graph(fam, n_max):
    for n in range(1, n_max + 1):
        for mask in range(1 << n * (n - 1) // 2):
            g = Graph(n, mask)
            if fam.base_member(g) != fam.base_member(two_core(g).graph):
                return False, (g,)
    return True, None


@pytest.mark.parametrize("fam", [
    builtin_family("planar"),
    excluded_minor_family("ex-p3", (path_graph(3),)),
    excluded_minor_family("ex-2c3", (copies(cycle_graph(3), 2),)),
    excluded_minor_family("ex-k3+k1", (disjoint_union(cycle_graph(3), Graph(1)),)),
], ids=lambda fam: fam.name)
def test_whole_array_checks_match_per_graph_oracles(fam):
    for verify, oracle in ((verify_bridge_addable, _bridge_addable_per_graph),
                           (verify_decomposable, _decomposable_per_graph),
                           (verify_trimmable, _trimmable_per_graph)):
        rep = verify(fam, 5)
        assert (rep.holds, rep.counterexample) == oracle(fam, 5), verify.__name__


def test_whole_array_checks_report_known_counterexamples():
    ex_p3 = excluded_minor_family("ex-p3", (path_graph(3),))
    assert verify_bridge_addable(ex_p3, 4).counterexample == (Graph(3, 1), 1, 3)
    assert verify_trimmable(ex_p3, 4).counterexample == (Graph(3, 3),)
    for fam in (builtin_family("ex-k-disjoint-cycles:1"),
                excluded_minor_family("ex-2c3", (copies(cycle_graph(3), 2),))):
        rep = verify_decomposable(fam, 6)
        assert rep.counterexample == (Graph(6, 3873),)  # two disjoint triangles
        assert rep.details == "all components are members but the union is not"


def test_limited_at_scale_examples():
    assert limited_at_scale(cycle_graph(3), builtin_family("ex-k-disjoint-cycles:1"), 4).limited_with_k == 2
    assert not limited_at_scale(Graph.from_edges(2, [(1, 2)]), builtin_family("forests"), 4).is_limited
    assert not limited_at_scale(cycle_graph(3), builtin_family("planar"), 3).is_limited


def test_freely_addable_at_scale_examples():
    forests = builtin_family("forests")
    for name in ("forests", "series-parallel", "ex-k-disjoint-cycles:1"):
        fam = builtin_family(name)
        assert freely_addable_at_scale(Graph(1, 0), fam, 4).holds_at_scale
    v = freely_addable_at_scale(cycle_graph(3), builtin_family("ex-k-disjoint-cycles:1"), 3)
    assert not v.holds_at_scale and v.counterexample == cycle_graph(3)
    assert freely_addable_at_scale(path_graph(3), forests, 4).holds_at_scale


def test_dichotomy_scans():
    scan = dichotomy_scan(builtin_family("forests"), 4, 3)
    assert all(en.classification == "freely-addable-at-scale" for en in scan)

    scan = dichotomy_scan(builtin_family("ex-k-disjoint-cycles:1"), 4, 3)
    by_rep = {en.rep: en for en in scan}
    c3 = next(en for en in scan if en.rep.n == 3 and en.rep.edge_count == 3)
    assert c3.classification == "limited-with-k" and c3.limited_k == 2
    forests_entries = [en for en in scan if en.rep.edge_count == en.rep.n - _ncomp(en.rep)]
    assert all(en.classification == "freely-addable-at-scale" for en in forests_entries)

    fam = excluded_minor_family("ex-c3c4", (disjoint_union(cycle_graph(3), cycle_graph(4)),))
    scan = dichotomy_scan(fam, 4, 4)
    c3 = next(en for en in scan if en.rep.n == 3 and en.rep.edge_count == 3)
    assert c3.classification == "undetermined"

    # decomposable families have no limited members at any scale
    scan = dichotomy_scan(builtin_family("planar"), 3, 3)
    assert not any(en.classification == "limited-with-k" for en in scan)


class _Canonicalized(Exception):
    pass


@pytest.mark.parametrize("name, n_max, refused", [
    ("all", 8, True), ("planar", 8, True), ("forests", 9, True),
    ("all", 7, False), ("forests", 8, False),
])
def test_scans_check_the_listing_cap_before_any_member(name, n_max, refused, monkeypatch):
    """dichotomy_scan and freely_addable_at_scale raise ResourceCapError for
    an n_max past where member_masks stops before they canonicalize any
    member; up to it they start canonicalizing members."""
    from minorclass import canon

    def canonicalize(g):
        raise _Canonicalized
    monkeypatch.setattr(canon, "canonicalize", canonicalize)
    fam = builtin_family(name)
    for scan in (lambda: dichotomy_scan(fam, n_max),
                 lambda: freely_addable_at_scale(Graph(1), fam, n_max)):
        with pytest.raises(ResourceCapError if refused else _Canonicalized):
            scan()


def _ncomp(g):
    from minorclass.graphs import component_count

    return component_count(g)


def test_derived_flags():
    flags = derive_flags((complete_graph(4),))
    assert flags.addable and flags.decomposable and flags.trimmable
    flags = derive_flags((path_graph(3),))
    assert flags.addable is False and flags.decomposable is True and flags.trimmable is False
    flags = derive_flags((copies(cycle_graph(3), 2),))
    assert flags.decomposable is False and flags.trimmable is True


def test_addable_iff_two_connected_minors():
    """Declared addability coincides with bridge-addable + decomposable at scale
    (the scale must reach the smallest witness: 6 vertices for two triangles)."""
    fam = excluded_minor_family("no-k4", (complete_graph(4),))
    assert fam.flags.addable
    assert verify_bridge_addable(fam, 5).holds and verify_decomposable(fam, 5).holds

    fam = excluded_minor_family("no-p3", (path_graph(3),))
    assert not fam.flags.addable
    assert not verify_bridge_addable(fam, 4).holds

    fam = excluded_minor_family("no-2c3", (copies(cycle_graph(3), 2),))
    assert not fam.flags.addable
    assert not verify_decomposable(fam, 6).holds


def test_builtin_equals_excluded_minor_route():
    import numpy as np

    from minorclass.graphs import pair_count

    pairs = [
        ("forests", (cycle_graph(3),)),
        ("series-parallel", (complete_graph(4),)),
        ("planar", (complete_graph(5), complete_bipartite(3, 3))),
        ("ex-k-disjoint-cycles:1", (copies(cycle_graph(3), 2),)),
    ]
    for name, minors in pairs:
        fam = builtin_family(name)
        raw = excluded_minor_family("raw-" + name, minors)
        for n in range(0, 6):
            a1 = member_mask_array(fam, n)
            a2 = member_mask_array(raw, n)
            full = np.ones(1 << pair_count(n), dtype=np.uint8)
            assert ((a1 if a1 is not None else full) == (a2 if a2 is not None else full)).all()


def test_member_array_equals_direct_predicate():
    """The one-step-minor DP, which reads only the excluded minors, agrees with
    per-graph calls of each built-in predicate (no memo): every mask for
    n <= 5 and 2,000 seeded random masks at n = 6 and n = 7."""
    import numpy as np

    from minorclass.graphs import pair_count

    rng = np.random.default_rng(2012)
    for name in ("planar", "series-parallel", "ex-k-disjoint-cycles:1",
                 "ex-k-disjoint-cycles:2"):
        fam = builtin_family(name)
        for n in range(0, 8):
            arr = member_mask_array(fam, n)
            total = 1 << pair_count(n)
            masks = range(total) if n <= 5 else rng.integers(0, total, 2000).tolist()
            direct = [fam.predicate(Graph(n, m)) for m in masks]
            assert arr[list(masks)].tolist() == direct, (name, n)


@pytest.mark.parametrize("minors", [
    (disjoint_union(cycle_graph(3), empty_graph(1)),),
    (disjoint_union(copies(complete_graph(2), 2), empty_graph(1)),),
    (complete_graph(4), cycle_graph(5)),
], ids=["K3+K1", "2K2+K1", "K4,C5"])
def test_member_array_equals_has_minor(minors):
    """Minors with isolated vertices or of unequal orders: the DP agrees with
    the exhaustive minor search at every mask for n <= 5."""
    from minorclass.graphs import pair_count
    from minorclass.minors import has_minor

    fam = excluded_minor_family("x", minors)
    for n in range(0, 6):
        direct = [all(not has_minor(Graph(n, m), h) for h in minors)
                  for m in range(1 << pair_count(n))]
        assert member_mask_array(fam, n).tolist() == direct, n


def _automorphisms_by_permutation(h: Graph) -> int:
    """Vertex permutations of h that map its edge set onto itself."""
    import itertools

    edges = {frozenset(e) for e in h.edges}
    return sum({frozenset((p[u - 1], p[v - 1])) for u, v in h.edges} == edges
               for p in itertools.permutations(range(1, h.n + 1)))


@pytest.mark.parametrize("h", [disjoint_union(cycle_graph(4), empty_graph(1)),
                               complete_bipartite(3, 3)], ids=["C4+K1", "K3,3"])
def test_member_array_marks_every_labelling_of_a_same_order_minor(h):
    """A minor with nontrivial automorphisms (and an isolated vertex) is
    excluded in each of its labellings: the DP agrees with the per-graph
    minor search, memoized by canonical code, at every mask for n <= 6 and on
    2,000 seeded masks at n = 7, and at order h.n exactly h.n!/aut(h) masks
    with e(h) edges are non-members, the copies of h."""
    import math

    import numpy as np

    from minorclass.graphs import pair_count

    fam = excluded_minor_family("x", (h,))
    search = excluded_minor_family("x", (h,))
    rng = np.random.default_rng(13)
    for n in range(0, 8):
        total = 1 << pair_count(n)
        masks = range(total) if n <= 6 else rng.integers(0, total, 2000).tolist()
        direct = [search.base_member(Graph(n, m)) for m in masks]
        assert member_mask_array(fam, n)[list(masks)].tolist() == direct, n
    arr = member_mask_array(fam, h.n)
    edges = np.bitwise_count(np.arange(len(arr), dtype=np.int64))
    marked = int(((edges == h.edge_count) & (arr == 0)).sum())
    assert marked == math.factorial(h.n) // _automorphisms_by_permutation(h)


# The first 16 hex digits of the sha256 of member_mask_array(fam, n).tobytes()
# for n = 0..7, as the DP that looked every contraction and vertex deletion up
# over all 2^C(n,2) masks built them.
_MEMBER_ARRAY_SHA256 = {
    "planar": ["4bf5122f344554c5", "4bf5122f344554c5", "9dcf97a184f32623", "04abc8821a06e5a3",
               "7c8975e1e60a5c83", "60ade0285dd6246b", "c0871f07d3a814a9", "bee7cbe4cc6b6ce8"],
    "series-parallel": ["4bf5122f344554c5", "4bf5122f344554c5", "9dcf97a184f32623",
                        "04abc8821a06e5a3", "4a22bb45b68e2388", "efc8d6685f3ccc3e",
                        "dc8fc801e030814a", "aaf19176642d3a58"],
    "ex-k-disjoint-cycles:1": ["4bf5122f344554c5", "4bf5122f344554c5", "9dcf97a184f32623",
                               "04abc8821a06e5a3", "7c8975e1e60a5c83", "5a648d8015900d89",
                               "817af30f327d93d6", "e971fb5f013f2ea2"],
    "ex-k-disjoint-cycles:2": ["4bf5122f344554c5", "4bf5122f344554c5", "9dcf97a184f32623",
                               "04abc8821a06e5a3", "7c8975e1e60a5c83", "5a648d8015900d89",
                               "bfa5a24faa8ddf57", "6d75695d93deb1bf"],
    "K3+K1": ["4bf5122f344554c5", "4bf5122f344554c5", "9dcf97a184f32623", "04abc8821a06e5a3",
              "75474ff06300b7cb", "0be4cae5f38df309", "4c40d4e2e3f29d25", "1596a75ddb370cc6"],
    "C4+K1": ["4bf5122f344554c5", "4bf5122f344554c5", "9dcf97a184f32623", "04abc8821a06e5a3",
              "7c8975e1e60a5c83", "fbd577686c9d2286", "457a21ce853baa2f", "821ab4985218a7a2"],
    "K1": ["4bf5122f344554c5", "6e340b9cffb37a98", "96a296d224f285c6", "af5570f5a1810b7a",
           "f5a5fd42d16a2030", "5f70bf18a0860070", "c35020473aed1b46", "5647f05ec1895894"],
    "2K1": ["4bf5122f344554c5", "4bf5122f344554c5", "96a296d224f285c6", "af5570f5a1810b7a",
            "f5a5fd42d16a2030", "5f70bf18a0860070", "c35020473aed1b46", "5647f05ec1895894"],
}


@pytest.mark.parametrize("name", list(_MEMBER_ARRAY_SHA256))
def test_member_arrays_keep_their_digests(name):
    """Every mask of every array up to the cap, not a sample: built-ins with
    2-connected excluded minors, and minors with isolated vertices, which only
    the deletion of an isolated vertex reaches."""
    import hashlib

    minors = {"K3+K1": (disjoint_union(cycle_graph(3), empty_graph(1)),),
              "C4+K1": (disjoint_union(cycle_graph(4), empty_graph(1)),),
              "K1": (empty_graph(1),), "2K1": (empty_graph(2),)}
    fam = excluded_minor_family(name, minors[name]) if name in minors else builtin_family(name)
    got = [hashlib.sha256(member_mask_array(fam, n).tobytes()).hexdigest()[:16] for n in range(8)]
    assert got == _MEMBER_ARRAY_SHA256[name]


def test_memo_only_for_minor_search():
    """memoize_membership is derived from the predicate and cannot be set."""
    from minorclass.families import GraphFamily

    for name in ("all", "forests", "trees", "planar", "series-parallel",
                 "ex-k-disjoint-cycles:1"):
        assert builtin_family(name).memoize_membership is False
    assert excluded_minor_family("no-k4", (complete_graph(4),)).memoize_membership is True
    assert GraphFamily("any", predicate=lambda g: True).memoize_membership is False
    with pytest.raises(AttributeError):
        builtin_family("planar").memoize_membership = True
    with pytest.raises(TypeError):
        GraphFamily("x", memoize_membership=False)


@pytest.mark.parametrize("name", ["planar", "ex-k-disjoint-cycles:1"])
def test_predicate_families_skip_the_canonical_memo(name):
    """A built-in predicate is asked directly: base_member neither keys the
    memo nor canonicalizes."""
    from minorclass.canon import _canon_data

    fam = builtin_family(name)
    rng = random.Random(50)
    graphs = []
    for _ in range(50):
        n = rng.randint(0, 9)
        graphs.append(Graph(n, rng.getrandbits(n * (n - 1) // 2)))
    misses = _canon_data.cache_info().misses
    assert [fam.base_member(g) for g in graphs] == [fam.predicate(g) for g in graphs]
    assert fam._code_memo == {}
    assert _canon_data.cache_info().misses == misses


def test_json_family_memoizes_minor_search(tmp_path):
    (tmp_path / "k4.graph").write_text(graph_to_text(complete_graph(4)))
    (tmp_path / "f.json").write_text(json.dumps({"name": "no-k4", "excluded_minors": ["k4.graph"]}))
    fam = load_family(tmp_path / "f.json")
    assert fam.memoize_membership
    assert fam.base_member(complete_graph(4)) is False and fam.base_member(cycle_graph(5))
    assert len(fam._code_memo) == 2
    # another labelling of C5 is answered from the memo
    assert fam.base_member(Graph.from_edges(5, [(1, 3), (3, 5), (5, 2), (2, 4), (4, 1)]))
    assert len(fam._code_memo) == 2


def test_member_array_needs_excluded_minors():
    from minorclass.families import GraphFamily

    fam = GraphFamily("bounded-degree", predicate=lambda g: max(g.degrees(), default=0) <= 2)
    with pytest.raises(ValueError):
        member_mask_array(fam, 3)


def test_family_json_loading(tmp_path):
    (tmp_path / "k4.graph").write_text(graph_to_text(complete_graph(4)))
    spec = {"name": "no-k4", "excluded_minors": ["k4.graph"], "flags": {"trimmable": True}}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(spec))
    fam = load_family(path)
    assert fam.name == "no-k4"
    assert not member(fam, complete_graph(4))
    assert member(fam, cycle_graph(4))
    assert fam.flags.trimmable is True
    assert family_from_spec(str(path)).name == "no-k4"


@pytest.mark.parametrize("spec, message", [
    ({"name": "no-k4", "excluded_minor": ["k4.graph"]}, "has unknown keys: ['excluded_minor']"),
    ({"name": "no-k4", "excluded_minors": ["k4.graph"], "flags": {"trimable": False}},
     "has unknown keys: ['trimable']"),
    ({"name": "no-k4", "excluded_minors": ["k4.graph"], "flags": {"addable": "yes"}},
     "flag 'addable' of "),
    ({"name": "no-k4", "excluded_minors": ["k4.graph"], "flags": {"decomposable": 1}},
     "must be true, false or null, got 1"),
    (["no-k4"], "must hold a JSON object, got list"),
], ids=["misspelled-key", "misspelled-flag", "string-flag", "number-flag", "list"])
def test_family_json_rejects_what_it_does_not_know(spec, message, tmp_path):
    """A misspelled key would give a family with no minors, and a misspelled
    or non-boolean flag would be ignored or printed as given: each is an
    error naming the key."""
    (tmp_path / "k4.graph").write_text(graph_to_text(complete_graph(4)))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_family(path)


def test_family_json_flags_replace_the_derived_ones(tmp_path):
    (tmp_path / "k4.graph").write_text(graph_to_text(complete_graph(4)))
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"name": "no-k4", "excluded_minors": ["k4.graph"],
                                "flags": {"addable": False, "decomposable": None}}))
    derived = derive_flags((complete_graph(4),))
    assert load_family(path).flags == dataclasses.replace(derived, addable=False,
                                                          decomposable=None)


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_family("everything")
