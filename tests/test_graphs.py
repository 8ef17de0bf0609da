"""Structural operations on bitmask graphs."""

import random

import networkx as nx
import pytest

from minorclass.graphs import (
    Graph,
    RootedGraph,
    Weighting,
    big_frag_split,
    bridge_partition,
    complete_graph,
    component_count,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_from_text,
    graph_to_text,
    is_forest,
    overlapping_pendant_appearances,
    pair_bit,
    path_graph,
    pendant_appearances,
    reach,
    star_graph,
    two_core,
    weight,
)


def test_component_count_examples():
    assert component_count(empty_graph(0)) == 0
    assert component_count(Graph.from_edges(5, [(1, 2), (2, 3)])) == 3
    two_triangles = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert component_count(two_triangles) == 2


def test_reach_matches_networkx_components():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(1, 9)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from((u - 1, v - 1) for u, v in g.edges)
        for v in range(n):
            comp = nx.node_connected_component(h, v)
            assert reach(g.adjacency(), 1 << v) == sum(1 << w for w in comp)
            # a stop vertex reports whether it is reached, whatever else is left unsearched
            for w in range(n):
                assert bool(reach(g.adjacency(), 1 << v, 1 << w) >> w & 1) == (w in comp)


def test_bridge_partition_examples():
    assert bridge_partition(cycle_graph(3)) == (0, 3)
    assert bridge_partition(path_graph(4)) == (3, 0)
    tri_pendant = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert bridge_partition(tri_pendant) == (1, 3)


def test_bridge_removal_raises_component_count():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randrange(2, 8)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        e0, e1 = bridge_partition(g)
        assert e0 + e1 == g.edge_count
        for u, v in g.edges:
            removed = g.remove_edge(u, v)
            delta = component_count(removed) - component_count(g)
            # the definition of a bridge, checked edge by edge
            is_bridge = delta == 1
            assert delta in (0, 1)
            if is_bridge:
                e0 -= 1
        assert e0 == 0


def test_two_core_examples():
    assert two_core(path_graph(6)).graph.n == 0
    core, labels = two_core(cycle_graph(5))
    assert core == cycle_graph(5) and labels == (1, 2, 3, 4, 5)
    g = Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5)])
    core, labels = two_core(g)
    assert labels == (1, 2, 3)
    assert core == cycle_graph(3)


def test_two_core_idempotent_and_min_degree():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 8)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        core, _ = two_core(g)
        assert core.n == 0 or core.min_degree() >= 2
        again, _ = two_core(core)
        assert again == core
        assert (core.n == 0) == is_forest(g)


def test_big_frag_split_examples():
    g = path_graph(4)
    big, frag = big_frag_split(g)
    assert big.graph == g and frag.graph.n == 0

    g = Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
    big, frag = big_frag_split(g)
    assert big.vertices == (1, 2, 3)
    assert frag.vertices == (4, 5) and frag.graph.edge_count == 1

    # tie between {1,2} and {3,4}: the lexicographically first wins
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    big, frag = big_frag_split(g)
    assert big.vertices == (1, 2)
    assert frag.vertices == (3, 4)


def test_big_frag_split_rejects_empty():
    with pytest.raises(ValueError):
        big_frag_split(empty_graph(0))


def test_weight_examples():
    assert weight(empty_graph(0), Weighting(7, 9)) == 1
    assert weight(Graph.from_edges(2, [(1, 2)]), Weighting(2, 3)) == 6
    tri_pendant = Graph.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)])
    assert weight(tri_pendant, Weighting.extended(2, 1, 5)) == 10


def test_weight_multiplicative_over_disjoint_union():
    rng = random.Random(3)
    for w in (Weighting(2, 3), Weighting.extended(2, 5, 3)):
        for _ in range(30):
            n1, n2 = rng.randrange(1, 5), rng.randrange(1, 5)
            g1 = Graph(n1, rng.randrange(1 << (n1 * (n1 - 1) // 2)))
            g2 = Graph(n2, rng.randrange(1 << (n2 * (n2 - 1) // 2)))
            assert weight(disjoint_union(g1, g2), w) == weight(g1, w) * weight(g2, w)


def test_weighting_validation():
    with pytest.raises(ValueError):
        Weighting(0, 1)
    with pytest.raises(ValueError):
        Weighting(1, -2)
    w = Weighting.extended(2, 3, 1)
    assert not w.is_diagonal
    with pytest.raises(ValueError):
        _ = w.lam


def test_adding_edge_changes_kappa_by_at_most_one():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randrange(2, 8)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        u = rng.randrange(1, n)
        v = rng.randrange(u + 1, n + 1)
        if g.has_edge(u, v):
            continue
        delta = component_count(g) - component_count(g.add_edge(u, v))
        assert delta in (0, 1)


K1 = RootedGraph(Graph(1, 0), 1)


def test_pendant_appearances_examples():
    assert pendant_appearances(path_graph(3), K1) == 2
    assert pendant_appearances(cycle_graph(5), K1) == 0
    diamondish = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
    c3 = RootedGraph(cycle_graph(3), 1)
    assert pendant_appearances(diamondish, c3) == 1


def test_overlapping_pendant_appearances_examples():
    assert overlapping_pendant_appearances(path_graph(3), K1) == 0
    assert overlapping_pendant_appearances(star_graph(3), K1) == 0
    assert overlapping_pendant_appearances(path_graph(2), K1) == 2


def _pendant_count_reference(g, h):
    """Independent recount: check every subset via explicit boundary lists."""
    import itertools

    k = h.graph.n
    target_edges = set(h.graph.edges)
    count = 0
    for combo in itertools.combinations(range(1, g.n + 1), k):
        relabel = {v: i + 1 for i, v in enumerate(combo)}
        inside = set()
        boundary = []
        for u, v in g.edges:
            if u in relabel and v in relabel:
                inside.add(tuple(sorted((relabel[u], relabel[v]))))
            elif u in relabel or v in relabel:
                boundary.append((u, v))
        if inside != target_edges:
            continue
        if len(boundary) != 1:
            continue
        u, v = boundary[0]
        attach = u if u in relabel else v
        if attach == combo[0]:
            count += 1
    return count


def test_pendant_appearances_against_reference():
    rng = random.Random(13)
    hs = [K1, RootedGraph(Graph.from_edges(2, [(1, 2)]), 1), RootedGraph(path_graph(3), 2)]
    for _ in range(40):
        n = rng.randrange(4, 8)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        for h in hs:
            assert pendant_appearances(g, h) == _pendant_count_reference(g, h)


def test_rooted_graph_validation():
    with pytest.raises(ValueError):
        RootedGraph(Graph.from_edges(3, [(1, 2)]), 1)  # disconnected
    with pytest.raises(ValueError):
        RootedGraph(path_graph(3), 4)  # root out of range


def test_graph_invariants():
    with pytest.raises(ValueError):
        Graph(3, 1 << 3)  # bit outside the 3-vertex range
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        pair_bit(2, 2)
    assert complete_graph(4).edge_count == 6


def test_edges_of_a_wide_mask():
    """Edges and adjacency of a 300-vertex graph read from a 44,850-bit mask."""
    from minorclass.graphs import pairs, set_bits

    rng = random.Random(4)
    edges = sorted({tuple(sorted(rng.sample(range(1, 301), 2))) for _ in range(400)})
    g = Graph.from_edges(300, edges)
    assert g.edges == tuple(edges)
    assert set_bits(g.mask) == sorted(pair_bit(u, v) for u, v in edges)
    assert [pairs(300)[b] for b in set_bits(g.mask)] == sorted(edges, key=lambda e: e[::-1])
    assert sum(g.degrees()) == 2 * len(edges)
    assert set_bits(0) == []


def test_text_round_trip():
    g = Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])
    assert graph_from_text(graph_to_text(g)) == g
    assert graph_from_text(graph_to_text(g, hex_form=True)) == g
    assert graph_from_text("3\nhex 7\n") == cycle_graph(3)
    assert graph_from_text("0\n") == empty_graph(0)
