"""Exact minor containment."""

import random

import pytest

from minorclass.errors import ResourceCapError
from minorclass.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    copies,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from minorclass import minors
from minorclass.minors import has_minor


def test_examples():
    assert has_minor(complete_graph(4), cycle_graph(3))
    assert not has_minor(path_graph(6), cycle_graph(3))
    assert has_minor(cycle_graph(6), cycle_graph(3))


def test_disconnected_pattern():
    two_c3 = copies(cycle_graph(3), 2)
    assert has_minor(copies(cycle_graph(3), 2), two_c3)
    assert not has_minor(cycle_graph(6), two_c3)
    assert has_minor(copies(cycle_graph(4), 2), two_c3)
    # a triangle and a square sharing nothing
    assert has_minor(disjoint_union(cycle_graph(3), cycle_graph(4)),
                     disjoint_union(cycle_graph(3), cycle_graph(3)))


def test_classic_answers():
    assert has_minor(complete_graph(5), complete_graph(4))
    assert not has_minor(complete_graph(4), complete_graph(5))
    assert has_minor(complete_bipartite(3, 3), cycle_graph(4))
    assert not has_minor(complete_bipartite(3, 3), complete_graph(5))
    # K5 arises from K6 by deletion
    assert has_minor(complete_graph(6), complete_graph(5))
    # the 4-wheel has a K4 minor
    wheel4 = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)])
    assert has_minor(wheel4, complete_graph(4))
    assert not has_minor(star_graph(5), path_graph(4))


def test_edgeless_and_empty_patterns():
    assert has_minor(path_graph(3), Graph(0, 0))
    assert has_minor(path_graph(3), Graph(3, 0))
    assert not has_minor(path_graph(3), Graph(4, 0))
    # isolated vertices in h need spare vertices in g
    k2_plus_iso = Graph.from_edges(3, [(1, 2)])
    assert has_minor(path_graph(3), k2_plus_iso)
    assert not has_minor(path_graph(2), k2_plus_iso)


def test_reflexive_and_monotone():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(1, 7)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        assert has_minor(g, g)
        free = [(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if not g.has_edge(u, v)]
        if free:
            u, v = rng.choice(free)
            assert has_minor(g.add_edge(u, v), g)


def test_transitive_on_corpus():
    chain = [path_graph(4), cycle_graph(5), complete_graph(5)]
    # P4 <= C5: delete an edge; C5 <= K5: subgraph
    assert has_minor(chain[1], chain[0])
    assert has_minor(chain[2], chain[1])
    assert has_minor(chain[2], chain[0])


def test_budget_error(monkeypatch):
    # a negative instance forces the search to exhaust, tripping the budget,
    # which has_minor reads when it is called
    monkeypatch.setattr(minors, "DEFAULT_BUDGET", 20)
    with pytest.raises(ResourceCapError):
        has_minor(cycle_graph(9), complete_graph(4))


def _contract(g, u, v):
    keep = [x for x in range(1, g.n + 1) if x != v]
    relab = {x: i + 1 for i, x in enumerate(keep)}
    edges = set()
    for a, b in g.edges:
        a2 = u if a == v else a
        b2 = u if b == v else b
        if a2 != b2:
            edges.add((min(relab[a2], relab[b2]), max(relab[a2], relab[b2])))
    return Graph.from_edges(g.n - 1, edges)


def _delete_vertex(g, v):
    keep = [x for x in range(1, g.n + 1) if x != v]
    relab = {x: i + 1 for i, x in enumerate(keep)}
    return Graph.from_edges(g.n - 1, [(relab[a], relab[b]) for a, b in g.edges
                                      if a != v and b != v])


def _all_minors(g):
    """Independent oracle: closure under deletion/contraction, up to isomorphism."""
    from minorclass.canon import canonicalize

    seen = {(g.n, canonicalize(g).code)}
    frontier = [g]
    while frontier:
        cur = frontier.pop()
        nxt = [cur.remove_edge(a, b) for a, b in cur.edges]
        nxt += [_contract(cur, a, b) for a, b in cur.edges]
        nxt += [_delete_vertex(cur, v) for v in range(1, cur.n + 1)]
        for h in nxt:
            key = (h.n, canonicalize(h).code)
            if key not in seen:
                seen.add(key)
                frontier.append(h)
    return seen


def test_against_delete_contract_closure():
    """The branch-set search agrees with the delete/contract closure oracle."""
    from minorclass.canon import canonicalize

    rng = random.Random(17)
    for _ in range(12):
        n = rng.randrange(1, 6)
        g = Graph(n, rng.randrange(1 << (n * (n - 1) // 2)))
        minors = _all_minors(g)
        for hn in range(0, n + 1):
            for hmask in range(1 << (hn * (hn - 1) // 2)):
                h = Graph(hn, hmask)
                expect = hn == 0 or (hn, canonicalize(h).code) in minors
                assert has_minor(g, h) == expect, (g, h)
