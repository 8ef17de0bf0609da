"""Family membership and bounded-scale closure verification."""

import json
import random

import pytest

from minorclass.enumeration import member_mask_array
from minorclass.errors import ResourceCapError
from minorclass.families import (
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
    copies,
    cycle_graph,
    disjoint_union,
    empty_graph,
    graph_to_text,
    path_graph,
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
    with pytest.raises(ResourceCapError, match="15 vertices"):
        max_disjoint_cycles(cycle_graph(16))


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


def test_unknown_builtin():
    with pytest.raises(ValueError):
        builtin_family("everything")
