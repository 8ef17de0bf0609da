"""Exact weighted counting, the exponential-formula oracle, and the
core-size decomposition."""

import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from minorclass._kernels import MODE_ALL, MODE_FORESTS, MODE_MEMBER_ARRAY
from minorclass.canon import _canon_data, _twin_classes, automorphism_count, canonicalize, code_of
from minorclass.enumeration import (
    brute_force_tau,
    build_census,
    cayley_tree_weights,
    census_labelled_total,
    compute_weight_table,
    core_decomposition_identity,
    egf_lift,
    exact_frag_distribution,
    exact_frag_mean,
    f_nk,
    f_nk_bruteforce,
    factorial_growth_check,
    falling_moment_check,
    forest_table,
    lattice_mode,
    member_mask_array,
    member_masks,
    ratio_sequence,
)
from minorclass.errors import ResourceCapError
from minorclass.families import builtin_family, excluded_minor_family, family_from_spec
from minorclass.graphs import (
    Graph,
    Weighting,
    big_frag_split,
    complete_graph,
    copies,
    cycle_graph,
    is_connected,
    pair_count,
    path_graph,
    two_core,
    weight,
)

FORESTS = builtin_family("forests")
TREES = builtin_family("trees")
ALL = builtin_family("all")
W11 = Weighting(1, 1)


def test_brute_force_examples():
    assert brute_force_tau(TREES, Weighting(2, 3), 5).c == 6000
    assert brute_force_tau(FORESTS, W11, 3).a == 7
    t0 = brute_force_tau(FORESTS, W11, 0)
    assert (t0.a, t0.c, t0.b) == (1, 0, 0)


def test_known_forest_sequence():
    got = [brute_force_tau(FORESTS, W11, n).a for n in range(7)]
    assert got == [1, 1, 2, 7, 38, 291, 2932]


def test_lattice_mode_follows_the_predicate_not_the_name():
    assert lattice_mode(builtin_family("all")) == MODE_ALL
    assert lattice_mode(FORESTS) == lattice_mode(TREES) == MODE_FORESTS
    for fam in (builtin_family("planar"), builtin_family("series-parallel"),
                excluded_minor_family("all", (cycle_graph(3),)),
                excluded_minor_family("forests", (cycle_graph(3),))):
        assert lattice_mode(fam) == MODE_MEMBER_ARRAY, fam.name


def test_cap_errors():
    with pytest.raises(ResourceCapError):
        brute_force_tau(builtin_family("series-parallel"), W11, 8)  # membership-array limit
    with pytest.raises(ResourceCapError):
        brute_force_tau(FORESTS, W11, 9)  # lattice limit


@pytest.mark.parametrize("name,n_max", [
    ("series-parallel", 8),   # past the membership-array cap
    ("all", 9),               # past the lattice cap
    ("planar", 8),            # past the membership-array cap
])
def test_weight_table_checks_caps_before_any_slice(name, n_max, monkeypatch):
    from minorclass import _kernels

    def no_sweep(*args, **kwargs):
        raise AssertionError("a slice was enumerated before the cap check")

    monkeypatch.setattr(_kernels, "sweep_counts", no_sweep)
    with pytest.raises(ResourceCapError):
        compute_weight_table(builtin_family(name), W11, n_max)


def test_forest_table_and_census_extend_each_forest_slice_once(monkeypatch):
    """The forests' census to n = 7 builds each forest slice once: the slices
    below n_max are built with their vertex sets before the first order, so
    none is rebuilt to be extended."""
    from minorclass import _kernels

    extend, calls = _kernels._extend, []

    def counted(low, n, *args, forests=False, **kwargs):
        if forests:  # the census extends the whole slices too
            calls.append(n)
        return extend(low, n, *args, forests=forests, **kwargs)

    monkeypatch.setattr(_kernels, "_extend", counted)
    monkeypatch.setattr(_kernels, "_FORESTS", {})
    build_census(FORESTS, 7)
    assert calls == list(range(1, 8))


@pytest.mark.parametrize("name, n_max, top", [("all", 7, 7), ("series-parallel", 6, 6),
                                              ("planar", 5, 5), ("forests", 7, 6)])
def test_census_extends_each_whole_slice_once(name, n_max, top, monkeypatch):
    """The census builds each whole lattice slice it reads once: up to n_max,
    or n_max - 1 for the forests, whose top order is read from the forest
    slice.  The top slice is asked for first, so no lower slice is rebuilt to
    gain its vertex sets."""
    from minorclass import _kernels

    extend, calls = _kernels._extend, []

    def counted(low, n, *args, forests=False, **kwargs):
        if not forests:
            calls.append(n)
        return extend(low, n, *args, forests=forests, **kwargs)

    monkeypatch.setattr(_kernels, "_extend", counted)
    monkeypatch.setattr(_kernels, "_RECORDS", {})
    build_census(builtin_family(name), n_max)
    assert calls == list(range(1, top + 1))


def test_weighted_counts_are_exact_fractions():
    w = Weighting(Fraction(1, 2), Fraction(3, 2))
    t = brute_force_tau(FORESTS, w, 4)
    # 38 forests on 4 vertices, graded by edges and components
    direct = sum(Fraction(1, 2) ** g.edge_count * Fraction(3, 2) ** _kappa(g)
                 for g in _all_forests(4))
    assert t.a == direct


def _all_forests(n):
    from minorclass.graphs import is_forest

    for mask in range(1 << (n * (n - 1) // 2)):
        g = Graph(n, mask)
        if is_forest(g):
            yield g


def _kappa(g):
    from minorclass.graphs import component_count

    return component_count(g)


@pytest.mark.parametrize("lam,nu", [(1, 1), (2, 3), (Fraction(1, 2), 1)])
def test_egf_lift_matches_brute_force(lam, nu):
    w = Weighting(lam, nu)
    lifted = egf_lift(cayley_tree_weights(w, 6), 6)
    brute = [brute_force_tau(FORESTS, w, n).a for n in range(7)]
    assert lifted == brute


@pytest.mark.parametrize("name", ["all", "series-parallel", "planar"])
@pytest.mark.parametrize("lam,nu", [(1, 1), (2, 3)])
def test_exponential_formula_for_decomposable_families(name, lam, nu):
    """For a decomposable family, lifting the brute-force connected sequence
    must reproduce the brute-force all-member sequence exactly."""
    fam = builtin_family(name)
    w = Weighting(lam, nu)
    n_max = 5
    c = [brute_force_tau(fam, w, n).c for n in range(n_max + 1)]
    a = [brute_force_tau(fam, w, n).a for n in range(n_max + 1)]
    assert egf_lift(c, n_max) == a


def test_egf_lift_single_vertex_class():
    # only K1 connected: the lift gives nu^n (edgeless graphs)
    nu = 3
    c = [0] + [nu] + [0] * 5
    assert egf_lift(c, 6) == [nu ** n for n in range(7)]


def test_egf_lift_validation():
    with pytest.raises(ValueError):
        egf_lift([1, 1], 1)


def test_ratio_sequence_examples():
    # trees: r_4 = 4 * c_3 / c_4 = 0.75 at lam = 1
    c = cayley_tree_weights(W11, 5)
    r = ratio_sequence(c)
    assert r[4] == Fraction(3, 4)
    # edgeless family: a_n = nu^n so r_n = n / nu
    edgeless = excluded_minor_family("edgeless", (complete_graph(2),))
    w = Weighting(1, 3)
    table = compute_weight_table(edgeless, w, 5)
    assert table.a == [3 ** n for n in range(6)]
    assert table.ratios("a")[5] == Fraction(5, 3)
    # lifted forests ratio at n = 5
    table = forest_table(W11, 5)
    assert table.ratios("a")[5] == Fraction(5 * 38, 291)


def test_table_invariants():
    for fam in (FORESTS, builtin_family("series-parallel")):
        for w in (W11, Weighting(2, 3)):
            table = compute_weight_table(fam, w, 6)
            assert table.a[0] == 1 and table.c[0] == 0
            lower = math.exp(-float(w.nu) / float(w.lam))
            for n in range(1, 7):
                assert table.c[n] <= table.a[n]
                # bridge-addable bound on the connectivity probability
                assert float(Fraction(table.c[n], 1) / Fraction(table.a[n], 1)) >= lower


def test_tau_monotone_in_lambda_and_nu():
    base = compute_weight_table(FORESTS, W11, 5).a
    more_lam = compute_weight_table(FORESTS, Weighting(2, 1), 5).a
    more_nu = compute_weight_table(FORESTS, Weighting(1, 2), 5).a
    for n in range(1, 6):
        assert more_lam[n] >= base[n]
        assert more_nu[n] >= base[n]


def test_forest_table_long_range():
    table = forest_table(W11, 60)
    assert table.a[:7] == [1, 1, 2, 7, 38, 291, 2932]
    p = [float(Fraction(table.c[n], table.a[n])) for n in (20, 40, 60)]
    limit = math.exp(-0.5)
    assert abs(p[-1] - limit) < 0.05
    assert abs(p[0] - limit) > abs(p[-1] - limit)


@pytest.mark.parametrize("lam,nu", [(1, 1), (2, 3)])
def test_f_nk_formula_and_cross_check(lam, nu):
    w = Weighting(lam, nu)
    b3 = brute_force_tau(ALL, w, 3).b
    val = f_nk(ALL, w, 4, 3, b3)
    assert val == 12 * Fraction(lam) ** 4 * nu
    assert f_nk_bruteforce(ALL, w, 4, 3) == val
    # f(n, n) is the min-degree-2 total itself
    b5 = brute_force_tau(ALL, w, 5).b
    assert f_nk(ALL, w, 5, 5, b5) == b5
    assert f_nk_bruteforce(ALL, w, 5, 5) == b5


@pytest.mark.parametrize("name", ["all", "forests", "trees", "series-parallel"])
def test_f_nk_bruteforce_matches_per_graph_two_core(name):
    """The whole-slice peel gives every connected member's 2-core size as
    graphs.two_core does, one graph at a time, and the lattice cells its
    weight as graphs.weight does, diagonal or split."""
    fam = builtin_family(name)
    for w in (Weighting(Fraction(1, 3), 2), Weighting.extended(Fraction(1, 3), 2, Fraction(3, 2))):
        for n in range(7):
            want: dict = {}
            for mask in member_masks(fam, n, connected=True).tolist():
                g = Graph(n, mask)
                k = two_core(g).graph.n
                want[k] = want.get(k, 0) + weight(g, w)
            for k in range(n + 1):
                assert f_nk_bruteforce(fam, w, n, k) == want.get(k, 0), (w, n, k)


def test_f_nk_bruteforce_stops_at_n7():
    with pytest.raises(ResourceCapError):
        f_nk_bruteforce(ALL, W11, 8, 3)


def test_f_nk_zero_for_forests():
    b = brute_force_tau(FORESTS, W11, 5).b
    assert b == 0
    assert f_nk(FORESTS, W11, 5, 4, 0) == 0


def test_f_nk_rejects_non_trimmable():
    fam = excluded_minor_family("ex-p3", (path_graph(3),))
    with pytest.raises(ValueError):
        f_nk(fam, W11, 5, 3, 1)


@pytest.mark.parametrize("lam,nu", [(1, 1), (2, 3)])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_core_decomposition_identity_all_graphs(lam, nu, n):
    lhs, rhs = core_decomposition_identity(ALL, Weighting(lam, nu), n)
    assert lhs == rhs


def test_core_decomposition_identity_other_trimmable():
    lhs, rhs = core_decomposition_identity(builtin_family("ex-k-disjoint-cycles:1"), W11, 5)
    assert lhs == rhs
    lhs, rhs = core_decomposition_identity(builtin_family("series-parallel"), Weighting(2, 3), 5)
    assert lhs == rhs


def test_factorial_growth():
    trees_table = compute_weight_table(TREES, W11, 6)
    rep = factorial_growth_check(trees_table, 0.3)
    assert rep.holds
    table = forest_table(W11, 7)
    rep = factorial_growth_check(table, 0.3)
    assert rep.holds
    # the edgeless family forces eta down like 1/n
    edgeless = excluded_minor_family("edgeless", (complete_graph(2),))
    t = compute_weight_table(edgeless, W11, 6)
    rep = factorial_growth_check(t, 0.3)
    assert not rep.holds
    assert rep.eta_max[6] < rep.eta_max[3]


def test_census_forests_n3():
    census = build_census(FORESTS, 3)
    assert [(v, m.bit_count(), aut) for v, m, aut in census.entries] == [(1, 0, 1), (2, 1, 2), (3, 2, 2)]
    assert census_labelled_total(census, W11)[3] == 3 == brute_force_tau(FORESTS, W11, 3).c


def test_census_planar_n3_has_triangle():
    census = build_census(builtin_family("planar"), 3)
    auts = sorted((v, m.bit_count(), aut) for v, m, aut in census.entries)
    assert (3, 3, 6) in auts  # the triangle
    w = Weighting(2, 3)
    totals = census_labelled_total(census, w)
    for n in (1, 2, 3):
        assert totals[n] == brute_force_tau(builtin_family("planar"), w, n).c


def test_census_consistency_larger():
    census = build_census(FORESTS, 6)
    assert len(census.entries) == 14  # unlabelled trees with at most 6 vertices
    totals = census_labelled_total(census, W11)
    for n in range(1, 7):
        assert totals[n] == brute_force_tau(FORESTS, W11, n).c


BUILTINS = ("all", "forests", "planar", "series-parallel", "ex-k-disjoint-cycles:1")


def _census_family(name):
    """A built-in, or an excluded-minor restatement of one (no-k4, no-2c3)."""
    if name == "no-k4":
        return excluded_minor_family(name, (complete_graph(4),))
    if name == "no-2c3":
        return excluded_minor_family(name, (copies(cycle_graph(3), 2),))
    return builtin_family(name)


def _classes(census):
    """(code, v, e, aut) of each census class, in census order."""
    return [(code_of(v, m).code, v, m.bit_count(), aut) for v, m, aut in census.entries]


def _census_by_canonicalizing_every_member(fam, n_max):
    """(code, v, e, aut) of each class, from canonicalizing every labelled
    connected member; the least-mask member stands for its class."""
    reps = {}
    for n in range(1, n_max + 1):
        for mask in member_masks(fam, n, connected=True).tolist():
            reps.setdefault(canonicalize(Graph(n, mask)).code, Graph(n, mask))
    return sorted((code, g.n, g.edge_count, automorphism_count(g))
                  for code, g in reps.items())


@pytest.mark.parametrize("name", BUILTINS + ("no-k4", "no-2c3"))
def test_census_by_augmentation_matches_every_member_canonicalized(name):
    fam = _census_family(name)
    census = build_census(fam, 6)
    assert _classes(census) == _census_by_canonicalizing_every_member(fam, 6)
    for v, m, aut in census.entries:
        # the stored mask is the canonical graph of its class, which is connected
        code = code_of(v, m)
        assert canonicalize(Graph(v, m)) == code and m == int.from_bytes(code.code[1:], "big")
        assert math.factorial(v) // aut * aut == math.factorial(v) and is_connected(Graph(v, m))


def test_census_canonicalizes_only_twin_pruned_children():
    """Each parent is joined only by neighbour sets that take the lowest-indexed
    members of each of its twin classes, and a child is canonicalized only
    when its new vertex is a canonical deletion, so all graphs on at most 6
    vertices cost at most 180 canonicalizations (482 with the twin pruning
    alone, 760 when every nonempty neighbour set is tried), with the same
    classes."""
    fam = builtin_family("all")
    _canon_data.cache_clear()
    census = build_census(fam, 6)
    assert _canon_data.cache_info().misses <= 180
    assert _classes(census) == _census_by_canonicalizing_every_member(fam, 6)


def _census_by_every_twin_pruned_child(fam, n_max):
    """(code, v, e, aut) of each class, from canonicalizing every member child
    of the twin-pruned augmentation: build_census as it was before the
    canonical-deletion filter."""
    out = []
    reps = [0]
    for n in range(1, n_max + 1):
        member = member_mask_array(fam, n)
        nbrs = np.arange(1 if n > 1 else 0, 1 << (n - 1), dtype=np.int64)
        found = {}
        for rep in reps:
            prev, _ = _twin_classes(n - 1, Graph(n - 1, rep).adjacency())
            keep = nbrs
            for w, p in enumerate(prev):
                if p >= 0:
                    keep = keep[(keep >> w & 1) <= (keep >> p & 1)]
            ext = keep << pair_count(n - 1) | rep
            if member is not None:
                ext = ext[member[ext] != 0]
            found.update(_canon_data(n, mask) for mask in ext.tolist())
        reps = sorted(found)
        out += [(code_of(n, m).code, n, m.bit_count(), found[m]) for m in reps]
    return out


@pytest.mark.parametrize("name", BUILTINS + ("no-k4", "no-2c3"))
def test_census_matches_the_unfiltered_augmentation_at_n7(name):
    fam = _census_family(name)
    census = build_census(fam, 7)
    assert _classes(census) == _census_by_every_twin_pruned_child(fam, 7)


@pytest.mark.parametrize("name", BUILTINS + ("trees",))
def test_census_class_sizes_add_up_to_connected_count_at_n7(name):
    fam = builtin_family(name)
    census = build_census(fam, 7)
    total = sum(math.factorial(7) // aut for v, _, aut in census.entries if v == 7)
    assert total == brute_force_tau(fam, W11, 7).c


def test_census_past_the_last_connected_class():
    """Without edges the only connected member is K1, and the orders above
    it, which have no parent to join, are empty."""
    census = build_census(excluded_minor_family("edgeless", (complete_graph(2),)), 4)
    assert census.entries == [(1, 0, 1)]


@pytest.mark.parametrize("name", ("forests", "trees"))
def test_forest_census_never_builds_the_lattice_at_its_top_order(name, monkeypatch):
    """The forest census checks its class sizes against the forest slice
    (member_masks), so it builds no whole slice above n_max - 1, where
    _canonical_deletion reads the vertex-deleted masks."""
    from minorclass import _kernels

    monkeypatch.setattr(_kernels, "_RECORDS", {})
    census = build_census(builtin_family(name), 7)
    assert max(_kernels._RECORDS) == 6
    assert np.bincount(census.v).tolist() == [0, 1, 1, 1, 2, 3, 6, 11]


def test_member_list_of_all_graphs_stops_at_n7():
    """All 2^28 masks at n = 8 are never listed: the refusal comes before
    any array is allocated."""
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="listing every graph stops at n=7"):
            member_masks(ALL, 8)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_census_of_planar_stops_at_the_array_cap():
    with pytest.raises(ResourceCapError):
        build_census(builtin_family("planar"), 8)


@pytest.mark.parametrize("name", ("forests", "trees"))
def test_census_of_forests_reaches_n8(name):
    """The forest census looks its children up in the forest slice, which
    reaches n = 8: the 23 trees on 8 vertices hold all 8^6 labelled ones,
    and the rows below are the n <= 7 census."""
    census = build_census(builtin_family(name), 8)
    assert np.bincount(census.v).tolist() == [0, 1, 1, 1, 2, 3, 6, 11, 23]
    assert sum(math.factorial(8) // aut for v, _, aut in census.entries if v == 8) == 8 ** 6
    assert census.entries[:25] == build_census(builtin_family(name), 7).entries


@pytest.mark.parametrize("name", BUILTINS + ("trees",))
def test_census_totals_under_split_weights(name):
    """tau(C_n) from the census classes, each weighed by its bridges, equals
    the lattice sweep: exactly for rational weights, and to rounding for
    floats, whose sums run in another order."""
    fam = builtin_family(name)
    census = build_census(fam, 6)
    exact = Weighting.extended(Fraction(1, 2), 2, 3)
    floats = Weighting.extended(0.3, 2.5, 1.5)
    assert census_labelled_total(census, exact) == [brute_force_tau(fam, exact, n).c for n in range(7)]
    assert census_labelled_total(census, floats) == pytest.approx(
        [brute_force_tau(fam, floats, n).c for n in range(7)], rel=1e-12)


def test_census_counts_bridges_once_and_only_off_the_diagonal(monkeypatch):
    """A diagonal weighting counts no bridges; the first split weighting
    counts each class's once, in one pass per order, and later calls reuse
    them unchanged."""
    from minorclass import _kernels

    census = build_census(builtin_family("planar"), 5)
    counted, count = [], _kernels.bridge_counts

    def counting(n, masks):
        counted.append((n, masks.size))
        return count(n, masks)

    monkeypatch.setattr(_kernels, "bridge_counts", counting)
    diagonal = census.weights(Weighting(Fraction(1, 2), 3))
    assert counted == []
    split = [census.weights(Weighting.extended(Fraction(1, 2), 2, 3)) for _ in range(2)]
    assert counted == sorted(Counter(census.v.tolist()).items())
    assert split[0] == split[1] and diagonal != split[0]
    census.weights(Weighting.extended(0.3, 2.5, 1.5))
    assert len(counted) == 5


def test_falling_moment_identity():
    k1 = Graph(1, 0)
    k2 = Graph.from_edges(2, [(1, 2)])
    assert falling_moment_check(FORESTS, W11, 4, [(k1, 1)]) == 0
    assert falling_moment_check(FORESTS, W11, 5, [(k2, 2)], rho=Fraction(7, 5)) == 0
    assert falling_moment_check(FORESTS, W11, 6, [(k1, 1), (k2, 1)]) == 0
    # empty picks: both sides are 1
    assert falling_moment_check(FORESTS, W11, 4, []) == 0
    # also under a genuinely weighted measure
    assert falling_moment_check(FORESTS, Weighting(2, 3), 5, [(k1, 2)]) == 0


@pytest.mark.parametrize("w", [W11, Weighting(Fraction(1, 2), 3),
                               Weighting.extended(Fraction(1, 2), 2, 3)])
def test_forest_frag_law_at_n8(w):
    """At n = 8 the frag law reads the forest slice: it sums to 1, and for
    k <= 3 the big component is unique, so Pr[frag = k] = C(8, k) c_(8-k) a_k / a_8."""
    dist = exact_frag_distribution(FORESTS, w, 8)
    table = forest_table(w, 8)
    assert sum(dist.values()) == 1
    for k in range(4):
        assert dist[k] == Fraction(math.comb(8, k) * table.c[8 - k] * table.a[k]) / table.a[8], k


def test_exact_frag_mean_bound():
    # bridge-addable bound E[frag] < 2 nu / lam
    for fam in (FORESTS, builtin_family("series-parallel")):
        for w in (W11, Weighting(2, 3)):
            mean = exact_frag_mean(fam, w, 5)
            assert float(mean) < 2 * float(w.nu) / float(w.lam)


FAMILY_FILES = Path(__file__).resolve().parent.parent / "perfbench" / "families"


def _frag_distribution_per_graph(fam, w, n):
    """exact_frag_distribution as a loop over the members, one Graph, one
    big/frag split and one weight each (the reference for the lattice cells)."""
    totals = {}
    denom = 0
    for mask in member_masks(fam, n).tolist():
        g = Graph(n, mask)
        wt = Fraction(weight(g, w)) if w.is_rational else weight(g, w)
        frag = big_frag_split(g)[1].graph.n
        totals[frag] = totals.get(frag, 0) + wt
        denom += wt
    return {k: v / denom for k, v in sorted(totals.items())}


@pytest.mark.parametrize("name", BUILTINS + ("trees", "no-2c3", "no-k4", "planar-by-minors"))
def test_frag_distribution_equals_per_graph_loop(name):
    path = FAMILY_FILES / f"{name}.json"
    fam = family_from_spec(str(path) if path.exists() else name)
    for w in (Weighting(Fraction(1, 2), Fraction(3, 2)), Weighting.extended(Fraction(1, 2), 2, 3)):
        for n in range(1, 7):
            assert exact_frag_distribution(fam, w, n) == _frag_distribution_per_graph(fam, w, n), (w, n)


@pytest.mark.parametrize("name", ("all", "planar", "forests"))
def test_float_frag_distribution_near_per_graph_loop(name):
    """Float weights are summed per cell, not per mask, so only the last bits move."""
    fam = builtin_family(name)
    w = Weighting(0.3, 1.7)
    for n in range(1, 7):
        got, want = exact_frag_distribution(fam, w, n), _frag_distribution_per_graph(fam, w, n)
        assert got.keys() == want.keys()
        assert all(abs(got[k] - want[k]) <= 1e-12 * want[k] for k in want), n


def test_frag_distribution_of_trees_is_connected():
    """Every tree is connected, so the trees' frag is 0 with probability 1."""
    trees = builtin_family("trees")
    for w in (W11, Weighting(2, 3), Weighting.extended(Fraction(1, 2), 2, 3)):
        for n in range(1, 8):
            assert exact_frag_distribution(trees, w, n) == {0: 1}, (w, n)
            assert exact_frag_mean(trees, w, n) == 0


def test_frag_distribution_needs_a_vertex():
    with pytest.raises(ValueError):
        exact_frag_distribution(ALL, W11, 0)


def test_extended_weighting_counts():
    wext = Weighting.extended(2, 1, 5)
    t = brute_force_tau(ALL, wext, 4)
    from minorclass.graphs import weight

    direct = sum(weight(Graph(4, m), wext) for m in range(1 << 6))
    assert t.a == direct
    direct_c = sum(weight(Graph(4, m), wext) for m in range(1 << 6) if _kappa(Graph(4, m)) == 1)
    assert t.c == direct_c
