"""Root solvers, series evaluations and limiting constants."""

import math
from fractions import Fraction

import numpy as np
import pytest

from minorclass.asymptotics import (
    PLANAR_GAMMA,
    census_series_eval,
    constants_from_gamma,
    forest_limit_pack,
    frag_size_distribution,
    pendant_limit,
    planar_constants,
    solve_alpha,
    solve_beta,
    tree_series_eval,
    tree_tail_bound,
)
from minorclass.canon import automorphism_count
from minorclass.enumeration import build_census
from minorclass.families import builtin_family, load_family
from minorclass.graphs import (
    Graph,
    RootedGraph,
    Weighting,
    complete_graph,
    graph_to_text,
    path_graph,
    weight,
)
from minorclass.sampling import boltzmann_config


def test_solve_beta_examples():
    assert solve_beta(math.e, 1.0) is None  # boundary gamma = lam * e
    beta = solve_beta(PLANAR_GAMMA, 1.0)
    assert abs(beta - 26.207554) <= 1e-4
    # forward-constructed root: beta = 2 solves beta * e^(1/beta) = 2 e^(1/2)
    beta = solve_beta(2 * math.exp(0.5), 1.0)
    assert abs(beta - 2.0) <= 1e-8


def test_solve_alpha_examples():
    assert solve_alpha(math.e, 1.0) == 0.0
    assert abs(solve_alpha(PLANAR_GAMMA, 1.0) - 0.961843) <= 1e-5
    # x = 1/2 gives gamma = 2 e^(1/2) and alpha = 1/2
    assert abs(solve_alpha(2 * math.exp(0.5), 1.0) - 0.5) <= 1e-8


def test_forward_backward_residuals():
    for gamma, lam in [(PLANAR_GAMMA, 1.0), (9.0, 1.5), (30.0, 2.0)]:
        beta = solve_beta(gamma, lam)
        alpha = solve_alpha(gamma, lam)
        if beta is None:
            assert alpha == 0.0
            continue
        assert abs(beta * math.exp(lam / beta) - gamma) <= 1e-8
        x = 1 - alpha
        assert abs(x * math.exp(-x) - lam / gamma) <= 1e-8
        assert abs(alpha - (1 - lam / beta)) <= 1e-8


def test_mu_examples():
    census = build_census(builtin_family("all"), 3)  # K1, K2, the path P3, the triangle
    assert census.entries[3] == (3, 7, 6)
    assert abs(census.mus(1 / math.e, Weighting(1, 1))[0] - 1 / math.e) <= 1e-12
    got = census.mus(1 / math.e, Weighting(2, 3))[1]
    assert abs(got - 3 * math.exp(-2)) <= 1e-9
    rho0 = 1 / PLANAR_GAMMA
    mu_c3 = census.mus(rho0, Weighting(1, 1))[3]
    assert abs(mu_c3 - 8.3e-6) <= 5e-8
    assert mu_c3 == rho0 ** 3 / 6


@pytest.mark.parametrize("rho, w", [
    (0.03, Weighting(0.7, 1.3)),
    (Fraction(1, 7), Weighting(Fraction(2, 3), 3)),
    (Fraction(1, 20), Weighting.extended(Fraction(1, 2), 2, 3)),
    (0.05, Weighting.extended(0.3, 2.5, 1.5)),
], ids=["float", "rational", "split", "split-float"])
def test_census_mus_equal_the_per_graph_formula(rho, w):
    """Each class's mu is bit for bit rho^v * weight(G) / aut(G), computed
    from the class's canonical graph G by the per-graph route."""
    census = build_census(builtin_family("all"), 6)
    want = [float(rho ** g.n * weight(g, w) / automorphism_count(g))
            for g in (Graph(v, m) for v, m, _ in census.entries)]
    assert census.mus(rho, w) == want


def test_tree_series_identities():
    w = Weighting(1, 1)
    t = tree_series_eval(1 / math.e, w, 10**4)
    assert abs(t.tree.value - 0.5) <= 1e-5
    assert t.tree.tail_bound <= 1e-5
    t2 = tree_series_eval(1 / math.e, w, 10**6)
    assert abs(t2.rooted.value - 1.0) <= 1e-3
    assert t2.rooted.tail_bound <= 1e-3
    w23 = Weighting(2, 3)
    t3 = tree_series_eval(1 / (2 * math.e), w23, 10**5)
    assert abs(t3.tree.value - 0.75) <= t3.tree.tail_bound
    assert abs(t3.rooted.value - 1.5) <= t3.rooted.tail_bound


def test_tree_series_tail_bounds_honored_under_doubling():
    """Doubling the term count moves the sum by less than the certified tail."""
    w = Weighting(1, 1)
    for n_terms in (1000, 10000):
        a = tree_series_eval(1 / math.e, w, n_terms)
        b = tree_series_eval(1 / math.e, w, 2 * n_terms)
        assert abs(b.tree.value - a.tree.value) <= a.tree.tail_bound
        assert abs(b.rooted.value - a.rooted.value) <= a.rooted.tail_bound


def test_tree_series_inside_radius_has_geometric_tail():
    w = Weighting(1, 1)
    t = tree_series_eval(0.5 / math.e, w, 100)
    t_more = tree_series_eval(0.5 / math.e, w, 200)
    assert abs(t.tree.value - t_more.tree.value) <= t.tree.tail_bound
    assert t.tree.tail_bound < 1e-20  # geometric decay


def test_tree_series_rejects_beyond_radius():
    with pytest.raises(ValueError):
        tree_series_eval(1.01 / math.e, Weighting(1, 1), 100)


def test_census_series_eval():
    w = Weighting(1, 1)
    census = build_census(builtin_family("forests"), 6)
    series = census_series_eval(census, 1 / math.e, w)
    # approaches T = 1/2 from below, within the certified tail
    assert 0.45 < series.connected_sum.value < 0.5
    assert 0.5 - series.connected_sum.value <= series.connected_sum.tail_bound
    # the truncated sums are monotone in the census range
    smaller = census_series_eval(build_census(builtin_family("forests"), 4), 1 / math.e, w)
    assert smaller.connected_sum.value < series.connected_sum.value
    # rho * D' tends to nu/lam = 1 (slowly: the rooted tail decays like N^-1/2);
    # the certified tail must cover the gap to the limit
    rho = 1 / math.e
    vm = rho * series.vertex_moment.value
    assert 0.6 < vm < 1.0
    assert 1.0 - vm <= rho * series.vertex_moment.tail_bound


def test_census_tree_tail_comes_from_the_family_not_its_name(tmp_path):
    """A K4-free family named "forests" has classes with cycles, so no tree
    tail is certified for it; the built-in forests and trees keep theirs."""
    (tmp_path / "k4.graph").write_text(graph_to_text(complete_graph(4)))
    (tmp_path / "fam.json").write_text('{"name": "forests", "excluded_minors": ["k4.graph"]}')
    rho, w = 1 / math.e, Weighting(1, 1)
    impostor = build_census(load_family(tmp_path / "fam.json"), 5)
    assert len(impostor.entries) == 24 and not impostor.of_trees
    assert sum(m.bit_count() >= v for v, m, _ in impostor.entries) == 16  # classes with a cycle
    assert boltzmann_config(impostor, rho, w).truncated_mass_note is None
    assert census_series_eval(impostor, rho, w).connected_sum.tail_bound is None
    tail = tree_tail_bound(5, 1.0, rho, 1.0, rooted=False)
    for name in ("forests", "trees"):
        census = build_census(builtin_family(name), 5)
        assert census.of_trees
        assert boltzmann_config(census, rho, w).truncated_mass_note == tail
        assert census_series_eval(census, rho, w).connected_sum.tail_bound == tail


def test_census_series_empty_and_single():
    from minorclass.enumeration import UnlabelledCensus

    w = Weighting(1, 1)
    empty = UnlabelledCensus("custom", 0, *np.zeros((3, 0), dtype=np.int64))
    series = census_series_eval(empty, 0.3, w)
    assert series.connected_sum.value == 0.0
    census = build_census(builtin_family("forests"), 1)  # K1 only
    series = census_series_eval(census, 0.25, Weighting(1, 2))
    assert abs(series.connected_sum.value - 0.5) <= 1e-12  # rho * nu


def test_forest_limit_pack():
    pack = forest_limit_pack(Weighting(1, 1))
    assert abs(pack.conn_limit - math.exp(-0.5)) <= 1e-12
    assert pack.frag_mean_limit == 1.0
    assert pack.kappa_mean_limit == 1.5
    # only the ratio nu/lam matters
    assert forest_limit_pack(Weighting(3, 3)).conn_limit == pytest.approx(math.exp(-0.5))
    assert forest_limit_pack(Weighting(2, 1)).frag_mean_limit == 0.5


def test_nu_linearity_of_connectivity_limit():
    for lam in (1.0, 2.0):
        for nu in (2.0, 3.0):
            single = forest_limit_pack(Weighting(lam, 1)).conn_limit
            assert forest_limit_pack(Weighting(lam, nu)).conn_limit == pytest.approx(single ** nu)
    # census route: e^(-nu * D_trunc(lam, 1))
    census = build_census(builtin_family("forests"), 5)
    d1 = census_series_eval(census, 1 / math.e, Weighting(1, 1)).connected_sum.value
    d3 = census_series_eval(census, 1 / math.e, Weighting(1, 3)).connected_sum.value
    assert math.exp(-d3) == pytest.approx(math.exp(-d1) ** 3)


def test_pendant_limit_examples():
    k1 = RootedGraph(Graph(1, 0), 1)
    assert pendant_limit(k1, math.e, 1.0) == pytest.approx(1 / math.e)
    k2 = RootedGraph(Graph.from_edges(2, [(1, 2)]), 1)
    assert pendant_limit(k2, math.e, 1.0) == pytest.approx(1 / (2 * math.e ** 2))
    # doubling lambda at fixed gamma scales by 2^(e(H)+1)
    for h in (k1, k2, RootedGraph(path_graph(3), 2)):
        base = pendant_limit(h, 5.0, Weighting(1, 1))
        assert pendant_limit(h, 5.0, Weighting(2, 1)) == pytest.approx(base * 2 ** (h.graph.edge_count + 1))


def test_planar_constants_table():
    consts = planar_constants()
    assert abs(consts.beta - 26.207554) <= 1e-4
    assert abs(consts.alpha - 0.961843) <= 1e-5
    assert abs(consts.core_conn_limit - 0.999990) <= 1e-5
    assert consts.rho == pytest.approx(1 / PLANAR_GAMMA)


def test_constants_radius_case():
    consts = constants_from_gamma(math.e, Weighting(1, 1))
    assert consts.beta is None and consts.alpha == 0.0


def test_frag_size_distribution():
    w = Weighting(1, 1)
    census = build_census(builtin_family("forests"), 6)
    f_value = math.exp(0.5)
    dist = frag_size_distribution(census, 1 / math.e, w, f_value)
    assert dist[0] == pytest.approx(math.exp(-0.5))
    assert dist[1] == pytest.approx(math.exp(-0.5) / math.e)
    assert sum(dist) <= 1.0 + 1e-12
    # the normalization gap is the truncation tail
    assert 1.0 - sum(dist) < 0.05
