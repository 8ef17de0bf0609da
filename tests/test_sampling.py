"""Samplers against their exact laws."""

import functools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from minorclass import sampling
from minorclass.canon import code_of
from minorclass.enumeration import (
    brute_force_tau,
    build_census,
    exact_frag_distribution,
    forest_table,
    mask_cells,
    member_masks,
)
from minorclass.errors import EmptySliceError
from minorclass.families import builtin_family
from minorclass.graphs import Graph, RootedGraph, Weighting, component_count, weight
from minorclass.sampling import (
    boltzmann_component_counts,
    boltzmann_config,
    boltzmann_poisson_sample,
    collect_stats,
    classes_to_graph,
    e_kappa_histogram,
    exact_sample,
    mcmc_sample,
    pairwise_independence,
    poisson_chi_square,
    random_tree_sample,
    rng_stream,
    stationary_residual,
    transition_matrix,
    tv_distance,
)

FORESTS = builtin_family("forests")
ALL = builtin_family("all")
W11 = Weighting(1, 1)


def test_exact_sample_trivial_slices():
    assert all(g == Graph(1, 0) for g in exact_sample(FORESTS, W11, 1, seed=0, draws=10))
    trees = builtin_family("trees")
    freq = Counter(g.mask for g in exact_sample(trees, W11, 3, seed=1, draws=30000))
    assert len(freq) == 3  # the three labelled paths
    for count in freq.values():
        assert abs(count / 30000 - 1 / 3) < 0.02


def test_exact_sample_empty_slice():
    trees = builtin_family("trees")
    with pytest.raises(EmptySliceError):
        exact_sample(trees, W11, 0, seed=0, draws=1)


def test_exact_sample_law():
    """Per-graph frequencies match tau(G)/tau(A_n) within 4 sigma."""
    draws = 10**6
    w = Weighting(2, 3)
    samples = exact_sample(FORESTS, w, 4, seed=5, draws=draws)
    freq = Counter(g.mask for g in samples)
    total = brute_force_tau(FORESTS, w, 4).a
    for mask in member_masks(FORESTS, 4).tolist():
        p = float(Fraction(weight(Graph(4, mask), w)) / total)
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(freq.get(mask, 0) / draws - p) <= 4 * sigma + 1e-9
    # the triangle never appears
    assert all(component_count(g) >= 1 for g in samples)


@functools.lru_cache(maxsize=None)
def _per_graph_weights(name, w, n):
    """float(weight(Graph(n, m), w)) for every member m, one Graph (and, with
    lambda0 != lambda1, one bridge count) per member: the exact sampler's
    weights as they were computed before the lattice cells."""
    return [float(weight(Graph(n, m), w)) for m in member_masks(builtin_family(name), n).tolist()]


def _exact_sample_per_graph(name, w, n, seed, draws):
    """The exact sampler weighing every member by its own Graph (the reference
    for the lattice-cell route)."""
    masks = member_masks(builtin_family(name), n).tolist()
    cum = np.cumsum(_per_graph_weights(name, w, n))
    r = rng_stream(seed).random(draws) * cum[-1]
    return [Graph(n, masks[i]) for i in np.searchsorted(cum, r, side="right")]


BUILTINS = ("all", "forests", "trees", "planar", "series-parallel", "ex-k-disjoint-cycles:1")


@pytest.mark.parametrize("w", [Weighting(Fraction(1, 3), Fraction(5, 2)), Weighting(0.3, 1.7),
                               Weighting.extended(Fraction(1, 2), 2, 3)],
                         ids=["diagonal-rational", "diagonal-float", "split"])
def test_cell_weights_equal_per_graph_weights(w):
    """Every member's sampling weight, gathered from its lattice cell, is the
    float of graphs.weight on its own Graph."""
    cases = [(name, n) for name in BUILTINS for n in range(6)] + [("planar", 6), ("all", 6)]
    for name, n in cases:
        fam = builtin_family(name)
        cells, weights = mask_cells(fam, w, n, member_masks(fam, n))
        assert weights.astype(float)[cells].tolist() == _per_graph_weights(name, w, n), (name, n)


@pytest.mark.parametrize("name, n, w", [
    ("all", 6, Weighting.extended(Fraction(1, 2), 2, 3)),
    ("planar", 6, Weighting.extended(0.3, 2.5, 1.5)),
    ("series-parallel", 5, Weighting.extended(2, Fraction(1, 3), Fraction(3, 2))),
    ("trees", 6, Weighting.extended(Fraction(1, 2), 2, 3)),  # a connected-members view
])
def test_exact_sample_split_draws_equal_per_graph_sampler(name, n, w):
    for seed in range(3):
        got = exact_sample(builtin_family(name), w, n, seed, 2000)
        assert got == _exact_sample_per_graph(name, w, n, seed, 2000), seed


def test_boltzmann_component_law():
    w = W11
    census = build_census(FORESTS, 6)
    cfg = boltzmann_config(census, 1 / math.e, w)
    draws = 10**5
    counts = boltzmann_component_counts(cfg, seed=7, draws=draws)
    # each marginal passes the chi-square test against its Poisson
    for i, mu in enumerate(cfg.mus):
        hist = {int(v): int(c) for v, c in zip(*np.unique(counts[:, i], return_counts=True))}
        _, _, p = poisson_chi_square(hist, draws, mu)
        assert p >= 1e-3
    # every pair is independent: frequent pairs do not correlate, rare pairs
    # are not nonzero together more often than the Poisson tail allows
    max_corr, rare_pair_p = pairwise_independence(counts, cfg.mus)
    assert max_corr <= 4 / math.sqrt(draws)
    assert rare_pair_p >= 1e-3
    # total components are Poisson with mean C_trunc
    assert counts.sum(axis=1).mean() == pytest.approx(cfg.total_mean, abs=0.01)
    # empty-draw frequency equals exp(-C_trunc)
    empty = (counts.sum(axis=1) == 0).mean()
    assert empty == pytest.approx(math.exp(-cfg.total_mean), abs=0.01)


def _row_graph(census, row):
    """The graph of one count row: its class list, each class repeated by its count."""
    return classes_to_graph(census, np.repeat(np.arange(len(row)), row))


def test_boltzmann_sample_is_counts_to_graph_per_row():
    """Draws that share a count row share one graph, equal to materializing each row."""
    census = build_census(FORESTS, 6)
    cfg = boltzmann_config(census, 1 / math.e, W11)
    graphs = boltzmann_poisson_sample(cfg, seed=7, draws=3000)
    rows = boltzmann_component_counts(cfg, seed=7, draws=3000)
    assert graphs == [_row_graph(census, row) for row in rows]


@pytest.mark.parametrize("nu, draws", [(1, 0), (1, 1), (1, 3000), (1000, 40)])
def test_boltzmann_groups_hold_one_graph_per_distinct_row(nu, draws):
    """The numpy grouping equals a dict over the rows' bytes: one graph per
    distinct count row, shared by its draws, with no draws, one, many, and
    counts of 256 and more (grouped as uint16 rows)."""
    census = build_census(FORESTS, 6)
    cfg = boltzmann_config(census, 1 / math.e, Weighting(1, nu))
    rows = boltzmann_component_counts(cfg, seed=7, draws=draws)
    distinct, inverse = sampling.boltzmann_groups(cfg, seed=7, draws=draws)
    assert [distinct[j] for j in inverse.tolist()] == [_row_graph(census, r) for r in rows]
    assert len(distinct) == len({r.tobytes() for r in rows})
    graphs = boltzmann_poisson_sample(cfg, seed=7, draws=draws)
    assert len({id(g) for g in graphs}) == len(distinct)
    assert nu == 1 or rows.max() >= 256


def test_boltzmann_law_over_many_classes():
    """The 31 classes of the `all` census at n <= 5, drawn by splitting one
    Poisson count per draw: each class's count has its Poisson mean (within 5
    standard errors) and variance/mean near 1, no two of the 465 pairs
    depend (correlation within 5 standard errors where both are expected
    nonzero together in 5 draws or more, else co-occurrences within the
    Poisson tail), and the component total has mean sum(mu)."""
    cfg = boltzmann_config(build_census(ALL, 5), 0.6, W11)
    draws = 20000
    counts = boltzmann_component_counts(cfg, seed=11, draws=draws)
    mus = np.asarray(cfg.mus)
    assert counts.shape == (draws, 31)
    mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
    assert (np.abs(mean - mus) <= 5 * np.sqrt(mus / draws)).all()
    big = mus * draws >= 50
    assert big.sum() >= 10
    dispersion = var[big] / mean[big]
    assert (np.abs(dispersion - 1) <= 5 * np.sqrt((1 / mus[big] + 2) / draws)).all()
    max_corr, rare_pair_p = pairwise_independence(counts, mus)
    assert max_corr <= 5 / math.sqrt(draws) and rare_pair_p >= 1e-3
    total = counts.sum(axis=1)
    assert abs(total.mean() - mus.sum()) <= 5 * math.sqrt(mus.sum() / draws)


def test_boltzmann_sample_is_its_groups_expanded():
    """boltzmann_poisson_sample is boltzmann_groups' graphs read through the
    inverse index, on the `all` census with split weights."""
    cfg = boltzmann_config(build_census(ALL, 4), 0.4, Weighting.extended(0.5, 2, 3))
    graphs, inverse = sampling.boltzmann_groups(cfg, seed=2, draws=500)
    assert inverse.shape == (500,)
    assert boltzmann_poisson_sample(cfg, seed=2, draws=500) == [graphs[j] for j in inverse]
    assert len(set(graphs)) == len(graphs)


def test_boltzmann_memory_is_linear_in_the_output():
    """20,000 draws over 10^5 classes of mean 10^-5 each: the sampler and
    the writer never build the 2 * 10^9 draws x classes counts."""
    from minorclass.enumeration import UnlabelledCensus
    from minorclass.jsonl import draws_to_jsonl

    k = 10**5
    ones = np.ones(k, dtype=np.int64)
    census = UnlabelledCensus("k1", 1, ones, ones - 1, ones)
    cfg = sampling.BoltzmannConfig(0.5, W11, census, [1 / k] * k)
    tracemalloc.start()
    try:
        orders = Counter(json.loads(line)["n"] for chunk in
                         draws_to_jsonl(*sampling.boltzmann_groups(cfg, 0, 20000))
                         for line in chunk.splitlines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(orders.values()) == 20000
    assert abs(orders[0] / 20000 - math.exp(-1)) < 0.02 and max(orders) >= 4
    assert peak < 16 * 2**20


def test_tree_memory_is_linear_in_a_chunk():
    """20,000 trees at n = 300 are sampled and formatted a chunk at a time:
    the peak is a few chunks, not the 48 MB of one (draws, n - 1) int64
    array."""
    from minorclass.jsonl import trees_to_jsonl

    tracemalloc.start()
    try:
        lines = sum(chunk.count("\n") for chunk in
                    trees_to_jsonl(300, sampling.random_tree_chunks(300, 0, 20000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == 20000
    assert peak < 8 * 2**20


def test_boltzmann_truncation_note():
    census = build_census(FORESTS, 6)
    cfg = boltzmann_config(census, 1 / math.e, W11)
    assert cfg.truncated_mass_note is not None
    assert 0 < cfg.truncated_mass_note < 0.05


@pytest.mark.parametrize("rho", [1 / math.e, 0.3], ids=["radius", "inside"])
def test_boltzmann_config_rejects_an_empty_census(rho):
    """An empty census raises the sampler's own error, at the radius and
    inside it, before the tail bound is asked about zero terms."""
    with pytest.raises(EmptySliceError, match="^empty census$"):
        boltzmann_config(build_census(FORESTS, 0), rho, W11)


def test_boltzmann_graphs_and_stats():
    census = build_census(FORESTS, 5)
    cfg = boltzmann_config(census, 1 / math.e, W11)
    graphs = boltzmann_poisson_sample(cfg, seed=9, draws=20000)
    stats = collect_stats(graphs, census=census)
    v, m, _ = census.entries[0]
    k1_hex = code_of(v, m).hex
    hist = stats.comp_count_histogram(k1_hex)
    mean = sum(k * c for k, c in hist.items()) / stats.draws
    assert mean == pytest.approx(1 / math.e, abs=0.02)


def test_graph_samplers_are_the_graphs_of_the_mask_route():
    """exact_sample and mcmc_sample wrap exact_masks and mcmc_masks."""
    split = Weighting.extended(Fraction(1, 2), 2, 3)
    sp = builtin_family("series-parallel")
    for fam, w, n in ((FORESTS, W11, 6), (ALL, split, 5), (sp, W11, 6), (FORESTS, W11, 1)):
        masks = sampling.exact_masks(fam, w, n, 3, 500)
        assert exact_sample(fam, w, n, 3, 500) == [Graph(n, s) for s in masks]
    for fam, w, n in ((FORESTS, W11, 10), (FORESTS, W11, 16), (sp, split, 6), (ALL, W11, 1)):
        masks = sampling.mcmc_masks(fam, w, n, 300, burn_in=500, thin=3, seed=2)
        assert mcmc_sample(fam, w, n, 300, burn_in=500, thin=3, seed=2) == \
            [Graph(n, s) for s in masks]


def test_mcmc_edge_density_gnp():
    """With nu = 1 and all graphs, the chain is independent edge flips with
    stationary density lam/(1+lam)."""
    lam = 2.0
    samples = mcmc_sample(ALL, Weighting(2, 1), 6, draws=20000, burn_in=20000, thin=5, seed=3)
    mean_edges = sum(g.edge_count for g in samples) / len(samples)
    assert mean_edges / 15 == pytest.approx(lam / (1 + lam), abs=0.02)


def test_mcmc_uniform_mean_edges():
    samples = mcmc_sample(ALL, W11, 5, draws=20000, burn_in=20000, thin=5, seed=4)
    mean_edges = sum(g.edge_count for g in samples) / len(samples)
    assert mean_edges == pytest.approx(5.0, abs=0.1)  # C(5,2)/2


def test_mcmc_matches_exact_sampler():
    draws = 10**5
    xs = exact_sample(FORESTS, W11, 6, seed=1, draws=draws)
    ms = mcmc_sample(FORESTS, W11, 6, draws=draws, burn_in=10**5, thin=10, seed=2)
    assert tv_distance(e_kappa_histogram(xs), e_kappa_histogram(ms)) <= 0.02


@pytest.mark.parametrize("n", [12, 20, 30])
def test_mcmc_forest_connectivity_matches_forest_table(n):
    """Past the enumeration range the forest chain's connected share matches
    the exact c_n / a_n, within 5 batch-means standard errors."""
    table = forest_table(W11, n)
    p = float(table.c[n] / table.a[n])
    samples = mcmc_sample(FORESTS, W11, n, draws=20000, burn_in=20000, thin=10, seed=5)
    assert all(g.edge_count == n - component_count(g) for g in samples)
    connected = np.array([g.edge_count == n - 1 for g in samples], dtype=float)
    batches = connected.reshape(20, -1).mean(axis=1)
    se = batches.std(ddof=1) / math.sqrt(len(batches))
    assert abs(connected.mean() - p) <= 5 * se


@pytest.mark.parametrize("w", [W11, Weighting.extended(Fraction(1, 2), 2, 3)], ids=["1-1", "split"])
def test_exact_forests_at_n8_match_forest_table(w):
    """The exact sampler reads the forest slice at n = 8: the connected
    share of its draws is within 5 standard errors of c_8 / a_8."""
    table = forest_table(w, 8)
    p = float(table.c[8] / table.a[8])
    masks = np.array(sampling.exact_masks(FORESTS, w, 8, seed=2, draws=40000))
    connected = np.bitwise_count(masks) == 7
    assert abs(connected.mean() - p) <= 5 * math.sqrt(p * (1 - p) / masks.size)


def test_mcmc_extended_weighting_matches_exact_sampler():
    """With lambda0 != lambda1 the chain weighs bridges and other edges apart;
    its (e, kappa) law matches the exact sampler's."""
    sp = builtin_family("series-parallel")
    w = Weighting.extended(2, Fraction(1, 2), Fraction(3, 2))
    xs = exact_sample(sp, w, 5, seed=16, draws=10**5)
    ms = mcmc_sample(sp, w, 5, draws=20000, burn_in=20000, thin=5, seed=6)
    assert tv_distance(e_kappa_histogram(xs), e_kappa_histogram(ms)) <= 0.02


def test_mcmc_thin_0_past_member_arrays():
    with pytest.raises(ValueError, match="thin must be >= 1"):
        mcmc_sample(builtin_family("series-parallel"), W11, 8, 3, burn_in=5, thin=0)


@pytest.mark.parametrize("n", [0, 1, 2, 9])
@pytest.mark.parametrize("draws, burn_in, thin, name", [
    (3, 5, 0, "thin"),
    (3, -5, 1, "burn_in"),
    (3, -5, 0, "burn_in"),
    (-1, 5, 1, "draws"),
])
def test_mcmc_sample_checks_arguments_first(n, draws, burn_in, thin, name, monkeypatch):
    """Bad chain arguments raise a ValueError naming the argument at every
    order, before the n <= 1 shortcut and before any stream is drawn."""
    def no_stream(*args, **kwargs):
        raise AssertionError("a stream was drawn before the argument check")

    monkeypatch.setattr(sampling, "rng_stream", no_stream)
    with pytest.raises(ValueError, match=f"^{name} must be >= "):
        mcmc_sample(builtin_family("planar"), W11, n, draws, burn_in=burn_in, thin=thin)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
@pytest.mark.parametrize("sampler", ["tree", "exact", "boltzmann"])
def test_samplers_check_draws_first(sampler, n):
    """A negative draw count raises a ValueError naming draws at every order,
    before the order checks and the n <= 1 shortcuts."""
    census = build_census(FORESTS, n)
    cfg = sampling.BoltzmannConfig(0.3, W11, census, [0.1] * len(census.entries))
    draw = {"tree": lambda: random_tree_sample(n, 0, -1),
            "exact": lambda: exact_sample(FORESTS, W11, n, 0, -1),
            "boltzmann": lambda: boltzmann_poisson_sample(cfg, 0, -1)}[sampler]
    with pytest.raises(ValueError, match="^draws must be >= 0, got -1$"):
        draw()


def test_exact_stationarity():
    for fam, w in [(FORESTS, W11), (ALL, Weighting(2, 3)),
                   (builtin_family("series-parallel"), Weighting(Fraction(1, 2), 3)),
                   (ALL, Weighting.extended(2, Fraction(1, 2), 3))]:
        assert stationary_residual(fam, w, 3) == 0


def test_transition_matrix_rows_sum_to_one():
    masks, P = transition_matrix(FORESTS, W11, 3)
    for row in P:
        assert sum(row) == 1


def test_random_trees_small():
    assert all(g.edges == ((1, 2),) for g in random_tree_sample(2, seed=0, draws=5))
    freq = Counter(tuple(g.edges) for g in random_tree_sample(3, seed=1, draws=30000))
    assert len(freq) == 3
    for count in freq.values():
        assert abs(count / 30000 - 1 / 3) <= 0.01


def test_random_trees_are_uniform_on_n4():
    freq = Counter(g.mask for g in random_tree_sample(4, seed=2, draws=64000))
    assert len(freq) == 16  # Cayley: 4^2 labelled trees
    for count in freq.values():
        assert abs(count / 64000 - 1 / 16) <= 0.005


def test_tree_leaf_density():
    n, draws = 300, 1000
    k1 = RootedGraph(Graph(1, 0), 1)
    trees = random_tree_sample(n, seed=3, draws=draws)
    mean = sum(sum(1 for d in g.degrees() if d == 1) for g in trees) / (n * draws)
    assert abs(mean - 1 / math.e) <= 0.01
    assert abs(mean - (1 - 1 / n) ** (n - 1)) <= 0.01


def test_collect_stats_fields():
    samples = exact_sample(FORESTS, W11, 6, seed=8, draws=20000)
    census = build_census(FORESTS, 6)
    k1 = RootedGraph(Graph(1, 0), 1)
    stats = collect_stats(samples, rooted=[k1], census=census)
    assert sum(stats.kappa_hist.values()) == stats.draws
    assert sum(stats.frag_hist.values()) == stats.draws
    t6 = brute_force_tau(FORESTS, W11, 6)
    exact_conn = t6.c / t6.a
    sigma = math.sqrt(exact_conn * (1 - exact_conn) / stats.draws)
    assert abs(stats.conn_freq - exact_conn) <= 4 * sigma
    # forests have empty cores
    assert stats.core_frac_mean == 0.0
    k1_hex = next(iter(stats.pendant_density))
    assert stats.pendant_density[k1_hex] > 0


def test_collect_stats_connected_only():
    trees = builtin_family("trees")
    samples = exact_sample(trees, W11, 5, seed=9, draws=500)
    stats = collect_stats(samples)
    assert stats.conn_freq == 1.0
    assert stats.frag_hist == {0: 500}


def test_kappa_stochastic_dominance_exact():
    """kappa is stochastically at most 1 + Po(nu/lam) for bridge-addable families,
    checked on the exact n-slice distribution (no sampling noise)."""
    from minorclass._kernels import subset_stats

    for fam, w in [(FORESTS, W11), (builtin_family("series-parallel"), W11),
                   (FORESTS, Weighting(2, 3))]:
        kappa = subset_stats(6).kappa
        num = {}
        den = Fraction(0)
        for mask in member_masks(fam, 6).tolist():
            g = Graph(6, mask)
            wt = Fraction(weight(g, w))
            num[int(kappa[mask])] = num.get(int(kappa[mask]), Fraction(0)) + wt
            den += wt
        mu = float(w.nu) / float(w.lam)
        for k in range(0, 7):
            emp = float(sum(v for kk, v in num.items() if kk >= 1 + k) / den)
            po_tail = 1 - sum(math.exp(-mu) * mu ** j / math.factorial(j) for j in range(k))
            assert emp <= po_tail + 1e-12


def test_frag_law_drift_shrinks():
    """The exact fragment-size law approaches the limiting law monotonically."""
    from minorclass.asymptotics import frag_size_distribution

    census = build_census(FORESTS, 6)
    limit = frag_size_distribution(census, 1 / math.e, W11, math.exp(0.5))
    drifts = []
    for n in (4, 5, 6, 7):
        dist = exact_frag_distribution(FORESTS, W11, n)
        sup = max(abs(float(dist.get(k, 0)) - limit[k]) for k in range(0, 4))
        drifts.append(sup)
    assert all(drifts[i + 1] <= drifts[i] for i in range(len(drifts) - 1))


def test_poisson_chi_square_calibration():
    """The GOF helper accepts data matching its Poisson and rejects shifted data."""
    import numpy as np

    rng = rng_stream(99)
    draws = 50000
    mu = 0.7
    sample = rng.poisson(mu, draws)
    hist = {int(v): int(c) for v, c in zip(*np.unique(sample, return_counts=True))}
    _, _, p_good = poisson_chi_square(hist, draws, mu)
    assert p_good > 1e-3
    _, _, p_bad = poisson_chi_square(hist, draws, mu * 1.3)
    assert p_bad < 1e-6
    # degenerate histogram: too few informative bins means no verdict
    assert poisson_chi_square({0: 10}, 10, 1e-9)[2] == 1.0


def test_rng_streams_are_independent_and_reproducible():
    a1 = rng_stream(42, 0).random(5)
    a2 = rng_stream(42, 0).random(5)
    b = rng_stream(42, 1).random(5)
    assert (a1 == a2).all()
    assert not (a1 == b).all()
