"""The kernels against independent slow paths.

The subset-lattice pass is checked mask by mask against per-graph oracles
(components, adjacency, bridges and 2-core of each `Graph`) and at n = 8
against closed forms.  The tree series is checked against a math.fsum of its
closed-form terms, and the Pruefer decoder against networkx's decoder and,
exhaustively at n <= 6, as a bijection onto the labelled trees.
"""

import functools
import itertools
import math
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from minorclass import _kernels as K
from minorclass.enumeration import brute_force_tau, forest_table, member_mask_array
from minorclass.families import builtin_family
from minorclass.graphs import Graph, Weighting, bridge_mask, component_masks, two_core
from minorclass.sampling import _mcmc_python


def _graph_stats(g: Graph) -> tuple[int, int, int, int, int]:
    """(edges, components, min-degree>=2, bridges, 2-core vertices) of one graph."""
    mindeg2 = all(a.bit_count() >= 2 for a in g.adjacency())
    return (g.edge_count, len(component_masks(g)), int(mindeg2),
            bridge_mask(g).bit_count(), two_core(g).graph.n)


@functools.lru_cache(maxsize=None)
def _oracle(n: int) -> list[tuple[int, int, int, int, int]]:
    return [_graph_stats(Graph(n, s)) for s in range(1 << (n * (n - 1) // 2))]


def _expected_counts(n, ok):
    """SweepCounts fields summed directly over the per-graph statistics of the masks ok[s]."""
    m = n * (n - 1) // 2
    ek = np.zeros((m + 1, n + 2), dtype=np.int64)
    ce = np.zeros(m + 1, dtype=np.int64)
    be = np.zeros(m + 1, dtype=np.int64)
    core = np.zeros((m + 1, n + 1), dtype=np.int64)
    ext_a = np.zeros((m + 1, m + 1, n + 2), dtype=np.int64)
    ext_c = np.zeros((m + 1, m + 1), dtype=np.int64)
    ext_b = np.zeros((m + 1, m + 1), dtype=np.int64)
    for s, (e, kappa, mindeg2, e0, c) in enumerate(_oracle(n)):
        if not ok(s, e, kappa):
            continue
        ek[e, kappa] += 1
        ext_a[e, e0, kappa] += 1
        if kappa == 1:
            ce[e] += 1
            core[e, c] += 1
            ext_c[e, e0] += 1
            if mindeg2:
                be[e] += 1
                ext_b[e, e0] += 1
    return dict(ek=ek, ce=ce, be=be, core=core, ext_a=ext_a, ext_c=ext_c, ext_b=ext_b)


def _assert_sweep_matches(got, want):
    for name, arr in want.items():
        assert np.array_equal(getattr(got, name), arr), name


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
def test_subset_stats_paths_agree(n):
    """The lattice pass and the per-graph path agree on every mask."""
    stats = K.subset_stats(n)
    want = np.array([row[:3] for row in _oracle(n)], dtype=np.int64).reshape(-1, 3)
    assert np.array_equal(stats.edges, want[:, 0])
    assert np.array_equal(stats.kappa, want[:, 1])
    assert np.array_equal(stats.mindeg2, want[:, 2])


def test_subset_stats_on_random_masks_at_n7():
    stats = K.subset_stats(7)
    rng = np.random.default_rng(7)
    for s in rng.integers(0, 1 << 21, size=2000).tolist():
        e, kappa, mindeg2, _, _ = _graph_stats(Graph(7, s))
        assert (stats.edges[s], stats.kappa[s], stats.mindeg2[s]) == (e, kappa, mindeg2)
    assert not stats.kappa.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", [K.MODE_ALL, K.MODE_FORESTS])
def test_sweep_paths_agree(n, mode):
    """Every SweepCounts field equals the direct sum over per-graph statistics."""
    got = K.sweep_counts(n, None, mode, want_core=True, want_bridges=True)
    if mode == K.MODE_ALL:
        want = _expected_counts(n, lambda s, e, kappa: True)
    else:
        want = _expected_counts(n, lambda s, e, kappa: e == n - kappa)
    _assert_sweep_matches(got, want)
    plain = K.sweep_counts(n, None, mode)
    assert plain.core is None and plain.ext_a is None
    _assert_sweep_matches(plain, {k: want[k] for k in ("ek", "ce", "be")})


def test_sweep_with_member_array():
    rng = np.random.default_rng(0)
    for n in range(7):
        member = (rng.random(1 << (n * (n - 1) // 2)) < 0.5).astype(np.uint8)
        got = K.sweep_counts(n, member, K.MODE_MEMBER_ARRAY, want_core=True, want_bridges=True)
        _assert_sweep_matches(got, _expected_counts(n, lambda s, e, kappa: member[s]))


def test_forests_at_n8_match_forest_table():
    w = Weighting(Fraction(1, 2), 3)
    got = brute_force_tau(builtin_family("forests"), w, 8, cap=8)
    table = forest_table(w, 8)
    assert (got.a, got.c, got.b) == (table.a[8], table.c[8], table.b[8])


def test_all_graphs_at_n8():
    got = K.sweep_counts(8, None, K.MODE_ALL)
    assert got.ek.sum() == 1 << 28
    assert got.ce.sum() == 251_548_592  # connected labelled graphs on 8 vertices, OEIS A001187


@pytest.mark.parametrize("family, n", [("forests", 5), ("all", 5), ("series-parallel", 5),
                                       ("forests", 12)])
def test_mcmc_chain_matches_python_chain(family, n):
    """Draw for draw on one stream, the incremental chain equals the generic
    chain that recomputes membership and weights per step.  lam = 2 and
    nu = 1/2 make both paths' weight ratios exact powers of two."""
    fam = builtin_family(family)
    w = Weighting(2, Fraction(1, 2))
    m = n * (n - 1) // 2
    rng = np.random.default_rng(12)
    burn_in, thin, draws = 1000, 4, 1000
    proposals = rng.integers(0, m, size=burn_in + thin * draws, dtype=np.int64)
    uniforms = rng.random(len(proposals))
    if family == "all":
        mode, member = K.MODE_ALL, None
    elif family == "forests":
        mode, member = K.MODE_FORESTS, None
    else:
        mode, member = K.MODE_MEMBER_ARRAY, member_mask_array(fam, n)
    got = K.mcmc_chain(n, proposals, uniforms, 2.0, 0.5, mode, member, burn_in, thin, draws)
    want = _mcmc_python(fam, w, n, proposals, uniforms, burn_in, thin, draws)
    assert got == [g.mask for g in want]
    assert len(set(got)) > 50


def test_mcmc_chain_rejects_short_streams():
    proposals = np.zeros(10, dtype=np.int64)
    uniforms = np.zeros(10)
    with pytest.raises(ValueError, match="too short"):
        K.mcmc_chain(3, proposals, uniforms, 1.0, 1.0, K.MODE_ALL, None, 5, 2, 3)
    with pytest.raises(ValueError, match="too short"):
        K.mcmc_chain(3, proposals, uniforms, 1.0, 1.0, K.MODE_ALL, None, 5, 0, 3)


def _tree_series_fsum(N, lam, x, nu, rooted):
    """The series' closed-form terms nu * n^(n-2 or n-1) * lam^(n-1) * x^n / n!, fsummed."""
    p = 1 if rooted else 2
    return math.fsum(math.exp(math.log(nu) + (n - 1) * math.log(lam) + n * math.log(x)
                              + (n - p) * math.log(n) - math.lgamma(n + 1))
                     for n in range(1, N + 1))


def test_tree_series_paths_agree():
    """150,000 terms cross the numpy path's chunk boundaries."""
    for lam, x, nu, rooted in ((1.0, 1 / math.e, 1.0, False), (2.0, 1 / (2 * math.e), 3.0, True)):
        got = K.tree_series_sum(150_000, lam, x, nu, rooted)
        assert got == pytest.approx(_tree_series_fsum(150_000, lam, x, nu, rooted), rel=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_prufer_decode_is_bijective(n):
    """Every sequence in [n]^(n-2) decodes to a tree, and distinct sequences to distinct trees."""
    seqs = np.array(list(itertools.product(range(n), repeat=n - 2)), dtype=np.int64)
    edges = K.prufer_decode(seqs)
    seen = set()
    for tree in edges.tolist():
        mask = 0
        for u, v in tree:
            assert u != v
            lo, hi = min(u, v), max(u, v)
            mask |= 1 << (hi * (hi - 1) // 2 + lo)
        assert nx.is_tree(nx.Graph(tree))
        seen.add(mask)
    assert len(seen) == n ** (n - 2)  # all Cayley trees, each exactly once


def test_prufer_paths_agree():
    rng = np.random.default_rng(3)
    for n in (3, 8, 300):
        seqs = rng.integers(0, n, size=(50, n - 2), dtype=np.int64)
        edges = K.prufer_decode(seqs)
        assert edges.shape == (50, n - 1, 2)
        for seq, tree in zip(seqs.tolist(), edges.tolist()):
            want = nx.from_prufer_sequence(seq)
            assert {frozenset(e) for e in tree} == {frozenset(e) for e in want.edges}
