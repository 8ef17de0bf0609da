"""The kernels against independent slow paths.

The subset-lattice pass is checked mask by mask against per-graph oracles
(components, adjacency and bridges of each `Graph`) and at n = 8
against closed forms, and the forest slice row by row against the lattice's
rows with e + kappa = n.  The tree series is checked against a math.fsum of its
closed-form terms, and bit for bit against `_tree_series_every_chunk`, the
sum it was before it stopped at underflow.  The Pruefer decoder is checked
edge for edge against `_prufer_argmax`, the whole-matrix decoder it replaced,
against networkx's decoder and, exhaustively at n <= 6, as a bijection onto
the labelled trees.  The MCMC chain is checked draw for draw against
`_mcmc_python`, a reference chain that tests membership and recomputes both
weights on every proposal, and its two membership tests, array lookup and
base_member, against each other.
"""

import functools
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from minorclass import _kernels as K
from minorclass.enumeration import brute_force_tau, forest_table, lattice_mode, member_mask_array
from minorclass.families import builtin_family, excluded_minor_family
from minorclass.graphs import (
    Graph,
    Weighting,
    bridge_mask,
    component_masks,
    path_graph,
    weight,
)


def _graph_stats(g: Graph) -> tuple[int, int, int, int]:
    """(edges, components, min-degree>=2, bridges) of one graph."""
    mindeg2 = all(a.bit_count() >= 2 for a in g.adjacency())
    return (g.edge_count, len(component_masks(g)), int(mindeg2), bridge_mask(g).bit_count())


@functools.lru_cache(maxsize=None)
def _oracle(n: int) -> list[tuple[int, int, int, int]]:
    return [_graph_stats(Graph(n, s)) for s in range(1 << (n * (n - 1) // 2))]


def _expected_counts(n, ok, bridges):
    """SweepCounts fields summed directly over the per-graph statistics of the
    masks ok[s]; without the bridge split every mask counts at e0 = 0."""
    m = n * (n - 1) // 2
    splits = m + 1 if bridges else 1
    a = np.zeros((m + 1, splits, n + 2), dtype=np.int64)
    c = np.zeros((m + 1, splits), dtype=np.int64)
    b = np.zeros((m + 1, splits), dtype=np.int64)
    for s, (e, kappa, mindeg2, e0) in enumerate(_oracle(n)):
        if not ok(s, e, kappa):
            continue
        e0 = e0 if bridges else 0
        a[e, e0, kappa] += 1
        if kappa == 1:
            c[e, e0] += 1
            if mindeg2:
                b[e, e0] += 1
    return dict(a=a, c=c, b=b)


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
        e, kappa, mindeg2, _ = _graph_stats(Graph(7, s))
        assert (stats.edges[s], stats.kappa[s], stats.mindeg2[s]) == (e, kappa, mindeg2)
    assert not stats.kappa.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("mode", [K.MODE_ALL, K.MODE_FORESTS])
def test_sweep_paths_agree(n, mode):
    """Every SweepCounts field equals the direct sum over per-graph
    statistics, with the bridge split and without it."""
    ok = (lambda s, e, kappa: True) if mode == K.MODE_ALL else (lambda s, e, kappa: e == n - kappa)
    for bridges in (True, False):
        _assert_sweep_matches(K.sweep_counts(n, None, mode, want_bridges=bridges),
                              _expected_counts(n, ok, bridges))


def test_sweep_with_member_array():
    rng = np.random.default_rng(0)
    for n in range(7):
        member = (rng.random(1 << (n * (n - 1) // 2)) < 0.5).astype(np.uint8)
        for bridges in (True, False):
            got = K.sweep_counts(n, member, K.MODE_MEMBER_ARRAY, want_bridges=bridges)
            _assert_sweep_matches(got, _expected_counts(n, lambda s, e, kappa: member[s],
                                                        bridges))


def test_forests_at_n8_match_forest_table():
    for w in (Weighting(Fraction(1, 2), 3), Weighting.extended(Fraction(1, 2), 2, 3)):
        got = brute_force_tau(builtin_family("forests"), w, 8)
        table = forest_table(w, 8)
        assert (got.a, got.c, got.b) == (table.a[8], table.c[8], table.b[8]), w


# labelled forests on n = 0..8 vertices, OEIS A001858
FOREST_COUNTS = [1, 1, 2, 7, 38, 291, 2932, 36961, 561948]


def test_forest_slice_sizes_and_trees():
    for n, count in enumerate(FOREST_COUNTS):
        rows = K.forest_slice(n)
        assert rows.masks.size == count, n
        assert np.count_nonzero(rows.kappa == 1) == (n ** max(n - 2, 0) if n else 0), n
        assert not rows.masks.flags.writeable


def test_cached_slice_gains_vertex_sets_without_a_rebuild(monkeypatch):
    """A slice cached without its vertex-set arrays keeps its kappa, edges
    and mindeg2 arrays when they are asked for, and gains the vertex-set
    arrays that a cold extendable build has."""
    monkeypatch.setattr(K, "_RECORDS", {})
    stats = K.subset_stats(6)
    rec = K._record(6, extendable=True)
    for name in ("kappa", "edges", "mindeg2"):
        assert getattr(rec, name) is getattr(stats, name), name
    del K._RECORDS[6]
    cold = K._record(6, extendable=True)
    for name in ("kappa", "edges", "mindeg2", "deg0", "deg1", "roots"):
        assert np.array_equal(getattr(rec, name), getattr(cold, name)), name


@pytest.mark.parametrize("block", [K.BLOCK, 64], ids=["one-block", "blocks-of-64"])
def test_forest_slice_rows_are_the_lattice_rows_of_the_forests(block, monkeypatch):
    """At every n <= 7 the forest slice holds, ascending, exactly the masks
    with e + kappa = n, with the lattice's edges, kappa, mindeg2, roots and
    bridges there, whether it is extended in one block or in many; the
    forests' member array is those masks scattered."""
    monkeypatch.setattr(K, "BLOCK", block)
    monkeypatch.setattr(K, "_FORESTS", {})
    forests = builtin_family("forests")
    for n in range(8):
        lattice = K._record(n, extendable=True)
        at = np.flatnonzero(lattice.edges + lattice.kappa == n)
        rows = K.forest_slice(n, extendable=True)
        assert np.array_equal(rows.masks, at), n
        for name in ("edges", "kappa", "mindeg2", "deg0", "deg1"):
            assert np.array_equal(getattr(rows, name), getattr(lattice, name)[at]), (n, name)
        assert np.array_equal(rows.roots, lattice.roots[:, at]), n
        bridges = np.concatenate([blk.bridges for _, blk in K._blocks(n, True)])
        assert np.array_equal(rows.bridges, bridges[at]), n
        assert np.array_equal(np.flatnonzero(member_mask_array(forests, n)), at), n


# The first 16 hex digits of the sha256 of each forest_slice(n) array's bytes
# for n = 0..8, as extending the (n-1)-forests by every neighbour set and then
# keeping the rows with e + kappa = n built them.  deg0, deg1 and roots stop at
# n = 7, the last slice that is extended.
_FOREST_SLICE_SHA256 = {
    "kappa": ["6e340b9cffb37a98", "4bf5122f344554c5", "25dfd29c09617dcc", "283becf96213b836",
              "7c42ee8b99f13c41", "619d209b6d958c22", "cd0c18cd526f053a", "2ec1eec6e7fd344b",
              "8363e471e0396614"],
    "edges": ["6e340b9cffb37a98", "6e340b9cffb37a98", "b413f47d13ee2fe6", "8520db704eae2db8",
              "17f87f104d94e1c4", "f2c08c8933666270", "514fc37ffcd4acc3", "26c105496b09b29f",
              "40c20262a612fde7"],
    "mindeg2": ["4bf5122f344554c5", "6e340b9cffb37a98", "96a296d224f285c6", "837885c8f8091aea",
                "762b023699a0e48a", "0bea1c7299faac8e", "2e9780ed07493daf", "6070ced80332e143",
                "f54ee0ce27d43201"],
    "masks": ["af5570f5a1810b7a", "af5570f5a1810b7a", "9d34149fbd1fe777", "81845a01dafa45c9",
              "498c80aa51fb3aab", "cc2618ea092fad0a", "2448bec73f7ce17a", "3bee5c9d280b7ddf",
              "7d02af722a4d7e88"],
    "deg0": ["6e340b9cffb37a98", "4bf5122f344554c5", "9b4fb24edd6d1d88", "4131a9e9e27d90eb",
             "a26ca7d57ec0438a", "94c327427c1bfda9", "ebb353afde318e4b", "b16015dcced616a2"],
    "deg1": ["6e340b9cffb37a98", "6e340b9cffb37a98", "583c7dfb7b3055d9", "07ae7491bd41185b",
             "6b171703ae391489", "dde3b4dca9838adf", "0253f1d23e124491", "d7974dff5e41e8b1"],
    "roots": ["e3b0c44298fc1c14", "4bf5122f344554c5", "3608e2246c93a653", "3e2155e7df144e22",
              "7b6623f3f0be424f", "1d6f85443e1a4898", "c739f51bb1a9f411", "8f4a4271d56dc4b2"],
}


def test_forest_slices_keep_their_digests(monkeypatch):
    """Every array of every forest slice up to the cap, built to be extended
    and not; no lattice reaches n = 8 to compare with.  A slice that is not
    extended has no vertex-set arrays past n = 0, and its bridges are its edges."""
    def digests(rec):
        return {name: hashlib.sha256(getattr(rec, name).tobytes()).hexdigest()[:16]
                for name in _FOREST_SLICE_SHA256 if getattr(rec, name) is not None}

    monkeypatch.setattr(K, "_FORESTS", {})
    for n in range(K.LATTICE_CAP + 1):
        want = {name: pins[n] for name, pins in _FOREST_SLICE_SHA256.items() if n < len(pins)}
        plain = K.forest_slice(n)
        assert plain.bridges is plain.edges, n
        assert digests(plain) == (want if n == 0 else {name: want[name] for name in
                                                       ("kappa", "edges", "mindeg2", "masks")}), n
        if n < K.LATTICE_CAP:
            assert digests(K.forest_slice(n, extendable=True)) == want, n


@pytest.mark.parametrize("bridges", [False, True], ids=["diagonal", "bridge-split"])
def test_forest_sweep_equals_the_lattice_sweep(bridges):
    """The forest slice's counts equal the whole lattice swept with the
    forests' selector e + kappa = n as a member array."""
    for n in range(8):
        stats = K.subset_stats(n)
        member = (stats.edges + stats.kappa == n).view(np.uint8)
        want = K.sweep_counts(n, member, K.MODE_MEMBER_ARRAY, want_bridges=bridges)
        got = K.sweep_counts(n, None, K.MODE_FORESTS, want_bridges=bridges)
        for name in "acb":
            assert np.array_equal(getattr(got, name), getattr(want, name)), (n, name)


def test_all_graphs_at_n8():
    got = K.sweep_counts(8, None, K.MODE_ALL)
    assert got.a.shape == (29, 1, 10)
    assert got.a.sum() == 1 << 28
    assert got.c.sum() == 251_548_592  # connected labelled graphs on 8 vertices, OEIS A001187


def _mcmc_python(fam, w, n, proposals, uniforms, burn_in, thin, draws) -> list[Graph]:
    """The chain with a membership test per proposal (base_member) and exact
    weights; mcmc_sample draws its proposals and uniforms the same way for
    every mode."""
    g = Graph(n, 0)
    out = []
    for t in range(len(proposals)):
        b = int(proposals[t])
        new = Graph(n, g.mask ^ (1 << b))
        if fam.base_member(new):
            wt_ratio = float(weight(new, w)) / float(weight(g, w))
            if wt_ratio >= 1.0 or uniforms[t] < wt_ratio:
                g = new
        step = t + 1
        if step > burn_in and (step - burn_in) % thin == 0 and len(out) < draws:
            out.append(g)
    if len(out) != draws:
        raise ValueError("proposal stream too short")
    return out


NO_P4 = excluded_minor_family("no-p4", (path_graph(4),))
HALF = Fraction(1, 2)


def _base_member_test(fam, n):
    """The membership test mcmc_sample passes past the membership arrays."""
    return lambda s: fam.base_member(Graph(n, s))


@pytest.mark.parametrize("family, n, weights, burn_in, thin, predicate", [
    pytest.param("forests", 5, (2, 2, HALF), 1000, 4, False, id="forests-5"),
    pytest.param("all", 5, (2, 2, HALF), 1000, 4, False, id="all-5"),
    pytest.param("series-parallel", 5, (2, 2, HALF), 1000, 4, False, id="series-parallel-5"),
    pytest.param("forests", 12, (2, 2, HALF), 1000, 4, False, id="forests-12"),
    pytest.param("forests", 30, (1, 1, 1), 1000, 4, False, id="forests-30-unweighted"),
    # the benchmark's settings: forest mode, and member-array mode without labels
    pytest.param("forests", 10, (1, 1, 1), 1000, 4, False, id="forests-10-unweighted"),
    pytest.param("forests", 16, (1, 1, 1), 1000, 4, False, id="forests-16-unweighted"),
    pytest.param("series-parallel", 6, (1, 1, 1), 1000, 4, False,
                 id="series-parallel-6-unweighted"),
    pytest.param("all", 8, (HALF, HALF, 4), 1000, 4, False, id="all-8-frequent-splits"),
    pytest.param("series-parallel", 5, (2, 2, 1), 1000, 4, False, id="series-parallel-5-nu-1"),
    pytest.param("forests", 9, (2, 2, HALF), 0, 1, False, id="forests-9-every-step"),
    pytest.param("planar", 8, (1, 1, 1), 1000, 2, True, id="predicate-planar-8"),
    pytest.param("series-parallel", 8, (2, 2, HALF), 1000, 2, True,
                 id="predicate-series-parallel-8"),
    pytest.param("ex-k-disjoint-cycles:1", 8, (2, 2, 1), 1000, 2, True,
                 id="predicate-ex-k-disjoint-cycles-8"),
    pytest.param(NO_P4, 6, (2, 2, HALF), 1000, 4, True, id="predicate-no-p4-6"),
    pytest.param("forests", 9, (HALF, 2, 2), 1000, 4, False, id="forests-9-lam0-lam1"),
    pytest.param("all", 6, (2, HALF, 1), 1000, 4, False, id="all-6-lam0-lam1"),
    pytest.param("all", 7, (HALF, 2, 2), 1000, 4, False, id="all-7-lam0-lam1-nu"),
    pytest.param("series-parallel", 6, (4, HALF, 2), 1000, 4, False,
                 id="series-parallel-6-lam0-lam1"),
    pytest.param("planar", 6, (HALF, 2, 2), 1000, 4, False, id="planar-6-lam0-lam1"),
    # lam1 < lam0 with drop_inside = 1/2: a removal that creates bridges has ratio >= 1
    pytest.param("all", 7, (4, 2, 1), 1000, 4, False, id="all-7-lam1-below-lam0-above-1"),
    pytest.param("ex-k-disjoint-cycles:1", 8, (HALF, 2, 2), 1000, 2, True,
                 id="predicate-ex-k-disjoint-cycles-8-lam0-lam1"),
    pytest.param(NO_P4, 6, (HALF, 2, 1), 1000, 4, True, id="predicate-no-p4-6-lam0-lam1"),
    # the simple loop, where a uniform that fails lam^(+-1) lets only the other kind through
    pytest.param("all", 6, (HALF, HALF, 1), 1000, 4, False, id="all-6-simple-lam-half"),
    pytest.param("all", 6, (2, 2, 1), 1000, 4, False, id="all-6-simple-lam-2"),
    pytest.param("series-parallel", 6, (HALF, HALF, 1), 1000, 4, False,
                 id="series-parallel-6-simple-lam-half"),
    # the forest loop with both ratios 1: it reads no uniform
    pytest.param("forests", 9, (2, 2, 2), 1000, 4, False, id="forests-9-lam0-equals-nu"),
])
def test_mcmc_chain_matches_python_chain(family, n, weights, burn_in, thin, predicate):
    """Draw for draw on one stream, the incremental chain equals the generic
    chain that recomputes membership and weights per step.  Every weight
    ratio is an exact power of two, so both paths compute it exactly.

    The predicate cases test membership by base_member, as mcmc_sample does
    past the membership arrays.  The family without a P4 minor is not
    bridge-addable, so its chain must test merges too."""
    fam = builtin_family(family) if isinstance(family, str) else family
    w = Weighting.extended(*weights)
    m = n * (n - 1) // 2
    rng = np.random.default_rng(12)
    draws = 1000
    proposals = rng.integers(0, m, size=burn_in + thin * draws, dtype=np.int64)
    uniforms = rng.random(len(proposals))
    mode, member = lattice_mode(fam), None
    if predicate:
        member = _base_member_test(fam, n)
    elif mode == K.MODE_MEMBER_ARRAY:
        member = member_mask_array(fam, n).tobytes().__getitem__
    got = K.mcmc_chain(n, proposals, uniforms, *map(float, weights), mode, member,
                       burn_in, thin, draws)
    want = _mcmc_python(fam, w, n, proposals, uniforms, burn_in, thin, draws)
    assert got == [g.mask for g in want]
    assert len(set(got)) > 50


def test_split_chain_screens_most_bridge_recounts(monkeypatch):
    """With lam1 > lam0 the chain stays bridgeless most of the time, so an
    addition inside a component needs no recount, and a removal inside one
    is recounted only when its uniform is below drop_inside = 1/2."""
    calls = []
    monkeypatch.setattr(K, "bridge_mask", lambda g: calls.append(g) or bridge_mask(g))
    n, steps = 10, 20_000
    rng = np.random.default_rng(0)
    proposals = rng.integers(0, n * (n - 1) // 2, size=steps, dtype=np.int64)
    K.mcmc_chain(n, proposals, rng.random(steps), 0.5, 2.0, 2.0, K.MODE_ALL, None,
                 steps - 1000, 1, 1000)
    assert len(calls) < steps // 2


@pytest.mark.parametrize("mode, nu", [(K.MODE_FORESTS, 1.0), (K.MODE_ALL, 0.5)],
                         ids=["forests", "all-nu-half"])
def test_mcmc_chain_memory_grows_with_pair_count(mode, nu):
    """At n = 300 (44,850 pairs) a short chain allocates a few hundred bytes
    per pair at most; a per-pair table of edge bits would take kilobytes."""
    n, steps = 300, 2000
    m = n * (n - 1) // 2
    rng = np.random.default_rng(3)
    proposals = rng.integers(0, m, size=steps, dtype=np.int64)
    uniforms = rng.random(steps)
    tracemalloc.start()
    try:
        K.mcmc_chain(n, proposals, uniforms, 1.0, 1.0, nu, mode, None, 1000, 10, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * m


def test_mcmc_chain_memory_does_not_grow_with_steps(monkeypatch):
    """The chain turns its streams into Python scalars one block at a time, so
    its peak, apart from the input arrays (allocated before tracing starts),
    is the same for 4 blocks of steps as for 32."""
    monkeypatch.setattr(K, "CHAIN_BLOCK", 1024)
    n, draws = 16, 8
    m = n * (n - 1) // 2
    rng = np.random.default_rng(4)
    peaks = []
    for steps in (4 * K.CHAIN_BLOCK, 32 * K.CHAIN_BLOCK):
        proposals = rng.integers(0, m, size=steps, dtype=np.int64)
        uniforms = rng.random(steps)
        tracemalloc.start()
        try:
            K.mcmc_chain(n, proposals, uniforms, 1.0, 1.0, 1.0, K.MODE_FORESTS, None, 0,
                         steps // draws, draws)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


@pytest.mark.parametrize("mode, weights", [
    (K.MODE_ALL, (1.0, 1.0, 1.0)),
    (K.MODE_FORESTS, (0.5, 0.5, 1.0)),
    (K.MODE_ALL, (1.0, 1.0, 2.0)),
], ids=["simple", "forest", "component"])
def test_mcmc_chain_without_draws_returns_no_masks(mode, weights):
    proposals = np.zeros(10, dtype=np.int64)
    assert K.mcmc_chain(4, proposals, np.zeros(10), *weights, mode, None, 10, 3, 0) == []


def test_forest_chain_rejects_uniforms_above_both_rounded_ratios():
    """At lam0 = nu = 49 both forest ratios round to 1 - 2^-53, not 1, so a
    uniform of 1 - 2^-53 rejects every toggle, and one below it none that
    keeps a forest."""
    n, steps = 8, 2000
    rng = np.random.default_rng(5)
    proposals = rng.integers(0, n * (n - 1) // 2, size=steps, dtype=np.int64)
    top = np.full(steps, np.nextafter(1.0, 0.0))
    assert 49.0 * 49.0 ** -1 < 1.0
    got = K.mcmc_chain(n, proposals, top, 49.0, 49.0, 49.0, K.MODE_FORESTS, None, 0, 1, steps)
    assert got == [0] * steps
    got = K.mcmc_chain(n, proposals, top - 1e-15, 49.0, 49.0, 49.0, K.MODE_FORESTS, None, 0, 1,
                       steps)
    assert got == K.mcmc_chain(n, proposals, top, 1.0, 1.0, 1.0, K.MODE_FORESTS, None, 0, 1, steps)


def test_mcmc_chain_rejects_short_streams():
    proposals = np.zeros(10, dtype=np.int64)
    uniforms = np.zeros(10)
    with pytest.raises(ValueError, match="too short"):
        K.mcmc_chain(3, proposals, uniforms, 1.0, 1.0, 1.0, K.MODE_ALL, None, 5, 2, 3)
    with pytest.raises(ValueError, match="too short"):
        K.mcmc_chain(3, proposals, uniforms, 1.0, 1.0, 1.0, K.MODE_ALL, None, 5, 0, 3)


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


def _tree_series_every_chunk(N, lam, x, nu, rooted):
    """tree_series_sum as it was before it stopped at underflow: every
    65,536-term chunk is summed."""
    log_lam, log_x, log_nu = math.log(lam), math.log(x), math.log(nu)
    total = 0.0
    chunk = 65536
    for start in range(1, N + 1, chunk):
        n = np.arange(start, min(start + chunk, N + 1), dtype=np.float64)
        log_n = np.log(n)
        lt = log_nu + (n - 1.0) * log_lam + n * log_x + (n - 2.0) * log_n - K._log_factorial(n)
        if rooted:
            lt = lt + log_n
        total += float(np.sum(np.exp(lt)))
    return total


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("at_radius", [True, False])
def test_tree_series_stop_is_exact(monkeypatch, lam, at_radius):
    """Stopping after the first chunk whose last term underflowed gives the
    same bits as summing every chunk.  At the radius no term underflows, so
    every chunk runs: from N = 65,536 on, the first 65,536 terms in five
    chunks, then one per 65,536 more; at x = 1/(22 lam) the first chunk is
    the last."""
    x = 1 / (math.e * lam) if at_radius else 1 / (22 * lam)
    chunks = []
    log_factorial = K._log_factorial

    def counted(n):  # called once per chunk
        chunks.append(n.size)
        return log_factorial(n)

    monkeypatch.setattr(K, "_log_factorial", counted)
    for nu, rooted, N in itertools.product((0.5, 2.0), (False, True),
                                           (1, 2, 65535, 65536, 65537, 200_000)):
        chunks.clear()
        got = K.tree_series_sum(N, lam, x, nu, rooted)
        every = 1 if N < 65536 else 5 + -(-(N - 65536) // 65536)
        assert len(chunks) == (every if at_radius else 1)
        assert got == _tree_series_every_chunk(N, lam, x, nu, rooted)


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


def _prufer_argmax(seqs: np.ndarray) -> np.ndarray:
    """The decoder as first written, kept as the reference: (deg == 1) is
    rebuilt over the whole (draws, n) matrix at every step."""
    seqs = np.asarray(seqs, dtype=np.int64)
    draws, L = seqs.shape
    rows = np.arange(draws)
    deg = np.ones((draws, L + 2), dtype=np.int32)
    np.add.at(deg, (rows[:, None], seqs), 1)
    edges = np.empty((draws, L + 1, 2), dtype=np.int64)
    for i in range(L):
        leaf = (deg == 1).argmax(axis=1)
        v = seqs[:, i]
        edges[:, i, 0] = leaf
        edges[:, i, 1] = v
        deg[rows, leaf] = 0
        deg[rows, v] -= 1
    edges[:, L] = np.nonzero(deg == 1)[1].reshape(draws, 2)
    return edges


@pytest.mark.parametrize("draws", [0, 1, 50])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 64, 65, 300])
def test_prufer_decode_matches_reference(n, draws):
    """The same edges in the same order, shape and dtype."""
    rng = np.random.default_rng(1000 * n + draws)
    seqs = rng.integers(0, n, size=(draws, n - 2), dtype=np.int64)
    got, want = K.prufer_decode(seqs), _prufer_argmax(seqs)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_prufer_decode_memory():
    """At (1000, 298) the decode peaks at about 6 MiB, the 4.6 MiB edge array
    included; keeping the flat indices of every step would double that."""
    seqs = np.random.default_rng(5).integers(0, 300, size=(1000, 298), dtype=np.int64)
    tracemalloc.start()
    try:
        K.prufer_decode(seqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
