#!/usr/bin/env python3
"""Time the hot kernels.

Runs each kernel in one process and prints a timing table (best of three;
the census, closure-check and dichotomy rows run once).  The JSONL rows time the
CLI's routes, each writing its chunks of text to the null device: the exact
and chain rows format edge masks drawn before the clock starts
(`jsonl.masks_to_jsonl`, from the exact sampler's int64 array and from the
chain's Python ints), and the Boltzmann and tree rows time the draws and the
formatting together.  Every
kernel has a single implementation, in numpy or plain Python; the lattice
rows start from an empty slice cache in every repeat, and the census,
closure-check and dichotomy rows from built membership arrays and an empty
canonical cache.
Without --quick a row also times the streamed sweep of all 2^28 masks at
n = 8, which takes seconds; the row beside it times the weight table of all
graphs to n = 8 from the random-cluster series (`all_table`), which sweeps
nothing.

    python3 benchmarks/bench_kernels.py [--quick]
"""

import argparse
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # runs from a checkout
from minorclass import _kernels as K  # noqa: E402
from minorclass.enumeration import build_census  # noqa: E402
from minorclass.families import (  # noqa: E402
    builtin_family,
    verify_bridge_addable,
    verify_decomposable,
    verify_trimmable,
)
from minorclass.graphs import Weighting  # noqa: E402


def _time(fn, *args, repeat=3):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def _write(chunks):
    """Write a JSONL route's chunks of text as `sample --out` does."""
    with open(os.devnull, "w") as fh:
        for chunk in chunks:
            fh.write(chunk)


def _cold(fn, *args, **kwargs):
    """Time fn with the lattice and forest-slice caches cleared before each
    repeat, so every repeat builds its slices from n = 0."""
    def run():
        K._RECORDS.clear()
        K._FORESTS.clear()
        fn(*args, **kwargs)

    return _time(run)


def bench_subset_stats(n):
    masks = 1 << (n * (n - 1) // 2)
    return f"subset_stats n={n} ({masks} masks)", "numpy", _cold(K.subset_stats, n)


def bench_forest_slice(n):
    """The forests alone, every slice from n = 0 up: each picks the rows that
    stay forests from the root bits of the forests one vertex below, then
    extends just those; past n = 7 in blocks of neighbour sets."""
    count = K.forest_slice(n).masks.size
    t = _cold(K.forest_slice, n)
    return f"forest_slice n={n} ({count} forests)", "numpy", t


def bench_sweep(n, mode, want_bridges, label):
    t = _cold(K.sweep_counts, n, None, mode, want_bridges=want_bridges)
    return f"sweep_counts n={n} {label}", "numpy", t


def bench_all_table(n_max, w, label):
    """The exact a, c and b columns of all graphs up to n_max from the
    random-cluster series, with no lattice."""
    from minorclass.enumeration import all_table

    return f"all_table n<={n_max} {label}", "python", _time(all_table, w, n_max)


def bench_exact_sample(n, draws):
    """The exact sampler with split weights: member cells, one bridge-counting
    pass and the draws, on warm slice statistics after the first repeat."""
    from fractions import Fraction

    from minorclass.families import builtin_family
    from minorclass.graphs import Weighting
    from minorclass.sampling import exact_sample

    w = Weighting.extended(Fraction(1, 2), 2, 3)
    t = _time(exact_sample, builtin_family("all"), w, n, 0, draws)
    return f"exact_sample all n={n} split (1/2, 2, 3), {draws} draws", "numpy", t


def bench_frag_distribution(name, n):
    """Exact fragment law at (1/2, 3/2) from built membership arrays."""
    from fractions import Fraction

    from minorclass.enumeration import exact_frag_distribution
    from minorclass.graphs import Weighting

    fam = _warm_family(name, n)
    t = _time(exact_frag_distribution, fam, Weighting(Fraction(1, 2), Fraction(3, 2)), n)
    return f"exact_frag_distribution {name} n={n}", "numpy", t


def bench_mcmc(steps, n, family="forests", nu=1.0, lam0=1.0, lam1=1.0, array=False):
    """The chain from the edgeless graph; families other than forests and all
    test membership by base_member, which asks their predicate directly, or
    with array=True by a lookup in their membership array (built before the
    clock starts), as mcmc_sample does up to n = 7.  The forests run the
    forest loop; the others the simple loop with nu = 1 and lam0 = lam1,
    else the component loop."""
    from minorclass.enumeration import lattice_mode, member_mask_array
    from minorclass.families import builtin_family
    from minorclass.graphs import Graph

    m = n * (n - 1) // 2
    rng = np.random.default_rng(0)
    proposals = rng.integers(0, m, size=steps, dtype=np.int64)
    uniforms = rng.random(steps)
    draws = steps // 20
    fam = builtin_family(family)
    mode = lattice_mode(fam)
    member = None
    if mode == K.MODE_MEMBER_ARRAY:
        member = (member_mask_array(fam, n).tobytes().__getitem__ if array
                  else lambda s: fam.base_member(Graph(n, s)))

    def run():
        K.mcmc_chain(n, proposals, uniforms, lam0, lam1, nu, mode, member,
                     steps - draws * 10, 10, draws)

    weights = (f"lam={lam0:g}, nu={nu:g}" if lam0 == lam1
               else f"lam0={lam0:g}, lam1={lam1:g}, nu={nu:g}")
    label = f"mcmc_chain {steps} steps (n={n} {family}, {weights}{', array' if array else ''})"
    return label, "python", _time(run)


def bench_tree_series(terms, x, where):
    """The unrooted series with lam = nu = 1; inside the radius it stops
    after the first chunk whose terms have underflowed."""
    t = _time(K.tree_series_sum, terms, 1.0, x, 1.0, False)
    return f"tree_series {terms} terms {where}", "numpy", t


def bench_random_walk_tree(draws, n):
    """The tree kernel on uniforms and row permutations drawn before the
    clock starts."""
    rng = np.random.default_rng(1)
    uniforms = rng.integers(0, n, size=(draws, n - 2), dtype=np.int64)
    perm = rng.permuted(np.broadcast_to(np.arange(n), (draws, n)), axis=1)
    label = f"random_walk_tree {draws} trees on {n} vertices"
    return label, "numpy", _time(K.random_walk_tree, uniforms, perm)


def bench_tree_sample(draws, n):
    """Sample and pack: random_tree_sample's draws, each chunk's pair bits
    ORed into one byte row per tree, and one Graph per tree."""
    from minorclass.sampling import random_tree_sample

    label = f"random_tree_sample {draws} trees on {n} vertices"
    return label, "numpy", _time(random_tree_sample, n, 1, draws)


def bench_tree_jsonl_route(draws, n):
    """The CLI's tree route: each chunk of sampled edges
    (sampling.random_tree_chunks) formatted and written as it is made
    (jsonl.trees_to_jsonl), with no Graph built."""
    from minorclass.jsonl import trees_to_jsonl
    from minorclass.sampling import random_tree_chunks

    def run():
        _write(trees_to_jsonl(n, random_tree_chunks(n, 1, draws)))

    return f"{draws} trees on {n} vertices to JSONL (CLI route)", "numpy", _time(run)


def bench_jsonl_exact(draws, n):
    """The CLI's exact route after the sampler: the int64 masks of exact
    forest draws (drawn before the clock starts) formatted and written
    (jsonl.masks_to_jsonl), with no Graph built."""
    from minorclass.families import builtin_family
    from minorclass.jsonl import masks_to_jsonl
    from minorclass.sampling import exact_masks

    masks = exact_masks(builtin_family("forests"), Weighting(1, 1), n, 0, draws)
    label = f"{draws} exact forest masks n={n} to JSONL (CLI route)"
    return label, "numpy", _time(lambda: _write(masks_to_jsonl(n, masks)))


def bench_jsonl_chain(draws, n):
    """The CLI's MCMC route after the chain: its edge masks (drawn before the
    clock starts) formatted and written (jsonl.masks_to_jsonl), with no Graph
    built."""
    from minorclass.families import builtin_family
    from minorclass.graphs import Weighting
    from minorclass.jsonl import masks_to_jsonl
    from minorclass.sampling import mcmc_masks

    masks = mcmc_masks(builtin_family("forests"), Weighting(1, 1), n, draws, burn_in=20_000,
                       thin=10, seed=0)
    label = f"{draws} chain masks n={n} to JSONL (CLI route)"
    return label, "numpy", _time(lambda: _write(masks_to_jsonl(n, masks)))


def bench_jsonl_boltzmann(draws, census, label):
    """The CLI's Boltzmann route: one Poisson component count per draw and a
    class per component, grouped by component multiset in numpy
    (sampling.boltzmann_groups), one Graph and one line per distinct
    multiset, the lines gathered for every draw and written
    (jsonl.draws_to_jsonl)."""
    from minorclass.jsonl import draws_to_jsonl
    from minorclass.sampling import boltzmann_config, boltzmann_groups

    rho = 1 / math.e if census.of_trees else 0.3
    cfg = boltzmann_config(census, rho, Weighting(1, 1))

    def run():
        _write(draws_to_jsonl(*boltzmann_groups(cfg, 0, draws)))

    label = f"{draws} Boltzmann draws to JSONL ({label}, {census.v.size} classes, CLI route)"
    return label, "numpy", _time(run)


def bench_member_array(name, n):
    from minorclass.canon import _canon_data
    from minorclass.enumeration import member_mask_array
    from minorclass.families import builtin_family

    def run():
        # a fresh family and canonical cache per repeat, so no cached array hides the work
        _canon_data.cache_clear()
        member_mask_array(builtin_family(name), n)

    return f"member_mask_array n={n} {name}", "numpy", _time(run)


def _warm_family(name, n):
    """A fresh family whose membership arrays up to n are built, and an empty
    canonical cache, so a row times only its own pass."""
    from minorclass.canon import _canon_data
    from minorclass.enumeration import member_mask_array
    from minorclass.families import builtin_family

    fam = builtin_family(name)
    for k in range(n + 1):
        member_mask_array(fam, k)
    _canon_data.cache_clear()
    return fam


def bench_census(name, n):
    """One census from built arrays; the label gives its canonicalizations."""
    from minorclass.canon import _canon_data
    from minorclass.enumeration import build_census

    fam = _warm_family(name, n)
    t = _time(build_census, fam, n, repeat=1)
    misses = _canon_data.cache_info().misses
    return f"build_census n<={n} {name} ({misses} canonicalizations)", "python", t


def bench_census_consumers(n, w, label):
    """census_series_eval plus boltzmann_config over one built census: both
    weigh every class through UnlabelledCensus.mus.  Off the diagonal the
    census counts each class's bridges on first use; each repeat drops the
    counts, so the row includes counting them once."""
    from minorclass.asymptotics import census_series_eval
    from minorclass.enumeration import build_census
    from minorclass.families import builtin_family
    from minorclass.sampling import boltzmann_config

    census = build_census(builtin_family("all"), n)

    def run():
        census.__dict__.pop("_bridges", None)
        census_series_eval(census, 0.05, w)
        boltzmann_config(census, 0.05, w)

    label = f"census_series_eval + boltzmann_config n<={n} all {label} ({census.v.size} classes)"
    return label, "python", _time(run)


def bench_verify(verify, name, n):
    fam = _warm_family(name, n)
    return f"{verify.__name__} n<={n} {name}", "numpy", _time(verify, fam, n, repeat=1)


def bench_dichotomy(name, n):
    """One dichotomy scan from built arrays; the label gives its canonical
    lookups, one per labelled member of order <= n."""
    from minorclass.canon import _canon_data
    from minorclass.families import dichotomy_scan

    fam = _warm_family(name, n)
    t = _time(dichotomy_scan, fam, n, repeat=1)
    info = _canon_data.cache_info()
    return (f"dichotomy_scan n<={n} {name} ({info.hits + info.misses} canonical lookups)",
            "python", t)


def bench_planar_dichotomy():
    """_planar_predicate on the graphs the planar dichotomy scan asks about:
    unions and copies of members on at most 4 vertices."""
    from minorclass.families import _planar_predicate, builtin_family, dichotomy_scan
    from minorclass.graphs import Graph

    fam = builtin_family("planar")
    asked = []

    def record(g):
        asked.append((g.n, g.mask))
        return _planar_predicate(g)

    fam.predicate = record
    dichotomy_scan(fam)

    def run():
        for n, mask in asked:
            _planar_predicate(Graph(n, mask))

    return f"_planar_predicate {len(asked)} dichotomy-scan graphs", "python", _time(run)


def bench_planar_networkx(calls):
    """_planar_predicate on a subdivided K3,3: 6 branch vertices, so networkx
    decides it (imported before the clock starts)."""
    from minorclass.families import _planar_predicate
    from minorclass.graphs import Graph, complete_bipartite

    k33 = complete_bipartite(3, 3)
    edges = []
    for k, (u, v) in enumerate(k33.edges, start=k33.n + 1):
        edges += [(u, k), (k, v)]
    n = k33.n + k33.edge_count
    mask = Graph.from_edges(n, edges).mask
    _planar_predicate(Graph(n, mask))

    def run():
        for _ in range(calls):
            _planar_predicate(Graph(n, mask))

    return f"_planar_predicate {calls} subdivided K3,3 (networkx)", "python", _time(run)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller workloads")
    args = ap.parse_args()

    n_sweep = 6 if args.quick else 7
    steps = 100_000 if args.quick else 1_000_000
    terms = 100_000 if args.quick else 1_000_000
    draws = 200 if args.quick else 1000

    benches = [
        bench_subset_stats(n_sweep),
        bench_forest_slice(n_sweep),
        bench_forest_slice(n_sweep + 1),
        bench_sweep(n_sweep, K.MODE_ALL, True, "all +bridges"),
        bench_sweep(n_sweep + 1, K.MODE_FORESTS, False, "forests"),
        # the only row that reaches the streamed sweep: blocks of 2^21 masks
        *([] if args.quick else [bench_sweep(8, K.MODE_ALL, False, "all")]),
        bench_all_table(8, Weighting.extended(Fraction(1, 2), 2, 3), "split (1/2, 2, 3)"),
        bench_exact_sample(n_sweep, 1000),
        bench_frag_distribution("planar", n_sweep),
        bench_mcmc(steps, 7),
        bench_mcmc(steps, 16),
        bench_mcmc(steps, 60),
        # the forest loop reading uniforms: half the additions fail lam0 = 1/2
        bench_mcmc(steps, 10, lam0=0.5, lam1=0.5),
        bench_mcmc(steps, 10, "all", 0.5),
        # the simple loop on a membership array, the benchmark's mcmc-sp-6 chain
        bench_mcmc(steps, 6, "series-parallel", array=True),
        bench_mcmc(steps, 6, "series-parallel", lam0=0.5, lam1=0.5, array=True),
        # recounts the bridges (graphs.bridge_mask) on every toggle inside a component
        bench_mcmc(20_000, 10, "all", nu=2.0, lam0=0.5, lam1=2.0),
        bench_mcmc(5000, 300),  # setup-bound: the per-pair table of 44,850 pairs
        bench_mcmc(4000, 9, "planar"),  # membership by predicate on accepted additions
        bench_mcmc(4000, 9, "ex-k-disjoint-cycles:1"),
        bench_tree_series(terms, 1 / math.e, "at the radius (x = 1/e)"),
        bench_tree_series(200_000, 1 / 22, "inside the radius (x = 1/22)"),
        bench_random_walk_tree(draws, 300),
        bench_tree_sample(draws, 300),
        bench_tree_jsonl_route(draws, 300),
        bench_tree_jsonl_route(20 * draws, 300),
        bench_jsonl_exact(10 * draws, 7),
        bench_jsonl_chain(8 * draws, 10),
        bench_jsonl_boltzmann(50 * draws, build_census(builtin_family("forests"), 6),
                              "forests n<=6"),
        # many classes: the draws x classes Poisson counts are never built
        bench_jsonl_boltzmann(20_000, build_census(builtin_family("all"), n_sweep),
                              f"all n<={n_sweep} rho=0.3"),
    ] + [bench_member_array(name, n) for n in sorted({6, n_sweep})
         for name in ("planar", "series-parallel", "ex-k-disjoint-cycles:1")
    ] + [bench_census(name, n)
         for name, n in dict.fromkeys((("all", n_sweep), ("planar", n_sweep), ("all", 7)))
    ] + [bench_census_consumers(7, w, label) for w, label in (
        (Weighting(1, 1), "diagonal"), (Weighting.extended(Fraction(1, 2), 2, 3), "(1/2, 2, 3)"))
    ] + [bench_planar_dichotomy(), bench_planar_networkx(100)
    ] + [bench_verify(verify, "planar", n_sweep)
         for verify in (verify_bridge_addable, verify_decomposable, verify_trimmable)
    ] + [bench_dichotomy("planar", 4)]
    width = max(len(label) for label, _, _ in benches) + 2
    for label, kind, t in benches:
        print(f"{label:<{width}} {kind:>6}: {t * 1e3:10.2f} ms")


if __name__ == "__main__":
    main()
