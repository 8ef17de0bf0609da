#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy/python fallbacks.

Runs each hot kernel through both implementations in one process and prints a
timing table.  With MINORCLASS_NO_NUMBA=1 (or numba missing) only the fallback
column is populated.  The MCMC chain has a single pure-Python implementation,
and the membership arrays of minor-tested families a single numpy one.

    python3 benchmarks/bench_kernels.py [--quick]
"""

import argparse
import math
import time

import numpy as np

from minorclass import _kernels as K


def _time(fn, *args, repeat=3):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_subset_stats(n):
    m = n * (n - 1) // 2
    total = 1 << m
    pu, pv = K.pair_arrays(n)

    def run(impl):
        kappa = np.zeros(total, dtype=np.uint8)
        mindeg2 = np.zeros(total, dtype=np.uint8)
        impl(n, 0, total, pu, pv, kappa, mindeg2)

    rows = []
    if K.HAVE_NUMBA:
        run(K._subset_stats_nb)  # compile
        rows.append(("numba", _time(run, K._subset_stats_nb)))
    rows.append(("numpy", _time(run, K._subset_stats_np)))
    return f"subset_stats n={n} ({total} masks)", rows


def bench_sweep(n, want_bridges):
    m = n * (n - 1) // 2
    pu, pv = K.pair_arrays(n)
    member = np.zeros(0, dtype=np.uint8)

    def run(impl):
        ek = np.zeros((m + 1, n + 2), dtype=np.int64)
        ce = np.zeros(m + 1, dtype=np.int64)
        be = np.zeros(m + 1, dtype=np.int64)
        core = np.zeros((m + 1, n + 1), dtype=np.int64)
        ext_a = np.zeros((m + 1, m + 1, n + 2), dtype=np.int64)
        ext_c = np.zeros((m + 1, m + 1), dtype=np.int64)
        ext_b = np.zeros((m + 1, m + 1), dtype=np.int64)
        impl(n, 0, 1 << m, pu, pv, member, K.MODE_FORESTS, True, want_bridges,
             ek, ce, be, core, ext_a, ext_c, ext_b)

    rows = []
    if K.HAVE_NUMBA:
        run(K._sweep_nb)
        rows.append(("numba", _time(run, K._sweep_nb)))
    rows.append(("numpy", _time(run, K._sweep_np)))
    label = f"sweep_counts n={n}" + (" +bridges" if want_bridges else "")
    return label, rows


def bench_mcmc(steps, n):
    m = n * (n - 1) // 2
    rng = np.random.default_rng(0)
    proposals = rng.integers(0, m, size=steps, dtype=np.int64)
    uniforms = rng.random(steps)
    draws = steps // 20

    def run():
        K.mcmc_chain(n, proposals, uniforms, 1.0, 1.0, K.MODE_FORESTS, None,
                     steps - draws * 10, 10, draws)

    return f"mcmc_chain {steps} steps (n={n} forests)", [("python", _time(run, repeat=1))]


def bench_tree_series(terms):
    def run_numba():
        K._tree_series_nb(terms, 0.0, -1.0, 0.0, False)

    def run_numpy():
        total = 0.0
        chunk = 65536
        for start in range(1, terms + 1, chunk):
            stop = min(start + chunk, terms + 1)
            lt = K._tree_terms_log(start, stop, 0.0, -1.0, 0.0)
            total += float(np.sum(np.exp(lt)))

    rows = []
    if K.HAVE_NUMBA:
        run_numba()
        rows.append(("numba", _time(run_numba)))
    rows.append(("numpy", _time(run_numpy)))
    return f"tree_series {terms} terms", rows


def bench_prufer(draws, n):
    rng = np.random.default_rng(1)
    seqs = rng.integers(0, n, size=(draws, n - 2), dtype=np.int64)

    def run(impl):
        out = np.zeros((draws, n - 1, 2), dtype=np.int64)
        impl(seqs, out)

    rows = []
    if K.HAVE_NUMBA:
        run(K._prufer_nb)
        rows.append(("numba", _time(run, K._prufer_nb)))
    rows.append(("python", _time(run, K._prufer_scalar, repeat=1)))
    return f"prufer_decode {draws} trees on {n} vertices", rows


def bench_member_array(name, n):
    from minorclass.canon import _canon_data
    from minorclass.enumeration import member_mask_array
    from minorclass.families import builtin_family

    def run():
        # a fresh family and canonical cache per repeat, so no cached array hides the work
        _canon_data.cache_clear()
        member_mask_array(builtin_family(name), n)

    return f"member_mask_array n={n} {name}", [("numpy", _time(run))]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller workloads")
    args = ap.parse_args()

    print(f"numba available and enabled: {K.HAVE_NUMBA}")
    n_sweep = 6 if args.quick else 7
    steps = 100_000 if args.quick else 1_000_000
    terms = 100_000 if args.quick else 1_000_000
    draws = 200 if args.quick else 1000

    benches = [
        bench_subset_stats(n_sweep),
        bench_sweep(n_sweep, want_bridges=False),
        bench_sweep(6, want_bridges=True),
        bench_mcmc(steps, 7),
        bench_mcmc(steps, 16),
        bench_tree_series(terms),
        bench_prufer(draws, 300),
    ] + [bench_member_array(name, n_sweep)
         for name in ("planar", "series-parallel", "ex-k-disjoint-cycles:1")]
    width = max(len(label) for label, _ in benches) + 2
    for label, rows in benches:
        base = rows[-1][1]
        for name, t in rows:
            speedup = f"  ({base / t:5.1f}x vs fallback)" if name != rows[-1][0] else ""
            print(f"{label:<{width}} {name:>6}: {t * 1e3:10.2f} ms{speedup}")


if __name__ == "__main__":
    main()
