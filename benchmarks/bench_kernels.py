#!/usr/bin/env python3
"""Time the hot kernels, and the numba ones against their fallbacks.

Runs each kernel in one process and prints a timing table (best of three).
The tree series and the Pruefer decoder have a numba column when numba is
installed and enabled (not with MINORCLASS_NO_NUMBA=1).  The subset-lattice
kernels, the MCMC chain and the membership arrays of minor-tested families
have a single implementation each; the lattice rows start from an empty
slice cache in every repeat.

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


def _cold(fn, *args, **kwargs):
    """Time fn with the lattice cache cleared before each repeat, so every
    repeat builds its slices from n = 0."""
    def run():
        K._RECORDS.clear()
        fn(*args, **kwargs)

    return _time(run)


def bench_subset_stats(n):
    masks = 1 << (n * (n - 1) // 2)
    return f"subset_stats n={n} ({masks} masks)", [("numpy", _cold(K.subset_stats, n))]


def bench_sweep(n, mode, want_bridges, label):
    t = _cold(K.sweep_counts, n, None, mode, want_bridges=want_bridges)
    return f"sweep_counts n={n} {label}", [("numpy", t)]


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
        bench_sweep(n_sweep, K.MODE_ALL, True, "all +bridges"),
        bench_sweep(n_sweep + 1, K.MODE_FORESTS, False, "forests"),
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
