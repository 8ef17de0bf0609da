"""Agreement between the accelerated kernels and their fallbacks.

The numba path and the vectorized numpy path are independent implementations
of the same sweeps; exact integer outputs must match bit for bit, and the
floating series must agree to close to machine precision.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from minorclass import _kernels as K
from minorclass.enumeration import member_mask_array
from minorclass.families import builtin_family
from minorclass.graphs import Weighting
from minorclass.sampling import _mcmc_python


def _run_stats(impl, n):
    m = n * (n - 1) // 2
    total = 1 << m
    pu, pv = K.pair_arrays(n)
    kappa = np.zeros(total, dtype=np.uint8)
    mindeg2 = np.zeros(total, dtype=np.uint8)
    impl(n, 0, total, pu, pv, kappa, mindeg2)
    return kappa, mindeg2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_subset_stats_paths_agree(n):
    k1, m1 = _run_stats(K._subset_stats_scalar, n)
    k2, m2 = _run_stats(K._subset_stats_np, n)
    assert (k1 == k2).all() and (m1 == m2).all()
    if K.HAVE_NUMBA:
        k3, m3 = _run_stats(K._subset_stats_nb, n)
        assert (k1 == k3).all() and (m1 == m3).all()


def _run_sweep(impl, n, member, mode, want_core, want_bridges):
    m = n * (n - 1) // 2
    pu, pv = K.pair_arrays(n)
    ek = np.zeros((m + 1, n + 2), dtype=np.int64)
    ce = np.zeros(m + 1, dtype=np.int64)
    be = np.zeros(m + 1, dtype=np.int64)
    core = np.zeros((m + 1, n + 1), dtype=np.int64)
    ext_a = np.zeros((m + 1, m + 1, n + 2), dtype=np.int64)
    ext_c = np.zeros((m + 1, m + 1), dtype=np.int64)
    ext_b = np.zeros((m + 1, m + 1), dtype=np.int64)
    impl(n, 0, 1 << m, pu, pv, member, mode, want_core, want_bridges,
         ek, ce, be, core, ext_a, ext_c, ext_b)
    return ek, ce, be, core, ext_a, ext_c, ext_b


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", [K.MODE_ALL, K.MODE_FORESTS])
def test_sweep_paths_agree(n, mode):
    member = np.zeros(0, dtype=np.uint8)
    a = _run_sweep(K._sweep_scalar, n, member, mode, True, True)
    b = _run_sweep(K._sweep_np, n, member, mode, True, True)
    for x, y in zip(a, b):
        assert (x == y).all()
    if K.HAVE_NUMBA:
        c = _run_sweep(K._sweep_nb, n, member, mode, True, True)
        for x, y in zip(a, c):
            assert (x == y).all()


def test_sweep_with_member_array():
    rng = np.random.default_rng(0)
    n = 4
    member = (rng.random(1 << 6) < 0.5).astype(np.uint8)
    a = _run_sweep(K._sweep_scalar, n, member, K.MODE_MEMBER_ARRAY, True, True)
    b = _run_sweep(K._sweep_np, n, member, K.MODE_MEMBER_ARRAY, True, True)
    for x, y in zip(a, b):
        assert (x == y).all()


def test_sweep_threads_match_sequential():
    got1 = K.sweep_counts(5, None, K.MODE_ALL, want_core=True, threads=1)
    got4 = K.sweep_counts(5, None, K.MODE_ALL, want_core=True, threads=4)
    assert (got1.ek == got4.ek).all()
    assert (got1.core == got4.core).all()


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


def test_tree_series_paths_agree():
    val_py = K._tree_series_scalar(20000, math.log(1.0), math.log(1 / math.e), 0.0, False)
    val_dispatch = K.tree_series_sum(20000, 1.0, 1 / math.e, 1.0, rooted=False)
    assert val_py == pytest.approx(val_dispatch, rel=1e-12)
    rooted_py = K._tree_series_scalar(20000, math.log(2.0), math.log(1 / (2 * math.e)), math.log(3.0), True)
    rooted_dispatch = K.tree_series_sum(20000, 2.0, 1 / (2 * math.e), 3.0, rooted=True)
    assert rooted_py == pytest.approx(rooted_dispatch, rel=1e-12)


def test_prufer_decode_is_bijective_on_n4():
    seqs = np.array([[a, b] for a in range(4) for b in range(4)], dtype=np.int64)
    edges = K.prufer_decode(seqs)
    seen = set()
    for d in range(16):
        mask = 0
        for u, v in edges[d]:
            u, v = int(u), int(v)
            assert u != v
            lo, hi = min(u, v), max(u, v)
            mask |= 1 << (hi * (hi - 1) // 2 + lo)
        seen.add(mask)
    assert len(seen) == 16  # all Cayley trees, each exactly once


def test_prufer_paths_agree():
    rng = np.random.default_rng(3)
    seqs = rng.integers(0, 8, size=(50, 6), dtype=np.int64)
    out1 = np.zeros((50, 7, 2), dtype=np.int64)
    K._prufer_scalar(seqs, out1)
    out2 = K.prufer_decode(seqs)
    assert (out1 == out2).all()


def test_env_flag_documented():
    # the dispatch flag reflects the environment variable / numba availability
    assert isinstance(K.using_numba(), bool)
