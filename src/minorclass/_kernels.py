"""Hot numeric kernels: numba-accelerated with a pure-numpy fallback.

Setting the environment variable ``MINORCLASS_NO_NUMBA=1`` (or numba being
unavailable) selects the fallback path.  Callers pre-draw all random numbers,
so a kernel is a deterministic function of its inputs on either path; the
benchmark script under benchmarks/ compares the two.

Kernels:
  * subset_stats      - component count / min-degree flag for every edge mask
  * sweep_counts      - aggregate member counts by (edges, components, ...)
  * mcmc_chain        - Metropolis chain over edge toggles (pure Python, any n)
  * tree_series_sums  - partial sums of the weighted (rooted) tree series
  * prufer_decode     - batch decode of uniform parent sequences into trees
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_DISABLED = os.environ.get("MINORCLASS_NO_NUMBA", "").strip().lower() in {"1", "true", "yes", "on"}

try:
    if _DISABLED:
        raise ImportError("numba disabled by MINORCLASS_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # pragma: no cover - trivial shim
        def deco(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return deco


def using_numba() -> bool:
    return HAVE_NUMBA


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-indexed endpoints (pu[b], pv[b]) of edge bit b, in bit order."""
    pu, pv = [], []
    for v in range(1, n):
        for u in range(0, v):
            pu.append(u)
            pv.append(v)
    return np.asarray(pu, dtype=np.int64), np.asarray(pv, dtype=np.int64)


# ---------------------------------------------------------------------------
# subset_stats
# ---------------------------------------------------------------------------


def _subset_stats_scalar(n, lo, hi, pu, pv, kappa_out, mindeg2_out):
    m = pu.shape[0]
    adj = np.zeros(n, dtype=np.int64)
    for s in range(lo, hi):
        for v in range(n):
            adj[v] = 0
        for b in range(m):
            if s >> b & 1:
                adj[pu[b]] |= 1 << pv[b]
                adj[pv[b]] |= 1 << pu[b]
        seen = 0
        kappa = 0
        for v in range(n):
            if not seen >> v & 1:
                kappa += 1
                comp = 1 << v
                frontier = comp
                while frontier:
                    nxt = 0
                    for w in range(n):
                        if frontier >> w & 1:
                            nxt |= adj[w]
                    frontier = nxt & ~comp
                    comp |= nxt
                seen |= comp
        kappa_out[s - lo] = kappa
        ok = 1
        for v in range(n):
            d = 0
            a = adj[v]
            for w in range(n):
                d += a >> w & 1
            if d < 2:
                ok = 0
                break
        mindeg2_out[s - lo] = ok


_subset_stats_nb = njit(nogil=True, cache=True)(_subset_stats_scalar) if HAVE_NUMBA else None


def _reach_closure_np(adj: np.ndarray, n: int) -> np.ndarray:
    """Vectorized transitive closure of the adjacency bitmasks (rows, n)."""
    reach = adj | (np.int64(1) << np.arange(n, dtype=np.int64))
    rounds = max(1, int(math.ceil(math.log2(max(n, 2)))) + 1)
    for _ in range(rounds):
        for v in range(n):
            acc = reach[:, v].copy()
            for w in range(n):
                sel = ((reach[:, v] >> w) & 1).astype(bool)
                acc[sel] |= reach[sel, w]
            reach[:, v] = acc
    return reach


def _build_adj_np(s: np.ndarray, n: int, pu, pv) -> np.ndarray:
    adj = np.zeros((s.shape[0], n), dtype=np.int64)
    for b in range(len(pu)):
        hasb = (s >> b) & 1
        adj[:, pu[b]] |= hasb << pv[b]
        adj[:, pv[b]] |= hasb << pu[b]
    return adj


def _subset_stats_np(n, lo, hi, pu, pv, kappa_out, mindeg2_out):
    chunk = 1 << 16
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        s = np.arange(start, stop, dtype=np.int64)
        adj = _build_adj_np(s, n, pu, pv)
        reach = _reach_closure_np(adj, n)
        kappa = np.zeros(len(s), dtype=np.int64)
        for v in range(n):
            r = reach[:, v]
            kappa += ((r & -r) == (np.int64(1) << v)).astype(np.int64)
        deg = np.bitwise_count(adj)
        kappa_out[start - lo:stop - lo] = kappa
        mindeg2_out[start - lo:stop - lo] = (deg >= 2).all(axis=1)


def subset_stats(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(component count, min-degree>=2 flag) for every edge mask on n vertices."""
    m = n * (n - 1) // 2
    total = 1 << m
    pu, pv = pair_arrays(n)
    kappa = np.zeros(total, dtype=np.uint8)
    mindeg2 = np.zeros(total, dtype=np.uint8)
    if n == 0:
        kappa[0] = 0
        mindeg2[0] = 1
        return kappa, mindeg2
    if HAVE_NUMBA:
        _subset_stats_nb(n, 0, total, pu, pv, kappa, mindeg2)
    else:
        _subset_stats_np(n, 0, total, pu, pv, kappa, mindeg2)
    return kappa, mindeg2


# ---------------------------------------------------------------------------
# sweep_counts
# ---------------------------------------------------------------------------

MODE_MEMBER_ARRAY = 0
MODE_ALL = 1
MODE_FORESTS = 2


@dataclass
class SweepCounts:
    """Exact member counts aggregated over one n-slice.

    ek[e, k]      members with e edges and k components
    ce[e]         connected members with e edges
    be[e]         connected members with e edges and min degree >= 2
    core[e, c]    connected members with e edges and 2-core of c vertices (optional)
    ext_a[e,e0,k] members by (edges, bridges, components)        (optional)
    ext_c[e,e0]   connected members by (edges, bridges)          (optional)
    ext_b[e,e0]   connected min-degree>=2 members by (edges, bridges) (optional)
    """

    n: int
    ek: np.ndarray
    ce: np.ndarray
    be: np.ndarray
    core: np.ndarray | None = None
    ext_a: np.ndarray | None = None
    ext_c: np.ndarray | None = None
    ext_b: np.ndarray | None = None


def _sweep_scalar(n, lo, hi, pu, pv, member, mode, want_core, want_bridges,
                  ek, ce, be, core, ext_a, ext_c, ext_b):
    m = pu.shape[0]
    adj = np.zeros(n, dtype=np.int64)
    for s in range(lo, hi):
        e = 0
        for b in range(m):
            e += s >> b & 1
        for v in range(n):
            adj[v] = 0
        for b in range(m):
            if s >> b & 1:
                adj[pu[b]] |= 1 << pv[b]
                adj[pv[b]] |= 1 << pu[b]
        seen = 0
        kappa = 0
        for v in range(n):
            if not seen >> v & 1:
                kappa += 1
                comp = 1 << v
                frontier = comp
                while frontier:
                    nxt = 0
                    for w in range(n):
                        if frontier >> w & 1:
                            nxt |= adj[w]
                    frontier = nxt & ~comp
                    comp |= nxt
                seen |= comp
        if mode == 0:
            ok = member[s] != 0
        elif mode == 1:
            ok = True
        else:
            ok = e == n - kappa
        if not ok:
            continue
        ek[e, kappa] += 1
        connected = kappa == 1
        mindeg2 = True
        for v in range(n):
            d = 0
            a = adj[v]
            for w in range(n):
                d += a >> w & 1
            if d < 2:
                mindeg2 = False
                break
        if connected:
            ce[e] += 1
            if mindeg2:
                be[e] += 1
        if want_core and connected:
            present = (1 << n) - 1
            changed = True
            while changed:
                changed = False
                for v in range(n):
                    if present >> v & 1:
                        d = 0
                        a = adj[v] & present
                        for w in range(n):
                            d += a >> w & 1
                        if d <= 1:
                            present &= ~(1 << v)
                            changed = True
            csize = 0
            for v in range(n):
                csize += present >> v & 1
            core[e, csize] += 1
        if want_bridges:
            e0 = 0
            for b in range(m):
                if s >> b & 1:
                    u = pu[b]
                    v = pv[b]
                    comp = 1 << u
                    frontier = comp
                    reached = False
                    while frontier and not reached:
                        nxt = 0
                        for w in range(n):
                            if frontier >> w & 1:
                                aw = adj[w]
                                if w == u:
                                    aw &= ~(1 << v)
                                elif w == v:
                                    aw &= ~(1 << u)
                                nxt |= aw
                        frontier = nxt & ~comp
                        comp |= nxt
                        if comp >> v & 1:
                            reached = True
                    if not reached:
                        e0 += 1
            ext_a[e, e0, kappa] += 1
            if connected:
                ext_c[e, e0] += 1
                if mindeg2:
                    ext_b[e, e0] += 1


_sweep_nb = njit(nogil=True, cache=True)(_sweep_scalar) if HAVE_NUMBA else None


def _sweep_np(n, lo, hi, pu, pv, member, mode, want_core, want_bridges,
              ek, ce, be, core, ext_a, ext_c, ext_b):
    m = len(pu)
    chunk = 1 << 16
    for start in range(lo, hi, chunk):
        stop = min(start + chunk, hi)
        s = np.arange(start, stop, dtype=np.int64)
        e = np.bitwise_count(s).astype(np.int64)
        adj = _build_adj_np(s, n, pu, pv)
        reach = _reach_closure_np(adj, n)
        kappa = np.zeros(len(s), dtype=np.int64)
        for v in range(n):
            r = reach[:, v]
            kappa += ((r & -r) == (np.int64(1) << v)).astype(np.int64)
        if mode == 0:
            ok = member[start:stop].astype(bool)
        elif mode == 1:
            ok = np.ones(len(s), dtype=bool)
        else:
            ok = e == n - kappa
        deg = np.bitwise_count(adj)
        mindeg2 = (deg >= 2).all(axis=1)
        connected = kappa == 1
        np.add.at(ek, (e[ok], kappa[ok]), 1)
        sel_c = ok & connected
        np.add.at(ce, e[sel_c], 1)
        sel_b = sel_c & mindeg2
        np.add.at(be, e[sel_b], 1)
        if want_core:
            present = np.full(len(s), (1 << n) - 1, dtype=np.int64)
            for _ in range(n):
                for v in range(n):
                    has = ((present >> v) & 1).astype(bool)
                    dv = np.bitwise_count(adj[:, v] & present)
                    kill = has & (dv <= 1)
                    present[kill] &= ~np.int64(1 << v)
            csize = np.bitwise_count(present).astype(np.int64)
            np.add.at(core, (e[sel_c], csize[sel_c]), 1)
        if want_bridges:
            e0 = np.zeros(len(s), dtype=np.int64)
            for b in range(m):
                u, v = int(pu[b]), int(pv[b])
                hasb = ((s >> b) & 1).astype(bool)
                adj2 = adj.copy()
                adj2[:, u] &= ~np.int64(1 << v)
                adj2[:, v] &= ~np.int64(1 << u)
                reach2 = _reach_closure_np(adj2, n)
                disconnected = ((reach2[:, u] >> v) & 1) == 0
                e0 += (hasb & disconnected).astype(np.int64)
            np.add.at(ext_a, (e[ok], e0[ok], kappa[ok]), 1)
            np.add.at(ext_c, (e[sel_c], e0[sel_c]), 1)
            np.add.at(ext_b, (e[sel_b], e0[sel_b]), 1)


def sweep_counts(n: int, member: np.ndarray | None = None, mode: int = MODE_MEMBER_ARRAY,
                 want_core: bool = False, want_bridges: bool = False,
                 threads: int = 1) -> SweepCounts:
    """Aggregate exact member counts over all 2^(n(n-1)/2) edge masks.

    The range is split into chunks whose partial counts are summed, so the
    result is independent of the chunking and of the thread count.
    """
    m = n * (n - 1) // 2
    total = 1 << m
    pu, pv = pair_arrays(n)
    if member is None and mode == MODE_MEMBER_ARRAY:
        mode = MODE_ALL
    if member is None:
        member = np.zeros(0, dtype=np.uint8)

    def alloc():
        ek = np.zeros((m + 1, n + 2), dtype=np.int64)
        ce = np.zeros(m + 1, dtype=np.int64)
        be = np.zeros(m + 1, dtype=np.int64)
        core = np.zeros((m + 1, n + 1), dtype=np.int64)
        ext_a = np.zeros((m + 1, m + 1, n + 2), dtype=np.int64)
        ext_c = np.zeros((m + 1, m + 1), dtype=np.int64)
        ext_b = np.zeros((m + 1, m + 1), dtype=np.int64)
        return ek, ce, be, core, ext_a, ext_c, ext_b

    if n == 0:
        ek, ce, be, core, ext_a, ext_c, ext_b = alloc()
        ok = True if mode == MODE_ALL else (bool(member[0]) if mode == MODE_MEMBER_ARRAY else True)
        if ok:
            ek[0, 0] += 1
            ext_a[0, 0, 0] += 1
        return SweepCounts(n, ek, ce, be,
                           core if want_core else None,
                           ext_a if want_bridges else None,
                           ext_c if want_bridges else None,
                           ext_b if want_bridges else None)

    impl = _sweep_nb if HAVE_NUMBA else _sweep_np

    def run_range(lo, hi):
        ek, ce, be, core, ext_a, ext_c, ext_b = alloc()
        impl(n, lo, hi, pu, pv, member, mode, want_core, want_bridges,
             ek, ce, be, core, ext_a, ext_c, ext_b)
        return ek, ce, be, core, ext_a, ext_c, ext_b

    if threads > 1 and HAVE_NUMBA and total >= 1 << 12:
        nchunks = threads * 4
        bounds = [total * i // nchunks for i in range(nchunks + 1)]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda ij: run_range(*ij),
                                  zip(bounds[:-1], bounds[1:])))
        merged = [sum(arrs) for arrs in zip(*parts)]
        ek, ce, be, core, ext_a, ext_c, ext_b = merged
    else:
        ek, ce, be, core, ext_a, ext_c, ext_b = run_range(0, total)

    return SweepCounts(n, ek, ce, be,
                       core if want_core else None,
                       ext_a if want_bridges else None,
                       ext_c if want_bridges else None,
                       ext_b if want_bridges else None)


# ---------------------------------------------------------------------------
# MCMC chain
# ---------------------------------------------------------------------------


def _joined(adj: list[int], u: int, v: int) -> bool:
    """True when u reaches v through the adjacency bitmasks; stops on the hit."""
    target = 1 << v
    seen = frontier = 1 << u
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        if nxt & target:
            return True
        frontier = nxt & ~seen
        seen |= nxt
    return False


def mcmc_chain(n: int, proposals: np.ndarray, uniforms: np.ndarray, lam: float, nu: float,
               mode: int, member: np.ndarray | None, burn_in: int, thin: int,
               draws: int) -> list[int]:
    """Metropolis edge-toggle chain; returns the thinned post-burn-in masks.

    The edge mask is a Python int, so n is unbounded.  Per-vertex adjacency
    bitmasks make each toggle local: adding u-v searches from u until it meets
    v (in forest mode a hit is a cycle and the move is rejected), removing an
    edge from a forest always splits a component, and other modes search
    again after the removal.  The search is skipped where the component count
    cannot change the decision (nu = 1 outside forest mode); member-array mode
    rejects non-members by lookup before any search.
    """
    total = burn_in + draws * thin
    if thin < 1 or burn_in < 0 or len(proposals) < total or len(uniforms) < total:
        raise ValueError("proposal stream too short for requested draws")
    lam, nu = float(lam), float(nu)
    # the acceptance ratio lam ** (new_e - e) * nu ** (new_kappa - kappa) of each toggle kind
    add_merge, add_inside, drop_split, drop_inside = (
        lam ** de * nu ** dk for de, dk in ((1, -1), (1, 0), (-1, 1), (-1, 0)))
    forests = mode == MODE_FORESTS
    count_kappa = not forests and nu != 1.0
    members = member.tobytes() if mode == MODE_MEMBER_ARRAY else None
    pu, pv = (a.tolist() for a in pair_arrays(n))
    adj = [0] * n
    mask = 0
    out = []
    keep = burn_in + thin - 1  # step index after which the next draw is kept
    for t, (b, x) in enumerate(zip(proposals[:total].tolist(), uniforms[:total].tolist())):
        bit = 1 << b
        if members is None or members[mask ^ bit]:
            u, v = pu[b], pv[b]
            ub, vb = 1 << u, 1 << v
            if mask & bit:
                adj[u] ^= vb
                adj[v] ^= ub
                r = drop_inside if count_kappa and _joined(adj, u, v) else drop_split
                if r >= 1.0 or x < r:
                    mask ^= bit
                else:
                    adj[u] |= vb
                    adj[v] |= ub
            elif not (forests and _joined(adj, u, v)):
                r = add_inside if count_kappa and _joined(adj, u, v) else add_merge
                if r >= 1.0 or x < r:
                    mask ^= bit
                    adj[u] |= vb
                    adj[v] |= ub
        if t == keep:
            out.append(mask)
            keep += thin
    return out


# ---------------------------------------------------------------------------
# tree series
# ---------------------------------------------------------------------------


def _tree_terms_log(start, stop, log_lam, log_x, log_nu):
    """log of nu * n^(n-2) * lam^(n-1) * x^n / n! for n in [start, stop)."""
    n = np.arange(start, stop, dtype=np.float64)
    return log_nu + (n - 1.0) * log_lam + n * log_x + (n - 2.0) * np.log(n) - _lgamma_vec(n + 1.0)


def _lgamma_vec(x: np.ndarray) -> np.ndarray:
    from scipy.special import gammaln

    return gammaln(x)


def _tree_series_scalar(N, log_lam, log_x, log_nu, rooted):
    total = 0.0
    chunk_acc = 0.0
    for n in range(1, N + 1):
        p = 2.0 if not rooted else 1.0
        lt = log_nu + (n - 1.0) * log_lam + n * log_x + (n - p) * math.log(n) - math.lgamma(n + 1.0)
        chunk_acc += math.exp(lt)
        if n % 65536 == 0:
            total += chunk_acc
            chunk_acc = 0.0
    return total + chunk_acc


_tree_series_nb = njit(cache=True)(_tree_series_scalar) if HAVE_NUMBA else None


def tree_series_sum(N: int, lam: float, x: float, nu: float, rooted: bool) -> float:
    """Partial sum (N terms) of the weighted tree / rooted-tree series at x."""
    log_lam, log_x, log_nu = math.log(lam), math.log(x), math.log(nu)
    if HAVE_NUMBA:
        return _tree_series_nb(N, log_lam, log_x, log_nu, rooted)
    total = 0.0
    chunk = 65536
    for start in range(1, N + 1, chunk):
        stop = min(start + chunk, N + 1)
        lt = _tree_terms_log(start, stop, log_lam, log_x, log_nu)
        if rooted:
            lt = lt + np.log(np.arange(start, stop, dtype=np.float64))
        total += float(np.sum(np.exp(lt)))
    return total


# ---------------------------------------------------------------------------
# Pruefer decode
# ---------------------------------------------------------------------------


def _prufer_scalar(seqs, edges_out):
    draws, L = seqs.shape
    n = L + 2
    for d in range(draws):
        deg = np.ones(n, dtype=np.int64)
        for i in range(L):
            deg[seqs[d, i]] += 1
        ptr = 0
        leaf = -1
        for i in range(L):
            if leaf == -1:
                while deg[ptr] != 1:
                    ptr += 1
                leaf = ptr
            v = seqs[d, i]
            edges_out[d, i, 0] = leaf
            edges_out[d, i, 1] = v
            deg[leaf] -= 1
            deg[v] -= 1
            if deg[v] == 1 and v < ptr:
                leaf = v
            else:
                leaf = -1
        u = -1
        for v in range(n):
            if deg[v] == 1:
                if u == -1:
                    u = v
                else:
                    edges_out[d, L, 0] = u
                    edges_out[d, L, 1] = v
                    break


_prufer_nb = njit(nogil=True, cache=True)(_prufer_scalar) if HAVE_NUMBA else None


def prufer_decode(seqs: np.ndarray) -> np.ndarray:
    """Decode parent sequences (draws, n-2) into tree edge lists (draws, n-1, 2).

    The decoding is the classical bijection between sequences over [n]^(n-2)
    and labelled trees on [n]; endpoints are 0-indexed.
    """
    draws, L = seqs.shape
    edges = np.zeros((draws, L + 1, 2), dtype=np.int64)
    impl = _prufer_nb if HAVE_NUMBA else _prufer_scalar
    impl(np.ascontiguousarray(seqs, dtype=np.int64), edges)
    return edges
