"""Hot numeric kernels, one implementation each, in numpy or plain Python.

The subset-lattice kernels are whole-array numpy: each n-slice of edge masks
is built from the cached (n-1)-slice, in one pass for n <= 7 and streamed in
blocks of 2^21 masks at n = 8.  The tree series sums its terms in numpy
chunks, and the Pruefer decoder decodes every sequence of a batch in one
numpy step per sequence position.  There is no compiled path.  Callers
pre-draw all random numbers, so a kernel is a deterministic function of its
inputs.

Kernels:
  * subset_stats      - component count, edge count and min-degree flag for every edge mask
  * sweep_counts      - aggregate member counts by (edges, components, bridges, 2-core)
  * mcmc_chain        - Metropolis chain over edge toggles (pure Python, any n)
  * tree_series_sum   - partial sums of the weighted (rooted) tree series
  * prufer_decode     - batch decode of uniform parent sequences into trees
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError
from .graphs import reach

# there is no compiled path; perfbench/run.py records this flag with its results
HAVE_NUMBA = False


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-indexed endpoints (pu[b], pv[b]) of edge bit b, in bit order."""
    pu, pv = [], []
    for v in range(1, n):
        for u in range(0, v):
            pu.append(u)
            pv.append(v)
    return np.asarray(pu, dtype=np.int64), np.asarray(pv, dtype=np.int64)


# ---------------------------------------------------------------------------
# the subset lattice, one slice at a time
# ---------------------------------------------------------------------------
#
# Every edge of vertex n sits in the top n-1 bits of an n-vertex edge mask, so
# the n-slice is the (n-1)-slice crossed with the 2^(n-1) neighbour sets N of
# vertex n: mask = N << pair_count(n-1) | low.  Vertex sets are uint8 bitmasks
# (bit u = vertex u+1), which holds up to LATTICE_CAP vertices.

LATTICE_CAP = 8
RECORD_CAP = 7      # slices up to here are kept whole and cached (2^21 masks at n = 7)
BLOCK = 1 << 21     # masks per block when a larger slice is streamed

MODE_MEMBER_ARRAY = 0
MODE_ALL = 1
MODE_FORESTS = 2


@dataclass
class SliceStats:
    """Per-mask statistics (uint8 arrays) of consecutive edge masks of one slice.

    kappa, edges and mindeg2 (1 iff every vertex has degree >= 2) are always
    set.  deg0 and deg1 (the sets of vertices of degree 0 and 1) and roots
    (roots[v]: the bit of the least vertex of v's component) are what
    extending the slice by one vertex needs.  bridges (bridge count) and core
    (vertices in the 2-core) are computed on request.
    """

    kappa: np.ndarray
    edges: np.ndarray
    mindeg2: np.ndarray
    deg0: np.ndarray | None = None
    deg1: np.ndarray | None = None
    roots: np.ndarray | None = None
    bridges: np.ndarray | None = None
    core: np.ndarray | None = None


_RECORDS: dict[int, SliceStats] = {}


def _record(n: int, extendable: bool = False) -> SliceStats:
    """The whole n-slice (n <= RECORD_CAP), built from the (n-1)-slice and cached.

    The vertex-set arrays are kept only once the next slice is asked for.
    """
    rec = _RECORDS.get(n)
    if rec is None or (extendable and rec.roots is None):
        if n == 0:  # the empty graph
            zero = np.zeros(1, dtype=np.uint8)
            rec = SliceStats(zero, zero, np.ones(1, dtype=np.uint8), zero, zero,
                             np.zeros((0, 1), dtype=np.uint8), bridges=zero, core=zero)
        else:
            rec = _extend(_record(n - 1, extendable=True), n, 0, 1 << (n - 1), extendable)
        for arr in (rec.kappa, rec.edges, rec.mindeg2):
            arr.flags.writeable = False
        _RECORDS[n] = rec
    return rec


def _adjacency(n: int) -> list[np.ndarray]:
    """Neighbour set of each vertex for every edge mask on n vertices."""
    adj = [np.zeros(1, dtype=np.uint8) for _ in range(n)]
    for u, v in zip(*(a.tolist() for a in pair_arrays(n))):
        adj = [np.concatenate([a, a | np.uint8(1 << v if w == u else 1 << u if w == v else 0)])
               for w, a in enumerate(adj)]
    return adj


def _core_sizes(adj: list[np.ndarray], n: int) -> np.ndarray:
    """Vertices in the 2-core, by peeling every vertex of degree <= 1 each round."""
    present = np.full(np.broadcast_shapes(*(a.shape for a in adj)), (1 << n) - 1,
                      dtype=np.uint8)
    for _ in range(n):
        gone = np.zeros_like(present)
        for v, a in enumerate(adj):
            gone |= (np.bitwise_count(a & present) <= 1).view(np.uint8) << np.uint8(v)
        present &= ~gone
    return np.bitwise_count(present).reshape(-1)


def _extend(low: SliceStats, n: int, first: int, count: int, extendable: bool = False,
            bridges: bool = False, low_adj: list[np.ndarray] | None = None) -> SliceStats:
    """The masks of the n-slice whose vertex n has the neighbour sets first,
    ..., first + count - 1 (count a power of two dividing first), from the
    whole (n-1)-slice `low`, which must be extendable.

    Adding vertex n with neighbours N merges the components N touches:
    kappa = kappa_low + 1 - (components touched).  An edge u-n is a bridge
    iff u is the only vertex of N in its component; a low edge b is one iff
    removing it raises kappa, a comparison of the two halves of
    kappa.reshape(-1, 2, 1 << b).  The 2-core needs the low slice's
    adjacency, low_adj.
    """
    nbrs = np.arange(first, first + count, dtype=np.uint8)[:, None]
    # root bits of the components N touches, and of those it touches more than once
    once = np.zeros((1, low.kappa.size), dtype=np.uint8)
    twice = np.zeros_like(once)
    for u in range(count.bit_length() - 1, n - 1):
        if first >> u & 1:
            twice |= once & low.roots[u]
            once |= low.roots[u]
    for u in range(count.bit_length() - 1):
        r = low.roots[u]
        once, twice = np.concatenate([once, once | r]), np.concatenate([twice, twice | (once & r)])
    degree = np.bitwise_count(nbrs)
    kappa = low.kappa + np.uint8(1) - np.bitwise_count(once)
    mindeg2 = ((low.deg0 == 0) & ((low.deg1 & ~nbrs) == 0) & (degree >= 2)).view(np.uint8)
    out = SliceStats(kappa.reshape(-1), (low.edges + degree).reshape(-1), mindeg2.reshape(-1))
    bit = np.uint8(1 << (n - 1))
    if extendable:
        zero = np.uint8(0)
        out.deg0 = ((low.deg0 & ~nbrs) | np.where(degree == 0, bit, zero)).reshape(-1)
        out.deg1 = ((low.deg1 & ~nbrs) | (low.deg0 & nbrs)
                    | np.where(degree == 1, bit, zero)).reshape(-1)
        # the merged component's root is the least root N touches, or vertex n itself
        root = np.where(once == 0, bit, once & (~once + np.uint8(1)))
        out.roots = np.stack([np.where(low.roots[u] & once, root, low.roots[u])
                              for u in range(n - 1)] + [root]).reshape(n, -1)
    if bridges:
        out.bridges = np.bitwise_count(once & ~twice).reshape(-1)
        for b in range(n * (n - 1) // 2 - (n - 1)):
            halves = out.kappa.reshape(-1, 2, 1 << b)
            out.bridges.reshape(-1, 2, 1 << b)[:, 1, :] += halves[:, 0, :] == halves[:, 1, :] + 1
    if low_adj is not None:
        adj = [a | ((nbrs >> np.uint8(u)) & np.uint8(1)) << np.uint8(n - 1)
               for u, a in enumerate(low_adj)]
        out.core = _core_sizes(adj + [nbrs], n)
    return out


def subset_stats(n: int) -> SliceStats:
    """Component count, edge count and min-degree>=2 flag for every edge mask
    on n <= RECORD_CAP vertices.  The arrays are cached and read-only."""
    if n > RECORD_CAP:
        raise ResourceCapError(f"whole-slice statistics stop at n={RECORD_CAP}; "
                               "sweep_counts streams larger slices")
    return _record(n)


# ---------------------------------------------------------------------------
# sweep_counts
# ---------------------------------------------------------------------------


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


def _blocks(n: int, bridges: bool, core: bool):
    """(first mask, statistics) of consecutive blocks covering the n-slice:
    one block up to RECORD_CAP, blocks of BLOCK masks past it."""
    if n == 0:
        yield 0, _record(0)
        return
    low = _record(n - 1, extendable=True)
    low_adj = _adjacency(n - 1) if core else None
    count = min(1 << (n - 1), max(1, BLOCK // low.kappa.size))
    for first in range(0, 1 << (n - 1), count):
        yield first * low.kappa.size, _extend(low, n, first, count, bridges=bridges,
                                              low_adj=low_adj)


def _tally(out: np.ndarray, index: np.ndarray, sel: np.ndarray | None):
    """Add to out.flat[i] the number of selected masks whose index is i."""
    flat = out.reshape(-1)
    flat += np.bincount(index if sel is None else index[sel], minlength=out.size)


def sweep_counts(n: int, member: np.ndarray | None = None, mode: int = MODE_MEMBER_ARRAY,
                 want_core: bool = False, want_bridges: bool = False) -> SweepCounts:
    """Aggregate exact member counts over all 2^(n(n-1)/2) edge masks, n <= LATTICE_CAP."""
    if n > LATTICE_CAP:
        raise ResourceCapError(f"the subset lattice stops at n={LATTICE_CAP}")
    if member is None and mode == MODE_MEMBER_ARRAY:
        mode = MODE_ALL
    m = n * (n - 1) // 2
    ek = np.zeros((m + 1, n + 2), dtype=np.int64)
    ce = np.zeros(m + 1, dtype=np.int64)
    be = np.zeros(m + 1, dtype=np.int64)
    core = np.zeros((m + 1, n + 1), dtype=np.int64) if want_core else None
    if want_bridges:
        ext_a = np.zeros((m + 1, m + 1, n + 2), dtype=np.int64)
        ext_c = np.zeros((m + 1, m + 1), dtype=np.int64)
        ext_b = np.zeros((m + 1, m + 1), dtype=np.int64)
    else:
        ext_a = ext_c = ext_b = None
    for start, blk in _blocks(n, want_bridges, want_core):
        if mode == MODE_ALL:
            ok = None
        elif mode == MODE_FORESTS:
            ok = blk.edges + blk.kappa == n
        else:
            ok = member[start:start + blk.kappa.size] != 0
        connected = blk.kappa == 1
        sel_c = connected if ok is None else ok & connected
        sel_b = sel_c & (blk.mindeg2 != 0)
        e = blk.edges.astype(np.uint16)
        _tally(ek, e * (n + 2) + blk.kappa, ok)
        _tally(ce, e, sel_c)
        _tally(be, e, sel_b)
        if want_core:
            _tally(core, e * (n + 1) + blk.core, sel_c)
        if want_bridges:
            split = e * (m + 1) + blk.bridges
            _tally(ext_a, split * (n + 2) + blk.kappa, ok)
            _tally(ext_c, split, sel_c)
            _tally(ext_b, split, sel_b)
    return SweepCounts(n, ek, ce, be, core, ext_a, ext_c, ext_b)


# ---------------------------------------------------------------------------
# MCMC chain
# ---------------------------------------------------------------------------


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
                r = drop_inside if count_kappa and reach(adj, ub, vb) & vb else drop_split
                if r >= 1.0 or x < r:
                    mask ^= bit
                else:
                    adj[u] |= vb
                    adj[v] |= ub
            elif not (forests and reach(adj, ub, vb) & vb):
                r = add_inside if count_kappa and reach(adj, ub, vb) & vb else add_merge
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


def tree_series_sum(N: int, lam: float, x: float, nu: float, rooted: bool) -> float:
    """Partial sum (N terms) of the weighted tree / rooted-tree series at x:
    the sum over n <= N of nu * n^(n-2) * lam^(n-1) * x^n / n!, with n^(n-1)
    in place of n^(n-2) for rooted trees."""
    from scipy.special import gammaln  # imported on first use, to keep the package import light

    log_lam, log_x, log_nu = math.log(lam), math.log(x), math.log(nu)
    total = 0.0
    chunk = 65536
    for start in range(1, N + 1, chunk):
        n = np.arange(start, min(start + chunk, N + 1), dtype=np.float64)
        log_n = np.log(n)
        lt = log_nu + (n - 1.0) * log_lam + n * log_x + (n - 2.0) * log_n - gammaln(n + 1.0)
        if rooted:
            lt = lt + log_n
        total += float(np.sum(np.exp(lt)))
    return total


# ---------------------------------------------------------------------------
# Pruefer decode
# ---------------------------------------------------------------------------


def prufer_decode(seqs: np.ndarray) -> np.ndarray:
    """Decode parent sequences (draws, n-2) into tree edge lists (draws, n-1, 2).

    The decoding is the classical bijection between sequences over [n]^(n-2)
    and labelled trees on [n]; endpoints are 0-indexed.  Every row follows
    the smallest-leaf rule at once: edge i joins the least vertex of degree 1
    to seqs[:, i], and the last edge joins the two vertices of degree 1 left.
    """
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
