"""Hot numeric kernels, one implementation each, in numpy or plain Python.

The subset-lattice kernels are whole-array numpy: each n-slice of edge masks
is built from the cached (n-1)-slice, in one pass for n <= 7 and streamed in
blocks of 2^21 masks at n = 8.  The tree series sums its terms in numpy
chunks, and the random-walk tree kernel builds every tree of a chunk in a few
numpy steps.  There is no compiled path.  Callers pre-draw all random
numbers, so a kernel is a deterministic function of its inputs.

Kernels:
  * subset_stats      - component count, edge count and min-degree flag for every edge mask
  * core_sets         - 2-core vertex set of every edge mask, by one peel of the whole slice
  * forest_slice      - the forests' masks and statistics alone, never the whole lattice:
                        each slice keeps the rows of the forests one vertex below that
                        stay forests, picked from their root bits, then extends just those
  * sweep_counts      - member counts by (edges, bridges, components, min-degree flag),
                        one bincount per block; the forests are read from forest_slice
  * mcmc_chain        - Metropolis chain over edge toggles (pure Python, any n), one
                        kernel for every family and weighting in three loops (simple,
                        forest, component); the simple and forest loops read each
                        block's fixed acceptance as codes decided in numpy
  * tree_series_sum   - partial sums of the weighted (rooted) tree series, stopped
                        once its terms have underflowed to 0.0
  * random_walk_tree  - uniform labelled trees from pre-drawn uniforms and permutations
  * prufer_decode     - batch Pruefer decode, the bijective oracle of the tree tests
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import ResourceCapError
from .graphs import Graph, bridge_mask, reach

# there is no compiled path; perfbench/run.py records this flag with its results
HAVE_NUMBA = False


def pair_endpoints(n: int, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-indexed endpoints (pu, pv) of the edge bits b = pv (pv - 1) / 2 + pu,
    pu < pv < n."""
    first = np.arange(n, dtype=np.int64)
    first = first * (first - 1) // 2  # the lowest bit of each pv
    pv = np.searchsorted(first, bits, side="right") - 1
    return bits - first[pv], pv


def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-indexed endpoints (pu[b], pv[b]) of edge bit b, in bit order."""
    return pair_endpoints(n, np.arange(n * (n - 1) // 2, dtype=np.int64))


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
    extending the slice by one vertex needs.  bridges (bridge count) is
    computed on request.  masks (int64) holds the edge masks of the rows
    where they are not the consecutive masks of a whole slice (forest_slice).
    """

    kappa: np.ndarray
    edges: np.ndarray
    mindeg2: np.ndarray
    deg0: np.ndarray | None = None
    deg1: np.ndarray | None = None
    roots: np.ndarray | None = None
    bridges: np.ndarray | None = None
    masks: np.ndarray | None = None


_RECORDS: dict[int, SliceStats] = {}
_FORESTS: dict[int, SliceStats] = {}


def _record(n: int, extendable: bool = False) -> SliceStats:
    """The whole n-slice (n <= RECORD_CAP), built from the (n-1)-slice and cached.

    The vertex-set arrays are kept only once the next slice is asked for;
    a cached slice without them gains them, its other arrays reused.
    """
    rec = _RECORDS.get(n)
    if rec is None or (extendable and rec.roots is None):
        if n == 0:  # the empty graph
            zero = np.zeros(1, dtype=np.uint8)
            rec = SliceStats(zero, zero, np.ones(1, dtype=np.uint8), zero, zero,
                             np.zeros((0, 1), dtype=np.uint8), bridges=zero)
        else:
            rec = _extend(_record(n - 1, extendable=True), n, 0, 1 << (n - 1), extendable,
                          stats=rec)
        for arr in (rec.kappa, rec.edges, rec.mindeg2):
            arr.flags.writeable = False
        _RECORDS[n] = rec
    return rec


def adjacency(n: int) -> list[np.ndarray]:
    """Neighbour set of each vertex for every edge mask on n vertices."""
    adj = [np.zeros(1, dtype=np.uint8) for _ in range(n)]
    for u, v in zip(*(a.tolist() for a in pair_arrays(n))):
        adj = [np.concatenate([a, a | np.uint8(1 << v if w == u else 1 << u if w == v else 0)])
               for w, a in enumerate(adj)]
    return adj


def core_sets(n: int) -> np.ndarray:
    """Vertex set of the 2-core for every edge mask on n vertices, by peeling
    every vertex of degree <= 1 each round."""
    adj = adjacency(n)
    present = np.full(1 << (n * (n - 1) // 2), (1 << n) - 1, dtype=np.uint8)
    for _ in range(n):
        gone = np.zeros_like(present)
        for v, a in enumerate(adj):
            gone |= (np.bitwise_count(a & present) <= 1).view(np.uint8) << np.uint8(v)
        present &= ~gone
    return present


def _extend(low: SliceStats, n: int, first: int, count: int, extendable: bool = False,
            bridges: bool = False, stats: SliceStats | None = None,
            forests: bool = False) -> SliceStats:
    """The masks of the n-slice whose vertex n has the neighbour sets first,
    ..., first + count - 1 (count a power of two dividing first), from the
    (n-1)-slice `low`, which must be extendable.  The rows are ordered by
    neighbour set, then by row of `low`; the bridges need `low` whole.
    `stats`, if given, holds these rows' kappa, edges and mindeg2 already,
    and they are reused, not computed.  With `forests`, `low` holds forests
    and only the rows that stay forests are built: those whose neighbour set
    touches no component twice, since e + kappa = n + |N| - (components
    touched).  Their masks are built too.

    Adding vertex n with neighbours N merges the components N touches:
    kappa = kappa_low + 1 - (components touched).  An edge u-n is a bridge
    iff u is the only vertex of N in its component; a low edge b is one iff
    removing it raises kappa, a comparison of the two halves of
    kappa.reshape(-1, 2, 1 << b).
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
    masks = None
    if forests:  # from here on every array is one row per kept (neighbour set, low row) pair
        keep = np.flatnonzero(twice == 0)
        pick, at = np.divmod(keep, low.kappa.size)
        nbrs, once = nbrs[pick, 0], once.reshape(-1)[keep]
        masks = (pick + first) << (n - 1) * (n - 2) // 2 | low.masks[at]
        vsets = (low.deg0[at], low.deg1[at], low.roots[:, at]) if extendable else ()
        low = SliceStats(low.kappa[at], low.edges[at], None, *vsets)
    degree = np.bitwise_count(nbrs)
    if stats is None:
        kappa = low.kappa + np.uint8(1) - np.bitwise_count(once)
        if forests:  # a forest on n >= 1 vertices has a vertex of degree <= 1
            mindeg2 = np.zeros_like(kappa)
        else:
            mindeg2 = ((low.deg0 == 0) & ((low.deg1 & ~nbrs) == 0) & (degree >= 2)).view(np.uint8)
        out = SliceStats(kappa.reshape(-1), (low.edges + degree).reshape(-1), mindeg2.reshape(-1))
    else:
        out = SliceStats(stats.kappa, stats.edges, stats.mindeg2)
    out.masks = masks
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
    return out


def forest_slice(n: int, extendable: bool = False) -> SliceStats:
    """The forests on n <= LATTICE_CAP vertices: their ascending edge masks
    and the lattice's statistics of those masks, cached like the whole slices.
    Every edge of a forest is a bridge, so bridges is edges.

    A forest minus vertex n is a forest on n - 1 vertices, so the n-forests
    are the (n-1)-forests extended by the neighbour sets of vertex n that
    touch no component twice.  _extend picks those rows from the root bits
    first and then builds only them.  The neighbour set is each row's high
    bits and the outer axis of _extend, so the masks come out ascending.  The
    extension runs in blocks of neighbour sets of at most BLOCK rows (four
    at n = 8), so a block's temporaries stay bounded.
    """
    if n > LATTICE_CAP:
        raise ResourceCapError(f"the subset lattice stops at n={LATTICE_CAP}")
    rec = _FORESTS.get(n)
    if rec is None or (extendable and rec.roots is None):
        if n == 0:  # the empty graph
            rec = replace(_record(0), masks=np.zeros(1, dtype=np.int64))
        else:
            low = forest_slice(n - 1, extendable=True)
            count = min(1 << (n - 1), 1 << max(0, (BLOCK // low.kappa.size).bit_length() - 1))
            parts = [_extend(low, n, first, count, extendable, forests=True)
                     for first in range(0, 1 << (n - 1), count)]
            rec = SliceStats(**{k: np.concatenate([getattr(p, k) for p in parts], axis=-1)
                                for k, v in vars(parts[0]).items() if v is not None})
        rec.bridges = rec.edges
        for arr in (rec.kappa, rec.edges, rec.mindeg2, rec.masks):
            arr.flags.writeable = False
        _FORESTS[n] = rec
    return rec


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

    a[e, e0, k]   members with e edges, e0 of them bridges, and k components
    c[e, e0]      connected members with e edges, e0 of them bridges
    b[e, e0]      connected members with min degree >= 2, by (edges, bridges)

    Without the bridge split the bridge axis has length 1: every mask counts
    at e0 = 0.
    """

    n: int
    a: np.ndarray
    c: np.ndarray
    b: np.ndarray


def _blocks(n: int, bridges: bool):
    """(first mask, statistics) of consecutive blocks covering the n-slice:
    one block up to RECORD_CAP, blocks of BLOCK masks past it."""
    if n == 0:
        yield 0, _record(0)
        return
    low = _record(n - 1, extendable=True)
    count = min(1 << (n - 1), max(1, BLOCK // low.kappa.size))
    for first in range(0, 1 << (n - 1), count):
        yield first * low.kappa.size, _extend(low, n, first, count, bridges=bridges)


def sweep_counts(n: int, member: np.ndarray | None, mode: int,
                 want_bridges: bool = False) -> SweepCounts:
    """Aggregate exact member counts over the n-vertex edge masks, n <= LATTICE_CAP.

    The members are every mask (MODE_ALL), the forests, read from
    forest_slice alone (MODE_FORESTS), or the masks s with member[s] != 0
    (MODE_MEMBER_ARRAY); every mode but MODE_FORESTS sweeps all
    2^(n(n-1)/2) masks.  want_bridges splits every count by its bridge count e0.
    """
    if n > LATTICE_CAP:
        raise ResourceCapError(f"the subset lattice stops at n={LATTICE_CAP}")
    m = n * (n - 1) // 2
    splits = m + 1 if want_bridges else 1
    # one uint16 cell per mask, ((e * splits + e0) * (n + 2) + kappa) * 2 + mindeg2:
    # at most 16,819 (n = 8 with the bridge split)
    tally = np.zeros((m + 1) * splits * (n + 2) * 2, dtype=np.int64)
    blocks = [(0, forest_slice(n))] if mode == MODE_FORESTS else _blocks(n, want_bridges)
    for start, blk in blocks:
        cell = blk.edges.astype(np.uint16)
        if want_bridges:
            cell = cell * splits + blk.bridges
        cell = (cell * (n + 2) + blk.kappa) * 2 + blk.mindeg2
        if mode == MODE_MEMBER_ARRAY:
            cell = cell[member[start:start + cell.size] != 0]
        tally += np.bincount(cell, minlength=tally.size)
    cells = tally.reshape(m + 1, splits, n + 2, 2)
    a = cells.sum(axis=3)
    return SweepCounts(n, a, a[:, :, 1], cells[:, :, 1, 1])


def bridge_counts(n: int, masks: np.ndarray) -> np.ndarray:
    """The bridge count of each connected n-vertex edge mask (int64 array,
    n <= 11 so that a mask fits in int64).

    An edge of a connected graph is a bridge iff the graph without it is
    disconnected.  Every (mask, set edge bit) pair is tested at once: the
    neighbour bitsets of each mask less its edge are built one pair bit at a
    time, and the set reachable from vertex 0 grows through them until no
    round adds a vertex."""
    pu, pv = pair_arrays(n)
    rows, bits = np.nonzero(masks[:, None] >> np.arange(pu.size) & 1)
    cut = masks[rows] ^ np.left_shift(1, bits)
    nbrs = np.zeros((n, cut.size), dtype=np.int64)
    for b, (u, v) in enumerate(zip(pu.tolist(), pv.tolist())):
        edge = cut >> b & 1
        nbrs[u] |= edge << v
        nbrs[v] |= edge << u
    seen = np.ones_like(cut)
    while True:
        before = seen.copy()
        for w in range(n):
            seen |= -(seen >> w & 1) & nbrs[w]
        if (seen == before).all():
            break
    full = (1 << n) - 1
    return np.bincount(rows[seen != full], minlength=masks.size)


# ---------------------------------------------------------------------------
# MCMC chain
# ---------------------------------------------------------------------------


CHAIN_BLOCK = 1 << 16


def _blockwise(a: np.ndarray):
    """Iterate over `a` as Python scalars, converting CHAIN_BLOCK entries at a
    time, so a long chain never holds its whole stream as Python objects."""
    return itertools.chain.from_iterable(
        a[s:s + CHAIN_BLOCK].tolist() for s in range(0, len(a), CHAIN_BLOCK))


def _codes(proposals: np.ndarray, uniforms: np.ndarray, lo: float, hi: float, m: int):
    """The proposals as Python ints, CHAIN_BLOCK at a time, with each step's
    fixed acceptance folded in: b where the uniform passes both move ratios
    (x < lo), ~b where it passes only the larger (x < hi), m where neither.
    With lo >= 1 no uniform is read."""
    def block(s: int) -> list[int]:
        b = proposals[s:s + CHAIN_BLOCK]
        if lo < 1.0:
            x = uniforms[s:s + CHAIN_BLOCK]
            b = np.where(x < lo, b, np.where(x < hi, ~b, m))
        return b.tolist()

    return itertools.chain.from_iterable(map(block, range(0, len(proposals), CHAIN_BLOCK)))


def _runs(steps, burn_in: int, thin: int, draws: int):
    """The step stream cut into the runs after each of which a draw is kept:
    burn_in + thin steps, then thin steps per further draw."""
    counts = itertools.chain((burn_in + thin,), itertools.repeat(thin, draws - 1)) if draws else ()
    return (itertools.islice(steps, k) for k in counts)


def _first_whole(adj: list[int], a: int, b: int) -> int:
    """Grow the vertex sets a and b one search layer at a time, in turn (a
    first), through the per-vertex neighbour bitmasks adj, and return the
    first that stops growing.  When a and b lie in distinct components, that
    is the whole component of one of them, found in about twice the layers
    of the shallower one."""
    fa, fb = a, b
    while True:
        nxt = 0
        while fa:
            low = fa & -fa
            nxt |= adj[low.bit_length() - 1]
            fa ^= low
        fa = nxt & ~a
        if not fa:
            return a
        a |= fa
        a, fa, b, fb = b, fb, a, fa


def mcmc_chain(n: int, proposals: np.ndarray, uniforms: np.ndarray, lam0: float, lam1: float,
               nu: float, mode: int, member: Callable[[int], bool] | None,
               burn_in: int, thin: int, draws: int) -> list[int]:
    """Metropolis edge-toggle chain; returns the thinned post-burn-in masks.

    The target is lam0^(bridges) * lam1^(other edges) * nu^kappa over the
    members of a family closed under edge deletion, as every minor-closed
    family is: step i toggles edge bit proposals[i], and the toggle is kept
    if the new graph is a member and uniforms[i] < the ratio of the two
    weights (always, if the ratio is >= 1).  Draw j is the mask after
    burn_in + (j + 1) * thin steps.  `member` is a test on one edge mask, or
    None when every graph the mode allows is a member (MODE_ALL,
    MODE_FORESTS).  Removals never leave such a family, so the test is asked
    only about additions.  The edge mask is a Python int, so n is unbounded.

    Three loops each run only the work their steps depend on:
      * simple (nu == 1, lam0 == lam1, not forest mode): a toggle is weighed
        by lam^(+-1) alone, so new = mask ^ (1 << b) is kept if new < mask
        (a removal) or member(new); no labels, no adjacency.
      * forest (MODE_FORESTS): every forest edge is a bridge, so a removal
        splits (drop_split) and an addition merges (add_merge) or closes a
        cycle (rejected).  Presence is read from the adjacency, so a
        rejected step builds no edge bit.
      * component (otherwise): a split and a removal inside a component have
        different ratios, and with lam0 != lam1 so do a merge and an
        addition inside one.

    Fixed acceptance.  In the simple and forest loops a step's ratio is set
    by its kind, addition or removal, and one of the two ratios is >= 1:
    their exact product is 1, and both round below 1 only when lam0 and nu
    are equal or adjacent floats.  So each block of CHAIN_BLOCK steps
    decides x < min(ratio) in numpy (_codes): a code b >= 0 lets either kind
    through, ~b only the kind with the larger ratio, and m neither.  Only the
    forest loop meets m (the simple loop's ratios are lam and 1/lam, and the
    larger is >= 1 after rounding too); its pair m is a self-loop, never
    present and always closing a cycle.  These loops never turn a uniform
    into a Python float.

    The forest and component loops keep per-vertex adjacency bitmasks, a
    label per vertex, lab[w], and the vertex bitmask of each label's
    component, comp[label].  Invariant: comp[lab[w]] is the vertex set of
    w's component, and distinct components have distinct labels.  So adding
    u-v closes a cycle iff lab[u] == lab[v], with no search, and an accepted
    merge relabels the smaller component.  An accepted removal from a forest
    grows u's side and v's side one search layer at a time, in turn; the
    first side that stops growing is whole and takes a free label, so the
    search costs about twice the layers of the shallower side.  In the
    component loop the search from u that decides the ratio already stops
    at v or returns u's whole side, and a split gives a free label to the
    smaller side.  Labels are internal: which side takes the new one changes
    no mask.

    With lam0 != lam1 the component loop also keeps the bridge count: a
    merge adds one bridge and a split removes one, and a toggle inside a
    component recounts them (graphs.bridge_mask).  If it loses k bridges
    (k < 0 when it gains some), its ratio is lam1^(+-1) * (lam1/lam0)^k.
    An addition inside a component is tested for membership before the
    recount, which a non-member would waste.  It loses bridges and never
    gains any, so with lam1 <= lam0 its ratio is at most lam1, and a uniform
    >= lam1 rejects it before either; an addition to a bridgeless graph
    keeps it bridgeless.  A removal inside a component only gains bridges,
    so with lam1 > lam0 a uniform >= drop_inside rejects it unrecounted.
    """
    total = burn_in + draws * thin
    if thin < 1 or burn_in < 0 or len(proposals) < total or len(uniforms) < total:
        raise ValueError("proposal stream too short for requested draws")
    proposals, uniforms = proposals[:total], uniforms[:total]
    lam0, lam1, nu = float(lam0), float(lam1), float(nu)
    # the acceptance ratio of each toggle kind: a merge or a split toggles a
    # bridge (lam0); a toggle inside a component toggles another edge (lam1),
    # and its ratio is scaled per step by (lam1/lam0)^k for the k bridges it loses
    add_merge, add_inside, drop_split, drop_inside = (
        lam ** de * nu ** dk
        for lam, de, dk in ((lam0, 1, -1), (lam1, 1, 0), (lam0, -1, 1), (lam1, -1, 0)))
    # the forest and simple loops' fixed acceptance: a code ~b lets through
    # only the kind with the larger ratio, a removal if drop_wins
    lo, hi = sorted((add_merge, drop_split))
    drop_wins = drop_split > add_merge
    m = n * (n - 1) // 2
    runs = _runs(_codes(proposals, uniforms, lo, hi, m), burn_in, thin, draws)
    mask = 0
    out = []
    forests = mode == MODE_FORESTS
    split = lam0 != lam1  # toggles inside a component change the bridges
    if member is None:
        member = lambda s: True  # noqa: E731
    if not (forests or nu != 1.0 or split):
        for run in runs:
            for b in run:
                if b >= 0:
                    nm = mask ^ (1 << b)
                    if nm < mask or member(nm):
                        mask = nm
                else:  # only a removal (drop_wins) or only an addition may pass
                    nm = mask ^ (1 << ~b)
                    if nm < mask if drop_wins else nm > mask and member(nm):
                        mask = nm
            out.append(mask)
        return out
    vbit = [1 << w for w in range(n)]
    # (u, v, 1 << u, 1 << v) of each edge bit, in bit order; the edge bit
    # itself is shifted per step, since a table of m of them takes O(m^2) bytes
    toggles = [(u, v, vbit[u], vbit[v]) for v in range(n) for u in range(v)]
    adj = [0] * n
    lab = list(range(n))
    comp = vbit[:]
    free: list[int] = []  # the labels no component has
    if forests:
        toggles.append((0, 0, 1, 1))  # pair m, the self-loop at vertex 0
        for run in runs:
            for b in run:
                if b < 0:
                    b = ~b
                    u, v, ub, vb = toggles[b]
                    if bool(adj[u] & vb) != drop_wins:  # the kind the uniform rejects
                        continue
                else:
                    u, v, ub, vb = toggles[b]
                if adj[u] & vb:  # a removal splits
                    mask ^= 1 << b
                    adj[u] ^= vb
                    adj[v] ^= ub
                    moved = _first_whole(adj, ub, vb)
                    comp[lab[u]] ^= moved
                    label = free.pop()
                    comp[label] = moved
                    while moved:
                        low = moved & -moved
                        lab[low.bit_length() - 1] = label
                        moved ^= low
                elif lab[u] != lab[v]:  # a merge: the smaller side takes the larger one's label
                    mask ^= 1 << b
                    adj[u] |= vb
                    adj[v] |= ub
                    big, small = lab[u], lab[v]
                    if comp[big].bit_count() < comp[small].bit_count():
                        big, small = small, big
                    moved = comp[small]
                    comp[big] |= moved
                    free.append(small)
                    while moved:
                        low = moved & -moved
                        lab[low.bit_length() - 1] = big
                        moved ^= low
            out.append(mask)
        return out
    per_bridge = lam1 / lam0
    # with split, an addition inside a component with x >= inside_cut, or a
    # removal inside one with x >= drop_cut, is rejected unrecounted
    inside_cut = add_inside if per_bridge <= 1.0 else math.inf
    drop_cut = drop_inside if per_bridge > 1.0 else math.inf
    bridges = 0  # kept when split

    def relabel(vs: int, label: int):
        while vs:
            low = vs & -vs
            lab[low.bit_length() - 1] = label
            vs ^= low

    for run in _runs(zip(_blockwise(proposals), _blockwise(uniforms)), burn_in, thin, draws):
        for b, x in run:
            bit = 1 << b
            u, v, ub, vb = toggles[b]
            if mask & bit:
                adj[u] ^= vb
                adj[v] ^= ub
                side = reach(adj, ub, vb)  # u's side, once searched
                r = drop_split
                if side & vb:
                    r = drop_inside
                    if split and x < drop_cut:
                        now = bridge_mask(Graph(n, mask ^ bit)).bit_count()
                        r *= per_bridge ** (bridges - now)
                if r >= 1.0 or x < r:
                    mask ^= bit
                    if not side & vb:  # a split
                        old = lab[u]
                        rest = comp[old] ^ side
                        moved = side if side.bit_count() <= rest.bit_count() else rest
                        comp[old] ^= moved
                        label = free.pop()
                        comp[label] = moved
                        relabel(moved, label)
                        bridges -= 1
                    elif split:
                        bridges = now
                else:
                    adj[u] |= vb
                    adj[v] |= ub
            elif lab[u] == lab[v]:  # u-v closes a cycle
                # with split, the test is asked before the bridge recount
                if (x < inside_cut if split else (add_inside >= 1.0 or x < add_inside)) \
                        and member(mask ^ bit):
                    if split:
                        now = bridge_mask(Graph(n, mask ^ bit)).bit_count() if bridges else 0
                        r = add_inside * per_bridge ** (bridges - now)
                    if not split or r >= 1.0 or x < r:
                        mask ^= bit
                        adj[u] |= vb
                        adj[v] |= ub
                        if split:
                            bridges = now
            elif (add_merge >= 1.0 or x < add_merge) and member(mask ^ bit):
                mask ^= bit
                adj[u] |= vb
                adj[v] |= ub
                # the smaller component takes the larger one's label
                big, small = lab[u], lab[v]
                if comp[big].bit_count() < comp[small].bit_count():
                    big, small = small, big
                comp[big] |= comp[small]
                relabel(comp[small], big)
                free.append(small)
                bridges += 1
        out.append(mask)
    return out


# ---------------------------------------------------------------------------
# tree series
# ---------------------------------------------------------------------------


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """log n! for an array of positive integers held as floats.

    Stirling's series with four correction terms is within 4 ulp of
    math.lgamma(n + 1) from n = 16 on (checked up to 10^6), and its
    truncation error shrinks like n^-9; smaller n take math.lgamma itself.
    """
    r = 1.0 / n
    r2 = r * r
    out = (n + 0.5) * np.log(n) - n + 0.5 * math.log(2 * math.pi) \
        + r * (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 / 1680)))
    small = n < 16
    out[small] = [math.lgamma(k + 1.0) for k in n[small].tolist()]
    return out


def tree_series_sum(N: int, lam: float, x: float, nu: float, rooted: bool) -> float:
    """Partial sum (N terms) of the weighted tree / rooted-tree series at x:
    the sum over n <= N of nu * n^(n-2) * lam^(n-1) * x^n / n!, with n^(n-1)
    in place of n^(n-2) for rooted trees.

    The terms are summed in chunks of 65,536, the first of them in five
    pieces of 4,096, 4,096, 8,192, 16,384 and 32,768 terms.  These are
    numpy's pairwise halves of 65,536 terms, so the running total after the
    fifth piece has the bits of one np.sum over them.  With lam * e * x <= 1
    the sum stops after the first chunk whose last term is 0.0: the log-terms
    satisfy lt(n+1) - lt(n) = log(lam x) + (n-2) log(1 + 1/n) < log(lam x e)
    <= 0 ((n-1) in place of (n-2) when rooted), so every later term is 0.0
    too and every later chunk would add exactly 0.0.  A sum whose terms
    underflow early thus holds 4,096 terms at a time, not 65,536.  With
    N < 65,536 the N terms are one chunk."""
    log_lam, log_x, log_nu = math.log(lam), math.log(x), math.log(nu)
    decreasing = lam * math.e * x <= 1.0
    total = 0.0
    if N >= 65536:
        starts = [1, 4097, 8193, 16385, 32769, *range(65537, N + 1, 65536)]
    else:
        starts = [1] if N > 0 else []
    for start, stop in zip(starts, starts[1:] + [N + 1]):
        n = np.arange(start, stop, dtype=np.float64)
        log_n = np.log(n)
        lt = log_nu + (n - 1.0) * log_lam + n * log_x + (n - 2.0) * log_n - _log_factorial(n)
        if rooted:
            lt = lt + log_n
        terms = np.exp(lt)
        total += float(np.sum(terms))
        if decreasing and terms[-1] == 0.0:
            break
    return total


# ---------------------------------------------------------------------------
# Pruefer decode
# ---------------------------------------------------------------------------


def prufer_decode(seqs: np.ndarray) -> np.ndarray:
    """Decode parent sequences (draws, n-2) into tree edge lists (draws, n-1, 2).

    The decoding is the classical bijection between sequences over [n]^(n-2)
    and labelled trees on [n]; endpoints are 0-indexed.  Every row follows
    the smallest-leaf rule at once: edge i joins the least vertex of degree 1,
    found by an argmax over the whole (draws, n) degree matrix, to
    seqs[:, i], and the last edge joins the two vertices of degree 1 left.
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


def random_walk_tree(uniforms: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Labelled trees from pre-drawn randomness, by Aldous's random-walk
    construction (Aldous 1990): edge lists (draws, n-1, 2) of 0-indexed
    endpoints u < v, one edge per vertex 1..n-1 in that order.

    uniforms (draws, n-2) holds integers in [0, n) and perm (draws, n) one
    permutation of range(n) per row.  Vertex 1 joins vertex 0, and vertex
    c >= 2 joins min(uniforms[:, c-2], c-1): the uniform vertex if it came
    earlier, else vertex c-1.  Every label is then mapped through its row's
    permutation.  Each of the n^(n-2) labelled trees arises from exactly n!
    of the n^(n-2) n! inputs, so uniform inputs give a uniform tree at a cost
    linear in its size.
    """
    draws, n = perm.shape
    parent = np.zeros((draws, n - 1), dtype=np.int64)
    np.minimum(uniforms, np.arange(1, n - 1), out=parent[:, 1:])
    parent += np.arange(0, draws * n, n, dtype=np.int64)[:, None]  # flat indices into perm
    ends, child = perm.reshape(-1)[parent], perm[:, 1:]
    edges = np.empty((draws, n - 1, 2), dtype=np.int64)
    np.minimum(ends, child, out=edges[:, :, 0])
    np.maximum(ends, child, out=edges[:, :, 1])
    return edges
