"""Exact minor containment by exhaustive branch-set search.

A graph h is a minor of g iff g carries a "model" of h: disjoint connected
vertex sets (branch sets), one per vertex of h, with an edge of g between the
branch sets of every edge of h.  The search places branch sets one h-vertex at
a time in an order where each new vertex (after the first of its component)
has an already-placed neighbour, and enumerates candidate branch sets by
connected growth with an exclusion discipline so no set is generated twice.
Disconnected h is handled directly, which is needed for excluded minors like
disjoint unions of triangles.

The search is exact; a fixed node budget, DEFAULT_BUDGET, read at each call,
guards against blow-up on larger inputs.
"""

from __future__ import annotations

from .errors import ResourceCapError
from .graphs import Graph, component_masks

DEFAULT_BUDGET = 10_000_000


def _h_order(h: Graph) -> list[tuple[int, int]]:
    """(vertex, BFS-parent-or-minus-1) in placement order.

    Components are placed largest first; inside a component the order is a
    BFS from a max-degree vertex, so every later vertex names a neighbour
    already placed.  Isolated vertices are left out (handled as spares).
    """
    adj = h.adjacency()
    comps = sorted(component_masks(h), key=lambda c: -c.bit_count())
    order: list[tuple[int, int]] = []
    placed: set[int] = set()
    for comp in comps:
        members = [v for v in range(h.n) if comp >> v & 1]
        if len(members) == 1:
            continue
        start = max(members, key=lambda v: adj[v].bit_count())
        queue = [start]
        order.append((start, -1))
        placed.add(start)
        while queue:
            v = queue.pop(0)
            m = adj[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                if w not in placed:
                    placed.add(w)
                    order.append((w, v))
                    queue.append(w)
    return order


def has_minor(g: Graph, h: Graph) -> bool:
    """True iff h is a minor of g.  Raises ResourceCapError when the search
    visits more than DEFAULT_BUDGET nodes."""
    if h.n == 0:
        return True
    if h.n > g.n or h.edge_count > g.edge_count:
        return False
    if h.edge_count == 0:
        return True  # edgeless h with h.n <= g.n

    gadj = g.adjacency()
    hadj = h.adjacency()
    order = _h_order(h)
    spares = h.n - len(order)  # isolated h-vertices become unused g-vertices
    if len(order) + spares > g.n:
        return False

    full = (1 << g.n) - 1
    branch = [0] * h.n
    nodes = [0]

    def neighbours_of_set(s: int) -> int:
        out = 0
        m = s
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            out |= gadj[v]
        return out & ~s

    def place(idx: int, used: int) -> bool:
        if idx == len(order):
            return True
        nodes[0] += 1
        if nodes[0] > DEFAULT_BUDGET:
            raise ResourceCapError("minor-test search budget exceeded")
        hv, parent = order[idx]
        req = [branch[w] for w in range(h.n) if hadj[hv] >> w & 1 and branch[w]]
        remaining_after = len(order) - idx - 1
        max_size = g.n - used.bit_count() - remaining_after - spares
        if max_size < 1:
            return False
        free = full & ~used

        def grow(s: int, ext: int) -> bool:
            nodes[0] += 1
            if nodes[0] > DEFAULT_BUDGET:
                raise ResourceCapError("minor-test search budget exceeded")
            nbrs = neighbours_of_set(s)
            if all(nbrs & r for r in req):
                branch[hv] = s
                if place(idx + 1, used | s):
                    return True
                branch[hv] = 0
            if s.bit_count() >= max_size:
                return False
            cand = nbrs & ext
            excl = 0
            while cand:
                v = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                excl |= 1 << v
                if grow(s | 1 << v, ext & ~excl):
                    return True
            return False

        if parent == -1:
            seed_pool = free
        else:
            seed_pool = neighbours_of_set(branch[parent]) & free
        excl = 0
        seeds = seed_pool
        while seeds:
            v = (seeds & -seeds).bit_length() - 1
            seeds &= seeds - 1
            excl |= 1 << v
            if grow(1 << v, free & ~excl):
                return True
        return False

    return place(0, 0)
