"""Canonical codes, automorphism counts and an isomorphism oracle.

Canonical form: vertex colours are refined by iterated neighbour-colour
multisets (1-dimensional Weisfeiler-Leman); the candidate orderings are the
ones listing colour classes in their refined order with arbitrary order inside
a class, and the canonical edge mask is the maximum relabelled mask over those
orderings.  The refinement is isomorphism-invariant, so the maximum is too.
Automorphisms preserve the refined colouring, so their number equals the
number of orderings that reach the maximum, and one branch-and-bound search
finds the maximum and counts those orderings.  Swapping two twins (vertices
with the same neighbours apart from each other) is an automorphism, so the
search lists every twin class in index order only and multiplies the count by
the factorial of each class size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ResourceCapError
from .graphs import Graph, pair_bit, pair_count

DEFAULT_VERTEX_CAP = 9


@dataclass(frozen=True)
class CanonicalCode:
    """Isomorphism-invariant identifier of an unlabelled graph."""

    code: bytes

    @property
    def hex(self) -> str:
        return self.code.hex()

    @classmethod
    def from_hex(cls, s: str) -> "CanonicalCode":
        return cls(bytes.fromhex(s))

    def __repr__(self) -> str:
        return f"CanonicalCode({self.hex})"


def _refine_colors(n: int, adj: tuple[int, ...]) -> list[int]:
    """Stable vertex colours under iterated degree/neighbour-colour refinement."""
    colors = [adj[v].bit_count() for v in range(n)]
    while True:
        sigs = []
        for v in range(n):
            nb = []
            m = adj[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                nb.append(colors[w])
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _row_bits(adj_v: int, order: list[int]) -> int:
    """Adjacency of v to the already-placed vertices, earliest position most significant."""
    r = 0
    for u in order:
        r = (r << 1) | (adj_v >> u & 1)
    return r


def _twin_classes(n: int, adj: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """(previous twin of each vertex or -1, size of each twin class).

    Twins have the same neighbours apart from each other; being twins is an
    equivalence relation, and swapping two twins is an automorphism.
    """
    prev = [-1] * n
    sizes = []
    placed = [False] * n
    for u in range(n):
        if placed[u]:
            continue
        last, size = u, 1
        for w in range(u + 1, n):
            if not placed[w] and adj[u] & ~(1 << w) == adj[w] & ~(1 << u):
                prev[w], last, size = last, w, size + 1
                placed[w] = True
        sizes.append(size)
    return prev, sizes


def _search_max_rows(n, adj, class_of_pos, members_by_class, prev_twin):
    """(maximum row sequence, number of orderings achieving it) over the
    class-respecting orderings that list every twin class in index order.

    Branch and bound: a prefix is cut only when it is smaller than the
    incumbent's, so every ordering equal to the final maximum is counted.
    """
    best: list[int] = []
    count = 0
    order: list[int] = []
    rows: list[int] = []
    used = [False] * n

    def dfs(p: int, tight: bool) -> bool:
        """tight: the prefix equals the incumbent's.  Returns whether the
        incumbent changed, after which the prefix equals the new one."""
        nonlocal best, count
        if p == n:
            if tight:
                count += 1
                return False
            best, count = rows.copy(), 1
            return True
        changed = False
        for v in members_by_class[class_of_pos[p]]:
            if used[v] or (prev_twin[v] >= 0 and not used[prev_twin[v]]):
                continue
            r = _row_bits(adj[v], order)
            if tight and r < best[p]:
                continue
            used[v] = True
            order.append(v)
            rows.append(r)
            if dfs(p + 1, tight and r == best[p]):
                tight = changed = True
            rows.pop()
            order.pop()
            used[v] = False
        return changed

    dfs(0, False)
    return best, count


@functools.lru_cache(maxsize=1 << 18)
def _canon_data(n: int, mask: int) -> tuple[int, int]:
    """(canonical edge mask, automorphism count) for the graph (n, mask)."""
    if n == 0:
        return 0, 1
    g = Graph(n, mask)
    adj = g.adjacency()
    colors = _refine_colors(n, adj)
    if len(set(colors)) == n:
        # discrete colouring: one candidate ordering, trivial automorphism group
        order = sorted(range(n), key=colors.__getitem__)
        rows = [_row_bits(adj[v], order[:p]) for p, v in enumerate(order)]
        aut = 1
    else:
        classes = sorted(set(colors))
        members_by_class = {c: [v for v in range(n) if colors[v] == c] for c in classes}
        class_of_pos = []
        for c in classes:
            class_of_pos.extend([c] * len(members_by_class[c]))
        prev_twin, twin_sizes = _twin_classes(n, adj)
        rows, aut = _search_max_rows(n, adj, class_of_pos, members_by_class, prev_twin)
        for t in twin_sizes:
            aut *= math.factorial(t)
    canon_mask = 0
    for p in range(n):
        # row bit for earlier position i sits at offset p-1-i; mask bit index is pair_bit
        for i in range(p):
            if rows[p] >> (p - 1 - i) & 1:
                canon_mask |= 1 << pair_bit(i + 1, p + 1)
    return canon_mask, aut


def code_of(n: int, canon_mask: int) -> CanonicalCode:
    """The code of the n-vertex graph whose canonical edge mask is canon_mask."""
    nbytes = max(1, (pair_count(n) + 7) // 8)
    return CanonicalCode(bytes([n]) + canon_mask.to_bytes(nbytes, "big"))


def canonicalize(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> CanonicalCode:
    """Canonical code of g; equal codes iff isomorphic graphs."""
    if g.n > cap:
        raise ResourceCapError(f"canonicalize: {g.n} vertices exceeds cap {cap}")
    canon_mask, _ = _canon_data(g.n, g.mask)
    return code_of(g.n, canon_mask)


def automorphism_count(g: Graph, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Order of the automorphism group, by exhaustive colour-respecting search."""
    if g.n > cap:
        raise ResourceCapError(f"automorphism_count: {g.n} vertices exceeds cap {cap}")
    _, aut = _canon_data(g.n, g.mask)
    return aut


def isomorphic_bruteforce(g: Graph, h: Graph) -> bool:
    """Permutation-based isomorphism oracle, independent of the canonical code path."""
    import itertools

    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    gadj = g.adjacency()
    hadj = h.adjacency()
    for perm in itertools.permutations(range(g.n)):
        ok = True
        for v in range(g.n):
            img = 0
            m = gadj[v]
            while m:
                w = (m & -m).bit_length() - 1
                m &= m - 1
                img |= 1 << perm[w]
            if img != hadj[perm[v]]:
                ok = False
                break
        if ok:
            return True
    return False
