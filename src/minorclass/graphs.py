"""Labelled simple graphs on {1..n} and their structural invariants.

Vertices are labelled 1..n in the public API.  Internally a graph is a pair
(n, mask) where ``mask`` packs the edge set into one integer: the edge
{u, v} with u < v occupies bit (v-1)(v-2)/2 + (u-1).  A graph on n vertices
uses the low n(n-1)/2 bits, which is what makes exhaustive enumeration over
edge-set integers cheap elsewhere in the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple


def pair_count(n: int) -> int:
    """Number of vertex pairs on n vertices, i.e. the width of the edge mask."""
    return n * (n - 1) // 2


def pair_bit(u: int, v: int) -> int:
    """Bit index of the edge {u, v} (1-indexed labels, order irrelevant)."""
    if u == v:
        raise ValueError("self-loops are not allowed")
    if u > v:
        u, v = v, u
    return (v - 1) * (v - 2) // 2 + (u - 1)


_PAIR_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}


def pairs(n: int) -> tuple[tuple[int, int], ...]:
    """All vertex pairs (u, v), u < v, 1-indexed, in bit-index order."""
    got = _PAIR_CACHE.get(n)
    if got is None:
        got = tuple((u, v) for v in range(2, n + 1) for u in range(1, v))
        _PAIR_CACHE[n] = got
    return got


def set_bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative integer, ascending.

    Reads the binary string once, so the cost stays linear in the width even
    for masks of tens of thousands of bits (clearing one bit at a time would
    copy the whole integer per bit).
    """
    digits = bin(mask)[:1:-1]
    out = []
    b = digits.find("1")
    while b >= 0:
        out.append(b)
        b = digits.find("1", b + 1)
    return out


def vertex_labels(vmask: int) -> tuple[int, ...]:
    """1-indexed labels of the vertices in a vertex bitmask (bit v = vertex v+1), ascending."""
    return tuple(b + 1 for b in set_bits(vmask))


class Graph:
    """Simple labelled graph on vertex set {1, .., n}; n = 0 is the empty graph."""

    __slots__ = ("n", "mask", "_adj")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if mask < 0 or mask >> pair_count(n):
            raise ValueError("edge mask has bits outside the n-vertex range")
        self.n = n
        self.mask = mask
        self._adj: tuple[int, ...] | None = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        mask = 0
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside vertex range 1..{n}")
            mask |= 1 << pair_bit(u, v)
        return cls(n, mask)

    # -- basic accessors ---------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as 1-indexed (u, v) pairs with u < v, sorted."""
        ps = pairs(self.n)
        return tuple(sorted(ps[b] for b in set_bits(self.mask)))

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.mask >> pair_bit(u, v) & 1)

    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitmask per 0-indexed vertex (bit w set = adjacent to w+1)."""
        if self._adj is None:
            adj = [0] * self.n
            ps = pairs(self.n)
            for b in set_bits(self.mask):
                u, v = ps[b]
                adj[u - 1] |= 1 << (v - 1)
                adj[v - 1] |= 1 << (u - 1)
            self._adj = tuple(adj)
        return self._adj

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adjacency())

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def add_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self.mask | 1 << pair_bit(u, v))

    def remove_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self.mask & ~(1 << pair_bit(u, v)))

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


class InducedSubgraph(NamedTuple):
    """A relabelled induced subgraph plus the original labels of its vertices.

    ``vertices[i]`` is the original label of the new vertex i+1 (the relabelling
    is the increasing bijection).
    """

    graph: Graph
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class RootedGraph:
    """A connected graph with a distinguished root vertex."""

    graph: Graph
    root: int = 1

    def __post_init__(self):
        if self.graph.n < 1:
            raise ValueError("rooted graph needs at least one vertex")
        if not (1 <= self.root <= self.graph.n):
            raise ValueError("root outside vertex range")
        if component_count(self.graph) != 1:
            raise ValueError("rooted graph must be connected")


class Weighting:
    """Edge/component weights (lambda0, lambda1, nu) defining the cluster weight.

    The base model is the diagonal lambda0 == lambda1 == lambda; use
    :meth:`extended` to split bridge and non-bridge edge parameters.
    Parameters may be ints, Fractions or floats; rational inputs keep all
    downstream weight sums exact.
    """

    __slots__ = ("lambda0", "lambda1", "nu")

    def __init__(self, lam, nu):
        self.lambda0 = self.lambda1 = _check_positive("lambda", lam)
        self.nu = _check_positive("nu", nu)

    @classmethod
    def extended(cls, lambda0, lambda1, nu) -> "Weighting":
        w = cls.__new__(cls)
        w.lambda0 = _check_positive("lambda0", lambda0)
        w.lambda1 = _check_positive("lambda1", lambda1)
        w.nu = _check_positive("nu", nu)
        return w

    @property
    def is_diagonal(self) -> bool:
        return self.lambda0 == self.lambda1

    @property
    def lam(self):
        if not self.is_diagonal:
            raise ValueError("lam is only defined for a diagonal weighting")
        return self.lambda0

    def cell_weight(self, e0: int, e1: int, kappa: int):
        """The weight lambda0^e0 * lambda1^e1 * nu^kappa of a graph with e0
        bridges, e1 other edges and kappa components."""
        return self.lambda0 ** e0 * self.lambda1 ** e1 * self.nu ** kappa

    @property
    def is_rational(self) -> bool:
        return all(isinstance(x, (int, Fraction)) for x in (self.lambda0, self.lambda1, self.nu))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Weighting)
            and (self.lambda0, self.lambda1, self.nu) == (other.lambda0, other.lambda1, other.nu)
        )

    def __hash__(self) -> int:
        return hash((self.lambda0, self.lambda1, self.nu))

    def __repr__(self) -> str:
        if self.is_diagonal:
            return f"Weighting(lam={self.lambda0}, nu={self.nu})"
        return f"Weighting.extended({self.lambda0}, {self.lambda1}, {self.nu})"


def _check_positive(name, value):
    if isinstance(value, float) and value != value:  # NaN
        raise ValueError(f"{name} must be a positive number")
    if value <= 0:
        raise ValueError(f"{name} must be strictly positive")
    return value


# -- components ------------------------------------------------------------


def reach(adj, seeds: int, stop: int = 0) -> int:
    """Vertex mask reachable from the vertex mask `seeds` through the
    per-vertex neighbour bitmasks `adj`.

    The search stops at the first layer that meets a vertex of `stop`, so the
    mask it then returns contains that vertex but may be incomplete.
    """
    seen = frontier = seeds
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        if nxt & stop:
            return seen | nxt
        frontier = nxt & ~seen
        seen |= nxt
    return seen


def component_masks(g: Graph) -> list[int]:
    """Vertex bitmasks of the components, ordered by least vertex."""
    adj = g.adjacency()
    rest = (1 << g.n) - 1
    comps = []
    while rest:
        comp = reach(adj, rest & -rest)
        comps.append(comp)
        rest &= ~comp
    return comps


def component_count(g: Graph) -> int:
    """Number of connected components; 0 for the empty graph."""
    return len(component_masks(g))


def is_connected(g: Graph) -> bool:
    return component_count(g) == 1


def every_graph(g: Graph) -> bool:
    """The predicate of the family of all graphs: every graph is a member."""
    return True


def is_forest(g: Graph) -> bool:
    """Acyclic check: a graph is a forest iff e = n - (number of components)."""
    return g.edge_count == g.n - component_count(g)


# -- bridges ---------------------------------------------------------------


def bridge_mask(g: Graph) -> int:
    """Edge mask of the bridges (edges whose removal raises the component count)."""
    adj = list(g.adjacency())
    ps = pairs(g.n)
    out = 0
    for b in set_bits(g.mask):
        u, v = ps[b]
        ub, vb = 1 << (u - 1), 1 << (v - 1)
        adj[u - 1] ^= vb
        adj[v - 1] ^= ub
        if not reach(adj, ub, vb) & vb:
            out |= 1 << b
        adj[u - 1] |= vb
        adj[v - 1] |= ub
    return out


def bridge_partition(g: Graph) -> tuple[int, int]:
    """(number of bridges, number of non-bridge edges)."""
    e0 = bridge_mask(g).bit_count()
    return e0, g.edge_count - e0


# -- induced subgraphs, 2-core, big/frag -----------------------------------


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> InducedSubgraph:
    """Induced subgraph on the given 1-indexed labels, relabelled increasingly."""
    labels = tuple(sorted(set(vertices)))
    for u in labels:
        if not (1 <= u <= g.n):
            raise ValueError(f"vertex {u} outside range")
    mask = 0
    for j in range(len(labels)):
        for i in range(j):
            if g.has_edge(labels[i], labels[j]):
                mask |= 1 << pair_bit(i + 1, j + 1)
    return InducedSubgraph(Graph(len(labels), mask), labels)


def core_mask(adj, present: int) -> int:
    """Vertex mask of the 2-core of the subgraph induced on the vertex mask
    `present` (`adj` as for reach): what is left after repeatedly deleting the
    vertices with at most one neighbour left."""
    while True:
        removed = 0
        rest = present
        while rest:
            low = rest & -rest
            if (adj[low.bit_length() - 1] & present).bit_count() <= 1:
                removed |= low
            rest ^= low
        if not removed:
            return present
        present &= ~removed


def two_core(g: Graph) -> InducedSubgraph:
    """The unique maximal subgraph of minimum degree >= 2 (empty iff g is a forest)."""
    return induced_subgraph(g, vertex_labels(core_mask(g.adjacency(), (1 << g.n) - 1)))


def big_frag_split(g: Graph) -> tuple[InducedSubgraph, InducedSubgraph]:
    """Split into the big component and the fragments.

    The big component is the one with the most vertices; ties go to the
    component whose sorted vertex-label sequence is lexicographically least
    (equivalently, the one containing the smallest label among the tied
    components, since components are disjoint).
    """
    if g.n < 1:
        raise ValueError("big/frag split needs at least one vertex")
    comps = component_masks(g)
    # component_masks orders by least vertex, and max returns the first of equal maxima
    best = max(comps, key=lambda c: c.bit_count())
    rest = ((1 << g.n) - 1) & ~best
    return induced_subgraph(g, vertex_labels(best)), induced_subgraph(g, vertex_labels(rest))


# -- weights ---------------------------------------------------------------


def weight(g: Graph, w: Weighting):
    """Cluster weight w.cell_weight(e0, e1, kappa).  On the diagonal the
    bridges are not counted: every edge goes to e0 (e0 = e, e1 = 0)."""
    e0, e1 = bridge_partition(g) if not w.is_diagonal else (g.edge_count, 0)
    return w.cell_weight(e0, e1, component_count(g))


# -- unions and stock graphs ------------------------------------------------


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on vertices 1..g.n and h shifted to g.n+1..g.n+h.n.

    An edge's bit depends only on its endpoints, so g's mask carries over
    unchanged and only h's edges are placed.
    """
    mask = g.mask
    for u, v in h.edges:
        mask |= 1 << pair_bit(u + g.n, v + g.n)
    return Graph(g.n + h.n, mask)


def copies(g: Graph, k: int) -> Graph:
    """Disjoint union of k copies of g."""
    out = Graph(0, 0)
    for _ in range(k):
        out = disjoint_union(out, g)
    return out


def empty_graph(n: int = 0) -> Graph:
    return Graph(n, 0)


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, (1 << pair_count(n)) - 1)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(1, i) for i in range(2, leaves + 2)])


# -- pendant appearances -----------------------------------------------------


def _appearance_sites(g: Graph, h: RootedGraph) -> list[tuple[int, int]]:
    """(vertex mask, root edge bit) for each pendant appearance of h in g."""
    k = h.graph.n
    if k >= g.n:
        raise ValueError("pendant appearances need v(h) < v(g)")
    target = h.graph.mask
    adj = g.adjacency()
    sites = []
    for combo in itertools.combinations(range(g.n), k):
        wmask = 0
        for v in combo:
            wmask |= 1 << v
        # the increasing bijection must map h onto the induced subgraph
        sub = 0
        for j in range(k):
            for i in range(j):
                bit = g.mask >> pair_bit(combo[i] + 1, combo[j] + 1) & 1
                sub |= bit << pair_bit(i + 1, j + 1)
        if sub != target:
            continue
        # exactly one edge leaves W, and it leaves from the least element
        root = combo[0]
        out_root = adj[root] & ~wmask
        if out_root.bit_count() != 1:
            continue
        if any(adj[v] & ~wmask for v in combo[1:]):
            continue
        nbr = out_root.bit_length() - 1
        sites.append((wmask, pair_bit(root + 1, nbr + 1)))
    return sites


def pendant_appearances(g: Graph, h: RootedGraph) -> int:
    """Number of vertex sets W where h appears pendantly in g (attached at min W)."""
    return len(_appearance_sites(g, h))


def overlapping_pendant_appearances(g: Graph, h: RootedGraph) -> int:
    """Pendant appearances of h sharing a vertex or the root edge with another one."""
    sites = _appearance_sites(g, h)
    count = 0
    for i, (wm, re) in enumerate(sites):
        for j, (wm2, re2) in enumerate(sites):
            if i != j and (wm & wm2 or re == re2):
                count += 1
                break
    return count


# -- text format -------------------------------------------------------------


def graph_to_text(g: Graph, hex_form: bool = False) -> str:
    """Serialize: first line n, then either 'u v' edge lines or one hex mask line."""
    lines = [str(g.n)]
    if hex_form:
        lines.append(f"hex {g.mask:x}")
    else:
        lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph text")
    n = int(lines[0])
    if len(lines) == 2 and lines[1].lower().startswith("hex"):
        return Graph(n, int(lines[1].split()[1], 16))
    edges = []
    for ln in lines[1:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    return Graph.from_edges(n, edges)
