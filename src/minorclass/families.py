"""Graph families (minor-closed classes and friends) and bounded-scale
verification of their structural closure properties.

A family is given either by a finite list of excluded minors or by a built-in
predicate; built-ins also carry their excluded-minor description so the two
routes can be cross-checked.  All verification here is at bounded scale: it
certifies behaviour up to a vertex count and reports, never claims unbounded
truth.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import networkx as nx

from .errors import ResourceCapError
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    component_masks,
    copies,
    cycle_graph,
    disjoint_union,
    graph_from_text,
    induced_subgraph,
    is_connected,
    is_forest,
    pair_bit,
    pairs,
    reach,
    two_core,
    vertex_labels,
)
from .minors import DEFAULT_BUDGET, has_minor

CANON_MEMO_CAP = 9


@dataclass(frozen=True)
class FamilyFlags:
    """Declared closure properties; None means undeclared/unknown."""

    bridge_addable: Optional[bool] = None
    decomposable: Optional[bool] = None
    addable: Optional[bool] = None
    trimmable: Optional[bool] = None


def is_biconnected(g: Graph) -> bool:
    """2-connected: at least 3 vertices, connected, and no cut vertex."""
    if g.n < 3 or not is_connected(g):
        return False
    for v in range(1, g.n + 1):
        rest = [u for u in range(1, g.n + 1) if u != v]
        if not is_connected(induced_subgraph(g, rest).graph):
            return False
    return True


def derive_flags(excluded_minors: tuple[Graph, ...]) -> FamilyFlags:
    """Flags implied by the excluded minors of a proper minor-closed family."""
    if not excluded_minors:
        return FamilyFlags()
    decomposable = all(is_connected(m) for m in excluded_minors)
    addable = all(is_biconnected(m) for m in excluded_minors)
    trimmable = all(m.min_degree() >= 2 for m in excluded_minors)
    return FamilyFlags(
        bridge_addable=True if addable else None,
        decomposable=decomposable,
        addable=addable,
        trimmable=trimmable,
    )


# -- built-in predicates -----------------------------------------------------


def _planar_predicate(g: Graph) -> bool:
    if g.n <= 4:
        return True
    if g.edge_count > 3 * g.n - 6:
        return False
    ng = nx.Graph()
    ng.add_nodes_from(range(1, g.n + 1))
    ng.add_edges_from(g.edges)
    ok, _ = nx.check_planarity(ng)
    return ok


def _no_k4_minor(g: Graph) -> bool:
    """Series-parallel test: reduce by leaf deletion and degree-2 smoothing.

    Every graph of minimum degree >= 3 contains a K4 subdivision, and both
    reductions preserve K4-minor-freeness, so g has no K4 minor iff the
    reduction empties the graph.  Parallel edges created by smoothing are
    collapsed, which cannot create or destroy a K4 minor.
    """
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        adj[u - 1].add(v - 1)
        adj[v - 1].add(u - 1)
    changed = True
    while changed and adj:
        changed = False
        for v in list(adj):
            deg = len(adj[v])
            if deg <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                del adj[v]
                changed = True
            elif deg == 2:
                a, b = adj[v]
                adj[a].discard(v)
                adj[b].discard(v)
                adj[a].add(b)
                adj[b].add(a)
                del adj[v]
                changed = True
    return not adj


def _induced_cycles(adj: tuple[int, ...], within: int) -> list[int]:
    """Vertex masks of the induced cycles (connected 2-regular induced
    subgraphs) inside the vertex mask `within`, ascending."""
    if within.bit_count() > 15:
        raise ResourceCapError("induced-cycle enumeration capped at 15 vertices")
    out = []
    vm = 0
    while True:
        vm = (vm - within) & within  # the next submask of `within`
        if not vm:
            return out
        if vm.bit_count() < 3:
            continue
        m = vm
        while m:  # stops at a vertex without exactly two neighbours in vm
            low = m & -m
            if (adj[low.bit_length() - 1] & vm).bit_count() != 2:
                break
            m ^= low
        if not m and reach([a & vm for a in adj], vm & -vm) == vm:
            out.append(vm)


def _most_disjoint(cycles: list[int], avail: int, stop_at: int | None) -> int:
    """Most pairwise disjoint masks among `cycles` inside `avail`; the search
    ends once stop_at are found."""

    def best(start: int, avail: int, found: int) -> int:
        if stop_at is not None and found >= stop_at:
            return found
        top = found
        for i in range(start, len(cycles)):
            c = cycles[i]
            if c & ~avail:
                continue
            got = best(i + 1, avail & ~c, found + 1)
            if got > top:
                top = got
                if stop_at is not None and top >= stop_at:
                    return top
        return top

    return best(0, avail, 0)


def max_disjoint_cycles(g: Graph, stop_at: int | None = None) -> int:
    """Maximum number of vertex-disjoint cycles (any cycle contains an induced one).

    The maximum is the sum over the components, so each component is searched
    on its own, with what is left of the stop_at budget.
    """
    adj = g.adjacency()
    total = 0
    for comp in component_masks(g):
        if stop_at is not None and total >= stop_at:
            break
        total += _most_disjoint(_induced_cycles(adj, comp), comp,
                                None if stop_at is None else stop_at - total)
    return total


# -- the family type ---------------------------------------------------------


@dataclass
class GraphFamily:
    """A graph family: excluded minors and/or a built-in membership predicate.

    ``connected_only`` marks the connected-members view (the "trees" view of
    forests); such a view is not itself minor-closed and is excluded from the
    every-family-contains-the-empty-graph convention.
    """

    name: str
    excluded_minors: tuple[Graph, ...] = ()
    predicate: Optional[Callable[[Graph], bool]] = None
    flags: FamilyFlags = field(default_factory=FamilyFlags)
    connected_only: bool = False
    minor_budget: int = DEFAULT_BUDGET
    memoize_membership: bool = True
    _code_memo: dict = field(default_factory=dict, repr=False)
    _member_arrays: dict = field(default_factory=dict, repr=False)

    def base_member(self, g: Graph) -> bool:
        """Membership ignoring the connected-only view."""
        if self.predicate is not None and not self.memoize_membership:
            return self.predicate(g)
        key = None
        if self.memoize_membership and g.n <= CANON_MEMO_CAP:
            from .canon import canonicalize

            key = canonicalize(g).code
            hit = self._code_memo.get(key)
            if hit is not None:
                return hit
        if self.predicate is not None:
            verdict = self.predicate(g)
        else:
            verdict = all(not has_minor(g, m, self.minor_budget) for m in self.excluded_minors)
        if key is not None:
            self._code_memo[key] = verdict
        return verdict

    def member(self, g: Graph) -> bool:
        if self.connected_only and not is_connected(g):
            return False
        return self.base_member(g)

    def __hash__(self):
        return id(self)


def member(fam: GraphFamily, g: Graph) -> bool:
    """True iff g belongs to the family (minor-free of all excluded minors)."""
    return fam.member(g)


# -- built-ins ---------------------------------------------------------------

_TRUE_FLAGS = FamilyFlags(True, True, True, True)


def builtin_family(name: str) -> GraphFamily:
    """Built-ins: all, forests, trees, planar, series-parallel, ex-k-disjoint-cycles:k."""
    if name == "all":
        return GraphFamily(
            "all",
            predicate=lambda g: True,
            flags=_TRUE_FLAGS,
            memoize_membership=False,
        )
    if name == "forests":
        return GraphFamily(
            "forests",
            excluded_minors=(cycle_graph(3),),
            predicate=is_forest,
            flags=_TRUE_FLAGS,
            memoize_membership=False,
        )
    if name == "trees":
        fam = builtin_family("forests")
        fam.name = "trees"
        fam.connected_only = True
        return fam
    if name == "planar":
        return GraphFamily(
            "planar",
            excluded_minors=(complete_graph(5), complete_bipartite(3, 3)),
            predicate=_planar_predicate,
            flags=_TRUE_FLAGS,
        )
    if name == "series-parallel":
        return GraphFamily(
            "series-parallel",
            excluded_minors=(complete_graph(4),),
            predicate=_no_k4_minor,
            memoize_membership=False,
            flags=_TRUE_FLAGS,
        )
    if name.startswith("ex-k-disjoint-cycles:"):
        k = int(name.split(":", 1)[1])
        if k < 0:
            raise ValueError("k must be non-negative")
        flags = FamilyFlags(
            bridge_addable=True,
            decomposable=(k == 0),
            addable=(k == 0),
            trimmable=True,
        )
        return GraphFamily(
            name,
            excluded_minors=(copies(cycle_graph(3), k + 1),),
            predicate=lambda g, k=k: max_disjoint_cycles(g, stop_at=k + 1) <= k,
            flags=flags,
        )
    raise ValueError(f"unknown built-in family: {name!r}")


def excluded_minor_family(name: str, minors: tuple[Graph, ...], flags: FamilyFlags | None = None,
                          budget: int = DEFAULT_BUDGET) -> GraphFamily:
    return GraphFamily(
        name,
        excluded_minors=tuple(minors),
        flags=flags if flags is not None else derive_flags(tuple(minors)),
        minor_budget=budget,
    )


def load_family(path: str | pathlib.Path) -> GraphFamily:
    """Family definition file: {name, excluded_minors: [graph files], flags: {...}}."""
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    minors = tuple(
        graph_from_text((path.parent / p).read_text()) for p in data.get("excluded_minors", [])
    )
    flags_in = data.get("flags", {})
    derived = derive_flags(minors)
    flags = FamilyFlags(
        bridge_addable=flags_in.get("bridge_addable", derived.bridge_addable),
        decomposable=flags_in.get("decomposable", derived.decomposable),
        addable=flags_in.get("addable", derived.addable),
        trimmable=flags_in.get("trimmable", derived.trimmable),
    )
    return GraphFamily(data["name"], excluded_minors=minors, flags=flags)


def family_from_spec(spec: str) -> GraphFamily:
    """Resolve a CLI family argument: built-in name or path to a JSON definition."""
    if spec.endswith(".json"):
        return load_family(spec)
    return builtin_family(spec)


# -- bounded-scale verification ----------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    property_name: str
    family: str
    n_max: int
    holds: bool
    counterexample: Optional[tuple] = None
    details: str = ""


def _member_masks(fam: GraphFamily, n: int):
    """Member edge masks at order n (ascending), using the enumeration sweep."""
    from .enumeration import member_mask_array
    import numpy as np

    arr = member_mask_array(fam, n)
    if arr is None:
        return range(1 << len(pairs(n)))
    return np.nonzero(arr)[0].tolist()


def verify_bridge_addable(fam: GraphFamily, n_max: int = 6) -> VerificationReport:
    """Check: member + edge between two components is still a member."""
    from .enumeration import member_mask_array

    for n in range(1, n_max + 1):
        arr = member_mask_array(fam, n)
        for mask in _member_masks(fam, n):
            g = Graph(n, mask)
            comps = component_masks(g)
            if len(comps) < 2:
                continue
            for ci in range(len(comps)):
                for cj in range(ci + 1, len(comps)):
                    mu = comps[ci]
                    while mu:
                        u = (mu & -mu).bit_length() - 1
                        mu &= mu - 1
                        mv = comps[cj]
                        while mv:
                            v = (mv & -mv).bit_length() - 1
                            mv &= mv - 1
                            bigger = mask | 1 << pair_bit(u + 1, v + 1)
                            ok = arr[bigger] if arr is not None else True
                            if not ok:
                                return VerificationReport(
                                    "bridge-addable", fam.name, n_max, False,
                                    counterexample=(g, u + 1, v + 1),
                                )
    return VerificationReport("bridge-addable", fam.name, n_max, True)


def verify_decomposable(fam: GraphFamily, n_max: int = 6) -> VerificationReport:
    """Check both directions of: a graph is a member iff each component is."""
    from .enumeration import member_mask_array

    for n in range(1, n_max + 1):
        arr = member_mask_array(fam, n)
        for mask in range(1 << len(pairs(n))):
            g = Graph(n, mask)
            whole = bool(arr[mask]) if arr is not None else fam.base_member(g)
            partwise = all(
                fam.base_member(induced_subgraph(g, vertex_labels(c)).graph)
                for c in component_masks(g)
            )
            if whole != partwise:
                return VerificationReport(
                    "decomposable", fam.name, n_max, False,
                    counterexample=(g,),
                    details="member but a component is not" if whole else
                            "all components are members but the union is not",
                )
    return VerificationReport("decomposable", fam.name, n_max, True)


def verify_trimmable(fam: GraphFamily, n_max: int = 6) -> VerificationReport:
    """Direct check of G-in iff Core(G)-in, plus the excluded-minor shortcut."""
    from .enumeration import member_mask_array

    direct_ok = True
    counterexample = None
    for n in range(1, n_max + 1):
        arr = member_mask_array(fam, n)
        for mask in range(1 << len(pairs(n))):
            g = Graph(n, mask)
            whole = bool(arr[mask]) if arr is not None else fam.base_member(g)
            core = two_core(g).graph
            if whole != fam.base_member(core):
                direct_ok = False
                counterexample = (g,)
                break
        if not direct_ok:
            break
    if fam.excluded_minors:
        shortcut = all(m.min_degree() >= 2 for m in fam.excluded_minors)
        agree = shortcut == direct_ok
        details = f"excluded-minor shortcut says {shortcut}; agreement={agree}"
    else:
        details = "no excluded-minor description; direct check only"
    return VerificationReport(
        "trimmable", fam.name, n_max, direct_ok, counterexample=counterexample, details=details
    )


@dataclass(frozen=True)
class LimitedVerdict:
    limited_with_k: Optional[int]  # least k with k copies outside the family
    k_max: int

    @property
    def is_limited(self) -> bool:
        return self.limited_with_k is not None


def limited_at_scale(h: Graph, fam: GraphFamily, k_max: int = 4) -> LimitedVerdict:
    """Least k <= k_max such that k disjoint copies of h leave the family."""
    if not fam.base_member(h):
        raise ValueError("h must be a member of the family")
    for k in range(2, k_max + 1):
        if not fam.base_member(copies(h, k)):
            return LimitedVerdict(k, k_max)
    return LimitedVerdict(None, k_max)


@dataclass(frozen=True)
class FreelyAddableVerdict:
    holds_up_to: Optional[int]
    counterexample: Optional[Graph]

    @property
    def holds_at_scale(self) -> bool:
        return self.counterexample is None


def freely_addable_at_scale(h: Graph, fam: GraphFamily, n_max: int = 5) -> FreelyAddableVerdict:
    """Check that g + h (disjoint union) stays in the family for members g up to n_max."""
    from .canon import canonicalize

    seen = set()
    for n in range(0, n_max + 1):
        for mask in _member_masks(fam, n):
            g = Graph(n, mask)
            code = canonicalize(g).code
            if code in seen:
                continue
            seen.add(code)
            if not fam.base_member(disjoint_union(g, h)):
                return FreelyAddableVerdict(None, g)
    return FreelyAddableVerdict(n_max, None)


@dataclass(frozen=True)
class DichotomyEntry:
    rep: Graph
    code_hex: str
    classification: str  # "freely-addable-at-scale" | "limited-with-k" | "undetermined"
    limited_k: Optional[int] = None


def dichotomy_scan(fam: GraphFamily, n_max: int = 4, k_max: int = 4) -> list[DichotomyEntry]:
    """Classify every unlabelled member up to n_max as freely-addable (at scale),
    limited (with its least k), or undetermined.

    A limited certificate wins over a freely-addable non-refutation, so no
    member is ever reported as both.
    """
    from .canon import canonicalize

    reps: dict[bytes, Graph] = {}
    for n in range(1, n_max + 1):
        for mask in _member_masks(fam, n):
            g = Graph(n, mask)
            code = canonicalize(g).code
            if code not in reps:
                reps[code] = g
    out = []
    for code, g in sorted(reps.items(), key=lambda kv: (kv[1].n, kv[0])):
        lim = limited_at_scale(g, fam, k_max)
        if lim.is_limited:
            out.append(DichotomyEntry(g, code.hex(), "limited-with-k", lim.limited_with_k))
            continue
        free = freely_addable_at_scale(g, fam, n_max)
        if free.holds_at_scale:
            out.append(DichotomyEntry(g, code.hex(), "freely-addable-at-scale"))
        else:
            out.append(DichotomyEntry(g, code.hex(), "undetermined"))
    return out
