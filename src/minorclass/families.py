"""Graph families (minor-closed classes and friends) and bounded-scale
verification of their structural closure properties.

A family is given either by a finite list of excluded minors or by a built-in
predicate; built-ins also carry their excluded-minor description so the two
routes can be cross-checked.  All verification here is at bounded scale: it
certifies behaviour up to a vertex count and reports, never claims unbounded
truth.  The closure checks are whole-array passes over the membership arrays
of each order, with no per-graph membership call.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from ._kernels import core_sets, subset_stats
from .errors import ResourceCapError
from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    component_masks,
    copies,
    core_mask,
    cycle_graph,
    disjoint_union,
    every_graph,
    graph_from_text,
    induced_subgraph,
    is_connected,
    is_forest,
    pair_bit,
    pair_count,
    pairs,
    reach,
    vertex_labels,
)
from .minors import has_minor

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
    """Planarity.  A graph is planar iff each component is, and deleting a
    vertex of degree <= 1 or suppressing one of degree 2 keeps a graph planar
    or non-planar.  So a component whose 2-core has at most 4 branch vertices
    (_branch_vertices) is planar: the suppressed multigraph has a simple graph
    on at most 4 vertices underneath it.  Only the 2-core of a component with
    5 or more branch vertices goes to networkx, imported there alone."""
    if g.n <= 4:
        return True
    if g.edge_count > 3 * g.n - 6:
        return False
    adj = g.adjacency()
    for comp in component_masks(g):
        core = core_mask(adj, comp)
        if _branch_vertices(adj, core).bit_count() <= 4:
            continue
        import networkx as nx

        ng = nx.Graph(induced_subgraph(g, vertex_labels(core)).graph.edges)
        if not nx.check_planarity(ng)[0]:
            return False
    return True


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


def _branch_vertices(adj: tuple[int, ...], core: int) -> int:
    """Vertex mask of the branch vertices of the 2-core `core`: those with at
    least 3 neighbours in it."""
    branch = 0
    rest = core
    while rest:
        low = rest & -rest
        if (adj[low.bit_length() - 1] & core).bit_count() >= 3:
            branch |= low
        rest ^= low
    return branch


def _core_cycles(adj: tuple[int, ...], core: int) -> list[int]:
    """Vertex masks, among the branch vertices, of the minimal cycles of the
    connected 2-core `core` with its degree-2 vertices suppressed.

    The branch vertices are those of core degree >= 3; every path of degree-2
    vertices (or edge) between two of them becomes one edge of a multigraph.
    Two cycles of the core are disjoint iff their branch vertex sets are, and
    every cycle's branch set contains a loop {b}, a digon {b, c} (two such
    paths) or an induced cycle of the simple graph on the branch vertices, so
    those are the masks returned.  A core without branch vertices is one
    cycle.  Only the induced-cycle enumeration is capped.
    """
    branch = _branch_vertices(adj, core)
    if not branch:
        return [core] if core else []
    joined = [0] * len(adj)
    short = []
    rest = branch
    while rest:
        b = rest & -rest
        rest ^= b
        ends: dict[int, int] = {}  # far end of each path leaving b -> path count
        first = adj[b.bit_length() - 1] & core
        while first:
            prev, cur = b, first & -first
            first ^= cur
            while not cur & branch:  # follow the path through its degree-2 vertices
                prev, cur = cur, adj[cur.bit_length() - 1] & core & ~prev
            ends[cur] = ends.get(cur, 0) + 1
        for c, k in ends.items():
            if c == b:
                short.append(b)  # a loop, met once from each of its ends
            else:
                joined[b.bit_length() - 1] |= c
                if k >= 2 and c > b:
                    short.append(b | c)
    return short + _induced_cycles(joined, branch)


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
    on its own, with what is left of the stop_at budget.  Every cycle lies in
    the 2-core, so only the minimal cycles of each component's 2-core are
    searched (_core_cycles), and the enumeration cap applies to its branch
    vertices.
    """
    adj = g.adjacency()
    total = 0
    for comp in component_masks(g):
        if stop_at is not None and total >= stop_at:
            break
        core = core_mask(adj, comp)
        total += _most_disjoint(_core_cycles(adj, core), core,
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
    _code_memo: dict = field(default_factory=dict, repr=False)
    _member_arrays: dict = field(default_factory=dict, repr=False)

    @property
    def memoize_membership(self) -> bool:
        """Whether base_member keys a canonical memo: only for families
        decided by minor search, where one search costs more than the key."""
        return self.predicate is None

    def base_member(self, g: Graph) -> bool:
        """Membership ignoring the connected-only view.  A predicate
        is called directly; the excluded-minor search is memoized by the
        canonical code of g up to CANON_MEMO_CAP vertices."""
        if self.predicate is not None:
            return self.predicate(g)
        key = None
        if g.n <= CANON_MEMO_CAP:
            from .canon import canonicalize

            key = canonicalize(g).code
            hit = self._code_memo.get(key)
            if hit is not None:
                return hit
        verdict = all(not has_minor(g, m) for m in self.excluded_minors)
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
            predicate=every_graph,
            flags=_TRUE_FLAGS,
        )
    if name == "forests":
        return GraphFamily(
            "forests",
            excluded_minors=(cycle_graph(3),),
            predicate=is_forest,
            flags=_TRUE_FLAGS,
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


def excluded_minor_family(name: str, minors: tuple[Graph, ...],
                          flags: FamilyFlags | None = None) -> GraphFamily:
    return GraphFamily(
        name,
        excluded_minors=tuple(minors),
        flags=flags if flags is not None else derive_flags(tuple(minors)),
    )


def _check_keys(data, known: set[str], what: str):
    """Raise ValueError, naming them, for the keys of `data` outside `known`."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must hold a JSON object, got {type(data).__name__}")
    if set(data) - known:
        raise ValueError(f"{what} has unknown keys: {sorted(set(data) - known)}")


def load_family(path: str | pathlib.Path) -> GraphFamily:
    """Family definition file: {name, excluded_minors: [graph files], flags: {...}}.

    A declared flag (true, false or null) replaces the one derive_flags gives.
    An unknown key or flag name, or a flag of another value, is a ValueError
    naming it."""
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    _check_keys(data, {"name", "excluded_minors", "flags"}, str(path))
    flags = data.get("flags", {})
    _check_keys(flags, {f.name for f in fields(FamilyFlags)}, f"the flags of {path}")
    for key, value in flags.items():
        if value is not None and not isinstance(value, bool):
            raise ValueError(f"flag {key!r} of {path} must be true, false or null, got {value!r}")
    minors = tuple(
        graph_from_text((path.parent / p).read_text()) for p in data.get("excluded_minors", [])
    )
    return GraphFamily(data["name"], excluded_minors=minors,
                       flags=replace(derive_flags(minors), **flags))


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


def _induced_images(masks: np.ndarray, n: int, vset: int) -> np.ndarray:
    """Edge masks of the subgraphs that the n-vertex edge masks `masks` induce
    on the vertex set vset (bit v = vertex v+1), relabelled 1..|vset| in
    increasing order as `induced_subgraph` does."""
    if vset == (1 << n) - 1:
        return masks
    labels = vertex_labels(vset)
    img = np.zeros_like(masks)
    for j, (x, y) in enumerate(pairs(len(labels))):
        img |= (masks >> pair_bit(labels[x - 1], labels[y - 1]) & 1) << j
    return img


def verify_bridge_addable(fam: GraphFamily, n_max: int = 6) -> VerificationReport:
    """Check: member + edge between two components is still a member.

    One whole-array pass per pair bit b of each slice: a member without b
    fails when adding b merges two components (the component count drops)
    and the mask with b is not a member.  The counterexample is the least
    failing mask of the least order, joined by its first failing pair u-v,
    with u in the earlier component (components ordered by least vertex).
    """
    from .enumeration import member_mask_array

    for n in range(1, n_max + 1):
        member = member_mask_array(fam, n)
        if member is None:
            continue
        kappa = subset_stats(n).kappa
        least = None
        for b in range(pair_count(n)):
            ok, k = member.reshape(-1, 2, 1 << b), kappa.reshape(-1, 2, 1 << b)
            fail = np.flatnonzero((ok[:, 0] != 0) & (ok[:, 1] == 0) & (k[:, 1] < k[:, 0]))
            if fail.size:
                # entry i * 2^b + j of the halves is the mask i * 2^(b+1) + j
                first = int(fail[0] >> b << (b + 1) | fail[0] & ((1 << b) - 1))
                least = first if least is None else min(least, first)
        if least is not None:
            g = Graph(n, least)
            comp = {v: i for i, c in enumerate(component_masks(g)) for v in vertex_labels(c)}
            joins = []
            for b, (x, y) in enumerate(pairs(n)):
                bigger = least | 1 << b
                if bigger != least and kappa[bigger] < kappa[least] and not member[bigger]:
                    (cu, u), (cv, v) = sorted([(comp[x], x), (comp[y], y)])
                    joins.append((cu, cv, u, v))
            _, _, u, v = min(joins)
            return VerificationReport("bridge-addable", fam.name, n_max, False,
                                      counterexample=(g, u, v))
    return VerificationReport("bridge-addable", fam.name, n_max, True)


def verify_decomposable(fam: GraphFamily, n_max: int = 6) -> VerificationReport:
    """Check both directions of: a graph is a member iff each component is.

    Whole-array passes over each slice, one per vertex set S: S is a
    component of a mask iff no edge leaves S and the subgraph induced on S is
    connected, and that component is a member iff its relabelled induced mask
    is one at order |S|.  The masks with no edge leaving S are listed
    directly, ascending, as every union of pairs inside S and pairs outside
    it (2^(C(|S|,2) + C(n-|S|,2)) masks, not all 2^C(n,2)).  The
    counterexample is the least failing mask of the least order.
    """
    from .enumeration import _or_images, member_mask_array

    for n in range(1, n_max + 1):
        member = member_mask_array(fam, n)
        if member is None:
            continue
        partwise = np.ones(len(member), dtype=bool)
        for vset in range(1, 1 << n):
            k = vset.bit_count()
            at = _or_images([1 << b for b, (x, y) in enumerate(pairs(n))
                             if not (vset >> (x - 1) ^ vset >> (y - 1)) & 1])
            img = _induced_images(at, n, vset)
            bad = (subset_stats(k).kappa[img] == 1) & (member_mask_array(fam, k)[img] == 0)
            partwise[at[bad]] = False
        fail = np.flatnonzero(partwise != (member != 0))
        if fail.size:
            whole = bool(member[fail[0]])
            return VerificationReport(
                "decomposable", fam.name, n_max, False,
                counterexample=(Graph(n, int(fail[0])),),
                details="member but a component is not" if whole else
                        "all components are members but the union is not",
            )
    return VerificationReport("decomposable", fam.name, n_max, True)


def verify_trimmable(fam: GraphFamily, n_max: int = 6) -> VerificationReport:
    """Direct check of G-in iff Core(G)-in, plus the excluded-minor shortcut.

    Whole-array passes over each slice: the 2-core's vertex set of every mask
    comes from peeling all masks at once, and the 2-core is a member iff its
    relabelled induced mask is one at its order.  The counterexample is the
    least failing mask of the least order.
    """
    from .enumeration import member_mask_array

    counterexample = None
    for n in range(1, n_max + 1):
        member = member_mask_array(fam, n)
        if member is None:
            continue
        core = core_sets(n)
        # the masks grouped by core vertex set, each group ascending
        order = np.argsort(core, kind="stable")
        bounds = [0, *np.cumsum(np.bincount(core, minlength=1 << n)).tolist()]
        core_member = np.empty(len(member), dtype=bool)
        for vset in range(1 << n):
            at = order[bounds[vset]:bounds[vset + 1]]
            img = _induced_images(at, n, vset)
            core_member[at] = member_mask_array(fam, vset.bit_count())[img] != 0
        fail = np.flatnonzero(core_member != (member != 0))
        if fail.size:
            counterexample = (Graph(n, int(fail[0])),)
            break
    direct_ok = counterexample is None
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


def _member_classes(fam: GraphFamily, n_max: int) -> dict[bytes, Graph]:
    """The unlabelled members of order <= n_max: each class's canonical code
    and its first labelled member in (order, mask) order.  An n_max past
    where member_masks stops raises ResourceCapError before any member is
    canonicalized."""
    from .canon import canonicalize
    from .enumeration import check_listing, member_masks

    check_listing(fam, n_max)
    reps: dict[bytes, Graph] = {}
    for n in range(n_max + 1):
        for mask in member_masks(fam, n, connected=False).tolist():
            g = Graph(n, mask)
            reps.setdefault(canonicalize(g).code, g)
    return reps


def freely_addable_at_scale(h: Graph, fam: GraphFamily, n_max: int = 5) -> FreelyAddableVerdict:
    """Check that g + h (disjoint union) stays in the family for members g up
    to n_max, one g per unlabelled class (_member_classes).  An n_max past
    where member_masks stops raises ResourceCapError at once."""
    for g in _member_classes(fam, n_max).values():
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
    member is ever reported as both.  The classes are listed once
    (_member_classes, as freely_addable_at_scale lists them), so each
    labelled member is canonicalized once, and each labelled graph the
    checks of limited_at_scale and freely_addable_at_scale build is asked
    about once: copies(g, 2) is the union of g with itself, and the union
    with the empty class is g.  An n_max past where member_masks stops
    raises ResourceCapError before any member is canonicalized.
    """
    classes = _member_classes(fam, n_max)
    ask = functools.cache(fam.base_member)
    out = []
    for code, g in sorted(classes.items(), key=lambda kv: (kv[1].n, kv[0])):
        if g.n == 0:
            continue
        # g is a member: it was listed from the family's members
        least = next((k for k in range(2, k_max + 1) if not ask(copies(g, k))), None)
        if least is not None:
            out.append(DichotomyEntry(g, code.hex(), "limited-with-k", least))
        elif all(ask(disjoint_union(m, g)) for m in classes.values()):
            out.append(DichotomyEntry(g, code.hex(), "freely-addable-at-scale"))
        else:
            out.append(DichotomyEntry(g, code.hex(), "undetermined"))
    return out
