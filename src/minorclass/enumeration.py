"""Exact weighted counting over all labelled graphs of a given order.

The brute-force sweep aggregates integer counts by (edges, components,
bridges, ...) over every edge mask of a slice in one lattice pass (each
n-slice is built from the cached (n-1)-slice, see `_kernels`), and only then
applies the weighting, so rational parameters give exact rational totals.
Every exact per-mask weight comes from the same cells: `mask_cells` reads
each member's (edges, bridges, components) from the lattice and weighs each
occupied cell once (`Weighting.cell_weight`), and the exact sampler and the
fragment law gather or tally over the cells, building no Graph per mask.

Membership arrays for excluded-minor families come from a one-step-minor
dynamic program with no per-graph search: a graph is a member iff it is not
isomorphic to a listed minor and every graph one deletion or contraction
below it is a member.  Contractions and vertex deletions are OR-linear maps
on the edge mask, looked up in the cached array of the order below: each
contraction only over the half of the masks that hold its edge, each vertex
deletion only over the masks where that vertex is isolated (with a
neighbour u, G - v is a subgraph of G/uv up to isomorphism).  Edge deletions
are closed by a subset-AND pass over the lattice.  A minor of the slice's own
order is excluded at its edge mask under all n! vertex permutations, so the
DP canonicalizes nothing.  Forests are read from `_kernels.forest_slice`
instead, and the family of all graphs needs no membership at all;
`lattice_mode` picks a family's route.

The unlabelled census grows by canonical augmentation: each class of order
n-1 is joined to a new vertex by the nonempty neighbour sets that take the
lowest-indexed members of each of its twin classes, each result is looked up
in the n-slice membership array (in the forest masks for the forests), and a
member is canonicalized only when its new vertex has the largest (degree,
neighbour-degree sum) among its non-cut vertices (McKay's canonical
deletion), never every labelled member.  Each class is kept as its order,
canonical mask and automorphism count, weighed by `UnlabelledCensus.weights`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from . import _kernels
from .canon import (
    _canon_data,
    _twin_classes,
    automorphism_count,
    canonicalize,
)
from .errors import ResourceCapError
from .graphs import (
    Graph,
    Weighting,
    bridge_mask,
    component_masks,
    every_graph,
    induced_subgraph,
    is_forest,
    pair_bit,
    pair_count,
    pairs,
    vertex_labels,
    weight,
)

if TYPE_CHECKING:  # pragma: no cover
    from .families import GraphFamily


def lattice_mode(fam: "GraphFamily") -> int:
    """How the lattice sweeps the family, decided by its predicate, never its
    name: every mask (MODE_ALL), the forest slice alone (MODE_FORESTS), or
    the family's membership array (MODE_MEMBER_ARRAY)."""
    if fam.predicate is every_graph:
        return _kernels.MODE_ALL
    if fam.predicate is is_forest:
        return _kernels.MODE_FORESTS
    return _kernels.MODE_MEMBER_ARRAY


def member_mask_array(fam: "GraphFamily", n: int) -> np.ndarray | None:
    """uint8 membership (base family, ignoring connected-only views) for every
    edge mask on n vertices; None means every graph is a member."""
    mode = lattice_mode(fam)
    if mode == _kernels.MODE_ALL:
        return None
    cached = fam._member_arrays.get(n)
    if cached is not None:
        return cached
    if mode == _kernels.MODE_FORESTS:
        if n > _kernels.RECORD_CAP:
            raise ResourceCapError(f"whole-slice statistics stop at n={_kernels.RECORD_CAP}; "
                                   "sweep_counts streams larger slices")
        arr = np.zeros(1 << pair_count(n), dtype=np.uint8)
        arr[_kernels.forest_slice(n).masks] = 1
    else:
        arr = _minor_closed_member_array(fam, n)
    fam._member_arrays[n] = arr
    return arr


def _check_caps(fam: "GraphFamily", n: int):
    """Raise ResourceCapError when the slice n is past the lattice cap or,
    for a family swept by membership array, past the array cap."""
    if n > _kernels.LATTICE_CAP:
        raise ResourceCapError(f"brute force is limited to n <= {_kernels.LATTICE_CAP}")
    if n > _kernels.RECORD_CAP and lattice_mode(fam) == _kernels.MODE_MEMBER_ARRAY:
        raise ResourceCapError(
            f"membership arrays for minor-tested families stop at n={_kernels.RECORD_CAP}; "
            "only forests and all are swept past it"
        )


def _or_images(images: list[int]) -> np.ndarray:
    """An OR-linear map on masks, given the image of each bit, evaluated at
    every mask over those bits in mask order: the OR of a subset table of the
    low half of the bits with one of the high half."""
    tables = []
    for part in (images[:len(images) // 2], images[len(images) // 2:]):
        table = np.zeros(1, dtype=np.intp)
        for img in part:
            table = np.concatenate([table, table | img])
        tables.append(table)
    low, high = tables
    return np.bitwise_or.outer(high, low).ravel()


def _minor_closed_member_array(fam: "GraphFamily", n: int) -> np.ndarray:
    """One-step-minor DP.  G is in Ex(M) iff G is isomorphic to no listed minor
    and every graph one step below it is a member: each single-edge deletion,
    each edge contraction and each vertex deletion.

    The contraction of pair b is looked up in the cached (n-1)-vertex array
    only for the 2^(m-1) masks that hold b, the half-block
    ok.reshape(-1, 2, 1 << b)[:, 1, :].  The deletion of vertex v is looked
    up only for the 2^pair_count(n-1) masks where v is isolated: for a
    neighbour u of v, G - v is isomorphic to a subgraph of G/uv, and the
    (n-1)-array is closed under isomorphism and edge deletion, so G/uv
    answers for G - v.  The edge deletions are closed by one subset-AND pass
    over the lattice.  The graphs isomorphic to a listed minor H with n
    vertices are H's images under the n! vertex permutations (at most 5,040
    at the array cap).
    """
    _check_caps(fam, n)
    if fam.predicate is not None and not fam.excluded_minors:
        raise ValueError(f"family {fam.name!r} has no excluded minors to build its array from")
    m = pair_count(n)
    ok = np.ones(1 << m, dtype=bool)
    if n:
        prev = member_mask_array(fam, n - 1) != 0
        ps = pairs(n)
        for b, (u, v) in enumerate(ps):
            phi = {w: u if w == v else w - (w > v) for w in range(1, n + 1)}  # v merged into u
            held = ok.reshape(-1, 2, 1 << b)[:, 1, :]
            held &= prev[_or_images([1 << pair_bit(phi[x], phi[y])
                                     for c, (x, y) in enumerate(ps) if c != b])].reshape(held.shape)
        for v in range(1, n + 1):
            # where G - v has mask p, G has p's edges relabelled past v
            isolated = _or_images([1 << pair_bit(x + (x >= v), y + (y >= v)) for x, y in pairs(n - 1)])
            ok[isolated] &= prev
    same_order = [h for h in fam.excluded_minors if h.n == n]
    if same_order:
        # every labelling of a same-order minor: its edges under all n! permutations
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        bit = np.zeros((n, n), dtype=np.int64)
        for b, (u, v) in enumerate(pairs(n)):
            bit[u - 1, v - 1] = bit[v - 1, u - 1] = b
        for h in same_order:
            relabelled = np.zeros(len(perms), dtype=np.int64)
            for u, v in h.edges:
                relabelled |= np.int64(1) << bit[perms[:, u - 1], perms[:, v - 1]]
            ok[relabelled] = False
    for b in range(m):
        half = ok.reshape(-1, 2, 1 << b)
        half[:, 1, :] &= half[:, 0, :]
    return ok.astype(np.uint8)


def _connected_members(fam: "GraphFamily", n: int) -> np.ndarray:
    """Boolean selector over the masks at order n: the connected members."""
    sel = _kernels.subset_stats(n).kappa == 1
    arr = member_mask_array(fam, n)
    if arr is not None:
        sel &= arr != 0
    return sel


def member_masks(fam: "GraphFamily", n: int, connected: bool | None = None) -> np.ndarray:
    """Ascending int64 array of the member edge masks at order n (read-only
    for all the forests); optionally only connected ones.  Past RECORD_CAP
    only the forests are listed, else ResourceCapError."""
    if connected is None and fam.connected_only:
        connected = True
    if lattice_mode(fam) == _kernels.MODE_FORESTS:
        rows = _kernels.forest_slice(n)
        return rows.masks[rows.kappa == 1] if connected else rows.masks
    if connected:
        return np.flatnonzero(_connected_members(fam, n))
    arr = member_mask_array(fam, n)
    if arr is not None:
        return np.flatnonzero(arr)
    if n > _kernels.RECORD_CAP:
        raise ResourceCapError(f"listing every graph stops at n={_kernels.RECORD_CAP}")
    return np.arange(1 << pair_count(n))


def mask_cells(fam: "GraphFamily", w: Weighting, n: int,
               masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each member edge mask's cell (e * (m + 1) + e0) * (n + 1) + kappa, from
    the lattice (e edges, e0 bridges, counted only if lambda0 != lambda1, kappa
    components; m = pair_count(n)), or for a forest e0 = e and kappa = n - e,
    and the weight of each occupied cell, one w.cell_weight call per cell, in
    an object array (0 elsewhere)."""
    if lattice_mode(fam) == _kernels.MODE_FORESTS:
        e = np.bitwise_count(masks).astype(np.int64)
        e0, kappa = e, n - e
    else:
        stats = _kernels.subset_stats(n)
        e, kappa, e0 = stats.edges[masks].astype(np.int64), stats.kappa[masks], 0
        if not w.is_diagonal:
            (_, block), = _kernels._blocks(n, True)
            e0 = block.bridges[masks]
    cells = (e * (pair_count(n) + 1) + e0) * (n + 1) + kappa
    weights = np.zeros(cells.max(initial=-1) + 1, dtype=object)
    for cell in np.flatnonzero(np.bincount(cells)).tolist():
        e, e0 = divmod(cell // (n + 1), pair_count(n) + 1)
        weights[cell] = w.cell_weight(e0, e - e0, cell % (n + 1))
    return cells, weights


# -- weighted totals ---------------------------------------------------------


def _simplify(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _as_exact(x):
    if isinstance(x, int):
        return Fraction(x)
    return x


class TauTriple(NamedTuple):
    """(a, c, b) totals: all members / connected / connected with min degree >= 2."""

    a: object
    c: object
    b: object


def brute_force_tau(fam: "GraphFamily", w: Weighting, n: int) -> TauTriple:
    """Exact (tau(A_n), tau(C_n), tau(B_n)) by exhaustive enumeration.

    The lattice stops at n = 8, where all 2^28 masks are streamed in blocks
    and the forests are read from their slice; a family swept by membership
    array stops at n = 7 (ResourceCapError).
    Each column sums count * w.cell_weight(e0, e - e0, k) over the sweep's
    cells (e edges, e0 bridges, k components; e0 = 0 unless lam0 != lam1).
    For a connected-members view the a-column equals the c-column.
    """
    _check_caps(fam, n)
    mode = lattice_mode(fam)
    member = member_mask_array(fam, n) if mode == _kernels.MODE_MEMBER_ARRAY else None
    counts = _kernels.sweep_counts(n, member, mode, want_bridges=not w.is_diagonal)

    def tau(cells: np.ndarray):
        """Sum over the nonzero cells [e, e0, k] of a, or [e, e0] of c and b,
        whose members all have k = 1."""
        total = 0
        for cell in np.argwhere(cells).tolist():
            e, e0, k = cell if len(cell) == 3 else (*cell, 1)
            total += int(cells[tuple(cell)]) * w.cell_weight(e0, e - e0, k)
        return _simplify(total or 0)

    a, c, b = tau(counts.a), tau(counts.c), tau(counts.b)
    if fam.connected_only:
        a = c
    return TauTriple(a, c, b)


# -- exponential formula -------------------------------------------------------


def egf_lift(c: Sequence, n_max: int | None = None) -> list:
    """Lift a connected weight sequence to the all-graph sequence via A' = C'A.

    Uses the coefficient recurrence a_n = sum_k binom(n-1,k-1)*c_k*a_{n-k},
    which is n*a_n = sum_k k*binom(n,k)*c_k*a_{n-k} divided by n; with no
    division it is exact for integers and Fractions alike.  c[0] must be 0.
    """
    if n_max is None:
        n_max = len(c) - 1
    if len(c) < n_max + 1:
        raise ValueError("connected sequence shorter than requested range")
    if c[0] != 0:
        raise ValueError("c_0 must be 0")
    a: list = [1]
    for n in range(1, n_max + 1):
        a.append(_simplify(sum(math.comb(n - 1, k - 1) * c[k] * a[n - k]
                               for k in range(1, n + 1))))
    return a


def cayley_tree_weights(w: Weighting, n_max: int) -> list:
    """tau of the labelled trees per order: n^(n-2) * lam^(n-1) * nu (0 for n=0).

    Tree edges are all bridges, so lam here is the bridge parameter lambda0.
    """
    out = [0]
    for n in range(1, n_max + 1):
        out.append(_simplify(n ** max(n - 2, 0) * w.lambda0 ** (n - 1) * w.nu))
    return out


# -- tables --------------------------------------------------------------------


@dataclass
class WeightTable:
    """Exact weighted counts tau(A_n), tau(C_n), tau(B_n) for n = 0..N."""

    family: str
    weighting: Weighting
    a: list
    c: list
    b: list

    @property
    def n_max(self) -> int:
        return len(self.a) - 1

    def ratios(self, column: str = "a") -> list:
        return ratio_sequence(getattr(self, column))

    def growth_estimates(self, column: str = "a") -> list:
        vals = getattr(self, column)
        out = [None]
        for n in range(1, len(vals)):
            v = vals[n]
            out.append(None if v == 0 else float(_as_float_log_scaled(v, n)))
        return out


def _as_float_log_scaled(v, n: int) -> float:
    """(v / n!)^(1/n) computed in log space so huge exact integers stay finite."""
    if isinstance(v, Fraction):
        lg = math.log(v.numerator) - math.log(v.denominator)
    else:
        lg = math.log(v)
    return math.exp((lg - math.lgamma(n + 1)) / n)


def ratio_sequence(values: Sequence) -> list:
    """r_n = n * v_{n-1} / v_n (None where undefined or the count vanishes)."""
    out: list = [None]
    for n in range(1, len(values)):
        if values[n] == 0:
            out.append(None)
        else:
            prev = values[n - 1]
            num = n * _as_exact(prev) if isinstance(prev, (int, Fraction)) else n * prev
            den = values[n]
            if isinstance(num, Fraction) and isinstance(den, (int, Fraction)):
                out.append(_simplify(num / den))
            else:
                out.append(num / den)
    return out


def compute_weight_table(fam: "GraphFamily", w: Weighting, n_max: int,
                         verbose: bool = False) -> WeightTable:
    """Brute-force table up to n_max (all entries enumerated exactly).

    The lattice and array caps of brute_force_tau are checked for n_max
    before any slice is enumerated.
    verbose prints one progress line per slice from n = 6 to standard error
    only, naming the rows the sweep reads: the forests of the forest slice
    for a family swept as the forests, else every edge mask.
    """
    import sys

    _check_caps(fam, n_max)
    a, c, b = [], [], []
    for n in range(n_max + 1):
        if verbose and n >= 6:
            rows = (f"{_kernels.forest_slice(n).masks.size} forests"
                    if lattice_mode(fam) == _kernels.MODE_FORESTS
                    else f"{1 << pair_count(n)} edge masks")
            print(f"enumerating n={n} ({rows})...", file=sys.stderr)
        t = brute_force_tau(fam, w, n)
        a.append(t.a)
        c.append(t.c)
        b.append(t.b)
    return WeightTable(fam.name, w, a, c, b)


def forest_table(w: Weighting, n_max: int) -> WeightTable:
    """Forest table from the closed-form tree weights lifted by the exponential formula."""
    c = cayley_tree_weights(w, n_max)
    a = egf_lift(c, n_max)
    b = [0] * (n_max + 1)
    return WeightTable("forests", w, a, c, b)


# -- core-size decomposition -----------------------------------------------------


def _require_trimmable(fam: "GraphFamily"):
    if fam.flags.trimmable is True:
        return
    if fam.excluded_minors and all(m.min_degree() >= 2 for m in fam.excluded_minors):
        return
    raise ValueError(f"family {fam.name!r} is not trimmable (declared or by excluded minors)")


def f_nk(fam: "GraphFamily", w: Weighting, n: int, k: int, b_of_k):
    """Weighted count of connected members with a 2-core of exactly k vertices.

    Closed form: binom(n,k) * tau(B_k) * lam * k * (lam*n)^(n-1-k); for k = n
    this is tau(B_n) itself.  b_of_k must be the exact tau(B_k) value.
    """
    if not (3 <= k <= n):
        raise ValueError("need 3 <= k <= n")
    _require_trimmable(fam)
    lam = w.lambda0
    if k == n:
        return _simplify(b_of_k)
    val = math.comb(n, k) * _as_exact(b_of_k) * lam * k * (lam * n) ** (n - 1 - k)
    return _simplify(val)


def f_nk_bruteforce(fam: "GraphFamily", w: Weighting, n: int, k: int):
    """Cross-check: sum the weights of connected members with v(core) = k directly.

    The connected members are tallied by their cells (mask_cells) over the
    whole slice, with every mask's 2-core size from one peel of the slice
    (`_kernels.core_sets`); the whole slice stops at RECORD_CAP vertices
    (ResourceCapError, raised before the peel).
    """
    sel = _connected_members(fam, n) & (np.bitwise_count(_kernels.core_sets(n)) == k)
    cells, weights = mask_cells(fam, w, n, np.flatnonzero(sel))
    return _simplify(sum(c * x for c, x in zip(np.bincount(cells).tolist(), weights) if c) or 0)


def core_decomposition_identity(fam: "GraphFamily", w: Weighting, n: int):
    """Reconstruct tau(C_n) as sum_k f(n,k) plus the tree term; returns both sides."""
    _require_trimmable(fam)
    b_vals = {k: brute_force_tau(fam, w, k).b for k in range(3, n + 1)}
    total = 0
    for k in range(3, n + 1):
        if b_vals[k] != 0:
            total = total + f_nk(fam, w, n, k, b_vals[k])
    one_vertex = 1 if fam.base_member(Graph(1, 0)) else 0
    tree_term = one_vertex * n ** max(n - 2, 0) * w.lambda0 ** (n - 1) * w.nu
    lhs = _simplify(total + tree_term)
    rhs = brute_force_tau(fam, w, n).c
    return lhs, rhs


# -- growth diagnostics -----------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    eta: float
    violations: tuple
    eta_max: tuple

    @property
    def holds(self) -> bool:
        return not self.violations


def falling_factorial(n: int, j: int) -> int:
    out = 1
    for i in range(j):
        out *= n - i
    return out


def factorial_growth_check(table: WeightTable, eta) -> GrowthReport:
    """Check tau(A_n) >= tau(A_{n-j}) * (n)_j * eta^j for every n <= N, j < n.

    g(n) is taken as 1, so this is a diagnostic of the feasible eta at each n,
    not a proof of the asymptotic property.
    """
    a = table.a
    violations = []
    eta_max = [None, None]
    for n in range(2, len(a)):
        best = math.inf
        for j in range(1, n):
            if a[n - j] == 0:
                continue
            bound = a[n] / (_as_exact(a[n - j]) * falling_factorial(n, j))
            feasible = float(bound) ** (1.0 / j)
            best = min(best, feasible)
            lhs = _as_exact(a[n])
            rhs = _as_exact(a[n - j]) * falling_factorial(n, j) * (_as_exact(eta) if isinstance(eta, (int, Fraction)) else eta) ** j
            if lhs < rhs:
                violations.append((n, j))
        eta_max.append(best if best is not math.inf else None)
    return GrowthReport(float(eta), tuple(violations), tuple(eta_max))


# -- unlabelled census --------------------------------------------------------------


@dataclass(eq=False)  # numpy arrays have no single truth value
class UnlabelledCensus:
    """The connected classes of a family up to n_max, one row per class in
    (order, canonical mask) order, in three int64 arrays: the order v, the
    canonical edge mask and the automorphism count aut.  of_trees is True
    when the classes are exactly the trees, i.e. the family is swept as the
    forests."""

    family: str
    n_max: int
    v: np.ndarray
    masks: np.ndarray
    aut: np.ndarray
    of_trees: bool = False

    @property
    def entries(self) -> list[tuple[int, int, int]]:
        """The (v, mask, aut) row of each class, as Python ints."""
        return list(zip(self.v.tolist(), self.masks.tolist(), self.aut.tolist()))

    @cached_property
    def _bridges(self) -> list[int]:
        """Each class's bridge count, counted on first use and kept."""
        return [bridge_mask(Graph(v, m)).bit_count() for v, m, _ in self.entries]

    def weights(self, w: Weighting) -> list:
        """Each class's cluster weight w.cell_weight(e0, e - e0, 1), one
        cell_weight call per occupied (e, e0) cell.  On the diagonal e0 = e;
        otherwise e0 is the bridge count of the class, counted once per
        census."""
        e = [m.bit_count() for m in self.masks.tolist()]
        e0 = e if w.is_diagonal else self._bridges
        cells = list(zip(e, e0))
        weight_of = {c: w.cell_weight(c[1], c[0] - c[1], 1) for c in set(cells)}
        return [weight_of[c] for c in cells]

    def mus(self, rho, w: Weighting) -> list[float]:
        """Each class's Boltzmann mean mu(H) = rho^v(H) * weight / aut(H), as a float."""
        return [float(rho ** v * wt / aut) for (v, _, aut), wt in zip(self.entries, self.weights(w))]


def _canonical_deletion(n: int, masks: np.ndarray) -> np.ndarray:
    """Selector over the connected n-vertex edge masks `masks` whose vertex n
    has the largest invariant (degree, sum of its neighbours' degrees) among
    their non-cut vertices, of which vertex n is one.

    Vertex w is a non-cut vertex iff the mask with w deleted is connected at
    order n - 1.
    """
    from .families import _induced_images

    ps = pairs(n)
    stars = [sum(1 << b for b, p in enumerate(ps) if v in p) for v in range(1, n + 1)]
    deg = [np.bitwise_count(masks & star).astype(np.int64) for star in stars]
    nsum = [np.zeros_like(masks) for _ in range(n)]
    for b, (u, v) in enumerate(ps):
        edge = masks >> b & 1
        nsum[u - 1] += edge * deg[v - 1]
        nsum[v - 1] += edge * deg[u - 1]
    # (degree, neighbour-degree sum) in lexicographic order; the sum is below n^2
    inv = [d * n * n + s for d, s in zip(deg, nsum)]
    kappa = _kernels.subset_stats(n - 1).kappa
    ok = np.ones(len(masks), dtype=bool)
    for w in range(n - 1):
        # a vertex whose invariant beats vertex n's must be a cut vertex
        cut = kappa[_induced_images(masks, n, (1 << n) - 1 ^ 1 << w)] != 1
        ok &= (inv[w] <= inv[n - 1]) | cut
    return ok


def build_census(fam: "GraphFamily", n_max: int) -> UnlabelledCensus:
    """Inventory of the connected members up to n_max, one row per isomorphism class.

    Built by canonical augmentation (McKay 1998, "Isomorph-free exhaustive
    generation").  Every connected graph on n >= 2 vertices has a vertex whose
    deletion leaves it connected, and a minor-closed family is closed under
    vertex deletion.  So the n-vertex classes are the distinct canonical forms
    of the (n-1)-vertex classes joined to a new vertex n by every nonempty
    neighbour set N.  Permuting the members of a twin class of the parent
    (`canon._twin_classes`) is an automorphism of it, so only the sets N that
    take the lowest-indexed members of each twin class are joined; every
    other set rebuilds an isomorphic child.  In the lattice layout the child's
    mask is N << pair_count(n-1) | rep, so its membership is one lookup: in
    the n-slice membership array, or for the forests a binary search of the
    ascending forest masks (`_kernels.forest_slice`), which reach n = 8.

    A member child is canonicalized only when its new vertex has the largest
    invariant (degree, sum of neighbour degrees) among its non-cut vertices
    (`_canonical_deletion`).  Every class still has such a child: in a member
    G, delete a non-cut vertex v of largest invariant; G - v is isomorphic to
    a parent, the twin pruning maps v's neighbour set to a joined set by an
    automorphism of that parent, and the isomorphism from that child to G
    takes the new vertex to v.  Each class is stored as its canonical edge
    mask, and the canonicalization that finds it also counts its
    automorphisms.  Per order, the class sizes n!/aut must add up to the
    connected-member count (member_masks, which reads the forest slice for
    the forests, so no forest census builds the whole lattice at n_max).
    The lattice and array caps of brute_force_tau are checked for n_max
    before any order is built.
    """
    _check_caps(fam, n_max)
    mode = lattice_mode(fam)
    rows = []
    reps = [0]  # canonical masks of the (n-1)-vertex classes; the empty graph below n = 1
    for n in range(1, n_max + 1):
        nbrs = np.arange(1 if n > 1 else 0, 1 << (n - 1), dtype=np.int64)
        children = []
        for rep in reps:
            # a set may take a twin only if it takes that twin's predecessor in its class
            prev, _ = _twin_classes(n - 1, Graph(n - 1, rep).adjacency())
            keep = nbrs
            for w, p in enumerate(prev):
                if p >= 0:
                    keep = keep[(keep >> w & 1) <= (keep >> p & 1)]
            children.append(keep << pair_count(n - 1) | rep)
        ext = np.concatenate(children) if children else nbrs[:0]  # no class, no child
        if mode == _kernels.MODE_FORESTS:
            forests = _kernels.forest_slice(n).masks
            ext = ext[forests[np.searchsorted(forests, ext).clip(max=forests.size - 1)] == ext]
        elif mode == _kernels.MODE_MEMBER_ARRAY:
            ext = ext[member_mask_array(fam, n)[ext] != 0]
        found: dict[int, int] = {}
        for mask in ext[_canonical_deletion(n, ext)].tolist():
            canon_mask, aut = _canon_data(n, mask)
            found[canon_mask] = aut
        labelled = sum(math.factorial(n) // aut for aut in found.values())
        # `all` past the whole slices has no member array: its sweep is streamed
        connected = (sum(int(np.count_nonzero(b.kappa == 1)) for _, b in _kernels._blocks(n, False))
                     if mode == _kernels.MODE_ALL and n > _kernels.RECORD_CAP else
                     member_masks(fam, n, connected=True).size)
        if labelled != connected:
            raise AssertionError(f"census at n={n}: the classes hold {labelled} labelled "
                                 f"graphs, the sweep counts {connected} connected members")
        reps = sorted(found)
        rows += [(n, m, found[m]) for m in reps]
    v, masks, aut = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    return UnlabelledCensus(fam.name, n_max, v, masks, aut, of_trees=mode == _kernels.MODE_FORESTS)


def census_labelled_total(census: UnlabelledCensus, w: Weighting) -> list:
    """tau(C_n) for every n <= n_max: the sum of n!/aut * weight over the
    classes of order n (index 0 is 0)."""
    totals = [0] * (census.n_max + 1)
    for (v, _, aut), wt in zip(census.entries, census.weights(w)):
        if isinstance(wt, (int, Fraction)):
            totals[v] = totals[v] + Fraction(math.factorial(v), aut) * _as_exact(wt)
        else:
            totals[v] = totals[v] + math.factorial(v) / aut * wt
    return [_simplify(t) for t in totals]


# -- falling-factorial moment identity ------------------------------------------------


def falling_moment_check(fam: "GraphFamily", w: Weighting, n: int,
                         picks: Sequence[tuple[Graph, int]], rho=Fraction(1)):
    """Residual of the exact falling-moment identity for component counts.

    Left side: E[prod_i (number of components isomorphic to H_i)_(k_i)] under
    the weighted measure on the family's n-slice, by full enumeration.  Right
    side: prod_i mu(H_i)^(k_i) * prod_{j=1..K} r_{n-j+1}/rho with K the total
    vertex demand and r_m = m a_{m-1}/a_m.  The identity holds for every
    rho > 0 (rho cancels); the residual must be exactly zero for freely
    addable picks.
    """
    if not w.is_rational:
        raise ValueError("the exact residual needs rational weights")
    rho = _as_exact(rho)
    picks = [(h, int(k)) for h, k in picks]
    K = sum(h.n * k for h, k in picks)
    if K > n:
        raise ValueError("total vertex demand exceeds n")
    pick_codes = [canonicalize(h).code for h, _ in picks]
    if len(set(pick_codes)) != len(pick_codes):
        raise ValueError("picks must be pairwise non-isomorphic")

    # listed before the sweeps, so a family that stops at RECORD_CAP fails before them
    masks = member_masks(fam, n, connected=False)
    a_vals = {m: brute_force_tau(fam, w, m).a for m in range(n - K, n + 1)}

    comp_code_memo: dict[tuple[int, int], bytes] = {}
    lhs_num = Fraction(0)
    for mask in masks.tolist():
        g = Graph(n, mask)
        comps = component_masks(g)
        counts = [0] * len(picks)
        for cm in comps:
            sub = induced_subgraph(g, vertex_labels(cm))
            key = (sub.graph.n, sub.graph.mask)
            code = comp_code_memo.get(key)
            if code is None:
                code = canonicalize(sub.graph).code
                comp_code_memo[key] = code
            for i, pc in enumerate(pick_codes):
                if code == pc:
                    counts[i] += 1
        prod = 1
        for (h, k), cnt in zip(picks, counts):
            prod *= falling_factorial(cnt, k)
            if prod == 0:
                break
        if prod:
            lhs_num += prod * _as_exact(weight(g, w))
    lhs = lhs_num / _as_exact(a_vals[n])

    rhs = Fraction(1)
    for (h, k) in picks:
        mu = rho ** h.n * _as_exact(weight(h, w)) / automorphism_count(h)
        rhs *= mu ** k
    for j in range(1, K + 1):
        m = n - j + 1
        r_m = Fraction(m) * _as_exact(a_vals[m - 1]) / _as_exact(a_vals[m])
        rhs *= r_m / rho
    return _simplify(lhs - rhs)


# -- exact structural expectations -----------------------------------------------------


def exact_frag_distribution(fam: "GraphFamily", w: Weighting, n: int) -> dict:
    """Exact Pr[frag = k] for the weighted random graph on the family's n-slice.

    frag is n less the most vertices sharing a component root in the lattice
    (`_kernels._record(n, extendable=True).roots`, or the forest slice's); the
    members are tallied by (cell of mask_cells, frag); a connected-only
    family's members are its connected ones.  Forests reach n = 8, every
    other family RECORD_CAP (member_masks).
    """
    if n < 1:
        raise ValueError("big/frag split needs at least one vertex")
    if lattice_mode(fam) == _kernels.MODE_FORESTS:
        rows = _kernels.forest_slice(n, extendable=True)
        keep = rows.kappa == 1 if fam.connected_only else slice(None)  # trees: connected rows only
        masks, roots = rows.masks[keep], rows.roots[:, keep]
    else:
        masks = member_masks(fam, n)
        roots = (r[masks] for r in _kernels._record(n, extendable=True).roots)
    # each vertex adds 1 to its root's 4-bit counter: at n = 8 eight counters
    # fill the uint32, and none exceeds 8
    counter = np.zeros(256, dtype=np.uint32)
    counter[1 << np.arange(n)] = 1 << 4 * np.arange(n)
    sizes = sum(counter[r] for r in roots)
    nibbles = sizes.view(np.uint8).reshape(-1, 4)
    big = np.maximum(nibbles & 15, nibbles >> 4).max(axis=1)
    cells, weights = mask_cells(fam, w, n, masks)
    tally = np.bincount(cells * n + (n - big))
    totals: dict = {}
    for key in np.flatnonzero(tally).tolist():
        cell, frag = divmod(key, n)
        totals[frag] = totals.get(frag, 0) + int(tally[key]) * _as_exact(weights[cell])
    denom = sum(totals.values())
    return {k: _simplify(v / denom) for k, v in sorted(totals.items())}


def exact_frag_mean(fam: "GraphFamily", w: Weighting, n: int):
    dist = exact_frag_distribution(fam, w, n)
    return _simplify(sum(_as_exact(k) * _as_exact(p) for k, p in dist.items()))
