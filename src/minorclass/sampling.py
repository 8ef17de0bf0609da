"""Samplers for the weighted random graph and its Boltzmann Poisson limit.

Three routes to the n-slice distribution: exact cumulative-weight inversion
over the enumerated members, a Metropolis edge-toggle chain (for orders past
the enumeration range), and the component-multiset Boltzmann Poisson sampler
driven by an unlabelled census, which draws each draw's number of components
and then each component's class.  A uniform labelled-tree sampler runs
Aldous's random-walk construction a chunk of draws at a time.  The Boltzmann
and tree samplers cost time and memory linear in their output.  All
randomness comes from the counter-based Philox generator keyed by an explicit
64-bit seed and a stream index, so every sampler is reproducible across
platforms.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import numpy.random  # noqa: F401  (loaded with the package, not by the first draw)

from . import _kernels
from .canon import canonicalize, code_of
from .enumeration import (
    UnlabelledCensus,
    lattice_mode,
    mask_cells,
    member_mask_array,
    member_masks,
)
from .errors import EmptySliceError
from .graphs import (
    Graph,
    RootedGraph,
    Weighting,
    component_masks,
    disjoint_union,
    induced_subgraph,
    pair_count,
    pendant_appearances,
    two_core,
    vertex_labels,
    weight,
)


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based Philox generator; independent streams share a seed."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


# -- exact sampler -------------------------------------------------------------


def _check_draws(draws: int) -> None:
    if draws < 0:
        raise ValueError(f"draws must be >= 0, got {draws}")


def exact_masks(fam, w: Weighting, n: int, seed: int, draws: int) -> np.ndarray:
    """The int64 edge masks of i.i.d. draws with Pr(G) proportional to its cluster
    weight, by cumulative inversion over the enumerated members (member_masks:
    the forest slice up to n = 8, every other family up to RECORD_CAP, past
    which it raises ResourceCapError).  draws must be >= 0 (else
    ValueError).  Each weight is gathered from the member's lattice cell
    (mask_cells)."""
    _check_draws(draws)
    masks = member_masks(fam, n)
    if not masks.size:
        raise EmptySliceError(f"family {fam.name!r} has no members of order {n}")
    cells, weights = mask_cells(fam, w, n, masks)
    cum = np.cumsum(weights.astype(float)[cells])
    rng = rng_stream(seed)
    r = rng.random(draws) * cum[-1]
    idx = np.searchsorted(cum, r, side="right")
    return masks[idx]


def exact_sample(fam, w: Weighting, n: int, seed: int, draws: int) -> list[Graph]:
    """The draws of exact_masks as Graphs."""
    return [Graph(n, s) for s in exact_masks(fam, w, n, seed, draws).tolist()]


# -- Boltzmann Poisson sampler ---------------------------------------------------


@dataclass
class BoltzmannConfig:
    """Census-driven Boltzmann Poisson sampler configuration.

    truncated_mass_note reports the census tail (the mu-mass beyond n_max)
    when a dominating series certifies it, else None.
    """

    rho: float
    weighting: Weighting
    census: UnlabelledCensus
    mus: list = field(default_factory=list)
    truncated_mass_note: Optional[float] = None

    @property
    def total_mean(self) -> float:
        return float(sum(self.mus))


def boltzmann_config(census: UnlabelledCensus, rho: float, w: Weighting) -> BoltzmannConfig:
    from .asymptotics import census_tail_bound

    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be a finite positive number")
    if not census.v.size:
        raise EmptySliceError("empty census")
    mus = census.mus(rho, w)
    if not all(math.isfinite(m) for m in mus):
        raise ValueError("non-finite Boltzmann mean; rho or the weights are too large")
    return BoltzmannConfig(rho, w, census, mus, census_tail_bound(census, rho, w))


def boltzmann_classes(cfg: BoltzmannConfig, seed: int,
                      draws: int) -> tuple[np.ndarray, np.ndarray]:
    """The truncated Boltzmann Poisson draws as component lists: each draw's
    component count N ~ Po(sum of mu), from rng_stream(seed, 0), and the
    census class of every component, draw after draw, picked with
    probability mu / (sum of mu) by a search of the cumulative means, from
    rng_stream(seed, 1).

    A Poisson count split by independent class labels gives independent
    Po(mu) counts per class (Duchon, Flajolet, Louchard and Schaeffer 2004),
    so this is the law of one Po(mu) count per class, at a cost linear in the
    draws and their components, not in draws x classes.  draws must be >= 0
    (else ValueError).
    """
    _check_draws(draws)
    if not cfg.census.v.size:
        raise EmptySliceError("empty census")
    cum = np.cumsum(cfg.mus)
    sizes = rng_stream(seed, 0).poisson(cum[-1], size=draws)
    u = rng_stream(seed, 1).random(int(sizes.sum())) * cum[-1]
    return sizes, np.searchsorted(cum[:-1], u, side="right")


def boltzmann_component_counts(cfg: BoltzmannConfig, seed: int, draws: int) -> np.ndarray:
    """The draws of boltzmann_classes as (draws, classes) counts, one column
    per census class: the independent Poisson counts of the law checks.  The
    samplers never build this array."""
    sizes, classes = boltzmann_classes(cfg, seed, draws)
    k = len(cfg.mus)
    rows = np.repeat(np.arange(draws), sizes)
    return np.bincount(rows * k + classes, minlength=draws * k).reshape(draws, k)


def classes_to_graph(census: UnlabelledCensus, classes: Sequence[int]) -> Graph:
    """Materialize a component multiset, given as its list of census class
    indices (sorted, one per component), as a labelled graph: the disjoint
    union of the canonical graphs of those classes, in that order."""
    g = Graph(0, 0)
    for c in classes:
        g = disjoint_union(g, Graph(int(census.v[c]), int(census.masks[c])))
    return g


def boltzmann_groups(cfg: BoltzmannConfig, seed: int,
                     draws: int) -> tuple[list[Graph], np.ndarray]:
    """The draws of boltzmann_classes grouped by component multiset: the
    labelled graph of each distinct multiset (classes_to_graph of its classes),
    and each draw's index into them.

    Few distinct multisets have any real probability (112 in 50,000 forest
    draws at census n <= 6, seed 0), so each is materialized once.  The draws
    are grouped in one numpy pass: each draw's classes sorted and padded to
    the largest N with the class count, in the narrowest dtype that holds it,
    viewed as one opaque item per draw and passed to np.unique.
    """
    sizes, classes = boltzmann_classes(cfg, seed, draws)
    k = len(cfg.mus)
    rows = np.repeat(np.arange(draws), sizes)
    starts = np.cumsum(sizes) - sizes
    lists = np.full((draws, max(1, int(sizes.max(initial=0)))), k, dtype=np.min_scalar_type(k))
    lists[rows, np.arange(rows.size) - starts[rows]] = np.sort(rows * k + classes) % k
    items = lists.view(np.dtype((np.void, lists.itemsize * lists.shape[1]))).ravel()
    _, first, inverse = np.unique(items, return_index=True, return_inverse=True)
    graphs = [classes_to_graph(cfg.census, lists[i, :sizes[i]].tolist()) for i in first.tolist()]
    return graphs, inverse


def boltzmann_poisson_sample(cfg: BoltzmannConfig, seed: int, draws: int) -> list[Graph]:
    """The draws of boltzmann_groups as labelled graphs, in draw order; draws
    with the same component multiset share one Graph."""
    graphs, inverse = boltzmann_groups(cfg, seed, draws)
    return [graphs[j] for j in inverse.tolist()]


# -- MCMC sampler ------------------------------------------------------------------


def mcmc_masks(fam, w: Weighting, n: int, draws: int, burn_in: int = 100_000,
               thin: int = 10, seed: int = 0) -> list[int]:
    """The edge masks of a Metropolis chain over edge toggles targeting the
    weighted n-slice, after burn_in steps and then every thin-th step.

    Proposals toggle a uniform vertex pair; moves leaving the family are
    rejected, others accepted with min(1, lambda0^de0 * lambda1^de1 *
    nu^dkappa), de0 and de1 the changes in the bridge and other edge counts.
    The chain starts from the edgeless graph (always a member) and is
    irreducible since every member reaches it by edge deletions.  The family
    must be closed under edge deletion, as every minor-closed family is.

    One kernel runs every family and weighting (_kernels.mcmc_chain), in the
    family's lattice_mode.  A family swept by membership array is tested by a
    lookup in that array up to RECORD_CAP vertices and by base_member
    past it; forests and all need no test.  The test is never asked about a
    removal, and about an addition once the Metropolis test has accepted it,
    or, with lambda0 != lambda1, before a toggle inside a component recounts
    its bridges.

    draws and burn_in must be >= 0 and thin >= 1 (else ValueError).
    """
    for name, value, low in (("draws", draws, 0), ("burn_in", burn_in, 0), ("thin", thin, 1)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if fam.connected_only:
        raise ValueError("the edge-toggle chain targets the full family; "
                         "connected-member views are not supported")
    m = pair_count(n)
    if m == 0:
        return [0] * draws
    total = burn_in + draws * thin
    rng = rng_stream(seed)
    proposals = rng.integers(0, m, size=total, dtype=np.int64)
    uniforms = rng.random(total)
    mode, member = lattice_mode(fam), None
    if mode == _kernels.MODE_MEMBER_ARRAY:
        member = (member_mask_array(fam, n).tobytes().__getitem__ if n <= _kernels.RECORD_CAP
                  else lambda s: fam.base_member(Graph(n, s)))
    return _kernels.mcmc_chain(n, proposals, uniforms, float(w.lambda0), float(w.lambda1),
                               float(w.nu), mode, member, burn_in, thin, draws)


def mcmc_sample(fam, w: Weighting, n: int, draws: int, burn_in: int = 100_000,
                thin: int = 10, seed: int = 0) -> list[Graph]:
    """The draws of mcmc_masks as Graphs."""
    return [Graph(n, s) for s in mcmc_masks(fam, w, n, draws, burn_in, thin, seed)]


def transition_matrix(fam, w: Weighting, n: int) -> tuple[list[int], list[list[Fraction]]]:
    """Exact one-step transition matrix of the chain on the member masks.

    Entries are Fractions (rational weights required), suitable for verifying
    stationarity pi P = pi exactly.
    """
    if not w.is_rational:
        raise ValueError("exact transition matrix needs rational weights")
    masks = member_masks(fam, n, connected=False).tolist()
    index = {s: i for i, s in enumerate(masks)}
    m = pair_count(n)
    P = [[Fraction(0) for _ in masks] for _ in masks]
    for s in masks:
        i = index[s]
        stay = Fraction(0)
        for b in range(m):
            t = s ^ (1 << b)
            if t not in index:
                stay += Fraction(1, m)
                continue
            g_old, g_new = Graph(n, s), Graph(n, t)
            ratio = Fraction(weight(g_new, w)) / Fraction(weight(g_old, w))
            acc = min(Fraction(1), ratio)
            P[i][index[t]] += Fraction(1, m) * acc
            stay += Fraction(1, m) * (1 - acc)
        P[i][i] += stay
    return masks, P


def stationary_residual(fam, w: Weighting, n: int) -> Fraction:
    """max |(pi P - pi)_j| for pi proportional to the cluster weights (exactly 0 expected)."""
    masks, P = transition_matrix(fam, w, n)
    wts = [Fraction(weight(Graph(n, s), w)) for s in masks]
    total = sum(wts)
    pi = [x / total for x in wts]
    worst = Fraction(0)
    for j in range(len(masks)):
        acc = sum(pi[i] * P[i][j] for i in range(len(masks)))
        worst = max(worst, abs(acc - pi[j]))
    return worst


# -- uniform random trees --------------------------------------------------------------


# tree edges per chunk of random_tree_chunks (one tree if larger)
_CHUNK_EDGES = 1 << 15


def random_tree_chunks(n: int, seed: int, draws: int) -> Iterator[np.ndarray]:
    """Uniform labelled trees on n vertices, a chunk of draws at a time: each
    chunk's (draws, n - 1, 2) array of 0-indexed edges u < v, from
    _kernels.random_walk_tree.  A chunk holds at most _CHUNK_EDGES edges (one
    tree if more).  The walk's uniforms come from rng_stream(seed, 0) and the
    row permutations from rng_stream(seed, 1), each read in draw order, so the
    draws do not depend on the chunk size.  draws must be >= 0 and n >= 1
    (else ValueError, raised before the first chunk is asked for).
    """
    _check_draws(draws)
    if n < 1:
        raise ValueError("trees need at least one vertex")
    step = max(1, _CHUNK_EDGES // max(1, n - 1))

    def chunks():
        walk, shuffle = rng_stream(seed, 0), rng_stream(seed, 1)
        labels = np.arange(n, dtype=np.int64)
        for start in range(0, draws, step):
            rows = min(step, draws - start)
            uniforms = walk.integers(0, n, size=(rows, max(0, n - 2)), dtype=np.int64)
            perm = shuffle.permuted(np.broadcast_to(labels, (rows, n)), axis=1)
            yield _kernels.random_walk_tree(uniforms, perm)

    return chunks()


def random_tree_sample(n: int, seed: int, draws: int) -> list[Graph]:
    """Uniform labelled trees: the draws of random_tree_chunks, each packed
    into one Graph.  Each chunk's pair bits v(v-1)/2 + u (see graphs.pair_bit)
    are ORed into one little-endian byte row per tree, and each row becomes
    the tree's edge mask.

    Under the cluster weighting every tree has the same weight, so uniform
    trees are exactly the weighted random trees.  draws must be >= 0 and
    n >= 1 (else ValueError).
    """
    chunks = random_tree_chunks(n, seed, draws)
    width = (pair_count(n) + 7) // 8
    out = []
    for edges in chunks:
        u, v = edges[:, :, 0], edges[:, :, 1]
        bits = v * (v - 1) // 2 + u
        rows = len(edges)
        packed = np.zeros((rows, width), dtype=np.uint8)
        np.bitwise_or.at(packed, (np.arange(rows)[:, None], bits >> 3),
                         np.left_shift(1, bits & 7).astype(np.uint8))
        data = packed.tobytes()
        out += [Graph(n, int.from_bytes(data[i * width:(i + 1) * width], "little"))
                for i in range(rows)]
    return out


# -- statistics collection ----------------------------------------------------------------


@dataclass
class SampleStats:
    draws: int
    kappa_hist: dict
    frag_hist: dict
    core_frac_mean: float
    comp_counts: dict          # code hex -> {count: draws with that many such components}
    pendant_density: dict      # code hex of the rooted graph -> mean f_H / n

    @property
    def conn_freq(self) -> float:
        return self.kappa_hist.get(1, 0) / self.draws if self.draws else 0.0

    def comp_count_histogram(self, code_hex: str) -> dict:
        """Per-draw histogram for one component class, zeros included."""
        hist = dict(self.comp_counts.get(code_hex, {}))
        seen = sum(hist.values())
        hist[0] = hist.get(0, 0) + self.draws - seen
        return hist


def collect_stats(samples: Sequence[Graph], rooted: Sequence[RootedGraph] = (),
                  census: UnlabelledCensus | None = None) -> SampleStats:
    """Aggregate the structural statistics of a sample of graphs."""
    kappa_hist: dict = {}
    frag_hist: dict = {}
    core_sum = 0.0
    core_n = 0
    comp_counts: dict = {}
    pend_sums = {canonicalize(r.graph).hex: 0.0 for r in rooted}
    code_memo: dict[tuple[int, int], str] = {}
    for g in samples:
        comps = component_masks(g)
        kappa_hist[len(comps)] = kappa_hist.get(len(comps), 0) + 1
        fsize = g.n - max((c.bit_count() for c in comps), default=0)  # n less the big component
        frag_hist[fsize] = frag_hist.get(fsize, 0) + 1
        if g.n >= 1:
            core_sum += two_core(g).graph.n / g.n
            core_n += 1
        per_graph: dict[str, int] = {}
        for cm in comps:
            sub = induced_subgraph(g, vertex_labels(cm)).graph
            key = (sub.n, sub.mask)
            hexcode = code_memo.get(key)
            if hexcode is None:
                hexcode = canonicalize(sub).hex
                code_memo[key] = hexcode
            per_graph[hexcode] = per_graph.get(hexcode, 0) + 1
        for code, cnt in per_graph.items():
            bucket = comp_counts.setdefault(code, {})
            bucket[cnt] = bucket.get(cnt, 0) + 1
        for r in rooted:
            if r.graph.n < g.n:
                key = canonicalize(r.graph).hex
                pend_sums[key] += pendant_appearances(g, r) / g.n
    if census is not None:
        for v, m, _ in census.entries:
            comp_counts.setdefault(code_of(v, m).hex, {})
    return SampleStats(
        draws=len(samples),
        kappa_hist=kappa_hist,
        frag_hist=frag_hist,
        core_frac_mean=core_sum / core_n if core_n else 0.0,
        comp_counts=comp_counts,
        pendant_density={k: v / len(samples) for k, v in pend_sums.items()} if samples else {},
    )


# -- statistical checks ---------------------------------------------------------------------


_MIN_EXPECTED = 5  # the least expected count of a chi-square bin


def poisson_chi_square(hist: dict, draws: int, mu: float) -> tuple[float, int, float]:
    """Chi-square goodness of fit of a count histogram against Poisson(mu).

    Bins with expected count below _MIN_EXPECTED are merged rightward into the
    tail.  Returns (statistic, degrees of freedom, p-value); p = 1 when fewer
    than two bins survive.
    """
    from scipy.stats import chi2

    kmax = max(hist) if hist else 0
    obs = [hist.get(k, 0) for k in range(kmax + 1)]
    pmf = [math.exp(-mu) * mu ** k / math.factorial(k) for k in range(kmax + 1)]
    exp = [draws * p for p in pmf]
    exp_tail = draws * (1 - sum(pmf))
    # merge from the right so the tail bin reaches _MIN_EXPECTED
    bins_obs: list[float] = []
    bins_exp: list[float] = []
    for o, ex in zip(obs, exp):
        if bins_exp and bins_exp[-1] < _MIN_EXPECTED:
            bins_obs[-1] += o
            bins_exp[-1] += ex
        else:
            bins_obs.append(float(o))
            bins_exp.append(float(ex))
    # attach the analytic tail mass to the last bin
    bins_exp[-1] += exp_tail
    while len(bins_exp) >= 2 and bins_exp[-1] < _MIN_EXPECTED:
        bins_exp[-2] += bins_exp[-1]
        bins_obs[-2] += bins_obs[-1]
        bins_exp.pop()
        bins_obs.pop()
    if len(bins_exp) < 2:
        return 0.0, 0, 1.0
    stat = sum((o - ex) ** 2 / ex for o, ex in zip(bins_obs, bins_exp))
    df = len(bins_exp) - 1
    return stat, df, float(chi2.sf(stat, df))


def pairwise_independence(counts: np.ndarray, means: Sequence[float]) -> tuple[float, float]:
    """Pairwise independence of Poisson count columns with the given means,
    over every pair of columns: (largest |empirical correlation| over the
    frequent pairs, least p-value over the rare pairs).

    A pair is frequent when both columns are expected to be nonzero together
    in at least 5 rows (rows * P(X_i > 0) * P(X_j > 0)); its correlation
    (0 for a constant column) has standard error 1/sqrt(rows).  For a rarer
    pair the correlation is far from normal: one row where both are nonzero
    moves it by many standard errors (a single such row in 10^5 Boltzmann
    forest draws, where 0.035 were expected, reads 4.8 of them).  So a rare
    pair is judged by its count of rows where both are nonzero, against the
    Poisson upper tail at its expectation.  The lower tail needs no test: below
    5 expected rows, seeing none has probability above e^-5.  1.0 when there
    is no rare pair, 0.0 for the correlation when there is no frequent one."""
    from scipy.stats import poisson

    rows = counts.shape[0]
    nonzero = -np.expm1(-np.asarray(means, dtype=float))
    upper = np.triu_indices(counts.shape[1], 1)
    expected = (rows * np.outer(nonzero, nonzero))[upper]
    frequent = expected >= 5
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.nan_to_num(np.corrcoef(counts, rowvar=False)[upper])
    max_corr = float(np.abs(corr[frequent]).max(initial=0.0))
    both = (counts > 0).astype(np.int64)
    joint = (both.T @ both)[upper][~frequent]
    min_p = float(poisson.sf(joint - 1, expected[~frequent]).min(initial=1.0))
    return max_corr, min_p


def e_kappa_histogram(samples: Sequence[Graph]) -> dict:
    """Joint (edge count, component count) histogram of a sample."""
    out: dict = {}
    for g in samples:
        key = (g.edge_count, len(component_masks(g)))
        out[key] = out.get(key, 0) + 1
    return out


def tv_distance(h1: dict, h2: dict) -> float:
    """Total variation distance between two normalized histograms."""
    n1 = sum(h1.values())
    n2 = sum(h2.values())
    keys = set(h1) | set(h2)
    return 0.5 * sum(abs(h1.get(k, 0) / n1 - h2.get(k, 0) / n2) for k in keys)
