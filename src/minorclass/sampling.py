"""Samplers for the weighted random graph and its Boltzmann Poisson limit.

Three routes to the n-slice distribution: exact cumulative-weight inversion
over the enumerated members, a Metropolis edge-toggle chain (for orders past
the enumeration range), and the component-multiset Boltzmann Poisson sampler
driven by an unlabelled census.  A uniform labelled-tree sampler decodes
uniform parent sequences.  All randomness comes from the counter-based Philox
generator keyed by an explicit 64-bit seed and a stream index, so every
sampler is reproducible across platforms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

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


def exact_masks(fam, w: Weighting, n: int, seed: int, draws: int) -> list[int]:
    """The edge masks of i.i.d. draws with Pr(G) proportional to its cluster
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
    return masks[idx].tolist()


def exact_sample(fam, w: Weighting, n: int, seed: int, draws: int) -> list[Graph]:
    """The draws of exact_masks as Graphs."""
    return [Graph(n, s) for s in exact_masks(fam, w, n, seed, draws)]


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


def boltzmann_config(census: UnlabelledCensus, rho: float, w: Weighting,
                     radius_estimate: float | None = None) -> BoltzmannConfig:
    from .asymptotics import census_tail_bound

    if not (math.isfinite(rho) and rho > 0):
        raise ValueError("rho must be a finite positive number")
    if not census.v.size:
        raise EmptySliceError("empty census")
    if radius_estimate is not None and rho > radius_estimate:
        warnings.warn("rho exceeds the estimated radius of convergence; "
                      "the truncated Boltzmann law may be badly biased")
    mus = census.mus(rho, w)
    if not all(math.isfinite(m) for m in mus):
        raise ValueError("non-finite Boltzmann mean; rho or the weights are too large")
    return BoltzmannConfig(rho, w, census, mus, census_tail_bound(census, rho, w))


def boltzmann_component_counts(cfg: BoltzmannConfig, seed: int, draws: int) -> np.ndarray:
    """(draws, classes) independent Poisson counts, one column per census class.

    draws must be >= 0 (else ValueError)."""
    _check_draws(draws)
    if not cfg.census.v.size:
        raise EmptySliceError("empty census")
    rng = rng_stream(seed)
    return rng.poisson(lam=np.asarray(cfg.mus), size=(draws, len(cfg.mus)))


def counts_to_graph(census: UnlabelledCensus, counts: Sequence[int]) -> Graph:
    """Materialize a component multiset as a labelled graph: counts[i] copies
    of the canonical graph of class i, in census order."""
    g = Graph(0, 0)
    for (v, m, _), c in zip(census.entries, counts):
        for _ in range(int(c)):
            g = disjoint_union(g, Graph(v, m))
    return g


def boltzmann_groups(cfg: BoltzmannConfig, seed: int,
                     draws: int) -> tuple[list[Graph], np.ndarray]:
    """Draws from the truncated Boltzmann Poisson random graph, grouped by
    count row: the labelled graph of each distinct row, and each draw's index
    into them.

    Few distinct component multisets have any real probability (117 rows in
    50,000 forest draws at census n <= 6, seed 0), so each is materialized
    once.  The rows are grouped in one numpy pass: cast to the narrowest
    dtype that holds the largest count, viewed as one opaque item per row,
    and passed to np.unique.
    """
    counts = boltzmann_component_counts(cfg, seed, draws)
    counts = counts.astype(np.min_scalar_type(counts.max(initial=0)))  # frees the int64 rows
    rows = counts.view(np.dtype((np.void, counts.itemsize * counts.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return [counts_to_graph(cfg.census, counts[i]) for i in first.tolist()], inverse


def boltzmann_poisson_sample(cfg: BoltzmannConfig, seed: int, draws: int) -> list[Graph]:
    """The draws of boltzmann_groups as labelled graphs, in draw order; draws
    with the same count row share one Graph."""
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


def random_tree_bits(n: int, seed: int, draws: int) -> np.ndarray:
    """Edge bits of uniform labelled trees via parent-sequence decoding
    (bijective with n^(n-2)): row i holds the n - 1 pair bits v(v-1)/2 + u
    (see graphs.pair_bit) of tree i's edges u < v, in decode order, as an int64
    array (draws, n - 1).  draws must be >= 0 and n >= 1 (else ValueError).
    """
    _check_draws(draws)
    if n < 1:
        raise ValueError("trees need at least one vertex")
    if n == 1:
        return np.zeros((draws, 0), dtype=np.int64)
    rng = rng_stream(seed)
    edges = _kernels.prufer_decode(rng.integers(0, n, size=(draws, n - 2), dtype=np.int64))
    # bits takes v, and columns 0 and 1 are overwritten with u and v - 1, so no
    # array beyond bits is allocated
    u, v = edges[:, :, 0], edges[:, :, 1]
    bits = np.maximum(u, v)
    np.minimum(u, v, out=u)
    np.subtract(bits, 1, out=v)
    bits *= v
    bits //= 2
    bits += u
    return bits


def random_tree_sample(n: int, seed: int, draws: int) -> list[Graph]:
    """Uniform labelled trees: the rows of random_tree_bits, each packed into
    one Graph.

    Under the cluster weighting every tree has the same weight, so uniform
    trees are exactly the weighted random trees.  draws must be >= 0 (else
    ValueError).
    """
    bits = random_tree_bits(n, seed, draws)
    # each tree's edge mask as little-endian bytes, converted to one int
    width = (pair_count(n) + 7) // 8
    out = []
    for row in bits:
        packed = np.zeros(width, dtype=np.uint8)
        np.bitwise_or.at(packed, row >> 3, (1 << (row & 7)).astype(np.uint8))
        out.append(Graph(n, int.from_bytes(packed.tobytes(), "little")))
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


def poisson_chi_square(hist: dict, draws: int, mu: float,
                       min_expected: float = 5.0) -> tuple[float, int, float]:
    """Chi-square goodness of fit of a count histogram against Poisson(mu).

    Bins with expected count below min_expected are merged rightward into the
    tail.  Returns (statistic, degrees of freedom, p-value); p = 1 when fewer
    than two bins survive.
    """
    from scipy.stats import chi2

    kmax = max(hist) if hist else 0
    obs = [hist.get(k, 0) for k in range(kmax + 1)]
    pmf = [math.exp(-mu) * mu ** k / math.factorial(k) for k in range(kmax + 1)]
    exp = [draws * p for p in pmf]
    exp_tail = draws * (1 - sum(pmf))
    # merge from the right so the tail bin reaches min_expected
    bins_obs: list[float] = []
    bins_exp: list[float] = []
    for o, ex in zip(obs, exp):
        if bins_exp and bins_exp[-1] < min_expected:
            bins_obs[-1] += o
            bins_exp[-1] += ex
        else:
            bins_obs.append(float(o))
            bins_exp.append(float(ex))
    # attach the analytic tail mass to the last bin
    bins_exp[-1] += exp_tail
    while len(bins_exp) >= 2 and bins_exp[-1] < min_expected:
        bins_exp[-2] += bins_exp[-1]
        bins_obs[-2] += bins_obs[-1]
        bins_exp.pop()
        bins_obs.pop()
    if len(bins_exp) < 2:
        return 0.0, 0, 1.0
    stat = sum((o - ex) ** 2 / ex for o, ex in zip(bins_obs, bins_exp))
    df = len(bins_exp) - 1
    return stat, df, float(chi2.sf(stat, df))


def pairwise_max_correlation(counts: np.ndarray) -> float:
    """Largest |pairwise empirical correlation| between count columns (0 for constant columns)."""
    if counts.shape[1] < 2:
        return 0.0
    keep = counts.std(axis=0) > 0
    cols = counts[:, keep]
    if cols.shape[1] < 2:
        return 0.0
    corr = np.corrcoef(cols, rowvar=False)
    off = corr[~np.eye(corr.shape[0], dtype=bool)]
    return float(np.max(np.abs(off)))


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
