"""Numerical solution of the model's limiting constants.

Covers the growth-constant relations for the minimum-degree-2 subclass and the
core fraction, truncated generating-function evaluations with certified tail
bounds where the tree series dominates, the forest closed forms, pendant
appearance limits, and the published planar reference constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .enumeration import UnlabelledCensus, census_labelled_total, egf_lift
from .graphs import Graph, RootedGraph, Weighting, bridge_partition


@dataclass(frozen=True)
class SeriesEvaluation:
    """A truncated series value; tail_bound is None when no bound is certified."""

    value: float
    terms_used: int
    tail_bound: Optional[float] = None


# -- root solving -------------------------------------------------------------


def _bisect_newton(f, fprime, lo: float, hi: float, tol: float, max_iter: int = 200) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo > 0 or fhi < 0:
        raise ArithmeticError("root not bracketed")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9:
            break
    x = 0.5 * (lo + hi)
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) <= tol:
            return x
        d = fprime(x)
        if d == 0:
            break
        step = fx / d
        x_new = x - step
        if not (lo <= x_new <= hi):
            x_new = 0.5 * (lo + hi)
        x = x_new
    if abs(f(x)) <= tol * 10:
        return x
    raise ArithmeticError("root refinement did not converge")


def solve_beta(gamma: float, lam: float, tol: float = 1e-9) -> Optional[float]:
    """Growth constant of the connected min-degree-2 subclass.

    The unique root beta > lam of beta * exp(lam/beta) = gamma when
    gamma > lam*e; None marks the radius case gamma <= lam*e.
    """
    if gamma <= 0 or lam <= 0:
        raise ValueError("gamma and lam must be positive")
    if gamma <= lam * math.e * (1 + 1e-12):
        return None
    f = lambda b: b * math.exp(lam / b) - gamma
    fp = lambda b: math.exp(lam / b) * (1 - lam / b)
    lo = lam * (1 + 1e-12)
    hi = max(lam * 1e6, 2 * gamma)
    return _bisect_newton(f, fp, lo, hi, tol)


def solve_alpha(gamma: float, lam: float, tol: float = 1e-9) -> float:
    """Limiting 2-core fraction: 1 - x with x the sub-1 root of x*exp(-x) = lam/gamma.

    Returns 0 in the radius case gamma <= lam*e.  Cross-checked against
    solve_beta via alpha = 1 - lam/beta within 10*tol.
    """
    if gamma <= 0 or lam <= 0:
        raise ValueError("gamma and lam must be positive")
    if gamma <= lam * math.e * (1 + 1e-12):
        return 0.0
    target = lam / gamma
    f = lambda x: x * math.exp(-x) - target
    fp = lambda x: math.exp(-x) * (1 - x)
    x = _bisect_newton(f, fp, 1e-300, 1.0, tol)
    alpha = 1.0 - x
    beta = solve_beta(gamma, lam, tol)
    if beta is not None and abs(alpha - (1 - lam / beta)) > 10 * tol:
        raise ArithmeticError("alpha/beta consistency check failed")
    return alpha


# -- tree series ----------------------------------------------------------------


@dataclass(frozen=True)
class TreeSeriesValues:
    """Partial sums of the weighted tree and rooted-tree series at x."""

    tree: SeriesEvaluation
    rooted: SeriesEvaluation
    x: float


_SQRT_2PI = math.sqrt(2 * math.pi)


def tree_tail_bound(N: int, lam: float, x: float, nu: float, rooted: bool) -> float:
    """Upper bound on the dropped tail after N terms.

    At the radius x = 1/(e*lam), Stirling gives term_n < (nu/lam)/(sqrt(2pi) n^p)
    with p = 5/2 (trees) or 3/2 (rooted), integrating to the bound below.
    Strictly inside the radius the terms decay geometrically with ratio
    q = lam*e*x and the bound is the geometric tail from term N.
    """
    q = lam * math.e * x
    if q > 1 + 1e-12:
        raise ValueError("x is beyond the radius of convergence")
    if abs(q - 1) <= 1e-12:
        if rooted:
            return (nu / lam) / _SQRT_2PI * 2.0 / math.sqrt(N)
        return (nu / lam) / _SQRT_2PI * (2.0 / 3.0) * N ** -1.5
    p = 1.0 if rooted else 2.0
    log_term_n = math.log(nu) + (N - 1) * math.log(lam) + N * math.log(x) \
        + (N - p) * math.log(N) - math.lgamma(N + 1)
    return math.exp(log_term_n) * q / (1 - q)


def tree_series_eval(x: float, w: Weighting, n_terms: int) -> TreeSeriesValues:
    """Evaluate nu*sum n^(n-2) lam^(n-1) x^n / n! and its rooted variant with tail bounds.

    All tree edges are bridges, so only the bridge parameter lambda0 enters.
    """
    lam, nu = float(w.lambda0), float(w.nu)
    x = float(x)
    if x <= 0:
        raise ValueError("x must be positive")
    if lam * math.e * x > 1 + 1e-12:
        raise ValueError("x is beyond the radius of convergence 1/(e*lam)")
    from ._kernels import tree_series_sum

    t = tree_series_sum(n_terms, lam, x, nu, rooted=False)
    to = tree_series_sum(n_terms, lam, x, nu, rooted=True)
    return TreeSeriesValues(
        SeriesEvaluation(t, n_terms, tree_tail_bound(n_terms, lam, x, nu, rooted=False)),
        SeriesEvaluation(to, n_terms, tree_tail_bound(n_terms, lam, x, nu, rooted=True)),
        x,
    )


# -- census series ----------------------------------------------------------------


@dataclass(frozen=True)
class CensusSeriesValues:
    """Truncated connected-class series: sum of mu, its vertex moment, and exp."""

    connected_sum: SeriesEvaluation     # truncated C (or D for a freely-addable view)
    vertex_moment: SeriesEvaluation     # truncated sum v(H) mu(H) / rho  (= D' estimate)
    exp_sum: SeriesEvaluation           # exp of connected_sum (truncated F)


def census_tail_bound(census: UnlabelledCensus, rho, w: Weighting, rooted: bool = False):
    """Bound on the mu-mass the census drops past n_max (rooted: on its
    vertex moment, the sum of v(H) mu(H)), from the tail of the tree series
    that dominates it.  Certified only for a nonempty census of the trees
    (census.of_trees) with lambda0 * e * rho <= 1; else None."""
    lam = float(w.lambda0)
    if not (census.of_trees and census.v.size and lam * math.e * float(rho) <= 1 + 1e-12):
        return None
    return tree_tail_bound(census.n_max, lam, float(rho), float(w.nu), rooted)


def census_series_eval(census: UnlabelledCensus, rho, w: Weighting) -> CensusSeriesValues:
    """Sum mu over the census classes, with the tails of census_tail_bound."""
    total = 0.0
    moment = 0.0
    for v, mu in zip(census.v.tolist(), census.mus(rho, w)):
        total += mu
        moment += v * mu / float(rho)
    tail = census_tail_bound(census, rho, w)
    # the trees of order v hold v^(v-1) rooted labelled trees, so summed over them
    # v(H) mu(H) is the v-th term of the rooted series: its tail over rho bounds the
    # dropped part of sum v(H) mu(H) / rho
    rooted = census_tail_bound(census, rho, w, rooted=True)
    moment_tail = None if rooted is None else rooted / float(rho)
    terms = census.v.size
    c_eval = SeriesEvaluation(total, terms, tail)
    m_eval = SeriesEvaluation(moment, terms, moment_tail)
    exp_tail = None
    if tail is not None:
        exp_tail = math.exp(total) * (math.exp(tail) - 1)
    return CensusSeriesValues(c_eval, m_eval, SeriesEvaluation(math.exp(total), terms, exp_tail))


# -- forest closed forms -------------------------------------------------------------


@dataclass(frozen=True)
class ForestLimits:
    conn_limit: float          # e^{-nu/(2 lam)}
    frag_mean_limit: float     # nu/lam
    kappa_mean_limit: float    # 1 + nu/(2 lam)


def forest_limit_pack(w: Weighting) -> ForestLimits:
    lam, nu = float(w.lambda0), float(w.nu)
    return ForestLimits(
        conn_limit=math.exp(-nu / (2 * lam)),
        frag_mean_limit=nu / lam,
        kappa_mean_limit=1 + nu / (2 * lam),
    )


# -- pendant appearance limit ----------------------------------------------------------


def pendant_limit(h: RootedGraph | Graph, gamma: float, w: Weighting | float) -> float:
    """Limiting pendant-appearance density lam * lam^{e(H)} / (gamma^{v(H)} v(H)!).

    With split edge parameters the numerator becomes
    lambda0 * lambda0^{e0(H)} * lambda1^{e1(H)} (the attaching edge is a bridge).
    """
    g = h.graph if isinstance(h, RootedGraph) else h
    if not isinstance(w, Weighting):
        w = Weighting(w, 1)
    e0, e1 = bridge_partition(g) if not w.is_diagonal else (g.edge_count, 0)
    num = float(w.lambda0) * float(w.lambda0) ** e0 * float(w.lambda1) ** e1
    return num / (gamma ** g.n * math.factorial(g.n))


# -- constants bundle --------------------------------------------------------------------


@dataclass
class AsymptoticConstants:
    lam: float
    nu: float
    gamma: float
    rho: float
    beta: Optional[float]
    alpha: float
    conn_limit: Optional[float] = None
    frag_mean_limit: Optional[float] = None
    core_conn_limit: Optional[float] = None
    residuals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "nu": self.nu,
            "gamma": self.gamma,
            "rho": self.rho,
            "beta": self.beta,
            "alpha": self.alpha,
            "conn_limit": self.conn_limit,
            "frag_mean_limit": self.frag_mean_limit,
            "core_conn_limit": self.core_conn_limit,
            "residuals": dict(self.residuals),
        }


def constants_from_gamma(gamma: float, w: Weighting, tol: float = 1e-9,
                         census: UnlabelledCensus | None = None) -> AsymptoticConstants:
    """Solve the constants determined by a growth constant; optionally add the
    truncated census-based limits (connectivity, fragment mean, core connectivity).

    With split edge parameters the relations use the bridge parameter lambda0.
    """
    lam = float(w.lambda0)
    beta = solve_beta(gamma, lam, tol)
    alpha = solve_alpha(gamma, lam, tol)
    rho = 1.0 / gamma
    residuals = {}
    if beta is not None:
        residuals["beta_equation"] = beta * math.exp(lam / beta) - gamma
        residuals["alpha_vs_beta"] = alpha - (1 - lam / beta)
        residuals["alpha_equation"] = (1 - alpha) * math.exp(-(1 - alpha)) - lam / gamma
    out = AsymptoticConstants(lam, float(w.nu), gamma, rho, beta, alpha, residuals=residuals)
    if census is not None:
        series = census_series_eval(census, rho, w)
        d_trunc = series.connected_sum.value
        out.conn_limit = math.exp(-d_trunc)
        out.frag_mean_limit = rho * series.vertex_moment.value
        if gamma > lam * math.e:
            from ._kernels import tree_series_sum

            t_val = tree_series_sum(200000, lam, rho, float(w.nu), rooted=False)
            out.core_conn_limit = math.exp(t_val - d_trunc)
    return out


PLANAR_GAMMA = 27.226878
PLANAR_BETA = 26.207554
PLANAR_ALPHA = 0.961843
PLANAR_EXP_MINUS_D = 0.963253
PLANAR_EXP_T = 1.038138
PLANAR_CORE_CONN = 0.999990


def planar_constants(tol: float = 1e-9) -> AsymptoticConstants:
    """Published uniform-planar reference constants, re-derived where an equation exists.

    solve_beta / solve_alpha applied to the published growth constant must
    reproduce the published beta and alpha; the core-connectivity limit is the
    product of the two published exponentials.
    """
    w = Weighting(1, 1)
    out = constants_from_gamma(PLANAR_GAMMA, w, tol)
    out.conn_limit = PLANAR_EXP_MINUS_D
    out.core_conn_limit = PLANAR_EXP_MINUS_D * PLANAR_EXP_T
    out.residuals["beta_vs_published"] = (out.beta or math.nan) - PLANAR_BETA
    out.residuals["alpha_vs_published"] = out.alpha - PLANAR_ALPHA
    out.residuals["core_conn_vs_published"] = out.core_conn_limit - PLANAR_CORE_CONN
    return out


# -- fragment size law ----------------------------------------------------------------------


def frag_size_distribution(census_f: UnlabelledCensus, rho, w: Weighting,
                           f_value: float) -> list[float]:
    """Limiting law of the fragment vertex count.

    Pr[v = k] = rho^k * tau((F)_k) / (k! * F) where tau((F)_k) counts all
    freely-addable graphs on [k]; the disconnected counts come from the
    connected census through the exponential formula.  Index 0 of the result
    is 1/F (empty fragment = connected graph).
    """
    n_max = census_f.n_max
    c = census_labelled_total(census_f, w)
    f_counts = egf_lift(c, n_max)
    partial = sum(float(rho) ** k * float(f_counts[k]) / math.factorial(k)
                  for k in range(n_max + 1))
    if f_value < partial * (1 - 1e-12):
        raise ValueError("f_value is below the truncated partial sum; "
                         "the probabilities would exceed 1")
    out = []
    for k in range(n_max + 1):
        out.append(float(rho) ** k * float(f_counts[k]) / (math.factorial(k) * f_value))
    return out
