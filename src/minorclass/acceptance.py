"""The acceptance suite: every headline guarantee as a runnable check.

Each criterion returns a CriterionResult with the measured values and the
verdict at its stated tolerance; the CLI `verify` subcommand and the
tests/test_acceptance.py module both run these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .asymptotics import (
    PLANAR_ALPHA,
    PLANAR_BETA,
    PLANAR_CORE_CONN,
    PLANAR_EXP_MINUS_D,
    PLANAR_EXP_T,
    PLANAR_GAMMA,
    pendant_limit,
    solve_alpha,
    solve_beta,
    tree_series_eval,
)
from .enumeration import (
    brute_force_tau,
    build_census,
    cayley_tree_weights,
    core_decomposition_identity,
    egf_lift,
    exact_frag_mean,
    f_nk,
    f_nk_bruteforce,
    falling_moment_check,
    forest_table,
)
from .families import builtin_family
from .graphs import (
    Graph,
    RootedGraph,
    Weighting,
    big_frag_split,
    is_connected,
    pendant_appearances,
)
from .sampling import (
    boltzmann_component_counts,
    boltzmann_config,
    e_kappa_histogram,
    exact_sample,
    mcmc_sample,
    pairwise_independence,
    poisson_chi_square,
    random_tree_sample,
    stationary_residual,
    tv_distance,
)


@dataclass
class CriterionResult:
    key: str
    description: str
    passed: bool
    measured: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "criterion": self.key,
            "description": self.description,
            "passed": self.passed,
            "measured": self.measured,
        }


_GRID = [(1, 1), (2, 3), (Fraction(1, 2), 1)]


def cayley_trees() -> CriterionResult:
    """Weighted tree counts from enumeration equal the closed form exactly."""
    trees = builtin_family("trees")
    point = brute_force_tau(trees, Weighting(2, 3), 5).c
    ok = point == 6000
    mismatches = []
    for lam, nu in _GRID:
        w = Weighting(lam, nu)
        expect = cayley_tree_weights(w, 7)
        for n in range(1, 8):
            got = brute_force_tau(trees, w, n).c
            if got != expect[n]:
                mismatches.append((str(lam), str(nu), n, str(got), str(expect[n])))
    ok = ok and not mismatches
    return CriterionResult(
        "cayley-trees",
        "exact weighted tree counts: c_5(2,3)=6000 and the closed form for n<=7 on a 3-point grid",
        ok,
        {"c5_lam2_nu3": str(point), "mismatches": mismatches},
    )


def exp_formula() -> CriterionResult:
    """The exponential-formula lift of the tree weights equals brute-force forest counts."""
    forests = builtin_family("forests")
    bad = []
    for lam, nu in _GRID:
        w = Weighting(lam, nu)
        lifted = egf_lift(cayley_tree_weights(w, 6), 6)
        brute = [brute_force_tau(forests, w, n).a for n in range(7)]
        if lifted != brute:
            bad.append((str(lam), str(nu), [str(x) for x in lifted], [str(x) for x in brute]))
    return CriterionResult(
        "exp-formula",
        "egf lift of connected weights reproduces the all-forest counts exactly for n<=6",
        not bad,
        {"mismatches": bad},
    )


def tree_series() -> CriterionResult:
    """Partial sums of the tree series hit their closed-form limits within certified tails."""
    w = Weighting(1, 1)
    t = tree_series_eval(1 / math.e, w, 10**4)
    to = tree_series_eval(1 / math.e, w, 10**6)
    w23 = Weighting(2, 3)
    t23 = tree_series_eval(1 / (2 * math.e), w23, 10**5)
    err_t = abs(t.tree.value - 0.5)
    err_to = abs(to.rooted.value - 1.0)
    err_23 = abs(t23.tree.value - 0.75)
    ok = (
        err_t <= 1e-5 and t.tree.tail_bound <= 1e-5
        and err_to <= 1e-3 and to.rooted.tail_bound <= 1e-3
        and err_23 <= t23.tree.tail_bound
    )
    return CriterionResult(
        "tree-series",
        "tree series reach 1/2 (N=1e4, tol 1e-5) and 1 (N=1e6, tol 1e-3) and nu/(2 lam) within tails",
        ok,
        {
            "T_error": err_t, "T_tail": t.tree.tail_bound,
            "T_rooted_error": err_to, "T_rooted_tail": to.rooted.tail_bound,
            "T_lam2_nu3_error": err_23, "T_lam2_nu3_tail": t23.tree.tail_bound,
        },
    )


def planar_constants_check() -> CriterionResult:
    """Root solvers reproduce the published planar constants."""
    beta = solve_beta(PLANAR_GAMMA, 1.0)
    alpha = solve_alpha(PLANAR_GAMMA, 1.0)
    core_conn = PLANAR_EXP_MINUS_D * PLANAR_EXP_T
    ok = (
        beta is not None
        and abs(beta - PLANAR_BETA) <= 1e-4
        and abs(alpha - PLANAR_ALPHA) <= 1e-5
        and abs(core_conn - PLANAR_CORE_CONN) <= 1e-5
    )
    return CriterionResult(
        "planar-constants",
        "beta within 1e-4, alpha within 1e-5, core-connectivity product within 1e-5 of the references",
        ok,
        {"beta": beta, "alpha": alpha, "core_conn": core_conn},
    )


def forests_connectivity() -> CriterionResult:
    """Exact connectivity probabilities of forests converge to exp(-1/2)."""
    table = forest_table(Weighting(1, 1), 500)
    limit = math.exp(-0.5)
    points = [100, 200, 300, 400, 500]
    errs = [abs(float(Fraction(table.c[n], table.a[n])) - limit) for n in points]
    monotone = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
    ok = errs[-1] <= 0.01 and monotone
    p500 = float(Fraction(table.c[500], table.a[500]))
    return CriterionResult(
        "forests-connectivity",
        "p_n = c_n/a_n satisfies |p_500 - e^-1/2| <= 0.01 with non-increasing error over n=100..500",
        ok,
        {"errors": errs, "monotone": monotone, "p500": p500},
    )


def core_decomposition() -> CriterionResult:
    """The core-size decomposition formula matches brute force and rebuilds tau(C_n)."""
    fam = builtin_family("all")
    checks = {}
    ok = True
    for lam, nu in [(1, 1), (2, 3)]:
        w = Weighting(lam, nu)
        b3 = brute_force_tau(fam, w, 3).b
        formula = f_nk(fam, w, 4, 3, b3)
        brute = f_nk_bruteforce(fam, w, 4, 3)
        expect = 12 * Fraction(lam) ** 4 * Fraction(nu)
        checks[f"f43_{lam}_{nu}"] = str(formula)
        ok = ok and formula == brute == expect
        for n in range(3, 7):
            lhs, rhs = core_decomposition_identity(fam, w, n)
            ok = ok and lhs == rhs
            checks[f"identity_n{n}_{lam}_{nu}"] = f"{lhs}=={rhs}"
    return CriterionResult(
        "core-decomposition",
        "f(4,3) = 12 lam^4 nu exactly and sum_k f(n,k) + tree term = tau(C_n) for n<=6",
        ok,
        checks,
    )


def boltzmann_poisson() -> CriterionResult:
    """Component counts of the Boltzmann sampler are independent Poissons."""
    w = Weighting(1, 1)
    census = build_census(builtin_family("forests"), 6)
    cfg = boltzmann_config(census, 1 / math.e, w)
    draws = 10**5
    counts = boltzmann_component_counts(cfg, seed=7, draws=draws)
    pvals = []
    for i, mu in enumerate(cfg.mus):
        hist: dict = {}
        col = counts[:, i]
        for v, c in zip(*np.unique(col, return_counts=True)):
            hist[int(v)] = int(c)
        _, _, p = poisson_chi_square(hist, draws, mu)
        pvals.append(p)
    max_corr, rare_pair_p = pairwise_independence(counts, cfg.mus)
    corr_tol = 4.0 / math.sqrt(draws)
    k1_mean = float(counts[:, 0].mean())
    ok = (min(pvals) >= 1e-3 and max_corr <= corr_tol and rare_pair_p >= 1e-3
          and abs(k1_mean - 0.3679) <= 0.006)
    return CriterionResult(
        "boltzmann-poisson",
        "each kappa(R,H) passes chi^2 vs Po(mu) at 1e-3; every pair is independent: "
        "correlations within 4 sigma where both are expected nonzero together in >= 5 draws, "
        "else co-occurrences pass the Poisson upper tail at 1e-3; E[kappa(R,K1)]=0.3679 +/- 0.006",
        ok,
        {"min_pvalue": min(pvals), "max_correlation": max_corr,
         "correlation_tol": corr_tol, "rare_pair_min_pvalue": rare_pair_p,
         "kappa_K1_mean": k1_mean},
    )


def connectivity_bounds() -> CriterionResult:
    """Bridge-addability bounds: connectivity and fragment mean, empirically and exactly."""
    fam = builtin_family("series-parallel")
    w = Weighting(1, 1)
    draws = 10**5
    samples = exact_sample(fam, w, 6, seed=11, draws=draws)
    conn_emp = sum(1 for g in samples if is_connected(g)) / draws
    sigma = math.sqrt(conn_emp * (1 - conn_emp) / draws)
    frag_emp = sum(6 - big_frag_split(g)[0].graph.n for g in samples) / draws
    t6 = brute_force_tau(fam, w, 6)
    conn_exact = Fraction(t6.c, t6.a)
    frag_exact = exact_frag_mean(fam, w, 6)
    ok = (
        conn_emp >= math.exp(-1) - 3 * sigma
        and frag_emp < 2.0
        and float(conn_exact) >= math.exp(-1)
        and float(frag_exact) < 2.0
    )
    return CriterionResult(
        "connectivity-bounds",
        "Pr(connected) >= e^-1 and E[frag] < 2 nu/lam for the K4-free class at n=6 (sampled and exact)",
        ok,
        {"conn_empirical": conn_emp, "conn_exact": float(conn_exact),
         "frag_empirical": frag_emp, "frag_exact": float(frag_exact)},
    )


def mcmc_oracle() -> CriterionResult:
    """The Metropolis chain matches the exact sampler and is exactly stationary."""
    fam = builtin_family("forests")
    w = Weighting(1, 1)
    draws = 10**5
    xs = exact_sample(fam, w, 6, seed=1, draws=draws)
    ms = mcmc_sample(fam, w, 6, draws=draws, burn_in=10**5, thin=10, seed=2)
    tv = tv_distance(e_kappa_histogram(xs), e_kappa_histogram(ms))
    residual = stationary_residual(fam, w, 3)
    residual_all = stationary_residual(builtin_family("all"), Weighting(2, 3), 3)
    ok = tv <= 0.02 and residual == 0 and residual_all == 0
    return CriterionResult(
        "mcmc-oracle",
        "TV distance of (e,kappa) histograms <= 0.02 at n=6 and exact pi P = pi on the n=3 state space",
        ok,
        {"tv_distance": tv, "stationary_residual": str(residual),
         "stationary_residual_weighted_all": str(residual_all)},
    )


def pendant_limit_check() -> CriterionResult:
    """Leaf densities of big uniform random trees reach the limiting constant."""
    n, draws = 300, 1000
    k1 = RootedGraph(Graph(1, 0), 1)
    trees = random_tree_sample(n, seed=3, draws=draws)
    dens = [pendant_appearances(t, k1) / n for t in trees]
    mean = sum(dens) / draws
    limit = pendant_limit(k1, math.e, 1.0)
    exact_mean = (1 - 1 / n) ** (n - 1)
    sigma = float(np.std(dens) / math.sqrt(draws))
    ok = (
        abs(mean - 1 / math.e) <= 0.01
        and abs(limit - 1 / math.e) < 1e-12
        and abs(mean - exact_mean) <= 4 * sigma
    )
    return CriterionResult(
        "pendant-limit",
        "mean leaf density at n=300 equals 1/e within 0.01 and the exact finite-n mean within 4 sigma",
        ok,
        {"mean_density": mean, "limit": limit, "exact_finite_n": exact_mean, "sigma": sigma},
    )


def falling_moments() -> CriterionResult:
    """The falling-factorial moment identity holds with exactly zero residual."""
    fam = builtin_family("forests")
    w = Weighting(1, 1)
    k1 = Graph(1, 0)
    k2 = Graph.from_edges(2, [(1, 2)])
    picks_list = [
        [(k1, 1)],
        [(k2, 2)],
        [(k1, 1), (k2, 1)],
    ]
    residuals = {}
    ok = True
    for n in (4, 5, 6):
        for i, picks in enumerate(picks_list):
            r = falling_moment_check(fam, w, n, picks, rho=Fraction(2, 3))
            residuals[f"n{n}_picks{i}"] = str(r)
            ok = ok and r == 0
    return CriterionResult(
        "falling-moments",
        "falling-moment identity residual is exactly 0 for K1/K2 picks at n in {4,5,6}",
        ok,
        residuals,
    )


CRITERIA = {
    "cayley-trees": cayley_trees,
    "exp-formula": exp_formula,
    "tree-series": tree_series,
    "planar-constants": planar_constants_check,
    "forests-connectivity": forests_connectivity,
    "core-decomposition": core_decomposition,
    "boltzmann-poisson": boltzmann_poisson,
    "connectivity-bounds": connectivity_bounds,
    "mcmc-oracle": mcmc_oracle,
    "pendant-limit": pendant_limit_check,
    "falling-moments": falling_moments,
}


def run_criteria(names=None) -> list[CriterionResult]:
    if names is None or names == ["all"]:
        names = list(CRITERIA)
    out = []
    for name in names:
        if name not in CRITERIA:
            raise KeyError(f"unknown acceptance criterion {name!r}")
        out.append(CRITERIA[name]())
    return out
