"""Output checks for the benchmark's ops, against independent oracles.

Every check runs in the parent process after its op's child has exited, so
none of it is timed.  A check returns a list of problems; an empty list means
the output is correct.

* Enumerations: `enum-forests-7` must equal `forest_table` (Cayley weights
  lifted by the exponential formula); the a-column of `enum-all-ext-6` must
  equal `egf_lift` of its c-column; each excluded-minor family must print the
  same bytes as the built-in predicate family it restates.
* `census-all-6` must have 1, 1, 2, 6, 21, 112 classes of orders 1..6, with
  `sum v!/aut` equal to the labelled connected counts 1, 1, 4, 38, 728, 26704.
* Samplers: frequencies must fall within `Z` standard errors of the exact
  law (see each check for the law and the error model); every `tree-300`
  draw must be a spanning tree.
* Every deterministic output must also equal the reference recorded in
  `reference/`.  Integers, fractions and strings compare exactly; floats
  compare to a relative `FLOAT_RTOL`, so that a last-digit libm difference
  on another machine is not a failure.  The residuals that `constants`
  prints are round-off, so only their names are compared; each value must be
  below `RESIDUAL_BOUND`.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FLOAT_RTOL = 1e-9

# Largest allowed |residual| of an equation that `constants` solved.
RESIDUAL_BOUND = 1e-8

# Allowed deviation of a sampled frequency or mean, in standard errors.
Z = 5.0

# MCMC draws are correlated; the standard error of a frequency over the kept
# draws is sqrt(TAU_MCMC) times the i.i.d. one.  TAU_MCMC bounds the
# integrated autocorrelation time of the connectivity indicator at
# `--thin 10`: with automatic windowing it measured 1.05-1.19 over seeds
# 0..9 for forests at n=10 and 0.99-1.20 for series-parallel at n=6.
TAU_MCMC = 2.0

CENSUS_ALL_6_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
CENSUS_ALL_6_LABELLED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

# Excluded-minor restatements and the built-in predicate family they must
# reproduce byte for byte.
SAME_AS = {
    "enum-planar-minors-6": "enum-planar-6",
    "enum-nok4-minors-6": "enum-sp-6",
    "enum-no2c3-minors-6": "enum-exk1-6",
}

# Ops whose output depends on nothing but the program; their output is
# recorded in `reference/` (an excluded-minor op shares its partner's file).
DETERMINISTIC = (
    "enum-forests-7", "enum-all-ext-6", "enum-planar-6", "enum-sp-6", "enum-exk1-6",
    "census-all-6", "famcheck-planar-6", "constants-planar-6",
)


def reference_path(op_id: str) -> Path:
    op_id = SAME_AS.get(op_id, op_id)
    ext = "json" if op_id.startswith(("famcheck", "constants")) else "csv"
    return REFERENCE_DIR / f"{op_id}.{ext}"


class Oracles:
    """Exact laws, computed once per run and only when an op needs them."""

    @functools.cached_property
    def forests(self):
        from minorclass import Weighting, forest_table

        return forest_table(Weighting(1, 1), 16)

    def forest_conn(self, n: int) -> float:
        return float(Fraction(self.forests.c[n]) / Fraction(self.forests.a[n]))

    @functools.cached_property
    def sp6(self) -> tuple[float, float]:
        """(P(connected), P(connected, min degree >= 2)) on series-parallel n=6."""
        from minorclass import Weighting, brute_force_tau, builtin_family

        t = brute_force_tau(builtin_family("series-parallel"), Weighting(1, 1), 6)
        return float(Fraction(t.c) / Fraction(t.a)), float(Fraction(t.b) / Fraction(t.a))


# -- parsing ------------------------------------------------------------------


def _number(cell: str):
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    if "/" in cell:
        return Fraction(cell)
    return float(cell)


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _graphs(text: str) -> list[tuple[int, list]]:
    out = []
    for line in text.splitlines():
        if line.strip():
            d = json.loads(line)
            out.append((d["n"], d["edges"]))
    return out


def _components(n: int, edges) -> tuple[list[int], int]:
    """(component sizes, edges that closed a cycle) by union-find on 1-indexed edges."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cyclic = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            cyclic += 1
        else:
            parent[ru] = rv
    sizes: dict[int, int] = {}
    for v in range(1, n + 1):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return list(sizes.values()), cyclic


# -- comparisons ---------------------------------------------------------------


def _same_value(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    return a == b


def _same_cell(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return _same_value(_number(a), _number(b))
    except ValueError:
        return False


def _same_json(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_json(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return _same_value(a, b)


def _without_residual_values(d: dict) -> dict:
    return {**d, "residuals": sorted(d["residuals"])} if "residuals" in d else d


def matches_reference(op_id: str, text: str) -> list[str]:
    path = reference_path(op_id)
    ref = path.read_text()
    if path.suffix == ".json":
        same = _same_json(_without_residual_values(json.loads(text)),
                          _without_residual_values(json.loads(ref)))
    else:
        rows, ref_rows = _csv_rows(text), _csv_rows(ref)
        same = len(rows) == len(ref_rows) and all(
            len(r) == len(q) and all(_same_cell(x, y) for x, y in zip(r, q))
            for r, q in zip(rows, ref_rows))
    return [] if same else [f"output differs from {path.name}"]


# -- per-op checks ---------------------------------------------------------------


def _table(text: str) -> dict[str, list]:
    rows = _csv_rows(text)
    if not rows or rows[0] != ["n", "a_n", "c_n", "b_n", "r_n", "growth_estimate"]:
        raise ValueError("not an enumerate table")
    cols = {name: [] for name in rows[0]}
    for row in rows[1:]:
        for name, cell in zip(rows[0], row):
            cols[name].append(_number(cell))
    return cols


def check_forests_7(text, oracles, outputs) -> list[str]:
    t = _table(text)
    ft = oracles.forests
    problems = []
    if t["n"] != list(range(8)):
        return ["rows are not n = 0..7"]
    for col, exact in (("a_n", ft.a), ("c_n", ft.c)):
        for n in range(8):
            if t[col][n] != exact[n]:
                problems.append(f"{col}[{n}] = {t[col][n]}, forest_table gives {exact[n]}")
    return problems


def check_all_ext_6(text, oracles, outputs) -> list[str]:
    from minorclass import egf_lift

    t = _table(text)
    lifted = egf_lift(t["c_n"])
    return [f"a_n[{n}] = {a}, egf_lift(c) gives {b}"
            for n, (a, b) in enumerate(zip(t["a_n"], lifted)) if a != b]


def check_same_as(op_id):
    def check(text, oracles, outputs) -> list[str]:
        partner = SAME_AS[op_id]
        if outputs.get(partner) is None:
            return [f"no output from {partner} to compare with"]
        return [] if text == outputs[partner] else [f"output differs from {partner}"]

    return check


def check_constants_residuals(text, oracles, outputs) -> list[str]:
    residuals = json.loads(text)["residuals"]
    return [f"residual {name} = {r!r}, bound {RESIDUAL_BOUND}"
            for name, r in residuals.items() if not abs(r) < RESIDUAL_BOUND]


def check_census_all_6(text, oracles, outputs) -> list[str]:
    rows = _csv_rows(text)
    if not rows or rows[0] != ["code", "v", "e", "kappa", "aut"]:
        return ["not a census table"]
    classes: dict[int, int] = {}
    labelled: dict[int, Fraction] = {}
    for row in rows[1:]:
        v, aut = int(row[1]), int(row[4])
        classes[v] = classes.get(v, 0) + 1
        labelled[v] = labelled.get(v, 0) + Fraction(math.factorial(v), aut)
    problems = []
    if classes != CENSUS_ALL_6_CLASSES:
        problems.append(f"class counts {classes}, expected {CENSUS_ALL_6_CLASSES}")
    if labelled != CENSUS_ALL_6_LABELLED:
        problems.append(f"sum v!/aut {labelled}, expected {CENSUS_ALL_6_LABELLED}")
    return problems


def _frequency_problem(label, hits, draws, p, tau=1.0) -> list[str]:
    freq = hits / draws
    tol = Z * math.sqrt(tau * p * (1 - p) / draws)
    if abs(freq - p) > tol:
        return [f"{label} frequency {freq:.4f}, exact {p:.4f} (tolerance {tol:.4f})"]
    return []


def check_forest_sampler(n: int, draws: int, tau: float):
    """Draws must be forests on n vertices whose connected share matches c_n/a_n."""

    def check(text, oracles, outputs) -> list[str]:
        graphs = _graphs(text)
        if len(graphs) != draws:
            return [f"{len(graphs)} draws, expected {draws}"]
        connected = 0
        for order, edges in graphs:
            if order != n:
                return [f"a draw has {order} vertices, expected {n}"]
            sizes, cyclic = _components(n, edges)
            if cyclic:
                return ["a draw is not a forest"]
            connected += len(sizes) == 1
        return _frequency_problem("connected", connected, draws, oracles.forest_conn(n), tau)

    return check


def check_sp_mcmc_6(text, oracles, outputs) -> list[str]:
    """Connected and connected-with-min-degree-2 shares match brute_force_tau."""
    draws = 8000
    graphs = _graphs(text)
    if len(graphs) != draws:
        return [f"{len(graphs)} draws, expected {draws}"]
    conn = core = 0
    for order, edges in graphs:
        if order != 6:
            return [f"a draw has {order} vertices, expected 6"]
        sizes, _ = _components(6, edges)
        if len(sizes) == 1:
            conn += 1
            deg = [0] * 7
            for u, v in edges:
                deg[u] += 1
                deg[v] += 1
            core += min(deg[1:]) >= 2
    p_conn, p_core = oracles.sp6
    return (_frequency_problem("connected", conn, draws, p_conn, TAU_MCMC)
            + _frequency_problem("2-connected-core", core, draws, p_core, TAU_MCMC))


def check_boltzmann_forests_6(text, oracles, outputs) -> list[str]:
    """Mean number of components of order v equals the Poisson mean
    rho^v lam^(v-1) nu v^(v-2) / v! (Cayley's count of labelled trees), at the
    CLI's default rho = 1/(e lam) with lam = nu = 1."""
    draws, rho = 50000, 1 / math.e
    graphs = _graphs(text)
    if len(graphs) != draws:
        return [f"{len(graphs)} draws, expected {draws}"]
    counts = [0] * 7
    for order, edges in graphs:
        sizes, cyclic = _components(order, edges)
        if cyclic or max(sizes, default=1) > 6:
            return ["a component is not a tree of order <= 6"]
        for s in sizes:
            counts[s] += 1
    problems = []
    for v in range(1, 7):
        mu = rho ** v * v ** (v - 2) / math.factorial(v)
        tol = Z * math.sqrt(mu / draws)
        if abs(counts[v] / draws - mu) > tol:
            problems.append(f"order-{v} components: mean {counts[v] / draws:.5f}, "
                            f"Poisson mean {mu:.5f} (tolerance {tol:.5f})")
    return problems


def check_tree_300(text, oracles, outputs) -> list[str]:
    graphs = _graphs(text)
    if len(graphs) != 1000:
        return [f"{len(graphs)} draws, expected 1000"]
    for order, edges in graphs:
        if order != 300 or len(edges) != 299:
            return ["a draw does not have 300 vertices and 299 edges"]
        sizes, cyclic = _components(300, edges)
        if cyclic or len(sizes) != 1:
            return ["a draw is not a spanning tree"]
    return []


CHECKS = {
    "enum-forests-7": check_forests_7,
    "enum-all-ext-6": check_all_ext_6,
    "exact-forests-7": check_forest_sampler(7, 10000, 1.0),
    "census-all-6": check_census_all_6,
    "constants-planar-6": check_constants_residuals,
    "mcmc-forests-10": check_forest_sampler(10, 8000, TAU_MCMC),
    "mcmc-forests-16": check_forest_sampler(16, 8000, TAU_MCMC),
    "mcmc-sp-6": check_sp_mcmc_6,
    "boltzmann-forests-6": check_boltzmann_forests_6,
    "tree-300": check_tree_300,
    **{op: check_same_as(op) for op in SAME_AS},
}


def check_op(op_id: str, text: str, oracles: Oracles, outputs: dict) -> list[str]:
    """Problems with op `op_id`'s output `text` ([] when correct).

    `outputs` maps the ids of earlier ops in the same pass to their output."""
    try:
        problems = CHECKS[op_id](text, oracles, outputs) if op_id in CHECKS else []
        if op_id in DETERMINISTIC or op_id in SAME_AS:
            problems += matches_reference(op_id, text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems
