"""Per-layer metrics of a traced pass, computed from the span files.

A span's self time is its duration minus the durations of its child spans.
`time_s` metrics sum the whole durations of a function's spans (none of the
traced functions calls itself), `self_s` metrics sum self times.  The
`design.*_share` metrics divide the summed self time of a group of layers by
the summed `cli.main` time, so the groups' shares of one workload add up to
at most 1.
"""

from __future__ import annotations

import json
from collections import defaultdict
from statistics import median

import numpy as np

from workloads import ALL_OP_IDS, BENCHMARK

LATTICE = ("_kernels.subset_stats", "_kernels.sweep_counts")
MEMBERSHIP = ("enumeration.member_mask_array", "families.GraphFamily.base_member",
              "families.predicate", "minors.has_minor", "families.verify",
              "families.dichotomy_scan", "canon.canonicalize", "canon.automorphism_count")
SAMPLERS = ("_kernels.mcmc_chain", "_kernels.prufer_decode", "sampling.exact_sample",
            "sampling.mcmc_sample", "sampling.boltzmann_poisson_sample",
            "sampling.random_tree_sample")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = tuple((m["name"], m["unit"]) for m in BENCHMARK["per_layer"])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _load(trace_path: str):
    """(per-name calls, per-name total time, per-name self time, counters) of one op."""
    spans = np.load(trace_path)
    with open(trace_path + ".json") as fh:
        meta = json.load(fh)
    names = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["t1"] - spans["t0"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child_time
    k = len(meta["names"])
    calls = np.bincount(names, minlength=k)
    total = np.bincount(names, weights=dur, minlength=k)
    selfs = np.bincount(names, weights=self_time, minlength=k)
    return meta["names"], calls, total, selfs, meta["counters"]


def layer_metrics(traced: list[dict], untraced_wall_s: float, fail_frac: float) -> dict:
    """Every PER_LAYER metric from the records of one traced pass."""
    calls: dict[str, float] = defaultdict(float)
    time_s: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    hits = misses = 0
    for rec in traced:
        if rec.get("trace_file") is None:
            continue
        names, c, t, s, cnt = _load(rec["trace_file"])
        for i, name in enumerate(names):
            calls[name] += float(c[i])
            time_s[name] += float(t[i])
            self_s[name] += float(s[i])
        for key, val in cnt.items():
            counters[key] += val
        hits += rec["canon_cache"]["hits"]
        misses += rec["canon_cache"]["misses"]

    cli_time = time_s["cli.main"]
    m: dict[str, float] = {}
    for name in LATTICE:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.time_s"] = time_s[name]
        m[f"{name}.masks"] = counters[f"{name}.masks"]
        m[f"{name}.masks_per_s"] = _ratio(counters[f"{name}.masks"], time_s[name])
    m["_kernels.sweep_counts.bridge_masks"] = counters["_kernels.sweep_counts.bridge_masks"]
    mma = "enumeration.member_mask_array"
    m[f"{mma}.calls"] = calls[mma]
    m[f"{mma}.self_s"] = self_s[mma]
    m[f"{mma}.member_frac"] = _ratio(counters[f"{mma}.members"], counters[f"{mma}.masks"])
    bm = "families.GraphFamily.base_member"
    m[f"{bm}.calls"] = calls[bm]
    m[f"{bm}.self_s"] = self_s[bm]
    m[f"{bm}.memo_hit_frac"] = _ratio(counters[f"{bm}.memo_hits"],
                                      counters[f"{bm}.memo_lookups"])
    for name in ("families.predicate", "minors.has_minor", "canon.canonicalize",
                 "canon.automorphism_count"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.time_s"] = time_s[name]
    m["minors.has_minor.true_frac"] = _ratio(counters["minors.has_minor.true"],
                                             calls["minors.has_minor"])
    m["canon.cache_hit_frac"] = _ratio(hits, hits + misses)
    m["enumeration.build_census.classes"] = counters["enumeration.build_census.classes"]
    for name in ("enumeration.brute_force_tau", "enumeration.build_census", "families.verify",
                 "families.dichotomy_scan", "asymptotics.constants_from_gamma",
                 "sampling.exact_sample", "sampling.mcmc_sample",
                 "sampling.boltzmann_poisson_sample", "sampling.random_tree_sample", "cli.main"):
        m[f"{name}.self_s"] = self_s[name]
    m["asymptotics.tree_series_eval.time_s"] = time_s["asymptotics.tree_series_eval"]
    mc = "_kernels.mcmc_chain"
    m[f"{mc}.time_s"] = time_s[mc]
    m[f"{mc}.steps"] = counters[f"{mc}.steps"]
    m[f"{mc}.us_per_step"] = _ratio(1e6 * time_s[mc], counters[f"{mc}.steps"])
    m["_kernels.prufer_decode.time_s"] = time_s["_kernels.prufer_decode"]
    m["_kernels.prufer_decode.trees"] = counters["_kernels.prufer_decode.trees"]
    walls = {rec["id"]: rec["wall_s"] for rec in traced}
    for op in ALL_OP_IDS:
        m[f"cli.{op}.wall_s"] = walls.get(op, 0.0)
    m["setup.import_s"] = median(rec["import_s"] for rec in traced if rec["import_s"] is not None)
    m["trace.overhead_s"] = sum(walls.values()) - untraced_wall_s
    for key, group in (("lattice", LATTICE), ("membership", MEMBERSHIP), ("sampler", SAMPLERS)):
        m[f"design.{key}_share"] = _ratio(sum(self_s[g] for g in group), cli_time)
    m["ops.fail_frac"] = fail_frac
    return {name: m[name] for name, _ in PER_LAYER}
