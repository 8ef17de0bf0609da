"""The benchmark's workloads: fixed lists of `minorclass` CLI calls.

Each op is one `minorclass.cli.main(argv)` call, run in a fresh child process
so that no op inherits a cache (the subset-stats cache, the canonical-form LRU,
a family's membership memo) from the op before it.  Enumerations take no
randomness; the benchmark's `--seed` becomes the `--seed` of the sampler ops.

Why these workloads (each one makes a different layer do most of the work):

* forest-lattice -- the subset-lattice kernels (`subset_stats`, `sweep_counts`)
  over 2^21 masks at n=7, the exact Fraction weighting with split bridge
  parameters, and an exact sampler that only reads the per-mask arrays.  No
  canonicalization or minor search runs.
* minor-families -- family membership (the subset-lattice DP, built-in
  predicates against `has_minor`, canonical-memo keys) and canonicalization
  (census, dichotomy scan).  The lattice is only 2^15 masks here: minor-tested
  slices at n=7 take minutes each (planar: about 113 s), too long to repeat.
* samplers -- the MCMC kernel (forest mode without lattice arrays, and the
  member-array mode for series-parallel), the Boltzmann and Pruefer samplers,
  and the CLI's JSONL writer on large outputs.  `mcmc-forests-16` sits past
  the chain's 63-pair int64 edge mask, where it samples the wrong law; it is
  kept so that the defect shows (see KNOWN_DEFECTS).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
FAMILY_DIR = HERE / "families"

# The benchmark's definition: its workloads and the metrics a run reports.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@dataclass(frozen=True)
class KnownDefect:
    reason: str
    problem: str  # the start of the one check problem the defect explains


# Ops whose output is known to be wrong at the commit that defined the
# benchmark.  They run and are checked like every other op.  The problem their
# defect explains is reported as a known defect instead of an unexpected
# failure, and a pass is reported as fixed; any other problem (a non-zero
# exit, a wrong number or shape of draws) is an unexpected failure.
KNOWN_DEFECTS = {
    "mcmc-forests-16": KnownDefect(
        "MCMC edge masks overflow int64 beyond 63 vertex pairs (n >= 12), "
        "so the forest chain at n=16 samples the wrong law",
        "connected frequency"),
}


def unexpected_problems(op_id: str, problems: list[str]) -> list[str]:
    """The problems of op `op_id` that its known defect, if any, does not explain."""
    defect = KNOWN_DEFECTS.get(op_id)
    return [p for p in problems if defect is None or not p.startswith(defect.problem)]


@dataclass(frozen=True)
class Op:
    id: str
    argv: tuple[str, ...]


def _fam(name: str) -> str:
    return str(FAMILY_DIR / name)


def _mcmc(op_id: str, family: str, n: int, seed: int) -> Op:
    return Op(op_id, ("sample", "--method", "mcmc", "--family", family, "--n", str(n),
                      "--draws", "8000", "--burn-in", "20000", "--thin", "10",
                      "--seed", str(seed)))


def workload_ops(name: str, seed: int) -> list[Op]:
    """The ops of workload `name`; `seed` is passed to the sampler ops only."""
    if name == "forest-lattice":
        return [
            Op("enum-forests-7", ("enumerate", "--family", "forests", "--nmax", "7")),
            Op("enum-all-ext-6", ("enumerate", "--family", "all", "--lambda0", "1/2",
                                  "--lambda1", "2", "--nu", "3", "--nmax", "6")),
            Op("exact-forests-7", ("sample", "--family", "forests", "--method", "exact",
                                   "--n", "7", "--draws", "10000", "--seed", str(seed))),
        ]
    if name == "minor-families":
        return [
            Op("enum-planar-6", ("enumerate", "--family", "planar", "--nmax", "6")),
            Op("enum-planar-minors-6", ("enumerate", "--family", _fam("planar-by-minors.json"),
                                        "--nmax", "6")),
            Op("enum-sp-6", ("enumerate", "--family", "series-parallel", "--nmax", "6")),
            Op("enum-nok4-minors-6", ("enumerate", "--family", _fam("no-k4.json"),
                                      "--nmax", "6")),
            Op("enum-exk1-6", ("enumerate", "--family", "ex-k-disjoint-cycles:1",
                               "--nmax", "6")),
            Op("enum-no2c3-minors-6", ("enumerate", "--family", _fam("no-2c3.json"),
                                       "--nmax", "6")),
            Op("census-all-6", ("census", "--family", "all", "--nmax", "6")),
            Op("famcheck-planar-6", ("families-check", "--family", "planar", "--nmax", "6")),
            Op("constants-planar-6", ("constants", "--family", "planar", "--nmax", "6",
                                      "--census-nmax", "6")),
        ]
    if name == "samplers":
        return [
            _mcmc("mcmc-forests-10", "forests", 10, seed),
            _mcmc("mcmc-forests-16", "forests", 16, seed),
            _mcmc("mcmc-sp-6", "series-parallel", 6, seed),
            Op("boltzmann-forests-6", ("sample", "--family", "forests", "--method", "boltzmann",
                                       "--census-nmax", "6", "--draws", "50000",
                                       "--seed", str(seed))),
            Op("tree-300", ("sample", "--method", "tree", "--n", "300", "--draws", "1000",
                            "--seed", str(seed))),
        ]
    raise KeyError(f"unknown workload {name!r}")


WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])

ALL_OP_IDS = tuple(op.id for w in WORKLOADS for op in workload_ops(w, 0))
