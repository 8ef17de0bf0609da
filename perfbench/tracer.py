"""Span tracer for the benchmark's traced run.

The tracer wraps named public functions of `minorclass` from outside the
package.  `install` replaces every binding of each function: the defining
module's attribute, the same object imported by name into other modules, and
class attributes such as `GraphFamily.base_member`.  Each call records a span
(name, parent span, start, end) in compact in-memory arrays; some calls also
add to named counters (masks swept, MCMC steps, memo lookups and hits).  `dump` writes
the spans and counters once, when the op has finished.

The child process installs the tracer before it calls `cli.main`, so every
family, memo and cache the op creates sees the wrapped functions.
"""

from __future__ import annotations

import array
import functools
import inspect
import json
import sys
import time
from collections import defaultdict


def _lattice(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def _count_subset_stats(args, result, pre):
    return {"masks": _lattice(args()["n"])}


def _count_sweep(args, result, pre):
    bound = args()
    masks = _lattice(bound["n"])
    return {"masks": masks, "bridge_masks": masks if bound["want_bridges"] else 0}


def _count_member_array(args, result, pre):
    total = _lattice(args()["n"])
    return {"masks": total, "members": total if result is None else int(result.sum())}


def _count_mcmc_chain(args, result, pre):
    return {"steps": len(args()["proposals"])}


def _count_prufer(args, result, pre):
    return {"trees": args()["seqs"].shape[0]}


def _count_census(args, result, pre):
    return {"classes": len(result.entries)}


def _count_has_minor(args, result, pre):
    return {"true": int(bool(result))}


def _memo_size(args):
    return len(args()["self"]._code_memo)


def _count_base_member(args, result, pre):
    from minorclass.families import CANON_MEMO_CAP

    bound = args()
    fam, g = bound["self"], bound["g"]
    lookup = fam.memoize_membership and g.n <= CANON_MEMO_CAP
    hit = lookup and len(fam._code_memo) == pre
    return {"memo_lookups": int(lookup), "memo_hits": int(hit)}


# (module, attribute path, span name, counter, pre-call probe).  Spans that
# share a name are aggregated together: `families.predicate` covers every
# built-in membership predicate, `families.verify` the three closure checks.
TARGETS = (
    ("minorclass.cli", "main", "cli.main", None, None),
    ("minorclass._kernels", "subset_stats", "_kernels.subset_stats", _count_subset_stats, None),
    ("minorclass._kernels", "sweep_counts", "_kernels.sweep_counts", _count_sweep, None),
    ("minorclass._kernels", "mcmc_chain", "_kernels.mcmc_chain", _count_mcmc_chain, None),
    ("minorclass._kernels", "prufer_decode", "_kernels.prufer_decode", _count_prufer, None),
    ("minorclass.enumeration", "brute_force_tau", "enumeration.brute_force_tau", None, None),
    ("minorclass.enumeration", "member_mask_array", "enumeration.member_mask_array",
     _count_member_array, None),
    ("minorclass.enumeration", "build_census", "enumeration.build_census", _count_census, None),
    ("minorclass.families", "GraphFamily.base_member", "families.GraphFamily.base_member",
     _count_base_member, _memo_size),
    ("minorclass.graphs", "is_forest", "families.predicate", None, None),
    ("minorclass.families", "_planar_predicate", "families.predicate", None, None),
    ("minorclass.families", "_no_k4_minor", "families.predicate", None, None),
    ("minorclass.families", "max_disjoint_cycles", "families.predicate", None, None),
    ("minorclass.families", "verify_bridge_addable", "families.verify", None, None),
    ("minorclass.families", "verify_decomposable", "families.verify", None, None),
    ("minorclass.families", "verify_trimmable", "families.verify", None, None),
    ("minorclass.families", "dichotomy_scan", "families.dichotomy_scan", None, None),
    ("minorclass.minors", "has_minor", "minors.has_minor", _count_has_minor, None),
    ("minorclass.canon", "canonicalize", "canon.canonicalize", None, None),
    ("minorclass.canon", "automorphism_count", "canon.automorphism_count", None, None),
    ("minorclass.asymptotics", "constants_from_gamma", "asymptotics.constants_from_gamma",
     None, None),
    ("minorclass.asymptotics", "tree_series_eval", "asymptotics.tree_series_eval", None, None),
    ("minorclass.sampling", "exact_sample", "sampling.exact_sample", None, None),
    ("minorclass.sampling", "mcmc_sample", "sampling.mcmc_sample", None, None),
    ("minorclass.sampling", "boltzmann_poisson_sample", "sampling.boltzmann_poisson_sample",
     None, None),
    ("minorclass.sampling", "random_tree_sample", "sampling.random_tree_sample", None, None),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("H")
        self.parent = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span_name, fn, count=None, pre=None):
        nid = self._name_id(span_name)
        sig = inspect.signature(fn)
        names, parents, t0s, t1s, stack = self.name, self.parent, self.t0, self.t1, self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            def bound():
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                return ba.arguments

            before = pre(bound) if pre is not None else None
            sid = len(t0s)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(sid)
            t0s[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
            if count is not None:
                for key, val in count(bound, result, before).items():
                    counters[f"{span_name}.{key}"] += val
            return result

        return functools.wraps(fn)(traced)

    def install(self, targets=TARGETS):
        """Wrap every target at every binding."""
        for module_name, path, span_name, count, pre in targets:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, count, pre)
            setattr(owner, attr, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.split(".")[0] != "minorclass":
                    continue
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)

    def dump(self, path: str):
        """Write the spans (.npz) and counters (.json next to it)."""
        import numpy as np

        np.savez(path, name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 t0=np.frombuffer(self.t0, dtype=np.float64),
                 t1=np.frombuffer(self.t1, dtype=np.float64))
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "counters": dict(self.counters)}, fh)
