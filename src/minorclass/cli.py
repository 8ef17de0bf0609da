"""Command-line front door.

Subcommands: enumerate, census, constants, sample, stats, pendant,
families-check, verify.  Exit codes: 0 success, 2 configuration error,
3 resource cap exceeded, 4 verification failure.

Every command is a deterministic function of its configuration and seed;
floating-point output uses 12 significant digits, exact values print as
integers or fractions.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import locale  # noqa: F401  (argparse's gettext would import it inside main, at parser build)
import math
import sys
from collections.abc import Iterator
from fractions import Fraction

from ._kernels import MODE_FORESTS
from .errors import EmptySliceError, ResourceCapError
from .families import family_from_spec
from .graphs import RootedGraph, Weighting, graph_from_text, pendant_appearances, \
    overlapping_pendant_appearances
from .jsonl import graph_from_json, graphs_to_jsonl, masks_to_jsonl, trees_to_jsonl


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, Fraction)):
        return str(x)
    return f"{x:.12g}"


def parse_number(s: str, flag: str):
    """Parse an int, a fraction like 1/2, or a float given for option `flag`."""
    s = s.strip()
    try:
        return int(s)
    except ValueError:
        pass
    if "/" in s:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"{flag} must be a number, got {s!r}") from None
    return float(s)


# smallest allowed value of each integer option, and the flags whose names
# differ from the field's
_INT_MINIMUM = {"n": 0, "n_max": 0, "cap": 0, "census_n_max": 0, "draws": 0, "steps": 0,
                "burn_in": 0, "thin": 1, "seed": 0, "minor_budget": 0}
_FLAGS = {"n_max": "--nmax", "census_n_max": "--census-nmax", "burn_in": "--burn-in",
          "minor_budget": "--minor-budget"}


@dataclasses.dataclass
class ExperimentConfig:
    """Flat bag of experiment options; JSON round-trips exactly."""

    family: str = "forests"
    lam: str = "1"
    nu: str = "1"
    lambda0: str | None = None
    lambda1: str | None = None
    n: int | None = None
    n_max: int = 6
    cap: int = 7
    census_n_max: int = 6
    rho: str | None = None
    gamma: str | None = None
    method: str = "exact"
    draws: int = 1000
    steps: int | None = None
    burn_in: int = 100000
    thin: int = 10
    seed: int = 0
    minor_budget: int = 10_000_000
    out: str | None = None

    def validate(self, command: str = "") -> None:
        """Raise ValueError, naming the flag, for an integer option out of range."""
        for name, low in _INT_MINIMUM.items():
            value = getattr(self, name)
            if value is None and name in ("n", "steps"):
                continue
            flag = "--nmax" if command == "census" and name == "census_n_max" \
                else _FLAGS.get(name, "--" + name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{flag} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{flag} must be >= {low}, got {value}")
        if self.seed >= 1 << 64:
            raise ValueError(f"--seed must be below 2^64, got {self.seed}")

    def render(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**data)

    def weighting(self) -> Weighting:
        if self.lambda0 is not None or self.lambda1 is not None:
            if self.lambda0 is None or self.lambda1 is None:
                raise ValueError("lambda0 and lambda1 must be given together")
            return Weighting.extended(parse_number(self.lambda0, "--lambda0"),
                                      parse_number(self.lambda1, "--lambda1"),
                                      parse_number(self.nu, "--nu"))
        return Weighting(parse_number(self.lam, "--lambda"), parse_number(self.nu, "--nu"))


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = ExperimentConfig.parse(fh.read())
    else:
        cfg = ExperimentConfig()
    for f in dataclasses.fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            setattr(cfg, f.name, val)
    return cfg


def _write_text(path: str | None, text: str | Iterator[str]):
    """Write text, or each chunk an iterator yields, to path (stdout for None or "-")."""
    chunks = (text,) if isinstance(text, str) else text
    with contextlib.nullcontext(sys.stdout) if path in (None, "-") else open(path, "w") as fh:
        for chunk in chunks:
            fh.write(chunk)


# -- subcommands ----------------------------------------------------------------


def cmd_enumerate(cfg: ExperimentConfig) -> int:
    from .enumeration import compute_weight_table, forest_table, lattice_mode

    fam = family_from_spec(cfg.family)
    w = cfg.weighting()
    if cfg.n_max > cfg.cap and lattice_mode(fam) == MODE_FORESTS:
        table = forest_table(w, cfg.n_max)
        if fam.connected_only:  # trees: every member is connected
            table.a = table.c
    else:
        table = compute_weight_table(fam, w, cfg.n_max, cap=cfg.cap, verbose=True)
    ratios = table.ratios("a")
    growth = table.growth_estimates("a")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "a_n", "c_n", "b_n", "r_n", "growth_estimate"])
    for n in range(table.n_max + 1):
        r = ratios[n]
        writer.writerow([
            n, _fmt(table.a[n]), _fmt(table.c[n]), _fmt(table.b[n]),
            _fmt(float(r)) if r is not None else "",
            _fmt(growth[n]) if growth[n] is not None else "",
        ])
    _write_text(cfg.out, buf.getvalue())
    return 0


def cmd_census(cfg: ExperimentConfig) -> int:
    from .canon import code_of
    from .enumeration import build_census

    fam = family_from_spec(cfg.family)
    census = build_census(fam, cfg.census_n_max, cap=max(cfg.cap, cfg.census_n_max))
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["code", "v", "e", "kappa", "aut"])
    for v, m, aut in census.entries:
        writer.writerow([code_of(v, m).hex, v, m.bit_count(), 1, aut])
    _write_text(cfg.out, buf.getvalue())
    return 0


def cmd_constants(cfg: ExperimentConfig) -> int:
    from .asymptotics import constants_from_gamma, forest_limit_pack, planar_constants
    from .enumeration import build_census, compute_weight_table, lattice_mode

    w = cfg.weighting()
    if cfg.family == "planar-preset":
        consts = planar_constants()
        out = consts.to_dict()
        out["tolerances"] = {"beta": 1e-4, "alpha": 1e-5, "core_conn": 1e-5}
        _write_text(cfg.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
        return 0
    fam = family_from_spec(cfg.family)
    census = None
    if cfg.census_n_max > 0:
        census = build_census(fam, cfg.census_n_max, cap=max(cfg.cap, cfg.census_n_max))
    if cfg.gamma is not None:
        gamma = float(parse_number(cfg.gamma, "--gamma"))
        estimate_note = "gamma supplied"
    else:
        table = compute_weight_table(fam, w, cfg.n_max, cap=cfg.cap)
        ratios = table.ratios("a")
        last = ratios[table.n_max]
        if last is None:
            raise ValueError("cannot estimate gamma: vanishing counts")
        gamma = 1.0 / float(last)
        estimate_note = f"gamma estimated from the ratio at n={table.n_max}"
    consts = constants_from_gamma(gamma, w, census=census)
    out = consts.to_dict()
    out["note"] = estimate_note
    if lattice_mode(fam) == MODE_FORESTS:
        pack = forest_limit_pack(w)
        out["forest_closed_forms"] = {
            "conn_limit": pack.conn_limit,
            "frag_mean_limit": pack.frag_mean_limit,
            "kappa_mean_limit": pack.kappa_mean_limit,
        }
    _write_text(cfg.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


_JSONL_CHUNK_LINES = 256  # lines per write of the JSONL text


def cmd_sample(cfg: ExperimentConfig) -> int:
    from .enumeration import build_census, lattice_mode
    from . import sampling

    if cfg.steps is not None and cfg.method != "mcmc":
        raise ValueError(f"--steps applies only to --method mcmc, got --method {cfg.method}")
    w = cfg.weighting()  # checked for every method, though trees take no weights
    n = cfg.n if cfg.n is not None else 6
    if cfg.method == "tree":
        lines = trees_to_jsonl(n, sampling.random_tree_bits(n, cfg.seed, cfg.draws))
    elif cfg.method == "exact":
        fam = family_from_spec(cfg.family)
        lines = masks_to_jsonl(n, sampling.exact_masks(fam, w, n, cfg.seed, cfg.draws,
                                                       cap=cfg.cap))
    elif cfg.method == "mcmc":
        fam = family_from_spec(cfg.family)
        draws = cfg.draws
        if cfg.steps is not None:
            # a total step budget implies the draw count at the given thinning
            if cfg.steps < cfg.burn_in:
                raise ValueError(f"--steps must be >= --burn-in ({cfg.burn_in}), "
                                 f"got {cfg.steps}")
            draws = (cfg.steps - cfg.burn_in) // cfg.thin
        lines = masks_to_jsonl(n, sampling.mcmc_masks(fam, w, n, draws, burn_in=cfg.burn_in,
                                                      thin=cfg.thin, seed=cfg.seed))
    elif cfg.method == "boltzmann":
        fam = family_from_spec(cfg.family)
        census = build_census(fam, cfg.census_n_max, cap=max(cfg.cap, cfg.census_n_max))
        if cfg.rho is not None:
            rho = float(parse_number(cfg.rho, "--rho"))
        elif lattice_mode(fam) == MODE_FORESTS:
            rho = 1.0 / (math.e * float(w.lambda0))
        else:
            raise ValueError("boltzmann sampling needs --rho for this family")
        graphs, inverse = sampling.boltzmann_groups(sampling.boltzmann_config(census, rho, w),
                                                    cfg.seed, cfg.draws)
        text = graphs_to_jsonl(graphs)
        lines = [text[j] for j in inverse.tolist()]
    else:
        raise ValueError(f"unknown sampling method {cfg.method!r}")
    # a chunk of lines at a time: neither the whole text nor its encoding is ever held
    _write_text(cfg.out, ("\n".join(lines[s:s + _JSONL_CHUNK_LINES]) + "\n"
                          for s in range(0, len(lines), _JSONL_CHUNK_LINES)))
    return 0


def cmd_stats(cfg: ExperimentConfig, infile: str) -> int:
    from .sampling import collect_stats

    with open(infile) as fh:
        samples = [graph_from_json(line) for line in fh if line.strip()]
    stats = collect_stats(samples)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["statistic", "key", "value"])
    writer.writerow(["draws", "", stats.draws])
    writer.writerow(["conn_freq", "", _fmt(stats.conn_freq)])
    writer.writerow(["core_frac_mean", "", _fmt(stats.core_frac_mean)])
    for k in sorted(stats.kappa_hist):
        writer.writerow(["kappa_hist", k, stats.kappa_hist[k]])
    for k in sorted(stats.frag_hist):
        writer.writerow(["frag_hist", k, stats.frag_hist[k]])
    for code in sorted(stats.comp_counts):
        hist = stats.comp_count_histogram(code)
        for k in sorted(hist):
            writer.writerow(["comp_count", f"{code}:{k}", hist[k]])
    _write_text(cfg.out, buf.getvalue())
    return 0


def cmd_pendant(cfg: ExperimentConfig, graph_path: str, h_path: str, root: int) -> int:
    from .asymptotics import pendant_limit

    with open(graph_path) as fh:
        g = graph_from_text(fh.read())
    with open(h_path) as fh:
        h = RootedGraph(graph_from_text(fh.read()), root)
    out = {
        "f_H": pendant_appearances(g, h),
        "f_H_overlapping": overlapping_pendant_appearances(g, h),
        "density": pendant_appearances(g, h) / g.n if g.n else None,
    }
    if cfg.gamma is not None:
        out["limit_density"] = pendant_limit(h, float(parse_number(cfg.gamma, "--gamma")),
                                             cfg.weighting())
    _write_text(cfg.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_families_check(cfg: ExperimentConfig, k_max: int) -> int:
    from .families import dichotomy_scan, verify_bridge_addable, verify_decomposable, \
        verify_trimmable

    fam = family_from_spec(cfg.family)
    fam.minor_budget = cfg.minor_budget
    n_max = cfg.n_max
    reports = {
        "bridge_addable": verify_bridge_addable(fam, n_max),
        "decomposable": verify_decomposable(fam, n_max),
        "trimmable": verify_trimmable(fam, n_max),
    }
    out = {"family": fam.name, "n_max": n_max}
    for key, rep in reports.items():
        out[key] = {
            "holds": rep.holds,
            "counterexample": repr(rep.counterexample) if rep.counterexample else None,
            "details": rep.details,
        }
    scan = dichotomy_scan(fam, min(n_max, 4), k_max)
    out["dichotomy"] = [
        {"graph": repr(en.rep), "class": en.classification, "k": en.limited_k}
        for en in scan
    ]
    declared = {
        "bridge_addable": fam.flags.bridge_addable,
        "decomposable": fam.flags.decomposable,
        "addable": fam.flags.addable,
        "trimmable": fam.flags.trimmable,
    }
    out["declared_flags"] = declared
    _write_text(cfg.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(cfg: ExperimentConfig, suites: list[str]) -> int:
    from .acceptance import run_criteria

    results = run_criteria(suites if suites else None)
    lines = []
    for r in results:
        brief = ", ".join(
            f"{k}={_fmt(v) if isinstance(v, (int, float)) else v}"
            for k, v in list(r.measured.items())[:3]
        )
        lines.append(f"{'PASS' if r.passed else 'FAIL'} {r.key}  [{brief}]")
    report = {"results": [r.to_dict() for r in results],
              "passed": all(r.passed for r in results)}
    if cfg.out:
        _write_text(cfg.out, json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if report["passed"] else 4


# -- argument wiring -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file with ExperimentConfig fields")
    p.add_argument("--seed", type=int, help="64-bit RNG seed")
    p.add_argument("--out", help="output path (default stdout)")


# each subcommand and its help line, in the order `minorclass --help` lists them
COMMANDS = {
    "enumerate": "exact weighted counts a_n, c_n, b_n as CSV",
    "census": "unlabelled connected-member census as CSV",
    "constants": "asymptotic constants as JSON",
    "sample": "draw graphs; one JSON graph per output line",
    "stats": "histograms of a JSONL sample file as CSV",
    "pendant": "pendant appearance counts of H in G",
    "families-check": "bounded-scale closure-property verification",
    "verify": "run acceptance criteria (default: all)",
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Every subcommand is registered, so usage and the
    command list never change; given `command`, only that subcommand gets its
    arguments, which is all that parsing a command line naming it needs."""
    ap = argparse.ArgumentParser(prog="minorclass",
                                 description="weighted random graphs from minor-closed classes")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=COMMANDS[name])
        return p if command in (None, name) else None

    if (p := add("enumerate")) is not None:
        p.add_argument("--family")
        p.add_argument("--lambda", dest="lam")
        p.add_argument("--nu")
        p.add_argument("--lambda0")
        p.add_argument("--lambda1")
        p.add_argument("--nmax", dest="n_max", type=int)
        p.add_argument("--cap", type=int)
        _add_common(p)

    if (p := add("census")) is not None:
        p.add_argument("--family")
        p.add_argument("--nmax", dest="census_n_max", type=int)
        p.add_argument("--cap", type=int)
        _add_common(p)

    if (p := add("constants")) is not None:
        p.add_argument("--family")
        p.add_argument("--lambda", dest="lam")
        p.add_argument("--nu")
        p.add_argument("--gamma")
        p.add_argument("--nmax", dest="n_max", type=int)
        p.add_argument("--census-nmax", dest="census_n_max", type=int)
        p.add_argument("--cap", type=int)
        _add_common(p)

    if (p := add("sample")) is not None:
        p.add_argument("--family")
        p.add_argument("--lambda", dest="lam")
        p.add_argument("--nu")
        p.add_argument("--lambda0")
        p.add_argument("--lambda1")
        p.add_argument("--n", type=int)
        p.add_argument("--method", choices=["exact", "boltzmann", "mcmc", "tree"])
        p.add_argument("--draws", type=int)
        p.add_argument("--steps", type=int,
                       help="total mcmc steps, burn-in included (overrides --draws; mcmc only)")
        p.add_argument("--burn-in", dest="burn_in", type=int)
        p.add_argument("--thin", type=int)
        p.add_argument("--rho")
        p.add_argument("--census-nmax", dest="census_n_max", type=int)
        p.add_argument("--cap", type=int)
        _add_common(p)

    if (p := add("stats")) is not None:
        p.add_argument("--in", dest="infile", required=True)
        _add_common(p)

    if (p := add("pendant")) is not None:
        p.add_argument("--graph", required=True)
        p.add_argument("--h", dest="h_graph", required=True)
        p.add_argument("--root", type=int, default=1)
        p.add_argument("--gamma")
        p.add_argument("--lambda", dest="lam")
        p.add_argument("--nu")
        _add_common(p)

    if (p := add("families-check")) is not None:
        p.add_argument("--family")
        p.add_argument("--nmax", dest="n_max", type=int)
        p.add_argument("--kmax", dest="k_max", type=int, default=4)
        p.add_argument("--minor-budget", dest="minor_budget", type=int)
        _add_common(p)

    if (p := add("verify")) is not None:
        p.add_argument("suites", nargs="*", help="criterion names, or empty for all")
        _add_common(p)

    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        cfg = _merge_config(args)
        cfg.validate(args.command)
        if args.command == "enumerate":
            return cmd_enumerate(cfg)
        if args.command == "census":
            return cmd_census(cfg)
        if args.command == "constants":
            return cmd_constants(cfg)
        if args.command == "sample":
            return cmd_sample(cfg)
        if args.command == "stats":
            return cmd_stats(cfg, args.infile)
        if args.command == "pendant":
            return cmd_pendant(cfg, args.graph, args.h_graph, args.root)
        if args.command == "families-check":
            return cmd_families_check(cfg, args.k_max)
        if args.command == "verify":
            return cmd_verify(cfg, args.suites)
        raise ValueError(f"unknown command {args.command!r}")
    except ResourceCapError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, EmptySliceError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
