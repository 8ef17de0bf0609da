"""Command-line front door.

The command table, COMMANDS, is the one place where the subcommands and
their flags are declared: each command's help line, its flags in --help
order and its handler.  The parser, the flag names of error messages and the
dispatch all read it; a flag for every command is one entry there.  Exit
codes: 0 success, 2 configuration error, 3 resource cap exceeded,
4 verification failure.

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
from collections.abc import Callable, Iterator
from fractions import Fraction
from typing import NamedTuple

from ._kernels import MODE_FORESTS, RECORD_CAP
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


# smallest allowed value of each integer option
_INT_MINIMUM = {"n": 0, "n_max": 0, "census_n_max": 0, "draws": 0, "steps": 0,
                "burn_in": 0, "thin": 1, "seed": 0, "minor_budget": 0}


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
        """Raise ValueError, naming the flag, for a string option that is not a
        string (a config file can give any JSON value) or an integer option
        out of range.  The flag is the command's own for the field, else the
        field's usual one."""
        own = COMMANDS[command].options if command in COMMANDS else ()

        def flag(name: str) -> str:
            return next((f for f, kw in own if kw.get("dest") == name), _flag(name))

        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type.startswith("str") and not (
                    isinstance(value, str) or value is None and field.type.endswith("None")):
                raise ValueError(f"{flag(field.name)} must be a string, got {value!r}")
        for name, low in _INT_MINIMUM.items():
            value = getattr(self, name)
            if value is None and name in ("n", "steps"):
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{flag(name)} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{flag(name)} must be >= {low}, got {value}")
        if self.seed >= 1 << 64:
            raise ValueError(f"{_flag('seed')} must be below 2^64, got {self.seed}")

    def render(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def parse(cls, text: str) -> "ExperimentConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"{_CONFIG[0]} must hold a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown config keys: {sorted(bad)}")
        return cls(**data)

    def weighting(self) -> Weighting:
        if self.lambda0 is not None or self.lambda1 is not None:
            if self.lambda0 is None or self.lambda1 is None:
                raise ValueError("lambda0 and lambda1 must be given together")
            return Weighting.extended(parse_number(self.lambda0, _flag("lambda0")),
                                      parse_number(self.lambda1, _flag("lambda1")),
                                      parse_number(self.nu, _flag("nu")))
        return Weighting(parse_number(self.lam, _flag("lam")), parse_number(self.nu, _flag("nu")))


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


def cmd_enumerate(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .enumeration import compute_weight_table, forest_table, lattice_mode

    fam = family_from_spec(cfg.family)
    w = cfg.weighting()
    if cfg.n_max > RECORD_CAP and lattice_mode(fam) == MODE_FORESTS:
        # past the whole slices, the closed form lifted by the exponential formula
        table = forest_table(w, cfg.n_max)
        if fam.connected_only:  # trees: every member is connected
            table.a = table.c
    else:
        table = compute_weight_table(fam, w, cfg.n_max, verbose=True)
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


def cmd_census(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .canon import code_of
    from .enumeration import build_census

    fam = family_from_spec(cfg.family)
    census = build_census(fam, cfg.census_n_max)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["code", "v", "e", "kappa", "aut"])
    for v, m, aut in census.entries:
        writer.writerow([code_of(v, m).hex, v, m.bit_count(), 1, aut])
    _write_text(cfg.out, buf.getvalue())
    return 0


def cmd_constants(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
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
        census = build_census(fam, cfg.census_n_max)
    if cfg.gamma is not None:
        gamma = float(parse_number(cfg.gamma, _flag("gamma")))
        estimate_note = "gamma supplied"
    else:
        table = compute_weight_table(fam, w, cfg.n_max)
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


def cmd_sample(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .enumeration import build_census, lattice_mode
    from . import sampling

    if cfg.steps is not None and cfg.method != "mcmc":
        raise ValueError(f"{_flag('steps')} applies only to {_flag('method')} mcmc, "
                         f"got {_flag('method')} {cfg.method}")
    w = cfg.weighting()  # checked for every method, though trees take no weights
    n = cfg.n if cfg.n is not None else 6
    if cfg.method == "tree":
        lines = trees_to_jsonl(n, sampling.random_tree_bits(n, cfg.seed, cfg.draws))
    elif cfg.method == "exact":
        fam = family_from_spec(cfg.family)
        lines = masks_to_jsonl(n, sampling.exact_masks(fam, w, n, cfg.seed, cfg.draws))
    elif cfg.method == "mcmc":
        fam = family_from_spec(cfg.family)
        draws = cfg.draws
        if cfg.steps is not None:
            # a total step budget implies the draw count at the given thinning
            if cfg.steps < cfg.burn_in:
                raise ValueError(f"{_flag('steps')} must be >= {_flag('burn_in')} "
                                 f"({cfg.burn_in}), got {cfg.steps}")
            draws = (cfg.steps - cfg.burn_in) // cfg.thin
        lines = masks_to_jsonl(n, sampling.mcmc_masks(fam, w, n, draws, burn_in=cfg.burn_in,
                                                      thin=cfg.thin, seed=cfg.seed))
    elif cfg.method == "boltzmann":
        fam = family_from_spec(cfg.family)
        census = build_census(fam, cfg.census_n_max)
        if cfg.rho is not None:
            rho = float(parse_number(cfg.rho, _flag("rho")))
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


def cmd_stats(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .sampling import collect_stats

    with open(args.infile) as fh:
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


def cmd_pendant(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .asymptotics import pendant_limit

    with open(args.graph) as fh:
        g = graph_from_text(fh.read())
    with open(args.h_graph) as fh:
        h = RootedGraph(graph_from_text(fh.read()), args.root)
    out = {
        "f_H": pendant_appearances(g, h),
        "f_H_overlapping": overlapping_pendant_appearances(g, h),
        "density": pendant_appearances(g, h) / g.n if g.n else None,
    }
    if cfg.gamma is not None:
        out["limit_density"] = pendant_limit(h, float(parse_number(cfg.gamma, _flag("gamma"))),
                                             cfg.weighting())
    _write_text(cfg.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_families_check(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
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
    scan = dichotomy_scan(fam, min(n_max, 4), args.k_max)
    out["dichotomy"] = [
        {"graph": repr(en.rep), "class": en.classification, "k": en.limited_k}
        for en in scan
    ]
    out["declared_flags"] = dataclasses.asdict(fam.flags)
    _write_text(cfg.out, json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(cfg: ExperimentConfig, args: argparse.Namespace) -> int:
    from .acceptance import run_criteria

    results = run_criteria(args.suites or None)
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


# -- the command table ----------------------------------------------------------


# the flag and add_argument keywords of each ExperimentConfig field
_OPTIONS = {
    "family": ("--family", {}),
    "lam": ("--lambda", {}),
    "nu": ("--nu", {}),
    "lambda0": ("--lambda0", {}),
    "lambda1": ("--lambda1", {}),
    "n": ("--n", {"type": int}),
    "n_max": ("--nmax", {"type": int}),
    "census_n_max": ("--census-nmax", {"type": int}),
    "rho": ("--rho", {}),
    "gamma": ("--gamma", {}),
    "method": ("--method", {"choices": ["exact", "boltzmann", "mcmc", "tree"]}),
    "draws": ("--draws", {"type": int}),
    "steps": ("--steps", {"type": int, "help": "total mcmc steps, burn-in included "
                                               "(overrides --draws; mcmc only)"}),
    "burn_in": ("--burn-in", {"type": int}),
    "thin": ("--thin", {"type": int}),
    "seed": ("--seed", {"type": int, "help": "64-bit RNG seed"}),
    "minor_budget": ("--minor-budget", {"type": int}),
    "out": ("--out", {"help": "output path (default stdout)"}),
}
# the flag and keywords of the config file every command takes
_CONFIG = ("--config", {"help": "JSON config file with ExperimentConfig fields"})


def _flag(field: str) -> str:
    """The flag of ExperimentConfig field `field`, as the table gives it."""
    return _OPTIONS[field][0]


class Command(NamedTuple):
    """A subcommand: its help line, its (flag, add_argument keywords) in
    --help order, and its handler, which returns the exit code."""

    help: str
    options: tuple[tuple[str, dict], ...]
    run: Callable[[ExperimentConfig, argparse.Namespace], int]


def _command(help: str, run, *options) -> Command:
    """`options` names config fields, for their flags in _OPTIONS, or gives
    (flag, keywords) of an argument of this command alone; --config, --seed
    and --out follow on every command."""
    options += (_CONFIG, "seed", "out")
    return Command(help, tuple((_OPTIONS[o][0], {"dest": o, **_OPTIONS[o][1]})
                               if isinstance(o, str) else o for o in options), run)


# each subcommand, in the order `minorclass --help` lists them
COMMANDS = {
    "enumerate": _command("exact weighted counts a_n, c_n, b_n as CSV", cmd_enumerate,
                          "family", "lam", "nu", "lambda0", "lambda1", "n_max"),
    "census": _command("unlabelled connected-member census as CSV", cmd_census,
                       "family", ("--nmax", {"dest": "census_n_max", "type": int})),
    "constants": _command("asymptotic constants as JSON", cmd_constants,
                          "family", "lam", "nu", "gamma", "n_max", "census_n_max"),
    "sample": _command("draw graphs; one JSON graph per output line", cmd_sample,
                       "family", "lam", "nu", "lambda0", "lambda1", "n", "method", "draws",
                       "steps", "burn_in", "thin", "rho", "census_n_max"),
    "stats": _command("histograms of a JSONL sample file as CSV", cmd_stats,
                      ("--in", {"dest": "infile", "required": True})),
    "pendant": _command("pendant appearance counts of H in G", cmd_pendant,
                        ("--graph", {"required": True}),
                        ("--h", {"dest": "h_graph", "required": True}),
                        ("--root", {"type": int, "default": 1}), "gamma", "lam", "nu"),
    "families-check": _command("bounded-scale closure-property verification",
                               cmd_families_check, "family", "n_max",
                               ("--kmax", {"dest": "k_max", "type": int, "default": 4}),
                               "minor_budget"),
    "verify": _command("run acceptance criteria (default: all)", cmd_verify,
                       ("suites", {"nargs": "*", "help": "criterion names, or empty for all"})),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Every subcommand is registered, so usage and the
    command list never change; given `command`, only that subcommand gets its
    arguments, which is all that parsing a command line naming it needs."""
    ap = argparse.ArgumentParser(prog="minorclass",
                                 description="weighted random graphs from minor-closed classes")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        if command in (None, name):
            for flag, kw in cmd.options:
                p.add_argument(flag, **kw)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        cfg = _merge_config(args)
        cfg.validate(args.command)
        return COMMANDS[args.command].run(cfg, args)
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
