#!/usr/bin/env python3
"""End-to-end benchmark of the `minorclass` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1] [--save FILE]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Load: a closed loop with one client.  The ops of a workload (see
`workloads.py`) run one after another, each in its own fresh child process
with the CLI's default `--threads 1`, and every op's output is checked
(`checks.py`) after its child has exited.  A run makes the workload's
`MIN_PASSES` whole passes over it (one by default), and more while the next
pass still fits in `--seconds`.

With `--trace 0` the last stdout line reports the end-to-end metrics:

* `wall_norm_s`: the median over passes of the summed time inside
  `cli.main`, call to return, including writing the output (`wall_s`),
  corrected for the CPU speed the run got: multiplied by the square root of
  `CALIBRATION_NOMINAL_S` over the median time of `calibration_work`, which
  the parent runs before each child it launches;
* `setup_s`: the median over the run's child processes (the ops plus
  `SETUP_PROBES` import-only probes) of the time from launch to
  ready-to-call: the interpreter plus `import minorclass`;
* `peak_rss_mb`: the largest peak RSS of the run's op processes.

With `--trace 1` a run makes one untraced pass and one traced pass, in which
the child wraps the package's public functions (`tracer.py`), and the last
line reports the per-layer metrics that BENCHMARK.json lists (`layers.py`).

`attempted` counts the ops run and `failed` those that exited non-zero or
failed their check.  The one check problem that an op's entry in
`workloads.KNOWN_DEFECTS` explains is printed as a known defect, counted in
`fail_frac` and `ops.fail_frac`, and not in `failed`; any other problem of
that op is counted in `failed`.  The line before the result records the
environment: the kernel path (`_kernels.HAVE_NUMBA`), numpy and Python
versions, and `nproc`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import Oracles, check_op  # noqa: E402
from layers import PER_LAYER, layer_metrics  # noqa: E402
from workloads import (BENCHMARK, KNOWN_DEFECTS, WORKLOADS, Op,  # noqa: E402
                       unexpected_problems, workload_ops)

SETUP_PROBES = 2
# Besides the drift that `calibration_work` measures, the time of one op varied
# by about a fifth between back-to-back runs on a shared 2-vCPU VM.  Runs of
# minor-families and samplers take the median of two passes to average it.  One
# forest-lattice pass is longer, and two of them would not leave time for the
# other workloads' runs.
MIN_PASSES = {"minor-families": 2, "samplers": 2}
# A run ends within RUN_LIMIT_S: a child still running then is killed and its
# op counts as failed.
RUN_LIMIT_S = 170

# About the median time of `calibration_work` on a shared 2-vCPU Intel Xeon VM
# with CPython 3.11: the CPU speed at which `wall_norm_s` equals `wall_s`.
CALIBRATION_NOMINAL_S = 0.06
CHASE_LEN = 1 << 21
CHASE_STEPS = 100_000

END_TO_END = tuple((m["name"], m["unit"]) for m in BENCHMARK["end_to_end"])


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def environment() -> dict:
    import numpy

    from minorclass import _kernels

    return {"have_numba": bool(_kernels.HAVE_NUMBA), "numpy": numpy.__version__,
            "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


@functools.cache
def _chase_table() -> list[int]:
    """One cycle through `CHASE_LEN` list slots in a fixed random order."""
    import numpy as np

    order = np.random.default_rng(0).permutation(CHASE_LEN)
    nxt = np.empty(CHASE_LEN, dtype=np.int64)
    nxt[order] = np.roll(order, -1)
    return nxt.tolist()


def calibration_work() -> int:
    """A fixed pure-Python job whose time measures the CPU speed a run gets.

    On a shared host that speed drifts: one pass of minor-families took 16 s
    or 21 s for minutes at a time on a 2-vCPU VM, with CPU time equal to wall
    time.  The job has two halves.  An interpreter-bound loop of tuples, dict
    updates and set unions slowed more than the ops did, and a chase through a
    72 MB list that misses the caches slowed less.  Their sum still moved more
    than the ops did: the log-log slope of a run's summed op time on it was
    0.5-0.9 on minor-families, 0.2-0.4 on samplers and 0.1-0.45 on the
    numpy-bound forest-lattice over several sets of runs.  So `wall_norm_s`
    scales by the square root of the job's speed.  Over 10 runs per workload that cut the spread
    (quartile distance over median) of minor-families from 0.206 to 0.111 and
    of samplers from 0.101 to 0.083, and raised that of forest-lattice from
    0.060 to 0.097.  The job does not use `minorclass`, so a change to the
    package cannot move it.
    """
    table: dict[tuple, int] = {}
    acc = 0
    for mask in range(1 << 14):
        key = (mask & 0x3F, mask >> 8, bin(mask).count("1"))
        table[key] = table.get(key, 0) + 1
        acc += len(table) & 7
    groups = [frozenset(k) for k in table]
    for a, b in zip(groups, groups[1:]):
        acc += len(a | b)
    chase = _chase_table()
    i = 0
    for _ in range(CHASE_STEPS):
        i = chase[i]
    return acc + i


def run_child(spec: dict, deadline: float) -> dict:
    """Time `calibration_work`, then run child.py on `spec` until `deadline` (a
    time.monotonic() value); returns the child's report plus the parent-side
    timings."""
    t0 = time.monotonic()
    calibration_work()
    cal_s = time.monotonic() - t0
    report = _launch(spec, deadline)
    report["cal_s"] = cal_s
    return report


def _launch(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    launch = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - launch))
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "killed at the run's time limit",
                "elapsed_s": time.monotonic() - launch}
    elapsed = time.monotonic() - launch
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-500:], "elapsed_s": elapsed}
    report["setup_s"] = report["ready"] - launch
    if report.get("rc", 0) != 0:
        report["error"] = proc.stderr.strip()[-500:]
    return report


def run_op(op: Op, run_dir: Path, trace_file: Path | None, deadline: float) -> dict:
    out = run_dir / f"{op.id}.out"
    spec = {"argv": [*op.argv, "--out", str(out)],
            "trace": str(trace_file) if trace_file else None}
    rep = run_child(spec, deadline)
    rec = {"id": op.id, "rc": rep.get("rc"), "setup_s": rep.get("setup_s"), "cal_s": rep["cal_s"],
           "import_s": rep.get("import_s"), "wall_s": rep.get("wall_s", rep.get("elapsed_s")),
           "rss_mb": rep.get("peak_rss_kb", 0) / 1024, "canon_cache": rep.get("canon_cache"),
           "trace_file": str(trace_file) if trace_file and rep.get("rc") == 0 else None}
    rec["text"] = out.read_text() if rep.get("rc") == 0 and out.exists() else None
    if rep.get("rc") != 0:
        rec["problems"] = [f"exit code {rep.get('rc')}: {rep.get('error', '')}"]
    return rec


def run_pass(ops: list[Op], run_dir: Path, oracles: Oracles, deadline: float,
             trace_dir: Path | None = None):
    outputs: dict[str, str | None] = {}
    records = []
    for op in ops:
        rec = run_op(op, run_dir, trace_dir / f"{op.id}.npz" if trace_dir else None, deadline)
        outputs[op.id] = rec["text"]
        judge(rec, oracles, outputs)
        rec.pop("text")
        records.append(rec)
        _log_op(rec, traced=trace_dir is not None)
    return records


def judge(rec: dict, oracles: Oracles, outputs: dict):
    """Check an op record's output; set its `problems` and the `unexpected` ones."""
    if "problems" not in rec:
        rec["problems"] = check_op(rec["id"], rec["text"], oracles, outputs)
    rec["unexpected"] = unexpected_problems(rec["id"], rec["problems"])


def _log_op(rec: dict, traced: bool):
    known = rec["id"] in KNOWN_DEFECTS
    if not rec["problems"]:
        verdict = "FIXED (known defect passed)" if known else "ok"
    elif not rec["unexpected"]:
        verdict = (f"KNOWN DEFECT ({KNOWN_DEFECTS[rec['id']].reason}): "
                   + "; ".join(rec["problems"]))
    else:
        verdict = "FAILED: " + "; ".join(rec["unexpected"])
    setup = f"{rec['setup_s']:.3f}" if rec["setup_s"] is not None else "-"
    log(f"  {'traced ' if traced else ''}{rec['id']:<22} wall {rec['wall_s']:8.3f} s  "
        f"setup {setup} s  rss {rec['rss_mb']:6.1f} MB  {verdict}")


def _failures(records) -> tuple[int, int]:
    """(unexpected failures, all failures) among the records."""
    return sum(bool(r["unexpected"]) for r in records), sum(bool(r["problems"]) for r in records)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    ops = workload_ops(name, seed)
    run_dir = OUT / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    try:
        oracles = Oracles()
        log(f"{name}: seed {seed}, {'traced' if trace else 'untraced'}")
        if trace:
            untraced = run_pass(ops, run_dir, oracles, deadline)
            trace_dir = OUT / "trace" / name
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            traced = run_pass(ops, run_dir, oracles, deadline, trace_dir)
            records = untraced + traced
            unexpected, failed_all = _failures(records)
            metrics = layer_metrics(traced, sum(r["wall_s"] for r in untraced),
                                    failed_all / len(records))
            units = dict(PER_LAYER)
            raw = {}
        else:
            probes = [run_child({}, deadline) for _ in range(SETUP_PROBES)]
            passes = []
            while True:
                t0 = time.monotonic()
                passes.append(run_pass(ops, run_dir, oracles, deadline))
                now = time.monotonic()
                if len(passes) >= MIN_PASSES.get(name, 1) and now - start + (now - t0) > seconds:
                    break
            records = [r for p in passes for r in p]
            setups = [r.get("setup_s") for r in probes + records]
            unexpected, failed_all = _failures(records)
            walls = [sum(r["wall_s"] for r in p) for p in passes]
            cal_s = median(r["cal_s"] for r in probes + records)
            log(f"{name}: pass wall_s {', '.join(f'{w:.3f}' for w in walls)}; "
                f"calibration median {cal_s:.4f} s")
            metrics = {
                "wall_norm_s": median(walls) * (CALIBRATION_NOMINAL_S / cal_s) ** 0.5,
                "setup_s": median(s for s in setups if s is not None),
                "peak_rss_mb": max(r["rss_mb"] for r in records),
            }
            units = dict(END_TO_END)
            raw = {"wall_s": median(walls), "calibration_s": cal_s}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "correct": unexpected == 0,
        "attempted": len(records),
        "failed": unexpected,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "fail_frac": failed_all / len(records),
        **raw,
        "known_defects": sorted({r["id"] for r in records
                                 if r["problems"] and not r["unexpected"]}),
    }


def print_summary(results: dict[str, dict], trace: bool):
    names = list(results)
    if trace:
        rows = list(PER_LAYER)
    else:
        rows = [*END_TO_END, ("wall_s", "s"), ("calibration_s", "s"), ("fail_frac", "ratio")]
    print(f"{'metric':<48}{'unit':>7}" + "".join(f"{n:>17}" for n in names))
    for metric, unit in rows:
        vals = [results[n]["metrics"][metric]["value"] if metric in results[n]["metrics"]
                else results[n][metric] for n in names]
        print(f"{metric:<48}{unit:>7}" + "".join(f"{v:>17.6g}" for v in vals))
    for n in names:
        for op in results[n]["known_defects"]:
            print(f"known defect in {n}: {op}: {KNOWN_DEFECTS[op].reason}")


def compare(old_path: str, new_path: str) -> int:
    """Print, per workload and metric, the medians of two --save files and their ratio."""

    def medians(path):
        vals = defaultdict(list)
        with open(path) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for r in records:
            for metric, m in r["result"]["metrics"].items():
                vals[(r["workload"], metric)].append(m["value"])
        return {k: median(v) for k, v in vals.items()}, {r["env"]["have_numba"] for r in records}

    old, old_paths = medians(old_path)
    new, new_paths = medians(new_path)
    if len(old_paths | new_paths) > 1:
        print("WARNING: these results ran on different kernel paths (numba and the "
              "numpy/python fallback); their times are not comparable")
    print(f"{'workload':<16}{'metric':<48}{'old':>14}{'new':>14}{'new/old':>9}")
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        ratio = f"{b / a:9.3f}" if a and b is not None else f"{'-':>9}"
        cells = "".join(f"{v:>14.6g}" if v is not None else f"{'-':>14}" for v in (a, b))
        print(f"{key[0]:<16}{key[1]:<48}{cells}{ratio}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--all", action="store_true", help="run every workload, print a table")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append each result, with its environment, to this JSONL file")
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "minorclass" / "cli.py").is_file():
        log(f"no minorclass sources under {SRC}")
        return 2
    if args.seed < 0:
        log("--seed must be non-negative")
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    names = WORKLOADS if args.all else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if args.save:
        with open(args.save, "a") as fh:
            for n, res in results.items():
                fh.write(json.dumps({"workload": n, "seed": args.seed, "trace": args.trace,
                                     "seconds": args.seconds, "env": env, "result": res}) + "\n")
    print(json.dumps({"env": env}))
    if args.all:
        print_summary(results, bool(args.trace))
    else:
        res = results[args.workload]
        print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
