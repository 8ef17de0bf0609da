"""One benchmark op in a fresh process: import `minorclass`, call `cli.main`.

Usage: python3 child.py '<json spec>'

The spec holds `argv` (the CLI arguments; omitted for a set-up probe, which
only imports) and `trace` (a span file path, or null).  The last stdout line
is a JSON report:

* `ready`: `time.monotonic()` when the package was imported and the op could
  be called; the parent subtracts its launch time to get the set-up time;
* `import_s`: the time spent importing `minorclass` and its dependencies;
* `wall_s`: the time inside `cli.main`, from call to return, which includes
  writing the op's output file;
* `rc`: the CLI's exit code;
* `peak_rss_kb`: the process's peak resident set size (VmHWM);
* `canon_cache`: hits and misses of the canonical-form LRU.
"""

import json
import sys
import time


def peak_rss_kb() -> int:
    """This process's peak resident set size.

    VmHWM belongs to the address space the process got at exec.  The rusage
    maximum is not used: Linux carries into it the peak of the pre-exec
    address space, which with vfork is the parent's.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    t_import = time.monotonic()
    import minorclass.cli
    from minorclass.canon import _canon_data

    ready = time.monotonic()
    report = {"ready": ready, "import_s": ready - t_import}
    argv = spec.get("argv")
    if argv is not None:
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.monotonic()
        rc = minorclass.cli.main(argv)
        report["wall_s"] = time.monotonic() - t0
        report["rc"] = rc
        info = _canon_data.cache_info()
        report["canon_cache"] = {"hits": info.hits, "misses": info.misses}
        if tracer is not None:
            tracer.dump(spec["trace"])
    report["peak_rss_kb"] = peak_rss_kb()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
