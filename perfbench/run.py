"""milnor benchmark: run one workload for a fixed time and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload strand-cc44 --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout; the run exits with
code 2, printing no result, when that source is missing.  Closed-loop
passes over the workload run until ``--seconds`` have passed, the first of
them untimed to fill the program's caches; every output
is checked against its reference, and an item whose output differs or
that raises counts as failed.

``--trace 0`` reports the end-to-end metrics from untraced passes:
``setup_s`` is the median over child processes of the time from spawning
one until it has imported milnor, built the inputs and created the work
directory; ``solve_s`` and ``cpu_s`` are one pass's wall and process CPU
seconds (all threads), each the sum over items of the item's median
across passes; ``peak_rss_mb`` is the process's peak resident memory.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median duration; a traced
pass whose counters or sequence of calls differ from that pass's counts as
a failure.  The self times of all layers plus ``trace.unaccounted_s``
add up to that pass's ``trace.solve_s``; ``trace.overhead_s`` is the
traced median minus the untraced median.  The spans of that pass go to
``.perfbench_out/spans-<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a record of the machine and the samples behind every median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7


def _import_program() -> None:
    if not (ROOT / "src" / "milnor" / "__init__.py").is_file():
        print(f"perfbench: no milnor source under {ROOT / 'src'}; "
              "run from the root of a milnor checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def _setup(workload: str, seed: int, workdir: Path):
    from workloads import WORKLOADS
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, str(workdir))


# -- machine record -------------------------------------------------------------


def _steal_s() -> float:
    """Steal time of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _blas() -> dict:
    import ctypes
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def machine_record() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas(), "platform": platform.platform()}


# -- timing -----------------------------------------------------------------------


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def time_setup(args) -> list[float]:
    """Wall seconds from spawning a fresh process until it is ready to run."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        samples.append(ready - start)
    return samples


class Loop:
    """Closed-loop passes; counts items attempted and failed."""

    def __init__(self, workload, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.passes = 0

    def run_pass(self, tracer=None) -> dict:
        pass_dir = self.workdir / f"pass-{self.passes}"
        self.passes += 1
        items = self.workload.items(str(pass_dir))
        times = []
        steal0 = _steal_s()
        if tracer is not None:
            tracer.install()
        try:
            for name, call in items:
                self.attempted += 1
                cpu0, start = _cpu_s(), time.perf_counter()
                try:
                    error = call()
                except Exception as exc:  # an item that raises has failed
                    error = f"{type(exc).__name__}: {exc}"
                times.append((time.perf_counter() - start, _cpu_s() - cpu0))
                if error:
                    self.failures.append(f"{name}: {error}")
        finally:
            if tracer is not None:
                tracer.uninstall()
        shutil.rmtree(pass_dir, ignore_errors=True)
        return {"solve_s": sum(t[0] for t in times),
                "cpu_s": sum(t[1] for t in times),
                "steal_s": _steal_s() - steal0, "items": times}


def run_untraced(loop: Loop, deadline: float) -> dict:
    samples = []
    while not samples or (time.perf_counter() + statistics.median(
            s["solve_s"] for s in samples) <= deadline):
        samples.append(loop.run_pass())
    return {"untraced": samples}


def run_traced(loop: Loop, deadline: float) -> dict:
    from tracing import Tracer, layer_metrics
    plain, traced = [], []
    while True:
        side = plain if len(plain) <= len(traced) else traced
        # two traced passes at least, so that their counters can be compared
        if plain and len(traced) > 1 and time.perf_counter() + \
                statistics.median(s["solve_s"] for s in side) > deadline:
            break
        tracer = Tracer() if side is traced else None
        sample = loop.run_pass(tracer)
        if tracer is not None:
            _, _, covered = tracer.times()
            sample["layers"] = layer_metrics(tracer)
            sample["unaccounted_s"] = sample["solve_s"] - covered
            sample["counters"] = dict(tracer.counters)
            sample["calls"] = [span[0] for span in tracer.spans]
            sample["tracer"] = tracer
        side.append(sample)
    return {"untraced": plain, "traced": traced}


# -- reporting --------------------------------------------------------------------


def _summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with ten samples beyond."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values), "values": values}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        pct = int(100 * (n - 10) / n)
        out["tail_pct"] = pct
        out["tail"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def item_medians(samples: list[dict], which: int) -> float:
    """One pass's time as the sum over items of each item's median.

    Interference from other tenants of the machine comes in bursts of a
    few seconds; a burst inflates the items it overlaps, and the per-item
    median across passes drops them.
    """
    per_item = zip(*(s["items"] for s in samples))
    return sum(statistics.median(t[which] for t in item) for item in per_item)


def end_to_end(setup: list[float], untraced: list[dict]) -> dict:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (item_medians(untraced, 0), "s"),
        "cpu_s": (item_medians(untraced, 1), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict], args) -> tuple[dict, dict]:
    from tracing import PER_LAYER
    ordered = sorted(traced, key=lambda s: s["solve_s"])
    chosen = ordered[(len(ordered) - 1) // 2]
    units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: (chosen["layers"][name], units[name]) for name in units}
    metrics["trace.solve_s"] = (chosen["solve_s"], "s")
    metrics["trace.overhead_s"] = (item_medians(traced, 0)
                                   - item_medians(untraced, 0), "s")
    metrics["trace.unaccounted_s"] = (chosen["unaccounted_s"], "s")
    OUT.mkdir(exist_ok=True)
    chosen["tracer"].write(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    extra = {"counter_mismatches": sum(s["counters"] != chosen["counters"]
                                       or s["calls"] != chosen["calls"]
                                       for s in traced),
             "counters": chosen["counters"]}
    return metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.probe_setup:
            _setup(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup = [] if args.trace else time_setup(args)
        workload = _setup(args.workload, args.seed, workdir)
        loop = Loop(workload, workdir)
        steal0 = _steal_s()
        deadline = time.perf_counter() + args.seconds
        # one untimed pass fills the program's caches and lazy tables
        loop.run_pass()
        runner = run_traced if args.trace else run_untraced
        samples = runner(loop, deadline)
        steal = _steal_s() - steal0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = samples["untraced"]
    extra = {}
    if args.trace:
        metrics, extra = per_layer(untraced, samples["traced"], args)
    else:
        metrics = end_to_end(setup, untraced)
    if extra.get("counter_mismatches"):
        # the counters of a traced pass are a function of the seed alone
        loop.failures.append(f"{extra['counter_mismatches']} traced passes "
                             "differ from the median one in counters or calls")
    failed = len(loop.failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_record(), "steal_s": steal,
        "setup_s": _summary(setup) if setup else None,
        "passes": {side: {key: _summary([s[key] for s in group])
                          for key in ("solve_s", "cpu_s", "steal_s")}
                   for side, group in samples.items()},
        "item_s": _summary([t[0] for s in untraced for t in s["items"]]),
        "failed_frac": failed / loop.attempted,
        "failures": loop.failures[:20], **extra,
    }
    print("perfbench record: " + json.dumps(record, sort_keys=True))
    result = {"correct": failed == 0, "attempted": loop.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
