"""Run the benchmark twice over ten seeds and record how far it can be trusted.

Usage, from the root of a checkout:

    python3 perfbench/spread.py

It makes two sets of runs of ``perfbench/run.py``, one after the other:
seeds 1-10, then seeds 11-20.  Within a set it goes seed by seed through
every workload in BENCHMARK.json in turn, one run at a time, so that each
workload samples the same stretches of the host's speed.  It then makes one
traced run per workload with the first seed.

For each workload and end-to-end metric it prints each set's median and the
distance between its first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and how far the second median lies
from the first.  A metric is ``bounded`` when both spreads (``setup_s``
aside) and that distance are within the metric's bound, and ``unresolved``
otherwise: its figures here cannot tell a change of that size from the
host's drift.  Everything goes to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "perfbench" / "baseline.json"
SETS = (range(1, 11), range(11, 21))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True, timeout=180)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["record"] = json.loads(lines[-2].split(": ", 1)[1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "iqr_share": (q3 - q1) / med, "values": values}


def run_set(names: list[str], seeds, seconds: int) -> dict[str, list[dict]]:
    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result = run_once(name, seed, seconds, 0)
            runs[name].append(result)
            print(f"  seed {seed:2d} {name:14s} solve_s "
                  f"{result['metrics']['solve_s']['value']:.3f}", flush=True)
    return runs


def summarise(name: str, sets: list[list[dict]], bounds: dict) -> dict:
    """Both sets of one workload: outcome, metrics and their status."""
    every = [r for runs in sets for r in runs]
    row = {"correct": all(r["correct"] for r in every),
           "attempted": sum(r["attempted"] for r in every),
           "failed": sum(r["failed"] for r in every), "end_to_end": {},
           "passes_per_run": [r["record"]["passes"]["untraced"]["solve_s"]["n"]
                              for r in every],
           "steal_s_per_run": [r["record"]["steal_s"] for r in every],
           "run_wall_s": [r["wall_s"] for r in every]}
    row["failed_frac"] = row["failed"] / row["attempted"]
    print(f"{name}: correct={row['correct']} attempted={row['attempted']} "
          f"failed={row['failed']}")
    for metric, bound in bounds.items():
        first, second = (spread([r["metrics"][metric]["value"] for r in runs])
                         for runs in sets)
        drift = second["median"] / first["median"] - 1
        spreads_ok = metric == "setup_s" or max(
            first["iqr_share"], second["iqr_share"]) <= bound
        status = "bounded" if spreads_ok and abs(drift) <= bound else "unresolved"
        row["end_to_end"][metric] = {"bound": bound, "status": status,
                                     "drift": drift, "sets": [first, second]}
        print(f"  {metric:12s} medians {first['median']:9.4f} "
              f"{second['median']:9.4f}  drift {drift:+.3f}  iqr/median "
              f"{first['iqr_share']:.3f} {second['iqr_share']:.3f}  "
              f"bound {bound}  {status}")
    return row


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    sets = []
    for seeds in SETS:
        print(f"set of seeds {seeds.start}-{seeds.stop - 1}", flush=True)
        sets.append(run_set(names, seeds, seconds))
    out = {"run_seconds": seconds, "seeds": [list(s) for s in SETS],
           "workloads": {}}
    for name in names:
        row = summarise(name, [runs[name] for runs in sets], bounds)
        out["machine"] = sets[0][name][0]["record"]["machine"]
        traced = run_once(name, SETS[0][0], seconds, 1)
        m = traced["metrics"]
        print(f"  traced: solve {m['trace.solve_s']['value']:.3f} s, "
              f"overhead {m['trace.overhead_s']['value']:.3f} s, "
              f"unaccounted {m['trace.unaccounted_s']['value']:.4f} s")
        row["traced"] = {
            "seed": SETS[0][0], "correct": traced["correct"],
            "per_layer": {k: v["value"] for k, v in m.items()},
            "counters": traced["record"]["counters"],
            "counter_mismatches": traced["record"]["counter_mismatches"],
        }
        out["workloads"][name] = row
    BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
