"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--write-baseline]

Runs each workload untraced once per seed 1..10, one process at a time, and
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound from ``BENCHMARK.json``.
``--write-baseline`` stores the medians and the environment stamp in
``perfbench/baseline.json``, which ``run.py`` compares later runs against
when their setup matches.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import BASELINE, ROOT, WORKLOAD_NAMES, run_child

SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    medians, quartiles, stamp, ok = {}, {}, None, True
    for name in WORKLOAD_NAMES:
        values = {metric: [] for metric in bounds}
        for seed in SEEDS:
            record = run_child(name, seed, seconds, 0)
            if record is None or not record["result"]["correct"]:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            stamp = record["stamp"]
            for metric in bounds:
                values[metric].append(record["result"]["metrics"][metric]["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        medians[name], quartiles[name] = {}, {}
        for metric, vals in values.items():
            if len(vals) < 2:
                continue
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            medians[name][metric] = median
            quartiles[name][metric] = [q1, q3]
            flag = "ok" if spread < bounds[metric] / 3 else (
                "WIDE" if spread < bounds[metric] else "OVER BOUND")
            print(f"  {name:15} {metric:12} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}  bound {bounds[metric]:.0%}  {flag}")
    if args.write_baseline and ok:
        BASELINE.write_text(json.dumps({
            "seeds": list(SEEDS), "run_seconds": seconds, "stamp": stamp,
            "median": medians, "quartiles": quartiles,
        }, indent=1) + "\n")
        print(f"wrote {BASELINE}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
