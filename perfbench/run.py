"""Benchmark of spheretrain training on three workloads.

Run from the repository root:

    python3 perfbench/run.py [--seed N]
        every workload, untraced then traced, one process per run; prints the
        end-to-end and per-layer metrics, the roadmap ratios and the output
        checks, and exits 1 if any check failed.
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run. The last line of stdout is a JSON object with ``correct``,
        ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
        ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every run writes its details (environment stamp, output-check values,
problems, and for a traced run its spans) to ``.bench_out/``. BLAS runs on
``BLAS_THREADS`` threads, set before numpy loads. The program is imported
from ``src/`` of the checkout this file sits in; without it the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
WORKLOAD_NAMES = ("vit-staged", "mlp-ncs-100k", "mlp-refine-10k")
DEFAULT_SECONDS = 15
# One thread: the host has two cores shared with other work, and a second
# BLAS thread makes the small matmuls here slower and noisier, not faster.
BLAS_THREADS = 1
# Stamp fields that must match before two results are compared.
SETUP_KEYS = ("python", "numpy", "blas", "blas_threads", "nproc")


def _pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def detail_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def run_one(args) -> int:
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    record = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    detail_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"# check failed: {problem}")
    print(f"# stamp: {json.dumps(record['stamp'])}")
    print(f"# info: {json.dumps(record['info'])}")
    print(json.dumps(record["result"]))
    return 0


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(detail_path(workload, seed, trace).read_text())


def _comparable_baseline(stamp: dict) -> dict | None:
    if not BASELINE.exists():
        return None
    baseline = json.loads(BASELINE.read_text())
    differs = [k for k in SETUP_KEYS if baseline["stamp"].get(k) != stamp.get(k)]
    if differs:
        print(f"baseline not compared: setup differs in {', '.join(differs)}")
        return None
    return baseline


def run_all(args) -> int:
    records = {}
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"running {name} seed {args.seed} trace {trace} ...", flush=True)
            record = run_child(name, args.seed, args.seconds, trace)
            records[name, trace] = record
            if record is None:
                print(f"  {name}: the run failed to finish")
                ok = False
                continue
            result = record["result"]
            ok &= result["correct"]
            print(f"  correct {result['correct']}: {result['failed']} of "
                  f"{result['attempted']} operations failed")
            for problem in record["problems"]:
                print(f"  check failed: {problem}")
            for key, value in record["info"].items():
                print(f"  {key}: {value}")
    first = next((r for r in records.values() if r is not None), None)
    if first is None:
        return 1
    print(f"\nstamp: {json.dumps(first['stamp'])}")
    baseline = _comparable_baseline(first["stamp"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def value(name, trace, metric):
        """The metric as measured; nan when the run failed before measuring it."""
        record = records[name, trace]
        metrics = record["result"]["metrics"] if record else {}
        return metrics[metric]["value"] if metric in metrics else float("nan")

    for trace, title, section in ((0, "end-to-end", "end_to_end"), (1, "per-layer", "per_layer")):
        print(f"\n{title} metrics (seed {args.seed})")
        print(f"{'metric':34}{'unit':>7}" + "".join(f"{n:>17}" for n in WORKLOAD_NAMES))
        for metric in bench[section]:
            name, unit = metric["name"], metric["unit"]
            values = "".join(f"{value(n, trace, name):>17.6g}" for n in WORKLOAD_NAMES)
            print(f"{name:34}{unit:>7}{values}")
            if baseline and trace == 0:
                ratios = "".join(f"{value(n, 0, name) / baseline['median'][n][name]:>17.3f}"
                                 for n in WORKLOAD_NAMES)
                print(f"{'  / baseline median':41}{ratios}")

    ncs, refine = value("mlp-ncs-100k", 0, "iter_rel_p50"), value("mlp-refine-10k", 0, "iter_rel_p50")
    print("\nroadmap targets")
    print(f"  sampled vs dense step at 10,000 columns (item 3, target <= 1.5): "
          f"{ncs / refine:.3f} = mlp-ncs-100k iter_rel_p50 {ncs:.3f} "
          f"/ mlp-refine-10k iter_rel_p50 {refine:.3f} probe")
    print(f"  classifier gradient columns per sampled column on mlp-ncs-100k (item 3, target 1): "
          f"{value('mlp-ncs-100k', 1, 'sampler.grad_cols_ratio'):.3f}")
    print(f"  autodiff op calls per vit-staged iteration (item 2, batched ViT): "
          f"{value('vit-staged', 1, 'tensor.ops_per_iter'):.1f}")
    print(f"\n{'all output checks passed' if ok else 'OUTPUT CHECKS FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, with a summary)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="training time to measure per untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spheretrain" / "__init__.py").is_file():
        print(f"error: no spheretrain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
