"""Print the sha256 of the log and the checkpoint that ``train()`` writes for
each benchmark workload config at seeds 0 and 1, with the BLAS thread count.

Run from the repository root:

    OPENBLAS_NUM_THREADS=1 python3 tools/loghashes.py [--shrunk]

One line per (workload, seed): ``workload seed log=<sha256> ckpt=<sha256>``,
after a first line ``blas_threads N``, the benchmark stamp's count (the
``OPENBLAS_NUM_THREADS`` setting, 0 when unset). Two trees that print the same
lines at the same thread count train bit-identically on these configs.
``--shrunk`` uses each workload's small copy (``Workload.shrunk()``).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.harness import environment_stamp  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from spheretrain.engine import train  # noqa: E402

SEEDS = (0, 1)


def hashes(name: str, seed: int, shrunk: bool) -> tuple[str, str]:
    """sha256 hex digests of the log and the checkpoint of one run."""
    workload = WORKLOADS[name].shrunk() if shrunk else WORKLOADS[name]
    setup = workload.build(seed)
    with tempfile.TemporaryDirectory() as tmp:
        log, ckpt = Path(tmp) / "log.csv", Path(tmp) / "run.lvpc"
        train(setup.config, setup.dataset, setup.encoder, log_path=log, checkpoint_path=ckpt)
        return tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (log, ckpt))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shrunk", action="store_true")
    args = parser.parse_args(argv)
    print(f"blas_threads {environment_stamp(ROOT)['blas_threads']}", flush=True)
    for name in WORKLOADS:
        for seed in SEEDS:
            log, ckpt = hashes(name, seed, args.shrunk)
            print(f"{name} {seed} log={log} ckpt={ckpt}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
