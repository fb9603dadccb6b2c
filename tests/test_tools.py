import hashlib
import subprocess
import sys
from pathlib import Path

from perfbench.harness import environment_stamp
from perfbench.workloads import WORKLOADS
from spheretrain.engine import train

ROOT = Path(__file__).resolve().parent.parent


def test_loghashes_prints_the_hashes_of_what_train_writes(tmp_path):
    # the tool inherits this process's BLAS setting, so both train alike
    proc = subprocess.run([sys.executable, "tools/loghashes.py", "--shrunk"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300, check=True)
    first, *lines = proc.stdout.splitlines()
    assert first == f"blas_threads {environment_stamp(ROOT)['blas_threads']}"
    expected = []
    for workload in WORKLOADS.values():
        for seed in (0, 1):
            setup = workload.shrunk().build(seed)
            stem = tmp_path / f"{workload.name}-{seed}"
            log, ckpt = stem.with_suffix(".csv"), stem.with_suffix(".lvpc")
            train(setup.config, setup.dataset, setup.encoder, log_path=log, checkpoint_path=ckpt)
            digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (log, ckpt)]
            expected.append(f"{workload.name} {seed} log={digests[0]} ckpt={digests[1]}")
    assert lines == expected
