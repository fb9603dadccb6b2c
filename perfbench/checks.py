"""Output checks on the artifacts of one ``train()`` call and one evaluation.

Each check returns a list of problems; an empty list means the output is
correct. Checks read the files the program wrote, not its in-memory rows,
so a corrupted log or checkpoint on disk fails them.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

from spheretrain.checkpoint import Checkpoint, load_checkpoint
from spheretrain.engine import LOG_HEADER
from spheretrain.errors import SphereTrainError

PHASE_ORDER = ("alignment", "stabilization", "refinement")


def fingerprint(log: bytes) -> str:
    return hashlib.sha256(log).hexdigest()


def read_phases(path: Path) -> list[str]:
    return [line.split(",")[1] for line in Path(path).read_text().splitlines()[1:]]


def check_log(path: Path, iterations: int) -> list[str]:
    """One row per iteration 1..N, every loss finite, phases never backward."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != LOG_HEADER:
        return [f"log header is not {LOG_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != iterations:
        return [f"log has {len(rows)} rows for {iterations} iterations"]
    problems = []
    last_phase = 0
    for expected, row in enumerate(rows, start=1):
        fields = row.split(",")
        try:
            iteration, phase, loss = int(fields[0]), fields[1], float(fields[2])
        except (IndexError, ValueError):
            problems.append(f"unparsable log row {expected}: {row!r}")
            continue
        if iteration != expected:
            problems.append(f"log row {expected} is for iteration {iteration}")
        if not math.isfinite(loss):
            problems.append(f"non-finite loss {loss} at iteration {iteration}")
        if phase not in PHASE_ORDER:
            problems.append(f"unknown phase {phase!r} at iteration {iteration}")
            continue
        if PHASE_ORDER.index(phase) < last_phase:
            problems.append(f"phase moved back to {phase} at iteration {iteration}")
        last_phase = max(last_phase, PHASE_ORDER.index(phase))
    return problems


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_checkpoint(path: Path, expected: Checkpoint) -> list[str]:
    """The saved checkpoint reloads with byte-identical arrays and counters."""
    try:
        loaded = load_checkpoint(path)
    except (SphereTrainError, ValueError, KeyError) as exc:
        return [f"checkpoint does not reload: {exc!r}"]
    problems = []
    groups = {
        "encoder": (loaded.encoder_arrays, expected.encoder_arrays),
        "optimizer": (loaded.optimizer_arrays, expected.optimizer_arrays),
        "bank": (
            {"classifier": loaded.classifier, "prototypes": loaded.prototypes,
             "initialized": loaded.prototypes_initialized},
            {"classifier": expected.classifier, "prototypes": expected.prototypes,
             "initialized": expected.prototypes_initialized},
        ),
    }
    for group, (got, want) in groups.items():
        if sorted(got) != sorted(want):
            problems.append(f"checkpoint {group} arrays are {sorted(got)}, not {sorted(want)}")
            continue
        problems += [f"checkpoint array {group}.{k} differs" for k in want
                     if not _same(got[k], want[k])]
    if loaded.optimizer_counts != expected.optimizer_counts:
        problems.append("checkpoint optimizer step counts differ")
    if loaded.stage != expected.stage:
        problems.append(f"checkpoint stage {loaded.stage} is not {expected.stage}")
    return problems


def check_eval(features, labels, read_features, read_labels, pairs, report) -> list[str]:
    """The embedding file round trip keeps every row, all pairs are made, and
    the report is finite."""
    problems = []
    n = len(labels)
    if not np.array_equal(read_labels, labels):
        problems.append("embedding file labels differ from the written ones")
    if read_features.shape != features.shape or not np.allclose(
            read_features, features, rtol=0.0, atol=1e-6):
        problems.append("embedding file features differ from the written ones by > 1e-6")
    if len(pairs) != n * (n - 1) // 2:
        problems.append(f"{len(pairs)} pairs for {n} samples, expected {n * (n - 1) // 2}")
    tar = report.tar_at[1e-2]
    if not 0.0 <= tar <= 1.0:
        problems.append(f"TAR@FAR=1e-2 is {tar}")
    if not (math.isfinite(report.intra_mean_cos) and math.isfinite(report.inter_mean_cos)):
        problems.append("non-finite cluster statistics")
    return problems
