"""Tests of the benchmark itself, on shrunken copies of its workloads."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, harness, run
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def records():
    saved = harness.SETUP_SECONDS, harness.EVAL_SECONDS
    harness.SETUP_SECONDS = harness.EVAL_SECONDS = 0.0
    try:
        return {(name, trace): harness.run(w.shrunk(), 0, 0.0, trace, ROOT)
                for name, w in WORKLOADS.items() for trace in (False, True)}
    finally:
        harness.SETUP_SECONDS, harness.EVAL_SECONDS = saved


def test_benchmark_json_names_the_workloads_the_runner_knows():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)
    assert BENCH["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(records, trace, section):
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    for name in WORKLOADS:
        result = records[name, trace]["result"]
        assert result["correct"], records[name, trace]["problems"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_traced_run_trains_like_the_plain_run(records):
    for name in WORKLOADS:
        info = records[name, True]["info"]
        assert info["logs_identical"]
        assert info["log_sha256"] == records[name, False]["info"]["log_sha256"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A clean log and checkpoint from one shrunken train() call."""
    workdir = tmp_path_factory.mktemp("artifacts")
    setup = WORKLOADS["mlp-refine-10k"].shrunk().build(0)
    ckpt, _ = harness.train(setup.config, setup.dataset, setup.encoder,
                            log_path=workdir / "log.csv", checkpoint_path=workdir / "c.lvpc")
    return workdir, setup.config.max_iterations, ckpt


def _corrupt_log(text: str, how: str) -> str:
    lines = text.splitlines()
    fields = lines[3].split(",")
    if how == "nan-loss":
        fields[2] = "nan"
    elif how == "phase-backward":
        lines[-1] = lines[-1].replace("refinement", "alignment")
    elif how == "missing-row":
        del lines[5]
        return "\n".join(lines) + "\n"
    lines[3] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("how", ["nan-loss", "phase-backward", "missing-row"])
def test_corrupted_log_fails_the_check(artifacts, tmp_path, how):
    workdir, iterations, _ = artifacts
    assert checks.check_log(workdir / "log.csv", iterations) == []
    bad = tmp_path / "log.csv"
    bad.write_text(_corrupt_log((workdir / "log.csv").read_text(), how))
    assert checks.check_log(bad, iterations)


def test_truncated_checkpoint_fails_the_check(artifacts, tmp_path):
    workdir, _, ckpt = artifacts
    assert checks.check_checkpoint(workdir / "c.lvpc", ckpt) == []
    raw = (workdir / "c.lvpc").read_bytes()
    bad = tmp_path / "c.lvpc"
    bad.write_bytes(raw[: len(raw) // 2])
    assert checks.check_checkpoint(bad, ckpt)


def test_checkpoint_with_a_changed_array_fails_the_check(artifacts):
    workdir, _, ckpt = artifacts
    ckpt.classifier[0, 0] += 1.0
    try:
        assert checks.check_checkpoint(workdir / "c.lvpc", ckpt)
    finally:
        ckpt.classifier[0, 0] -= 1.0


def test_without_the_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vit-staged", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""



def _raise(*args, **kwargs):
    raise FloatingPointError("injected failure")


@pytest.mark.parametrize("raising, trace", [
    ("train", False), ("train", True), ("embed_dataset", False), ("embed_dataset", True)])
def test_a_raising_call_is_a_failed_operation_not_a_crash(monkeypatch, raising, trace):
    monkeypatch.setattr(harness, "SETUP_SECONDS", 0.0)
    monkeypatch.setattr(harness, "EVAL_SECONDS", 0.0)
    monkeypatch.setattr(harness, raising, _raise)
    result = harness.run(WORKLOADS["vit-staged"].shrunk(), 0, 0.0, trace, ROOT)["result"]
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
