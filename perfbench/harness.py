"""One workload run: set up, train, check, evaluate, and report metrics.

An untraced run (``trace=False``) gives the end-to-end metrics. It sets up
at least ``MIN_SETUPS`` times and for at least ``SETUP_SECONDS``, then runs
slots on the last setup until ``seconds`` have passed, at least
``MIN_SLOTS``: each slot makes one ``train()`` call and evaluates the
trained encoder (repeated for ``EVAL_SECONDS``). Iteration times come from
one timestamp per iteration, taken when ``engine``'s call to
``step_scheduler`` returns.

The host is a few cores of a shared machine whose speed drifts with the
load of its other tenants: the same ``vit-staged`` train() call took from
6 to 17 s minutes apart, and any statistic of wall times over a run of
seconds moved by 20 to 50% between runs of the same code. So the timed
end-to-end metrics are relative: ``HostProbe``, a fixed computation that
shares no code with the program, runs at the end of every iteration and
between evaluations, and each time is divided by the probe time measured
around it (a rolling median for iterations, the slot's median for
evaluations, the call's median for a whole call). Their unit, ``probe``,
is one probe time; a change that makes the program faster lowers them in
proportion. Probe time is taken out of every reported time. The wall
times are kept in the run's details. The set-up time is a plain median
of the set-ups.

A traced run gives the per-layer metrics. It trains three times on one
setup: plain, with the iteration timestamps only, and with every layer
traced (see ``tracing``). All three logs must be byte-identical; the time
differences are the cost of the timestamps and of the tracing.

A train() call or an evaluation that raises or fails a check counts as a
failed operation; the run still prints its result, with the metrics that
could be measured.

The garbage collector stays on, as in a user's run; it is only run to
completion before each timed call, so no call pays for the previous one.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import subprocess
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from time import perf_counter

import numpy as np

import spheretrain
from spheretrain.engine import embed_dataset, train
from spheretrain.evaluate import make_pairs, verification_report
from spheretrain.fileio import read_embeddings, read_pairs, write_embeddings, write_pairs

from . import checks
from .tracing import REPORTED_OPS, Tracer, iteration_clock
from .workloads import Setup, Workload

MIN_SETUPS = 2
MIN_SLOTS = 2
SETUP_SECONDS = 1.0  # at least MIN_SETUPS set-ups
EVAL_SECONDS = 3.0  # per slot, at least one evaluation
WARMUP_ITERATIONS = 5  # per train() call, left out of the iteration percentiles
PAIR_SEED = 1234
PROBE_SEED = 4321
PROBE_WINDOW = 7  # probes on either side of an iteration that set its host speed

END_TO_END_UNITS = {
    "setup_s": "s", "train_rel": "probe", "iter_rel_p50": "probe", "iter_rel_p90": "probe",
    "eval_rel": "probe", "peak_rss_mb": "MB",
}


PER_LAYER_UNITS = {
    "tensor.backward_ms": "ms", "tensor.ops_per_iter": "count",
    "encoders.forward_ms": "ms", "encoders.attention_ms": "ms", "encoders.head_ms": "ms",
    "sampler.sample_ms": "ms", "sampler.set_size": "count", "sampler.grad_cols_ratio": "ratio",
    "losses.alignment_ms": "ms", "losses.stabilization_ms": "ms",
    "losses.refinement_ms": "ms", "losses.renormalize_ms": "ms",
    "optim.step_ms": "ms", "prototypes.update_ms": "ms", "prototypes.initialized": "count",
    "scheduler.css_ms": "ms", "scheduler.iters_alignment": "count",
    "scheduler.iters_stabilization": "count", "scheduler.iters_refinement": "count",
    "engine.self_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms", "checkpoint.mb": "MB",
    "data.generate_ms": "ms",
    "evaluate.embed_ms": "ms", "evaluate.make_pairs_ms": "ms", "evaluate.report_ms": "ms",
    "fileio.write_ms": "ms", "fileio.read_ms": "ms",
    "trace.overhead_s": "s", "trace.stamp_overhead_s": "s",
    **{f"tensor.op.{op}.fwd_ms": "ms" for op in REPORTED_OPS},
}


def environment_stamp(root: Path) -> dict:
    """What a result depends on besides the workload: code and platform."""
    source = sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown"  # a checkout without git history has only the source digest
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == root.resolve():
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
    }


class HostProbe:
    """A fixed computation that shares no code with spheretrain, timed next
    to every iteration and evaluation to measure how fast the host runs at
    that moment. Like the workloads, it mixes interpreter work, small matrix
    products and a gather from a table larger than a core's cache."""

    def __init__(self):
        rng = np.random.default_rng(PROBE_SEED)
        self.table = rng.standard_normal((16_384, 32))  # 4 MB, resident for the whole run
        self.rows = rng.integers(0, len(self.table), 4_000)
        self.small = rng.standard_normal((16, 16))
        self.seconds: list[float] = []

    def __call__(self) -> float:
        started = perf_counter()
        total = 0
        for i in range(1_500):
            total += i
        for _ in range(50):
            self.small @ self.small
        self.table[self.rows].sum()
        self.seconds.append(perf_counter() - started)
        return self.seconds[-1]


def _rolling_median(x: np.ndarray, half: int = PROBE_WINDOW) -> np.ndarray:
    """Median of each sample and its ``half`` neighbours on either side: one
    probe is too short to time alone, while the host's speed holds for
    seconds."""
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(x, half, mode="edge"), 2 * half + 1)
    return np.median(windows, axis=1)


@dataclass
class TrainCall:
    """What later code reads of one call; the checkpoint itself is not kept,
    so that held results do not add to the peak memory of later calls."""

    seconds: float
    log: bytes
    phases: list[str]
    losses: list[float]
    problems: list[str]
    iteration_ms: list[float] = field(default_factory=list)
    iteration_rel: list[float] = field(default_factory=list)  # each over the probe time around it
    seconds_rel: float = float("nan")  # seconds over the call's median probe time
    check_ms: float = 0.0  # reloading the checkpoint and comparing its arrays
    checkpoint_mb: float = 0.0
    prototypes_initialized: int = 0


def train_call(workload: Workload, setup: Setup, seed: int, workdir: Path, tag: str,
               stamped: bool = False, probe: HostProbe | None = None) -> TrainCall:
    """One timed ``train()`` with log and checkpoint paths, then its output
    checks. ``stamped`` times every iteration. A ``probe`` runs at the end of
    every iteration; its time is taken out of the call's and the iteration's
    times, and each is also given over the probe's time."""
    log_path, ckpt_path = workdir / f"{tag}.csv", workdir / f"{tag}.lvpc"
    first_probe = len(probe.seconds) if probe else 0
    gc.collect()
    with iteration_clock(probe=probe) if stamped else nullcontext() as stamps:
        started = perf_counter()
        ckpt, rows = train(setup.config, setup.dataset, setup.encoder,
                           log_path=log_path, checkpoint_path=ckpt_path)
        seconds = perf_counter() - started
    probe_s = np.array(probe.seconds[first_probe:] if probe else [0.0])
    seconds -= probe_s.sum()
    problems = checks.check_log(log_path, setup.config.max_iterations)
    if seed == 0 and workload.seed0_phases is not None:
        wrong = workload.seed0_phases(checks.read_phases(log_path))
        problems += [f"seed-0 phase contract: {wrong}"] if wrong else []
    checked = perf_counter()
    problems += checks.check_checkpoint(ckpt_path, ckpt)
    call = TrainCall(seconds, log_path.read_bytes(), [r.phase for r in rows],
                     [r.loss for r in rows], problems, check_ms=(perf_counter() - checked) * 1e3,
                     checkpoint_mb=ckpt_path.stat().st_size / 2**20,
                     prototypes_initialized=int(ckpt.prototypes_initialized.sum()))
    if stamped:
        spans = np.diff([started] + stamps) - probe_s
        call.iteration_ms = (spans * 1e3)[WARMUP_ITERATIONS:].tolist()
    if stamped and probe:
        call.iteration_rel = (spans / _rolling_median(probe_s))[WARMUP_ITERATIONS:].tolist()
        call.seconds_rel = seconds / float(np.median(probe_s))
    ckpt_path.unlink()
    log_path.unlink()
    return call


def evaluate(setup: Setup, workdir: Path) -> tuple[dict[str, float], list[str], float]:
    """The export -> eval path on the held-out set: embed, file round trip,
    pairs and verification report. Returns section seconds, problems, TAR."""
    t = [perf_counter()]
    features = embed_dataset(setup.encoder, setup.eval_inputs)
    t.append(perf_counter())
    write_embeddings(workdir / "eval.emb", features, setup.eval_labels)
    t.append(perf_counter())
    read_features, read_labels = read_embeddings(workdir / "eval.emb")
    t.append(perf_counter())
    pairs = make_pairs(read_labels, np.random.Generator(np.random.Philox(PAIR_SEED)))
    t.append(perf_counter())
    write_pairs(workdir / "eval.pairs", pairs)
    t.append(perf_counter())
    pairs = read_pairs(workdir / "eval.pairs")
    t.append(perf_counter())
    report = verification_report(read_features.astype(np.float64), read_labels, pairs, [1e-2])
    t.append(perf_counter())
    d = np.diff(t)
    sections = {"embed": d[0], "write": d[1] + d[4], "read": d[2] + d[5],
                "make_pairs": d[3], "report": d[6], "total": t[-1] - t[0]}
    problems = checks.check_eval(features, setup.eval_labels, read_features, read_labels,
                                 pairs, report)
    return sections, problems, report.tar_at[1e-2]


@dataclass
class Outcome:
    """Operations attempted (train() calls and evaluations) and those that failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems

    def train(self, reference: TrainCall | None, *args, **kwargs) -> TrainCall | None:
        """A checked train_call; its log must match the reference call's byte for byte."""
        try:
            call = train_call(*args, **kwargs)
        except Exception as exc:  # a raising train() is a failed operation, not a crash
            self.record([f"train() raised {exc!r}"])
            return None
        if reference is not None and call.log != reference.log:
            call.problems.append(
                f"log {checks.fingerprint(call.log)[:12]} differs from the first run's "
                f"{checks.fingerprint(reference.log)[:12]} at the same seed")
        self.record(call.problems)
        return call

    def evaluate(self, setup: Setup, workdir: Path) -> tuple[dict[str, float] | None, float]:
        """A checked evaluation; (None, nan) if it raised."""
        gc.collect()
        try:
            sections, problems, tar = evaluate(setup, workdir)
        except Exception as exc:
            self.record([f"evaluation raised {exc!r}"])
            return None, float("nan")
        self.record(problems)
        return sections, tar


def _loss_tail(call: TrainCall) -> float:
    return float(np.mean(call.losses[-max(1, len(call.losses) // 10):]))


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: Path):
    out = Outcome()
    probe = HostProbe()
    setup_s = []
    while len(setup_s) < MIN_SETUPS or sum(setup_s) < SETUP_SECONDS:
        setup = None  # free the previous setup before timing the next
        gc.collect()
        started = perf_counter()
        setup = workload.build(seed)
        setup_s.append(perf_counter() - started)
    calls, eval_s, eval_rel, tars = [], [], [], []
    deadline = perf_counter() + seconds
    slots = 0
    while slots < MIN_SLOTS or perf_counter() < deadline:
        slots += 1
        call = out.train(calls[0] if calls else None, workload, setup, seed, workdir,
                         f"slot{slots}", stamped=True, probe=probe)
        if call is None:
            continue
        calls.append(call)
        slot_eval_s, slot_probe_s = [], [probe()]
        while not slot_eval_s or sum(slot_eval_s) < EVAL_SECONDS:
            sections, tar = out.evaluate(setup, workdir)
            if sections is None:
                break
            slot_eval_s.append(sections["total"])
            slot_probe_s.append(probe())
            tars.append(tar)
        eval_s += slot_eval_s
        eval_rel += [e / float(np.median(slot_probe_s)) for e in slot_eval_s]
    if not calls or not eval_s:
        return out, {}, {}, None  # nothing to measure; the result reports the failures

    iteration_ms = np.concatenate([c.iteration_ms for c in calls])
    iteration_rel = np.concatenate([c.iteration_rel for c in calls])
    metrics = {
        "setup_s": float(np.median(setup_s)),
        "train_rel": float(np.median([c.seconds_rel for c in calls])),
        "iter_rel_p50": float(np.percentile(iteration_rel, 50)),
        "iter_rel_p90": float(np.percentile(iteration_rel, 90)),
        "eval_rel": float(np.median(eval_rel)),
        # The probe's table is resident from before the first set-up to the
        # end, so it adds exactly its own size to the peak.
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                        - probe.table.nbytes / 2**20),
    }
    info = {
        "setups": len(setup_s),
        "train_s_each": [c.seconds for c in calls],
        "timed_iterations": int(iteration_ms.size),
        "iter_ms_p50": float(np.percentile(iteration_ms, 50)),
        "iter_ms_p90": float(np.percentile(iteration_ms, 90)),
        "evaluations": len(eval_s),
        "eval_s_p50": float(np.median(eval_s)),
        "probe_ms_p50": float(np.median(probe.seconds)) * 1e3,
        "log_sha256": checks.fingerprint(calls[0].log),
        "final_phase": calls[0].phases[-1],
        "loss_last_tenth": _loss_tail(calls[0]),
        "tar_at_far_1e-2": tars[0],
    }
    return out, metrics, info, None


def run_traced(workload: Workload, seed: int, workdir: Path):
    out = Outcome()
    setup = workload.build(seed)
    plain = out.train(None, workload, setup, seed, workdir, "plain")
    stamped = out.train(plain, workload, setup, seed, workdir, "stamped", stamped=True)
    tracer = Tracer(setup.encoder.embed_dim)
    with tracer.install():
        traced = out.train(plain, workload, setup, seed, workdir, "traced")
    if None in (plain, stamped, traced):
        return out, {}, {}, None  # the result reports the failed calls
    sections, tar = out.evaluate(setup, workdir)

    metrics = tracer.layer_metrics(setup.config.max_iterations)
    metrics.update({
        "prototypes.initialized": float(traced.prototypes_initialized),
        "scheduler.iters_alignment": float(traced.phases.count("alignment")),
        "scheduler.iters_stabilization": float(traced.phases.count("stabilization")),
        "scheduler.iters_refinement": float(traced.phases.count("refinement")),
        "checkpoint.load_ms": traced.check_ms,  # reload plus byte comparison
        "checkpoint.mb": traced.checkpoint_mb,
        "data.generate_ms": setup.generate_s * 1e3,
        "trace.overhead_s": traced.seconds - stamped.seconds,
        "trace.stamp_overhead_s": stamped.seconds - plain.seconds,
    })
    if sections is not None:
        metrics.update({
            "evaluate.embed_ms": sections["embed"] * 1e3,
            "evaluate.make_pairs_ms": sections["make_pairs"] * 1e3,
            "evaluate.report_ms": sections["report"] * 1e3,
            "fileio.write_ms": sections["write"] * 1e3,
            "fileio.read_ms": sections["read"] * 1e3,
        })
    info = {
        "train_s_plain": plain.seconds,
        "train_s_stamped": stamped.seconds,
        "train_s_traced": traced.seconds,
        "logs_identical": plain.log == stamped.log == traced.log,
        "log_sha256": checks.fingerprint(traced.log),
        "loss_last_tenth": _loss_tail(traced),
        "tar_at_far_1e-2": tar,
    }
    return out, metrics, info, tracer.span_records()


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Measure one workload; returns the result line plus its stamp and details."""
    if Path(spheretrain.__file__).resolve().parent != (root / "src" / "spheretrain").resolve():
        raise RuntimeError(f"spheretrain imported from {spheretrain.__file__}, not {root}/src")
    (root / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".bench_work"))
    try:
        if trace:
            out, metrics, info, spans = run_traced(workload, seed, workdir)
        else:
            out, metrics, info, spans = run_untraced(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "result": {
            "correct": out.failed == 0,
            "attempted": out.attempted,
            "failed": out.failed,
            # A metric is absent only when a failed operation left nothing to measure.
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                        if k in metrics},
        },
        "problems": out.problems,
        "info": info,
        "stamp": environment_stamp(root),
        "spans": spans,
    }
