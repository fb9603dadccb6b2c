"""Spans around calls into spheretrain's layers, recorded from outside.

``Tracer.install()`` replaces each traced callable under the name its caller
looks it up by: ``engine`` binds ``css_score``, ``step_scheduler``,
``save_checkpoint`` and the ``loss_*`` functions as module globals and
reaches ``sample`` through the ``sampler`` module; the encoders reach tensor
ops through the ``tensor`` module; everything else is a method. Wrappers
pass arguments and results through untouched, so a traced run trains
exactly like an untraced one.

Layer calls become spans (name, start, end, parent, iteration) kept in
memory. Tensor ops are too many to keep one span each (about 1,300 per
ViT iteration), so their wrappers only add up count and time per op.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from spheretrain import engine, sampler, tensor
from spheretrain.encoders import MLPEncoder, ViTEncoder
from spheretrain.losses import ClassifierBank
from spheretrain.optim import AdamW
from spheretrain.prototypes import PrototypeBank
from spheretrain.tensor import Tensor

# (owner, attribute, span name); a missing attribute is skipped.
LAYER_TARGETS = (
    (engine, "css_score", "scheduler.css"),
    (engine, "step_scheduler", "scheduler.step"),
    (engine, "loss_alignment", "losses.alignment"),
    (engine, "loss_stabilization", "losses.stabilization"),
    (engine, "loss_refinement", "losses.refinement"),
    (engine, "save_checkpoint", "checkpoint.save"),
    (sampler, "sample", "sampler.sample"),
    (Tensor, "backward", "tensor.backward"),
    (AdamW, "step", "optim.step"),
    (ClassifierBank, "renormalize_columns", "losses.renormalize"),
    (PrototypeBank, "batch_update", "prototypes.update"),
    (MLPEncoder, "forward", "encoders.forward"),
    (ViTEncoder, "forward", "encoders.forward"),
    (ViTEncoder, "forward_tokens", "encoders.tokens"),
    (ViTEncoder, "attention", "encoders.attention"),
)


# Ops whose forward time is reported on its own; every op is counted.
REPORTED_OPS = ("matmul", "layer_norm", "add_rowvec", "row_softmax", "gelu", "concat_cols",
                "gather_cols", "row_logsumexp")


def tensor_ops() -> list[str]:
    """Public functions of the tensor module that build graph nodes."""
    return sorted(
        name for name, fn in vars(tensor).items()
        if inspect.isfunction(fn) and fn.__module__ == tensor.__name__
        and not name.startswith("_") and name != "finite_difference_check"
    )


@contextmanager
def iteration_clock(stamps: list[float] | None = None, probe=None):
    """Append a timestamp to ``stamps`` each time ``engine`` returns from
    ``step_scheduler``, which it calls once per iteration. A ``probe`` is
    called first, at the end of every iteration, and its time falls inside
    the stamped interval; the caller subtracts it."""
    stamps = [] if stamps is None else stamps
    original = engine.step_scheduler

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        if probe is not None:
            probe()
        stamps.append(perf_counter())
        return result

    engine.step_scheduler = stamped
    try:
        yield stamps
    finally:
        engine.step_scheduler = original


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    iteration: int  # 1-based; N + 1 after the last iteration

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, embed_dim: int):
        self.embed_dim = embed_dim
        self.spans: list[Span | None] = []
        self.iteration_ends: list[float] = []
        self.op_calls: Counter[str] = Counter()
        self.op_seconds: defaultdict[str, float] = defaultdict(float)
        self.sample_sizes: list[int] = []
        self.classifier_grad_entries = 0
        self.sampled_entries = 0
        self._open: list[int] = []
        self._step_signature = inspect.signature(AdamW.step)

    @property
    def iteration(self) -> int:
        return len(self.iteration_ends) + 1

    def _span(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.iteration)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _op(self, name: str, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.op_seconds[name] += perf_counter() - start
                self.op_calls[name] += 1

        return traced

    def _after(self, name: str):
        if name == "sampler.sample":
            return lambda args, kwargs, result: self.sample_sizes.append(int(result.size))
        if name == "optim.step":
            return self._count_gradient_columns
        return None

    def _count_gradient_columns(self, args, kwargs, result) -> None:
        try:
            bound = self._step_signature.bind(*args, **kwargs).arguments
        except TypeError:
            return
        columns = bound.get("columns")
        if bound.get("name") == "classifier" and columns is not None:
            self.classifier_grad_entries += int(np.size(bound["grad"]))
            self.sampled_entries += len(columns) * self.embed_dim

    @contextmanager
    def install(self):
        """Trace every target for the duration of the block, then restore."""
        originals = []
        try:
            for owner, attr, name in LAYER_TARGETS:
                if attr in vars(owner):
                    originals.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, self._span(name, vars(owner)[attr], self._after(name)))
            for op in tensor_ops():
                originals.append((tensor, op, getattr(tensor, op)))
                setattr(tensor, op, self._op(op, getattr(tensor, op)))
            with iteration_clock(self.iteration_ends):  # outside the scheduler.step span
                yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def layer_metrics(self, iterations: int) -> dict[str, float]:
        """Per-iteration layer times (ms), counts and ratios of the run."""
        done = [s for s in self.spans if s is not None and s.iteration <= iterations]
        per_iter = defaultdict(float)
        for s in done:
            per_iter[s.name] += s.seconds * 1e3 / iterations
        # Iterations 2..N, between the stamps that end iteration 1 and N, so
        # that train()'s start-up before the loop is not counted.
        ends = self.iteration_ends[:iterations]
        children = sum(s.seconds for s in done if s.parent == -1 and s.iteration >= 2)
        engine_self_ms = ((ends[-1] - ends[0] - children) * 1e3 / (len(ends) - 1)
                          if len(ends) >= 2 else 0.0)
        saves = [s.seconds for s in self.spans if s is not None and s.name == "checkpoint.save"]
        metrics = {
            "tensor.backward_ms": per_iter["tensor.backward"],
            "tensor.ops_per_iter": sum(self.op_calls.values()) / iterations,
            "encoders.forward_ms": per_iter["encoders.forward"],
            "encoders.attention_ms": per_iter["encoders.attention"],
            "encoders.head_ms": per_iter["encoders.forward"] - per_iter["encoders.tokens"],
            "sampler.sample_ms": per_iter["sampler.sample"],
            "sampler.set_size": float(np.mean(self.sample_sizes)) if self.sample_sizes else 0.0,
            "sampler.grad_cols_ratio": (self.classifier_grad_entries / self.sampled_entries
                                        if self.sampled_entries else 0.0),
            "losses.alignment_ms": per_iter["losses.alignment"],
            "losses.stabilization_ms": per_iter["losses.stabilization"],
            "losses.refinement_ms": per_iter["losses.refinement"],
            "losses.renormalize_ms": per_iter["losses.renormalize"],
            "optim.step_ms": per_iter["optim.step"],
            "prototypes.update_ms": per_iter["prototypes.update"],
            "scheduler.css_ms": per_iter["scheduler.css"],
            "engine.self_ms": engine_self_ms,
            "checkpoint.save_ms": float(np.sum(saves)) * 1e3,
        }
        for op in REPORTED_OPS:
            metrics[f"tensor.op.{op}.fwd_ms"] = self.op_seconds[op] * 1e3 / iterations
        return metrics

    def span_records(self) -> list[dict]:
        return [vars(s) for s in self.spans if s is not None]
