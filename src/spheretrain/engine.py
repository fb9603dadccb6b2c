"""The staged training loop.

Training proceeds through three phases governed by the scheduler. Each
phase's loss is one ``losses.margin_log_sum_exp`` over (cosines, positive)
parts:

* alignment: one part, the cosines to a sampled class subset with positive
  cos_y - m. Every batch positive is kept; negatives are a uniform sample of
  ratio r.
* stabilization: that part with margin m1, plus the cosines to the initialized
  per-class prototypes among the sampled classes, positive cos(e_y) - m2.
  Prototypes fold in the current batch's features (forward-pass values,
  before the optimizer step) ahead of the loss, so every batch positive is
  initialized by the time it is read.
* refinement: both parts over all C classes; sub-sampling is off. The
  prototype part is restricted to classes that have actually been seen.

The classifier, its AdamW moments and the prototype bank stay column-major
(class-major) in every phase and through a resume. While sub-sampling is
active, the selected classifier columns are gathered once into a
(d, |set|) leaf of their own; the loss, its gradient and the
optimizer step see only that block, which is re-normalized onto the unit
sphere and scattered back once. The encoder's parameters are views into one
flat arena (see ``encoders``), so each iteration makes two AdamW steps with
decoupled weight decay, the classifier's and one over the whole encoder,
then zero-fills the arena's gradient. Every gradient passes its finite check
before any parameter moves, so an abort leaves the last iteration boundary
intact; a non-finite encoder gradient is named by parameter and index. A
log row is emitted per iteration and a checkpoint is written at the end (or
on abort, Ctrl-C too; an abort after an iteration has counted itself writes
that iteration's row first, so the log and the checkpoint agree). Identical config and seed reproduce the run bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sampler as ncs
from . import tensor as T
from .checkpoint import Checkpoint, save_checkpoint
from .config import TrainConfig
from .data import Dataset
from .errors import ConfigError, ShapeError
from .losses import (
    ClassifierBank,
    MarginSpec,
    cosface_loss,
    cosine_logits,
    margin_log_sum_exp,
    margin_positive,
    unit_columns,
)
from .optim import AdamW
from .prototypes import PrototypeBank
from .sampler import SampleSet
from .scheduler import Phase, StageState, css_score, step_scheduler
from .tensor import Tensor

LOG_HEADER = "iteration,phase,loss,css_raw,css_smoothed,lr"


@dataclass
class LogRow:
    iteration: int
    phase: str
    loss: float
    css_raw: float
    css_smoothed: float
    lr: float

    def to_csv(self) -> str:
        return (
            f"{self.iteration},{self.phase},{self.loss!r},"
            f"{self.css_raw!r},{self.css_smoothed!r},{self.lr!r}"
        )


def loss_alignment(
    features: Tensor,
    labels: np.ndarray,
    bank: ClassifierBank,
    sample_set: SampleSet,
    s: float,
    m: float,
    columns: Tensor | None = None,
) -> Tensor:
    """Cosine-margin loss over the sampled columns only, batch mean.

    ``columns`` is the (d, |set|) block of the sampled columns to score, as
    the training loop gathers it; by default they are gathered from the
    bank, and the gradient lands in ``bank.weight.grad``.
    """
    columns = _sampled_columns(bank, sample_set, columns)
    local = sample_set.local_labels(labels)
    return cosface_loss(cosine_logits(features, columns, local), s, m)


def _sampled_columns(bank: ClassifierBank, sample_set: SampleSet, columns) -> Tensor:
    if columns is None:
        return ncs.gather_columns(bank, sample_set)
    if columns.shape != (bank.dim, sample_set.size):
        raise ShapeError(f"need a ({bank.dim}, {sample_set.size}) block of sampled columns, "
                         f"got {columns.shape}")
    return columns


def _classifier_and_prototype_loss(
    features: Tensor,
    labels: np.ndarray,
    columns: Tensor,
    class_ids: np.ndarray,
    prototype_bank: PrototypeBank,
    s: float,
    m1: float,
    m2: float,
) -> Tensor:
    """Classifier part over ``columns`` (the classes ``class_ids``) with margin
    m1 plus a prototype part over the initialized ones among them with margin
    m2, batch mean."""
    ids = prototype_bank.initialized_ids(class_ids)
    parts = []
    for cols, col_ids, m, where in (
        (columns, class_ids, m1, "the classifier columns"),
        (prototype_bank.columns(ids), ids, m2, "the initialized prototypes"),
    ):
        local = ncs.local_columns(col_ids, labels, prototype_bank.num_classes, where)
        cos = cosine_logits(features, cols, local)
        parts.append((cos, margin_positive(cos, MarginSpec.cosface(s, m))))
    return T.reduce_mean(margin_log_sum_exp(parts, s))


def loss_stabilization(
    features: Tensor,
    labels: np.ndarray,
    bank: ClassifierBank,
    prototype_bank: PrototypeBank,
    sample_set: SampleSet,
    s: float,
    m1: float,
    m2: float,
    columns: Tensor | None = None,
) -> Tensor:
    """Sampled classifier term with margin m1 plus a prototype term with
    margin m2 over the initialized part of the same column subset.
    ``columns`` is as for ``loss_alignment``."""
    return _classifier_and_prototype_loss(
        features, labels, _sampled_columns(bank, sample_set, columns), sample_set.global_ids,
        prototype_bank, s, m1, m2,
    )


def loss_refinement(
    features: Tensor,
    labels: np.ndarray,
    bank: ClassifierBank,
    prototype_bank: PrototypeBank,
    s: float,
    m1: float,
    m2: float,
) -> Tensor:
    """Stabilization form with the class sums over all C classes."""
    return _classifier_and_prototype_loss(
        features, labels, bank.weight, np.arange(bank.num_classes), prototype_bank, s, m1, m2
    )


def _open_log(path: str | Path, keep: int | None):
    """The CSV log, cut back to its header and first ``keep`` rows, the
    iterations a resumed checkpoint has done; to nothing if ``keep`` is None."""
    fh = open(path, "a+b")  # bytes: a row that is not UTF-8 is kept or cut, never decoded
    fh.seek(0)
    for _ in range(0 if keep is None else 1 + keep):
        fh.readline()
    if fh.truncate(fh.tell()) == 0:  # nothing kept
        fh.write(f"{LOG_HEADER}\n".encode())
    return fh


def _snapshot(
    encoder,
    bank: ClassifierBank,
    protos: PrototypeBank,
    opt: AdamW,
    state: StageState,
    rng_state: dict,
    config_mapping: dict[str, str],
) -> Checkpoint:
    """The run's state as a checkpoint of its live arrays. Only the encoder's
    are copied: they are views into the arena of an encoder that outlives
    ``train``."""
    return Checkpoint(
        encoder_arch=encoder.describe(),
        encoder_arrays={name: t.data.copy() for name, t in encoder.params()},
        classifier=bank.weight.data,
        prototypes=protos.E,
        prototypes_initialized=protos.initialized,
        optimizer_arrays=opt.state_arrays(),
        optimizer_counts=dict(opt.step_counts),
        stage=state,
        rng_state=rng_state,
        config=config_mapping,
    )


def _check_resume_state(resume: Checkpoint, encoder, num_classes: int) -> None:
    """Raise ``ConfigError`` unless the checkpoint's classifier, prototypes
    and optimizer state have the shapes of this encoder and dataset, with
    one moment pair per step count."""
    d = encoder.embed_dim
    for what, arr, shape in (("classifier", resume.classifier, (d, num_classes)),
                             ("prototypes", resume.prototypes, (d, num_classes)),
                             ("prototype flags", resume.prototypes_initialized, (num_classes,))):
        if arr.shape != shape:
            raise ConfigError(f"checkpoint {what} have shape {arr.shape}; this encoder and "
                              f"dataset need {shape}")
    params = {"classifier": (d, num_classes), "encoder": (encoder.num_params(),)}
    counted = sorted(resume.optimizer_counts)
    moments = {f"{name}.{k}" for name in counted for k in "mv"}
    if moments != set(resume.optimizer_arrays):
        raise ConfigError(f"checkpoint optimizer moments {sorted(resume.optimizer_arrays)} "
                          f"do not pair with its step counts {counted}")
    for name in counted:
        if name not in params:
            raise ConfigError(f"checkpoint optimizer state for unknown parameter {name!r}")
        for key in (f"{name}.m", f"{name}.v"):
            if resume.optimizer_arrays[key].shape != params[name]:
                raise ConfigError(f"checkpoint optimizer moment {key!r} has shape "
                                  f"{resume.optimizer_arrays[key].shape}, expected {params[name]}")


def train(
    config: TrainConfig,
    dataset: Dataset,
    encoder,
    log_path: str | Path | None = None,
    checkpoint_path: str | Path | None = None,
    resume: Checkpoint | None = None,
    config_mapping: dict[str, str] | None = None,
) -> tuple[Checkpoint, list[LogRow]]:
    """Run the three-stage loop to ``config.max_iterations``.

    A fresh run draws encoder weights, then classifier columns, from a
    Philox stream seeded with ``config.seed``; batches and negative samples
    come from the same stream afterwards, which is what makes a run a pure
    function of (config, dataset). Passing ``resume`` continues a checkpoint
    exactly where it stopped and writes ``log_path`` on from the row it
    stopped at; a fresh run overwrites it. The returned checkpoint holds the
    run's final arrays themselves, not copies (the encoder's excepted), and is
    the one saved to ``checkpoint_path``.
    """
    config.validate()
    n = dataset.size
    if n == 0:
        raise ConfigError("dataset is empty")
    for it in (1, config.max_iterations):
        if config.batch_size_at(it) > n:
            raise ConfigError(
                f"batch size {config.batch_size_at(it)} exceeds dataset size {n}"
            )
    mapping = dict(config_mapping) if config_mapping is not None else config.to_mapping()

    rng = np.random.Generator(np.random.Philox(config.seed))
    protos = PrototypeBank(encoder.embed_dim, dataset.num_classes)
    opt = AdamW(config.beta1, config.beta2)
    if resume is None:
        encoder.init(rng)
        bank = ClassifierBank.init_random(encoder.embed_dim, dataset.num_classes, rng)
        state = StageState()
    else:
        if resume.encoder_arch != encoder.describe():
            raise ConfigError(
                "checkpoint encoder architecture does not match the provided encoder"
            )
        _check_resume_state(resume, encoder, dataset.num_classes)
        encoder.restore(resume.encoder_arrays)
        bank = ClassifierBank(Tensor(np.array(resume.classifier, order="F"), requires_grad=True))
        protos.E[...] = resume.prototypes
        protos.initialized[...] = resume.prototypes_initialized
        opt.restore(resume.optimizer_arrays, resume.optimizer_counts)
        state = copy.copy(resume.stage)
        rng.bit_generator.state = resume.rng_state

    arena = encoder.arena

    rows: list[LogRow] = []
    log = None if log_path is None else _open_log(
        log_path, keep=None if resume is None else state.iteration)
    # The stream at the boundary ``state.iteration`` names. An abort
    # checkpoint saves this, not the stream after the failed iteration's draws.
    rng_state = rng.bit_generator.state
    # The prototype columns and flags an uncounted iteration's fold overwrote,
    # put back before an abort checkpoint pairs them with ``rng_state``.
    folded = None
    moving = False  # True while an interrupt would leave no intact boundary
    # The (phase, loss, lr) of the counted iteration whose row is not yet written.
    unlogged = None

    def log_row(phase: Phase, loss: float, lr: float) -> LogRow:
        row = LogRow(state.iteration, phase.value, loss, state.css_raw, state.css_smoothed, lr)
        if log is not None:
            log.write(f"{row.to_csv()}\n".encode())
            log.flush()
        return row

    try:
        for it in range(state.iteration + 1, config.max_iterations + 1):
            batch_idx = rng.choice(n, size=config.batch_size_at(it), replace=False)
            batch_labels = dataset.labels[batch_idx]
            features = encoder.forward(dataset.inputs[batch_idx])
            phase = state.phase

            sample_set = ids = None
            if phase is not Phase.REFINEMENT:
                sample_set = ncs.sample(dataset.num_classes, config.r, batch_labels, rng)
                ids = sample_set.global_ids
            # A sampled step's leaf is its own (d, |set|) class-major block.
            leaf = (bank.weight if ids is None
                    else Tensor(bank.weight.data[:, ids], requires_grad=True))
            if phase is not Phase.ALIGNMENT:
                seen = np.unique(batch_labels)
                folded = (seen, protos.E[:, seen], protos.initialized[seen])
                protos.batch_update(batch_labels, features.data)

            if phase is Phase.ALIGNMENT:
                loss = loss_alignment(
                    features, batch_labels, bank, sample_set, config.s, config.m, leaf
                )
            elif phase is Phase.STABILIZATION:
                loss = loss_stabilization(
                    features, batch_labels, bank, protos, sample_set,
                    config.s, config.m1, config.m2, leaf,
                )
            else:
                loss = loss_refinement(
                    features, batch_labels, bank, protos, config.s, config.m1, config.m2
                )

            css = css_score(features.data, bank.weight.data, batch_labels)
            loss.backward()
            lr = config.lr_at(it)
            # No parameter moves before every gradient passed its finite check:
            # the encoder's here, the classifier's in its own step, which goes first.
            if not math.isfinite(arena.grad.sum()):  # only a failure walks the views
                for name, t in encoder.params():
                    opt.check_finite(f"encoder.{name}", t.grad)
            moving = True  # a step raises any Exception before it moves anything
            opt.step("classifier", bank.weight.data, leaf.grad, lr, config.weight_decay,
                     columns=ids, project=unit_columns)
            opt.step("encoder", arena.data, arena.grad, lr, config.weight_decay)
            arena.grad.fill(0.0)
            bank.weight.zero_grad()

            state.iteration = it
            rng_state = rng.bit_generator.state
            folded = None
            unlogged = (phase, loss.item(), lr)
            step_scheduler(state, css, config.delta1, config.delta2, config.css_beta)
            moving = False
            rows.append(log_row(*unlogged))
            unlogged = None
    except BaseException as exc:  # Ctrl-C too: save the boundary, then re-raise
        if folded is not None:
            seen, columns, flags = folded
            protos.E[:, seen] = columns
            protos.initialized[seen] = flags
        intact = isinstance(exc, Exception) or not moving
        if intact and unlogged is not None:  # the checkpoint's state has counted this row
            log_row(*unlogged)
        if checkpoint_path is not None and intact:
            save_checkpoint(
                checkpoint_path,
                _snapshot(encoder, bank, protos, opt, state, rng_state, mapping),
            )
        raise
    finally:
        if log is not None:
            log.close()

    ckpt = _snapshot(encoder, bank, protos, opt, state, rng_state, mapping)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, ckpt)
    return ckpt, rows


def embed_dataset(encoder, inputs: np.ndarray, batch_size: int = 64) -> np.ndarray:
    """Forward a whole input collection in chunks, returning float64 rows."""
    chunks = []
    for lo in range(0, len(inputs), batch_size):
        chunks.append(encoder.forward(inputs[lo : lo + batch_size]).data.copy())
    return np.concatenate(chunks, axis=0)
