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

While sub-sampling is active, the selected classifier columns are gathered
once into a (d, |set|) leaf of their own; the loss, its gradient and the
optimizer step see only that block, which is re-normalized onto the unit
sphere and scattered back once. One optimizer step per iteration with
decoupled weight decay; every gradient passes its finite check before any
parameter moves, so an abort leaves the last iteration boundary intact. A
log row is emitted per iteration and a checkpoint is written at the end (or
on abort). Identical config and seed reproduce the run bit for bit.
"""

from __future__ import annotations

import copy
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


class _LogWriter:
    def __init__(self, path: str | Path | None, append: bool):
        self._fh = None
        if path is not None:
            path = Path(path)
            fresh = not append or not path.exists() or path.stat().st_size == 0
            self._fh = open(path, "a" if append else "w")
            if fresh:
                self._fh.write(LOG_HEADER + "\n")

    def write(self, row: LogRow) -> None:
        if self._fh is not None:
            self._fh.write(row.to_csv() + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def _snapshot(
    encoder,
    bank: ClassifierBank,
    protos: PrototypeBank,
    opt: AdamW,
    state: StageState,
    rng_state: dict,
    config_mapping: dict[str, str],
) -> Checkpoint:
    return Checkpoint(
        encoder_arch=encoder.describe(),
        encoder_arrays={name: t.data.copy() for name, t in encoder.params()},
        classifier=bank.weight.data.copy(),
        prototypes=protos.E.copy(),
        prototypes_initialized=protos.initialized.copy(),
        optimizer_arrays={k: v.copy() for k, v in opt.state_arrays().items()},
        optimizer_counts=dict(opt.step_counts),
        stage=copy.copy(state),
        rng_state=copy.deepcopy(rng_state),
        config=dict(config_mapping),
    )


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
    exactly where it stopped and appends to ``log_path``; a fresh run
    overwrites it.
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

    if resume is None:
        rng = np.random.Generator(np.random.Philox(config.seed))
        encoder.init(rng)
        bank = ClassifierBank.init_random(encoder.embed_dim, dataset.num_classes, rng)
        protos = PrototypeBank(encoder.embed_dim, dataset.num_classes)
        opt = AdamW(config.beta1, config.beta2)
        state = StageState()
    else:
        if resume.encoder_arch != encoder.describe():
            raise ConfigError(
                "checkpoint encoder architecture does not match the provided encoder"
            )
        encoder.restore(resume.encoder_arrays)
        bank = ClassifierBank(weight=Tensor(resume.classifier.copy(), requires_grad=True))
        if bank.num_classes != dataset.num_classes:
            raise ConfigError(
                f"checkpoint has {bank.num_classes} classes, dataset has {dataset.num_classes}"
            )
        protos = PrototypeBank(bank.dim, bank.num_classes)
        protos.E = resume.prototypes.copy()
        protos.initialized = resume.prototypes_initialized.copy()
        opt = AdamW(config.beta1, config.beta2)
        opt.restore(resume.optimizer_arrays, resume.optimizer_counts)
        state = copy.copy(resume.stage)
        rng = np.random.Generator(np.random.Philox(config.seed))
        rng.bit_generator.state = copy.deepcopy(resume.rng_state)

    encoder_params = [(f"encoder.{name}", t) for name, t in encoder.params()]

    rows: list[LogRow] = []
    log = _LogWriter(log_path, append=resume is not None)
    # The stream at the boundary ``state.iteration`` names. An abort
    # checkpoint saves this, not the stream after the failed iteration's draws.
    rng_state = rng.bit_generator.state
    # The prototype columns and flags an uncounted iteration's fold overwrote,
    # put back before an abort checkpoint pairs them with ``rng_state``.
    folded = None
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
            bank.lay_out(class_major=sample_set is not None)
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
            stepped = [(name, t) for name, t in encoder_params if t.grad is not None]
            # No parameter moves before every gradient passed its finite check:
            # the encoder's here, the classifier's in its own step, which goes first.
            for name, t in stepped:
                opt.check_finite(name, t.grad)
            opt.step("classifier", bank.weight.data, leaf.grad, lr, config.weight_decay,
                     columns=ids, project=unit_columns)
            for name, t in stepped:
                opt.step(name, t.data, t.grad, lr, config.weight_decay, checked=True)
                t.zero_grad()
            bank.weight.zero_grad()

            state.iteration = it
            rng_state = rng.bit_generator.state
            folded = None
            step_scheduler(state, css, config.delta1, config.delta2, config.css_beta)
            row = LogRow(
                iteration=it,
                phase=phase.value,
                loss=loss.item(),
                css_raw=state.css_raw,
                css_smoothed=state.css_smoothed,
                lr=lr,
            )
            rows.append(row)
            log.write(row)
    except Exception:
        if folded is not None:
            seen, columns, flags = folded
            protos.E[:, seen] = columns
            protos.initialized[seen] = flags
        if checkpoint_path is not None:
            save_checkpoint(
                checkpoint_path,
                _snapshot(encoder, bank, protos, opt, state, rng_state, mapping),
            )
        raise
    finally:
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
