"""The angular-margin loss family over cosine logits.

Every loss here operates on cosine similarities between unit-norm feature
rows and unit-norm columns (class centers or prototypes). All of them are
one primitive, ``margin_log_sum_exp``, over a list of parts. A part is a
pair ``(cosines, positive)``: a ``CosineLogits`` block with each row's label
column, and the margin-adjusted positive cosine of each row as a (B, 1)
column. The per-sample loss is

    loss_i = log(1 + sum over parts, sum_{j != y} exp(s*cos_j - s*positive_i))

which is the ArcFace combined-margin softmax (arXiv:1801.07698) when the
positive is cos(m1*theta_y + m2) - m3. Up to three margins penalize it:
multiplicative on the angle, additive on the angle, additive on the cosine
(``margin_positive``). The alignment loss is one classifier part; the
stabilization and refinement losses add a prototype part. Batches are
reduced by mean. The sum is one autodiff node, ``tensor.margin_logsumexp``:
a log-sum-exp over one buffer of all parts' exponents with a zero column
standing for the leading 1, so a scale of s = 64 never overflows. Each
row's label entry is set to -inf, which excludes it from the sum and gives
it exactly zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import Tensor

# Cosines are clamped this far inside [-1, 1] before any arccos so the
# derivative never blows up at the poles.
COSINE_CLAMP = 1e-7


@dataclass
class ClassifierBank:
    """The d x C matrix of unit-norm class-center columns, as a trainable leaf.

    The weight keeps its (d, C) shape in one of two memory orders, set by
    ``lay_out`` before each training step. A dense step multiplies the whole
    weight, and BLAS rounds differently on a column-major operand, so it
    runs on the row-major layout, with ``weight`` as the step's leaf and a
    (d, C) gradient. A sampled step runs on the class-major (column-major)
    layout, where a class's d values are contiguous. The training loop
    gathers the selected columns once, ``weight.data[:, ids]``, into a
    column-major (d, |set|) leaf of its own. The loss, its gradient, the
    optimizer's moments and update, and ``unit_columns`` all work on blocks
    of that size and order, and ``AdamW.step(columns=ids)`` scatters the
    stepped block back once, so nothing the size of (d, C) is allocated or
    read. ``loss_alignment`` and ``loss_stabilization`` called without such
    a block gather through ``tensor.gather_cols`` and leave a (d, C)
    gradient in ``weight.grad``; ``renormalize_columns`` restores unit norm
    after that step.
    """

    weight: Tensor

    def __post_init__(self):
        if self.weight.data.ndim != 2:
            raise ShapeError(f"classifier weight must be d x C, got {self.weight.shape}")
        if self.dim < 2 or self.num_classes < 2:
            raise ShapeError(
                f"need d >= 2 and C >= 2, got d={self.dim}, C={self.num_classes}"
            )

    @classmethod
    def init_random(cls, dim: int, num_classes: int, rng: np.random.Generator) -> "ClassifierBank":
        """Columns drawn uniform in [-1, 1) then scaled onto the unit sphere."""
        w = rng.uniform(-1.0, 1.0, size=(dim, num_classes))
        w /= np.linalg.norm(w, axis=0, keepdims=True)
        return cls(weight=Tensor(w, requires_grad=True))

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @property
    def num_classes(self) -> int:
        return self.weight.shape[1]

    def lay_out(self, class_major: bool) -> None:
        """Store the weight column-major if ``class_major``, else row-major.

        A no-op when it is already so; otherwise one copy, replacing
        ``weight.data``.
        """
        w = self.weight.data
        if class_major and not w.flags.f_contiguous:
            self.weight.data = np.asfortranarray(w)
        elif not class_major and not w.flags.c_contiguous:
            self.weight.data = np.ascontiguousarray(w)

    def renormalize_columns(self, ids=None) -> None:
        """Rescale columns back to unit norm, touching only ``ids`` if given."""
        w = self.weight.data
        if ids is None:
            unit_columns(w)
        else:
            idx = np.asarray(ids, dtype=np.int64)
            block = w[:, idx]
            unit_columns(block)
            w[:, idx] = block


def unit_columns(block: np.ndarray) -> None:
    """Rescale every column of ``block`` to unit norm, in place."""
    block /= np.linalg.norm(block, axis=0, keepdims=True)


@dataclass(frozen=True)
class MarginSpec:
    """Margin hyper-parameters (s, m1, m2, m3) for the unified loss."""

    s: float
    m1: float = 1.0
    m2: float = 0.0
    m3: float = 0.0

    def __post_init__(self):
        if self.s <= 0:
            raise ShapeError(f"scale must be positive, got {self.s}")
        if self.m1 < 1.0 or self.m2 < 0.0 or self.m3 < 0.0:
            raise ShapeError(f"margins out of range: {self}")

    @classmethod
    def plain(cls, s: float) -> "MarginSpec":
        return cls(s=s)

    @classmethod
    def cosface(cls, s: float, m: float) -> "MarginSpec":
        return cls(s=s, m3=m)

    @classmethod
    def arcface(cls, s: float, m: float) -> "MarginSpec":
        return cls(s=s, m2=m)

    @classmethod
    def sphereface(cls, s: float, m: float) -> "MarginSpec":
        return cls(s=s, m1=m)


@dataclass
class CosineLogits:
    """Clamped cosine similarities (B x K) plus the positive column per row."""

    values: Tensor
    label_column: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = np.asarray(self.label_column, dtype=np.int64)
        rows, cols = self.values.shape
        if labels.shape != (rows,):
            raise ShapeError(f"need one label per row, got {labels.shape} for {rows} rows")
        if labels.size and (labels.min() < 0 or labels.max() >= cols):
            raise ShapeError(f"label column out of range for {cols} columns")
        self.label_column = labels


def cosine_logits(features: Tensor, columns: Tensor, labels) -> CosineLogits:
    """Dot products between unit feature rows and unit center columns.

    Entries are clamped to +-(1 - 1e-7) so downstream arccos stays
    differentiable. Gradients flow into both operands if they require grad.
    """
    if features.data.ndim != 2 or columns.data.ndim != 2:
        raise ShapeError(
            f"need rank-2 features and columns, got {features.shape} and {columns.shape}"
        )
    if features.shape[1] != columns.shape[0]:
        raise ShapeError(
            f"feature dim {features.shape[1]} does not match column dim {columns.shape[0]}"
        )
    raw = T.matmul(features, columns)
    clamped = T.clip(raw, -1.0 + COSINE_CLAMP, 1.0 - COSINE_CLAMP)
    return CosineLogits(values=clamped, label_column=labels)


def softmax_ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of a raw-logit softmax at the label column."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ShapeError(f"label out of range for {logits.shape[1]} classes")
    lse = T.row_logsumexp(logits)
    pos = T.take_per_row(logits, labels)
    return T.reduce_mean(T.sub(lse, pos))


def margin_positive(cos: CosineLogits, spec: MarginSpec) -> Tensor:
    """The positive cosine with the margins applied, cos(m1*theta_y + m2) - m3,
    as a (B, 1) column."""
    pos = T.take_per_row(cos.values, cos.label_column)
    if spec.m1 != 1.0 or spec.m2 != 0.0:
        theta = T.arccos(pos)
        angle = T.clip(T.add(T.scale(theta, spec.m1), spec.m2), 0.0, np.pi)
        pos = T.cos(angle)
    if spec.m3 != 0.0:
        pos = T.add(pos, -spec.m3)
    return pos


def margin_log_sum_exp(parts: list[tuple[CosineLogits, Tensor]], s: float) -> Tensor:
    """Per-sample log(1 + sum of exp(s*cos_j - s*positive)) over every part's
    columns except its label column, as a (B, 1) column.

    Raises ``NumericError`` naming the first sample whose loss is not finite.
    """
    per = T.margin_logsumexp([(cos.values, cos.label_column, pos) for cos, pos in parts], s)
    bad = ~np.isfinite(per.data[:, 0])
    if bad.any():
        raise NumericError(f"non-finite loss for sample index {int(np.argmax(bad))}")
    return per


def unified_margin_loss(cos: CosineLogits, spec: MarginSpec) -> Tensor:
    """Batch-mean unified margin loss."""
    return T.reduce_mean(margin_log_sum_exp([(cos, margin_positive(cos, spec))], spec.s))


def cosface_loss(cos: CosineLogits, s: float, m: float) -> Tensor:
    """Additive-cosine-margin specialization: logit s*(cos_y - m)."""
    return unified_margin_loss(cos, MarginSpec.cosface(s, m))
