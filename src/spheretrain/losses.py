"""The angular-margin loss family over cosine logits.

Every loss here scores unit-norm feature rows against unit-norm columns
(class centers or prototypes) by their cosines. The whole family is one
autodiff node, ``tensor.margin_logsumexp``, over a list of parts. A part is
a block of columns, each row's label column among them and three margins;
the per-sample loss is

    loss_i = log(1 + sum over parts, sum_{j != y} exp(s*cos_j - s*positive_i))

with positive = cos(m1*theta_y + m2) - m3, the ArcFace combined-margin
softmax (arXiv:1801.07698): multiplicative on the angle, additive on the
angle, additive on the cosine. The node forms the clamped cosines, the
positive and the log-sum-exp over one buffer of all parts' exponents, with a
zero column standing for the leading 1, so a scale of s = 64 never
overflows; each row's label entry is set to -inf, which excludes it from the
sum. The alignment loss is one classifier part; the stabilization and
refinement losses add a prototype part. Batches are reduced by mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import NumericError, ShapeError
from .tensor import COSINE_CLAMP, Tensor

# Entries per column range of ``unit_columns`` (128 KB of float64).
_NORM_CHUNK_ENTRIES = 1 << 14


@dataclass
class ClassifierBank:
    """The d x C matrix of unit-norm class-center columns, as a trainable leaf.

    A trained weight is column-major (class-major) in every phase, from
    ``init_random`` to the checkpoint: a class's d values are contiguous (a
    weight passed in keeps its order). A dense step takes ``weight`` itself
    as its leaf. A sampled step's leaf is the only other one:
    ``sampler.gather_columns`` copies the selected columns once into a
    (d, |set|) leaf of their own. The loss, its gradient, the optimizer's
    moments and update, and ``unit_columns`` all work on blocks of that size
    and order, and ``AdamW.step(columns=ids)`` scatters the stepped block
    back once, so nothing the size of (d, C) is allocated or read and no
    gradient ever reaches ``weight`` in a sampled step.
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
        return cls(weight=Tensor(np.asfortranarray(w), requires_grad=True))

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @property
    def num_classes(self) -> int:
        return self.weight.shape[1]


def unit_columns(block: np.ndarray) -> None:
    """Rescale every column of ``block`` to unit norm, in place, over column
    ranges of about ``_NORM_CHUNK_ENTRIES`` entries, so no temporary is
    block-sized. No range is one lone column of several: numpy sums a lone
    C-order column in another order, so the whole-block norm would differ."""
    d, n = block.shape
    width = max(2, _NORM_CHUNK_ENTRIES // d)
    lo = 0
    while lo < n:
        hi = n if n - lo <= width + 1 else lo + width
        cols = block[:, lo:hi]
        cols /= np.linalg.norm(cols, axis=0, keepdims=True)
        lo = hi


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
    """Feature rows, the columns they are scored against and each row's label
    column: the operands of one loss part. The loss node forms the clamped
    cosines itself; ``values`` forms them as a constant, for inspection."""

    features: Tensor
    columns: Tensor
    label_column: np.ndarray = field(repr=False)

    @property
    def values(self) -> Tensor:
        """The clamped cosines (B x K) that the loss scores."""
        lo, hi = -1.0 + COSINE_CLAMP, 1.0 - COSINE_CLAMP
        return Tensor(np.clip(self.features.data @ self.columns.data, lo, hi))


def cosine_logits(features: Tensor, columns: Tensor, labels) -> CosineLogits:
    """The cosines between unit feature rows and unit center columns, with
    each row's label column, for a margin loss; gradients flow into both
    operands if they require grad. Shapes are checked by the loss node."""
    return CosineLogits(features, columns, np.asarray(labels, dtype=np.int64))


def softmax_ce_loss(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy of a raw-logit softmax at the label column."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ShapeError(f"label out of range for {logits.shape[1]} classes")
    lse = T.row_logsumexp(logits)
    pos = T.take_per_row(logits, labels)
    return T.reduce_mean(T.sub(lse, pos))


def margin_log_sum_exp(features: Tensor, parts: list[tuple], s: float) -> Tensor:
    """Per-sample ``tensor.margin_logsumexp`` over parts (columns, label
    column, m1, m2, m3), as a (B, 1) column.

    Raises ``NumericError`` naming the first sample whose loss is not finite.
    """
    per = T.margin_logsumexp(features, parts, s)
    bad = ~np.isfinite(per.data[:, 0])
    if bad.any():
        raise NumericError(f"non-finite loss for sample index {int(np.argmax(bad))}")
    return per


def unified_margin_loss(cos: CosineLogits, spec: MarginSpec) -> Tensor:
    """Batch-mean unified margin loss."""
    part = (cos.columns, cos.label_column, spec.m1, spec.m2, spec.m3)
    return T.reduce_mean(margin_log_sum_exp(cos.features, [part], spec.s))


def cosface_loss(cos: CosineLogits, s: float, m: float) -> Tensor:
    """Additive-cosine-margin specialization: logit s*(cos_y - m)."""
    return unified_margin_loss(cos, MarginSpec.cosface(s, m))
