"""Negative class sub-sampling for the classifier columns.

Each iteration keeps every class that appears in the batch and fills the
remaining slots with a uniform sample (without replacement) of the other
classes, for a target size of max(1, round(C * r)). ``gather_columns``
copies the selected classifier columns into a (d, |set|) leaf of their own,
the one column-restricted block a training step takes its loss, gradient and
optimizer step on (``AdamW.step(columns=...)`` scatters it back), so every
other column stays bit-identical through the step.

The negatives are drawn as ranks among the non-positive classes, so no
array of all C ids is built: a draw costs O(|set| + P log P) for P
positives, and takes the same ids and leaves the same rng state as drawing
from the explicit candidate list would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError, StateError
from .losses import ClassifierBank
from .tensor import Tensor


def local_columns(ids: np.ndarray, labels, where: str) -> np.ndarray:
    """Map global labels to their positions in ``ids``, which must be sorted
    and distinct (a sample set's ids are, and so is any subset of them in
    order); a label that is not in ``ids`` is a ``StateError`` saying it is
    missing from ``where``."""
    labels = np.asarray(labels, dtype=np.int64)
    local = np.searchsorted(ids, labels)
    hit = local < ids.size
    hit[hit] = ids[local[hit]] == labels[hit]
    if not hit.all():
        missing = int(labels[np.argmin(hit)])
        raise StateError(f"positive class {missing} is missing from {where}")
    return local


@dataclass
class SampleSet:
    """Sorted selected class ids out of ``num_classes``."""

    global_ids: np.ndarray
    num_classes: int

    def __post_init__(self):
        ids = np.sort(np.asarray(self.global_ids, dtype=np.int64))
        if ids.size == 0:
            raise ShapeError("a sample set cannot be empty")
        if (np.diff(ids) == 0).any():
            raise ShapeError("duplicate class ids in sample set")
        self.global_ids = ids

    @property
    def size(self) -> int:
        return int(self.global_ids.size)

    def local_labels(self, labels) -> np.ndarray:
        """Map global batch labels to local column indices within the set."""
        return local_columns(self.global_ids, labels, "the sample set")


def sample(num_classes: int, r: float, batch_labels, rng: np.random.Generator) -> SampleSet:
    """Draw the per-iteration class subset.

    The target size is max(1, round(C * r)); if the batch has more distinct
    positives than that, the set grows to keep them all. r = 1 returns every
    class in order.

    The negatives are ``rng.choice(C - P, extra, replace=False)`` ranks k
    among the C - P non-positive classes. The k-th non-positive id is k plus
    the number of positives p_i with p_i - i <= k (p_i - i counts the
    non-positives below p_i). numpy draws an index into a candidate array in
    just this way, so the ids and the rng state afterwards are those of
    ``rng.choice(setdiff1d(arange(C), positives), extra, replace=False)``.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError(f"sampling ratio must lie in (0, 1], got {r}")
    labels = np.asarray(batch_labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(f"label out of range for {num_classes} classes")
    if r == 1.0:
        return SampleSet(global_ids=np.arange(num_classes, dtype=np.int64), num_classes=num_classes)
    positives = np.unique(labels)
    target = max(1, round(num_classes * r))
    extra = target - positives.size
    if extra > 0:
        ranks = rng.choice(num_classes - positives.size, size=extra, replace=False)
        gaps = positives - np.arange(positives.size)
        ids = np.concatenate([positives, ranks + np.searchsorted(gaps, ranks, side="right")])
    else:
        ids = positives
    return SampleSet(global_ids=ids, num_classes=num_classes)


def gather_columns(bank: ClassifierBank, sample_set: SampleSet) -> Tensor:
    """The selected classifier columns, copied into a (d x |set|) leaf of
    their own whose gradient is the block ``AdamW.step(columns=...)`` takes."""
    if sample_set.num_classes != bank.num_classes:
        raise ShapeError(
            f"sample set built for {sample_set.num_classes} classes, bank has {bank.num_classes}"
        )
    return Tensor(bank.weight.data[:, sample_set.global_ids], requires_grad=True)
