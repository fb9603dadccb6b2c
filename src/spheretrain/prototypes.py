"""Per-class feature-expectation prototypes.

Each class keeps a unit-norm running estimate of its feature direction,
updated with an adaptive coefficient: the closer an incoming feature already
is to the prototype, the more of the old prototype survives. Prototypes are
statistics, not parameters; no gradient ever reaches them.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError, StateError
from .tensor import Tensor

_UNIT_TOLERANCE = 1e-6


def _logistic(z: float) -> float:
    return 1.0 / (1.0 + np.exp(-z))


class PrototypeBank:
    """d x C column-major matrix of prototypes with per-class initialized flags.

    The mixing coefficient is alpha = sigma(<e, x>) with sigma the logistic
    function, which keeps every update a proper convex combination before
    re-normalization. Uninitialized columns are never read.
    """

    def __init__(self, dim: int, num_classes: int):
        if dim < 2 or num_classes < 1:
            raise ShapeError(f"need dim >= 2 and at least one class, got {dim}, {num_classes}")
        self.E = np.zeros((dim, num_classes), dtype=np.float64, order="F")
        self.initialized = np.zeros(num_classes, dtype=bool)

    @property
    def dim(self) -> int:
        return self.E.shape[0]

    @property
    def num_classes(self) -> int:
        return self.E.shape[1]

    def update(self, class_id: int, x: np.ndarray) -> None:
        """Fold one unit feature into the class prototype.

        First sight of a class copies the feature verbatim. Otherwise
        e <- e + (1 - alpha) * (x - e), re-normalized; written in delta form
        so a repeated identical feature is a bit-exact fixed point.
        """
        if not 0 <= class_id < self.num_classes:
            raise StateError(f"class id {class_id} out of range for {self.num_classes} classes")
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.dim:
            raise ShapeError(f"feature dim {x.shape[0]} does not match bank dim {self.dim}")
        if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOLERANCE:
            raise DomainError("prototype updates require unit-norm features")
        if not self.initialized[class_id]:
            self.E[:, class_id] = x
            self.initialized[class_id] = True
            return
        e = self.E[:, class_id]
        delta = x - e
        if delta.any():
            alpha = _logistic(float(e @ x))
            e = e + (1.0 - alpha) * delta
            e /= np.linalg.norm(e)
            self.E[:, class_id] = e

    def batch_update(self, labels, features: np.ndarray) -> None:
        """Apply ``update`` sample by sample in within-batch order.

        Repeated labels fold in repeatedly; the result depends on sample
        order, which is part of the contract.
        """
        labels = np.asarray(labels, dtype=np.int64)
        features = np.asarray(features, dtype=np.float64)
        if labels.shape[0] != features.shape[0]:
            raise ShapeError(
                f"{labels.shape[0]} labels for {features.shape[0]} features"
            )
        for label, row in zip(labels, features):
            self.update(int(label), row)

    def initialized_ids(self, ids=None) -> np.ndarray:
        """The subset of ``ids`` (default: all classes) that is initialized."""
        if ids is None:
            ids = np.arange(self.num_classes)
        ids = np.asarray(ids, dtype=np.int64)
        return ids[self.initialized[ids]]

    def columns(self, class_ids) -> Tensor:
        """The selected prototype columns as a d x k graph constant, so a
        loss over them sends gradient to the features only. Querying an
        uninitialized class is an error.
        """
        ids = np.asarray(class_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_classes):
            raise StateError(f"class id out of range for {self.num_classes} classes")
        missing = ids[~self.initialized[ids]]
        if missing.size:
            raise StateError(f"prototype for class {int(missing[0])} is not initialized")
        return Tensor(self.E[:, ids])
