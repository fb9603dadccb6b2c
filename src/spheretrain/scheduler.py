"""Stage automaton driven by feature-to-center cosine alignment.

Training moves through three phases, alignment -> stabilization ->
refinement, and never backward. The transition signal is the batch mean of
the squared cosine between each feature and its own class column, smoothed
with an exponential moving average so one noisy batch cannot fire a
transition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError


class Phase(enum.Enum):
    ALIGNMENT = "alignment"
    STABILIZATION = "stabilization"
    REFINEMENT = "refinement"


@dataclass
class StageState:
    """Current phase plus the raw and smoothed alignment scores."""

    phase: Phase = Phase.ALIGNMENT
    css_raw: float = 0.0
    css_smoothed: float | None = None
    iteration: int = 0


def css_score(features: np.ndarray, class_weights: np.ndarray, labels) -> float:
    """Mean squared cosine between each feature and its own class column.

    Both sides are normalized before the dot product, so the score always
    lands in [0, 1]. This is a pure statistic; no gradient flows through it.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] == 0:
        raise DomainError("css_score needs a nonempty batch of feature rows")
    if labels.shape != (features.shape[0],):
        raise ShapeError(f"{labels.shape} labels for {features.shape[0]} features")
    feat = features / np.linalg.norm(features, axis=1, keepdims=True)
    cols = class_weights[:, labels]
    cols = cols / np.linalg.norm(cols, axis=0, keepdims=True)
    cosines = np.einsum("ij,ji->i", feat, cols)
    return float(np.clip(np.mean(cosines * cosines), 0.0, 1.0))


def step_scheduler(
    state: StageState,
    score: float,
    delta1: float,
    delta2: float,
    beta: float,
) -> StageState:
    """Fold one batch score into the EMA and advance at most one phase.

    The EMA initializes to the first observed score. Alignment leaves for
    stabilization once the smoothed score reaches delta1, stabilization
    leaves for refinement at delta2, and refinement is terminal.
    """
    if state.css_smoothed is None:
        smoothed = float(score)
    else:
        smoothed = beta * state.css_smoothed + (1.0 - beta) * float(score)
    state.css_raw = float(score)
    state.css_smoothed = smoothed
    if state.phase is Phase.ALIGNMENT and smoothed >= delta1:
        state.phase = Phase.STABILIZATION
    elif state.phase is Phase.STABILIZATION and smoothed >= delta2:
        state.phase = Phase.REFINEMENT
    return state
