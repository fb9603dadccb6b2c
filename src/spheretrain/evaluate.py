"""Verification metrics and cluster statistics for embedding sets.

A protocol is a ``PairSet`` of index and match-flag arrays; pairs are scored
by cosine similarity. The ROC sweeps the distinct impostor scores from the
largest down. At score v, FAR is the share of impostors >= v (ties accept)
and TAR the share of genuine scores >= v, counted with one sort of the
genuine scores and one ``searchsorted``. A first point at FAR 0 sits just
above the largest impostor score and accepts only strictly larger genuine
scores. FAR rises strictly along the sweep, so ``tar_at_far`` reads the TAR
of the last point whose FAR does not exceed the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, DomainError, ProtocolError, ShapeError


@dataclass(frozen=True)
class PairSet:
    """Verification pairs as three read-only rows: sample indices ``index_a``
    and ``index_b`` (int64) and ``is_match`` (bool)."""

    index_a: np.ndarray
    index_b: np.ndarray
    is_match: np.ndarray

    def __post_init__(self):
        for name, dtype in (("index_a", np.int64), ("index_b", np.int64), ("is_match", bool)):
            row = np.array(getattr(self, name), dtype=dtype)
            row.setflags(write=False)
            object.__setattr__(self, name, row)
        a, b = self.index_a, self.index_b
        if a.ndim != 1 or not a.shape == b.shape == self.is_match.shape:
            raise ShapeError(f"pair rows of shapes {a.shape}, {b.shape}, {self.is_match.shape}")
        if np.any((a == b) | (a < 0) | (b < 0)):
            raise ShapeError("a pair needs two distinct nonnegative sample indices")

    def __len__(self) -> int:
        return self.is_match.size


@dataclass
class VerificationReport:
    roc: list[tuple[float, float]]
    tar_at: dict[float, float]
    intra_mean_cos: float
    inter_mean_cos: float
    sample_count: int


def _unit_rows(features: np.ndarray) -> np.ndarray:
    """Each row scaled to unit norm; a zero row has no direction, so it is a
    ``DegenerateInputError`` naming the first one."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    if zero.any():
        raise DegenerateInputError(f"embedding row {int(np.argmax(zero))} is zero")
    return features / norms


def _roc(scores: np.ndarray, is_match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(FAR, TAR) arrays of the sweep in the module docstring."""
    scores = np.asarray(scores, dtype=np.float64)
    is_match = np.asarray(is_match, dtype=bool)
    if scores.shape != is_match.shape:
        raise ShapeError(f"{scores.shape} scores for {is_match.shape} match flags")
    genuine, impostor = scores[is_match], scores[~is_match]
    if impostor.size == 0:
        raise ProtocolError("protocol has no impostor pairs")
    if genuine.size == 0:
        raise ProtocolError("protocol has no genuine pairs")
    ranked = np.sort(genuine[~np.isnan(genuine)])  # a NaN score is never accepted
    values, counts = np.unique(impostor, return_counts=True)
    below = np.r_[np.searchsorted(ranked, values[-1], "right"),
                  np.searchsorted(ranked, values[::-1])]
    far = np.r_[0, np.cumsum(counts[::-1])] / impostor.size
    return far, (ranked.size - below) / genuine.size


def _tar_at(fars: np.ndarray, tars: np.ndarray, far: float) -> float:
    if not 0.0 < far < 1.0:
        raise DomainError(f"far must lie in (0, 1), got {far}")
    return float(tars[np.searchsorted(fars, far, "right") - 1])


def tar_at_far(scores: np.ndarray, is_match: np.ndarray, far: float) -> float:
    """True-accept rate at the largest operating point whose false-accept
    rate stays at or below ``far``."""
    return _tar_at(*_roc(scores, is_match), far)


def roc_points(scores: np.ndarray, is_match: np.ndarray) -> list[tuple[float, float]]:
    """(FAR, TAR) pairs swept over the distinct impostor scores, FAR strictly
    increasing, starting at the zero-false-accept operating point."""
    return list(zip(*(a.tolist() for a in _roc(scores, is_match))))


def cluster_stats(features: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """(intra, inter) mean cosines: all same-class sample pairs pooled, and
    all normalized class-centroid pairs."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ShapeError(f"{features.shape} features for {labels.shape} labels")
    feat = _unit_rows(features)
    classes = np.unique(labels)
    if classes.size < 2:
        raise DegenerateInputError("cluster statistics need at least two classes")
    intra_sum, intra_count, centroids = 0.0, 0, []
    for cls in classes:
        block = feat[labels == cls]
        mean = block.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < 1e-12:
            raise DegenerateInputError(f"class {int(cls)} has a zero mean direction")
        centroids.append(mean / norm)
        if block.shape[0] >= 2:
            gram = block @ block.T
            iu = np.triu_indices(block.shape[0], k=1)
            intra_sum += float(gram[iu].sum())
            intra_count += iu[0].size
    if intra_count == 0:
        raise DegenerateInputError("no class has two or more samples")
    centroids = np.stack(centroids)
    cg = centroids @ centroids.T
    iu = np.triu_indices(classes.size, k=1)
    return intra_sum / intra_count, float(cg[iu].mean())


@dataclass
class AngularProjection:
    """Cosine distances of every sample to two fixed unit reference
    directions; coordinates live in [0, 2]."""

    references: np.ndarray
    points: np.ndarray = field(repr=False)  # columns: coord1, coord2, label


def _pca_references(features: np.ndarray) -> np.ndarray:
    _, svals, vt = np.linalg.svd(features, full_matrices=False)
    if vt.shape[0] < 2 or svals[1] <= 1e-10 * max(svals[0], 1e-300):
        raise DomainError("feature set is rank-deficient; cannot pick two directions")
    refs = vt[:2]
    lead = refs[np.arange(2), np.argmax(np.abs(refs), axis=1)]
    return refs * np.where(lead < 0, -1.0, 1.0)[:, None]  # exact sign flips


def angular_projection(
    features: np.ndarray, labels: np.ndarray, ref_policy: str = "pca"
) -> AngularProjection:
    """Project each sample to (1 - cos(x, ref1), 1 - cos(x, ref2)).

    ``pca`` picks the two leading principal directions of the feature matrix
    (orthonormal, deterministic sign); ``axes`` uses the first two standard
    basis vectors for cross-run comparability.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if features.ndim != 2 or features.shape[1] < 2:
        raise ShapeError(f"need rank-2 features with d >= 2, got {features.shape}")
    feat = _unit_rows(features)
    if ref_policy == "pca":
        refs = _pca_references(feat)
    elif ref_policy == "axes":
        refs = np.eye(2, features.shape[1])
    else:
        raise DomainError(f"unknown reference policy {ref_policy!r}")
    coords = 1.0 - feat @ refs.T
    points = np.column_stack([coords, labels.astype(np.float64)])
    return AngularProjection(references=refs, points=points)


def verification_report(
    features: np.ndarray,
    labels: np.ndarray,
    pairs: PairSet,
    far_targets: list[float],
) -> VerificationReport:
    features = np.asarray(features, dtype=np.float64)
    feat = _unit_rows(features)
    if len(pairs) and max(pairs.index_a.max(), pairs.index_b.max()) >= feat.shape[0]:
        raise ShapeError("pair index out of range for the embedding set")
    scores = np.einsum("ij,ij->i", feat[pairs.index_a], feat[pairs.index_b])
    roc = _roc(scores, pairs.is_match)
    intra, inter = cluster_stats(feat, labels)
    return VerificationReport(
        roc=list(zip(*(a.tolist() for a in roc))),
        tar_at={float(f): _tar_at(*roc, f) for f in far_targets},
        intra_mean_cos=intra,
        inter_mean_cos=inter,
        sample_count=int(feat.shape[0]),
    )


def make_pairs(
    labels: np.ndarray,
    rng: np.random.Generator,
    max_genuine: int | None = None,
    max_impostor: int | None = None,
) -> PairSet:
    """All genuine and impostor index pairs, optionally down-sampled; genuine
    pairs first, each group in upper-triangle order."""
    labels = np.asarray(labels, dtype=np.int64)
    iu = np.triu_indices(labels.shape[0], k=1)
    match = labels[iu[0]] == labels[iu[1]]
    genuine, impostor = np.flatnonzero(match), np.flatnonzero(~match)
    if max_genuine is not None and genuine.size > max_genuine:
        genuine = np.sort(rng.choice(genuine, size=max_genuine, replace=False))
    if max_impostor is not None and impostor.size > max_impostor:
        impostor = np.sort(rng.choice(impostor, size=max_impostor, replace=False))
    rows = np.concatenate([genuine, impostor])
    return PairSet(iu[0][rows], iu[1][rows], np.arange(rows.size) < genuine.size)
