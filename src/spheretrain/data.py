"""Deterministic synthetic identity data.

Two levels: unit-sphere feature clusters for loss and scheduler experiments
without an encoder, and small procedural class-template images for
end-to-end encoder runs. Everything is driven by Philox counter-based
generators seeded through SeedSequence spawning, so a given seed produces
the same bytes on every run and per-identity generation could be
parallelized without changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ShapeError


@dataclass
class Dataset:
    """A flat labeled sample collection as consumed by the training loop."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.inputs.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"{self.inputs.shape[0]} inputs for {self.labels.shape[0]} labels"
            )

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class SphereClusterSpec:
    num_classes: int
    dim: int
    kappa: float
    samples_per_class: int
    seed: int = 0
    distribution: str = "vmf"  # or "gaussian": normalize(mean + z/sqrt(kappa))

    def __post_init__(self):
        _check_spec(self, ("samples_per_class",))
        if self.num_classes < 2:
            raise DomainError("need at least two identities")
        if self.dim < 2:
            raise DomainError("need dimension >= 2")
        if self.kappa <= 0:
            raise DomainError("concentration must be positive")
        if self.distribution not in ("vmf", "gaussian"):
            raise DomainError(f"unknown cluster model {self.distribution!r}")


@dataclass(frozen=True)
class ImageClassSpec:
    num_classes: int
    image_width: int
    samples_per_class: int
    channels: int = 1
    noise_amplitude: float = 0.05
    jitter: int = 1
    eval_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        _check_spec(self, ("num_classes", "image_width", "samples_per_class", "channels"))
        if self.noise_amplitude < 0:
            raise DomainError("noise amplitude must be nonnegative")
        if not 0.0 <= self.eval_fraction < 1.0:
            raise DomainError("eval fraction must lie in [0, 1)")
        if not 0 <= self.jitter <= self.image_width:
            raise DomainError(f"jitter must lie in [0, image_width], got {self.jitter}")


def _check_spec(spec, counts: tuple[str, ...]) -> None:
    """Reject a non-finite float field, any of ``counts`` below 1 and a
    negative seed."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")
        if f.name in counts and value < 1:
            raise DomainError(f"{f.name} must be at least 1, got {value}")
    if spec.seed < 0:
        raise DomainError(f"seed must be nonnegative, got {spec.seed}")


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _radial_components(kappa: float, dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Cosine-to-mean samples via the standard rejection scheme (Ulrich 1984 /
    Wood 1994) with a Beta envelope."""
    d = dim - 1
    b = d / (np.sqrt(4.0 * kappa * kappa + d * d) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    if not x0 < 1.0:  # then c is not finite (log 0), and no draw would ever be accepted
        raise DomainError(f"cannot sample concentration {kappa} in dimension {dim}")
    c = kappa * x0 + d * np.log(1.0 - x0 * x0)
    out = np.empty(n)
    filled = 0
    while filled < n:
        todo = n - filled
        z = rng.beta(d / 2.0, d / 2.0, size=todo)
        w = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        u = rng.uniform(size=todo)
        with np.errstate(divide="ignore"):
            accept = kappa * w + d * np.log(1.0 - x0 * w) - c >= np.log(u)
        got = int(accept.sum())
        out[filled : filled + got] = w[accept]
        filled += got
    return out


def sample_vmf(mean: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n unit vectors from a von Mises-Fisher distribution.

    The component along the mean comes from the rejection sampler above; the
    tangential part is an isotropic direction orthogonal to the mean.
    """
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    dim = mean.shape[0]
    if dim < 2:
        raise DomainError("vMF sampling needs dimension >= 2")
    if kappa <= 0:
        raise DomainError(f"concentration must be positive, got {kappa}")
    if abs(np.linalg.norm(mean) - 1.0) > 1e-9:
        raise DomainError("mean direction must be unit-norm")
    w = _radial_components(kappa, dim, n, rng)
    tangent = rng.standard_normal((n, dim))
    tangent -= np.outer(tangent @ mean, mean)
    norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    while np.any(norms < 1e-12):  # essentially unreachable; redraw degenerate rows
        bad = norms[:, 0] < 1e-12
        fresh = rng.standard_normal((int(bad.sum()), dim))
        fresh -= np.outer(fresh @ mean, mean)
        tangent[bad] = fresh
        norms = np.linalg.norm(tangent, axis=1, keepdims=True)
    tangent /= norms
    samples = w[:, None] * mean + np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, None] * tangent
    return _unit_rows(samples)


def gen_sphere_dataset(spec: SphereClusterSpec) -> Dataset:
    """Balanced unit-sphere clusters: uniform mean directions, then one
    concentrated cluster per identity."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.num_classes + 1)
    mean_rng = _generator(children[0])
    means = _unit_rows(mean_rng.standard_normal((spec.num_classes, spec.dim)))
    blocks = []
    for cls in range(spec.num_classes):
        rng = _generator(children[cls + 1])
        if spec.distribution == "vmf":
            blocks.append(sample_vmf(means[cls], spec.kappa, spec.samples_per_class, rng))
        else:
            noise = rng.standard_normal((spec.samples_per_class, spec.dim))
            blocks.append(_unit_rows(means[cls] + noise / np.sqrt(spec.kappa)))
    features = np.concatenate(blocks, axis=0)
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    return Dataset(inputs=features, labels=labels, num_classes=spec.num_classes)


@dataclass
class ImageDataset:
    """Procedural class-template images with a disjoint per-sample eval split."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_indices: np.ndarray
    eval_indices: np.ndarray

    def train_view(self) -> Dataset:
        return Dataset(
            inputs=self.images[self.train_indices],
            labels=self.labels[self.train_indices],
            num_classes=self.num_classes,
        )

    def eval_view(self) -> Dataset:
        return Dataset(
            inputs=self.images[self.eval_indices],
            labels=self.labels[self.eval_indices],
            num_classes=self.num_classes,
        )

    def full_view(self) -> Dataset:
        return Dataset(inputs=self.images, labels=self.labels, num_classes=self.num_classes)


def _smooth_template(width: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """A random low-frequency pattern scaled into [0.2, 0.8]."""
    ys, xs = np.meshgrid(np.linspace(0, 1, width, endpoint=False),
                         np.linspace(0, 1, width, endpoint=False), indexing="ij")
    template = np.zeros((width, width, channels))
    for ch in range(channels):
        acc = np.zeros((width, width))
        for _ in range(4):
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amp = rng.uniform(0.5, 1.0)
            acc += amp * np.cos(2.0 * np.pi * (fx * xs + fy * ys) + phase)
        lo, hi = acc.min(), acc.max()
        if hi - lo < 1e-9:
            acc = np.full_like(acc, 0.5)
        else:
            acc = 0.2 + 0.6 * (acc - lo) / (hi - lo)
        template[:, :, ch] = acc
    return template


def gen_image_dataset(spec: ImageClassSpec) -> ImageDataset:
    """Per-identity smooth templates plus translation jitter and pixel noise,
    clamped to [0, 1]; the eval split is identity-stratified by sample id."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.num_classes + 1)
    split_rng = _generator(children[0])
    n_total = spec.num_classes * spec.samples_per_class
    images = np.empty(
        (n_total, spec.image_width, spec.image_width, spec.channels), dtype=np.float64
    )
    labels = np.repeat(np.arange(spec.num_classes, dtype=np.int64), spec.samples_per_class)
    for cls in range(spec.num_classes):
        rng = _generator(children[cls + 1])
        template = _smooth_template(spec.image_width, spec.channels, rng)
        base = cls * spec.samples_per_class
        for k in range(spec.samples_per_class):
            shift = rng.integers(-spec.jitter, spec.jitter + 1, size=2) if spec.jitter else (0, 0)
            img = np.roll(template, tuple(int(v) for v in shift), axis=(0, 1))
            if spec.noise_amplitude:
                img = img + rng.normal(0.0, spec.noise_amplitude, size=img.shape)
            images[base + k] = np.clip(img, 0.0, 1.0)
    eval_per_class = int(round(spec.eval_fraction * spec.samples_per_class))
    eval_ids = []
    for cls in range(spec.num_classes):
        base = cls * spec.samples_per_class
        if eval_per_class:
            picked = split_rng.choice(spec.samples_per_class, size=eval_per_class, replace=False)
            eval_ids.extend(base + np.sort(picked))
    eval_indices = np.asarray(sorted(eval_ids), dtype=np.int64)
    train_mask = np.ones(n_total, dtype=bool)
    train_mask[eval_indices] = False
    return ImageDataset(
        images=images,
        labels=labels,
        num_classes=spec.num_classes,
        train_indices=np.flatnonzero(train_mask),
        eval_indices=eval_indices,
    )
