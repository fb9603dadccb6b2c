"""Deterministic synthetic identity data.

Two levels: unit-sphere feature clusters for loss and scheduler experiments
without an encoder, and small procedural class-template images for
end-to-end encoder runs. Everything is driven by Philox counter-based
generators keyed through SeedSequence spawning, so a given seed produces
the same bytes on every run.

Each identity i draws from its own stream, the one numpy's
``SeedSequence(seed, spawn_key=(i + 1,))`` keys (key 0 serves the draws
shared by all identities: the sphere means, the image split), and consumes
it in a fixed order whatever else is generated alongside. ``_spawn_keys``
derives every identity's Philox key in one vectorized pass of numpy's seed
hash, and a few generators are re-keyed in place instead of one being built
per identity. The sphere generator walks the identities in chunks of
``_CLASS_CHUNK``: it re-keys one pooled generator per identity of the chunk,
draws each identity's variates from its own generator, then runs the
arithmetic once over the whole chunk. The chunk size therefore changes the
speed, never the bytes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, ShapeError

# Identities generated per pass of the sphere kernel: large enough to spread
# numpy's per-call overhead, small enough to bound the chunk's temporaries
# and the number of live generators, one per identity of a chunk.
_CLASS_CHUNK = 4096

# Spawn keys 0..num_classes must each be one uint32 word, the range in which
# ``_spawn_keys`` reproduces numpy's seed hash.
_MAX_CLASSES = 2**32 - 2

# numpy's SeedSequence hash (NEP 19): pool size and 32-bit hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


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
    """Reject a non-finite float field, any of ``counts`` below 1, a negative
    seed and more identities than ``_MAX_CLASSES``."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{f.name} must be finite, got {value}")
        if f.name in counts and value < 1:
            raise DomainError(f"{f.name} must be at least 1, got {value}")
    if spec.seed < 0:
        raise DomainError(f"seed must be nonnegative, got {spec.seed}")
    if spec.num_classes > _MAX_CLASSES:
        raise DomainError(f"num_classes must be at most {_MAX_CLASSES}, got {spec.num_classes}")


def _hasher(hash_const: int, mult: int):
    """numpy's ``hashmix`` with its running 32-bit constant: each call xors the
    words with the constant, advances it by ``mult``, multiplies and
    xor-shifts."""
    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * mult & _MASK32
        value = value * hash_const
        return value ^ value >> 16
    return hashmix


def _spawn_keys(seed: int, ids: np.ndarray) -> np.ndarray:
    """The (len(ids), 2) uint64 Philox keys whose row j equals
    ``SeedSequence(seed, spawn_key=(ids[j],)).generate_state(2, np.uint64)``,
    for ids below 2**32.

    This is numpy's pool mix and ``generate_state`` over uint32 words. Every
    hash constant is independent of the data and the spawn key is the last
    entropy word, so the seed's words are mixed once, as (1,) arrays, and only
    the spawn key's mix and the output hash run over all the ids.
    """
    seed = operator.index(seed)
    entropy = [np.array([seed >> shift & _MASK32], dtype=np.uint32)
               for shift in range(0, max(seed.bit_length(), 1), 32)]
    # A spawned SeedSequence pads its seed to the pool size before the key.
    entropy += [np.zeros(1, dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    entropy.append(np.asarray(ids, dtype=np.uint32))

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    words = np.empty((len(entropy[-1]), _POOL_SIZE), dtype="<u4")
    output_hash = _hasher(_INIT_B, _MULT_B)
    for i, value in enumerate(pool):
        words[:, i] = output_hash(value)
    return words.view("<u8").astype(np.uint64)


def _generators(count: int) -> list[np.random.Generator]:
    """``count`` Philox generators, each to be given its stream by ``_rekey``;
    they share one ``SeedSequence``, whose key ``_rekey`` overwrites anyway."""
    seeds = np.random.SeedSequence(0)
    return [np.random.Generator(np.random.Philox(seeds)) for _ in range(count)]


def _rekey(rng: np.random.Generator, key: list[int]) -> None:
    """Put ``rng`` in the state of a fresh ``Philox`` keyed by the two words
    ``key``: counter 0 and nothing buffered, so it draws exactly what that
    generator would. (Python ints set the state faster than numpy arrays.)"""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _allocate(classes: int, n: int, sample_shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized float64 inputs for ``n`` samples of each of ``classes``
    identities and their labels. Called before any seeding, so that a dataset
    too large to hold fails at once as a ``DomainError``."""
    try:
        return (np.empty((classes * n, *sample_shape)),
                np.repeat(np.arange(classes, dtype=np.int64), n))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise DomainError(
            f"{classes} identities x {n} samples of shape {sample_shape} do not fit in memory"
        ) from exc


def _normalize_rows(x: np.ndarray) -> None:
    """Scale every vector along the last axis of ``x`` to unit length, in place."""
    x /= np.linalg.norm(x, axis=-1, keepdims=True)


def _vmf_rows(out: np.ndarray, means: np.ndarray, kappa: float,
              rngs: list[np.random.Generator]) -> None:
    """Fill ``out`` (k, n, dim) with von Mises-Fisher draws about the unit
    ``means`` (k, dim), block i from ``rngs[i]`` alone, in its stream's order:
    per rejection round a beta then a uniform draw for its unfilled slots,
    then its normal draws. The arithmetic runs once over all k blocks.

    The cosine to the mean comes from the Beta-envelope rejection scheme of
    Ulrich (1984) and Wood (1994); the rest is an isotropic tangent direction.
    """
    k, n, dim = out.shape
    d = dim - 1
    b = d / (np.sqrt(4.0 * kappa * kappa + d * d) + 2.0 * kappa)
    x0 = (1.0 - b) / (1.0 + b)
    if not x0 < 1.0:  # then c is not finite (log 0), and no draw would ever be accepted
        raise DomainError(f"cannot sample concentration {kappa} in dimension {dim}")
    c = kappa * x0 + d * np.log(1.0 - x0 * x0)
    w = np.empty((k, n))
    filled = np.zeros(k, dtype=np.int64)
    while (todo_cls := np.flatnonzero(filled < n)).size:
        todo = n - filled[todo_cls]
        z, u = [], []
        for i, t in zip(todo_cls.tolist(), todo.tolist()):
            z.append(rngs[i].beta(d / 2.0, d / 2.0, size=t))
            # The same doubles as uniform(size=t), 0.0 + 1.0 * u, without its
            # argument checks, which cost more than the draw.
            u.append(rngs[i].random(t))
        z, u = np.concatenate(z), np.concatenate(u)
        drawn = (1.0 - (1.0 + b) * z) / (1.0 - (1.0 - b) * z)
        with np.errstate(divide="ignore"):
            accept = kappa * drawn + d * np.log(1.0 - x0 * drawn) - c >= np.log(u)
        # Accepted draws go to their class's next free slots, in draw order.
        cls = np.repeat(todo_cls, todo)[accept]
        got = np.bincount(cls, minlength=k)
        rank = np.arange(cls.size) - (np.cumsum(got) - got)[cls]
        w[cls, filled[cls] + rank] = drawn[accept]
        filled += got
    for i, rng in enumerate(rngs):
        rng.standard_normal((n, dim), out=out[i])
    out -= (out @ means[:, :, None]) * means[:, None, :]
    norms = np.linalg.norm(out, axis=2, keepdims=True)
    for i in np.flatnonzero((norms < 1e-12).any(axis=(1, 2))):  # essentially unreachable
        while (bad := norms[i, :, 0] < 1e-12).any():  # redraw the degenerate rows
            fresh = rngs[i].standard_normal((int(bad.sum()), dim))
            fresh -= np.outer(fresh @ means[i], means[i])
            out[i, bad] = fresh
            norms[i] = np.linalg.norm(out[i], axis=1, keepdims=True)
    out /= norms
    out *= np.sqrt(np.maximum(0.0, 1.0 - w * w))[:, :, None]
    out += w[:, :, None] * means[:, None, :]
    _normalize_rows(out)


def sample_vmf(mean: np.ndarray, kappa: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n unit vectors from a von Mises-Fisher distribution about the unit
    vector ``mean``, as one block of ``_vmf_rows``."""
    mean = np.asarray(mean, dtype=np.float64).reshape(-1)
    dim = mean.shape[0]
    if dim < 2:
        raise DomainError("vMF sampling needs dimension >= 2")
    if kappa <= 0:
        raise DomainError(f"concentration must be positive, got {kappa}")
    if not abs(np.linalg.norm(mean) - 1.0) <= 1e-9:
        raise DomainError("mean direction must be unit-norm")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"sample count must be a nonnegative integer, got {n!r}")
    out = np.empty((1, n, dim))
    _vmf_rows(out, mean[None], kappa, [rng])
    return out[0]


def gen_sphere_dataset(spec: SphereClusterSpec) -> Dataset:
    """Balanced unit-sphere clusters: uniform mean directions, then one
    concentrated cluster per identity, ``_CLASS_CHUNK`` identities at a time."""
    classes, n, dim = spec.num_classes, spec.samples_per_class, spec.dim
    features, labels = _allocate(classes, n, (dim,))
    keys = _spawn_keys(spec.seed, np.arange(classes + 1, dtype=np.uint32))
    rngs = _generators(min(classes, _CLASS_CHUNK))
    _rekey(rngs[0], keys[0].tolist())
    means = rngs[0].standard_normal((classes, dim))
    _normalize_rows(means)
    for lo in range(0, classes, _CLASS_CHUNK):
        hi = min(lo + _CLASS_CHUNK, classes)
        for rng, key in zip(rngs, keys[lo + 1 : hi + 1].tolist()):
            _rekey(rng, key)
        chunk = rngs[: hi - lo]
        out = features[lo * n : hi * n].reshape(hi - lo, n, dim)
        if spec.distribution == "vmf":
            _vmf_rows(out, means[lo:hi], spec.kappa, chunk)
        else:
            for i, rng in enumerate(chunk):
                rng.standard_normal((n, dim), out=out[i])
            out /= np.sqrt(spec.kappa)
            out += means[lo:hi, None, :]
            _normalize_rows(out)
    return Dataset(inputs=features, labels=labels, num_classes=classes)


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
    images, labels = _allocate(spec.num_classes, spec.samples_per_class,
                               (spec.image_width, spec.image_width, spec.channels))
    n_total = images.shape[0]
    keys = _spawn_keys(spec.seed, np.arange(spec.num_classes + 1, dtype=np.uint32)).tolist()
    split_rng, rng = _generators(2)
    _rekey(split_rng, keys[0])
    for cls in range(spec.num_classes):
        _rekey(rng, keys[cls + 1])
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
