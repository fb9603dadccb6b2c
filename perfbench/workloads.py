"""The benchmark's three training workloads.

Each workload is built from its seed alone: the same seed gives the same
dataset, held-out evaluation set, encoder and training config, so every
``train()`` call on a setup reproduces the same log bit for bit.

* ``vit-staged``: the ViT efficacy config of acceptance criterion 5. All
  three phases run; the autodiff core and the encoder do the work.
* ``mlp-ncs-100k``: 100,000 classes sampled at r = 0.1. It stays in
  alignment, so every step is a sampled step at a width where O(d*C) work
  dominates.
* ``mlp-refine-10k``: 10,000 classes with thresholds below the initial CSS
  score, so it is in refinement from iteration 3 and scores all classes
  densely, at the same width as the 100k workload's sample.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from spheretrain import (
    ImageClassSpec,
    MLPEncoder,
    SphereClusterSpec,
    TrainConfig,
    ViTConfig,
    ViTEncoder,
    gen_image_dataset,
    gen_sphere_dataset,
)
from spheretrain.data import Dataset

# Held-out sphere identities come from a seed stream disjoint from the
# training identities' (sphere data has no eval split of its own).
HELD_OUT_SEED_OFFSET = 1_000_003
HELD_OUT_CLASSES = 32


@dataclass
class Setup:
    """Everything one workload run trains and evaluates on."""

    dataset: Dataset
    encoder: object
    config: TrainConfig
    eval_inputs: np.ndarray
    eval_labels: np.ndarray
    generate_s: float  # time spent in the data module's generators


def _reaches_refinement(phases: list[str]) -> str | None:
    return None if "refinement" in phases else "never reached refinement"


def _stays_in_alignment(phases: list[str]) -> str | None:
    left = [p for p in phases if p != "alignment"]
    return None if not left else f"left alignment (saw {left[0]})"


def _refines_by_iteration_3(phases: list[str]) -> str | None:
    if len(phases) >= 3 and phases[2] == "refinement":
        return None
    return f"iteration 3 is in {phases[2] if len(phases) >= 3 else 'no'} phase, not refinement"


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "vit" or "mlp"
    num_classes: int
    iterations: int
    # The phase contract at seed 0; None where a shrunken copy cannot meet it.
    seed0_phases: Callable[[list[str]], str | None] | None
    r: float = 0.1
    delta1: float = 0.2
    delta2: float = 0.35

    def build(self, seed: int) -> Setup:
        return _build_vit(self, seed) if self.model == "vit" else _build_mlp(self, seed)

    def shrunk(self) -> "Workload":
        """A copy with few iterations and few classes, for the benchmark's tests."""
        if self.model == "vit":
            return dataclasses.replace(self, num_classes=6, iterations=12, seed0_phases=None)
        return dataclasses.replace(self, num_classes=self.num_classes // 100, iterations=12)


def _build_vit(w: Workload, seed: int) -> Setup:
    spec = ImageClassSpec(num_classes=w.num_classes, image_width=24, samples_per_class=16,
                          noise_amplitude=0.08, jitter=2, eval_fraction=0.25, seed=seed)
    started = perf_counter()
    images = gen_image_dataset(spec)
    generate_s = perf_counter() - started
    encoder = ViTEncoder(ViTConfig(image_width=24, patch_stride=6, token_dim=16, layers=2,
                                   heads=2, embed_dim=16, channels=1, ffn_hidden=32,
                                   head_hidden=32))
    config = TrainConfig(seed=seed, max_iterations=w.iterations, batch_size=16, r=w.r,
                         learning_rate=1e-3, lr_final=1e-4, lr_decay_iterations=900,
                         weight_decay=0.05, delta1=w.delta1, delta2=w.delta2)
    held_out = images.eval_view()
    return Setup(images.train_view(), encoder, config, held_out.inputs, held_out.labels,
                 generate_s)


def _sphere(num_classes: int, seed: int) -> Dataset:
    return gen_sphere_dataset(SphereClusterSpec(num_classes=num_classes, dim=32, kappa=30.0,
                                                samples_per_class=4, seed=seed))


def _build_mlp(w: Workload, seed: int) -> Setup:
    started = perf_counter()
    dataset = _sphere(w.num_classes, seed)
    held_out = _sphere(HELD_OUT_CLASSES, seed + HELD_OUT_SEED_OFFSET)
    generate_s = perf_counter() - started
    config = TrainConfig(seed=seed, max_iterations=w.iterations, batch_size=64, r=w.r,
                         delta1=w.delta1, delta2=w.delta2)
    return Setup(dataset, MLPEncoder(32, 64, 32), config, held_out.inputs, held_out.labels,
                 generate_s)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vit-staged", "vit", num_classes=16, iterations=280, r=0.25,
                 seed0_phases=_reaches_refinement),
        Workload("mlp-ncs-100k", "mlp", num_classes=100_000, iterations=30,
                 seed0_phases=_stays_in_alignment),
        Workload("mlp-refine-10k", "mlp", num_classes=10_000, iterations=100,
                 delta1=0.01, delta2=0.01, seed0_phases=_refines_by_iteration_3),
    )
}
