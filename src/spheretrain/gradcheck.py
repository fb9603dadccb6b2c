"""Finite-difference suites exposed through the command line.

Each check wraps a forward computation into a scalar function of a single
probe tensor and compares the analytic gradient against central differences.
Encoder checks sample a random subset of coordinates per seed; full sweeps
over every transformer parameter would be needlessly slow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoders import MLPEncoder, ViTConfig, ViTEncoder
from .errors import ConfigError
from .losses import (
    ClassifierBank,
    MarginSpec,
    cosine_logits,
    softmax_ce_loss,
    unified_margin_loss,
)
from .engine import loss_refinement, loss_stabilization
from .prototypes import PrototypeBank
from .sampler import sample
from .tensor import Tensor, finite_difference_check

LOSS_TOLERANCE = 1e-4
ENCODER_TOLERANCE = 1e-3


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance


def _unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _results(checks) -> list[CheckResult]:
    """One result per (name, scalar function, probe array), in order."""
    return [CheckResult(name, finite_difference_check(f, Tensor(x)), LOSS_TOLERANCE)
            for name, f, x in checks]


def check_tensor_ops(seed: int = 0) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.standard_normal((4, 3))
    b = Tensor(rng.standard_normal((3, 2)))
    x = rng.standard_normal((3, 4))
    w = rng.standard_normal((3, 5))
    probe = Tensor(rng.standard_normal((3, 5)))
    gain = Tensor(rng.uniform(0.5, 1.5, size=5))
    bias = Tensor(rng.standard_normal(5))
    # 2 groups of 3 tokens, D = 4 split into 2 heads
    qkv = rng.standard_normal((6, 12))
    mix = Tensor(rng.standard_normal((6, 4)))
    # parts over columns 0-3 and 4-6 whose positives are label cosines - 0.3,
    # so the cosines reach the loss along both paths
    cos = rng.uniform(-1.0, 1.0, size=(3, 7))
    labels = rng.integers(0, 3, size=3)
    tiled, lin = rng.standard_normal((2, 2)), Tensor(rng.standard_normal((4, 2)))  # a @ b + tiled

    def margin_lse(t):
        return T.reduce_sum(T.margin_logsumexp([
            (T.gather_cols(t, ids), labels, T.add(T.take_per_row(t, labels + ids[0]), -0.3))
            for ids in (np.arange(4), np.arange(4, 7))
        ], 4.0))

    return _results([
        ("matmul", lambda t: T.reduce_sum(T.matmul(t, b)), a),
        ("affine", lambda t: T.reduce_sum(T.mul(T.affine(t, b, Tensor(tiled)), lin)), a),
        ("affine/bias", lambda t: T.reduce_sum(T.mul(T.affine(Tensor(a), b, t), lin)), tiled),
        ("mul", lambda t: T.reduce_sum(T.mul(t, t)), x),
        ("gelu", lambda t: T.reduce_sum(T.gelu(t)), x),
        ("row_logsumexp", lambda t: T.reduce_sum(T.row_logsumexp(t)), w),
        ("l2_normalize_rows", lambda t: T.reduce_sum(T.mul(T.l2_normalize_rows(t), probe)), w),
        ("layer_norm", lambda t: T.reduce_sum(T.mul(T.layer_norm(t, gain, bias), probe)), w),
        ("attention", lambda t: T.reduce_sum(T.mul(T.attention(t, 2, 2), mix)), qkv),
        ("margin_logsumexp", margin_lse, cos),
    ])


def _loss_setup(rng, batch=3, dim=8, classes=6):
    feats = _unit_rows(rng, batch, dim)
    weights = _unit_rows(rng, classes, dim).T
    labels = rng.integers(0, classes, size=batch)
    return feats, weights, labels


def check_losses(seed: int = 0) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(seed))
    feats, weights, labels = _loss_setup(rng)

    def ce(t):
        return softmax_ce_loss(T.matmul(t, Tensor(weights)), labels)

    checks = [("softmax_ce/features", ce, feats)]
    specs = {
        "angular": MarginSpec.plain(16.0),
        "cosface": MarginSpec.cosface(64.0, 0.4),
        "unified": MarginSpec(s=16.0, m1=1.2, m2=0.2, m3=0.1),
    }
    for name, spec in specs.items():
        def wrt_features(t, spec=spec):
            return unified_margin_loss(cosine_logits(t, Tensor(weights), labels), spec)

        def wrt_weights(t, spec=spec):
            return unified_margin_loss(cosine_logits(Tensor(feats), t, labels), spec)

        checks += [(f"{name}/features", wrt_features, feats),
                   (f"{name}/weights", wrt_weights, weights)]

    protos = PrototypeBank(feats.shape[1], weights.shape[1])
    proto_rng = np.random.Generator(np.random.Philox(seed + 1))
    for cls in range(weights.shape[1]):
        protos.update(cls, _unit_rows(proto_rng, 1, feats.shape[1])[0])
    sset = sample(weights.shape[1], 0.8, labels, proto_rng)

    def stage2(t):
        bank = ClassifierBank(weight=Tensor(weights))
        return loss_stabilization(t, labels, bank, protos, sset, 16.0, 0.4, 0.4)

    def stage3(t):
        bank = ClassifierBank(weight=Tensor(weights))
        return loss_refinement(t, labels, bank, protos, 16.0, 0.4, 0.4)

    def stage3_weights(t):
        bank = ClassifierBank(weight=t)
        return loss_refinement(Tensor(feats), labels, bank, protos, 16.0, 0.4, 0.4)

    return _results(checks + [
        ("stabilization/features", stage2, feats),
        ("refinement/features", stage3, feats),
        ("refinement/weights", stage3_weights, weights),
    ])


def encoder_gradient_check(
    encoder,
    inputs: np.ndarray,
    probe: np.ndarray,
    max_coords: int,
    rng: np.random.Generator,
    eps: float = 1e-5,
) -> float:
    """Finite-difference check of d<probe, encode(inputs)>/d(parameters).

    The probe row is the encoder's flat (P,) arena: each evaluation binds the
    encoder's parameters to the row it is given, so their gradients land in
    the row's, and ``max_coords`` of its coordinates are sampled for the
    numeric side. The encoder is bound back to its own arena afterwards.
    """

    def objective(row: Tensor) -> Tensor:
        row.grad = np.zeros(row.shape)
        encoder.bind(row)
        return T.reduce_sum(T.mul(encoder.forward(inputs), Tensor(probe)))

    try:
        return finite_difference_check(objective, encoder.arena, eps, max_coords, rng)
    finally:
        encoder.bind(encoder.arena)


def check_encoders(seed: int = 0, max_coords: int = 40) -> list[CheckResult]:
    rng = np.random.Generator(np.random.Philox(seed))
    results = []

    mlp = MLPEncoder(input_dim=6, hidden_dim=8, embed_dim=5)
    mlp.init(rng, weight_std=0.3)
    inputs = rng.standard_normal((3, 6))
    probe = rng.standard_normal((3, 5))
    results.append(
        CheckResult(
            "mlp/params",
            encoder_gradient_check(mlp, inputs, probe, max_coords, rng),
            ENCODER_TOLERANCE,
        )
    )

    cfg = ViTConfig(
        image_width=4, patch_stride=2, token_dim=8, layers=2, heads=2,
        embed_dim=6, channels=1, ffn_hidden=12, head_hidden=8,
    )
    vit = ViTEncoder(cfg)
    vit.init(rng, weight_std=0.3)
    images = rng.uniform(0.0, 1.0, size=(2, 4, 4, 1))
    probe = rng.standard_normal((2, 6))
    results.append(
        CheckResult(
            "vit/params",
            encoder_gradient_check(vit, images, probe, max_coords, rng),
            ENCODER_TOLERANCE,
        )
    )
    return results


_SUITES = {
    "tensor": check_tensor_ops,
    "losses": check_losses,
    "encoders": check_encoders,
}


def run_suite(module: str = "all", seed: int = 0) -> list[CheckResult]:
    if module == "all":
        out = []
        for fn in _SUITES.values():
            out.extend(fn(seed))
        return out
    if module not in _SUITES:
        raise ConfigError(
            f"unknown grad-check module {module!r}; pick one of {sorted(_SUITES)} or 'all'"
        )
    return _SUITES[module](seed)
