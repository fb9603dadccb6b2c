"""Staged angular-margin embedding training on the unit hypersphere.

The package splits into a minimal autodiff core (:mod:`spheretrain.tensor`),
the margin-loss family (:mod:`spheretrain.losses`), negative class
sub-sampling (:mod:`spheretrain.sampler`), per-class prototype statistics
(:mod:`spheretrain.prototypes`), the staged training engine
(:mod:`spheretrain.engine`) with its scheduler and optimizer, two encoders,
synthetic data generators, verification metrics and a command line.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import TrainConfig, parse_kv_file
from .data import (
    Dataset,
    ImageClassSpec,
    SphereClusterSpec,
    gen_image_dataset,
    gen_sphere_dataset,
    sample_vmf,  # kept importable here; not in __all__, as the generator runs its kernel
)
from .encoders import MLPEncoder, ViTConfig, ViTEncoder, patchify
from .engine import LogRow, embed_dataset, loss_alignment, loss_refinement, loss_stabilization, train
from .evaluate import (
    AngularProjection,
    PairSet,
    VerificationReport,
    angular_projection,
    cluster_stats,
    tar_at_far,  # kept importable here; not in __all__, as the report reads the ROC arrays
    verification_report,
)
from .losses import (
    ClassifierBank,
    CosineLogits,
    MarginSpec,
    cosface_loss,
    cosine_logits,
    softmax_ce_loss,
    unified_margin_loss,
)
from .optim import AdamW
from .prototypes import PrototypeBank
from .sampler import SampleSet, gather_columns, sample
from .scheduler import Phase, StageState, css_score, step_scheduler
from .tensor import Tensor, finite_difference_check

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "AngularProjection",
    "Checkpoint",
    "ClassifierBank",
    "CosineLogits",
    "Dataset",
    "ImageClassSpec",
    "LogRow",
    "MLPEncoder",
    "MarginSpec",
    "PairSet",
    "Phase",
    "PrototypeBank",
    "SampleSet",
    "SphereClusterSpec",
    "StageState",
    "Tensor",
    "TrainConfig",
    "VerificationReport",
    "ViTConfig",
    "ViTEncoder",
    "angular_projection",
    "cluster_stats",
    "cosface_loss",
    "cosine_logits",
    "css_score",
    "embed_dataset",
    "finite_difference_check",
    "gather_columns",
    "gen_image_dataset",
    "gen_sphere_dataset",
    "load_checkpoint",
    "loss_alignment",
    "loss_refinement",
    "loss_stabilization",
    "parse_kv_file",
    "patchify",
    "sample",
    "save_checkpoint",
    "softmax_ce_loss",
    "step_scheduler",
    "train",
    "unified_margin_loss",
    "verification_report",
]
