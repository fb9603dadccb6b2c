"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
the criteria and their tolerances are fixed here, nothing is calibrated at
run time.
"""

import time

import numpy as np
import pytest

from spheretrain import (
    ImageClassSpec,
    MLPEncoder,
    PrototypeBank,
    SphereClusterSpec,
    TrainConfig,
    ViTConfig,
    ViTEncoder,
    cluster_stats,
    cosine_logits,
    embed_dataset,
    gen_image_dataset,
    gen_sphere_dataset,
    loss_alignment,
    loss_stabilization,
    softmax_ce_loss,
    tar_at_far,
    train,
    unified_margin_loss,
)
from spheretrain import tensor as T
from spheretrain.checkpoint import load_checkpoint
from spheretrain.engine import loss_refinement
from spheretrain.evaluate import make_pairs, roc_points, verification_report
from spheretrain.gradcheck import check_encoders, check_losses
from spheretrain.losses import ClassifierBank, MarginSpec, unit_columns
from spheretrain.optim import AdamW
from spheretrain.sampler import gather_columns, sample
from spheretrain.tensor import Tensor


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def verdict(number, passed, detail):
    line = f"CRITERION {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


LOSS_TOL = 1e-4
ENCODER_TOL = 1e-3


def test_criterion_1_gradient_suite():
    """Every loss and both encoders pass finite-difference checks over 100
    seeds, within two minutes."""
    started = time.monotonic()
    worst_loss = 0.0
    worst_encoder = 0.0
    for seed in range(100):
        for res in check_losses(seed):
            worst_loss = max(worst_loss, res.max_rel_err)
        for res in check_encoders(seed, max_coords=12):
            worst_encoder = max(worst_encoder, res.max_rel_err)
    elapsed = time.monotonic() - started
    passed = worst_loss <= LOSS_TOL and worst_encoder <= ENCODER_TOL and elapsed < 120.0
    verdict(
        1,
        passed,
        f"worst loss err {worst_loss:.2e} <= {LOSS_TOL}, "
        f"worst encoder err {worst_encoder:.2e} <= {ENCODER_TOL}, "
        f"runtime {elapsed:.1f}s < 120s",
    )


def test_criterion_2_margin_family_identities():
    """unified(1,0,0) equals scaled softmax within 1e-10; the symmetric
    one-negative CosFace case equals log(1 + e^(s*m)) within 1e-9."""
    worst_identity = 0.0
    for seed in range(20):
        rng = rng_for(seed)
        feats = unit_rows(rng, 5, 8)
        weights = unit_rows(rng, 7, 8).T
        labels = rng.integers(0, 7, size=5)
        cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
        a = unified_margin_loss(cos, MarginSpec.plain(64.0)).item()
        b = softmax_ce_loss(Tensor(cos.values.data * 64.0), labels).item()
        worst_identity = max(worst_identity, abs(a - b))

    s, m = 64.0, 0.4
    worst_symmetric = 0.0
    for c in (-0.6, 0.0, 0.37, 0.9):
        cos = cosine_logits(
            Tensor(np.array([[1.0, 0.0]])),
            Tensor(np.array([[c, c], [np.sqrt(1 - c * c), np.sqrt(1 - c * c)]])),
            [0],
        )
        value = unified_margin_loss(cos, MarginSpec.cosface(s, m)).item()
        expected = s * m + np.log1p(np.exp(-s * m))
        worst_symmetric = max(worst_symmetric, abs(value - expected))

    passed = worst_identity < 1e-10 and worst_symmetric < 1e-9
    verdict(
        2,
        passed,
        f"softmax identity gap {worst_identity:.2e} < 1e-10, "
        f"symmetric CosFace gap {worst_symmetric:.2e} < 1e-9",
    )


def test_criterion_3_ncs_ordering_and_untouched_columns():
    """Sampled-denominator loss never exceeds the full-class loss on 1000
    random batches, and classifier columns outside the sample set are
    bit-identical through an optimizer step."""
    rng = rng_for(33)
    violations = 0
    for _ in range(1000):
        dim, classes, batch = 8, 30, 4
        feats = unit_rows(rng, batch, dim)
        bank = ClassifierBank.init_random(dim, classes, rng)
        labels = rng.integers(0, classes, size=batch)
        sset = sample(classes, float(rng.uniform(0.05, 0.95)), labels, rng)
        full = sample(classes, 1.0, labels, rng)
        sampled_loss = loss_alignment(
            Tensor(feats), labels, gather_columns(bank, sset), sset, 64.0, 0.4
        ).item()
        full_loss = loss_alignment(
            Tensor(feats), labels, gather_columns(bank, full), full, 64.0, 0.4
        ).item()
        if sampled_loss > full_loss:
            violations += 1

    untouched_ok = True
    opt = AdamW()
    bank = ClassifierBank.init_random(8, 40, rng)
    for step in range(50):
        labels = rng.integers(0, 40, size=5)
        feats = Tensor(unit_rows(rng, 5, 8))
        sset = sample(40, 0.2, labels, rng)
        before = bank.weight.data.copy()
        leaf = gather_columns(bank, sset)
        loss = loss_alignment(feats, labels, leaf, sset, 64.0, 0.4)
        loss.backward()
        opt.step("classifier", bank.weight.data, leaf.grad, 1e-3,
                 weight_decay=0.1, columns=sset.global_ids, project=unit_columns)
        others = np.setdiff1d(np.arange(40), sset.global_ids)
        if bank.weight.data[:, others].tobytes() != before[:, others].tobytes():
            untouched_ok = False
            break

    passed = violations == 0 and untouched_ok
    verdict(
        3,
        passed,
        f"{violations} ordering violations in 1000 batches, "
        f"unselected columns bit-identical: {untouched_ok}",
    )


SCHEDULER_DATA = dict(num_classes=64, dim=32, kappa=30.0, samples_per_class=20)


def _scheduler_run(seed, delta1, delta2, iterations):
    ds = gen_sphere_dataset(SphereClusterSpec(seed=seed, **SCHEDULER_DATA))
    cfg = TrainConfig(seed=seed, max_iterations=iterations, batch_size=64,
                      r=0.1, delta1=delta1, delta2=delta2)
    enc = MLPEncoder(input_dim=32, hidden_dim=64, embed_dim=32)
    _, rows = train(cfg, ds, enc)
    return [r.phase for r in rows]


def test_criterion_4_scheduler_transitions():
    """The 64-identity, d=32, kappa=30 run walks alignment -> stabilization
    -> refinement within budget (here 2500 iterations, well under the 5000
    allowed) on at least 4 of 5 seeds; unreachable thresholds never fire."""
    good = 0
    for seed in range(5):
        phases = _scheduler_run(seed, 0.2, 0.35, iterations=2500)
        t1 = phases.index("stabilization") if "stabilization" in phases else None
        t2 = phases.index("refinement") if "refinement" in phases else None
        if t1 is not None and t2 is not None and t1 < t2:
            good += 1
    frozen = set(_scheduler_run(0, 1.0, 1.0, iterations=400))
    passed = good >= 4 and frozen == {"alignment"}
    verdict(
        4,
        passed,
        f"{good}/5 seeds reached refinement in order within 2500 iterations, "
        f"unreachable thresholds stayed in {sorted(frozen)}",
    )


EFFICACY_ITERS = 900


def _efficacy_run(seed, delta1, delta2, max_iterations=EFFICACY_ITERS):
    spec = ImageClassSpec(num_classes=16, image_width=24, samples_per_class=16,
                          noise_amplitude=0.08, jitter=2, eval_fraction=0.25,
                          seed=seed)
    images = gen_image_dataset(spec)
    cfg = TrainConfig(seed=seed, max_iterations=max_iterations, batch_size=16,
                      r=0.25, learning_rate=1e-3, lr_final=1e-4,
                      lr_decay_iterations=EFFICACY_ITERS, weight_decay=0.05,
                      delta1=delta1, delta2=delta2)
    encoder = ViTEncoder(ViTConfig(image_width=24, patch_stride=6, token_dim=16,
                                   layers=2, heads=2, embed_dim=16, channels=1,
                                   ffn_hidden=32, head_hidden=32))
    _, rows = train(cfg, images.train_view(), encoder)

    eval_view = images.eval_view()
    eval_feats = embed_dataset(encoder, eval_view.inputs)
    pairs = make_pairs(eval_view.labels, rng_for(1234))
    report = verification_report(eval_feats, eval_view.labels, pairs, [1e-2])

    train_view = images.train_view()
    train_feats = embed_dataset(encoder, train_view.inputs)
    intra_train, _ = cluster_stats(train_feats, train_view.labels)
    return report.tar_at[1e-2], intra_train, rows


def test_criterion_5_staged_training_efficacy():
    """Full three-stage training matches or beats the single-stage baseline
    at the same budget on held-out TAR@FAR=1e-2, and training-feature
    intra-class cosine is higher at the end of stage 3 than at the end of
    stage 1 (both averaged over 5 seeds), inside a 30-minute budget."""
    started = time.monotonic()
    staged_tars, baseline_tars, intra_start, intra_end = [], [], [], []
    for seed in range(5):
        tar_staged, intra_final, rows = _efficacy_run(seed, 0.2, 0.35)
        phases = [r.phase for r in rows]
        t1 = phases.index("stabilization")  # iterations are 1-based; index t1
        tar_base, _, _ = _efficacy_run(seed, 1.0, 1.0)
        # determinism makes a shortened rerun an exact prefix of the full run
        _, intra_stage1, _ = _efficacy_run(seed, 0.2, 0.35, max_iterations=t1)
        staged_tars.append(tar_staged)
        baseline_tars.append(tar_base)
        intra_start.append(intra_stage1)
        intra_end.append(intra_final)
    elapsed = time.monotonic() - started
    staged = float(np.mean(staged_tars))
    baseline = float(np.mean(baseline_tars))
    gain = float(np.mean(intra_end) - np.mean(intra_start))
    passed = staged >= baseline and gain > 0.0 and elapsed < 1800.0
    verdict(
        5,
        passed,
        f"TAR@1e-2 staged {staged:.3f} >= baseline {baseline:.3f}, "
        f"intra gain stage1->stage3 {gain:+.3f} > 0, runtime {elapsed:.0f}s < 1800s",
    )


def test_criterion_6_prototype_contract():
    """Initialized prototypes stay unit norm, no gradient reaches the bank in
    stage-2/3 losses, and an identical refold is a bit-exact fixed point."""
    rng = rng_for(66)
    bank = PrototypeBank(12, 9)
    for _ in range(300):
        bank.update(int(rng.integers(0, 9)), unit_rows(rng, 1, 12)[0])
    norms = np.linalg.norm(bank.E[:, bank.initialized], axis=0)
    norms_ok = bool(np.all(np.abs(norms - 1.0) <= 1e-12))

    classifier = ClassifierBank.init_random(12, 9, rng)
    feats = Tensor(unit_rows(rng, 4, 12), requires_grad=True)
    labels = rng.integers(0, 9, size=4)
    snapshot = bank.E.tobytes()
    sset = sample(9, 0.6, labels, rng)
    loss_stabilization(feats, labels, gather_columns(classifier, sset), bank, sset,
                       64.0, 0.4, 0.4).backward()
    stage2_clean = bank.E.tobytes() == snapshot and feats.grad is not None
    feats3 = Tensor(feats.data, requires_grad=True)
    classifier.weight.zero_grad()
    loss_refinement(feats3, labels, classifier.weight, bank, 64.0, 0.4, 0.4).backward()
    stage3_clean = bank.E.tobytes() == snapshot and feats3.grad is not None

    fixed = PrototypeBank(6, 1)
    v = unit_rows(rng_for(7), 1, 6)[0]
    fixed.update(0, v)
    frozen = fixed.E[:, 0].tobytes()
    for _ in range(4):
        fixed.update(0, v)
    fixed_ok = fixed.E[:, 0].tobytes() == frozen

    passed = norms_ok and stage2_clean and stage3_clean and fixed_ok
    verdict(
        6,
        passed,
        f"unit norms {norms_ok}, stage-2 stop-gradient {stage2_clean}, "
        f"stage-3 stop-gradient {stage3_clean}, bit-exact fixed point {fixed_ok}",
    )


def _oracle_tar(genuine, impostor, far):
    chosen = None
    for threshold in sorted(set(impostor.tolist())):
        if np.mean(impostor >= threshold) <= far:
            chosen = threshold
            break
    if chosen is None:
        return float(np.mean(genuine > impostor.max()))
    return float(np.mean(genuine >= chosen))


def test_criterion_7_evaluator_matches_sweep_oracle():
    """tar_at_far equals the exhaustive threshold sweep on 10^4 randomized
    protocols; ROC curves are always monotone."""
    rng = rng_for(77)
    mismatches = 0
    roc_violations = 0
    for k in range(10_000):
        n_gen = int(rng.integers(1, 25))
        n_imp = int(rng.integers(1, 25))
        levels = int(rng.integers(2, 12))
        genuine = rng.integers(0, levels, size=n_gen) / levels
        impostor = rng.integers(0, levels, size=n_imp) / levels
        far = float(rng.uniform(0.005, 0.995))
        scores = np.concatenate([genuine, impostor])
        flags = np.concatenate([np.ones(n_gen, bool), np.zeros(n_imp, bool)])
        if tar_at_far(scores, flags, far) != _oracle_tar(genuine, impostor, far):
            mismatches += 1
        if k % 20 == 0:
            pts = roc_points(scores, flags)
            fars = [p[0] for p in pts]
            tars = [p[1] for p in pts]
            if not all(a < b for a, b in zip(fars, fars[1:])):
                roc_violations += 1
            if not all(a <= b for a, b in zip(tars, tars[1:])):
                roc_violations += 1
    passed = mismatches == 0 and roc_violations == 0
    verdict(
        7,
        passed,
        f"{mismatches} oracle mismatches in 10000 protocols, "
        f"{roc_violations} ROC monotonicity violations",
    )


def test_criterion_8_determinism_and_resume(tmp_path):
    """Identical config and seed give bit-identical logs, checkpoints and
    exported embeddings; resuming a checkpoint reproduces the uninterrupted
    run's remaining log rows exactly."""
    ds = gen_sphere_dataset(
        SphereClusterSpec(num_classes=6, dim=16, kappa=50.0,
                          samples_per_class=25, seed=4)
    )
    cfg_kwargs = dict(seed=31, batch_size=30, r=0.4, weight_decay=0.05)

    artifacts = []
    for tag in ("a", "b"):
        log = tmp_path / f"{tag}.csv"
        ck = tmp_path / f"{tag}.lvpc"
        enc = MLPEncoder(input_dim=16, hidden_dim=24, embed_dim=16)
        train(TrainConfig(max_iterations=100, **cfg_kwargs), ds, enc,
              log_path=log, checkpoint_path=ck)
        emb = embed_dataset(enc, ds.inputs).astype("<f4").tobytes()
        artifacts.append((log.read_bytes(), ck.read_bytes(), emb))
    logs_equal = artifacts[0][0] == artifacts[1][0]
    ckpts_equal = artifacts[0][1] == artifacts[1][1]
    embeddings_equal = artifacts[0][2] == artifacts[1][2]

    _, full_rows = train(
        TrainConfig(max_iterations=100, **cfg_kwargs), ds,
        MLPEncoder(input_dim=16, hidden_dim=24, embed_dim=16),
    )
    half = tmp_path / "half.lvpc"
    train(TrainConfig(max_iterations=50, **cfg_kwargs), ds,
          MLPEncoder(input_dim=16, hidden_dim=24, embed_dim=16),
          checkpoint_path=half)
    _, resumed_rows = train(
        TrainConfig(max_iterations=100, **cfg_kwargs), ds,
        MLPEncoder(input_dim=16, hidden_dim=24, embed_dim=16),
        resume=load_checkpoint(half),
    )
    resume_ok = [r.to_csv() for r in resumed_rows] == [
        r.to_csv() for r in full_rows[50:]
    ]

    passed = logs_equal and ckpts_equal and embeddings_equal and resume_ok
    verdict(
        8,
        passed,
        f"logs {logs_equal}, checkpoints {ckpts_equal}, "
        f"embeddings {embeddings_equal}, resume log match {resume_ok}",
    )
