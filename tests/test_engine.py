import tracemalloc

import numpy as np
import pytest

from spheretrain import engine
from spheretrain import tensor as T
from spheretrain.checkpoint import load_checkpoint
from spheretrain.config import TrainConfig
from spheretrain.data import Dataset, SphereClusterSpec, gen_sphere_dataset
from spheretrain.encoders import MLPEncoder
from spheretrain.engine import (
    LOG_HEADER,
    embed_dataset,
    loss_alignment,
    loss_refinement,
    loss_stabilization,
    train,
)
from spheretrain.errors import ConfigError, NumericError, ShapeError, StateError
from spheretrain.losses import ClassifierBank, cosface_loss, cosine_logits
from spheretrain.optim import AdamW
from spheretrain.prototypes import PrototypeBank
from spheretrain.sampler import SampleSet, sample
from spheretrain.scheduler import Phase
from spheretrain.tensor import Tensor


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def loss_setup(seed, batch=4, dim=8, classes=10):
    rng = rng_for(seed)
    feats = Tensor(unit_rows(rng, batch, dim))
    bank = ClassifierBank.init_random(dim, classes, rng)
    labels = rng.integers(0, classes, size=batch)
    return rng, feats, bank, labels


def filled_prototypes(rng, dim, classes):
    bank = PrototypeBank(dim, classes)
    for cls in range(classes):
        bank.update(cls, unit_rows(rng, 1, dim)[0])
    return bank


class TestStageLosses:
    def test_alignment_with_full_set_equals_plain_cosface(self):
        rng, feats, bank, labels = loss_setup(0)
        sset = sample(bank.num_classes, 1.0, labels, rng)
        a = loss_alignment(feats, labels, bank, sset, 64.0, 0.4).item()
        feats2 = Tensor(feats.data)
        b = cosface_loss(cosine_logits(feats2, bank.weight, labels), 64.0, 0.4).item()
        assert a == b

    @pytest.mark.parametrize("loss_name", ["loss_alignment", "loss_stabilization"])
    def test_gathered_block_takes_the_classifier_gradient(self, loss_name):
        # the training loop's own (d, |set|) leaf in place of the bank's columns
        rng, feats, bank, labels = loss_setup(3, batch=6)
        sset = sample(bank.num_classes, 0.5, labels, rng)
        protos = filled_prototypes(rng, bank.dim, bank.num_classes)
        extra = (protos,) if loss_name == "loss_stabilization" else ()
        margins = (64.0, 0.4, 0.2) if extra else (64.0, 0.4)
        loss = getattr(engine, loss_name)
        via_bank = loss(feats, labels, bank, *extra, sset, *margins)
        block = Tensor(bank.weight.data[:, sset.global_ids], requires_grad=True)
        via_block = loss(feats, labels, bank, *extra, sset, *margins, block)
        assert via_block.item() == pytest.approx(via_bank.item(), rel=1e-13)
        via_bank.backward()
        via_block.backward()
        np.testing.assert_allclose(block.grad, bank.weight.grad[:, sset.global_ids],
                                   rtol=1e-12, atol=1e-14)
        wrong = Tensor(np.ones((bank.dim, sset.size + 1)), requires_grad=True)
        with pytest.raises(ShapeError):
            loss(feats, labels, bank, *extra, sset, *margins, wrong)

    def test_alignment_perfectly_separated(self):
        dim, classes = 6, 6
        w = np.eye(dim)[:, :classes]
        bank = ClassifierBank(weight=Tensor(w, requires_grad=True))
        labels = np.array([0, 1, 2])
        feats = Tensor(w.T[labels])
        sset = sample(classes, 1.0, labels, rng_for(1))
        assert loss_alignment(feats, labels, bank, sset, 64.0, 0.4).item() < 1e-12

    def test_alignment_missing_positive_rejected(self):
        _, feats, bank, labels = loss_setup(2)
        wrong = SampleSet(global_ids=np.array([int(labels[0])]), num_classes=bank.num_classes)
        bad_labels = np.full_like(labels, (labels[0] + 1) % bank.num_classes)
        with pytest.raises(StateError):
            loss_alignment(feats, bad_labels, bank, wrong, 64.0, 0.4)

    def test_alignment_subset_never_exceeds_full(self):
        rng, feats, bank, labels = loss_setup(3)
        full = sample(bank.num_classes, 1.0, labels, rng)
        full_loss = loss_alignment(feats, labels, bank, full, 64.0, 0.4).item()
        for _ in range(20):
            sset = sample(bank.num_classes, float(rng.uniform(0.1, 0.9)), labels, rng)
            feats2 = Tensor(feats.data)
            assert loss_alignment(feats2, labels, bank, sset, 64.0, 0.4).item() <= full_loss

    def test_stabilization_gradients_skip_prototypes(self):
        rng, feats, bank, labels = loss_setup(4)
        protos = filled_prototypes(rng, bank.dim, bank.num_classes)
        snapshot = protos.E.tobytes()
        feats = Tensor(feats.data, requires_grad=True)
        sset = sample(bank.num_classes, 0.6, labels, rng)
        loss = loss_stabilization(feats, labels, bank, protos, sset, 16.0, 0.4, 0.4)
        loss.backward()
        assert feats.grad is not None and np.abs(feats.grad).sum() > 0
        assert bank.weight.grad is not None and np.abs(bank.weight.grad).sum() > 0
        assert protos.E.tobytes() == snapshot

    def test_stabilization_restricts_to_initialized_prototypes(self):
        rng, feats, bank, labels = loss_setup(5)
        protos = PrototypeBank(bank.dim, bank.num_classes)
        for cls in np.unique(labels):
            protos.update(int(cls), unit_rows(rng, 1, bank.dim)[0])
        sset = sample(bank.num_classes, 1.0, labels, rng)
        loss = loss_stabilization(feats, labels, bank, protos, sset, 16.0, 0.4, 0.4)
        assert np.isfinite(loss.item())

    def test_stabilization_uninitialized_positive_rejected(self):
        rng, feats, bank, labels = loss_setup(6)
        protos = PrototypeBank(bank.dim, bank.num_classes)  # nothing initialized
        sset = sample(bank.num_classes, 1.0, labels, rng)
        with pytest.raises(StateError):
            loss_stabilization(feats, labels, bank, protos, sset, 16.0, 0.4, 0.4)

    def test_refinement_equals_stabilization_on_full_set(self):
        rng, feats, bank, labels = loss_setup(7)
        protos = filled_prototypes(rng, bank.dim, bank.num_classes)
        sset = sample(bank.num_classes, 1.0, labels, rng)
        a = loss_stabilization(feats, labels, bank, protos, sset, 16.0, 0.4, 0.4).item()
        feats2 = Tensor(feats.data)
        b = loss_refinement(feats2, labels, bank, protos, 16.0, 0.4, 0.4).item()
        assert a == b

    def test_refinement_dominates_sampled_stabilization(self):
        rng, feats, bank, labels = loss_setup(8)
        protos = filled_prototypes(rng, bank.dim, bank.num_classes)
        full = loss_refinement(feats, labels, bank, protos, 16.0, 0.4, 0.4).item()
        for _ in range(10):
            sset = sample(bank.num_classes, float(rng.uniform(0.2, 0.8)), labels, rng)
            feats2 = Tensor(feats.data)
            sampled = loss_stabilization(
                feats2, labels, bank, protos, sset, 16.0, 0.4, 0.4
            ).item()
            assert sampled <= full

    def test_refinement_perfectly_separated(self):
        dim, classes = 6, 5
        w = np.eye(dim)[:, :classes]
        bank = ClassifierBank(weight=Tensor(w, requires_grad=True))
        labels = np.array([0, 3])
        feats = Tensor(w.T[labels])
        protos = PrototypeBank(dim, classes)
        for cls in range(classes):
            protos.update(cls, w[:, cls])
        assert loss_refinement(feats, labels, bank, protos, 64.0, 0.4, 0.4).item() < 1e-12


def sphere_fixture(seed=0, classes=4, dim=16):
    spec = SphereClusterSpec(num_classes=classes, dim=dim, kappa=60.0,
                             samples_per_class=25, seed=seed)
    return gen_sphere_dataset(spec)


def quick_config(**overrides):
    base = dict(seed=5, max_iterations=120, batch_size=24, r=0.5,
                weight_decay=0.05, learning_rate=1e-3)
    base.update(overrides)
    return TrainConfig(**base)


def fresh_encoder(dim=16):
    return MLPEncoder(input_dim=dim, hidden_dim=32, embed_dim=dim)


class TestTrainLoop:
    def test_visits_all_phases_and_improves(self):
        ds = sphere_fixture()
        ckpt, rows = train(quick_config(), ds, fresh_encoder())
        phases = [r.phase for r in rows]
        assert phases[0] == "alignment"
        assert "stabilization" in phases and "refinement" in phases
        order = [phases.index("alignment"), phases.index("stabilization"),
                 phases.index("refinement")]
        assert order == sorted(order)
        assert rows[-1].loss < rows[0].loss
        assert ckpt.stage.iteration == 120

    def test_unreachable_thresholds_stay_in_alignment(self):
        ds = sphere_fixture()
        _, rows = train(quick_config(delta1=1.0, delta2=1.0, max_iterations=60),
                        ds, fresh_encoder())
        assert {r.phase for r in rows} == {"alignment"}

    def test_phase_index_is_monotone(self):
        ds = sphere_fixture(1)
        _, rows = train(quick_config(seed=6), ds, fresh_encoder())
        order = {"alignment": 0, "stabilization": 1, "refinement": 2}
        indices = [order[r.phase] for r in rows]
        assert indices == sorted(indices)

    def test_css_smoothed_is_convex_combination(self):
        ds = sphere_fixture(2)
        _, rows = train(quick_config(seed=7, max_iterations=80), ds, fresh_encoder())
        raws = [r.css_raw for r in rows]
        for i, row in enumerate(rows):
            assert 0.0 <= row.css_raw <= 1.0
            assert min(raws[: i + 1]) - 1e-12 <= row.css_smoothed <= max(raws[: i + 1]) + 1e-12

    def test_deterministic_runs_bit_identical(self, tmp_path):
        ds = sphere_fixture(3)
        out = []
        for tag in ("a", "b"):
            log = tmp_path / f"{tag}.csv"
            ck = tmp_path / f"{tag}.lvpc"
            train(quick_config(seed=9, max_iterations=60), ds, fresh_encoder(),
                  log_path=log, checkpoint_path=ck)
            out.append((log.read_bytes(), ck.read_bytes()))
        assert out[0][0] == out[1][0]
        assert out[0][1] == out[1][1]

    def test_log_format(self, tmp_path):
        ds = sphere_fixture(4)
        log = tmp_path / "run.csv"
        _, rows = train(quick_config(max_iterations=5), ds, fresh_encoder(),
                        log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "alignment"
        assert len(first) == 6

    def test_fresh_run_replaces_existing_log(self, tmp_path):
        ds = sphere_fixture(4)
        log = tmp_path / "run.csv"
        for _ in range(2):
            train(quick_config(max_iterations=3), ds, fresh_encoder(), log_path=log)
        lines = log.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]

    def test_resume_reproduces_uninterrupted_log(self, tmp_path):
        ds = sphere_fixture(5)
        full_ckpt_path = tmp_path / "full.lvpc"
        _, full_rows = train(quick_config(seed=11, max_iterations=80), ds,
                             fresh_encoder(), checkpoint_path=full_ckpt_path)

        half_path = tmp_path / "half.lvpc"
        train(quick_config(seed=11, max_iterations=40), ds, fresh_encoder(),
              checkpoint_path=half_path)
        resumed_ckpt, resumed_rows = train(
            quick_config(seed=11, max_iterations=80), ds, fresh_encoder(),
            resume=load_checkpoint(half_path),
        )
        assert [r.to_csv() for r in resumed_rows] == [
            r.to_csv() for r in full_rows[40:]
        ]
        full = load_checkpoint(full_ckpt_path)
        assert resumed_ckpt.classifier.tobytes() == full.classifier.tobytes()
        for name, arr in full.encoder_arrays.items():
            assert resumed_ckpt.encoder_arrays[name].tobytes() == arr.tobytes()

    def test_classifier_layout_follows_the_step_through_resume(self, tmp_path, monkeypatch):
        """Sampled steps see a column-major classifier and moments, dense
        steps row-major ones, in a fresh run and in a resumed one."""
        layouts = []
        step = AdamW.step

        def recording_step(self, name, param, grad, *args, columns=None, **kwargs):
            step(self, name, param, grad, *args, columns=columns, **kwargs)
            if name == "classifier":
                arrays = (param, *self.moments[name])
                layouts.append((columns is not None,
                                [a.flags.f_contiguous and not a.flags.c_contiguous
                                 for a in arrays]))

        monkeypatch.setattr(AdamW, "step", recording_step)
        ds = sphere_fixture(5)
        half = tmp_path / "half.lvpc"
        train(quick_config(max_iterations=60), ds, fresh_encoder(), checkpoint_path=half)
        train(quick_config(), ds, fresh_encoder(), resume=load_checkpoint(half))
        assert len(layouts) == 120
        assert {sampled for sampled, _ in layouts} == {True, False}
        assert all(column_major == [sampled] * 3 for sampled, column_major in layouts)

    def test_unselected_columns_untouched_in_sampled_stages(self):
        ds = sphere_fixture(6, classes=12)
        cfg = quick_config(seed=13, max_iterations=1, r=0.25, batch_size=6,
                           delta1=1.0, delta2=1.0)
        enc = fresh_encoder()

        # reproduce the run's draws to learn which columns were selected
        probe_rng = np.random.Generator(np.random.Philox(cfg.seed))
        enc_probe = fresh_encoder()
        enc_probe.init(probe_rng)
        w0 = probe_rng.uniform(-1.0, 1.0, size=(16, 12))
        w0 /= np.linalg.norm(w0, axis=0, keepdims=True)
        batch = probe_rng.choice(ds.size, size=6, replace=False)
        sset = sample(12, 0.25, ds.labels[batch], probe_rng)

        ckpt, _ = train(cfg, ds, enc)
        untouched = np.setdiff1d(np.arange(12), sset.global_ids)
        assert ckpt.classifier[:, untouched].tobytes() == w0[:, untouched].tobytes()
        changed = ckpt.classifier[:, sset.global_ids] != w0[:, sset.global_ids]
        assert changed.any()

    def test_classifier_columns_unit_norm_after_training(self):
        ds = sphere_fixture(7)
        ckpt, _ = train(quick_config(seed=15, max_iterations=30), ds, fresh_encoder())
        norms = np.linalg.norm(ckpt.classifier, axis=0)
        np.testing.assert_allclose(norms, np.ones(4), atol=1e-12, rtol=0)

    def test_prototypes_untouched_in_alignment(self):
        ds = sphere_fixture(8)
        ckpt, rows = train(quick_config(seed=17, delta1=1.0, delta2=1.0,
                                        max_iterations=25), ds, fresh_encoder())
        assert {r.phase for r in rows} == {"alignment"}
        assert not ckpt.prototypes_initialized.any()

    def test_initialized_prototypes_unit_norm(self):
        ds = sphere_fixture(9)
        ckpt, rows = train(quick_config(seed=19), ds, fresh_encoder())
        assert "stabilization" in {r.phase for r in rows}
        active = ckpt.prototypes[:, ckpt.prototypes_initialized]
        norms = np.linalg.norm(active, axis=0)
        np.testing.assert_allclose(norms, np.ones(norms.size), atol=1e-12, rtol=0)

    def test_batch_size_vs_dataset_validated(self):
        ds = sphere_fixture(10)
        with pytest.raises(ConfigError):
            train(quick_config(batch_size=10_000), ds, fresh_encoder())

    def test_empty_dataset_rejected(self):
        empty = Dataset(inputs=np.zeros((0, 4)), labels=np.zeros(0, dtype=np.int64),
                        num_classes=2)
        with pytest.raises(ConfigError):
            train(quick_config(), empty, MLPEncoder(4, 8, 4))

    def test_checkpoint_written_on_abort(self, tmp_path):
        ds = sphere_fixture(11)
        enc = fresh_encoder()
        calls = {"n": 0}
        original = enc.forward

        def explode_later(inputs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise RuntimeError("synthetic failure")
            return original(inputs)

        enc.forward = explode_later
        ckpt_path = tmp_path / "abort.lvpc"
        with pytest.raises(RuntimeError):
            train(quick_config(seed=21, max_iterations=50), ds, enc,
                  checkpoint_path=ckpt_path)
        saved = load_checkpoint(ckpt_path)
        assert saved.stage.iteration == 3
        # the checkpoint is the boundary before iteration 4: resuming it
        # reproduces the uninterrupted run from there on
        _, full_rows = train(quick_config(seed=21, max_iterations=50), ds, fresh_encoder())
        _, resumed_rows = train(quick_config(seed=21, max_iterations=50), ds,
                                fresh_encoder(), resume=saved)
        assert [r.to_csv() for r in resumed_rows] == [r.to_csv() for r in full_rows[3:]]

    @pytest.mark.parametrize("loss_name, thresholds", [
        ("loss_stabilization", {}),  # stabilization from iteration 44
        ("loss_refinement", {"delta1": 0.01, "delta2": 0.01}),  # refinement from iteration 3
    ])
    def test_abort_in_a_prototype_loss_resumes_to_the_uninterrupted_log(
            self, tmp_path, monkeypatch, loss_name, thresholds):
        # the prototypes have folded the failing iteration's batch when its loss raises
        ds = sphere_fixture(11)
        cfg = quick_config(seed=21, max_iterations=60, **thresholds)
        _, full_rows = train(cfg, ds, fresh_encoder())
        original = getattr(engine, loss_name)
        calls = {"n": 0}

        def explode_on_the_5th(*args):
            calls["n"] += 1
            if calls["n"] == 5:
                raise RuntimeError("synthetic failure")
            return original(*args)

        monkeypatch.setattr(engine, loss_name, explode_on_the_5th)
        ckpt_path = tmp_path / "abort.lvpc"
        with pytest.raises(RuntimeError):
            train(cfg, ds, fresh_encoder(), checkpoint_path=ckpt_path)
        monkeypatch.setattr(engine, loss_name, original)
        saved = load_checkpoint(ckpt_path)
        done = saved.stage.iteration
        assert full_rows[done].phase == loss_name.removeprefix("loss_")
        _, resumed_rows = train(cfg, ds, fresh_encoder(), resume=saved)
        assert [r.to_csv() for r in resumed_rows] == [r.to_csv() for r in full_rows[done:]]

    def test_abort_after_the_iteration_counted_resumes_after_it(self, tmp_path, monkeypatch):
        # iteration 4 has stepped and counted itself when the scheduler fails
        ds = sphere_fixture(11)
        _, full_rows = train(quick_config(seed=21, max_iterations=20), ds, fresh_encoder())
        original = engine.step_scheduler

        def explode_at_4(state, *args):
            original(state, *args)
            if state.iteration == 4:
                raise RuntimeError("synthetic failure")

        monkeypatch.setattr(engine, "step_scheduler", explode_at_4)
        ckpt_path = tmp_path / "abort.lvpc"
        with pytest.raises(RuntimeError):
            train(quick_config(seed=21, max_iterations=20), ds, fresh_encoder(),
                  checkpoint_path=ckpt_path)
        monkeypatch.setattr(engine, "step_scheduler", original)
        saved = load_checkpoint(ckpt_path)
        assert saved.stage.iteration == 4
        _, resumed_rows = train(quick_config(seed=21, max_iterations=20), ds,
                                fresh_encoder(), resume=saved)
        assert [r.to_csv() for r in resumed_rows] == [r.to_csv() for r in full_rows[4:]]

    @pytest.mark.parametrize("thresholds", [
        {},  # alignment: the classifier gradient is a sampled block
        {"delta1": 0.01, "delta2": 0.01},  # refinement from iteration 3: a dense gradient
    ], ids=["sampled", "dense"])
    @pytest.mark.parametrize("poisoned", ["classifier", "encoder"])
    def test_non_finite_gradient_moves_no_parameter(
            self, tmp_path, monkeypatch, thresholds, poisoned):
        # one gradient of the 5th iteration turns NaN after backward
        ds = sphere_fixture(11)
        cfg = quick_config(seed=21, max_iterations=12, **thresholds)
        _, full_rows = train(cfg, ds, fresh_encoder())
        boundary, _ = train(quick_config(seed=21, max_iterations=4, **thresholds), ds,
                            fresh_encoder())
        enc = fresh_encoder()
        backward = Tensor.backward
        calls = {"n": 0}

        def poison_the_5th(root):
            encoder = {id(t) for _, t in enc.params()}
            leaves = [t for t in T._topological_order(root)
                      if t.requires_grad and not t._parents and id(t) not in encoder]
            backward(root)
            calls["n"] += 1
            if calls["n"] == 5:
                (classifier,) = leaves
                target = classifier if poisoned == "classifier" else list(enc.params())[-1][1]
                target.grad[0] = np.nan

        monkeypatch.setattr(Tensor, "backward", poison_the_5th)
        ckpt_path = tmp_path / "abort.lvpc"
        with pytest.raises(NumericError, match=f"'{poisoned}"):
            train(cfg, ds, enc, checkpoint_path=ckpt_path)
        monkeypatch.setattr(Tensor, "backward", backward)
        saved = load_checkpoint(ckpt_path)
        assert saved.stage.iteration == 4
        for name, arr in boundary.encoder_arrays.items():
            assert saved.encoder_arrays[name].tobytes() == arr.tobytes(), name
        for name, arr in boundary.optimizer_arrays.items():
            assert saved.optimizer_arrays[name].tobytes() == arr.tobytes(), name
        assert saved.optimizer_counts == boundary.optimizer_counts
        assert saved.classifier.tobytes() == boundary.classifier.tobytes()
        _, resumed_rows = train(cfg, ds, fresh_encoder(), resume=saved)
        assert [r.to_csv() for r in resumed_rows] == [r.to_csv() for r in full_rows[4:]]

    def test_resume_arch_mismatch_rejected(self, tmp_path):
        ds = sphere_fixture(12)
        path = tmp_path / "m.lvpc"
        train(quick_config(seed=23, max_iterations=10), ds, fresh_encoder(),
              checkpoint_path=path)
        wrong = MLPEncoder(input_dim=16, hidden_dim=8, embed_dim=16)
        with pytest.raises(ConfigError):
            train(quick_config(seed=23, max_iterations=20), ds, wrong,
                  resume=load_checkpoint(path))

    def test_embed_dataset_matches_forward(self):
        ds = sphere_fixture(13)
        enc = fresh_encoder()
        enc.init(rng_for(0))
        full = embed_dataset(enc, ds.inputs, batch_size=7)
        direct = enc.forward(ds.inputs).data
        assert full.tobytes() == direct.tobytes()


def sampled_iteration_peak_bytes(num_classes, monkeypatch, selected=1000):
    """Peak traced allocation from ``backward`` to the end of the optimizer
    steps (classifier renormalization included) of the second sampled
    iteration, with ``selected`` classes in every sample set."""
    rng = rng_for(31)
    ds = Dataset(inputs=rng.standard_normal((64, 32)),
                 labels=rng.integers(0, num_classes, size=64), num_classes=num_classes)
    cfg = TrainConfig(seed=3, max_iterations=2, batch_size=64, r=selected / num_classes,
                      delta1=1.0, delta2=1.0)
    backward, step_scheduler = Tensor.backward, engine.step_scheduler
    peaks = []

    def traced_backward(root):
        tracemalloc.start()
        backward(root)

    def untraced_scheduler(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        return step_scheduler(*args)

    monkeypatch.setattr(Tensor, "backward", traced_backward)
    monkeypatch.setattr(engine, "step_scheduler", untraced_scheduler)
    try:
        train(cfg, ds, MLPEncoder(32, 64, 32))
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return peaks[-1]


def test_sampled_iteration_allocation_does_not_grow_with_classes(monkeypatch):
    small = sampled_iteration_peak_bytes(10_000, monkeypatch)
    large = sampled_iteration_peak_bytes(100_000, monkeypatch)
    # A (d, C) gradient alone would add d * C * 8 = 23 MB at C = 100k over 10k.
    assert abs(large - small) < 0.01 * small, f"peak {large} bytes at C = 100k vs {small} at 10k"

