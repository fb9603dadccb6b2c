import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheretrain import tensor as T
from spheretrain.errors import DomainError, ShapeError
from spheretrain.losses import ClassifierBank, cosface_loss, cosine_logits
from spheretrain.sampler import SampleSet, gather_columns, sample
from spheretrain.tensor import Tensor, finite_difference_check


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def gather_adjoint(grad_sub, sample_set, num_classes):
    """The classifier gradient that backward through ``gather_columns``
    scatters from the gathered block's gradient ``grad_sub``."""
    w = Tensor(np.ones((grad_sub.shape[0], num_classes)), requires_grad=True)
    sub = gather_columns(ClassifierBank(weight=w), sample_set)
    T.reduce_sum(T.mul(sub, Tensor(grad_sub))).backward()
    return w.grad


class TestSample:
    def test_target_size_at_paper_ratio(self):
        rng = rng_for(0)
        labels = rng.integers(0, 1000, size=60)  # at most 60 distinct positives
        sset = sample(1000, 0.1, labels, rng)
        assert sset.size == 100

    def test_full_ratio_returns_everything_in_order(self):
        sset = sample(7, 1.0, [3, 3, 5], rng_for(1))
        np.testing.assert_array_equal(sset.global_ids, np.arange(7))

    def test_positives_always_included(self):
        rng = rng_for(2)
        for _ in range(50):
            labels = rng.integers(0, 40, size=8)
            sset = sample(40, 0.1, labels, rng)
            assert set(np.unique(labels)) <= set(sset.global_ids.tolist())

    def test_set_grows_past_target_when_positives_demand_it(self):
        labels = np.arange(12)  # 12 distinct positives, target is 4
        sset = sample(40, 0.1, labels, rng_for(3))
        assert sset.size == 12
        np.testing.assert_array_equal(sset.global_ids, labels)

    def test_minimum_size_one(self):
        sset = sample(30, 0.01, [4], rng_for(4))
        assert sset.size == 1

    def test_ratio_out_of_range(self):
        with pytest.raises(DomainError):
            sample(10, 0.0, [0], rng_for(5))
        with pytest.raises(DomainError):
            sample(10, 1.5, [0], rng_for(5))

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            sample(10, 0.5, [10], rng_for(6))

    def test_negative_sampling_is_uniform(self):
        # C=50, r=0.2: one positive plus 9 slots over 49 candidates; every
        # negative should appear with frequency 9/49 within 3 sigma over 10^4
        # draws
        rng = rng_for(7)
        draws = 10_000
        counts = np.zeros(50)
        for _ in range(draws):
            sset = sample(50, 0.2, [0], rng)
            counts[sset.global_ids] += 1
        counts = counts[1:]  # the positive is always present
        p = 9.0 / 49.0
        sigma = np.sqrt(draws * p * (1 - p))
        assert (np.abs(counts - draws * p) <= 3 * sigma).all()

    def test_bit_reproducible_for_equal_state(self):
        rng_a = rng_for(8)
        rng_b = rng_for(8)
        labels = [3, 9, 9, 14]
        a = sample(60, 0.15, labels, rng_a)
        b = sample(60, 0.15, labels, rng_b)
        np.testing.assert_array_equal(a.global_ids, b.global_ids)

    def test_seed_state_snapshot_restores_draw(self):
        rng = rng_for(9)
        rng.standard_normal(3)
        snapshot = copy.deepcopy(rng.bit_generator.state)
        first = sample(60, 0.15, [2], rng)
        replay = rng_for(0)
        replay.bit_generator.state = snapshot
        again = sample(60, 0.15, [2], replay)
        np.testing.assert_array_equal(first.global_ids, again.global_ids)

    def test_local_labels_roundtrip(self):
        sset = sample(20, 0.5, [4, 17, 4], rng_for(10))
        local = sset.local_labels([4, 17, 4])
        np.testing.assert_array_equal(sset.global_ids[local], [4, 17, 4])


def candidate_list_sample(num_classes, r, labels, rng):
    """The draw ``sample`` made before it stopped listing all C ids: every
    non-positive id in a candidate array, then ``rng.choice`` from it."""
    positives = np.unique(np.asarray(labels, dtype=np.int64))
    extra = max(1, round(num_classes * r)) - positives.size
    if extra <= 0:
        return positives
    candidates = np.setdiff1d(np.arange(num_classes, dtype=np.int64), positives)
    chosen = rng.choice(candidates, size=min(extra, candidates.size), replace=False)
    return np.sort(np.concatenate([positives, chosen]))


def rng_state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@st.composite
def sampling_cases(draw):
    num_classes = draw(st.integers(2, 3000))
    r = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=1, max_size=64))
    return num_classes, r, labels, draw(st.integers(0, 2**32 - 1))


class TestSampleMatchesCandidateListDraw:
    @settings(max_examples=300, deadline=None)
    @given(case=sampling_cases())
    @example(case=(10, 0.1, [3, 3, 7, 0], 1))  # positives already fill the target
    @example(case=(5, 0.99, [0, 1, 2, 3], 2))  # one candidate left
    @example(case=(3000, 0.5, list(range(0, 3000, 47)), 3))
    def test_same_ids_and_rng_state(self, case):
        num_classes, r, labels, seed = case
        rng_new, rng_old = rng_for(seed), rng_for(seed)
        got = sample(num_classes, r, labels, rng_new)
        np.testing.assert_array_equal(
            got.global_ids, candidate_list_sample(num_classes, r, labels, rng_old)
        )
        assert rng_state(rng_new) == rng_state(rng_old)


class TestGatherScatter:
    def test_full_set_preserves_bank(self):
        rng = rng_for(11)
        bank = ClassifierBank.init_random(6, 9, rng)
        sset = sample(9, 1.0, [0], rng)
        sub = gather_columns(bank, sset)
        np.testing.assert_array_equal(sub.data, bank.weight.data)

    def test_singleton(self):
        rng = rng_for(12)
        bank = ClassifierBank.init_random(5, 8, rng)
        sset = SampleSet(global_ids=np.array([3]), num_classes=8)
        sub = gather_columns(bank, sset)
        np.testing.assert_array_equal(sub.data[:, 0], bank.weight.data[:, 3])

    def test_gather_scatter_round_trip(self):
        rng = rng_for(13)
        sset = sample(12, 0.4, [1, 5], rng)
        grad_sub = rng.standard_normal((4, sset.size))
        full = gather_adjoint(grad_sub, sset, 12)
        np.testing.assert_array_equal(full[:, sset.global_ids], grad_sub)
        others = np.setdiff1d(np.arange(12), sset.global_ids)
        assert (full[:, others] == 0.0).all()

    def test_scatter_all_classes_is_inverse_permutation(self):
        rng = rng_for(14)
        sset = sample(6, 1.0, [0], rng)
        grad_sub = rng.standard_normal((3, 6))
        np.testing.assert_array_equal(gather_adjoint(grad_sub, sset, 6), grad_sub)

    def test_scatter_zero_gradient(self):
        sset = sample(5, 0.4, [2], rng_for(15))
        out = gather_adjoint(np.zeros((3, sset.size)), sset, 5)
        assert (out == 0).all()

    def test_gradient_through_gather(self):
        rng = rng_for(17)
        feats = unit_rows(rng, 3, 5)
        labels = np.array([0, 2, 1])
        bank = ClassifierBank.init_random(5, 10, rng)
        sset = sample(10, 0.5, labels, rng)
        local = sset.local_labels(labels)

        def f(w):
            probe_bank = ClassifierBank(weight=w)
            sub = gather_columns(probe_bank, sset)
            return cosface_loss(cosine_logits(Tensor(feats), sub, local), 16.0, 0.4)

        assert finite_difference_check(f, Tensor(bank.weight.data)) < 1e-5

        w = Tensor(bank.weight.data.copy(), requires_grad=True)
        f(w).backward()
        unselected = np.setdiff1d(np.arange(10), sset.global_ids)
        assert (w.grad[:, unselected] == 0.0).all()
        assert np.abs(w.grad[:, sset.global_ids]).sum() > 0


class TestLossOrdering:
    def test_sampled_loss_never_exceeds_full(self):
        rng = rng_for(18)
        for _ in range(100):
            dim, classes, batch = 6, 25, 4
            feats = unit_rows(rng, batch, dim)
            bank = ClassifierBank.init_random(dim, classes, rng)
            labels = rng.integers(0, classes, size=batch)
            r = float(rng.uniform(0.05, 0.9))
            sset = sample(classes, r, labels, rng)
            local = sset.local_labels(labels)
            sub = gather_columns(bank, sset)
            sampled = cosface_loss(
                cosine_logits(Tensor(feats), sub, local), 64.0, 0.4
            ).item()
            full = cosface_loss(
                cosine_logits(Tensor(feats), bank.weight, labels), 64.0, 0.4
            ).item()
            assert sampled <= full
