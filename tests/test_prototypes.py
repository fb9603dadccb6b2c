import numpy as np
import pytest

from spheretrain.errors import DomainError, ShapeError, StateError
from spheretrain.losses import COSINE_CLAMP, cosface_loss, cosine_logits
from spheretrain.prototypes import PrototypeBank, _logistic
from spheretrain.tensor import Tensor


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def cos_to_prototypes(bank, features, class_ids):
    """Clamped cosines between feature rows and the selected prototypes."""
    labels = np.zeros(features.shape[0], dtype=np.int64)
    return cosine_logits(features, bank.columns(class_ids), labels).values


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class TestUpdate:
    def test_first_sample_copied_exactly(self):
        bank = PrototypeBank(4, 3)
        x = unit([1.0, 2.0, -1.0, 0.5])
        bank.update(1, x)
        assert bank.initialized[1]
        assert not bank.initialized[0]
        assert bank.E[:, 1].tobytes() == x.tobytes()

    def test_identical_feature_is_bitexact_fixed_point(self):
        bank = PrototypeBank(4, 2)
        x = unit([0.3, -0.7, 0.2, 0.1])
        bank.update(0, x)
        before = bank.E[:, 0].tobytes()
        for _ in range(3):
            bank.update(0, x)
        assert bank.E[:, 0].tobytes() == before

    def test_orthogonal_update_hand_value(self):
        # e=[1,0], x=[0,1]: alpha = logistic(0) = 0.5, pre-norm [0.5, 0.5]
        bank = PrototypeBank(2, 1)
        bank.update(0, np.array([1.0, 0.0]))
        bank.update(0, np.array([0.0, 1.0]))
        np.testing.assert_allclose(bank.E[:, 0], [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)

    def test_unit_norm_after_random_sequences(self):
        rng = rng_for(0)
        bank = PrototypeBank(6, 4)
        for _ in range(200):
            bank.update(int(rng.integers(0, 4)), unit_rows(rng, 1, 6)[0])
        norms = np.linalg.norm(bank.E[:, bank.initialized], axis=0)
        np.testing.assert_allclose(norms, np.ones(norms.size), atol=1e-12, rtol=0)

    def test_mixing_coefficient_stays_in_unit_interval(self):
        for z in (-1.0, -0.5, 0.0, 0.5, 1.0, 1.0 + 1e-12):
            alpha = _logistic(z)
            assert 0.0 < alpha < 1.0

    def test_constant_class_converges_immediately(self):
        bank = PrototypeBank(3, 1)
        v = unit([1.0, 1.0, 1.0])
        bank.update(0, v)
        assert bank.E[:, 0].tobytes() == v.tobytes()
        for _ in range(5):
            bank.update(0, v)
            assert bank.E[:, 0].tobytes() == v.tobytes()

    def test_class_out_of_range(self):
        bank = PrototypeBank(3, 2)
        with pytest.raises(StateError):
            bank.update(2, unit([1.0, 0.0, 0.0]))

    def test_non_unit_feature_rejected(self):
        bank = PrototypeBank(3, 2)
        with pytest.raises(DomainError):
            bank.update(0, np.array([2.0, 0.0, 0.0]))

    def test_update_pulls_toward_feature(self):
        bank = PrototypeBank(2, 1)
        bank.update(0, np.array([1.0, 0.0]))
        x = unit([0.6, 0.8])
        old_cos = float(bank.E[:, 0] @ x)
        bank.update(0, x)
        assert float(bank.E[:, 0] @ x) > old_cos


class TestBatchUpdate:
    def test_single_sample_equals_update(self):
        a = PrototypeBank(4, 3)
        b = PrototypeBank(4, 3)
        x = unit_rows(rng_for(1), 1, 4)
        a.batch_update([2], x)
        b.update(2, x[0])
        assert a.E.tobytes() == b.E.tobytes()

    def test_repeated_samples_apply_in_order(self):
        rng = rng_for(2)
        x = unit_rows(rng, 2, 4)
        a = PrototypeBank(4, 1)
        a.batch_update([0, 0], x)
        b = PrototypeBank(4, 1)
        b.update(0, x[0])
        b.update(0, x[1])
        assert a.E.tobytes() == b.E.tobytes()

    def test_order_sensitivity(self):
        rng = rng_for(3)
        x = unit_rows(rng, 3, 4)  # first sample initializes, next two mix
        a = PrototypeBank(4, 1)
        a.batch_update([0, 0, 0], x)
        b = PrototypeBank(4, 1)
        b.batch_update([0, 0, 0], x[[0, 2, 1]])
        assert not np.array_equal(a.E, b.E)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            PrototypeBank(4, 2).batch_update([0, 1], unit_rows(rng_for(4), 3, 4))


class TestCosToPrototypes:
    def test_matching_column_hits_clamp(self):
        bank = PrototypeBank(4, 2)
        x = unit([1.0, 0.0, 0.0, 0.0])
        bank.update(0, x)
        cos = cos_to_prototypes(bank, Tensor(x.reshape(1, 4)), [0])
        assert cos.data[0, 0] == 1.0 - COSINE_CLAMP

    def test_orthogonal_is_zero(self):
        bank = PrototypeBank(2, 1)
        bank.update(0, np.array([1.0, 0.0]))
        cos = cos_to_prototypes(bank, Tensor(np.array([[0.0, 1.0]])), [0])
        assert cos.data[0, 0] == 0.0

    def test_matches_scalar_loop(self):
        rng = rng_for(5)
        bank = PrototypeBank(6, 4)
        for cls in range(4):
            bank.update(cls, unit_rows(rng, 1, 6)[0])
        feats = unit_rows(rng, 3, 6)
        cos = cos_to_prototypes(bank, Tensor(feats), [2, 0, 3]).data
        for i, row in enumerate(feats):
            for j, cls in enumerate([2, 0, 3]):
                expected = sum(row[k] * bank.E[k, cls] for k in range(6))
                assert abs(cos[i, j] - expected) < 1e-12

    def test_uninitialized_query_names_class(self):
        bank = PrototypeBank(4, 3)
        bank.update(0, unit([1.0, 0, 0, 0]))
        with pytest.raises(StateError, match="class 2"):
            bank.columns([0, 2])

    def test_gradient_reaches_features_only(self):
        rng = rng_for(6)
        bank = PrototypeBank(5, 3)
        for cls in range(3):
            bank.update(cls, unit_rows(rng, 1, 5)[0])
        snapshot = bank.E.tobytes()
        feats = Tensor(unit_rows(rng, 2, 5), requires_grad=True)
        columns = bank.columns([0, 1, 2])
        cosface_loss(cosine_logits(feats, columns, [0, 2]), 16.0, 0.2).backward()
        assert feats.grad is not None and columns.grad is None
        assert bank.E.tobytes() == snapshot

    def test_initialized_ids_filters(self):
        bank = PrototypeBank(4, 5)
        bank.update(1, unit([1, 0, 0, 0]))
        bank.update(3, unit([0, 1, 0, 0]))
        np.testing.assert_array_equal(bank.initialized_ids(), [1, 3])
        np.testing.assert_array_equal(bank.initialized_ids([0, 1, 2]), [1])
