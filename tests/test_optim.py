import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheretrain import optim
from spheretrain.errors import NumericError, ShapeError
from spheretrain.losses import ClassifierBank, unit_columns
from spheretrain.optim import ADAM_EPS, AdamW


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestAdamW:
    def test_zero_gradient_zero_decay_is_identity(self):
        opt = AdamW()
        p = rng_for(0).standard_normal((3, 4))
        before = p.tobytes()
        opt.step("p", p, np.zeros_like(p), lr=0.1, weight_decay=0.0)
        assert p.tobytes() == before

    def test_first_step_is_sign_step(self):
        opt = AdamW()
        rng = rng_for(1)
        p = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 4))
        expected = p - 0.01 * g / (np.abs(g) + ADAM_EPS)
        opt.step("p", p, g, lr=0.01, weight_decay=0.0)
        np.testing.assert_allclose(p, expected, atol=1e-15, rtol=0)

    def test_decay_shrinks_with_zero_gradient(self):
        opt = AdamW()
        p = rng_for(2).standard_normal((2, 5))
        before = p.copy()
        opt.step("p", p, np.zeros_like(p), lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p, before * (1.0 - 0.1 * 0.5), atol=1e-15, rtol=0)

    def test_column_restricted_step_leaves_rest_untouched(self):
        opt = AdamW()
        rng = rng_for(3)
        p = rng.standard_normal((4, 8))
        g = rng.standard_normal((4, 8))
        cols = np.array([1, 5])
        others = np.setdiff1d(np.arange(8), cols)
        before = p[:, others].tobytes()
        for _ in range(5):
            opt.step("p", p, g, lr=0.01, weight_decay=0.3, columns=cols)
        assert p[:, others].tobytes() == before
        m, v = opt.moments["p"]
        assert (m[:, others] == 0.0).all() and (v[:, others] == 0.0).all()
        assert np.abs(p[:, cols] - g[:, cols]).sum() > 0  # selected columns moved

    def test_column_step_matches_dense_step_on_selected(self):
        rng = rng_for(4)
        p_dense = rng.standard_normal((3, 6))
        p_cols = p_dense.copy()
        g = rng.standard_normal((3, 6))
        dense, sparse = AdamW(), AdamW()
        dense.step("p", p_dense, g, lr=0.05, weight_decay=0.1)
        sparse.step("p", p_cols, g, lr=0.05, weight_decay=0.1, columns=np.arange(6))
        np.testing.assert_array_equal(p_dense, p_cols)

    def test_non_finite_gradient_aborts_with_name(self):
        opt = AdamW()
        p = np.ones((2, 2))
        g = np.array([[1.0, np.nan], [0.0, 0.0]])
        with pytest.raises(NumericError, match="'w'"):
            opt.step("w", p, g, lr=0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            AdamW().step("p", np.ones((2, 2)), np.ones((2, 3)), lr=0.1)

    def test_bias_correction_against_reference_loop(self):
        # independent scalar reference of the update rule over several steps
        opt = AdamW(beta1=0.9, beta2=0.999)
        rng = rng_for(5)
        p = np.array([0.5])
        ref = p.copy()
        m = v = 0.0
        for t in range(1, 8):
            g = rng.standard_normal(1)
            opt.step("p", p, g, lr=0.01, weight_decay=0.2)
            m = 0.9 * m + 0.1 * g[0]
            v = 0.999 * v + 0.001 * g[0] ** 2
            mhat = m / (1 - 0.9**t)
            vhat = v / (1 - 0.999**t)
            ref[0] -= 0.01 * (mhat / (np.sqrt(vhat) + ADAM_EPS) + 0.2 * ref[0])
            np.testing.assert_allclose(p, ref, atol=1e-14, rtol=0)

    def test_state_round_trip(self):
        opt = AdamW()
        rng = rng_for(6)
        p = rng.standard_normal((2, 3))
        for _ in range(3):
            opt.step("a", p, rng.standard_normal((2, 3)), lr=0.01)
        arrays = {k: v.copy() for k, v in opt.state_arrays().items()}
        counts = dict(opt.step_counts)
        fresh = AdamW()
        fresh.restore(arrays, counts)
        assert fresh.step_counts == opt.step_counts
        np.testing.assert_array_equal(fresh.moments["a"][0], opt.moments["a"][0])
        np.testing.assert_array_equal(fresh.moments["a"][1], opt.moments["a"][1])


def column_major(a):
    return np.asfortranarray(a)


class TestRestrictedStep:
    """``columns=`` steps on a class-contiguous (column-major) parameter."""

    def sparse_grad(self, rng, shape, cols):
        g = np.zeros(shape, order="F")
        g[:, cols] = rng.standard_normal((shape[0], len(cols)))
        return g

    def test_unselected_columns_and_moments_bit_identical(self):
        rng = rng_for(7)
        p = column_major(rng.standard_normal((5, 30)))
        opt = AdamW()
        opt.step("p", p, column_major(rng.standard_normal((5, 30))), lr=0.01, weight_decay=0.2)
        for _ in range(4):
            cols = np.sort(rng.choice(30, size=6, replace=False))
            others = np.setdiff1d(np.arange(30), cols)
            m, v = opt.moments["p"]
            before = [a[:, others].tobytes() for a in (p, m, v)]
            selected = [a[:, cols].copy() for a in (p, m, v)]
            opt.step("p", p, self.sparse_grad(rng, p.shape, cols), lr=0.01, weight_decay=0.2,
                     columns=cols)
            m, v = opt.moments["p"]
            assert [a[:, others].tobytes() for a in (p, m, v)] == before
            assert all((a[:, cols] != b).any() for a, b in zip((p, m, v), selected))

    def test_layout_does_not_change_the_bits(self):
        """A parameter that switches memory order between steps, as the
        classifier does between sampled and dense steps, gets the bits of
        one that stays row-major, and its moments follow its order."""
        rng = rng_for(8)
        p_rows = rng.standard_normal((4, 25))
        p_switch = p_rows.copy()
        by_rows, by_switch = AdamW(), AdamW()
        for step in range(6):
            cols = np.sort(rng.choice(25, size=7, replace=False)) if step % 3 else None
            p_switch = column_major(p_switch) if step % 2 else np.ascontiguousarray(p_switch)
            g = rng.standard_normal((4, 25))
            by_rows.step("p", p_rows, g, lr=0.03, weight_decay=0.1, columns=cols)
            by_switch.step("p", p_switch, column_major(g) if step % 2 else g,
                           lr=0.03, weight_decay=0.1, columns=cols)
            assert all(a.strides == p_switch.strides for a in by_switch.moments["p"])
        assert p_rows.tobytes() == p_switch.tobytes(order="C")

    def test_nan_in_selected_column_names_its_class(self):
        p = column_major(np.ones((3, 50)))
        g = np.zeros((3, 50), order="F")
        g[2, 37] = np.nan
        opt = AdamW()
        with pytest.raises(NumericError, match=r"'classifier' at index \(2, 37\)"):
            opt.step("classifier", p, g, lr=0.1, columns=np.array([5, 37, 40]))
        assert (p == 1.0).all() and "classifier" not in opt.step_counts

    def test_only_selected_columns_are_checked(self):
        p = column_major(np.ones((3, 50)))
        g = np.zeros((3, 50), order="F")
        g[0, 6] = np.inf  # outside the selected columns
        g[:, 5] = 1.0
        AdamW().step("p", p, g, lr=0.1, columns=np.array([5, 37]))
        assert (p[:, 5] < 1.0).all() and (p[:, 6] == 1.0).all()


def restricted_step_peak_bytes(num_classes, dim=32, selected=1000):
    """Peak traced allocation of one ``columns=`` step once the moments exist."""
    rng = rng_for(10)
    p = column_major(rng.uniform(-1.0, 1.0, size=(dim, num_classes)))
    ids = np.sort(rng.choice(num_classes, size=selected, replace=False))
    g = np.zeros_like(p)
    g[:, ids] = rng.standard_normal((dim, selected))
    opt = AdamW()
    opt.step("classifier", p, g, lr=1e-3, weight_decay=0.1, columns=ids)
    tracemalloc.start()
    try:
        opt.step("classifier", p, g, lr=1e-3, weight_decay=0.1, columns=ids)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_restricted_step_allocation_does_not_grow_with_classes():
    small, large = restricted_step_peak_bytes(10_000), restricted_step_peak_bytes(100_000)
    # Equal up to numpy's bookkeeping (a few hundred bytes); one temporary
    # over all C columns would add at least d * C = 3.2 MB at C = 100k.
    assert abs(large - small) < 0.01 * small, f"peak {large} bytes at C = 100k vs {small} at 10k"


def reference_column_step(moments, p, grad, idx, t, lr, weight_decay, beta1=0.9, beta2=0.999):
    """The column-restricted step and re-normalization written out plainly:
    read the selected columns out of a full gradient, write every result
    column back, then rescale those columns to unit norm."""
    m, v = moments
    g = grad[:, idx]
    m_sel = beta1 * m[:, idx] + (1.0 - beta1) * g
    v_sel = beta2 * v[:, idx] + (1.0 - beta2) * g * g
    m[:, idx] = m_sel
    v[:, idx] = v_sel
    update = (m_sel / (1.0 - beta1**t)) / (np.sqrt(v_sel / (1.0 - beta2**t)) + ADAM_EPS)
    p_sel = p[:, idx]
    if weight_decay:
        update = update + weight_decay * p_sel
    p_sel -= lr * update
    p[:, idx] = p_sel
    block = p[:, idx]
    p[:, idx] = block / np.linalg.norm(block, axis=0, keepdims=True)


def reference_dense_step(moments, p, grad, t, lr, weight_decay, beta1=0.9, beta2=0.999):
    """The dense step, then ``renormalize_columns()`` of every column."""
    m, v = moments
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    update = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + ADAM_EPS)
    if weight_decay:
        update = update + weight_decay * p
    p -= lr * update
    p /= np.linalg.norm(p, axis=0, keepdims=True)


class TestBlockStep:
    """``AdamW.step`` on a (d, |columns|) block gradient, against the step
    on a zero-filled (d, C) gradient followed by ``renormalize_columns``,
    and the dense step with ``project`` against ``renormalize_columns()``."""

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 9),
        classes=st.integers(2, 40),
        steps=st.integers(1, 4),
        weight_decay=st.sampled_from([0.0, 0.05, 0.3]),
        column_major=st.booleans(),
        selection=st.sampled_from(["some", "all", "dense"]),
        chunk=st.sampled_from([1 << 14, 1, 7, 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(dim=2, classes=2, steps=1, weight_decay=0.0, column_major=False, selection="all",
             chunk=1 << 14, seed=0)
    def test_block_step_matches_the_zero_filled_oracle(
            self, dim, classes, steps, weight_decay, column_major, selection, chunk, seed):
        # "dense" steps every column with columns=None
        rng = rng_for(seed)
        order = "F" if column_major else "C"
        w = np.array(rng.uniform(-1.0, 1.0, size=(dim, classes)), order=order)
        w /= np.linalg.norm(w, axis=0, keepdims=True)
        ref = w.copy(order=order)
        ref_moments = (np.zeros_like(ref), np.zeros_like(ref))
        opt = AdamW()
        with mock.patch.object(optim, "_CHUNK_ENTRIES", chunk):
            for t in range(1, steps + 1):
                size = int(rng.integers(1, classes + 1)) if selection == "some" else classes
                ids = np.sort(rng.choice(classes, size=size, replace=False))
                block = np.array(rng.standard_normal((dim, size)), order=order)
                full = np.zeros_like(ref)
                full[:, ids] = block
                if selection == "dense":
                    reference_dense_step(ref_moments, ref, full, t, 1e-2, weight_decay)
                else:
                    reference_column_step(ref_moments, ref, full, ids, t, 1e-2, weight_decay)
                opt.step("classifier", w, full if selection == "dense" else block, 1e-2,
                         weight_decay, columns=None if selection == "dense" else ids,
                         project=unit_columns)
                assert w.tobytes() == ref.tobytes()
                assert [a.tobytes() for a in opt.moments["classifier"]] == [
                    a.tobytes() for a in ref_moments]

    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(2, 6), classes=st.integers(2, 30), column_major=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_full_gradient_with_columns_matches_the_oracle(self, dim, classes, column_major,
                                                           seed):
        # criterion 3's path: a (d, C) gradient, then renormalize_columns
        rng = rng_for(seed)
        order = "F" if column_major else "C"
        bank = ClassifierBank.init_random(dim, classes, rng)
        bank.weight.data = np.array(bank.weight.data, order=order)
        ref = bank.weight.data.copy(order=order)
        ref_moments = (np.zeros_like(ref), np.zeros_like(ref))
        opt = AdamW()
        for t in range(1, 4):
            ids = np.sort(rng.choice(classes, size=int(rng.integers(1, classes + 1)),
                                     replace=False))
            grad = np.array(rng.standard_normal((dim, classes)), order=order)
            reference_column_step(ref_moments, ref, grad, ids, t, 1e-2, 0.05)
            opt.step("classifier", bank.weight.data, grad, 1e-2, 0.05, columns=ids)
            bank.renormalize_columns(ids)
            assert bank.weight.data.tobytes() == ref.tobytes()
            assert [a.tobytes() for a in opt.moments["classifier"]] == [
                a.tobytes() for a in ref_moments]

    def test_block_of_the_wrong_width_rejected(self):
        with pytest.raises(ShapeError):
            AdamW().step("p", np.ones((3, 10)), np.ones((3, 4)), 0.1, columns=np.arange(3))

    def test_nan_in_a_block_names_its_class(self):
        p = column_major(np.ones((3, 50)))
        g = np.zeros((3, 3), order="F")
        g[1, 2] = np.nan
        opt = AdamW()
        with pytest.raises(NumericError, match=r"'classifier' at index \(1, 40\)"):
            opt.step("classifier", p, g, lr=0.1, columns=np.array([5, 37, 40]))
        assert (p == 1.0).all() and "classifier" not in opt.step_counts

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_sum_is_not_a_non_finite_gradient(self):
        opt = AdamW()
        opt.step("p", np.ones((2, 2)), np.full((2, 2), 1e308), lr=0.1)
        assert opt.step_counts["p"] == 1 and np.isfinite(opt.moments["p"][0]).all()
