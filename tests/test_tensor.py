import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretrain import tensor as T
from spheretrain.errors import DegenerateInputError, DomainError, GraphError, ShapeError
from spheretrain.tensor import Tensor, finite_difference_check


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestMatmul:
    def test_identity(self):
        rng = rng_for(0)
        a = rng.standard_normal((5, 3))
        out = T.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_arithmetic(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(1)
        b = Tensor(rng.standard_normal((3, 2)))
        a0 = Tensor(rng.standard_normal((4, 3)))
        err = finite_difference_check(
            lambda a: T.reduce_sum(T.matmul(a, b)), a0, eps=1e-5
        )
        assert err < 1e-6
        a = Tensor(rng.standard_normal((4, 3)))
        err = finite_difference_check(
            lambda t: T.reduce_sum(T.matmul(a, t)), Tensor(b.data), eps=1e-5
        )
        assert err < 1e-6

    def test_column_major_right_operand_gradient(self):
        # a gathered classifier block: (g^T a)^T, the same values, column-major
        rng = rng_for(2)
        a = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        g = rng.standard_normal((6, 5))
        b = Tensor(np.asfortranarray(rng.standard_normal((4, 5))), requires_grad=True)
        T.reduce_sum(T.mul(T.matmul(a, b), Tensor(g))).backward()
        np.testing.assert_allclose(b.grad, a.data.T @ g, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(a.grad, g @ b.data.T, rtol=1e-14, atol=1e-15)


class TestElementwise:
    def test_add_zero_is_identity(self):
        x = Tensor(rng_for(2).standard_normal((3, 3)))
        np.testing.assert_array_equal(T.add(x, 0.0).data, x.data)

    def test_same_shape_required(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_scalar_broadcast(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(T.mul(x, 3.0).data, [3.0, 6.0])
        np.testing.assert_array_equal(T.sub(x, 1.0).data, [0.0, 1.0])


class TestL2NormalizeRows:
    def test_three_four_five(self):
        out = T.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)

    def test_idempotent_on_unit_rows(self):
        once = T.l2_normalize_rows(Tensor(rng_for(5).standard_normal((4, 6)))).data
        twice = T.l2_normalize_rows(Tensor(once)).data
        np.testing.assert_allclose(twice, once, atol=1e-15, rtol=0)
        exact = np.array([[1.0, 0.0], [0.0, -1.0]])
        np.testing.assert_array_equal(T.l2_normalize_rows(Tensor(exact)).data, exact)

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            T.l2_normalize_rows(Tensor([[0.0, 0.0], [1.0, 0.0]]))

    def test_gradient(self):
        rng = rng_for(6)
        probe = Tensor(rng.standard_normal((3, 4)))
        err = finite_difference_check(
            lambda t: T.reduce_sum(T.mul(T.l2_normalize_rows(t), probe)),
            Tensor(rng.standard_normal((3, 4)) + 0.5),
        )
        assert err < 1e-5

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 8))
    def test_unit_norms(self, seed, m, d):
        x = rng_for(seed).standard_normal((m, d)) + 0.1
        if np.linalg.norm(x, axis=1).min() < 1e-6:
            return
        norms = np.linalg.norm(T.l2_normalize_rows(Tensor(x)).data, axis=1)
        np.testing.assert_allclose(norms, np.ones(m), atol=1e-12, rtol=0)


class TestLayerNorm:
    def test_constant_row_collapses_to_zero(self):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = T.layer_norm(Tensor(np.full((2, 4), 2.5)), gain, bias)
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_two_point_row(self):
        gain = Tensor(np.ones(2))
        bias = Tensor(np.zeros(2))
        out = T.layer_norm(Tensor([[1.0, -1.0]]), gain, bias)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)

    def test_gradients_all_arguments(self):
        rng = rng_for(7)
        x = rng.standard_normal((3, 5))
        gain = rng.uniform(0.5, 1.5, size=5)
        bias = rng.standard_normal(5)
        probe = Tensor(rng.standard_normal((3, 5)))

        def wrt_x(t):
            return T.reduce_sum(T.mul(T.layer_norm(t, Tensor(gain), Tensor(bias)), probe))

        def wrt_gain(t):
            return T.reduce_sum(T.mul(T.layer_norm(Tensor(x), t, Tensor(bias)), probe))

        def wrt_bias(t):
            return T.reduce_sum(T.mul(T.layer_norm(Tensor(x), Tensor(gain), t), probe))

        assert finite_difference_check(wrt_x, Tensor(x)) < 1e-6
        assert finite_difference_check(wrt_gain, Tensor(gain)) < 1e-6
        assert finite_difference_check(wrt_bias, Tensor(bias)) < 1e-6


def attention_reference(qkv, groups, heads):
    """Per-group, per-head loops over plain rank-2 numpy."""
    rows, cols = qkv.shape
    n, d = rows // groups, cols // 3
    dh = d // heads
    out = np.zeros((rows, d))
    for g in range(groups):
        block = qkv[g * n:(g + 1) * n]
        for h in range(heads):
            q, k, v = (block[:, p * d + h * dh:p * d + (h + 1) * dh] for p in range(3))
            scores = q @ k.T / np.sqrt(dh)
            w = np.exp(scores - scores.max(axis=1, keepdims=True))
            w /= w.sum(axis=1, keepdims=True)
            out[g * n:(g + 1) * n, h * dh:(h + 1) * dh] = w @ v
    return out


class TestAttention:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 5),
           st.sampled_from([1, 2, 4]), st.integers(1, 3))
    def test_matches_per_head_reference(self, seed, groups, n, heads, dh):
        qkv = rng_for(seed).standard_normal((groups * n, 3 * heads * dh))
        out = T.attention(Tensor(qkv), groups, heads).data
        np.testing.assert_allclose(out, attention_reference(qkv, groups, heads),
                                   atol=1e-12, rtol=0)

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(30)
        probe = Tensor(rng.standard_normal((6, 8)))
        err = finite_difference_check(
            lambda t: T.reduce_sum(T.mul(T.attention(t, 3, 2), probe)),
            Tensor(rng.standard_normal((6, 24))),
        )
        assert err < 1e-7

    def test_weights_sum_to_one(self):
        # with every value row equal to one, each output is the sum of the
        # query's attention weights
        qkv = rng_for(31).standard_normal((8, 12)) * 5
        qkv[:, 8:] = 1.0
        out = T.attention(Tensor(qkv), 2, 2).data
        np.testing.assert_allclose(out, np.ones((8, 4)), atol=1e-14, rtol=0)

    def test_large_logits_stay_finite(self):
        # scores of order 1e3 would overflow exp without the max shift
        rng = rng_for(32)
        qkv = rng.standard_normal((5, 6))
        qkv[:, :4] *= 40.0
        assert np.abs(qkv[:, :2] @ qkv[:, 2:4].T).max() / np.sqrt(2) > 1e3
        x = Tensor(qkv, requires_grad=True)
        out = T.attention(x, 1, 1)
        np.testing.assert_allclose(out.data, attention_reference(qkv, 1, 1),
                                   atol=1e-12, rtol=0)
        T.reduce_sum(out).backward()
        assert np.isfinite(x.grad).all()

    def test_groups_are_independent(self):
        rng = rng_for(33)
        groups, n = 3, 4
        qkv = rng.standard_normal((groups * n, 12))
        base = T.attention(Tensor(qkv), groups, 2).data
        for j in range(groups):
            bumped = qkv.copy()
            bumped[j * n:(j + 1) * n] += rng.standard_normal((n, 12))
            out = T.attention(Tensor(bumped), groups, 2).data
            for i in range(groups):
                rows = slice(i * n, (i + 1) * n)
                if i == j:
                    assert not np.array_equal(out[rows], base[rows])
                else:
                    assert out[rows].tobytes() == base[rows].tobytes()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((5, 12))), 2, 2)
        with pytest.raises(ShapeError):
            T.attention(Tensor(np.zeros((4, 12))), 2, 3)


def margin_lse_oracle(parts, s, g):
    """The exponent chain the fused op replaces, in plain numpy: a zero column,
    cos*s + pos*(-s) per part, a boolean mask over the label entries,
    ``np.where``, a max shift; backward slices (e / total) * g per part."""
    rows = parts[0][0].shape[0]
    blocks, masks = [np.zeros((rows, 1))], [np.ones((rows, 1), dtype=bool)]
    for cos, labels, pos in parts:
        blocks.append(cos * s + pos * (-s))
        mask = np.ones(cos.shape, dtype=bool)
        mask[np.arange(rows), labels] = False
        masks.append(mask)
    a, mask = np.concatenate(blocks, axis=1), np.concatenate(masks, axis=1)
    m = np.where(mask, a, -np.inf).max(axis=1, keepdims=True)
    e = np.where(mask, np.exp(a - m), 0.0)
    total = e.sum(axis=1, keepdims=True)
    p = (e / total) * g
    grads, lo = [], 1
    for cos, _, _ in parts:
        block = p[:, lo:lo + cos.shape[1]].copy()
        grads.append((block * s, block.sum(axis=1, keepdims=True) * (-s)))
        lo += cos.shape[1]
    return m + np.log(total), grads


def run_margin_lse(parts, s, g):
    leaves = [(Tensor(cos, requires_grad=True), labels, Tensor(pos, requires_grad=True))
              for cos, labels, pos in parts]
    out = T.margin_logsumexp(leaves, s)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    return out.data, [(cos.grad, pos.grad) for cos, _, pos in leaves]


@st.composite
def margin_lse_inputs(draw):
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 8))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 40))
        cos = rng.uniform(-1.0, 1.0, size=(rows, k))
        if draw(st.booleans()):  # within 1e-6 of the poles
            cos = np.sign(cos) * (1.0 - rng.uniform(0.0, 1e-6, size=cos.shape))
        # few distinct labels, so several rows share one
        labels = rng.integers(0, draw(st.integers(1, k)), size=rows)
        pos = cos[np.arange(rows), labels][:, None] - rng.uniform(0.0, 0.5, size=(rows, 1))
        parts.append((cos, labels, pos))
    s = draw(st.sampled_from([16.0, 30.5, 64.0]))
    return parts, s, rng.uniform(0.1, 2.0, size=(rows, 1))


class TestMarginLogSumExp:
    @settings(max_examples=60, deadline=None)
    @given(margin_lse_inputs())
    def test_bytes_match_the_unfused_chain(self, case):
        parts, s, g = case
        loss, grads = run_margin_lse(parts, s, g)
        want_loss, want_grads = margin_lse_oracle(parts, s, g)
        assert loss.tobytes() == want_loss.tobytes()
        for (cos_grad, pos_grad), (want_cos, want_pos) in zip(grads, want_grads):
            assert cos_grad.tobytes() == want_cos.tobytes()
            assert pos_grad.tobytes() == want_pos.tobytes()
        for (cos, labels, _), (cos_grad, _) in zip(parts, grads):
            assert (cos_grad[np.arange(len(labels)), labels] == 0.0).all()

    def test_large_margins_stay_finite(self):
        # s = 64 with positives 1e3 below and above the cosines: exponents of
        # +-6.4e4 overflow exp without the max shift
        rng = rng_for(34)
        cos = rng.uniform(-1.0, 1.0, size=(4, 6))
        labels = np.array([0, 5, 2, 2])
        for margin in (1e3, -1e3):
            pos = cos[np.arange(4), labels][:, None] - margin
            loss, grads = run_margin_lse([(cos, labels, pos)], 64.0, np.full((4, 1), 0.25))
            assert np.isfinite(loss).all() and np.isfinite(grads[0][0]).all()
            assert np.isfinite(grads[0][1]).all()
            if margin > 0:
                assert (loss > 6e4).all()
            else:
                assert (loss == 0.0).all()

    def test_second_backward_through_the_node_is_rejected(self):
        cos = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = T.margin_logsumexp([(cos, np.array([0, 1]), Tensor(np.zeros((2, 1))))], 16.0)
        T.reduce_sum(out).backward()
        with pytest.raises(GraphError):
            T.reduce_mean(out).backward()

    def test_shape_errors(self):
        cos, pos = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 1)))
        with pytest.raises(ShapeError):
            T.margin_logsumexp([], 16.0)
        with pytest.raises(ShapeError):
            T.margin_logsumexp([(cos, np.array([0, 1]), Tensor(np.zeros((3, 1))))], 16.0)
        with pytest.raises(ShapeError):
            T.margin_logsumexp([(cos, np.array([0]), pos)], 16.0)
        with pytest.raises(ShapeError):
            T.margin_logsumexp([(cos, np.array([0, 3]), pos)], 16.0)


class TestShapeAlgebra:
    def test_reduce_sum_ones(self):
        assert T.reduce_sum(Tensor(np.ones((2, 3)))).item() == 6.0

    def test_reduce_axes(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.reduce_sum(T.mul(T.reduce_sum(x, axis=0), Tensor([1.0, 2.0, 3.0])))
        out.backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 2, 3], [1, 2, 3]])
        assert T.reduce_mean(Tensor(np.arange(6.0).reshape(2, 3)), axis=1).shape == (2,)

    def test_gather_take_round_trip(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        picked = T.gather_cols(x, [2, 0])
        np.testing.assert_array_equal(picked.data, [[2.0, 0], [6, 4], [10, 8]])
        out = T.reduce_sum(picked)
        out.backward()
        np.testing.assert_array_equal(
            x.grad, [[1.0, 0, 1, 0], [1, 0, 1, 0], [1, 0, 1, 0]]
        )

    def test_gather_rejects_duplicate_ids(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        with pytest.raises(ShapeError, match="distinct"):
            T.gather_cols(x, [2, 0, 2])

    def test_gather_adjoint_keeps_column_major_layout(self):
        data = np.arange(15.0).reshape(3, 5)
        g = np.arange(6.0).reshape(3, 2) + 0.5
        grads = []
        for layout in (data, np.asfortranarray(data)):
            x = Tensor(layout, requires_grad=True)
            T.reduce_sum(T.mul(T.gather_cols(x, [4, 1]), Tensor(g))).backward()
            grads.append(x.grad)
        np.testing.assert_array_equal(grads[0], grads[1])
        assert grads[1].flags.f_contiguous and not grads[1].flags.c_contiguous
        np.testing.assert_array_equal(grads[1][:, [4, 1]], g)

    def test_take_per_row(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.take_per_row(x, [2, 0])
        np.testing.assert_array_equal(out.data, [[2.0], [3.0]])
        T.reduce_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0, 1], [1, 0, 0]])

    def test_row_and_col_vector_adds(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        T.reduce_sum(T.add_rowvec(a, v)).backward()
        np.testing.assert_array_equal(v.grad, [2.0, 2.0, 2.0])


class TestClipArccos:
    def test_clip_gradient_mask(self):
        x = Tensor(np.array([[-2.0, 0.5, 2.0]]), requires_grad=True)
        T.reduce_sum(T.clip(x, -1.0, 1.0)).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(0, 4),
        cols=st.integers(0, 6),
        bounds=st.sampled_from([(-1.0 + 1e-7, 1.0 - 1e-7), (0.0, np.pi), (-2.0, -2.0)]),
        specials=st.lists(st.tuples(st.integers(0, 23), st.sampled_from(
            ["lo", "hi", "below", "above", "nan", "-0"])), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lazy_mask_matches_the_two_comparison_mask(self, rows, cols, bounds, specials,
                                                       seed):
        # the mask is built only when some input is outside [lo, hi] or NaN
        lo, hi = bounds
        rng = rng_for(seed)
        x = rng.uniform(lo, hi, size=(rows, cols))
        values = {"lo": lo, "hi": hi, "below": np.nextafter(lo, -np.inf),
                  "above": np.nextafter(hi, np.inf), "nan": np.nan, "-0": -0.0}
        for where, kind in specials:
            if x.size:
                x.flat[where % x.size] = values[kind]
        upstream = rng.standard_normal((rows, cols))
        upstream[rng.random((rows, cols)) < 0.2] = -0.0
        t = Tensor(x, requires_grad=True)
        out = T.clip(t, lo, hi)
        T.reduce_sum(T.mul(out, Tensor(upstream))).backward()
        mask = (x >= lo) & (x <= hi)
        assert out.data.tobytes() == np.clip(x, lo, hi).tobytes()
        assert t.grad.tobytes() == (upstream * mask).tobytes()

    def test_arccos_domain(self):
        with pytest.raises(DomainError):
            T.arccos(Tensor([1.5]))

    def test_arccos_cos_gradients(self):
        rng = rng_for(9)
        x = Tensor(rng.uniform(-0.9, 0.9, size=(2, 3)))
        assert finite_difference_check(lambda t: T.reduce_sum(T.arccos(t)), x) < 1e-6
        assert finite_difference_check(lambda t: T.reduce_sum(T.cos(t)), x) < 1e-6


class TestLogSumExp:
    def test_matches_dense_log_sum(self):
        x = rng_for(10).standard_normal((3, 4))
        out = T.row_logsumexp(Tensor(x))
        np.testing.assert_allclose(
            out.data[:, 0], np.log(np.exp(x).sum(axis=1)), atol=1e-12
        )

    # The mask is margin_logsumexp's: each row's label entry is left out.
    def test_mask_excludes_entries(self):
        # the label cosine is huge, but excluded: 1 + exp(0) + exp(0)
        cos = np.array([[100.0, 0.0, 0.0]])
        loss, _ = run_margin_lse([(cos, np.array([0]), np.zeros((1, 1)))], 1.0, np.ones((1, 1)))
        assert loss[0, 0] == np.log(3.0)

    def test_masked_gradient_is_zero(self):
        cos = np.array([[1.0, 2.0, 3.0]])
        _, grads = run_margin_lse([(cos, np.array([1]), np.full((1, 1), 0.5))], 1.0,
                                  np.ones((1, 1)))
        assert grads[0][0][0, 1] == 0.0
        assert (grads[0][0][0, [0, 2]] > 0).all()


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rng_for(11).standard_normal((3, 2)), requires_grad=True)
        T.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 2)))

    def test_hand_calculus(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        T.reduce_sum(T.mul(x, x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(GraphError):
            T.mul(x, x).backward()

    def test_double_backward_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = T.reduce_sum(x)
        out.backward()
        with pytest.raises(GraphError):
            out.backward()

    def test_shared_subexpression_accumulates(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        y = T.mul(x, x)
        out = T.reduce_sum(T.add(y, y))
        out.backward()
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_first_gradient_is_a_copy_in_the_tensor_order(self):
        g = np.arange(6.0).reshape(3, 2)
        for data in (np.zeros((3, 2)), np.asfortranarray(np.zeros((3, 2)))):
            x = Tensor(data, requires_grad=True)
            T._accumulate(x, g)
            assert not np.shares_memory(x.grad, g)
            assert x.grad.flags.f_contiguous == data.flags.f_contiguous
            assert x.grad.flags.c_contiguous == data.flags.c_contiguous
            np.testing.assert_array_equal(x.grad, g)
            T._accumulate(x, g)
            np.testing.assert_array_equal(x.grad, 2.0 * g)
            np.testing.assert_array_equal(g, np.arange(6.0).reshape(3, 2))

    def test_forward_determinism(self):
        def run():
            rng = rng_for(12)
            a = Tensor(rng.standard_normal((4, 4)))
            gain, bias = Tensor(rng.uniform(0.5, 1.5, size=4)), Tensor(rng.standard_normal(4))
            return T.layer_norm(T.matmul(a, a), gain, bias).data.tobytes()

        assert run() == run()


class TestFiniteDifferenceHarness:
    def test_sum_error_exactly_zero_on_dyadic_input(self):
        x = Tensor(np.array([0.5, 0.25, 1.0, -2.0]))
        assert finite_difference_check(T.reduce_sum, x, eps=2.0**-14) == 0.0

    def test_sum_error_tiny_on_random_input(self):
        x = Tensor(rng_for(13).standard_normal(5))
        assert finite_difference_check(T.reduce_sum, x) < 1e-10

    def test_detects_wrong_gradient_rule(self):
        def bad_square_sum(t):
            data = np.asarray((t.data * t.data).sum())

            def backward(g):
                T._accumulate(t, 3.0 * t.data * float(g))  # wrong: should be 2x

            return T._make(data, (t,), backward)

        err = finite_difference_check(bad_square_sum, Tensor(np.array([1.0, -2.0])))
        assert err > 1e-2

    def test_eps_domain_enforced(self):
        with pytest.raises(DomainError):
            finite_difference_check(T.reduce_sum, Tensor([1.0]), eps=1e-3)

    def test_rank3_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("seed", range(10))
def test_random_op_gradients_sweep(seed):
    """Light per-module version of the full gradient suite (acceptance runs
    the 100-seed version)."""
    rng = rng_for(100 + seed)
    m, k, n = rng.integers(2, 5, size=3)
    a = Tensor(rng.standard_normal((m, k)))
    b = Tensor(rng.standard_normal((k, n)))
    probe = Tensor(rng.standard_normal((m, n)))
    gain, bias = Tensor(rng.uniform(0.5, 1.5, size=n)), Tensor(rng.standard_normal(n))

    def f(t):
        z = T.matmul(t, b)
        z = T.add(z, probe)
        z = T.gelu(z)
        z = T.layer_norm(z, gain, bias)
        return T.reduce_sum(T.mul(z, probe))

    assert finite_difference_check(f, a) < 1e-4
