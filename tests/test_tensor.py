import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spheretrain import tensor as T
from spheretrain.errors import DegenerateInputError, DomainError, GraphError, ShapeError
from spheretrain.tensor import COSINE_CLAMP, Tensor, finite_difference_check


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestMatmul:
    """The cosine product inside ``margin_logsumexp``, features @ columns."""

    def test_identity(self):
        # an identity on either side leaves the cosine block itself, so both
        # sides see the same loss and the same gradient bytes
        rng = rng_for(0)
        v = rng.uniform(-0.9, 0.9, size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        f, c = Tensor(v, requires_grad=True), Tensor(v.copy(), requires_grad=True)
        by_features = T.margin_logsumexp(f, [(Tensor(np.eye(3)), labels, 1.0, 0.0, 0.2)], 8.0)
        by_columns = T.margin_logsumexp(Tensor(np.eye(5)), [(c, labels, 1.0, 0.0, 0.2)], 8.0)
        assert by_features.data.tobytes() == by_columns.data.tobytes()
        T.reduce_sum(by_features).backward()
        T.reduce_sum(by_columns).backward()
        assert f.grad.tobytes() == c.grad.tobytes()

    def test_hand_arithmetic(self):
        # cosines [0.5, 0.25] by hand; label 1, s = 2: log(1 + e^(2*0.5 - 2*0.25))
        out = T.margin_logsumexp(Tensor([[0.5, 0.25]]),
                                 [(Tensor([[0.5, 1.0], [1.0, -1.0]]), np.array([1]), 1, 0, 0)],
                                 2.0)
        assert out.data[0, 0] == pytest.approx(np.log1p(np.exp(0.5)), rel=1e-15)

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.margin_logsumexp(Tensor(np.zeros((2, 3))),
                               [(Tensor(np.zeros((2, 3))), np.array([0, 1]), 1, 0, 0)], 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(1)
        f, c = rng.uniform(-0.5, 0.5, size=(4, 3)), rng.uniform(-0.5, 0.5, size=(3, 2))
        labels = np.array([0, 1, 1, 0])

        def objective(f, c):
            return T.reduce_sum(T.margin_logsumexp(f, [(c, labels, 1.0, 0.0, 0.1)], 3.0))

        assert finite_difference_check(lambda t: objective(t, Tensor(c)), Tensor(f)) < 1e-6
        assert finite_difference_check(lambda t: objective(Tensor(f), t), Tensor(c)) < 1e-6

    def test_column_major_right_operand_gradient(self):
        # a classifier block: (g^T f)^T, the same values, column-major, and
        # it becomes the block's gradient with no copy
        rng = rng_for(2)
        f = rng.uniform(-0.4, 0.4, size=(6, 4))
        c = rng.uniform(-0.4, 0.4, size=(4, 5))
        labels = rng.integers(0, 5, size=6)
        grads = []
        for layout in (c.copy(), np.asfortranarray(c)):
            cols = Tensor(layout, requires_grad=True)
            T.reduce_sum(T.margin_logsumexp(Tensor(f), [(cols, labels, 1.0, 0.0, 0.2)], 8.0)
                         ).backward()
            assert cols.grad.flags.f_contiguous == layout.flags.f_contiguous
            assert cols.grad.flags.c_contiguous == layout.flags.c_contiguous
            grads.append(cols.grad)
        np.testing.assert_allclose(grads[1], grads[0], rtol=1e-14, atol=1e-15)


class TestAffine:
    def test_row_bias_adds_to_every_row(self):
        x = Tensor(np.zeros((2, 3)), requires_grad=True)
        v = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        out = T.affine(x, Tensor(np.eye(3)), v)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]] * 2)
        T.reduce_sum(out).backward()
        np.testing.assert_array_equal(v.grad, [2.0, 2.0, 2.0])

    def test_bytes_match_the_product_plus_the_tiled_bias(self):
        rng = rng_for(3)
        x, w = rng.standard_normal((6, 4)), rng.standard_normal((4, 5))
        for bias in (rng.standard_normal(5), rng.standard_normal((3, 5))):
            out = T.affine(Tensor(x), Tensor(w), Tensor(bias))
            tiled = np.tile(bias, (6 // len(np.atleast_2d(bias)), 1))
            assert out.data.tobytes() == (x @ w + tiled).tobytes()

    @pytest.mark.parametrize("bias_shape", [(5,), (3, 5), (6, 5)])
    def test_gradients_match_finite_differences(self, bias_shape):
        rng = rng_for(4)
        x, w = rng.standard_normal((6, 4)), rng.standard_normal((4, 5))
        b, probe = rng.standard_normal(bias_shape), Tensor(rng.standard_normal((6, 5)))

        def objective(x, w, b):
            return T.reduce_sum(T.mul(T.affine(x, w, b), probe))

        for err in (
            finite_difference_check(lambda t: objective(t, Tensor(w), Tensor(b)), Tensor(x)),
            finite_difference_check(lambda t: objective(Tensor(x), t, Tensor(b)), Tensor(w)),
            finite_difference_check(lambda t: objective(Tensor(x), Tensor(w), t), Tensor(b)),
        ):
            assert err < 1e-8

    def test_tiled_bias_gradient_is_the_per_block_sum(self):
        rng = rng_for(5)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        g = rng.standard_normal((8, 3))
        out = T.affine(Tensor(rng.standard_normal((8, 4))), Tensor(rng.standard_normal((4, 3))), b)
        T.reduce_sum(T.mul(out, Tensor(g))).backward()
        np.testing.assert_array_equal(b.grad, g[0:2] + g[2:4] + g[4:6] + g[6:8])

    @pytest.mark.parametrize("x_shape, w_shape, b_shape", [
        ((4, 3), (2, 5), (5,)),    # inner dimensions disagree
        ((4, 3), (3, 5), (4,)),    # bias width is not the output width
        ((4, 3), (3, 5), (3, 4)),  # tiled bias width too
        ((4, 3), (3, 5), (3, 5)),  # 3 bias rows do not divide 4 rows
        ((4, 3), (3, 5), (0, 5)),  # an empty bias block tiles nothing
        ((4, 3), (3, 5), ()),      # a scalar is not a bias row
    ])
    def test_shape_errors(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            T.affine(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
                     Tensor(np.zeros(b_shape)))


class TestElementwise:
    def test_add_zero_is_identity(self):
        x = Tensor(rng_for(2).standard_normal((3, 3)))
        np.testing.assert_array_equal(T.add(x, 0.0).data, x.data)

    def test_same_shape_required(self):
        with pytest.raises(ShapeError):
            T.add(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 3))))

    def test_scalar_broadcast(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = T.add(x, -1.0)
        np.testing.assert_array_equal(out.data, [0.0, 1.0])
        T.reduce_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])


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


LIM = 1.0 - COSINE_CLAMP


def margin_lse_oracle(f, parts, s, g):
    """The unfused chain the op replaces, in plain numpy and its op order:
    per part c = clip(f @ columns), the margin positive of the label entry,
    c*s + pos*(-s) with -inf at the labels after a zero column, a max-shifted
    log-sum-exp; backward by the chain rule op by op, the features' gradient
    summed from the last part to the first."""
    rows = np.arange(f.shape[0])
    blocks, saved = [np.zeros((f.shape[0], 1))], []
    for cols, labels, m1, m2, m3 in parts:
        raw = f @ cols
        c = np.clip(raw, -LIM, LIM)
        cy = c[rows, labels][:, None]
        pos = cy
        if m1 != 1.0 or m2 != 0.0:
            theta = np.arccos(cy)
            angle_raw = theta * m1 + m2
            angle = np.clip(angle_raw, 0.0, np.pi)
            pos = np.cos(angle)
        else:
            angle_raw = angle = None
        pos = pos - m3
        a = c * s + pos * (-s)
        a[rows, labels] = -np.inf
        blocks.append(a)
        saved.append((raw, cy, angle_raw, angle))
    a = np.concatenate(blocks, axis=1)
    m = a.max(axis=1, keepdims=True)
    e = np.exp(a - m)
    total = e.sum(axis=1, keepdims=True)
    p = e / total * g
    bounds = np.cumsum([1] + [cols.shape[1] for cols, *_ in parts])
    grad_f, grad_cols = None, []
    for (cols, labels, m1, m2, m3), (raw, cy, angle_raw, angle), lo, hi in reversed(
            list(zip(parts, saved, bounds[:-1], bounds[1:]))):
        block = p[:, lo:hi]
        g_pos = block.sum(axis=1, keepdims=True) * (-s)
        gc = block * s
        if angle is not None:
            ga = -g_pos * np.sin(angle)
            ga = ga * ((angle_raw >= 0.0) & (angle_raw <= np.pi))
            g_pos = -(ga * m1) / np.sqrt(1.0 - cy * cy)
        gc[rows, labels] += g_pos[:, 0]
        gc = gc * ((raw >= -LIM) & (raw <= LIM))
        part = gc @ cols.T
        grad_f = part if grad_f is None else grad_f + part
        column_major = cols.flags.f_contiguous and not cols.flags.c_contiguous
        grad_cols.insert(0, (gc.T @ f).T if column_major else f.T @ gc)
    return m + np.log(total), grad_f, grad_cols


def run_margin_lse(f, parts, s, g):
    """The op on leaves, with upstream gradient ``g``: (loss, features
    gradient, each part's columns gradient)."""
    feats = Tensor(f, requires_grad=True)
    leaves = [(Tensor(cols, requires_grad=True), labels, *m) for cols, labels, *m in parts]
    out = T.margin_logsumexp(feats, leaves, s)
    T.reduce_sum(T.mul(out, Tensor(g))).backward()
    return out.data, feats.grad, [cols.grad for cols, *_ in leaves]


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


@st.composite
def margin_lse_inputs(draw):
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    rows, dim = draw(st.integers(1, 8)), draw(st.integers(2, 6))
    f = unit_rows(rng, rows, dim)
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 40))
        cols = unit_rows(rng, k, dim).T
        for j in draw(st.lists(st.integers(0, k - 1), max_size=3)):  # at or near a pole
            cols[:, j] = f[j % rows] * rng.choice([-1.0, 1.0]) + rng.uniform(0, 1e-8, size=dim)
        if draw(st.booleans()):
            cols = np.asfortranarray(cols)
        # few distinct labels, so several rows share one
        labels = rng.integers(0, draw(st.integers(1, k)), size=rows)
        plain = draw(st.booleans())
        m1 = 1.0 if plain else draw(st.sampled_from([1.0, 1.35, 2.0]))
        m2 = 0.0 if plain else draw(st.sampled_from([0.0, 0.3, 0.5]))
        parts.append((cols, labels, m1, m2, draw(st.sampled_from([0.0, 0.2, 0.4]))))
    s = draw(st.sampled_from([16.0, 30.5, 64.0]))
    return f, parts, s, rng.uniform(0.1, 2.0, size=(rows, 1))


class TestMarginLogSumExp:
    @settings(max_examples=80, deadline=None)
    @given(margin_lse_inputs())
    def test_bytes_match_the_unfused_chain(self, case):
        # bit-identical, angular margins included
        f, parts, s, g = case
        got = run_margin_lse(f, parts, s, g)
        want = margin_lse_oracle(f, parts, s, g)
        for a, b in [(got[0], want[0]), (got[1], want[1]), *zip(got[2], want[2])]:
            assert a.tobytes() == b.tobytes()

    def test_large_margins_stay_finite(self):
        # s = 64 with positives 1e3 below and above the cosines: exponents of
        # +-6.4e4 overflow exp without the max shift
        rng = rng_for(34)
        f, cols = unit_rows(rng, 4, 3), unit_rows(rng, 6, 3).T
        labels = np.array([0, 5, 2, 2])
        for margin in (1e3, -1e3):
            loss, grad_f, (grad_c,) = run_margin_lse(f, [(cols, labels, 1.0, 0.0, margin)], 64.0,
                                                     np.full((4, 1), 0.25))
            assert np.isfinite(loss).all() and np.isfinite(grad_f).all()
            assert np.isfinite(grad_c).all()
            if margin > 0:
                assert (loss > 6e4).all()
            else:
                assert (loss == 0.0).all()

    def test_second_backward_through_the_node_is_rejected(self):
        cols = Tensor(np.zeros((2, 3)), requires_grad=True)
        out = T.margin_logsumexp(Tensor(np.eye(2)), [(cols, np.array([0, 1]), 1, 0, 0)], 16.0)
        T.reduce_sum(out).backward()
        with pytest.raises(GraphError):
            T.reduce_mean(out).backward()

    def test_shape_errors(self):
        f, cols = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
        for features, parts in [
            (f, []),  # no part
            (Tensor(np.zeros(3)), [(cols, np.array([0, 1]), 1, 0, 0)]),  # rank-1 features
            (f, [(Tensor(np.zeros((2, 4))), np.array([0, 1]), 1, 0, 0)]),  # inner dimension
            (f, [(Tensor(np.zeros(3)), np.array([0, 1]), 1, 0, 0)]),  # rank-1 columns
            (f, [(cols, np.array([0]), 1, 0, 0)]),  # one label for two rows
            (f, [(cols, np.array([0, 4]), 1, 0, 0)]),  # a label past the last column
            (f, [(cols, np.array([-1, 0]), 1, 0, 0)]),  # a negative label
        ]:
            with pytest.raises(ShapeError):
                T.margin_logsumexp(features, parts, 16.0)


class TestShapeAlgebra:
    def test_reduce_sum_ones(self):
        assert T.reduce_sum(Tensor(np.ones((2, 3)))).item() == 6.0

    def test_reduce_mean_of_every_entry(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.reduce_mean(x)
        assert out.shape == () and out.item() == 2.5
        out.backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_take_per_row(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.take_per_row(x, [2, 0])
        np.testing.assert_array_equal(out.data, [[2.0], [3.0]])
        T.reduce_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[0.0, 0, 1], [1, 0, 0]])


class TestClipArccos:
    """The cosine clamp and the arccos of the margin positive inside
    ``margin_logsumexp``."""

    def test_clip_gradient_mask(self):
        # a column equal to a feature row: its cosine 1 is clamped, and that
        # entry passes exactly zero gradient, as the row's label entry and as
        # a negative; on unit-basis features the columns' gradient is the
        # cosines' own
        rng = rng_for(8)
        block = np.hstack([np.eye(3)[:, :1], unit_rows(rng, 2, 3).T])
        for labels in (np.array([0, 1, 2]), np.array([1, 0, 2])):
            cols = Tensor(block.copy(), requires_grad=True)
            T.reduce_sum(T.margin_logsumexp(Tensor(np.eye(3)), [(cols, labels, 1.0, 0.0, 0.2)],
                                            16.0)).backward()
            assert cols.grad[0, 0] == 0.0
            assert (np.delete(cols.grad.ravel(), 0) != 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 6),
        specials=st.lists(st.tuples(st.integers(0, 23), st.sampled_from(
            ["lo", "hi", "below", "above", "nan", "-0"])), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_lazy_mask_matches_the_two_comparison_mask(self, rows, cols, specials, seed):
        # the mask is built only when some cosine is outside the clamp or NaN;
        # a NaN reaches no other row
        rng = rng_for(seed)
        x = rng.uniform(-LIM, LIM, size=(rows, cols))
        values = {"lo": -LIM, "hi": LIM, "below": np.nextafter(-LIM, -np.inf),
                  "above": np.nextafter(LIM, np.inf), "nan": np.nan, "-0": -0.0}
        for where, kind in specials:
            x.flat[where % x.size] = values[kind]
        labels = rng.integers(0, cols, size=rows)
        g = rng.uniform(0.1, 2.0, size=(rows, 1))
        parts = [(x, labels, 1.0, 0.0, 0.3)]
        loss, _, (grad,) = run_margin_lse(np.eye(rows), parts, 16.0, g)
        want_loss, _, (want_grad,) = margin_lse_oracle(np.eye(rows), parts, 16.0, g)
        clean = ~np.isnan(x).any(axis=1)
        assert loss[clean].tobytes() == want_loss[clean].tobytes()
        assert grad[clean].tobytes() == want_grad[clean].tobytes()
        np.testing.assert_array_equal(loss, want_loss)
        np.testing.assert_array_equal(grad, want_grad)

    def test_arccos_domain(self):
        # a product outside [-1, 1] is clamped before the arccos of an
        # angular margin, so loss and gradients stay finite and the clamped
        # entry passes no gradient
        cols = Tensor(np.array([[1.5, 0.2, -1.5]]), requires_grad=True)
        for label in (0, 1):
            cols.grad = None
            out = T.margin_logsumexp(Tensor([[1.0]]), [(cols, np.array([label]), 1.35, 0.3, 0)],
                                     16.0)
            T.reduce_sum(out).backward()
            assert np.isfinite(out.data).all() and np.isfinite(cols.grad).all()
            assert cols.grad[0, 0] == 0.0 and cols.grad[0, 2] == 0.0

    def test_arccos_cos_gradients(self):
        # the ArcFace, SphereFace and combined positives against central differences
        rng = rng_for(9)
        f, c = unit_rows(rng, 3, 4), unit_rows(rng, 5, 4).T
        labels = np.array([0, 3, 3])
        for m1, m2 in ((1.0, 0.3), (1.35, 0.0), (1.2, 0.2)):
            def objective(f, c, m1=m1, m2=m2):
                return T.reduce_sum(T.margin_logsumexp(f, [(c, labels, m1, m2, 0.1)], 4.0))

            assert finite_difference_check(lambda t: objective(t, Tensor(c)), Tensor(f)) < 1e-6
            assert finite_difference_check(lambda t: objective(Tensor(f), t), Tensor(c)) < 1e-6


class TestLogSumExp:
    def test_matches_dense_log_sum(self):
        x = rng_for(10).standard_normal((3, 4))
        out = T.row_logsumexp(Tensor(x))
        np.testing.assert_allclose(
            out.data[:, 0], np.log(np.exp(x).sum(axis=1)), atol=1e-12
        )

    # The mask is margin_logsumexp's: each row's label entry is left out.
    def test_mask_excludes_entries(self):
        # the label cosine is the largest, but excluded: 1 + exp(0) + exp(0)
        cos = np.array([[0.9, 0.5, 0.5]])
        loss, _, _ = run_margin_lse(np.eye(1), [(cos, np.array([0]), 1.0, 0.0, 0.4)], 1.0,
                                    np.ones((1, 1)))
        assert loss[0, 0] == np.log(3.0)

    def test_masked_gradient_is_zero(self):
        # the label entry gets nothing from the sum: its gradient is the
        # positive's alone, minus the sum of the other entries' gradients
        cos = np.array([[0.1, 0.2, 0.3]])
        _, _, (grad,) = run_margin_lse(np.eye(1), [(cos, np.array([1]), 1.0, 0.0, 0.5)], 1.0,
                                       np.ones((1, 1)))
        assert (grad[0, [0, 2]] > 0).all()
        assert grad[0, 1] == -(grad[0, 0] + grad[0, 2])


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
        # an aliased first gradient, or one laid out otherwise, is copied into
        # the tensor's order; a fresh one in the tensor's layout is taken
        for data in (np.zeros((3, 2)), np.asfortranarray(np.zeros((3, 2)))):
            for aliased in (True, False):
                g = np.arange(6.0).reshape(3, 2)
                x = Tensor(data, requires_grad=True)
                T._accumulate(x, g, aliased=aliased)
                taken = not aliased and data.flags.c_contiguous
                assert np.shares_memory(x.grad, g) == taken
                assert x.grad.flags.f_contiguous == data.flags.f_contiguous
                assert x.grad.flags.c_contiguous == data.flags.c_contiguous
                np.testing.assert_array_equal(x.grad, np.arange(6.0).reshape(3, 2))
                T._accumulate(x, np.arange(6.0).reshape(3, 2))
                np.testing.assert_array_equal(x.grad, 2.0 * np.arange(6.0).reshape(3, 2))

    def test_forward_determinism(self):
        def run():
            rng = rng_for(12)
            a = Tensor(rng.standard_normal((4, 4)))
            gain, bias = Tensor(rng.uniform(0.5, 1.5, size=4)), Tensor(rng.standard_normal(4))
            return T.layer_norm(T.affine(a, a, bias), gain, bias).data.tobytes()

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
        z = T.affine(t, b, probe)
        z = T.gelu(z)
        z = T.layer_norm(z, gain, bias)
        return T.reduce_sum(T.mul(z, probe))

    assert finite_difference_check(f, a) < 1e-4


ROWS, COLS = 4, 6  # COLS = 3 * 2: attention over 2 groups with 1 head of width 2


def _leaf(rng, shape, requires_grad):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=requires_grad)


@st.composite
def random_graphs(draw):
    """A scalar root over a random graph of the public ops, and every tensor
    in it. The pool holds (ROWS, COLS) nodes, each an operand of later ops;
    all of them and every (ROWS, 1) or scalar side output sum into the root."""
    rng = rng_for(draw(st.integers(0, 2**32 - 1)))
    flag = lambda: draw(st.booleans())  # noqa: E731
    pool = [_leaf(rng, (ROWS, COLS), True), _leaf(rng, (ROWS, COLS), flag())]
    made, sides = list(pool), []
    for _ in range(draw(st.integers(1, 12))):
        a, b = (pool[draw(st.integers(0, len(pool) - 1))] for _ in range(2))
        kind = draw(st.sampled_from(["add", "sub", "mul", "add_scalar", "gelu", "l2", "layer_norm",
                                     "affine", "reshape", "attention", "row_logsumexp",
                                     "take_per_row", "margin", "reduce"]))
        extra = []
        if kind in ("add", "sub", "mul"):
            out = getattr(T, kind)(a, b)
        elif kind == "add_scalar":
            out = T.add(a, 0.5)
        elif kind == "gelu":
            out = T.gelu(a)
        elif kind == "l2":
            # sub(a, a) and the like make zero rows, which the op rejects
            assume((np.linalg.norm(a.data, axis=1) >= T.ZERO_ROW_THRESHOLD).all())
            out = T.l2_normalize_rows(a)
        elif kind == "layer_norm":
            extra = [_leaf(rng, (COLS,), flag()), _leaf(rng, (COLS,), flag())]
            out = T.layer_norm(a, *extra)
        elif kind == "affine":
            extra = [_leaf(rng, (COLS, COLS), flag()), _leaf(rng, (COLS,), flag())]
            out = T.affine(a, *extra)
        elif kind == "reshape":
            extra = [T.reshape(a, (COLS, ROWS))]
            out = T.reshape(extra[0], (ROWS, COLS))
        elif kind == "attention":
            extra = [T.attention(a, 2, 1), _leaf(rng, (2, COLS), flag()),
                     _leaf(rng, (COLS,), flag())]
            out = T.affine(*extra)
        elif kind == "row_logsumexp":
            out = T.row_logsumexp(a)
        elif kind == "take_per_row":
            out = T.take_per_row(a, rng.integers(0, COLS, size=ROWS))
        elif kind == "margin":
            extra = [_leaf(rng, (COLS, 5), flag()), _leaf(rng, (COLS, 3), flag())]
            if flag():
                extra = [Tensor(np.asfortranarray(t.data), requires_grad=t.requires_grad)
                         for t in extra]
            out = T.margin_logsumexp(a, [(extra[0], rng.integers(0, 5, size=ROWS), 1.2, 0.1, 0.2),
                                         (extra[1], rng.integers(0, 3, size=ROWS), 1.0, 0.0, 0.3)],
                                     8.0)
        else:
            out = T.reduce_mean(a) if flag() else T.reduce_sum(a)
        made += [out, *extra]
        (pool if out.shape == (ROWS, COLS) else sides).append(out)
    root = T.reduce_sum(pool[0])  # a leaf that requires gradient
    for out in pool[1:] + sides:
        root = T.add(root, T.reduce_sum(out) if out.shape else out)
    return root, made + [root]


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_no_two_gradients_share_memory(graph):
    # a first gradient taken without a copy is one nothing else holds
    root, tensors = graph
    root.backward()
    grads = [t.grad for t in tensors if t.grad is not None]
    assert grads
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(g, t.data) for t in tensors)
