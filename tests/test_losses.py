import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spheretrain import tensor as T
from spheretrain.engine import loss_alignment
from spheretrain.errors import NumericError, ShapeError
from spheretrain.losses import (
    COSINE_CLAMP,
    ClassifierBank,
    CosineLogits,
    MarginSpec,
    cosface_loss,
    cosine_logits,
    margin_log_sum_exp,
    softmax_ce_loss,
    unified_margin_loss,
    unit_columns,
)
from spheretrain.optim import AdamW
from spheretrain.sampler import gather_columns, sample
from spheretrain.scheduler import css_score
from spheretrain.tensor import Tensor, finite_difference_check


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def unit_rows(rng, rows, dim):
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def cosines_of(values, labels, requires_grad=False):
    """Logits whose cosines are exactly ``values`` (B x K): unit-basis
    feature rows against the columns ``values``, so the columns' gradient
    is the cosines' own."""
    values = Tensor(np.asarray(values, dtype=np.float64), requires_grad=requires_grad)
    return cosine_logits(Tensor(np.eye(values.shape[0])), values, labels)


def per_sample(cos, spec):
    part = (cos.columns, cos.label_column, spec.m1, spec.m2, spec.m3)
    return margin_log_sum_exp(cos.features, [part], spec.s).data


def random_setup(seed, batch=4, dim=8, classes=6):
    rng = rng_for(seed)
    feats = unit_rows(rng, batch, dim)
    weights = unit_rows(rng, classes, dim).T
    labels = rng.integers(0, classes, size=batch)
    return feats, weights, labels


class TestCosineLogits:
    def test_colinear_hits_clamp(self):
        x = np.zeros((1, 4))
        x[0, 0] = 1.0
        cos = cosine_logits(Tensor(x), Tensor(x.T), [0])
        assert cos.values.data[0, 0] == 1.0 - COSINE_CLAMP

    def test_orthogonal_is_zero(self):
        feats = np.array([[1.0, 0.0]])
        cols = np.array([[0.0], [1.0]])
        cos = cosine_logits(Tensor(feats), Tensor(cols), [0])
        assert cos.values.data[0, 0] == 0.0

    def test_matches_scalar_loop(self):
        feats, weights, labels = random_setup(0)
        cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
        for i in range(feats.shape[0]):
            for j in range(weights.shape[1]):
                expected = sum(feats[i, k] * weights[k, j] for k in range(feats.shape[1]))
                assert abs(cos.values.data[i, j] - expected) < 1e-12

    def test_dimension_mismatch(self):
        cos = cosine_logits(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))), [0, 1])
        with pytest.raises(ShapeError):
            unified_margin_loss(cos, MarginSpec.plain(16.0))

    def test_label_out_of_range(self):
        cos = CosineLogits(Tensor(np.eye(1)), Tensor(np.zeros((1, 2))), label_column=[5])
        with pytest.raises(ShapeError):
            unified_margin_loss(cos, MarginSpec.plain(16.0))


class TestSoftmaxCE:
    def test_uniform_logits(self):
        for c in (2, 5, 40):
            loss = softmax_ce_loss(Tensor(np.zeros((3, c))), [0, 1, 0])
            assert abs(loss.item() - np.log(c)) < 1e-12

    def test_two_class_closed_form(self):
        for big_l in (-2.0, 0.0, 3.0):
            loss = softmax_ce_loss(Tensor([[big_l, 0.0]]), [0])
            assert abs(loss.item() - np.log1p(np.exp(-big_l))) < 1e-12

    def test_gradient(self):
        feats, weights, labels = random_setup(1)
        err = finite_difference_check(lambda t: softmax_ce_loss(t, labels), Tensor(feats @ weights))
        assert err < 1e-6

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            softmax_ce_loss(Tensor(np.zeros((1, 3))), [3])


class TestUnifiedMargin:
    def test_symmetric_two_way_is_ln2(self):
        cos = cosines_of([[0.3, 0.3]], [0])
        loss = unified_margin_loss(cos, MarginSpec.plain(11.0))
        assert abs(loss.item() - np.log(2.0)) < 1e-12

    def test_cosface_perfectly_separated(self):
        cos = cosines_of([[1.0 - COSINE_CLAMP, -1.0 + COSINE_CLAMP]], [0])
        loss = cosface_loss(cos, 64.0, 0.4)
        assert loss.item() < 1e-12

    def test_cosface_symmetric_closed_form(self):
        # one negative at the same cosine as the positive: log(1 + e^(s*m))
        s, m = 64.0, 0.4
        cos = cosines_of([[0.5, 0.5]], [0])
        expected = s * m + np.log1p(np.exp(-s * m))
        assert abs(cosface_loss(cos, s, m).item() - expected) < 1e-9

    def test_cosface_is_unified_specialization(self):
        for seed in range(5):
            feats, weights, labels = random_setup(seed)
            cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
            a = cosface_loss(cos, 64.0, 0.4).item()
            cos2 = cosine_logits(Tensor(feats), Tensor(weights), labels)
            b = unified_margin_loss(cos2, MarginSpec(s=64.0, m3=0.4)).item()
            assert a == b

    def test_zero_margin_collapses_to_angular(self):
        feats, weights, labels = random_setup(2)
        cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
        a = cosface_loss(cos, 16.0, 0.0).item()
        cos2 = cosine_logits(Tensor(feats), Tensor(weights), labels)
        b = unified_margin_loss(cos2, MarginSpec.plain(16.0)).item()
        assert a == b

    def test_monotone_in_margin(self):
        for seed in range(10):
            feats, weights, labels = random_setup(seed + 10)
            previous = -np.inf
            for m in (0.0, 0.1, 0.2, 0.4, 0.8):
                cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
                value = cosface_loss(cos, 32.0, m).item()
                assert value >= previous
                previous = value

    def test_plain_equals_scaled_softmax(self):
        for seed in range(5):
            feats, weights, labels = random_setup(seed + 20)
            cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
            a = unified_margin_loss(cos, MarginSpec.plain(64.0)).item()
            b = softmax_ce_loss(Tensor(cos.values.data * 64.0), labels).item()
            assert abs(a - b) < 1e-10

    def test_extra_negative_never_decreases_loss(self):
        rng = rng_for(3)
        for _ in range(20):
            batch, cols = 3, 5
            values = rng.uniform(-0.99, 0.99, size=(batch, cols))
            labels = rng.integers(0, cols, size=batch)
            extra = rng.uniform(-0.99, 0.99, size=(batch, 1))
            small = per_sample(cosines_of(values, labels), MarginSpec.cosface(64.0, 0.4))
            grown = per_sample(cosines_of(np.hstack([values, extra]), labels),
                               MarginSpec.cosface(64.0, 0.4))
            assert (grown >= small).all()

    def test_negative_permutation_invariance(self):
        feats, weights, labels = random_setup(4, batch=3, classes=5)
        cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
        base = unified_margin_loss(cos, MarginSpec.cosface(64.0, 0.4)).item()
        # permute columns and remap labels accordingly
        perm = np.array([3, 0, 4, 1, 2])
        inv = np.argsort(perm)
        cos2 = cosine_logits(Tensor(feats), Tensor(weights[:, perm]), inv[labels])
        permuted = unified_margin_loss(cos2, MarginSpec.cosface(64.0, 0.4)).item()
        assert abs(base - permuted) < 1e-12

    def test_loss_monotone_in_logits(self):
        feats, weights, labels = random_setup(5, batch=3, classes=4)
        cos = cosines_of(np.clip(feats @ weights, -0.99, 0.99), labels, requires_grad=True)
        loss = unified_margin_loss(cos, MarginSpec.cosface(16.0, 0.4))
        loss.backward()
        rows = np.arange(3)
        assert (cos.columns.grad[rows, labels] <= 0).all()
        mask = np.ones((3, 4), dtype=bool)
        mask[rows, labels] = False
        assert (cos.columns.grad[mask] >= 0).all()

    @pytest.mark.parametrize("s", [1.0, 16.0, 64.0])
    def test_gradients_across_scales(self, s):
        feats, weights, labels = random_setup(6)
        spec = MarginSpec(s=s, m1=1.1, m2=0.1, m3=0.2)

        def wrt_features(t):
            return unified_margin_loss(cosine_logits(t, Tensor(weights), labels), spec)

        def wrt_weights(t):
            return unified_margin_loss(cosine_logits(Tensor(feats), t, labels), spec)

        assert finite_difference_check(wrt_features, Tensor(feats)) < 1e-4
        assert finite_difference_check(wrt_weights, Tensor(weights)) < 1e-4

    def test_angular_margins_change_value(self):
        feats, weights, labels = random_setup(7)
        cos = cosine_logits(Tensor(feats), Tensor(weights), labels)
        plain = unified_margin_loss(cos, MarginSpec.plain(16.0)).item()
        cos2 = cosine_logits(Tensor(feats), Tensor(weights), labels)
        arc = unified_margin_loss(cos2, MarginSpec.arcface(16.0, 0.3)).item()
        assert arc > plain

    def test_non_finite_input_reports_sample(self):
        cos = cosine_logits(Tensor([[1.0], [np.nan]]), Tensor([[0.1, 0.2]]), [0, 0])
        with pytest.raises(NumericError, match="sample index 1"):
            unified_margin_loss(cos, MarginSpec.plain(4.0))


class TestMarginSpec:
    def test_specializations(self):
        assert MarginSpec.cosface(64, 0.4) == MarginSpec(s=64, m1=1.0, m2=0.0, m3=0.4)
        assert MarginSpec.arcface(64, 0.5) == MarginSpec(s=64, m1=1.0, m2=0.5, m3=0.0)
        assert MarginSpec.sphereface(64, 1.5) == MarginSpec(s=64, m1=1.5, m2=0.0, m3=0.0)

    def test_validation(self):
        with pytest.raises(ShapeError):
            MarginSpec(s=-1.0)
        with pytest.raises(ShapeError):
            MarginSpec(s=1.0, m1=0.5)


class TestRatioCombiner:
    def test_engineered_symmetric_inputs_give_ln3(self):
        # both ratio terms equal one: cos_j = cos_y - m on each side
        s, m1, m2 = 8.0, 0.4, 0.4
        parts = [(Tensor([[0.5, 0.1]]), [0], 1.0, 0.0, m1),
                 (Tensor([[0.6, 0.2]]), [0], 1.0, 0.0, m2)]
        per = margin_log_sum_exp(Tensor(np.eye(1)), parts, s)
        assert abs(per.data[0, 0] - np.log(3.0)) < 1e-12

    def test_prototype_term_vanishes_when_far(self):
        # e_y = x and all e_j orthogonal, s=64, m2=0.4: the whole second ratio
        # sums to K * exp(-64*0.6), invisible at double precision for any
        # realistic K
        s, m2 = 64.0, 0.4
        k = 10
        values = np.zeros((1, k + 1))
        values[0, 0] = 1.0 - COSINE_CLAMP
        per = margin_log_sum_exp(Tensor(np.eye(1)), [(Tensor(values), [0], 1.0, 0.0, m2)], s)
        assert per.data[0, 0] < 1e-12


# A part as plain data: (cosines (B, K), label column per row, cosine margin m).
_cosine = st.floats(-1.0 + COSINE_CLAMP, 1.0 - COSINE_CLAMP)


@st.composite
def margin_parts(draw):
    batch = draw(st.integers(1, 4))
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        cols = draw(st.integers(2, 6))
        values = [[draw(_cosine) for _ in range(cols)] for _ in range(batch)]
        labels = [draw(st.integers(0, cols - 1)) for _ in range(batch)]
        parts.append((values, labels, draw(st.floats(0.0, 0.5))))
    return parts


def primitive(parts, s):
    """The primitive under test on plain-data parts, per sample."""
    built = [(Tensor(values), labels, 1.0, 0.0, m) for values, labels, m in parts]
    return margin_log_sum_exp(Tensor(np.eye(len(parts[0][1]))), built, s).data[:, 0]


def reference(parts, s):
    """log1p of the sum of exponentials, straight from the definition."""
    total = 0.0
    for values, labels, m in parts:
        values = np.asarray(values)
        rows = np.arange(values.shape[0])
        positive = values[rows, labels] - m
        terms = np.exp(s * values - s * positive[:, None])
        terms[rows, labels] = 0.0
        total = total + terms.sum(axis=1)
    return np.log1p(total)


class TestMarginLogSumExp:
    @settings(max_examples=60, deadline=None)
    @given(margin_parts(), st.floats(1.0, 64.0))
    # both sums equal one: cos_j = cos_y - m on each side, so ln 3
    @example([([[0.5, 0.1]], [0], 0.4), ([[0.6, 0.2]], [0], 0.4)], 8.0)
    # a prototype part with e_y = x and ten orthogonal e_j at s = 64, m = 0.4
    # sums to 10 * exp(-64 * 0.6), invisible at double precision
    @example([([[1.0 - COSINE_CLAMP] + [0.0] * 10], [0], 0.4)], 64.0)
    def test_matches_numpy_reference(self, parts, s):
        got, want = primitive(parts, s), reference(parts, s)
        assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, want)).all()

    @settings(max_examples=60, deadline=None)
    @given(margin_parts(), st.floats(1.0, 64.0), st.randoms(use_true_random=False))
    def test_invariant_to_part_order_and_negative_order(self, parts, s, random):
        shuffled = []
        for values, labels, m in reversed(parts):
            perm = list(range(len(values[0])))
            random.shuffle(perm)
            inverse = np.argsort(perm)
            shuffled.append(([[row[j] for j in perm] for row in values],
                             [int(inverse[y]) for y in labels], m))
        base = primitive(parts, s)
        assert np.allclose(primitive(shuffled, s), base, rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(margin_parts(), st.floats(1.0, 64.0), st.data())
    def test_an_added_negative_never_decreases_it(self, parts, s, data):
        which = data.draw(st.integers(0, len(parts) - 1))
        values, labels, m = parts[which]
        extra = [row + [data.draw(_cosine)] for row in values]
        grown = parts[:which] + [(extra, labels, m)] + parts[which + 1:]
        small = primitive(parts, s)
        assert (primitive(grown, s) >= small - 1e-12 * np.maximum(1.0, small)).all()


    @pytest.mark.parametrize("widths", [(10_000,), (10_000, 2_000)])
    def test_dense_forward_and_backward_allocate_few_blocks(self, widths):
        # The full-class (refinement) width: forward plus backward hold the
        # (B, 1 + sum K) exponent block and the columns' (d, K) gradient, half
        # a block here, and no other array of that size: at most 2 blocks.
        rng = rng_for(50)
        rows, dim = 64, 32
        feats = Tensor(unit_rows(rng, rows, dim), requires_grad=True)
        parts = [(Tensor(np.asfortranarray(unit_rows(rng, k, dim).T), requires_grad=True),
                  rng.integers(0, k, size=rows), 1.0, 0.0, 0.4) for k in widths]
        block = rows * (1 + sum(widths)) * 8
        tracemalloc.start()
        try:
            T.reduce_mean(margin_log_sum_exp(feats, parts, 64.0)).backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * block, f"peak {peak / block:.2f} blocks"


class TestClassifierBank:
    def test_init_unit_columns(self):
        bank = ClassifierBank.init_random(8, 20, rng_for(8))
        norms = np.linalg.norm(bank.weight.data, axis=0)
        np.testing.assert_allclose(norms, np.ones(20), atol=1e-12, rtol=0)

    def test_renormalize_subset_leaves_rest_untouched(self):
        # a sampled step of zero size projects its columns, and no other
        bank = ClassifierBank.init_random(4, 6, rng_for(9))
        bank.weight.data[:, 2] *= 3.0
        before = bank.weight.data.copy()
        AdamW().step("classifier", bank.weight.data, np.zeros((4, 1)), 0.0, columns=[2],
                     project=unit_columns)
        untouched = [0, 1, 3, 4, 5]
        assert bank.weight.data[:, untouched].tobytes() == before[:, untouched].tobytes()
        assert abs(np.linalg.norm(bank.weight.data[:, 2]) - 1.0) < 1e-12

    def test_too_small(self):
        with pytest.raises(ShapeError):
            ClassifierBank(weight=Tensor(np.ones((4, 1))))

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 40), dim=st.integers(2, 40), classes=st.integers(2, 300),
           r=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
    @example(batch=16, dim=32, classes=10, r=1.0, seed=0)
    def test_sampled_step_does_not_depend_on_the_layout(self, batch, dim, classes, r, seed):
        """The sampled loss, both gradients, the CSS score and the sampled
        step, re-normalization included, are bit-identical on either layout."""
        rng = rng_for(seed)
        feats = unit_rows(rng, batch, dim)
        w = rng.uniform(-1.0, 1.0, size=(dim, classes))
        labels = rng.integers(0, classes, size=batch)
        sset = sample(classes, r, labels, rng)
        results = []
        for layout in (w.copy(), np.asfortranarray(w)):
            bank = ClassifierBank(weight=Tensor(layout, requires_grad=True))
            f = Tensor(feats, requires_grad=True)
            leaf = gather_columns(bank, sset)
            loss = loss_alignment(f, labels, leaf, sset, 64.0, 0.4)
            loss.backward()
            css = css_score(feats, bank.weight.data, labels)
            AdamW().step("classifier", bank.weight.data, leaf.grad, 1e-2, 0.05,
                         columns=sset.global_ids, project=unit_columns)
            results.append((loss.data.tobytes(), f.grad.tobytes(),
                            leaf.grad.tobytes(order="C"), css,
                            bank.weight.data.tobytes(order="C")))
        assert results[0] == results[1]

    @pytest.mark.parametrize("classes", [3, 512, 1300])
    def test_sampled_renormalize_matches_dividing_in_place(self, classes):
        rng = rng_for(13)
        w = rng.uniform(-2.0, 2.0, size=(24, classes))
        ids = np.sort(rng.choice(classes, size=max(1, classes // 3), replace=False))
        expected = w.copy()
        expected[:, ids] /= np.linalg.norm(w[:, ids], axis=0, keepdims=True)
        for layout in (w.copy(), np.asfortranarray(w)):
            # a sampled step of zero size: only its projection moves the columns
            AdamW().step("classifier", layout, np.zeros((24, ids.size)), 0.0, columns=ids,
                         project=unit_columns)
            assert layout.tobytes(order="C") == expected.tobytes()

    def test_unit_columns_matches_the_whole_block_in_chunk_sized_temporaries(self):
        # The norms are taken over ranges of columns. Each shape but the first
        # and the last leaves one column after its last full range, and
        # numpy sums a lone C-order column in another order.
        rng = rng_for(14)
        for shape in [(32, 10_000), (32, 513), (16, 1025), (24, 683), (12, 1366), (40, 410),
                      (8, 2049), (8193, 3), (2, 1)]:
            for order in "CF":
                block = np.asarray(rng.uniform(-2.0, 2.0, size=shape), order=order)
                expected = block / np.linalg.norm(block, axis=0, keepdims=True)
                tracemalloc.start()
                try:
                    unit_columns(block)
                    peak = tracemalloc.get_traced_memory()[1] / block.nbytes
                finally:
                    tracemalloc.stop()
                assert block.tobytes(order="C") == expected.tobytes(order="C"), (shape, order)
                if shape == (32, 10_000):
                    assert peak <= 0.2, (order, peak)
