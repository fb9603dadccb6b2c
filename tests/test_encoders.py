import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spheretrain import tensor as T
from spheretrain.encoders import (
    MLPEncoder,
    ViTConfig,
    ViTEncoder,
    build_encoder,
    patchify,
)
from spheretrain.errors import ConfigError, ShapeError
from spheretrain.gradcheck import encoder_gradient_check
from spheretrain.tensor import Tensor


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def tiny_config(**overrides):
    base = dict(
        image_width=4, patch_stride=2, token_dim=16, layers=2, heads=2,
        embed_dim=8, channels=1, ffn_hidden=24, head_hidden=12,
    )
    base.update(overrides)
    return ViTConfig(**base)


class TestPatchify:
    def test_small_grid(self):
        cfg = tiny_config()
        img = np.arange(16.0).reshape(4, 4, 1)
        patches = patchify(img, cfg)
        assert patches.shape == (4, 4)
        # row-major over the patch grid, row-major within each patch
        np.testing.assert_array_equal(patches[0], [0.0, 1.0, 4.0, 5.0])
        np.testing.assert_array_equal(patches[1], [2.0, 3.0, 6.0, 7.0])
        np.testing.assert_array_equal(patches[2], [8.0, 9.0, 12.0, 13.0])

    def test_paper_scale_shape(self):
        cfg = ViTConfig(
            image_width=112, patch_stride=7, token_dim=16, layers=1, heads=2,
            embed_dim=8, channels=3,
        )
        img = np.zeros((112, 112, 3))
        assert patchify(img, cfg).shape == (256, 7 * 7 * 3)

    def test_batch_rows_are_the_images_patches_in_order(self):
        cfg = tiny_config()
        batch = rng_for(11).uniform(size=(3, 4, 4, 1))
        expected = np.concatenate([patchify(img, cfg) for img in batch])
        np.testing.assert_array_equal(patchify(batch, cfg), expected)

    def test_constant_image_gives_identical_rows(self):
        cfg = tiny_config()
        patches = patchify(np.full((4, 4, 1), 0.7), cfg)
        assert (patches == patches[0]).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((5, 4, 1)), tiny_config())

    def test_width_not_divisible(self):
        with pytest.raises(ConfigError):
            ViTConfig(image_width=5, patch_stride=2, token_dim=8, layers=1,
                      heads=2, embed_dim=4)


class TestMLPEncoder:
    def test_output_is_unit_norm(self):
        rng = rng_for(0)
        enc = MLPEncoder(input_dim=6, hidden_dim=10, embed_dim=5)
        enc.init(rng)
        out = enc.forward(rng.standard_normal((7, 6)))
        norms = np.linalg.norm(out.data, axis=1)
        np.testing.assert_allclose(norms, np.ones(7), atol=1e-12, rtol=0)

    def test_identity_initialized_layers_preserve_direction(self):
        enc = MLPEncoder(input_dim=4, hidden_dim=4, embed_dim=4)
        enc.restore(
            {
                "fc1.w": np.eye(4),
                "fc1.b": np.zeros(4),
                "fc2.w": np.eye(4),
                "fc2.b": np.zeros(4),
            }
        )
        # entries large enough that the smooth nonlinearity is the identity
        x = np.array([[12.0, 24.0, 36.0, 48.0]])
        out = enc.forward(x).data
        np.testing.assert_allclose(out, x / np.linalg.norm(x), atol=1e-12, rtol=0)

    def test_gradient_check(self):
        rng = rng_for(1)
        enc = MLPEncoder(input_dim=5, hidden_dim=7, embed_dim=4)
        enc.init(rng, weight_std=0.3)
        err = encoder_gradient_check(
            enc, rng.standard_normal((3, 5)), rng.standard_normal((3, 4)),
            max_coords=60, rng=rng,
        )
        assert err < 1e-3

    def test_param_count(self):
        enc = MLPEncoder(input_dim=5, hidden_dim=7, embed_dim=4)
        assert enc.num_params() == 5 * 7 + 7 + 7 * 4 + 4


def vit_param_count_formula(cfg: ViTConfig) -> int:
    """Independent parameter-count expression, straight from the shapes."""
    n, d, dh, f = cfg.num_patches, cfg.token_dim, cfg.head_dim, cfg.ffn_width
    per_layer = (
        2 * d                      # attention layer norm
        + cfg.heads * 3 * (d * dh + dh)  # q, k, v per head
        + d * d + d                # output projection
        + 2 * d                    # ffn layer norm
        + d * f + f + f * d + d    # ffn
    )
    head = (
        n * d * cfg.head_width + cfg.head_width
        + 2 * cfg.head_width
        + cfg.head_width * cfg.embed_dim + cfg.embed_dim
    )
    return cfg.patch_len * d + n * d + cfg.layers * per_layer + head


class TestViTEncoder:
    def test_output_shape_and_norm(self):
        cfg = tiny_config()
        enc = ViTEncoder(cfg)
        enc.init(rng_for(2))
        out = enc.forward(rng_for(3).uniform(size=(3, 4, 4, 1)))
        assert out.shape == (3, cfg.embed_dim)
        norms = np.linalg.norm(out.data, axis=1)
        np.testing.assert_allclose(norms, np.ones(3), atol=1e-12, rtol=0)

    def test_deterministic_forward(self):
        enc = ViTEncoder(tiny_config())
        enc.init(rng_for(4))
        img = rng_for(5).uniform(size=(1, 4, 4, 1))
        assert enc.forward(img).data.tobytes() == enc.forward(img).data.tobytes()

    def test_param_count_matches_formula(self):
        for cfg in (tiny_config(), tiny_config(layers=3, heads=4, ffn_hidden=None,
                                               head_hidden=None, embed_dim=10)):
            assert ViTEncoder(cfg).num_params() == vit_param_count_formula(cfg)

    def test_permutation_equivariance_without_positions(self):
        # zero positional table: permuting input patches permutes the final
        # tokens the same way
        cfg = tiny_config()
        enc = ViTEncoder(cfg)
        enc.init(rng_for(6))
        enc.restore({
            **{name: t.data for name, t in enc.params()},
            "pos_embed": np.zeros((cfg.num_patches, cfg.token_dim)),
        })
        rng = rng_for(7)
        img = rng.uniform(size=(4, 4, 1))
        patches = patchify(img, cfg)
        perm = np.array([2, 0, 3, 1])
        permuted_patches = patches[perm]
        # reassemble an image whose patch decomposition is the permuted one
        grid = cfg.grid
        img_perm = np.zeros_like(img)
        for k in range(cfg.num_patches):
            gy, gx = divmod(k, grid)
            block = permuted_patches[k].reshape(cfg.patch_stride, cfg.patch_stride, 1)
            img_perm[
                gy * cfg.patch_stride : (gy + 1) * cfg.patch_stride,
                gx * cfg.patch_stride : (gx + 1) * cfg.patch_stride,
            ] = block
        tokens = enc.forward_tokens(img).data
        tokens_perm = enc.forward_tokens(img_perm).data
        np.testing.assert_allclose(tokens_perm, tokens[perm], atol=1e-12, rtol=0)

    def test_single_head_identity_attention_matches_scalar_loop(self):
        cfg = tiny_config(heads=1, token_dim=4, ffn_hidden=8, head_hidden=6)
        enc = ViTEncoder(cfg)
        enc.init(rng_for(8))
        d = cfg.token_dim
        enc.restore(
            {
                **{name: t.data for name, t in enc.params()},
                "layer0.attn_qkv.w": np.hstack([np.eye(d)] * 3),
                "layer0.attn_qkv.b": np.zeros(3 * d),
                "layer0.attn_out.w": np.eye(d),
                "layer0.attn_out.b": np.zeros(d),
            }
        )
        tokens = rng_for(9).standard_normal((cfg.num_patches, d))
        out = enc.attention(Tensor(tokens), layer=0).data

        # scalar-loop oracle: softmax-weighted token averaging
        n = cfg.num_patches
        expected = np.zeros_like(tokens)
        for i in range(n):
            logits = [
                sum(tokens[i, a] * tokens[j, a] for a in range(d)) / np.sqrt(d)
                for j in range(n)
            ]
            mx = max(logits)
            weights = [np.exp(l - mx) for l in logits]
            total = sum(weights)
            for j in range(n):
                expected[i] += weights[j] / total * tokens[j]
        np.testing.assert_allclose(out, expected, atol=1e-12, rtol=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([1, 2, 4]), st.integers(1, 2),
           st.integers(0, 2**32 - 1))
    def test_batch_rows_match_single_image_forwards(self, batch, heads, layers, seed):
        cfg = tiny_config(token_dim=8, heads=heads, layers=layers)
        enc = ViTEncoder(cfg)
        rng = rng_for(seed)
        enc.init(rng, weight_std=0.3)
        images = rng.uniform(size=(batch, 4, 4, 1))
        out = enc.forward(images).data
        for i in range(batch):
            single = enc.forward(images[i:i + 1]).data
            np.testing.assert_allclose(out[i:i + 1], single, atol=1e-12, rtol=0)

    def test_init_draws_qkv_head_by_head_like_separate_projections(self):
        """The fused q/k/v weight takes the values, and leaves the rng in the
        state, of one (d, dh) draw per head and projection in declaration
        order (head, then q/k/v), each block landing at its head's columns."""
        cfg = tiny_config(heads=2, layers=2)
        d, dh, f = cfg.token_dim, cfg.head_dim, cfg.ffn_width
        enc = ViTEncoder(cfg)
        rng = rng_for(12)
        enc.init(rng)
        ref = rng_for(12)
        expected = {
            "patch_embed": ref.normal(0.0, 0.01, size=(cfg.patch_len, d)),
            "pos_embed": ref.normal(0.0, 0.01, size=(cfg.num_patches, d)),
        }
        for i in range(cfg.layers):
            blocks = {(h, p): ref.normal(0.0, 0.01, size=(d, dh))
                      for h in range(cfg.heads) for p in range(3)}
            expected[f"layer{i}.attn_qkv.w"] = np.hstack(
                [blocks[h, p] for p in range(3) for h in range(cfg.heads)])
            expected[f"layer{i}.attn_out.w"] = ref.normal(0.0, 0.01, size=(d, d))
            expected[f"layer{i}.ffn1.w"] = ref.normal(0.0, 0.01, size=(d, f))
            expected[f"layer{i}.ffn2.w"] = ref.normal(0.0, 0.01, size=(f, d))
        expected["head_fc1.w"] = ref.normal(0.0, 0.01, size=(cfg.num_patches * d,
                                                              cfg.head_width))
        expected["head_fc2.w"] = ref.normal(0.0, 0.01, size=(cfg.head_width, cfg.embed_dim))
        params = dict(enc.params())
        for name, arr in expected.items():
            assert params[name].data.tobytes() == arr.tobytes(), name
        assert str(rng.bit_generator.state) == str(ref.bit_generator.state)

    def test_fused_parameter_names(self):
        enc = ViTEncoder(tiny_config(layers=2, heads=2))
        names = [name for name, _ in enc.params()]
        assert len(names) == 32
        assert "layer1.attn_qkv.w" in names and "layer1.attn_qkv.b" in names
        shapes = dict((n, t.shape) for n, t in enc.params())
        assert shapes["layer0.attn_qkv.w"] == (16, 48)
        assert shapes["layer0.attn_qkv.b"] == (48,)

    def test_gradient_check_small_vit(self):
        rng = rng_for(10)
        enc = ViTEncoder(tiny_config())
        enc.init(rng, weight_std=0.3)
        err = encoder_gradient_check(
            enc,
            rng.uniform(size=(2, 4, 4, 1)),
            rng.standard_normal((2, 8)),
            max_coords=48,
            rng=rng,
        )
        assert err < 1e-3

    def test_build_encoder_round_trip(self):
        enc = ViTEncoder(tiny_config())
        rebuilt = build_encoder(enc.describe())
        assert rebuilt.describe() == enc.describe()
        mlp = MLPEncoder(3, 4, 5)
        assert build_encoder(mlp.describe()).describe() == mlp.describe()

    def test_restore_validates_shapes(self):
        enc = MLPEncoder(3, 4, 5)
        with pytest.raises(ConfigError):
            enc.restore({"fc1.w": np.zeros((2, 2))})

    def test_restore_rejects_undeclared_names(self):
        enc = ViTEncoder(tiny_config())
        enc.init(rng_for(40))
        arrays = {name: t.data for name, t in enc.params()}
        # a stale per-head name next to the current fused ones
        arrays["layer0.head0.wq"] = np.zeros((16, 8))
        arrays["layer0.head1.wq"] = np.zeros((16, 8))
        with pytest.raises(ConfigError, match=r"'layer0\.head0\.wq'"):
            enc.restore(arrays)

    def test_failed_restore_replaces_nothing(self):
        enc = MLPEncoder(3, 4, 5)
        enc.init(rng_for(41))
        before = dict(enc.params())
        arena = enc.arena.data.copy()
        arrays = {name: t.data + 1.0 for name, t in enc.params()}
        arrays["fc2.w"] = np.zeros((2, 2))  # the third parameter is bad
        with pytest.raises(ConfigError, match="fc2.w"):
            enc.restore(arrays)
        for name, t in enc.params():
            assert t is before[name]
        assert enc.arena.data.tobytes() == arena.tobytes()

    def test_head_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            tiny_config(token_dim=10, heads=4)


def small_vit():
    return ViTEncoder(tiny_config())


class TestParameterArena:
    @pytest.mark.parametrize("make", [lambda: MLPEncoder(5, 7, 4), small_vit], ids=["mlp", "vit"])
    def test_parameters_tile_the_arena_in_declaration_order(self, make):
        enc = make()
        enc.init(rng_for(50))
        arena = enc.arena
        assert arena.shape == (enc.num_params(),) and arena.grad.shape == arena.shape
        offset = 0
        for name, t in enc.params():
            for view, flat in ((t.data, arena.data), (t.grad, arena.grad)):
                assert view.base is flat, name
                assert view.ctypes.data == flat.ctypes.data + 8 * offset, name
                assert view.flags.c_contiguous and view.shape == t.shape, name
            offset += t.size
        assert offset == arena.size

    def test_backward_accumulates_into_the_arena_gradient(self):
        enc = MLPEncoder(5, 7, 4)
        enc.init(rng_for(51), weight_std=0.3)
        assert not enc.arena.grad.any()
        T.reduce_sum(enc.forward(rng_for(52).standard_normal((3, 5)))).backward()
        flat = np.concatenate([t.grad.reshape(-1) for _, t in enc.params()])
        assert flat.tobytes() == enc.arena.grad.tobytes() and enc.arena.grad.any()

    def test_init_and_restore_clear_the_gradient(self):
        enc = MLPEncoder(5, 7, 4)
        enc.arena.grad[:] = 1.0
        enc.init(rng_for(53))
        assert not enc.arena.grad.any()
        enc.arena.grad[:] = 1.0
        enc.restore({name: t.data.copy() for name, t in enc.params()})
        assert not enc.arena.grad.any()

    def test_bind_moves_the_views_and_back(self):
        enc = MLPEncoder(5, 7, 4)
        enc.init(rng_for(54))
        inputs = rng_for(55).standard_normal((3, 5))
        before = enc.forward(inputs).data
        row = Tensor(enc.arena.data * 2.0)
        row.grad = np.zeros(row.shape)
        enc.bind(row)
        assert dict(enc.params())["fc1.w"].data.base is row.data
        assert enc.forward(inputs).data.tobytes() != before.tobytes()
        enc.bind(enc.arena)
        assert enc.forward(inputs).data.tobytes() == before.tobytes()

    def test_bind_rejects_a_row_of_another_size(self):
        enc = MLPEncoder(5, 7, 4)
        row = Tensor(np.zeros(enc.num_params() + 1))
        row.grad = np.zeros(row.shape)
        with pytest.raises(ShapeError):
            enc.bind(row)


def op_nodes(out: Tensor) -> int:
    """The graph nodes behind ``out`` that have a backward, ``out`` included."""
    return sum(node._backward is not None for node in T._topological_order(out))


@pytest.mark.parametrize("make, inputs, expected", [
    # fc1, gelu, fc2, normalize
    (lambda: MLPEncoder(32, 64, 32), np.ones((4, 32)), 4),
    # patch embedding; 10 per layer: 2 norms, 4 projections, attention, gelu,
    # 2 residual adds; head: flatten, fc1, norm, gelu, fc2, normalize
    (lambda: ViTEncoder(ViTConfig(image_width=24, patch_stride=6, token_dim=16, layers=2,
                                  heads=2, embed_dim=16, channels=1, ffn_hidden=32,
                                  head_hidden=32)),
     np.ones((4, 24, 24, 1)), 27),
], ids=["mlp", "vit"])
def test_graph_size_of_one_forward(make, inputs, expected):
    # The ViT is the staged-efficacy config. Every projection is one affine
    # node, the patch embedding and its position embedding included.
    enc = make()
    enc.init(rng_for(60))
    assert op_nodes(enc.forward(inputs)) == expected
