"""Feature extractors that map raw inputs to unit-norm embeddings.

There are two encoders: a two-layer MLP for loss-level experiments on vector
inputs, and a small vision transformer for images. The transformer has no
class token; after the final layer every patch token is concatenated and fed
through an MLP head, and the result is normalized onto the unit sphere.

One base class, ``_Encoder``, owns both encoders' parameters. A subclass
declares them by name, kind and shape, and the base class lays them out in
one flat float64 arena, a (P,) leaf whose gradient is a second (P,) vector:
each named parameter is a reshaped view of its slice of both, in declaration
order, so training steps, checks and clears all P values at once while
checkpoints still see named arrays. ``bind`` points the views at another
(P,) tensor, which is how the gradient check perturbs every parameter
through one probe row.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .tensor import Tensor

INIT_STD = 0.01


@dataclass(frozen=True)
class ViTConfig:
    image_width: int
    patch_stride: int
    token_dim: int
    layers: int
    heads: int
    embed_dim: int
    channels: int = 1
    ffn_hidden: int | None = None
    head_hidden: int | None = None

    def __post_init__(self):
        for f in fields(self):  # sizes first: the checks below divide by them
            value = getattr(self, f.name)
            if value is not None and value < 1:
                raise ConfigError(f"ViT {f.name} must be at least 1, got {value}")
        if self.image_width % self.patch_stride != 0:
            raise ConfigError(
                f"image width {self.image_width} not divisible by stride {self.patch_stride}"
            )
        if self.token_dim % self.heads != 0:
            raise ConfigError(
                f"token dim {self.token_dim} not divisible by {self.heads} heads"
            )

    @property
    def grid(self) -> int:
        return self.image_width // self.patch_stride

    @property
    def num_patches(self) -> int:
        return self.grid * self.grid

    @property
    def patch_len(self) -> int:
        return self.patch_stride * self.patch_stride * self.channels

    @property
    def head_dim(self) -> int:
        return self.token_dim // self.heads

    @property
    def ffn_width(self) -> int:
        return self.ffn_hidden if self.ffn_hidden is not None else 4 * self.token_dim

    @property
    def head_width(self) -> int:
        return self.head_hidden if self.head_hidden is not None else self.embed_dim

    def to_mapping(self) -> dict:
        return {**asdict(self), "ffn_hidden": self.ffn_width, "head_hidden": self.head_width}


def patchify(images: np.ndarray, config: ViTConfig) -> np.ndarray:
    """Cut W x W x C images into non-overlapping patches, one flattened patch
    per row, patches ordered row-major over the grid.

    Leading axes are batch axes: one image gives (N, P) rows, a (B, W, W, C)
    batch gives (B*N, P) rows, image by image.
    """
    images = np.asarray(images, dtype=np.float64)
    expected = (config.image_width, config.image_width, config.channels)
    if images.ndim < 3 or images.shape[-3:] != expected:
        raise ShapeError(f"image shape {images.shape} does not match config {expected}")
    s, g = config.patch_stride, config.grid
    rows = images.reshape(-1, g, s, g, s, config.channels)
    rows = rows.transpose(0, 1, 3, 2, 4, 5)
    return rows.reshape(-1, config.patch_len)


class _Encoder:
    """The parameters of an encoder and the protocol both encoders share.

    A subclass declares its named parameters in order, then calls
    ``allocate``. Each is a view into the (P,) ``arena`` leaf: its data in
    ``arena.data``, its gradient in ``arena.grad``, which the autodiff
    accumulates into and training zeroes."""

    def __init__(self):
        self._specs: list[tuple[str, tuple[int, ...], str, tuple | None]] = []

    def declare(self, name: str, shape: tuple[int, ...], kind: str, draw=None) -> None:
        """``kind`` is weight, bias or gain. ``draw`` = (draw_shape, axes): a
        weight drawn in another shape, then transposed by ``axes`` and
        reshaped, e.g. a fused weight's blocks."""
        self._specs.append((name, shape, kind, draw))

    def declare_affine(self, name: str, fan_in: int, fan_out: int, draw=None) -> None:
        self.declare(name + ".w", (fan_in, fan_out), "weight", draw)
        self.declare(name + ".b", (fan_out,), "bias")

    def declare_norm(self, name: str, dim: int) -> None:
        self.declare(name + ".gain", (dim,), "gain")
        self.declare(name + ".bias", (dim,), "bias")

    def allocate(self) -> None:
        """Create the zeroed arena once every parameter is declared."""
        size = sum(math.prod(shape) for _, shape, *_ in self._specs)
        try:
            self.arena = Tensor(np.zeros(size), requires_grad=True)
            self.arena.grad = np.zeros(size)
        except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
            raise ConfigError(f"an encoder of {size} parameters does not fit in memory") from exc
        self._tensors = {name: Tensor(np.empty(shape), requires_grad=True)
                         for name, shape, *_ in self._specs}
        self.bind(self.arena)

    def bind(self, flat: Tensor) -> None:
        """Make ``flat`` (a (P,) tensor with a gradient) the parameters' storage:
        every parameter's data and grad become consecutive slices of
        ``flat.data`` and ``flat.grad`` in declaration order. ``bind(self.arena)``
        returns them to their own."""
        if flat.shape != self.arena.shape or flat.grad is None or flat.grad.shape != flat.shape:
            raise ShapeError(f"need a {self.arena.shape} tensor with a gradient to bind, "
                             f"got {flat.shape}")
        lo = 0
        for name, t in self._tensors.items():
            hi = lo + t.size
            t.data = flat.data[lo:hi].reshape(t.shape)
            t.grad = flat.grad[lo:hi].reshape(t.shape)
            lo = hi

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def affine(self, x: Tensor, name: str) -> Tensor:
        """x @ ``name.w`` + ``name.b``, one node."""
        return T.affine(x, self[name + ".w"], self[name + ".b"])

    def layer_norm(self, x: Tensor, name: str) -> Tensor:
        return T.layer_norm(x, self[name + ".gain"], self[name + ".bias"])

    def init(self, rng: np.random.Generator, weight_std: float = INIT_STD) -> None:
        """Weights ~ N(0, weight_std), biases zero, normalization gains one;
        drawn in declaration order so the rng stream is reproducible. The
        default matches the training recipe; gradient checks pass a larger
        std so the unit normalization is well conditioned at the probe point."""
        for name, shape, kind, draw in self._specs:
            if kind == "weight":
                draw_shape, axes = draw or (shape, tuple(range(len(shape))))
                data = rng.normal(0.0, weight_std, size=draw_shape).transpose(axes).reshape(shape)
            else:
                data = 1.0 if kind == "gain" else 0.0
            self[name].data[...] = data
        self.arena.grad.fill(0.0)

    def params(self) -> list[tuple[str, Tensor]]:
        return list(self._tensors.items())

    def num_params(self) -> int:
        return self.arena.size

    def restore(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter from ``arrays``, which must hold exactly
        the declared names and shapes; all are checked before any is written."""
        for name in arrays:
            if name not in self._tensors:
                raise ConfigError(f"checkpoint has undeclared parameter {name!r}")
        loaded = {}
        for name, shape, *_ in self._specs:
            if name not in arrays:
                raise ConfigError(f"checkpoint is missing parameter {name!r}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != shape:
                raise ConfigError(
                    f"parameter {name!r} has shape {arr.shape}, expected {shape}"
                )
            loaded[name] = arr
        for name, arr in loaded.items():
            self[name].data[...] = arr
        self.arena.grad.fill(0.0)


class MLPEncoder(_Encoder):
    """Two affine layers with a smooth nonlinearity between, then unit-normalize."""

    def __init__(self, input_dim: int, hidden_dim: int, embed_dim: int):
        if min(input_dim, hidden_dim, embed_dim) < 2:
            raise ConfigError("all MLP dimensions must be at least 2")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.embed_dim = embed_dim
        super().__init__()
        self.declare_affine("fc1", input_dim, hidden_dim)
        self.declare_affine("fc2", hidden_dim, embed_dim)
        self.allocate()

    def forward(self, inputs: np.ndarray) -> Tensor:
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ShapeError(f"expected (batch, {self.input_dim}) inputs, got {x.shape}")
        h = T.gelu(self.affine(Tensor(x), "fc1"))
        return T.l2_normalize_rows(self.affine(h, "fc2"))

    def describe(self) -> dict:
        return {
            "kind": "mlp",
            "input_dim": self.input_dim,
            "hidden_dim": self.hidden_dim,
            "embed_dim": self.embed_dim,
        }


class ViTEncoder(_Encoder):
    """Patch embedding, pre-norm transformer layers, all-token MLP head.

    Layer l computes, with LN inside the residual branch:

        u = tokens + attention(LN(tokens))
        tokens = u + ffn(LN(u))

    The head flattens each image's final token sequence row-major and applies
    fc -> layer norm -> gelu -> fc before the unit normalization. Attention
    scores are scaled by 1/sqrt(head_dim).

    A batch of B images runs as one graph: its B*N patch tokens are the rows
    of every layer, and ``tensor.attention`` keeps each image's N rows to
    themselves. Every projection is one ``tensor.affine`` node, the patch
    embedding too, whose bias is the (N, D) position embedding tiled over the
    images. Each layer has one fused (D, 3D) projection ``attn_qkv.w`` with
    columns [q | k | v]; head h owns columns h*dh .. (h+1)*dh of each block.
    """

    def __init__(self, config: ViTConfig):
        self.config = config
        self.embed_dim = config.embed_dim
        super().__init__()
        self.declare("patch_embed", (config.patch_len, config.token_dim), "weight")
        self.declare("pos_embed", (config.num_patches, config.token_dim), "weight")
        d, dh, heads = config.token_dim, config.head_dim, config.heads
        # Drawn head by head, q/k/v within a head, each block a (d, dh) draw.
        qkv_draw = ((heads, 3, d, dh), (2, 1, 0, 3))
        for i in range(config.layers):
            pre = f"layer{i}."
            self.declare_norm(pre + "attn_ln", d)
            self.declare_affine(pre + "attn_qkv", d, 3 * d, draw=qkv_draw)
            self.declare_affine(pre + "attn_out", d, d)
            self.declare_norm(pre + "ffn_ln", d)
            self.declare_affine(pre + "ffn1", d, config.ffn_width)
            self.declare_affine(pre + "ffn2", config.ffn_width, d)
        self.declare_affine("head_fc1", config.num_patches * d, config.head_width)
        self.declare_norm("head_ln", config.head_width)
        self.declare_affine("head_fc2", config.head_width, config.embed_dim)
        self.allocate()

    def attention(self, tokens: Tensor, layer: int) -> Tensor:
        """Multi-head self-attention over the token rows of one or more images
        (G*N x D), each image's N rows attending among themselves."""
        groups = tokens.shape[0] // self.config.num_patches
        pre = f"layer{layer}."
        mixed = T.attention(self.affine(tokens, pre + "attn_qkv"), groups, self.config.heads)
        return self.affine(mixed, pre + "attn_out")

    def forward_tokens(self, images: np.ndarray) -> Tensor:
        """Token rows after the last transformer layer, before the head: (N, D)
        for one image, (B*N, D) image by image for a batch."""
        cfg = self.config
        z = T.affine(Tensor(patchify(images, cfg)), self["patch_embed"], self["pos_embed"])
        for i in range(cfg.layers):
            pre = f"layer{i}."
            z = T.add(self.attention(self.layer_norm(z, pre + "attn_ln"), i), z)
            h = T.gelu(self.affine(self.layer_norm(z, pre + "ffn_ln"), pre + "ffn1"))
            z = T.add(self.affine(h, pre + "ffn2"), z)
        return z

    def forward(self, inputs: np.ndarray) -> Tensor:
        x = np.asarray(inputs, dtype=np.float64)
        if x.ndim != 4:
            raise ShapeError(f"expected (batch, W, W, C) images, got shape {x.shape}")
        cfg = self.config
        z = self.forward_tokens(x)
        flat = T.reshape(z, (x.shape[0], cfg.num_patches * cfg.token_dim))
        h = T.gelu(self.layer_norm(self.affine(flat, "head_fc1"), "head_ln"))
        return T.l2_normalize_rows(self.affine(h, "head_fc2"))

    def describe(self) -> dict:
        return {"kind": "vit", **self.config.to_mapping()}


def build_encoder(arch) -> MLPEncoder | ViTEncoder:
    """Build an encoder from an architecture mapping: a ``describe()`` result,
    or what the command line makes of its config keys. Every field is an
    integer; the ViT fields that have a default may be left out."""
    if not isinstance(arch, dict):
        raise ConfigError(f"encoder architecture must be a mapping, got {type(arch).__name__}")
    kind = arch.get("kind")
    if kind == "mlp":
        return MLPEncoder(**_int_fields(arch, ("input_dim", "hidden_dim", "embed_dim")))
    if kind == "vit":
        names = [f.name for f in fields(ViTConfig) if f.default is MISSING or f.name in arch]
        return ViTEncoder(ViTConfig(**_int_fields(arch, names)))
    raise ConfigError(f"unknown encoder kind {kind!r}")


def _int_fields(arch: dict, names) -> dict[str, int]:
    out = {}
    for name in names:
        if name not in arch:
            raise ConfigError(f"encoder architecture is missing {name!r}")
        value = arch[name]
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ConfigError(f"encoder {name!r} must be an integer, got {value!r}")
        out[name] = int(value)
    return out
