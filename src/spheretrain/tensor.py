"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation records its input tensors and a
backward closure on the output. Calling :meth:`Tensor.backward` on a scalar
result walks the graph once in reverse topological order and accumulates
gradients into every tensor that has ``requires_grad`` set. Graphs are
rebuilt on each forward pass; a given root can be walked only once.

All data is float64 and at most rank 2, which is everything the encoders and
losses in this package need. Two ops work at higher rank internally, on
rank-2 inputs and outputs: :func:`attention` views (G*N, 3D) rows as rank-4
(group, head, token, feature) blocks, and :func:`affine` views its (m, n)
product as rank-3 (m/p, p, n) blocks to add a (p, n) bias to each.

Forward passes are bit-deterministic for a fixed op order. Op outputs are
never mutated; optimizers may rewrite leaf ``.data`` between forward passes,
never while a graph referencing the leaf is alive. Only
:func:`margin_logsumexp` works in place, on the exponent block it allocates
itself and shares with no other op. A first gradient is a copy of the upstream
array in the tensor's memory order. :func:`matmul` computes the gradient of a
column-major right operand (the classifier or a block of it) column-major
too, as (g^T a)^T, so that copy is contiguous. :func:`clip` builds its
gradient mask only when some input was actually clipped or is NaN.
Independent graphs may be evaluated concurrently; a single graph must stay
confined to one worker.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateInputError, DomainError, GraphError, ShapeError

Array = np.ndarray

ZERO_ROW_THRESHOLD = 1e-12
LAYER_NORM_EPS = 1e-5


class Tensor:
    """A dense float64 array plus an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ShapeError(f"tensors are at most rank 2, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Populate ``grad`` on every reachable tensor with ``requires_grad``.

        The root must be a scalar and may be walked only once per forward
        pass; gradients accumulate into any leaf that is shared between
        graphs, so callers clear leaf grads between iterations.
        """
        if self.data.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {self.shape}")
        if not self.requires_grad:
            raise GraphError("backward root does not require gradients")
        if self._consumed:
            raise GraphError("backward was already called on this graph root")
        self._consumed = True
        order = _topological_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _topological_order(root: Tensor) -> list[Tensor]:
    # Post-order DFS with resumable iterators; marking at push time is safe
    # for DAGs (a gray parent of the current node would imply a cycle).
    order: list[Tensor] = []
    visited = {id(root)}
    stack: list[tuple[Tensor, "iter"]] = [(root, iter(root._parents))]
    while stack:
        node, it = stack[-1]
        pushed = False
        for parent in it:
            if id(parent) not in visited:
                visited.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                pushed = True
                break
        if not pushed:
            order.append(node)
            stack.pop()
    return order


def _make(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], None]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = any(p.requires_grad for p in parents)
    out.grad = None
    out._consumed = False
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    else:
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op} needs identical shapes, got {a.shape} and {b.shape}")


# ---------------------------------------------------------------------------
# elementwise arithmetic (identical shapes; ``add`` also takes a scalar)


def add(a: Tensor, b) -> Tensor:
    if not isinstance(b, Tensor):
        c = float(b)
        data = a.data + c

        def backward(g: Array) -> None:
            _accumulate(a, g)

        return _make(data, (a,), backward)
    _require_same_shape(a, b, "add")
    data = a.data + b.data

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return _make(data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    data = a.data - b.data

    def backward(g: Array) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return _make(data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "mul")
    data = a.data * b.data

    def backward(g: Array) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return _make(data, (a, b), backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    data = a.data * c

    def backward(g: Array) -> None:
        _accumulate(a, g * c)

    return _make(data, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    data = a.data @ b.data

    def backward(g: Array) -> None:
        _accumulate(a, g @ b.data.T)
        # A column-major right operand (the classifier) gets a column-major
        # gradient, so that ``_accumulate`` copies it contiguously.
        if b.data.flags.f_contiguous and not b.data.flags.c_contiguous:
            _accumulate(b, (g.T @ a.data).T)
        else:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one node; b is one (n,) row added to every row of the
    (m, n) product, or a (p, n) block added to each run of p rows (p | m)."""
    p = b.shape[0] if b.data.ndim == 2 else 1
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[0] or p < 1
            or b.data.ndim not in (1, 2) or b.shape[-1] != w.shape[1] or x.shape[0] % p):
        raise ShapeError(f"affine shapes disagree: {x.shape} @ {w.shape} + {b.shape}")
    data = x.data @ w.data  # C-contiguous, so the reshape below is a view
    blocks = data.reshape(-1, *b.shape)
    blocks += b.data

    def backward(g: Array) -> None:
        _accumulate(x, g @ w.data.T)
        _accumulate(w, x.data.T @ g)
        _accumulate(b, g.reshape(-1, *b.shape).sum(axis=0))

    return _make(data, (x, w, b), backward)


# ---------------------------------------------------------------------------
# transcendental / clamped ops


def cos(a: Tensor) -> Tensor:
    data = np.cos(a.data)

    def backward(g: Array) -> None:
        _accumulate(a, -g * np.sin(a.data))

    return _make(data, (a,), backward)


def arccos(a: Tensor) -> Tensor:
    """Inverse cosine. Callers clamp away from +-1; the derivative diverges there."""
    if np.any(np.abs(a.data) > 1.0):
        raise DomainError("arccos requires inputs in [-1, 1]")
    data = np.arccos(a.data)

    def backward(g: Array) -> None:
        _accumulate(a, -g / np.sqrt(1.0 - a.data * a.data))

    return _make(data, (a,), backward)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only where the input was in range.

    The mask is built only when some input lies outside [lo, hi] or is NaN;
    otherwise the gradient passes through unchanged, the same bits that a
    mask of all ones gives.
    """
    data = np.clip(a.data, lo, hi)
    inside = a.data.size == 0 or lo <= a.data.min() and a.data.max() <= hi
    mask = None if inside else (a.data >= lo) & (a.data <= hi)

    def backward(g: Array) -> None:
        _accumulate(a, g if mask is None else g * mask)

    return _make(data, (a,), backward)


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Smooth GELU (tanh form): 0.5*x*(1 + tanh(c*(x + a*x^3)))."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g: Array) -> None:
        sech2 = 1.0 - t * t
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        _accumulate(a, g * (0.5 * (1.0 + t) + 0.5 * x * sech2 * d_inner))

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# row-wise reductions and normalizations


def row_logsumexp(a: Tensor) -> Tensor:
    """log(sum(exp(row))) per row as an (m, 1) column, max-shift stabilized."""
    if a.data.ndim != 2:
        raise ShapeError(f"row_logsumexp needs a rank-2 input, got shape {a.shape}")
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    total = e.sum(axis=1, keepdims=True)
    data = m + np.log(total)

    def backward(g: Array) -> None:
        _accumulate(a, (e / total) * g)

    return _make(data, (a,), backward)


def margin_logsumexp(parts: Sequence[tuple[Tensor, Array, Tensor]], s: float) -> Tensor:
    """Per-row log(1 + sum over parts of sum_{j != label} exp(s*cos_j - s*pos))
    as a (B, 1) column; a part is (cos (B, K), label column (B,), pos (B, 1)).

    The exponents fill one (B, 1 + sum K) buffer: column 0 is the zero that
    stands for the leading 1, and each label entry is -inf, so it adds exactly
    0 and gets exactly 0 gradient. Forward and backward work in that buffer in
    place, so the node can be walked once (``GraphError`` on a second walk).
    """
    if not parts:
        raise ShapeError("margin_logsumexp needs at least one part")
    s, rows = float(s), parts[0][0].shape[0]
    for cos, labels, pos in parts:
        shapes = (cos.data.ndim, cos.shape[0], pos.shape, np.shape(labels))
        if shapes != (2, rows, (rows, 1), (rows,)):
            raise ShapeError(f"margin_logsumexp part of cosines {cos.shape}, labels "
                             f"{np.shape(labels)}, positive {pos.shape} for {rows} rows")
        if rows and not 0 <= np.min(labels) <= np.max(labels) < cos.shape[1]:
            raise ShapeError(f"label column out of range for {cos.shape[1]} columns")
    bounds = np.cumsum([1] + [cos.shape[1] for cos, _, _ in parts])
    row_ids = np.arange(rows)
    e = np.empty((rows, int(bounds[-1])))
    e[:, 0] = 0.0
    for (cos, labels, pos), lo, hi in zip(parts, bounds[:-1], bounds[1:]):
        block = e[:, lo:hi]
        np.multiply(cos.data, s, out=block)
        block += pos.data * -s
        block[row_ids, labels] = -np.inf
    m = e.max(axis=1, keepdims=True)
    e -= m
    np.exp(e, out=e)
    total = e.sum(axis=1, keepdims=True)
    data = m + np.log(total)

    def backward(g: Array) -> None:
        nonlocal e
        if e is None:
            raise GraphError("margin_logsumexp: a second backward pass through one node")
        p, e = e, None  # the exponents become the gradient in place
        p /= total
        p *= g
        for (cos, _, pos), lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            block = p[:, lo:hi]
            _accumulate(pos, block.sum(axis=1, keepdims=True) * -s)
            block *= s
            _accumulate(cos, block)

    return _make(data, [t for cos, _, pos in parts for t in (cos, pos)], backward)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm."""
    if a.data.ndim != 2:
        raise ShapeError(f"l2_normalize_rows needs a rank-2 input, got shape {a.shape}")
    norms = np.linalg.norm(a.data, axis=1, keepdims=True)
    if np.any(norms < ZERO_ROW_THRESHOLD):
        raise DegenerateInputError("cannot normalize a row with near-zero norm")
    data = a.data / norms

    def backward(g: Array) -> None:
        # projection (I - y y^T) / ||x|| applied to the upstream gradient
        dot = (g * data).sum(axis=1, keepdims=True)
        _accumulate(a, (g - data * dot) / norms)

    return _make(data, (a,), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-row standardization followed by an affine map.

    Variance is the population estimate (1/D) with epsilon 1e-5 added under
    the square root.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"layer_norm needs a rank-2 input, got shape {a.shape}")
    dim = a.shape[1]
    if dim < 2:
        raise ShapeError("layer_norm needs at least 2 features per row")
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"gain/bias must have shape ({dim},), got {gain.shape} and {bias.shape}"
        )
    mean = a.data.mean(axis=1, keepdims=True)
    centered = a.data - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = centered * inv_std
    data = xhat * gain.data + bias.data

    def backward(g: Array) -> None:
        _accumulate(gain, (g * xhat).sum(axis=0))
        _accumulate(bias, g.sum(axis=0))
        dxhat = g * gain.data
        term = dxhat - dxhat.mean(axis=1, keepdims=True)
        term -= xhat * (dxhat * xhat).mean(axis=1, keepdims=True)
        _accumulate(a, term * inv_std)

    return _make(data, (a, gain, bias), backward)


def attention(qkv: Tensor, groups: int, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within each of ``groups``
    equal blocks of rows, (G*N, 3D) -> (G*N, D).

    The columns of ``qkv`` are [q | k | v], D each, with head h at columns
    h*dh .. (h+1)*dh of every block (dh = D / heads). Each query row attends
    to the N rows of its own group only, with scores scaled by 1/sqrt(dh)
    and a max-shifted softmax; head h's output fills the same columns of the
    result. Rows of different groups never mix.
    """
    if qkv.data.ndim != 2:
        raise ShapeError(f"attention needs a rank-2 input, got shape {qkv.shape}")
    rows, cols = qkv.shape
    if groups < 1 or heads < 1 or rows % groups or cols % (3 * heads):
        raise ShapeError(
            f"attention cannot split {qkv.shape} into {groups} groups and 3 x {heads} heads"
        )
    n, d = rows // groups, cols // 3
    dh = d // heads
    inv = 1.0 / np.sqrt(dh)
    # (G, N, 3, H, dh) -> three (G, H, N, dh) views
    q, k, v = qkv.data.reshape(groups, n, 3, heads, dh).transpose(2, 0, 3, 1, 4)
    scores = (q @ k.swapaxes(-1, -2)) * inv
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    data = (weights @ v).transpose(0, 2, 1, 3).reshape(rows, d)

    def backward(g: Array) -> None:
        gh = g.reshape(groups, n, heads, dh).transpose(0, 2, 1, 3)
        gw = gh @ v.swapaxes(-1, -2)
        gs = weights * (gw - (gw * weights).sum(axis=-1, keepdims=True)) * inv
        parts = (gs @ k, gs.swapaxes(-1, -2) @ q, weights.swapaxes(-1, -2) @ gh)
        _accumulate(qkv, np.stack(parts, axis=2).transpose(0, 3, 2, 1, 4).reshape(rows, cols))

    return _make(data, (qkv,), backward)


# ---------------------------------------------------------------------------
# shape algebra


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    data = a.data.reshape(shape)

    def backward(g: Array) -> None:
        _accumulate(a, g.reshape(a.shape))

    return _make(data, (a,), backward)


def reduce_sum(a: Tensor) -> Tensor:
    """The sum of every entry, a scalar."""
    data = a.data.sum()

    def backward(g: Array) -> None:
        _accumulate(a, np.full_like(a.data, float(g)))

    return _make(np.asarray(data, dtype=np.float64), (a,), backward)


def reduce_mean(a: Tensor) -> Tensor:
    return scale(reduce_sum(a), 1.0 / a.data.size)


def gather_cols(a: Tensor, ids) -> Tensor:
    """Select distinct columns by index; the adjoint adds gradients back into
    those columns, leaving unselected columns with exact zeros.

    The ids must be distinct (``ShapeError`` otherwise), which lets the
    adjoint be one indexed add rather than an unbuffered ``np.add.at``. The
    gradient buffer takes ``a``'s memory order, so for a column-major ``a``
    the add writes whole contiguous columns.
    """
    if a.data.ndim != 2:
        raise ShapeError(f"gather_cols needs a rank-2 input, got shape {a.shape}")
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("column ids must be a flat index list")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"column id out of range for {a.shape[1]} columns")
    # Increasing ids (every sample set) are distinct without a sort.
    if not (np.diff(idx) > 0).all() and np.unique(idx).size != idx.size:
        raise ShapeError("gather_cols needs distinct column ids")
    data = a.data[:, idx].copy()

    def backward(g: Array) -> None:
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad.T[idx] += g.T

    return _make(data, (a,), backward)


def take_per_row(a: Tensor, cols) -> Tensor:
    """Pick one entry per row, returned as an (m, 1) column."""
    if a.data.ndim != 2:
        raise ShapeError(f"take_per_row needs a rank-2 input, got shape {a.shape}")
    idx = np.asarray(cols, dtype=np.int64)
    rows = a.shape[0]
    if idx.shape != (rows,):
        raise ShapeError(f"need one column index per row, got {idx.shape} for {rows} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise ShapeError(f"column index out of range for {a.shape[1]} columns")
    row_ids = np.arange(rows)
    data = a.data[row_ids, idx].reshape(rows, 1).copy()

    def backward(g: Array) -> None:
        if not a.requires_grad:
            return
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        a.grad[row_ids, idx] += g[:, 0]  # one entry per row: no duplicates

    return _make(data, (a,), backward)


# ---------------------------------------------------------------------------
# gradient checking harness


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    eps: float = 1e-5,
    max_coords: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare the analytic gradient of a scalar function against central
    differences, one coordinate at a time.

    Returns the maximum relative error, where the relative error of each
    coordinate uses max(1, |analytic|, |numeric|) in the denominator. When
    ``max_coords`` is given, that many coordinates are sampled (without
    replacement) instead of sweeping all of them; useful for encoder-sized
    parameter blocks.
    """
    if not (1e-6 <= eps <= 1e-4):
        raise DomainError(f"eps must lie in [1e-6, 1e-4], got {eps}")
    base = x.data.copy()
    probe = Tensor(base.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise GraphError("finite_difference_check needs a scalar-valued function")
    out.backward()
    analytic = (
        probe.grad.reshape(-1) if probe.grad is not None else np.zeros(base.size)
    )

    flat = base.reshape(-1)
    coords = np.arange(flat.size)
    if max_coords is not None and max_coords < flat.size:
        gen = rng if rng is not None else np.random.Generator(np.random.Philox(0))
        coords = gen.choice(flat.size, size=max_coords, replace=False)

    worst = 0.0
    for i in coords:
        bumped = flat.copy()
        bumped[i] = flat[i] + eps
        f_plus = f(Tensor(bumped.reshape(base.shape))).item()
        bumped[i] = flat[i] - eps
        f_minus = f(Tensor(bumped.reshape(base.shape))).item()
        numeric = (f_plus - f_minus) / (2.0 * eps)
        denom = max(1.0, abs(analytic[i]), abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst
