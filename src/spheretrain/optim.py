"""Adaptive-moment optimizer with decoupled weight decay.

The update is the standard bias-corrected first/second moment step with the
decay applied directly to the parameter (never folded into the gradient):

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)

Parameters are plain numpy arrays mutated in place between forward passes.
The moments share the parameter's memory order. When the parameter changes
order (the classifier does between sampled and dense steps), or moments are
restored in another order, they are re-laid out on the next step.

A step may be restricted to a column subset (``columns``). Then only those
columns of the gradient are read, and checked for finite values, and the
moments, the decay and the parameter are untouched outside them; that is
what keeps unselected classifier columns bit-identical through an
iteration. Each selected column of ``m``, ``v`` and ``param`` is read and
written once, and no temporary spans all C columns. On a column-major
parameter a column is d contiguous values, so the step costs
O(d * |columns|), whatever C is.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

ADAM_EPS = 1e-8


class AdamW:
    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = ADAM_EPS):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ShapeError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_counts: dict[str, int] = {}

    def step(
        self,
        name: str,
        param: np.ndarray,
        grad: np.ndarray,
        lr: float,
        weight_decay: float = 0.0,
        columns: np.ndarray | None = None,
    ) -> None:
        """Apply one update to ``param`` in place.

        ``columns`` restricts the update (the finite check, moments, decay
        and parameter) to the given distinct column indices of a rank-2
        parameter. A non-finite gradient raises ``NumericError`` with its
        (row, column) index before anything moves.
        """
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != param.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match parameter {param.shape} ({name})"
            )
        idx = None if columns is None else np.asarray(columns, dtype=np.int64)
        g = grad if idx is None else grad[:, idx]
        finite = np.isfinite(g)
        if not finite.all():
            bad = np.argwhere(~finite)[0]
            if idx is not None:
                bad = (bad[0], idx[bad[1]])
            raise NumericError(
                f"non-finite gradient for parameter {name!r} at index {tuple(int(i) for i in bad)}"
            )
        if name not in self.moments:
            self.moments[name] = (np.zeros_like(param), np.zeros_like(param))
            self.step_counts[name] = 0
        m, v = self.moments[name]
        if m.strides != param.strides:  # the parameter changed its memory order
            m, v = self.moments[name] = (_laid_out_like(param, m), _laid_out_like(param, v))
        self.step_counts[name] += 1
        t = self.step_counts[name]
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t

        if idx is None:
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if weight_decay:
                update = update + weight_decay * param
            param -= lr * update
        else:
            m_sel = self.beta1 * m[:, idx] + (1.0 - self.beta1) * g
            v_sel = self.beta2 * v[:, idx] + (1.0 - self.beta2) * g * g
            m[:, idx] = m_sel
            v[:, idx] = v_sel
            update = (m_sel / bc1) / (np.sqrt(v_sel / bc2) + self.eps)
            p_sel = param[:, idx]
            if weight_decay:
                update = update + weight_decay * p_sel
            p_sel -= lr * update
            param[:, idx] = p_sel

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat name -> array view of all moment accumulators, for checkpoints."""
        out: dict[str, np.ndarray] = {}
        for name in sorted(self.moments):
            m, v = self.moments[name]
            out[f"{name}.m"] = m
            out[f"{name}.v"] = v
        return out

    def restore(self, arrays: dict[str, np.ndarray], counts: dict[str, int]) -> None:
        self.moments = {}
        names = {key[: -len(".m")] for key in arrays if key.endswith(".m")}
        for name in names:
            self.moments[name] = (
                np.array(arrays[f"{name}.m"], dtype=np.float64),
                np.array(arrays[f"{name}.v"], dtype=np.float64),
            )
        self.step_counts = {name: int(c) for name, c in counts.items()}


def _laid_out_like(param: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.empty_like(param)
    out[...] = values
    return out
