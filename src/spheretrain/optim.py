"""Adaptive-moment optimizer with decoupled weight decay.

The update is the standard bias-corrected first/second moment step with the
decay applied directly to the parameter (never folded into the gradient):

    p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p)

Parameters are plain numpy arrays mutated in place between forward passes.
The moments share the parameter's memory order: they are made like it, and
moments or a gradient of another order are re-laid out to it on a step.

One in-place kernel, ``_update``, serves every step: it runs on equal-shaped
blocks of ``m``, ``v``, the parameter and the gradient, at most
``_CHUNK_ENTRIES`` entries at a time so its passes stay in cache. A dense
step (``columns=None``) runs it on consecutive slices of their flat
memory-order views, so nothing is gathered or scattered back. The update is
elementwise, so the chunking does not change a bit.

A step may be restricted to a column subset (``columns``). Then only those
columns are checked for finite values, and the moments, the decay and the
parameter are untouched outside them; that is what keeps unselected
classifier columns bit-identical through an iteration. The gradient is
either the full (d, C) one, of which only the selected columns are read, or
just the (d, |columns|) block of those columns. A sampled training step
passes the block: its loss is taken on a gathered block of the classifier,
so no (d, C) gradient exists. Each chunk of the selected columns of ``m``,
``v`` and ``param`` is gathered once, stepped, optionally projected (the
classifier's columns back to unit norm) and scattered back once. No
temporary spans all C columns; on a column-major parameter a column is d
contiguous values, so the step costs O(d * |columns|), whatever C is.

``check_finite`` is the step's own finite check, exposed so that a caller
stepping several parameters can check every gradient before any of them
moves. It costs one reduction, so a step that repeats it costs little: the
training loop steps the classifier and one flat encoder arena.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError

ADAM_EPS = 1e-8
# Entries per chunk of a step (128 KB of float64 per block).
_CHUNK_ENTRIES = 1 << 14


class AdamW:
    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = ADAM_EPS):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ShapeError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_counts: dict[str, int] = {}

    @staticmethod
    def check_finite(name: str, grad: np.ndarray, columns: np.ndarray | None = None) -> None:
        """Raise ``NumericError`` at the first non-finite entry of ``grad``.

        Column j of ``grad`` is parameter column ``columns[j]``, which the
        message names (every column in order when ``columns`` is None). One
        sum decides: it is finite whenever every entry is, and only a
        non-finite sum (a bad entry, or an overflow) scans for the index.
        """
        if math.isfinite(grad.sum()):
            return
        finite = np.isfinite(grad)
        if finite.all():
            return
        bad = np.argwhere(~finite)[0]
        if columns is not None:
            bad = (bad[0], columns[bad[1]])
        raise NumericError(
            f"non-finite gradient for parameter {name!r} at index {tuple(int(i) for i in bad)}"
        )

    def step(
        self,
        name: str,
        param: np.ndarray,
        grad: np.ndarray,
        lr: float,
        weight_decay: float = 0.0,
        columns: np.ndarray | None = None,
        project: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        """Apply one update to ``param`` in place.

        ``columns`` restricts the update (the finite check, moments, decay
        and parameter) to the given distinct column indices of a rank-2
        parameter. ``grad`` is then either the full gradient, of the
        parameter's shape (a gradient of that shape is always read so), or
        the (d, len(columns)) block whose column j belongs to parameter
        column ``columns[j]``. ``project``, if given, rewrites the stepped
        values in place (the stepped columns, or the whole parameter) before
        they are stored. A dense step needs a parameter contiguous in C or F
        order. A non-finite gradient raises ``NumericError`` with its index
        before anything moves.
        """
        grad = np.asarray(grad, dtype=np.float64)
        idx = None if columns is None else np.asarray(columns, dtype=np.int64)
        block = idx is not None and grad.shape == (param.shape[0], idx.size) != param.shape
        if grad.shape != param.shape and not block:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match parameter {param.shape} ({name})"
            )
        if idx is None and not (param.flags.c_contiguous or param.flags.f_contiguous):
            raise ShapeError(f"parameter {name!r} is contiguous in neither memory order")
        g = grad if idx is None or block else grad[:, idx]
        self.check_finite(name, g, idx)
        if name not in self.moments:
            self.moments[name] = (np.zeros_like(param), np.zeros_like(param))
            self.step_counts[name] = 0
        m, v = self.moments[name]
        if m.strides != param.strides:  # the parameter changed its memory order
            m, v = self.moments[name] = (_laid_out_like(param, m), _laid_out_like(param, v))
        self.step_counts[name] += 1
        t = self.step_counts[name]
        coef = (lr, weight_decay, 1.0 - self.beta1**t, 1.0 - self.beta2**t)
        if idx is not None:
            width = max(1, _CHUNK_ENTRIES // max(1, param.shape[0]))
            for lo in range(0, idx.size, width):
                cols = idx[lo : lo + width]
                m_sel, v_sel, p_sel = m[:, cols], v[:, cols], param[:, cols]
                self._update(m_sel, v_sel, p_sel, g[:, lo : lo + width], *coef)
                m[:, cols], v[:, cols] = m_sel, v_sel
                if project is not None:
                    project(p_sel)
                param[:, cols] = p_sel
            return
        if g.strides != param.strides:
            g = _laid_out_like(param, g)
        flat = [np.ravel(a, order="K") for a in (m, v, param, g)]  # all contiguous: views
        for lo in range(0, param.size, _CHUNK_ENTRIES):
            self._update(*(a[lo : lo + _CHUNK_ENTRIES] for a in flat), *coef)
        if project is not None:
            project(param)

    def _update(self, m, v, p, g, lr, weight_decay, bc1, bc2) -> None:
        """Step the equal-shaped blocks ``m``, ``v`` and ``p`` by ``g`` in place."""
        tmp = np.multiply(g, 1.0 - self.beta1)
        m *= self.beta1
        m += tmp
        np.multiply(g, 1.0 - self.beta2, out=tmp)
        tmp *= g
        v *= self.beta2
        v += tmp
        denom = np.divide(v, bc2)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, bc1, out=tmp)
        tmp /= denom
        if weight_decay:
            np.multiply(p, weight_decay, out=denom)
            tmp += denom
        tmp *= lr
        p -= tmp

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
