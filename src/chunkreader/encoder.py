"""Gated recurrent cell and bi-directional sequence encoder.

The cell is bias-free: with row-vector inputs x (n_in) and state h (d),

    r = sigmoid(x W_r + h U_r)          reset gate
    u = sigmoid(x W_u + h U_u)          update gate
    hbar = tanh(x W + (r * h) U)        candidate state
    h' = (1 - u) * h + u * hbar

All six matrices are tape-tracked parameters; there are no bias vectors.
The bi-directional encoder runs one cell left-to-right and an independent
cell right-to-left, both from a zero initial state, and concatenates the
two state sequences per position.

One pass of a cell over a sequence is a single tape node (`GruCell.run`).
Its forward (`GruCell.scan`) projects the whole (T, n_in) input through
W_r, W_u and W with three GEMMs before the loop; each step then does the
vector-matrix products h U_r, h U_u and (r * h) U. No weight matrix is
copied or concatenated: a copy of [U_r|U_u] for one wider product saves
no time and raises peak memory. When the node is recorded, the forward
keeps, for step k of n, r_k, u_k and hbar_k, and after the loop gathers
the states before each step, h_prev_k, from its output; each is an
(n, d) array. An unrecorded (inference) call keeps nothing. The backward (`GruCell.backprop`) walks the steps in reverse,
with dh the gradient reaching h'_k (its upstream row plus the carry from
step k+1):

    g_c = dh * u * (1 - hbar^2)                      pre-tanh gradient
    g_u = dh * (hbar - h_prev) * u * (1 - u)         pre-sigmoid, update
    e   = g_c U^T
    g_r = e * h_prev * r * (1 - r)                   pre-sigmoid, reset
    dh_prev = dh * (1 - u) + e * r + g_r U_r^T + g_u U_u^T

It stores the pre-activation gradients G = [g_r|g_u|g_c] (n, 3d), and
after the loop forms every weight gradient as one GEMM: dW_* = X_s^T G_*
over the stepped input rows X_s, d[U_r|U_u] = H_prev^T [G_r|G_u],
dU = (R * H_prev)^T G_c, and dX_s = sum_* G_* W_*^T.

Padding contract: positions at or beyond the true length produce all-zero
output rows, leave the recurrent state untouched and receive no gradient,
so downstream consumers can batch variable-length sequences with trailing
zero pads.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import numerics as nm
from .numerics import Tensor

__all__ = ["GruCell", "BiGruEncoder", "StepStates"]

_CELL_FIELDS = ("W_r", "W_u", "W", "U_r", "U_u", "U")


class StepStates(NamedTuple):
    """What one scan keeps for its backward, one row per step in step
    order: the input row index and the state before the step, plus the
    reset gate, update gate and candidate state the step computed."""

    index: np.ndarray  # (n,) rows of X, in step order
    h_prev: np.ndarray  # (n, d)
    r: np.ndarray  # (n, d)
    u: np.ndarray  # (n, d)
    hbar: np.ndarray  # (n, d)


class GruCell:
    """One recurrent cell; parameters are zero until an initializer fills them."""

    def __init__(self, n_in: int, hidden_size: int, name: str):
        if n_in < 1 or hidden_size < 1:
            raise ValueError("n_in and hidden_size must be >= 1")
        self.n_in = n_in
        self.hidden_size = hidden_size
        self.name = name
        self.W_r = nm.parameter(np.zeros((n_in, hidden_size)))
        self.W_u = nm.parameter(np.zeros((n_in, hidden_size)))
        self.W = nm.parameter(np.zeros((n_in, hidden_size)))
        self.U_r = nm.parameter(np.zeros((hidden_size, hidden_size)))
        self.U_u = nm.parameter(np.zeros((hidden_size, hidden_size)))
        self.U = nm.parameter(np.zeros((hidden_size, hidden_size)))

    def parameters(self) -> dict[str, Tensor]:
        """Name -> tensor, in a fixed order shared by init and checkpoints."""
        return {f"{self.name}.{f}": getattr(self, f) for f in _CELL_FIELDS}

    def run(self, X: Tensor, positions: Sequence[int]) -> Tensor:
        """Step from a zero state over the rows of the (T, n_in) block X at
        `positions`, in that order; returns the (T, d) states, a zero row
        wherever the cell did not step. One tape node."""
        Xd = X.data
        if Xd.ndim != 2 or Xd.shape[1] != self.n_in:
            raise nm.ShapeError(f"{self.name}: expected (T, {self.n_in}) input, got {Xd.shape}")
        index = np.asarray(positions, dtype=np.intp)
        if index.size and (index.min() < 0 or index.max() >= Xd.shape[0]):
            raise IndexError(f"{self.name}: positions out of range for {Xd.shape[0]} rows")
        params = [getattr(self, f) for f in _CELL_FIELDS]
        taped = nm.recording([X] + params)
        H, states = self.scan(Xd, index, keep=taped)
        out = Tensor(H)
        if not taped:
            return out

        def backward_fn(g):
            dX, grads = self.backprop(g, Xd, states, input_grad=X.requires_grad)
            if dX is not None:
                nm.accumulate(X, dX)
            for p, dp in zip(params, grads):
                nm.accumulate(p, dp)

        return nm.record(out, [X] + params, backward_fn)

    def scan(
        self, X: np.ndarray, index: np.ndarray, keep: bool
    ) -> tuple[np.ndarray, StepStates | None]:
        """The forward pass on plain arrays: (T, d) states, plus the
        per-step states the backward needs when `keep` is set."""
        T, d = X.shape[0], self.hidden_size
        # X W_r and X W_u side by side, so each step adds both in one op;
        # X W apart, which keeps the largest block, and so peak memory, small
        proj_ru = np.empty((2, T, d))
        np.matmul(X, self.W_r.data, out=proj_ru[0])
        np.matmul(X, self.W_u.data, out=proj_ru[1])
        proj_c = X @ self.W.data
        U_r, U_u, U = self.U_r.data, self.U_u.data, self.U.data
        n = index.size
        if keep:
            gates, hbars = np.empty((n, 2, d)), np.empty((n, d))
        H = np.zeros((T, d))
        h = np.zeros(d)
        for k, t in enumerate(index.tolist()):
            a = np.empty((2, d))  # the gate pre-activations, side by side
            np.matmul(h, U_r, out=a[0])
            np.matmul(h, U_u, out=a[1])
            a += proj_ru[:, t]
            r, u = ru = nm.logistic(a)
            c = (r * h) @ U
            c += proj_c[t]
            hbar = np.tanh(c, out=c)
            if keep:
                gates[k], hbars[k] = ru, hbar
            h = h + u * (hbar - h)
            H[t] = h
        if not keep:
            return H, None
        h_prev = np.zeros((n, d))
        h_prev[1:] = H[index[:-1]]
        return H, StepStates(index, h_prev, gates[:, 0], gates[:, 1], hbars)

    def backprop(
        self, g: np.ndarray, X: np.ndarray, states: StepStates, input_grad: bool
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Backpropagation through time for one scan, given the gradient g
        (T, d) on its output. Returns dX (None unless input_grad) and the
        six weight gradients in parameter order."""
        index, h_prev, rs, us, hbars = states
        n, d = h_prev.shape
        U_r_T, U_u_T, U_T = self.U_r.data.T, self.U_u.data.T, self.U.data.T
        # the step-local factors of the equations, for all steps at once
        c_factor = us * (1.0 - hbars * hbars)
        u_factor = (hbars - h_prev) * us * (1.0 - us)
        r_factor = h_prev * rs * (1.0 - rs)
        carry = 1.0 - us
        G = np.empty((n, 3 * d))  # pre-activation gradients [g_r | g_u | g_c]
        G_r, G_u, G_c = G[:, :d], G[:, d : 2 * d], G[:, 2 * d :]
        g_rows = g[index]
        dh = np.zeros(d)
        for k in range(n - 1, -1, -1):
            dh += g_rows[k]
            np.multiply(dh, c_factor[k], out=G_c[k])
            np.multiply(dh, u_factor[k], out=G_u[k])
            e = G_c[k] @ U_T
            np.multiply(e, r_factor[k], out=G_r[k])
            dh *= carry[k]
            e *= rs[k]
            dh += e
            dh += G_r[k] @ U_r_T
            dh += G_u[k] @ U_u_T

        Xs = X[index]
        dU_ru = h_prev.T @ G[:, : 2 * d]
        grads = [
            Xs.T @ G_r,
            Xs.T @ G_u,
            Xs.T @ G_c,
            dU_ru[:, :d],
            dU_ru[:, d:],
            (rs * h_prev).T @ G_c,
        ]
        dX = None
        if input_grad:
            dX = np.zeros_like(X)
            dX[index] = G_r @ self.W_r.data.T + G_u @ self.W_u.data.T + G_c @ self.W.data.T
        return dX, grads


class BiGruEncoder:
    """Two independent cells over a sequence, one per direction."""

    def __init__(self, n_in: int, hidden_size: int, name: str):
        self.forward_cell = GruCell(n_in, hidden_size, f"{name}.fwd")
        self.backward_cell = GruCell(n_in, hidden_size, f"{name}.bwd")

    def parameters(self) -> dict[str, Tensor]:
        out = dict(self.forward_cell.parameters())
        out.update(self.backward_cell.parameters())
        return out

    def encode(self, X: Tensor, length: int | None = None) -> tuple[Tensor, Tensor, Tensor]:
        """Encode a (T, n_in) block; rows at index >= length are padding.

        Returns (forward states, backward states, per-position concatenation),
        shapes (T, d), (T, d), (T, 2d). Padded rows come out all zero and do
        not advance either direction's state.
        """
        T = X.data.shape[0]
        if T == 0:
            raise ValueError("cannot encode an empty sequence")
        if length is None:
            length = T
        if not 1 <= length <= T:
            raise ValueError(f"length {length} out of range for {T} input rows")
        F = self.forward_cell.run(X, range(length))
        B = self.backward_cell.run(X, range(length - 1, -1, -1))
        return F, B, nm.concat(F, B)
