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

Padding contract: positions at or beyond the true length produce all-zero
output rows and leave the recurrent state untouched, so downstream
consumers can batch variable-length sequences with trailing zero pads.
"""

from __future__ import annotations

import numpy as np

from . import numerics as nm
from .numerics import Tensor

__all__ = ["GruCell", "BiGruEncoder"]

_CELL_FIELDS = ("W_r", "W_u", "W", "U_r", "U_u", "U")


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

    def input_projections(self, X: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        """Project a whole (T, n_in) input block through W_r, W_u, W at once;
        per-step work is then only the hidden-to-hidden matmuls."""
        return nm.matmul(X, self.W_r), nm.matmul(X, self.W_u), nm.matmul(X, self.W)

    def step_from_proj(
        self, xr: Tensor, xu: Tensor, xc: Tensor, h: Tensor
    ) -> tuple[Tensor, Tensor, Tensor]:
        """One transition from state h, given the three projections of the
        input; returns the new state and the reset and update gates."""
        r = nm.sigmoid(nm.add(xr, nm.matmul(h, self.U_r)))
        u = nm.sigmoid(nm.add(xu, nm.matmul(h, self.U_u)))
        hbar = nm.tanh(nm.add(xc, nm.matmul(nm.mul(r, h), self.U)))
        # (1-u)*h + u*hbar, written as h + u*(hbar - h)
        h_new = nm.add(h, nm.mul(u, nm.add(hbar, nm.scale(h, -1.0))))
        return h_new, r, u


class BiGruEncoder:
    """Two independent cells over a sequence, one per direction."""

    def __init__(self, n_in: int, hidden_size: int, name: str):
        self.n_in = n_in
        self.hidden_size = hidden_size
        self.name = name
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

        fwd_rows = self._run(self.forward_cell, X, range(length))
        bwd_rows = self._run(self.backward_cell, X, range(length - 1, -1, -1))
        F = nm.stack_rows(fwd_rows)
        B = nm.stack_rows(bwd_rows)
        return F, B, nm.concat(F, B)

    def _run(self, cell: GruCell, X: Tensor, positions: range) -> list[Tensor]:
        """Step `cell` from a zero state over the rows of X at `positions`,
        in that order; returns one state per row of X, a zero row wherever
        the cell did not step."""
        zero_row = nm.zeros(self.hidden_size)
        rows = [zero_row] * X.data.shape[0]
        xr, xu, xc = cell.input_projections(X)
        h = nm.zeros(self.hidden_size)
        for t in positions:
            h, _, _ = cell.step_from_proj(nm.row(xr, t), nm.row(xu, t), nm.row(xc, t), h)
            rows[t] = h
        return rows
