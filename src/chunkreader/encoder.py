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

One pass of a cell over a batch of sequences is a single tape node
(`GruCell.run`). The input is a (B, T, n_in) block whose row b is real
for its first L_b positions; a (T, n_in) block is the B = 1 case and runs
the same code. The forward (`GruCell.scan`) projects every input row
through W_r, W_u and W with three GEMMs before the loop, then steps all
rows at once, each step one (n_k, d) x (d, d) product per recurrent
matrix. An unrecorded call instead projects each row over its own L_b
positions and forms each step's products as n_k stacked (1, d) x (d, d)
products, one numpy call per product: OpenBLAS gives a row of a GEMM
bits that depend on how many rows share it, and this way every row gets
exactly the bits of its own batch-of-one run. It costs more per step
(about 50 against 32 us for two rows at d = 300, OpenBLAS on two shared
vCPUs), so the recorded path keeps the GEMMs. Rows are sorted once by
decreasing length (a stable sort), so the n_k rows still active at step
k are a prefix of the state block and the loop needs no masks; the
forward direction visits position k of each active row, the reverse
direction position L_b - 1 - k. No weight matrix is copied or
concatenated: a copy of [U_r|U_u] for one wider product saves no time
and raises peak memory. When the node is recorded, the forward keeps,
for each of the N = sum_b L_b real steps, flat in step order, r, u and
hbar, and after the loop gathers the state before each step, h_prev,
from its output; each is an (N, d) array. An unrecorded (inference)
call keeps nothing, and holds at most four (N, d) arrays at once, plus
one row's or one step's temporaries: the three input projections, each
row's product written straight into its own steps (no (B*T, d) product
or gathered copy is built), and the states in step order. The projections are freed when the step loop
ends, before the states are scattered into the zero-padded (B, T, d)
output. The backward (`GruCell.backprop`) walks
the steps in reverse over the same prefixes, with dh the gradient
reaching h' (its upstream row plus the carry from the row's next step):

    g_c = dh * u * (1 - hbar^2)                      pre-tanh gradient
    g_u = dh * (hbar - h_prev) * u * (1 - u)         pre-sigmoid, update
    e   = g_c U^T
    g_r = e * h_prev * r * (1 - r)                   pre-sigmoid, reset
    dh_prev = dh * (1 - u) + e * r + g_r U_r^T + g_u U_u^T

It stores the pre-activation gradients G = [g_r|g_u|g_c] (N, 3d), and
after the loop forms every weight gradient as one GEMM over all rows'
steps: dW_* = X_s^T G_* over the stepped input rows X_s,
d[U_r|U_u] = H_prev^T [G_r|G_u], dU = (R * H_prev)^T G_c, and
dX_s = sum_* G_* W_*^T. The step-local factors of the equations, one
(N, d) array each, are freed when the loop ends, and X_s once the
weight gradients are formed.

Padding contract, per row: positions at or beyond a row's length produce
all-zero output rows, leave its recurrent state untouched and receive no
gradient, so a batch of variable-length sequences is one block with
trailing zero pads. Rows mix only in a recorded call, and there only
through the rounding of the batched products; an unrecorded call gives
each row bit for bit the states it gets alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .numerics import Tensor

__all__ = ["GruCell", "BiGruEncoder", "StepStates"]

_CELL_FIELDS = ("W_r", "W_u", "W", "U_r", "U_u", "U")


class StepStates(NamedTuple):
    """What one scan keeps for its backward, one row per real step, flat
    in step order: the row of the flattened (B*T, n_in) input it read, the
    state before the step, and the reset gate, update gate and candidate
    state the step computed. Step k covers `counts[k]` consecutive rows."""

    index: np.ndarray  # (N,) rows of the flattened input, in step order
    counts: np.ndarray  # (L_max,) rows still active at each step, non-increasing
    h_prev: np.ndarray  # (N, d)
    r: np.ndarray  # (N, d)
    u: np.ndarray  # (N, d)
    hbar: np.ndarray  # (N, d)


def _step_plan(lengths: np.ndarray, T: int, reverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the flattened (B*T, ·) block in step order, and the number
    of rows active at each step. Rows are ordered by decreasing length
    (a stable sort), so the rows still active at step k are a prefix;
    step k visits position k of each, or position L_b - 1 - k in reverse."""
    order = np.argsort(-lengths, kind="stable")
    ordered = lengths[order]
    active = np.arange(ordered[0])[:, None] < ordered[None, :]
    steps, ranks = np.nonzero(active)  # row-major: step by step, prefix rows within
    positions = ordered[ranks] - 1 - steps if reverse else steps
    return order[ranks] * T + positions, active.sum(axis=1)


def _rowwise_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for an (m, k) block a, as m stacked (1, k) x (k, n) products:
    each row gets exactly the bits of its own batch-of-one product, which
    one (m, k) x (k, n) GEMM does not promise."""
    if out is None:
        return np.matmul(a[:, None], b)[:, 0]
    np.matmul(a[:, None], b, out=out[:, None])
    return out


def _project(
    X: np.ndarray, lengths: np.ndarray, index: np.ndarray, weights, rowwise: bool
) -> np.ndarray:
    """X W for each of `weights`, stacked, at the rows `index` of the
    flattened (B*T, n_in) block, in step order. Either one GEMM per weight
    over the whole block, or (rowwise) one product per row and weight over
    the row's first L_b positions, the same product as a batch of one,
    written straight into that row's steps: no (B*T, d) product is built."""
    B, T, n_in = X.shape
    out = np.empty((len(weights), len(index), weights[0].shape[1]))
    if not rowwise:
        for W, o in zip(weights, out):
            # every index is in range, so "clip" only skips take's buffer
            np.take(X.reshape(B * T, n_in) @ W, index, axis=0, out=o, mode="clip")
        return out
    step_of = np.empty(B * T, dtype=np.intp)  # the step row of each position
    step_of[index] = np.arange(len(index))
    for b, length in enumerate(lengths.tolist()):
        rows = step_of[b * T : b * T + length]
        for W, o in zip(weights, out):
            o[rows] = X[b, :length] @ W
    return out


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

    def run(self, X: Tensor, lengths=None, reverse: bool = False) -> Tensor:
        """Step from a zero state over each row of the (B, T, n_in) block X,
        row b over its first lengths[b] positions, left to right or (with
        `reverse`) right to left; returns the (B, T, d) states, a zero row
        at every padded position. A (T, n_in) block with one int length
        (None: all T) is the B = 1 case and gives (T, d). A length outside
        1..T raises ValueError. One tape node."""
        Xd = X.data
        if Xd.ndim not in (2, 3) or Xd.shape[-1] != self.n_in:
            raise nm.ShapeError(
                f"{self.name}: expected (T, {self.n_in}) or (B, T, {self.n_in}) input, got {Xd.shape}"
            )
        X3 = Xd[None] if Xd.ndim == 2 else Xd
        T = X3.shape[1]
        if lengths is None:
            lengths = [T] * X3.shape[0]
        lengths = np.array(lengths, dtype=np.intp).reshape(-1)
        if lengths.shape != X3.shape[:1]:
            raise nm.ShapeError(f"{self.name}: {lengths.size} lengths for {X3.shape[0]} rows")
        if lengths.size == 0 or lengths.min() < 1 or lengths.max() > T:
            raise ValueError(f"{self.name}: lengths {lengths} out of range for {T} positions")
        params = [getattr(self, f) for f in _CELL_FIELDS]
        taped = nm.recording([X] + params)
        H, states = self.scan(X3, lengths, reverse, keep=taped)
        out = Tensor(H.reshape(Xd.shape[:-1] + (self.hidden_size,)))
        if not taped:
            return out

        def backward_fn(g):
            dX, grads = self.backprop(g, X3, states, input_grad=X.requires_grad)
            if dX is not None:
                nm.accumulate(X, dX.reshape(Xd.shape), owned=True)
            # the two halves of dU_ru are views of one product: copied
            for p, dp in zip(params, grads):
                nm.accumulate(p, dp, owned=dp.base is None)

        return nm.record(out, [X] + params, backward_fn)

    def scan(
        self, X: np.ndarray, lengths: np.ndarray, reverse: bool, keep: bool
    ) -> tuple[np.ndarray, StepStates | None]:
        """The forward pass on plain arrays: the (B, T, d) states of the
        (B, T, n_in) block X, plus the per-step states the backward needs
        when `keep` is set."""
        B, T, _ = X.shape
        d = self.hidden_size
        index, counts = _step_plan(lengths, T, reverse)
        n = int(counts.sum())
        # X W_r and X W_u side by side, so each step adds both in one op;
        # X W apart, which keeps the largest block, and so peak memory,
        # small. An unrecorded call runs every product row by row.
        proj_ru = _project(X, lengths, index, (self.W_r.data, self.W_u.data), rowwise=not keep)
        proj_c = _project(X, lengths, index, (self.W.data,), rowwise=not keep)[0]
        U_r, U_u, U = self.U_r.data, self.U_u.data, self.U.data
        # a batch of one is already row by row
        matmul = np.matmul if keep or B == 1 else _rowwise_matmul
        if keep:
            gates, hbars = np.empty((2, n, d)), np.empty((n, d))
        Hs = np.empty((n, d))  # the state after each step, in step order
        h = np.zeros((counts[0], d))
        s = 0
        for m in counts.tolist():
            h = h[:m]
            a = np.empty((2, m, d))  # the gate pre-activations, side by side
            matmul(h, U_r, out=a[0])
            matmul(h, U_u, out=a[1])
            a += proj_ru[:, s : s + m]
            r, u = ru = nm.logistic(a)
            c = matmul(r * h, U)
            c += proj_c[s : s + m]
            hbar = np.tanh(c, out=c)
            if keep:
                gates[:, s : s + m], hbars[s : s + m] = ru, hbar
            h = np.add(h, u * (hbar - h), out=Hs[s : s + m])
            s += m
        del proj_ru, proj_c  # read by the loop only; freed before H is built
        H = np.zeros((B * T, d))
        H[index] = Hs
        H = H.reshape(B, T, d)
        if not keep:
            return H, None
        # the state before a step is the same row's state one step earlier,
        # counts[k-1] rows back in step order; the first step starts at zero
        h_prev = np.zeros((n, d))
        h_prev[counts[0] :] = Hs[np.arange(counts[0], n) - np.repeat(counts[:-1], counts[1:])]
        return H, StepStates(index, counts, h_prev, gates[0], gates[1], hbars)

    def backprop(
        self, g: np.ndarray, X: np.ndarray, states: StepStates, input_grad: bool
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Backpropagation through time for one scan of the (B, T, n_in)
        block X, given the gradient g on its output. Returns dX (None
        unless input_grad) and the six weight gradients in parameter order."""
        index, counts, h_prev, rs, us, hbars = states
        n, d = h_prev.shape
        U_r_T, U_u_T, U_T = self.U_r.data.T, self.U_u.data.T, self.U.data.T
        # the step-local factors of the equations, for all steps at once
        c_factor = us * (1.0 - hbars * hbars)
        u_factor = (hbars - h_prev) * us * (1.0 - us)
        r_factor = h_prev * rs * (1.0 - rs)
        carry = 1.0 - us
        G = np.empty((n, 3 * d))  # pre-activation gradients [g_r | g_u | g_c]
        G_r, G_u, G_c = G[:, :d], G[:, d : 2 * d], G[:, 2 * d :]
        g_rows = g.reshape(-1, d)[index]
        dh = np.zeros((counts[0], d))  # per row, the gradient on its state
        s = n
        for m in counts[::-1].tolist():
            s -= m
            k = slice(s, s + m)
            dh_k = dh[:m]
            dh_k += g_rows[k]
            np.multiply(dh_k, c_factor[k], out=G_c[k])
            np.multiply(dh_k, u_factor[k], out=G_u[k])
            e = G_c[k] @ U_T
            np.multiply(e, r_factor[k], out=G_r[k])
            dh_k *= carry[k]
            e *= rs[k]
            dh_k += e
            dh_k += G_r[k] @ U_r_T
            dh_k += G_u[k] @ U_u_T
        del c_factor, u_factor, r_factor, carry, g_rows

        X2 = X.reshape(-1, X.shape[-1])
        Xs = np.ascontiguousarray(X2[index])
        dU_ru = h_prev.T @ G[:, : 2 * d]
        grads = [
            Xs.T @ G_r,
            Xs.T @ G_u,
            Xs.T @ G_c,
            dU_ru[:, :d],
            dU_ru[:, d:],
            (rs * h_prev).T @ G_c,
        ]
        del Xs
        dX = None
        if input_grad:
            # the three input products summed into one buffer, left to right
            dXs = G_r @ self.W_r.data.T
            dXs += G_u @ self.W_u.data.T
            dXs += G_c @ self.W.data.T
            dX = np.zeros_like(X2)
            dX[index] = dXs
            dX = dX.reshape(X.shape)
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

    def encode(self, X: Tensor, lengths=None) -> tuple[Tensor, Tensor, Tensor]:
        """Encode a (B, T, n_in) block, row b over its first lengths[b]
        positions, or a (T, n_in) block over its first `lengths` rows (an
        int; None means all T). Later positions are padding.

        Returns (forward states, backward states, per-position concatenation),
        shapes (B, T, d), (B, T, d), (B, T, 2d), or without the B axis for
        a 2-D block. Padded positions come out all zero and do not advance
        either direction's state.
        """
        F = self.forward_cell.run(X, lengths)
        B = self.backward_cell.run(X, lengths, reverse=True)
        return F, B, nm.concat(F, B)
