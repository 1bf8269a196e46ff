"""Gated recurrent cell and bi-directional sequence encoder.

The cell is bias-free: with row-vector inputs x (n_in) and state h (d),

    r = sigmoid(x W_r + h U_r)          reset gate
    u = sigmoid(x W_u + h U_u)          update gate
    hbar = tanh(x W + (r * h) U)        candidate state
    h' = (1 - u) * h + u * hbar

All six matrices are tape-tracked parameters, views of a cell's two
stacked blocks, the input block [W_r; W_u; W] (3, n_in, d) and the
recurrent block [U_r; U_u; U] (3, d, d); there are no bias vectors.
The bi-directional encoder runs one cell left-to-right and an independent
cell right-to-left, both from a zero initial state, and concatenates the
two state sequences per position.

One pass of a cell over a batch of sequences is a single tape node
(`GruCell.run`). The input is a (B, T, n_in) block whose row b is real
for its first L_b positions; a (T, n_in) block is the B = 1 case and runs
the same code. The forward (`GruCell.scan`), recorded or not, projects
each row over its own L_b positions through the input block straight
into the row's steps: no padded row is projected and no (B*T, d) product
is built. Then it steps all rows at once. Rows are sorted once by
decreasing length (a stable sort), so the n_k rows still active at step
k are a prefix of the state block and the loop needs no masks; the
forward direction visits position k of each active row, the reverse
direction position L_b - 1 - k. Each step forms its reset and update
products as one call over the recurrent block's first two slices,
straight into the storage r and u are kept in. A recorded call forms
each step product as an (n_k, d) x (d, d) GEMM, an unrecorded call as
n_k stacked (1, d) x (d, d) products: OpenBLAS gives a row of a GEMM
bits that depend on how many rows share it, and this way every row gets
exactly the bits of its own batch-of-one run. That costs more per step
(about 50 against 32 us for two rows at d = 300, OpenBLAS on two shared
vCPUs), so training keeps the GEMMs.

A call over a block runs one BLAS product per slice, so each gate keeps
the bits of its own product. Kept per gate: the projection, one product
per row and gate, so its temporary is one row's product; the candidate
product and dU, which read r * h; and dX_s, three products summed left
to right into one buffer, not a (3, N, n_in) stack. d[U_r|U_u] stays one
(d, 2d) product: two (d, d) products round otherwise at d = 300.

Besides what it keeps, a call over N = sum_b L_b real steps holds at
most four (N, d) arrays at once, plus one row's or one step's
temporaries: the (3, N, d) input projections, freed when the step loop
ends, and the states in step order, then scattered into the zero-padded
(B, T, d) output. An unrecorded (inference) call keeps nothing; a
recorded one keeps r, u and hbar, one (N, d) array each in step order,
beside its output. The backward (`GruCell.backprop`) reads the state
before each step, h_prev, back from that output through the step plan,
forms the step-local factors (two in the storage of u and hbar), and
walks the steps in reverse over the same prefixes, with dh the gradient
reaching h' (its upstream row plus the carry from the row's next step):

    g_c = dh * u * (1 - hbar^2)                      pre-tanh gradient
    g_u = dh * (hbar - h_prev) * u * (1 - u)         pre-sigmoid, update
    e   = g_c U^T
    g_r = e * h_prev * r * (1 - r)                   pre-sigmoid, reset
    dh_prev = dh * (1 - u) + e * r + g_r U_r^T + g_u U_u^T

with g_r U_r^T and g_u U_u^T one call over the recurrent block. It
stores the pre-activation gradients G = [g_r|g_u|g_c] (N, 3d), and after
the loop forms every weight gradient over all rows' steps, each handed
over as its own view of a fresh product: dW_* = X_s^T G_* over the
stepped input rows X_s, one call over a (3, N, d) view of G,
d[U_r|U_u] = H_prev^T [G_r|G_u], dU = (R * H_prev)^T G_c, and
dX_s = sum_* G_* W_*^T. The factors with storage of their own are freed when the loop ends, and
X_s once the weight gradients are formed. dX_s fills a zeroed (B, T,
n_in) gradient on the input's first touch and is otherwise added into it
in place, so a second pass over one input builds no second block.

Padding contract, per row: positions at or beyond a row's length produce
all-zero output rows, leave its recurrent state untouched and receive no
gradient, so a batch of variable-length sequences is one block with
trailing zero pads. Rows mix only in a recorded call, and there only
through the rounding of the batched step products; an unrecorded call
gives each row bit for bit the states it gets alone.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import numerics as nm
from .numerics import Tensor

__all__ = ["GruCell", "BiGruEncoder", "StepStates"]

_CELL_FIELDS = ("W_r", "W_u", "W", "U_r", "U_u", "U")


class StepStates(NamedTuple):
    """What one scan keeps for its backward: its own output and, one row
    per real step, flat in step order, the row of the flattened (B*T,
    n_in) input it read and the gates and candidate state it computed.
    Step k covers `counts[k]` consecutive rows."""

    index: np.ndarray  # (N,) rows of the flattened input, in step order
    counts: np.ndarray  # (L_max,) rows still active at each step, non-increasing
    H: np.ndarray  # (B, T, d) the scan's output
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


def _matmul_each_row(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out for an (m, k) block a and a (k, n) matrix or a
    (g, k, n) stack b, as m stacked (1, k) x (k, n) products per matrix:
    each row gets exactly the bits of its own batch-of-one product, which
    one (m, k) x (k, n) GEMM does not promise."""
    return np.matmul(a[:, None], b[..., None, :, :], out=out[..., None, :])[..., 0, :]


def _project(X: np.ndarray, lengths: np.ndarray, index: np.ndarray, weights) -> np.ndarray:
    """X W for each W of the (g, n_in, d) stack `weights`, at the rows
    `index` of the flattened (B*T, n_in) block, in step order: one product
    per row and weight over the row's first L_b positions, the same
    product as a batch of one, written straight into that row's steps. No
    (B*T, d) product is built, and no padded row is projected."""
    B, T, _ = X.shape
    out = np.empty((len(weights), len(index), weights.shape[-1]))
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
        # [W_r; W_u; W] and [U_r; U_u; U]; each parameter views one slice
        self.W_block = np.zeros((3, n_in, hidden_size))
        self.U_block = np.zeros((3, hidden_size, hidden_size))
        self.W_r, self.W_u, self.W = map(nm.parameter, self.W_block)
        self.U_r, self.U_u, self.U = map(nm.parameter, self.U_block)

    def parameters(self) -> dict[str, Tensor]:
        """Name -> tensor, in a fixed order shared by init and checkpoints."""
        return {f"{self.name}.{f}": getattr(self, f) for f in _CELL_FIELDS}

    def run(self, X: Tensor, lengths=None, reverse: bool = False) -> Tensor:
        """Step from a zero state over each row of the (B, T, n_in) block X,
        row b over its first lengths[b] positions, left to right or (with
        `reverse`) right to left; returns the (B, T, d) states, a zero row
        at every padded position. A (T, n_in) block with one int length
        (None: all T) is the B = 1 case and gives (T, d). A length that is
        not an int in 1..T raises ValueError. One tape node."""
        Xd = X.data
        if Xd.ndim not in (2, 3) or Xd.shape[-1] != self.n_in:
            raise nm.ShapeError(
                f"{self.name}: expected (T, {self.n_in}) or (B, T, {self.n_in}) input, got {Xd.shape}"
            )
        X3 = Xd[None] if Xd.ndim == 2 else Xd
        T = X3.shape[1]
        lengths = np.asarray([T] * X3.shape[0] if lengths is None else lengths).reshape(-1)
        if lengths.shape != X3.shape[:1]:
            raise nm.ShapeError(f"{self.name}: {lengths.size} lengths for {X3.shape[0]} rows")
        ints = lengths.dtype.kind in "iu" and lengths.size
        if not ints or lengths.min() < 1 or lengths.max() > T:
            raise ValueError(f"{self.name}: lengths {lengths} are not ints in 1..{T}")
        lengths = lengths.astype(np.intp)
        params = [getattr(self, f) for f in _CELL_FIELDS]
        taped = nm.recording([X] + params)
        H, states = self.scan(X3, lengths, reverse, keep=taped)
        out = Tensor(H.reshape(Xd.shape[:-1] + (self.hidden_size,)))
        if not taped:
            return out

        def backward_fn(g):
            dXs, grads = self.backprop(g, X3, states, input_grad=X.requires_grad)
            if dXs is not None:
                if X.grad is None:  # first touch: a zero at every padded row
                    dX = np.zeros((X3.shape[0] * T, self.n_in))
                    dX[states.index] = dXs
                    nm.accumulate(X, dX.reshape(Xd.shape), owned=True)
                else:  # the stepped rows are unique, so a plain fancy add
                    grad = X.grad[None] if X.grad.ndim == 2 else X.grad
                    grad[np.divmod(states.index, T)] += dXs
            for p, dp in zip(params, grads):  # each its own view of a fresh product
                nm.accumulate(p, dp, owned=True)

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
        proj = _project(X, lengths, index, self.W_block)  # X W_r, X W_u, X W
        U_ru, U = self.U_block[:2], self.U_block[2]
        # a batch of one is already row by row
        matmul = np.matmul if keep or B == 1 else _matmul_each_row
        if keep:
            gates, hbars = np.empty((2, n, d)), np.empty((n, d))
        Hs = np.empty((n, d))  # the state after each step, in step order
        h = np.zeros((counts[0], d))
        s = 0
        for m in counts.tolist():
            h = h[:m]
            a = gates[:, s : s + m] if keep else np.empty((2, m, d))  # pre-activations, then r, u
            c = hbars[s : s + m] if keep else np.empty((m, d))
            matmul(h, U_ru, out=a)
            a += proj[:2, s : s + m]
            r, u = nm.logistic(a, out=a)
            matmul(r * h, U, out=c)
            c += proj[2, s : s + m]
            hbar = np.tanh(c, out=c)
            h = np.add(h, u * (hbar - h), out=Hs[s : s + m])
            s += m
        del proj  # read by the loop only; freed before H is built
        H = np.zeros((B * T, d))
        H[index] = Hs
        H = H.reshape(B, T, d)
        if not keep:
            return H, None
        return H, StepStates(index, counts, H, gates[0], gates[1], hbars)

    def backprop(
        self, g: np.ndarray, X: np.ndarray, states: StepStates, input_grad: bool
    ) -> tuple[np.ndarray | None, list[np.ndarray]]:
        """Backpropagation through time for one scan of the (B, T, n_in)
        block X, given the gradient g on its output. Returns dX_s, the
        input gradient at the stepped rows in step order (None unless
        input_grad), and the six weight gradients in parameter order. It
        overwrites the states' u and hbar, so it runs once per scan."""
        index, counts, H, rs, us, hbars = states
        n, d = rs.shape
        U_ru_T, U_T = self.U_block[:2].transpose(0, 2, 1), self.U_block[2].T
        # the state before a step is the same row's state one step earlier,
        # counts[k-1] rows back in step order; the first step starts at zero
        h_prev = np.zeros((n, d))
        back = np.arange(counts[0], n) - np.repeat(counts[:-1], counts[1:])
        h_prev[counts[0] :] = H.reshape(-1, d)[index[back]]
        # the step-local factors of the equations, for all steps at once;
        # c_factor and carry take the storage of hbar and u, read only here
        u_factor = (hbars - h_prev) * us * (1.0 - us)
        r_factor = h_prev * rs * (1.0 - rs)
        c_factor = np.subtract(1.0, np.multiply(hbars, hbars, out=hbars), out=hbars)
        c_factor *= us
        carry = np.subtract(1.0, us, out=us)
        G = np.empty((n, 3 * d))  # pre-activation gradients [g_r | g_u | g_c]
        G3 = G.reshape(n, 3, d).transpose(1, 0, 2)  # the same, as (3, N, d)
        G_r, G_u, G_c = G3
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
            for term in (e, *np.matmul(G3[:2, k], U_ru_T)):  # e * r, g_r U_r^T, g_u U_u^T
                dh_k += term
        del c_factor, u_factor, r_factor, carry, g_rows

        X2 = X.reshape(-1, X.shape[-1])
        Xs = np.ascontiguousarray(X2[index])
        dU_ru = h_prev.T @ G[:, : 2 * d]
        grads = [*np.matmul(Xs.T, G3), dU_ru[:, :d], dU_ru[:, d:], (rs * h_prev).T @ G_c]
        del Xs
        if not input_grad:
            return None, grads
        # the three input products summed into one buffer, left to right
        dXs = G_r @ self.W_r.data.T
        dXs += G_u @ self.W_u.data.T
        dXs += G_c @ self.W.data.T
        return dXs, grads


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
