"""Dense float64 tensors with reverse-mode automatic differentiation.

Differentiation is organized around an explicit Tape. While a tape is
active, every primitive op appends a backward closure to it; replaying the
tape in reverse propagates gradients, visiting each node exactly once.
With no active tape the same ops are plain numpy computations, which is
how inference runs. Gradient accumulation order is fixed by tape order,
so identical inputs give bit-identical results.

Backward releases as it goes: once a node's backward has run, the tape
drops its output, inputs, closure and the arrays the closure saved, so
a step holds only what the rest of the backward still reads (Chen et
al., arXiv:1604.06174, section 3). An intermediate tensor the caller
still holds keeps its value and its `grad`; any other is freed.

The module holds only the ops the model and the benchmark run. The
training objective is one node per batch, `mean_nll` (`add` and `scale`
serve the benchmark's own reference loss). Its
row-selection ops, `gather_rows` and `gather_pair`, read rows straight
from batched (B, T, d) blocks. `accumulate` alone allocates a gradient
on first touch: it copies the contribution, unless the closure hands it
over with `owned=True`, which a closure may do only for a float64
ndarray it built itself and never reads again. A view or alias (a slice
of the upstream gradient, or the upstream gradient passed through) is
always copied, so no two gradients share memory.

The stack of active tapes is per thread: an op records on the innermost
tape its own thread entered, so threads that each enter their own tape
may run at the same time without seeing one another's ops. A tape and
the tensors recorded on it still belong to one thread; two threads that
run backward into the same parameter race on its `grad`.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "SeededRng",
    "Tensor",
    "Tape",
    "tensor",
    "parameter",
    "recording",
    "record",
    "accumulate",
    "logistic",
    "matmul",
    "add",
    "concat",
    "softmax",
    "mean_nll",
    "dropout",
    "scale",
    "gather_rows",
    "gather_pair",
    "finite_difference_errors",
]


class ShapeError(ValueError):
    """Raised when operand shapes do not conform."""


class SeededRng:
    """Reproducible random stream: same seed gives the same draws, bit-exact."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low: float, high: float, size=None):
        return self._gen.uniform(low, high, size)

    def random(self, size=None):
        return self._gen.random(size)

    def permutation(self, n: int):
        return self._gen.permutation(n)


class Tensor:
    """A float64 array plus an optional same-shape gradient.

    Tensors are value holders; the module-level ops do the math and record
    backward closures on the active tape. `grad` stays None until a
    backward pass touches the tensor.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, values, requires_grad: bool = False):
        self.data = np.asarray(values, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(values) -> Tensor:
    """Constant tensor: participates in math but never receives gradients."""
    return Tensor(values)


def parameter(values) -> Tensor:
    """Leaf tensor that accumulates gradients during backward passes."""
    return Tensor(values, requires_grad=True)


class _TapeStack(threading.local):
    """Active tapes, innermost last; each thread sees only its own list."""

    def __init__(self):
        self.tapes: list[Tape] = []


_tape_stack = _TapeStack()


class Tape:
    """Ordered record of primitive ops, replayed once in reverse by backward().

    Nodes are appended in execution order, so the record is topological by
    construction: every node's inputs precede it. backward() sets each
    entry to None as soon as its node's backward has run, which frees
    what only that node held; len() still counts every recorded node.
    """

    def __init__(self):
        # (output, inputs, backward closure), in execution order; None
        # once backward has passed the node
        self.nodes: list[tuple[Tensor, tuple[Tensor, ...], Callable] | None] = []
        self._replayed = False

    def __enter__(self) -> "Tape":
        _tape_stack.tapes.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        popped = _tape_stack.tapes.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted")
        return False

    def __len__(self) -> int:
        return len(self.nodes)

    def backward(self, loss: Tensor) -> None:
        """Seed d(loss)/d(loss) = 1 and sweep the tape in reverse.

        Gradients accumulate additively, so a tensor used twice receives
        the sum of both contributions. A tape can be replayed only once:
        each node is released once its backward has run, so afterwards
        only the tensors the caller holds keep their values and gradients.
        """
        if loss.data.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if self._replayed:
            raise RuntimeError("tape has already been replayed")
        self._replayed = True
        loss.grad = np.ones_like(loss.data)
        nodes = self.nodes
        for i in range(len(nodes) - 1, -1, -1):
            out, _inputs, backward_fn = nodes[i]
            nodes[i] = None
            if out.grad is not None:  # else no path from this node to the loss
                backward_fn(out.grad)
            del out, _inputs, backward_fn  # freed before the next node runs


def _active_tape() -> Tape | None:
    tapes = _tape_stack.tapes
    return tapes[-1] if tapes else None


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether record() would append an op over these inputs: a tape is
    active and some input requires a gradient. An op whose backward needs
    saved intermediates can test this first and keep none otherwise."""
    return _active_tape() is not None and any(t.requires_grad for t in inputs)


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Append one primitive to the active tape.

    Recording happens only when recording(inputs) holds; otherwise the op
    is forward-only. Custom ops can reuse this entry point together with
    accumulate().
    """
    if recording(inputs):
        out.requires_grad = True
        _active_tape().nodes.append((out, tuple(inputs), backward_fn))
    return out


def accumulate(
    t: Tensor, g: np.ndarray, index: tuple | None = None, owned: bool = False
) -> None:
    """Add a gradient contribution to a tensor, allocating on first touch.
    With `index` (ints and int arrays, one per leading axis), add g into
    those positions only, in place; np.add.at for arrays, so a position
    selected twice receives both contributions, in index order. With
    `owned`, the caller hands g over: a first touch keeps an ndarray g
    itself instead of a copy. Pass it only for a float64 array the caller
    built and never reads again, never for a view or an alias."""
    if not t.requires_grad:
        return
    if index is not None:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        if all(isinstance(i, int) for i in index):
            t.grad[index] += g
        else:
            np.add.at(t.grad, index, g)
    elif t.grad is None:
        # a numpy scalar (a 0-d product) is wrapped, so grad stays an ndarray
        t.grad = g if owned and isinstance(g, np.ndarray) else np.array(g, dtype=np.float64)
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for 1-D/2-D operands, with numpy's promotion rules.

    Backward: dA = dC B^T and dB = A^T dC, specialized per rank so that
    vector operands keep their 1-D shape.
    """
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError(f"matmul supports 1-D/2-D operands, got {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {ad.shape} x {bd.shape}")
    out = Tensor(np.matmul(ad, bd))

    def backward_fn(g):
        if ad.ndim == 2 and bd.ndim == 2:
            accumulate(a, g @ bd.T, owned=True)
            accumulate(b, ad.T @ g, owned=True)
        elif ad.ndim == 2 and bd.ndim == 1:
            accumulate(a, np.outer(g, bd), owned=True)
            accumulate(b, ad.T @ g, owned=True)
        elif ad.ndim == 1 and bd.ndim == 2:
            accumulate(a, bd @ g, owned=True)
            accumulate(b, np.outer(ad, g), owned=True)
        else:  # dot product, scalar upstream gradient
            accumulate(a, g * bd, owned=True)
            accumulate(b, g * ad, owned=True)

    return record(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes disagree: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)

    def backward_fn(g):
        accumulate(a, g)
        accumulate(b, g)

    return record(out, (a, b), backward_fn)



def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) on a plain array, computed without overflow for
    large |x|: with e = exp(-|x|), it is 1 / (1 + e) where x >= 0 and
    e / (1 + e) elsewhere."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; backward splits the gradient."""
    ad, bd = a.data, b.data
    if ad.ndim != bd.ndim or ad.shape[:-1] != bd.shape[:-1]:
        raise ShapeError(f"concat: shapes disagree off the last axis: {ad.shape} vs {bd.shape}")
    out = Tensor(np.concatenate([ad, bd], axis=-1))
    split = ad.shape[-1]

    def backward_fn(g):
        accumulate(a, g[..., :split])
        accumulate(b, g[..., split:])

    return record(out, (a, b), backward_fn)


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax (max-subtracted exponentials) of a non-empty vector."""
    if x.ndim != 1 or x.size == 0:
        raise ShapeError(f"softmax needs a non-empty vector, got shape {x.shape}")
    e = np.exp(x - x.max())
    return e / e.sum()


def mean_nll(scores: Sequence[Tensor], golds: Sequence[int]) -> Tensor:
    """The training objective as one node: the mean over B score vectors
    of -log softmax(s_b)[golds[b]]. Each term is logsumexp(s_b) -
    s_b[gold] from max-shifted scores, so it is finite for any finite
    scores; the terms are summed left to right and the sum multiplied by
    1/B. Backward: vector b gets g (1/B) (softmax(s_b) - onehot(gold_b)),
    recomputed from the scores, so the node keeps only its inputs."""
    scores, golds = tuple(scores), [int(gold) for gold in golds]
    if not scores or len(scores) != len(golds):
        raise ValueError(f"mean_nll needs one gold per score vector, got {len(scores)} and {len(golds)}")
    total = None  # plain adds, left to right: sum() compensates from Python 3.12
    for s, gold in zip(scores, golds):
        x = s.data
        if x.ndim != 1 or x.size == 0:
            raise ShapeError(f"mean_nll needs non-empty vectors, got shape {x.shape}")
        if not 0 <= gold < x.size:
            raise IndexError(f"gold {gold} out of range for shape {x.shape}")
        shifted = x - x.max()
        term = np.log(np.exp(shifted).sum()) - shifted[gold]
        total = term if total is None else total + term
    c = 1.0 / len(scores)

    def backward_fn(g):
        step = g * c
        # last vector first: a vector given twice then sums its parts in the
        # order B one-vector nodes on a tape would
        for s, gold in reversed(list(zip(scores, golds))):
            grad = softmax(s.data)
            grad[gold] -= 1.0
            accumulate(s, step * grad, owned=True)

    return record(Tensor(total * c), scores, backward_fn)


def dropout(a: Tensor, rate: float, rng: SeededRng, training: bool) -> Tensor:
    """Inverted dropout: de-activate with probability `rate` during training,
    scale survivors by 1/(1-rate), and act as the identity at inference."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return a
    keep = np.asarray(rng.random(a.data.shape)) >= rate
    mask = keep / (1.0 - rate)
    out = Tensor(a.data * mask)

    def backward_fn(g):
        accumulate(a, g * mask, owned=True)

    return record(out, (a,), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a python constant."""
    c = float(c)
    out = Tensor(a.data * c)

    def backward_fn(g):
        accumulate(a, g * c, owned=True)

    return record(out, (a,), backward_fn)


# Rows `gather_pair` copies per slice; at d = 300 one side's slice is 1.2 MB.
GATHER_SLICE = 512


def _row_index(a: Tensor, index, op: str) -> tuple:
    """`index` as a tuple of ints and intp arrays, one per leading axis of
    a, each checked against its axis; a row out of range raises IndexError."""
    parts = index if isinstance(index, tuple) else (index,)
    if not 0 < len(parts) < a.data.ndim:
        raise ShapeError(f"{op}: {len(parts)} index axes for shape {a.data.shape}")
    idx = tuple(
        int(p) if isinstance(p, (int, np.integer)) else np.asarray(p, dtype=np.intp) for p in parts
    )
    for axis, part in enumerate(idx):
        size = a.data.shape[axis]
        if isinstance(part, int):
            bad = not 0 <= part < size
        else:
            bad = part.size > 0 and (part.min() < 0 or part.max() >= size)
        if bad:
            raise IndexError(f"{op}: index out of range on axis {axis} of {a.data.shape}")
    return idx


def gather_rows(a: Tensor, index) -> Tensor:
    """Select `a.data[index]` along leading axes, keeping the last whole.
    `index` is an int, a sequence of ints (repeats allowed), or a tuple of
    those, one per leading axis: `(b, starts)` reads rows of example b
    straight from a (B, T, d) block. Backward adds into the selected
    positions of the gradient in place, through accumulate."""
    idx = _row_index(a, index, "gather_rows")
    out = Tensor(a.data[idx])

    def backward_fn(g):
        accumulate(a, g, idx)

    return record(out, (a,), backward_fn)


def gather_pair(a: Tensor, a_index, b: Tensor, b_index) -> Tensor:
    """`concat(gather_rows(a, a_index), gather_rows(b, b_index))` as one
    node: the rows of both sides are written straight into one block, and
    only the indices are kept. The block is filled GATHER_SLICE rows at a
    time, so beyond the block itself the gather holds one slice of rows,
    not a whole-size copy of either side. Backward adds the b half of the
    gradient into b's rows, then the a half into a's, the order and the
    adds of the three nodes it replaces."""
    a_idx = _row_index(a, a_index, "gather_pair")
    b_idx = _row_index(b, b_index, "gather_pair")
    ad, bd = a.data, b.data
    a_rows = np.broadcast_shapes(*(np.shape(p) for p in a_idx))
    b_rows = np.broadcast_shapes(*(np.shape(p) for p in b_idx))
    a_lead, b_lead = a_rows + ad.shape[len(a_idx) : -1], b_rows + bd.shape[len(b_idx) : -1]
    if a_lead != b_lead:
        raise ShapeError(f"gather_pair: {a_lead} rows of {ad.shape} against {b_lead} of {bd.shape}")
    split = ad.shape[-1]
    block = np.empty(a_lead + (split + bd.shape[-1],))
    if not a_lead:  # one row
        block[:split], block[split:] = ad[a_idx], bd[b_idx]
    else:
        for start in range(0, a_lead[0], GATHER_SLICE):
            rows = slice(start, start + GATHER_SLICE)
            block[rows, ..., :split] = ad[_sliced(a_idx, a_rows, rows)]
            block[rows, ..., split:] = bd[_sliced(b_idx, b_rows, rows)]

    def backward_fn(g):
        accumulate(b, g[..., split:], b_idx)
        accumulate(a, g[..., :split], a_idx)

    return record(Tensor(block), (a, b), backward_fn)


def _sliced(idx: tuple, rows_shape: tuple, rows: slice) -> tuple:
    """`idx` narrowed to `rows` of the first axis of what it selects: of
    the broadcast index arrays, or, when every part is an int, of the
    first axis it leaves whole."""
    if not rows_shape:
        return idx + (rows,)
    return tuple(p if isinstance(p, int) else np.broadcast_to(p, rows_shape)[rows] for p in idx)


# ---------------------------------------------------------------------------
# gradient checking


def finite_difference_errors(
    f: Callable[[], Tensor], params: Sequence[Tensor], step: float
) -> list[float]:
    """Per-parameter max relative error between taped and central-difference
    gradients of the scalar function f.

    f() must rebuild its graph from the current parameter values on every
    call and be deterministic. Relative error per coordinate is
    |analytic - numeric| / max(1e-12, |analytic| + |numeric|).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    for p in params:
        p.grad = None
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    errors = []
    for p, grads in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grads.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            f_plus = float(f().data)
            flat[i] = saved - step
            f_minus = float(f().data)
            flat[i] = saved
            numeric = (f_plus - f_minus) / (2.0 * step)
            a = gflat[i]
            err = abs(a - numeric) / max(1e-12, abs(a) + abs(numeric))
            if err > worst:
                worst = err
        errors.append(worst)
    return errors

