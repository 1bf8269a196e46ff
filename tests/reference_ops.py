"""Taped elementwise ops that only tests use, built on the public
`numerics.record` / `numerics.accumulate` entry points.

The model runs fused nodes with hand-derived backwards; these small ops
spell the same math out one operation at a time (the unrolled reference
GRU) and give tests a scalar loss (`total`).
"""

import numpy as np

from chunkreader import numerics as nm
from chunkreader.numerics import Tensor


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; backward uses the saved operands."""
    if a.data.shape != b.data.shape:
        raise nm.ShapeError(f"mul: shapes disagree: {a.data.shape} vs {b.data.shape}")
    ad, bd = a.data, b.data

    def backward_fn(g):
        nm.accumulate(a, g * bd)
        nm.accumulate(b, g * ad)

    return nm.record(Tensor(ad * bd), (a, b), backward_fn)


def sigmoid(a: Tensor) -> Tensor:
    """Logistic function of a tensor, through `numerics.logistic`."""
    y = nm.logistic(a.data)

    def backward_fn(g):
        nm.accumulate(a, g * y * (1.0 - y))

    return nm.record(Tensor(y), (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward_fn(g):
        nm.accumulate(a, g * (1.0 - y * y))

    return nm.record(Tensor(y), (a,), backward_fn)


def total(a: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""

    def backward_fn(g):
        nm.accumulate(a, np.full(a.data.shape, float(g)))

    return nm.record(Tensor(a.data.sum()), (a,), backward_fn)
