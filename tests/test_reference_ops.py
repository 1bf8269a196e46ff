"""Gradient checks for the test-only reference ops."""

import numpy as np
import pytest

from chunkreader import numerics as nm
from reference_ops import sigmoid, tanh, total

GRAD_TOL = 1e-7
FD_STEP = 1e-6


def check_grads(build, params, tol=GRAD_TOL, step=FD_STEP):
    err = max(nm.finite_difference_errors(build, params, step))
    assert err < tol, f"max relative gradient error {err:.3e} >= {tol}"


def test_sigmoid_tanh_grads():
    rng = np.random.default_rng(5)
    a = nm.parameter(rng.normal(size=(2, 4)))
    check_grads(lambda: total(sigmoid(a)), [a])
    check_grads(lambda: total(tanh(a)), [a])


def test_sigmoid_extreme_inputs_stay_finite():
    a = nm.tensor([-1000.0, -50.0, 0.0, 50.0, 1000.0])
    y = sigmoid(a).data
    assert np.all(np.isfinite(y))
    assert y[0] == pytest.approx(0.0, abs=1e-12)
    assert y[-1] == pytest.approx(1.0, abs=1e-12)
