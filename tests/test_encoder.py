"""Recurrent cell algebra, bi-directional encoding, padding, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import encoder, numerics as nm


def seeded_cell(n_in, d, name="cell", seed=0, scale=0.4):
    cell = encoder.GruCell(n_in, d, name)
    rng = np.random.default_rng(seed)
    for p in cell.parameters().values():
        p.data[...] = rng.normal(scale=scale, size=p.data.shape)
    return cell


def step(cell, x, h):
    """One transition through the cell's own code path: project the input,
    then step. Returns (new state, reset gate, update gate)."""
    x = x if isinstance(x, nm.Tensor) else nm.tensor(x)
    h = h if isinstance(h, nm.Tensor) else nm.tensor(h)
    return cell.step_from_proj(*cell.input_projections(x), h)


def seeded_encoder(n_in, d, name="enc", seed=0, scale=0.4):
    enc = encoder.BiGruEncoder(n_in, d, name)
    rng = np.random.default_rng(seed)
    for p in enc.parameters().values():
        p.data[...] = rng.normal(scale=scale, size=p.data.shape)
    return enc


# ---------------------------------------------------------------------------
# cell algebra


def test_zero_weights_halve_the_state():
    # all-zero weights force both gates to 1/2 and a zero candidate,
    # so the new state is exactly half the old one
    cell = encoder.GruCell(3, 4, "z")
    v = np.array([1.0, -2.0, 0.5, 4.0])
    h, _, _ = step(cell, np.zeros(3), v)
    assert np.array_equal(h.data, 0.5 * v)


def test_zero_weights_zero_state_is_fixed_point():
    cell = encoder.GruCell(3, 4, "z")
    h, _, _ = step(cell, np.array([5.0, -3.0, 2.0]), np.zeros(4))
    assert np.array_equal(h.data, np.zeros(4))


def test_step_shapes_and_dim_mismatch():
    cell = seeded_cell(3, 4)
    h, r, u = step(cell, np.ones(3), np.zeros(4))
    assert h.shape == r.shape == u.shape == (4,)
    with pytest.raises(nm.ShapeError):
        step(cell, np.ones(5), np.zeros(4))
    with pytest.raises(nm.ShapeError):
        step(cell, np.ones(3), np.zeros(2))


def test_cell_parameter_catalog():
    cell = encoder.GruCell(3, 4, "enc.fwd")
    names = list(cell.parameters())
    assert names == [
        "enc.fwd.W_r", "enc.fwd.W_u", "enc.fwd.W",
        "enc.fwd.U_r", "enc.fwd.U_u", "enc.fwd.U",
    ]
    shapes = [p.data.shape for p in cell.parameters().values()]
    assert shapes == [(3, 4)] * 3 + [(4, 4)] * 3


def test_step_gradients_match_finite_differences():
    cell = seeded_cell(3, 4, seed=7)
    x = nm.tensor(np.random.default_rng(8).normal(size=3))
    h0 = nm.tensor(np.random.default_rng(9).normal(scale=0.5, size=4))
    params = list(cell.parameters().values())

    def build():
        return nm.total(step(cell, x, h0)[0])

    err = max(nm.finite_difference_errors(build, params, 1e-6))
    assert err < 1e-5


def test_step_gradient_flows_to_input_and_state():
    cell = seeded_cell(3, 4, seed=11)
    x = nm.parameter(np.random.default_rng(1).normal(size=3))
    h0 = nm.parameter(np.random.default_rng(2).normal(scale=0.5, size=4))

    def build():
        return nm.total(step(cell, x, h0)[0])

    err = max(nm.finite_difference_errors(build, [x, h0], 1e-6))
    assert err < 1e-5


def test_step_from_proj_matches_step():
    # projecting a whole block and stepping on one row of the projections
    # must agree with projecting that row alone
    cell = seeded_cell(3, 4, seed=3)
    X = nm.tensor(np.random.default_rng(4).normal(size=(2, 3)))
    h = nm.tensor(np.zeros(4))
    xr, xu, xc = cell.input_projections(X)
    via_block, _, _ = cell.step_from_proj(nm.row(xr, 0), nm.row(xu, 0), nm.row(xc, 0), h)
    direct, _, _ = step(cell, nm.row(X, 0), h)
    assert np.allclose(via_block.data, direct.data)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), d=st.integers(1, 6))
def test_property_gates_stay_in_unit_interval(seed, d):
    # mathematically the gates live strictly inside (0,1); in float64 a
    # saturated sigmoid rounds to exactly 0 or 1, so extreme draws get the
    # closed-interval check and moderate draws the strict one
    rng = np.random.default_rng(seed)
    cell = encoder.GruCell(3, d, "g")
    for p in cell.parameters().values():
        p.data[...] = rng.normal(scale=2.0, size=p.data.shape)
    x = rng.normal(scale=3.0, size=3)
    h = rng.normal(size=d)
    _, r, u = step(cell, x, h)
    assert np.all(r.data >= 0) and np.all(r.data <= 1)
    assert np.all(u.data >= 0) and np.all(u.data <= 1)

    for p in cell.parameters().values():
        p.data[...] = rng.normal(scale=0.3, size=p.data.shape)
    _, r, u = step(cell, rng.normal(size=3), rng.normal(size=d))
    assert np.all(r.data > 0) and np.all(r.data < 1)
    assert np.all(u.data > 0) and np.all(u.data < 1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), T=st.integers(1, 12))
def test_property_states_bounded_from_zero_init(seed, T):
    # each state is a convex mix of the previous state and a tanh output,
    # so from a zero start no coordinate can ever leave [-1, 1]
    rng = np.random.default_rng(seed)
    enc = encoder.BiGruEncoder(3, 4, "b")
    for p in enc.parameters().values():
        p.data[...] = rng.normal(scale=2.5, size=p.data.shape)
    X = rng.normal(scale=4.0, size=(T, 3))
    F, B, C = enc.encode(nm.tensor(X))
    assert np.max(np.abs(C.data)) <= 1.0


# ---------------------------------------------------------------------------
# bi-directional encoding


def test_encode_shapes_and_concat_layout():
    enc = seeded_encoder(3, 4, seed=5)
    X = np.random.default_rng(6).normal(size=(5, 3))
    F, B, C = enc.encode(nm.tensor(X))
    assert F.shape == (5, 4) and B.shape == (5, 4) and C.shape == (5, 8)
    assert np.array_equal(C.data[:, :4], F.data)
    assert np.array_equal(C.data[:, 4:], B.data)


def test_encode_single_position():
    enc = seeded_encoder(3, 4, seed=7)
    x = np.random.default_rng(8).normal(size=(1, 3))
    F, B, _ = enc.encode(nm.tensor(x))
    fwd_direct, _, _ = step(enc.forward_cell, x[0], np.zeros(4))
    bwd_direct, _, _ = step(enc.backward_cell, x[0], np.zeros(4))
    assert np.allclose(F.data[0], fwd_direct.data)
    assert np.allclose(B.data[0], bwd_direct.data)


def test_encode_reversal_swaps_directions():
    # run a twin encoder with the two cells exchanged: encoding the
    # reversed sequence must swap the roles of the two state sequences
    enc = seeded_encoder(3, 4, seed=9)
    twin = encoder.BiGruEncoder(3, 4, "twin")
    for (_, p), (_, q) in zip(
        sorted(enc.forward_cell.parameters().items()),
        sorted(twin.backward_cell.parameters().items()),
    ):
        q.data[...] = p.data
    for (_, p), (_, q) in zip(
        sorted(enc.backward_cell.parameters().items()),
        sorted(twin.forward_cell.parameters().items()),
    ):
        q.data[...] = p.data
    X = np.random.default_rng(10).normal(size=(6, 3))
    F, B, _ = enc.encode(nm.tensor(X))
    F2, B2, _ = twin.encode(nm.tensor(X[::-1]))
    assert np.allclose(F.data, B2.data[::-1], atol=1e-12)
    assert np.allclose(B.data, F2.data[::-1], atol=1e-12)


def test_encode_rejects_empty_and_bad_length():
    enc = seeded_encoder(3, 4)
    with pytest.raises(ValueError):
        enc.encode(nm.tensor(np.zeros((0, 3))))
    X = np.zeros((4, 3))
    with pytest.raises(ValueError):
        enc.encode(nm.tensor(X), length=0)
    with pytest.raises(ValueError):
        enc.encode(nm.tensor(X), length=5)


def test_padding_rows_are_zero_and_inert():
    enc = seeded_encoder(3, 4, seed=11)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(3, 3))
    padded = np.vstack([X, rng.normal(size=(2, 3))])  # junk in the pad rows
    F, B, C = enc.encode(nm.tensor(padded), length=3)
    Fu, Bu, Cu = enc.encode(nm.tensor(X))
    assert np.allclose(F.data[:3], Fu.data)
    assert np.allclose(B.data[:3], Bu.data)
    assert np.array_equal(C.data[3:], np.zeros((2, 8)))


def test_encode_deterministic_bitwise():
    def run():
        enc = seeded_encoder(3, 4, seed=13)
        X = np.random.default_rng(14).normal(size=(7, 3))
        _, _, C = enc.encode(nm.tensor(X))
        return C.data.tobytes()

    assert run() == run()


def test_encode_gradients_match_finite_differences():
    enc = seeded_encoder(2, 3, seed=15)
    X = nm.tensor(np.random.default_rng(16).normal(size=(4, 2)))
    params = list(enc.parameters().values())

    def build():
        _, _, C = enc.encode(X)
        return nm.total(C)

    err = max(nm.finite_difference_errors(build, params, 1e-6))
    assert err < 1e-5


def test_encode_gradients_with_padding():
    enc = seeded_encoder(2, 3, seed=17)
    X = nm.tensor(np.random.default_rng(18).normal(size=(5, 2)))
    params = list(enc.parameters().values())

    def build():
        _, _, C = enc.encode(X, length=3)
        return nm.total(C)

    err = max(nm.finite_difference_errors(build, params, 1e-6))
    assert err < 1e-5
