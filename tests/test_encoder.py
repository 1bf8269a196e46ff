"""Recurrent cell algebra, bi-directional encoding, padding, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import encoder, numerics as nm
from reference_ops import mul, sigmoid, tanh, total


def seeded_cell(n_in, d, name="cell", seed=0, scale=0.4):
    cell = encoder.GruCell(n_in, d, name)
    rng = np.random.default_rng(seed)
    for p in cell.parameters().values():
        p.data[...] = rng.normal(scale=scale, size=p.data.shape)
    return cell


def run(cell, X):
    """States of one pass of the cell over every row of X, in order."""
    X = X if isinstance(X, nm.Tensor) else nm.tensor(X)
    return cell.run(X)


def gates(cell, X):
    """Reset and update gates the cell's own forward computes over X."""
    X = np.asarray(X, dtype=float)
    _, states = cell.scan(X[None], np.array([len(X)]), reverse=False, keep=True)
    return states.r, states.u


def seeded_encoder(n_in, d, name="enc", seed=0, scale=0.4):
    enc = encoder.BiGruEncoder(n_in, d, name)
    rng = np.random.default_rng(seed)
    for p in enc.parameters().values():
        p.data[...] = rng.normal(scale=scale, size=p.data.shape)
    return enc


# ---------------------------------------------------------------------------
# cell algebra


def test_zero_weights_halve_the_state():
    # with all U_* zero, a zero input row forces both gates to 1/2 and a
    # zero candidate, so the step exactly halves whatever state it gets
    cell = seeded_cell(3, 4, seed=1, scale=1.0)
    for name in ("U_r", "U_u", "U"):
        getattr(cell, name).data[...] = 0.0
    H = run(cell, np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])).data
    assert np.all(H[0] != 0.0)
    assert np.array_equal(H[1], 0.5 * H[0])


def test_zero_weights_zero_state_is_fixed_point():
    cell = encoder.GruCell(3, 4, "z")
    H = run(cell, np.array([[5.0, -3.0, 2.0], [1.0, 0.0, -7.0]]))
    assert np.array_equal(H.data, np.zeros((2, 4)))


def test_step_shapes_and_dim_mismatch():
    cell = seeded_cell(3, 4)
    X = np.ones((2, 3))
    assert run(cell, X).shape == (2, 4)
    r, u = gates(cell, X)
    assert r.shape == u.shape == (2, 4)
    with pytest.raises(nm.ShapeError):
        run(cell, np.ones((2, 5)))
    with pytest.raises(nm.ShapeError):
        cell.run(nm.tensor(np.ones(3)), 1)
    with pytest.raises(nm.ShapeError):  # one length per row of a stack
        cell.run(nm.tensor(np.ones((2, 2, 3))), [1])
    with pytest.raises(ValueError):
        cell.run(nm.tensor(X), 3)


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
    params = list(cell.parameters().values())
    for T in (1, 2, 3):
        X = nm.parameter(np.random.default_rng(8).normal(size=(T, 3)))

        def build():
            return total(run(cell, X))

        err = max(nm.finite_difference_errors(build, params + [X], 1e-6))
        assert err < 1e-5, T


def test_step_gradient_flows_to_input_and_state():
    # with 3 rows, the input gradient of the first two rows reaches them
    # only through the carried state of the later steps
    cell = seeded_cell(3, 4, seed=11)
    X = nm.parameter(np.random.default_rng(1).normal(size=(3, 3)))

    def build():
        return total(nm.gather_rows(run(cell, X), 2))

    err = max(nm.finite_difference_errors(build, [X], 1e-6))
    assert err < 1e-5
    with nm.Tape() as tape:
        X.grad = None
        tape.backward(build())
    assert np.all(X.grad[:2] != 0.0)


def test_run_on_block_matches_run_on_prefix():
    # the state after row t of a block is the last state of a run over
    # the block's first t + 1 rows alone: projecting the whole block at
    # once gives each step the same inputs as projecting its rows alone
    cell = seeded_cell(3, 4, seed=3)
    X = np.random.default_rng(4).normal(size=(4, 3))
    H = run(cell, X).data
    for t in range(4):
        assert np.allclose(H[t], run(cell, X[: t + 1]).data[t], rtol=1e-13, atol=0.0)


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
    r, u = gates(cell, rng.normal(scale=3.0, size=(3, 3)))
    assert np.all(r >= 0) and np.all(r <= 1)
    assert np.all(u >= 0) and np.all(u <= 1)

    for p in cell.parameters().values():
        p.data[...] = rng.normal(scale=0.3, size=p.data.shape)
    r, u = gates(cell, rng.normal(size=(3, 3)))
    assert np.all(r > 0) and np.all(r < 1)
    assert np.all(u > 0) and np.all(u < 1)


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
    # from a zero state the reset gate drops out: h = u * tanh(x W)
    for cell, states in ((enc.forward_cell, F), (enc.backward_cell, B)):
        u = 1.0 / (1.0 + np.exp(-(x[0] @ cell.W_u.data)))
        assert np.allclose(states.data[0], u * np.tanh(x[0] @ cell.W.data))


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
        enc.encode(nm.tensor(X), 0)
    with pytest.raises(ValueError):
        enc.encode(nm.tensor(X), 5)
    with pytest.raises(ValueError):
        enc.encode(nm.tensor(np.zeros((2, 4, 3))), [4, 0])


def test_padding_rows_are_zero_and_inert():
    enc = seeded_encoder(3, 4, seed=11)
    rng = np.random.default_rng(12)
    X = rng.normal(size=(3, 3))
    padded = np.vstack([X, rng.normal(size=(2, 3))])  # junk in the pad rows
    F, B, C = enc.encode(nm.tensor(padded), 3)
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
        return total(C)

    err = max(nm.finite_difference_errors(build, params, 1e-6))
    assert err < 1e-5


def test_encode_gradients_with_padding():
    enc = seeded_encoder(2, 3, seed=17)
    X = nm.tensor(np.random.default_rng(18).normal(size=(5, 2)))
    params = list(enc.parameters().values())

    def build():
        _, _, C = enc.encode(X, 3)
        return total(C)

    err = max(nm.finite_difference_errors(build, params, 1e-6))
    assert err < 1e-5


# ---------------------------------------------------------------------------
# the fused node against a step-by-step taped reference


def unrolled(cell, X, lengths, reverse, weights):
    """The cell's recurrence spelled out with one taped op per operation,
    row by row of the (B, T, n_in) block X. Returns the (B, T, d) states,
    zero rows where the cell does not step, and the loss
    sum_{b,t} h_bt . weights[b, t] over the steps, summed step by step."""
    d = cell.hidden_size
    H = np.zeros(X.data.shape[:2] + (d,))
    loss = nm.tensor(0.0)
    for b, length in enumerate(lengths):
        h = nm.tensor(np.zeros(d))
        positions = range(length - 1, -1, -1) if reverse else range(length)
        for t in positions:
            x = nm.gather_rows(X, (b, t))
            r = sigmoid(nm.add(nm.matmul(x, cell.W_r), nm.matmul(h, cell.U_r)))
            u = sigmoid(nm.add(nm.matmul(x, cell.W_u), nm.matmul(h, cell.U_u)))
            hbar = tanh(nm.add(nm.matmul(x, cell.W), nm.matmul(mul(r, h), cell.U)))
            h = nm.add(h, mul(u, nm.add(hbar, nm.scale(h, -1.0))))
            H[b, t] = h.data
            loss = nm.add(loss, nm.matmul(h, nm.tensor(weights[b, t])))
    return H, loss


def fused(cell, X, lengths, reverse, weights):
    H = cell.run(X, lengths, reverse)
    return H.data, total(mul(H, nm.tensor(weights)))


# one row at full length, padded, and of length 1; three rows whose
# lengths are out of order, and three with tied lengths
@pytest.mark.parametrize(
    "lengths", [(6,), (4,), (1,), (4, 6, 1), (6, 2, 6)], ids=lambda ls: ".".join(map(str, ls))
)
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_fused_node_matches_unrolled_reference(direction, lengths):
    reverse = direction == "backward"
    cell = seeded_cell(3, 5, seed=21, scale=0.6)
    rng = np.random.default_rng(22)
    B = len(lengths)
    X = nm.parameter(rng.normal(size=(B, 6, 3)))  # positions past a row's length are padding
    weights = rng.normal(size=(B, 6, 5))  # a loss that weighs every output cell
    params = list(cell.parameters().values()) + [X]

    results = []
    for forward in (fused, unrolled):
        for p in params:
            p.grad = None
        with nm.Tape() as tape:
            H, loss = forward(cell, X, lengths, reverse, weights)
            tape.backward(loss)
        results.append((H, [p.grad for p in params]))
    (fused_H, fused_grads), (ref, ref_grads) = results

    assert np.allclose(fused_H, ref, rtol=1e-10, atol=0.0)
    for g, ref_g in zip(fused_grads, ref_grads):
        assert np.allclose(g, ref_g, rtol=1e-10, atol=0.0)
    for b, length in enumerate(lengths):
        assert np.array_equal(fused_H[b, length:], np.zeros((6 - length, 5)))
        assert np.array_equal(fused_grads[-1][b, length:], np.zeros((6 - length, 3)))


def test_batched_encode_rows_match_single_row_encodes():
    # each row of a stack is encoded as if alone: its states and its input
    # gradient do not depend on the other rows, and its padded positions
    # get zero states and zero gradient, whatever junk they hold
    enc = seeded_encoder(3, 4, seed=25)
    rng = np.random.default_rng(26)
    lengths = [3, 5, 1, 5]
    X = nm.parameter(rng.normal(size=(4, 5, 3)))
    weights = rng.normal(size=(4, 5, 8))

    def encode_with_grad(block, lens, w):
        block.grad = None
        with nm.Tape() as tape:
            _, _, C = enc.encode(block, lens)
            tape.backward(total(mul(C, nm.tensor(w))))
        return C.data, block.grad

    C, dX = encode_with_grad(X, lengths, weights)
    for b, length in enumerate(lengths):
        alone = nm.parameter(X.data[b : b + 1].copy())
        C1, dX1 = encode_with_grad(alone, [length], weights[b : b + 1])
        # the same sums, possibly grouped differently across the batch
        assert np.allclose(C[b], C1[0], rtol=1e-12, atol=1e-15)
        assert np.allclose(dX[b], dX1[0], rtol=1e-10, atol=1e-15)
        assert np.array_equal(C[b, length:], np.zeros((5 - length, 8)))
        assert np.array_equal(dX[b, length:], np.zeros((5 - length, 3)))


def batched_gemm_states(cell, X, lengths, reverse):
    """The recorded scan's arithmetic spelled out: each input weight applied
    to the whole flattened (B*T, n_in) block in one GEMM, and each step's
    recurrent products over all rows still active in one (m, d) x (d, d)
    GEMM, rows ordered by decreasing length. Returns the (B, T, d) states."""
    B, T, _ = X.shape
    d = cell.hidden_size
    proj = [(X.reshape(B * T, -1) @ w.data).reshape(B, T, d) for w in (cell.W_r, cell.W_u, cell.W)]
    order = np.argsort(-np.asarray(lengths), kind="stable")
    H = np.zeros((B, T, d))
    h = np.zeros((B, d))
    for k in range(max(lengths)):
        rows = [b for b in order if lengths[b] > k]
        m = len(rows)
        at = (rows, [lengths[b] - 1 - k if reverse else k for b in rows])
        h = h[:m]
        a = np.empty((2, m, d))
        np.matmul(h, cell.U_r.data, out=a[0])
        np.matmul(h, cell.U_u.data, out=a[1])
        a += np.stack([proj[0][at], proj[1][at]])
        r, u = nm.logistic(a)
        c = (r * h) @ cell.U.data
        c += proj[2][at]
        hbar = np.tanh(c)
        h = h + u * (hbar - h)
        H[at] = h
    return H


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_paper_width_rows_never_mix_in_inference(direction):
    # at d = 300 one (m, d) x (d, d) GEMM gives a row other bits than its
    # own (1, d) x (d, d) product, so only a row-by-row inference run
    # answers each row exactly as a batch of one; the recorded run keeps
    # the batched GEMMs
    reverse = direction == "backward"
    cell = seeded_cell(40, 300, seed=27, scale=0.1)
    rng = np.random.default_rng(28)
    lengths = [17, 40, 5, 33, 1]
    X = rng.normal(size=(5, 40, 40))  # positions past a row's length are junk
    H = cell.run(nm.tensor(X), lengths, reverse).data
    for b, length in enumerate(lengths):
        alone = cell.run(nm.tensor(X[b, :length].copy()), reverse=reverse).data
        assert np.array_equal(H[b, :length], alone), b
        assert np.array_equal(H[b, length:], np.zeros((40 - length, 300)))
    with nm.Tape():
        recorded = cell.run(nm.parameter(X), lengths, reverse)
    assert recorded.requires_grad
    assert np.array_equal(recorded.data, batched_gemm_states(cell, X, lengths, reverse))


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_streamed_projection_is_each_row_alone_and_builds_no_block_product(direction):
    # an unrecorded scan's input products, row by row: each row's steps get
    # bit for bit its own batch-of-one product, and beyond its output the
    # projection holds one row's product, not a (B*T, d) block and a
    # gathered copy of it
    reverse = direction == "backward"
    rng = np.random.default_rng(29)
    lengths = np.array([17, 40, 5, 33, 1])
    X = rng.normal(size=(5, 40, 40))  # positions past a row's length are junk
    weights = [rng.normal(size=(40, 300)) for _ in range(3)]
    index, _ = encoder._step_plan(lengths, 40, reverse)
    tracemalloc.start()
    try:
        proj = encoder._project(X, lengths, index, weights, rowwise=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = 40 * 300 * 8 + 5 * 40 * 8  # one row's product and the step map
    assert peak <= proj.nbytes + extra + 16384, f"{peak - proj.nbytes} B beyond the output"
    rows, positions = np.divmod(index, 40)
    for b, length in enumerate(lengths):
        mine = rows == b
        assert sorted(positions[mine]) == list(range(length))
        for W, p in zip(weights, proj):
            alone = X[b, :length] @ W
            assert np.array_equal(p[mine], alone[positions[mine]]), b


def test_untaped_run_keeps_no_step_states():
    # inference must not pay for the backward's saved states
    cell = seeded_cell(3, 4, seed=23)
    X = np.random.default_rng(24).normal(size=(5, 3))
    H, states = cell.scan(X[None], np.array([5]), reverse=False, keep=False)
    assert states is None
    assert np.array_equal(H[0], run(cell, X).data)
    assert not nm.recording([nm.tensor(X)] + list(cell.parameters().values()))
    with nm.Tape() as tape:
        assert nm.recording(list(cell.parameters().values()))
        run(cell, X)
    assert len(tape) == 1
