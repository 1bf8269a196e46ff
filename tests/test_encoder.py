"""Recurrent cell algebra, bi-directional encoding, padding, gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import encoder, numerics as nm
from helpers import assert_views_of_blocks
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


def test_gradcheck_perturbs_the_blocks_the_scan_reads():
    # finite differences perturb each parameter through p.data.reshape(-1),
    # a view only of a contiguous slice: had it copied, the scan would not
    # see the step and every numeric gradient would read zero
    cell = seeded_cell(3, 4, seed=36)
    for p in cell.parameters().values():
        assert p.data.flags.c_contiguous
    X = nm.tensor(np.random.default_rng(37).normal(size=(2, 5, 3)))
    params = list(cell.parameters().values())
    errors = nm.finite_difference_errors(lambda: total(cell.run(X, [5, 3])), params, 1e-6)
    assert max(errors) < 1e-5, errors
    assert_views_of_blocks(cell)


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


def test_run_rejects_lengths_that_are_not_ints():
    # a length of 2.7 stepped 2 positions, and True stepped 1
    cell = seeded_cell(3, 4)
    X = nm.tensor(np.ones((2, 4, 3)))
    for lengths in ([2.7, 4], [True, True], np.array([2.0, 4.0])):
        with pytest.raises(ValueError, match="not ints"):
            cell.run(X, lengths)
    with pytest.raises(ValueError, match="not ints"):
        cell.run(nm.tensor(np.ones((4, 3))), 3.0)
    assert cell.run(X, np.array([2, 4], dtype=np.uint8)).shape == (2, 4, 4)


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


def batched_gemm_states(cell, X, lengths, reverse, g=None):
    """The recorded scan's arithmetic spelled out gate by gate: each input
    weight applied to each row's own real positions in one product, and
    each step's recurrent products over all rows still active in one
    (m, d) x (d, d) GEMM per matrix, rows ordered by decreasing length.
    Returns the (B, T, d) states. Given the gradient g on them, also
    returns the input gradient and the six weight gradients of the
    backward through time written out the same way: step by step, each
    gate's pre-activation gradient its own array and each recurrent term
    its own product, then each weight gradient one product over all
    steps. Only d[U_r|U_u] is one (d, 2d) product, as the cell forms it:
    two (d, d) products round otherwise at d = 300."""
    B, T, _ = X.shape
    d = cell.hidden_size
    W_r, W_u, W, U_r, U_u, U = (p.data for p in cell.parameters().values())
    proj = np.zeros((3, B, T, d))
    for b, length in enumerate(lengths):
        for p, w in zip(proj, (W_r, W_u, W)):
            p[b, :length] = X[b, :length] @ w
    order = np.argsort(-np.asarray(lengths), kind="stable")
    H = np.zeros((B, T, d))
    h = np.zeros((B, d))
    steps = []  # per step: the positions it visits, h_prev, r, u and hbar
    for k in range(max(lengths)):
        rows = [b for b in order if lengths[b] > k]
        m = len(rows)
        at = (rows, [lengths[b] - 1 - k if reverse else k for b in rows])
        h = h[:m]
        a = np.empty((2, m, d))
        np.matmul(h, U_r, out=a[0])
        np.matmul(h, U_u, out=a[1])
        a += np.stack([proj[0][at], proj[1][at]])
        r, u = nm.logistic(a)
        c = (r * h) @ U
        c += proj[2][at]
        hbar = np.tanh(c)
        steps.append((at, h, r, u, hbar))
        h = h + u * (hbar - h)
        H[at] = h
    if g is None:
        return H
    dh = np.zeros((B, d))
    pre = []  # per step, in step order: g_r, g_u and g_c
    for at, h_prev, r, u, hbar in reversed(steps):
        dh_k = dh[: len(at[0])]
        dh_k += g[at]
        g_c = dh_k * ((1.0 - hbar * hbar) * u)
        g_u = dh_k * ((hbar - h_prev) * u * (1.0 - u))
        e = g_c @ U.T
        g_r = e * (h_prev * r * (1.0 - r))
        dh_k *= 1.0 - u
        e *= r
        dh_k += e
        dh_k += g_r @ U_r.T
        dh_k += g_u @ U_u.T
        pre.insert(0, (g_r, g_u, g_c))
    G_r, G_u, G_c = (np.concatenate(gate) for gate in zip(*pre))
    Xs = np.concatenate([X[at] for at, *_ in steps])
    H_prev = np.concatenate([h_prev for _, h_prev, *_ in steps])
    R = np.concatenate([r for _, _, r, _, _ in steps])
    dU_ru = H_prev.T @ np.concatenate([G_r, G_u], axis=1)
    grads = [Xs.T @ G_r, Xs.T @ G_u, Xs.T @ G_c, dU_ru[:, :d], dU_ru[:, d:], (R * H_prev).T @ G_c]
    dXs = G_r @ W_r.T
    dXs += G_u @ W_u.T
    dXs += G_c @ W.T
    dX = np.zeros(X.shape)
    s = 0
    for at, *_ in steps:
        dX[at] = dXs[s : s + len(at[0])]
        s += len(at[0])
    return H, dX, grads


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
def test_recorded_backward_is_the_per_gate_backward_bit_for_bit(direction):
    # the stacked products over the cell's blocks give each gate exactly
    # the bits of its own product: states, input gradient and every weight
    # gradient equal the per-gate reference over mixed lengths at d = 300
    reverse = direction == "backward"
    cell = seeded_cell(40, 300, seed=34, scale=0.1)
    rng = np.random.default_rng(35)
    lengths = [17, 40, 5, 33, 1]
    X = nm.parameter(rng.normal(size=(5, 40, 40)))  # positions past a row's length are junk
    weights = rng.normal(size=(5, 40, 300))
    with nm.Tape() as tape:
        H = cell.run(X, lengths, reverse)
        tape.backward(total(mul(H, nm.tensor(weights))))
    ref_H, ref_dX, ref_grads = batched_gemm_states(cell, X.data, lengths, reverse, weights)
    assert np.array_equal(H.data, ref_H)
    assert np.array_equal(X.grad, ref_dX)
    for (name, p), ref in zip(cell.parameters().items(), ref_grads):
        assert np.array_equal(p.grad, ref), name


@pytest.mark.parametrize("keep", [False, True], ids=["unrecorded", "recorded"])
@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_streamed_projection_is_each_row_alone_and_builds_no_block_product(
    direction, keep, monkeypatch
):
    # a scan's input products, recorded or not, are one call over the
    # cell's input block, row by row and gate by gate: each row's steps get
    # bit for bit its own batch-of-one product, and beyond its output the
    # projection holds one row's product, not a (B*T, d) block and a
    # gathered copy of it
    reverse = direction == "backward"
    rng = np.random.default_rng(29)
    lengths = np.array([17, 40, 5, 33, 1])
    X = rng.normal(size=(5, 40, 40))  # positions past a row's length are junk
    cell = seeded_cell(40, 300, seed=29, scale=0.1)
    project, calls = encoder._project, []

    def measured(X, lengths, index, weights):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        proj = project(X, lengths, index, weights)
        calls.append((weights, proj, tracemalloc.get_traced_memory()[1] - start))
        return proj

    monkeypatch.setattr(encoder, "_project", measured)
    tracemalloc.start()
    try:
        cell.scan(X, lengths, reverse, keep=keep)
    finally:
        tracemalloc.stop()
    assert len(calls) == 1 and calls[0][0] is cell.W_block
    index, _ = encoder._step_plan(lengths, 40, reverse)
    rows, positions = np.divmod(index, 40)
    extra = 40 * 300 * 8 + 5 * 40 * 8  # one row's product and the step map
    for weights, proj, peak in calls:
        assert peak <= proj.nbytes + extra + 16384, f"{peak - proj.nbytes} B beyond the output"
        for b, length in enumerate(lengths):
            mine = rows == b
            assert sorted(positions[mine]) == list(range(length))
            for W, p in zip(weights, proj):
                alone = X[b, :length] @ W
                assert np.array_equal(p[mine], alone[positions[mine]]), b


def test_recorded_scan_keeps_three_step_arrays_beside_its_output():
    # the state before each step is read back from the output, so what a
    # recorded pass holds for its backward is r, u and hbar, one (N, d)
    # array each, plus its output and the step plan
    cell = seeded_cell(8, 64, seed=30)
    X = nm.parameter(np.random.default_rng(31).normal(size=(2, 50, 8)))
    lengths = [50, 30]
    step_array = sum(lengths) * 64 * 8
    with nm.Tape() as tape:
        tracemalloc.start()
        try:
            H = cell.run(X, lengths)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        tape.backward(total(H))
    assert kept <= H.data.nbytes + 3 * step_array + 8192, f"{kept - H.data.nbytes} B beside H"
    assert np.all(X.grad[1, 30:] == 0.0) and np.all(X.grad[1, :30] != 0.0)


def test_second_pass_over_one_input_adds_its_gradient_in_place():
    # the backward cell's pass runs backward first and allocates the
    # input's gradient; the forward cell's adds its stepped rows into it in
    # place, so the backward never holds a second (B, T, n_in) block
    enc = seeded_encoder(600, 2, seed=32)
    X = nm.parameter(np.random.default_rng(33).normal(size=(2, 40, 600)))
    lengths = [40, 4]  # padding makes a block larger than the stepped rows

    def input_grads(*cells):
        X.grad = None
        with nm.Tape() as tape:
            outs = [cell.run(X, lengths, reverse=cell is enc.backward_cell) for cell in cells]
            loss = total(outs[0]) if len(outs) == 1 else nm.add(total(outs[0]), total(outs[1]))
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        return X.grad, peak

    dX, peak = input_grads(enc.forward_cell, enc.backward_cell)
    stepped = sum(lengths) * 600 * 8
    weights = sum(p.data.nbytes for p in enc.parameters().values())
    # the input's and the weights' gradients, dX_s and one more product of
    # the stepped rows, which a second block would exceed by 36 rows
    assert peak <= X.data.nbytes + weights + 2 * stepped + 32768, f"{peak} B"
    alone = [input_grads(cell)[0] for cell in (enc.backward_cell, enc.forward_cell)]
    assert np.array_equal(dX, alone[0] + alone[1])
    assert np.array_equal(dX[1, 4:], np.zeros((36, 600)))


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
