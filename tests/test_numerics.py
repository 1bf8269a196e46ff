"""Autodiff core: op-level gradient checks, tape semantics, rng determinism."""

import sys
import threading
import tracemalloc
import typing
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chunkreader import numerics as nm
from chunkreader.model import ModelConfig, attend
from chunkreader.synthetic import SyntheticSpec
from chunkreader.trainer import TrainConfig
from reference_ops import mul, sigmoid, tanh, total

GRAD_TOL = 1e-7
FD_STEP = 1e-6


def check_grads(build, params, tol=GRAD_TOL, step=FD_STEP):
    err = max(nm.finite_difference_errors(build, params, step))
    assert err < tol, f"max relative gradient error {err:.3e} >= {tol}"


@pytest.mark.parametrize("planted", [np.nan, np.inf])
def test_non_finite_analytic_gradient_is_an_infinite_error(planted):
    # `err > worst` is never true for NaN: a NaN in one coordinate of the
    # taped gradient of p.p used to report 5.0e-13 and pass any tolerance
    p = nm.parameter(np.array([0.5, -1.5, 2.0]))

    def squares():
        def backward_fn(g):
            grad = 2.0 * p.data * g
            grad[0] = planted
            nm.accumulate(p, grad, owned=True)

        return nm.record(nm.Tensor(np.dot(p.data, p.data)), (p,), backward_fn)

    (err,) = nm.finite_difference_errors(squares, [p], FD_STEP)
    assert err == np.inf and not err < 1e-4


# ---------------------------------------------------------------------------
# per-op gradient checks


def test_matmul_grad_2d_2d():
    rng = np.random.default_rng(0)
    a = nm.parameter(rng.normal(size=(3, 4)))
    b = nm.parameter(rng.normal(size=(4, 5)))
    check_grads(lambda: total(nm.matmul(a, b)), [a, b])


def test_matmul_grad_2d_1d():
    rng = np.random.default_rng(1)
    a = nm.parameter(rng.normal(size=(3, 4)))
    b = nm.parameter(rng.normal(size=4))
    check_grads(lambda: total(nm.matmul(a, b)), [a, b])


def test_matmul_grad_1d_2d():
    rng = np.random.default_rng(2)
    a = nm.parameter(rng.normal(size=3))
    b = nm.parameter(rng.normal(size=(3, 4)))
    check_grads(lambda: total(nm.matmul(a, b)), [a, b])


def test_matmul_grad_1d_1d():
    rng = np.random.default_rng(3)
    a = nm.parameter(rng.normal(size=5))
    b = nm.parameter(rng.normal(size=5))
    check_grads(lambda: nm.matmul(a, b), [a, b])


def test_matmul_shape_mismatch():
    a = nm.parameter(np.zeros((3, 4)))
    b = nm.parameter(np.zeros((5, 2)))
    with pytest.raises(nm.ShapeError, match=r"^matmul: inner dimensions disagree"):
        nm.matmul(a, b)
    with pytest.raises(nm.ShapeError, match=r"^matmul supports 1-D/2-D operands, got \(2, 3, 4\) x"):
        nm.matmul(nm.parameter(np.zeros((2, 3, 4))), nm.parameter(np.zeros((4, 2))))


def test_add_shape_mismatch():
    with pytest.raises(nm.ShapeError, match=r"^add: shapes disagree: \(2, 3\) vs \(3,\)$"):
        nm.add(nm.parameter(np.zeros((2, 3))), nm.parameter(np.zeros(3)))


def test_finite_difference_step_must_be_positive():
    p = nm.parameter(np.ones(2))
    for step in (0.0, -1e-4):
        with pytest.raises(ValueError, match="^step must be positive$"):
            nm.finite_difference_errors(lambda: nm.matmul(p, p), [p], step)


def test_tape_exited_out_of_order_raises():
    outer, inner = nm.Tape(), nm.Tape()
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(RuntimeError, match="^tape stack corrupted$"):
        outer.__exit__(None, None, None)  # pops inner, which outer does not own
    outer.__exit__(None, None, None)  # pops outer, leaving the stack as it was
    assert not nm.recording([nm.parameter(np.ones(1))])


def test_add_mul_grads():
    rng = np.random.default_rng(4)
    a = nm.parameter(rng.normal(size=(2, 3)))
    b = nm.parameter(rng.normal(size=(2, 3)))
    check_grads(lambda: total(nm.add(a, b)), [a, b])
    check_grads(lambda: total(mul(a, b)), [a, b])


def test_logistic_is_the_two_branch_formula():
    # bit for bit the overflow-free two-branch form, signed zeros,
    # infinities and NaN included: the GRU forward and sigmoid share it
    x = np.concatenate([
        np.random.default_rng(7).normal(scale=20.0, size=2000),
        [0.0, -0.0, 1e-300, -1e-300, 745.2, -745.2, 1000.0, -1000.0, np.inf, -np.inf, np.nan],
    ])
    with np.errstate(over="ignore", invalid="ignore"):  # the branch np.where drops
        expected = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))
    assert np.array_equal(nm.logistic(x), expected, equal_nan=True)
    assert np.array_equal(sigmoid(nm.tensor(x)).data, expected, equal_nan=True)
    # written in place, as the GRU step writes its gates into kept storage
    y = x.copy()
    assert nm.logistic(y, out=y) is y
    assert np.array_equal(y, expected, equal_nan=True)


def test_concat_grad_and_shapes():
    rng = np.random.default_rng(6)
    a = nm.parameter(rng.normal(size=(3, 2)))
    b = nm.parameter(rng.normal(size=(3, 5)))
    out = nm.concat(a, b)
    assert out.shape == (3, 7)
    check_grads(lambda: total(nm.concat(a, b)), [a, b])
    with pytest.raises(nm.ShapeError):
        nm.concat(a, nm.parameter(np.zeros((4, 5))))


def test_softmax_forward_and_grad():
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    y = nm.softmax(x)
    assert y.sum() == pytest.approx(1.0)
    assert np.all(y > 0)
    # the row softmax inside normalized attention is the same function, bit
    # for bit: with the identity as question states, a passage row s gets
    # weights softmax(s) and a summary equal to them, and the gradient of
    # that summary matches finite differences
    s = nm.parameter(x[None])
    eye = nm.tensor(np.eye(6))
    assert np.array_equal(attend(s, eye, normalize=True).data[0, 6:], y)
    w = nm.tensor(rng.normal(size=(1, 12)))
    check_grads(lambda: total(mul(attend(s, eye, normalize=True), w)), [s])


def test_softmax_shift_invariance():
    s = np.array([1.0, 2.0, 3.0])
    assert np.allclose(nm.softmax(s), nm.softmax(s + 1000.0))


def test_softmax_normalizes_rows_and_rejects_empty_and_4d():
    x = np.random.default_rng(8).normal(scale=5.0, size=6)
    assert abs(nm.softmax(x).sum() - 1.0) <= 1e-12
    for bad in (np.zeros(0), np.zeros((4, 6)), np.zeros((2, 2, 2, 2))):
        with pytest.raises(nm.ShapeError):
            nm.softmax(bad)


def test_mean_nll_forward_and_grad():
    rng = np.random.default_rng(15)
    s = nm.parameter(rng.normal(size=6))
    y = nm.softmax(s.data)
    assert float(nm.mean_nll([s], [2]).data) == pytest.approx(-np.log(y[2]), abs=1e-12)
    check_grads(lambda: nm.mean_nll([s], [2]), [s])
    # three vectors of different lengths, the first passed twice
    a, b, c = (nm.parameter(rng.normal(size=n)) for n in (4, 7, 2))
    check_grads(lambda: nm.mean_nll([a, b, c, a], [3, 0, 1, 1]), [a, b, c])


def test_mean_nll_rejects_bad_inputs():
    s = nm.parameter(np.zeros(6))
    with pytest.raises(ValueError, match="one gold per score vector"):
        nm.mean_nll([], [])
    with pytest.raises(ValueError, match="one gold per score vector"):
        nm.mean_nll([s, s], [0])
    with pytest.raises(IndexError):
        nm.mean_nll([s, s], [0, 6])
    with pytest.raises(IndexError):
        nm.mean_nll([s], [-1])
    for bad in (np.zeros(0), np.zeros((2, 3)), np.zeros(())):
        with pytest.raises(nm.ShapeError):
            nm.mean_nll([s, nm.tensor(bad)], [0, 0])
    for gold in (1.7, True, "1", np.True_, [1]):  # each was cast with int() to gold 1
        with pytest.raises(IndexError, match="is not an int"):
            nm.mean_nll([s], [gold])


def test_mean_nll_is_the_chain_of_per_example_nodes_bit_for_bit():
    # the one node gives the bits of the mean it replaced: B one-vector
    # losses added left to right and scaled by 1/B, loss and gradients,
    # also for a vector that appears three times
    rng = np.random.default_rng(16)
    vectors = [nm.parameter(rng.normal(scale=4.0, size=n)) for n in (5, 9, 1, 3)]
    scores = vectors + [vectors[1], vectors[3], vectors[1]]
    golds = [4, 2, 0, 1, 8, 0, 5]

    def run(build):
        for v in vectors:
            v.grad = None
        with nm.Tape() as tape:
            loss = build()
            tape.backward(loss)
        return loss.data.tobytes(), [v.grad.tobytes() for v in vectors]

    fused = run(lambda: nm.mean_nll(scores, golds))
    chain = run(lambda: nm.scale(
        reduce(nm.add, [nm.mean_nll([s], [g]) for s, g in zip(scores, golds)]), 1.0 / len(scores)
    ))
    assert fused == chain


def test_row_grads():
    # an int index selects one row of a matrix, as a vector
    rng = np.random.default_rng(9)
    a = nm.parameter(rng.normal(size=(4, 3)))
    assert np.array_equal(nm.gather_rows(a, 2).data, a.data[2])
    check_grads(lambda: total(nm.gather_rows(a, 2)), [a])
    with pytest.raises(IndexError):
        nm.gather_rows(a, 4)


def test_row_of_a_stack_accumulates_in_place():
    rng = np.random.default_rng(11)
    a = nm.parameter(rng.normal(size=(3, 2, 4)))
    check_grads(
        lambda: nm.add(total(nm.gather_rows(a, 0)), total(nm.gather_rows(a, (2, 1)))), [a]
    )
    a.grad = None
    w = rng.normal(size=(2, 4))
    with nm.Tape() as tape:
        first = total(mul(nm.gather_rows(a, 1), nm.tensor(w)))
        tape.backward(nm.add(first, total(nm.gather_rows(a, 1))))
    # the first contribution allocates the gradient, the second adds in place
    grad = a.grad
    assert np.array_equal(grad[1], w + 1.0)
    assert np.array_equal(grad[[0, 2]], np.zeros((2, 2, 4)))
    with nm.Tape() as tape:
        tape.backward(total(nm.gather_rows(a, (0, 1))))
    assert a.grad is grad
    assert np.array_equal(grad[0], [np.zeros(4), np.ones(4)])
    with pytest.raises(nm.ShapeError):  # no axis left whole
        nm.gather_rows(nm.tensor(np.zeros(3)), 0)
    with pytest.raises(nm.ShapeError):
        nm.gather_rows(a, (0, 1, 2))


def test_gather_rows_grad_with_repeats():
    rng = np.random.default_rng(10)
    a = nm.parameter(rng.normal(size=(4, 3)))
    # row 1 selected twice: its gradient must be the sum of both paths
    check_grads(lambda: total(nm.gather_rows(a, [1, 1, 3])), [a])
    a.grad = None
    with nm.Tape() as tape:
        loss = total(nm.gather_rows(a, [1, 1, 3]))
        tape.backward(loss)
    assert np.allclose(a.grad[1], 2.0)
    assert np.allclose(a.grad[3], 1.0)
    assert np.allclose(a.grad[0], 0.0)


def test_gather_rows_reads_rows_of_one_example_of_a_stack():
    # (b, rows) reads rows of example b straight from a (B, T, d) block,
    # bit for bit the rows of that example's own matrix, forward and back
    rng = np.random.default_rng(14)
    a = nm.parameter(rng.normal(size=(3, 5, 2)))
    rows = [4, 0, 4, 2]
    g = rng.normal(size=(4, 2))
    assert np.array_equal(nm.gather_rows(a, (1, rows)).data, a.data[1][rows])
    check_grads(lambda: total(mul(nm.gather_rows(a, (1, rows)), nm.tensor(g))), [a])
    alone = nm.parameter(a.data[1].copy())
    for t in (a, alone):
        t.grad = None
        with nm.Tape() as tape:
            picked = nm.gather_rows(t, (1, rows)) if t is a else nm.gather_rows(t, rows)
            tape.backward(total(mul(picked, nm.tensor(g))))
    assert np.array_equal(a.grad[1], alone.grad)
    assert np.array_equal(a.grad[[0, 2]], np.zeros((2, 5, 2)))


def test_gather_rows_bounds():
    a = nm.parameter(np.zeros((2, 2)))
    with pytest.raises(IndexError):
        nm.gather_rows(a, [0, 2])
    with pytest.raises(IndexError):
        nm.gather_rows(a, [-1])
    s = nm.parameter(np.zeros((2, 3, 2)))
    with pytest.raises(IndexError):
        nm.gather_rows(s, (2, [0]))
    with pytest.raises(IndexError):
        nm.gather_rows(s, (1, [0, 3]))
    assert nm.gather_rows(s, (1, [])).shape == (0, 2)
    # one form only: leading ints, then one int or one 1-D sequence
    with pytest.raises(IndexError, match="not leading ints"):
        nm.gather_rows(a, [[0, 1], [1, 0]])  # a 2-D index array
    with pytest.raises(IndexError, match="not leading ints"):
        nm.gather_rows(s, ([0, 1], [2, 0]))  # an index array on a leading axis
    with pytest.raises(IndexError, match="not leading ints"):
        nm.gather_rows(s, (0.0, 1))  # a leading part that is not an int
    assert np.array_equal(nm.gather_rows(s, (np.int64(1), np.array([2]))).data, s.data[1, [2]])


def test_row_indices_must_be_integers():
    # a float or a bool index is not rounded, cast or read as a mask: a
    # row list of 1.5 read row 1, and [True, False] read rows 1 and 0
    a = nm.parameter(np.arange(6.0).reshape(3, 2))
    s = nm.parameter(np.zeros((2, 3, 2)))
    for index in ([1.5], [True, False], 1.5, True, np.array([1.0]), (s, (True, [0]))):
        operand, index = index if isinstance(index, tuple) else (a, index)
        with pytest.raises(IndexError, match="not leading ints"):
            nm.gather_rows(operand, index)
        with pytest.raises(IndexError, match="not leading ints"):
            nm.gather_pair(operand, index, operand, index)
    # an empty row list, whatever numpy makes of it, and unsigned ints stay legal
    assert nm.gather_rows(a, []).shape == (0, 2)
    assert nm.gather_rows(a, np.array([], dtype=float)).shape == (0, 2)
    assert np.array_equal(nm.gather_rows(a, np.array([2, 0], dtype=np.uint8)).data, a.data[[2, 0]])


def test_a_bool_among_int_rows_is_not_an_int():
    # numpy makes [True, 2] an int64 array, so its dtype passed: the rows
    # read were 1 and 2
    a = nm.parameter(np.arange(6.0).reshape(3, 2))
    for index in ([True, 2], [np.True_, 2], [2, False], (np.True_, [0])):
        operand = nm.parameter(np.zeros((2, 3, 2))) if isinstance(index, tuple) else a
        with pytest.raises(IndexError, match="not leading ints"):
            nm.gather_rows(operand, index)
        with pytest.raises(IndexError, match="not leading ints"):
            nm.gather_pair(operand, index, operand, index)
    assert np.array_equal(nm.gather_rows(a, [np.int32(1), 2]).data, a.data[[1, 2]])


# count-list entries: the ints of _COUNT_INTS, then bools, numpy bools,
# floats and strs
_COUNT_INTS = st.one_of(
    st.integers(-1, 5), st.integers(-1, 5).map(np.int32), st.integers(0, 5).map(np.uint8)
)
_COUNT_ENTRIES = st.one_of(
    _COUNT_INTS,
    st.booleans(),
    st.booleans().map(np.bool_),
    st.floats(-1, 5),
    st.sampled_from(["1", "x"]),
)
_COUNT_ARRAYS = st.sampled_from(
    [(np.int64, st.integers(-1, 5)), (np.uint8, st.integers(0, 5)), (np.bool_, st.booleans()),
     (np.float64, st.floats(-1, 5))]
).flatmap(lambda kind: hnp.arrays(kind[0], hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                             max_side=4), elements=kind[1]))


@settings(max_examples=300, deadline=None)
@given(
    values=st.one_of(st.lists(_COUNT_INTS, max_size=4), st.lists(_COUNT_ENTRIES, max_size=4), _COUNT_ARRAYS),
    extra=st.sampled_from([0, 0, 1]),
)
def test_row_counts_take_exactly_one_dimensional_int_sequences_in_range(values, extra):
    # n is mostly the number of entries, so that in-range int inputs occur
    high, n = 4, int(np.size(values)) + extra
    if isinstance(values, list):
        ints = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)
        ok = ints and len(values) == n
    else:
        ok = values.ndim == 1 and values.dtype.kind in "iu" and values.shape == (n,)
    ok = ok and n > 0 and all(1 <= v <= high for v in values)
    if ok:
        got = nm.row_counts(values, n, high, "counts")
        assert got.dtype == np.intp
        assert np.array_equal(got, np.asarray(values).astype(np.intp))
    else:
        with pytest.raises(nm.ShapeError, match="(?s)^counts .* are not ints"):
            nm.row_counts(values, n, high, "counts")


def test_row_counts_take_none_or_one_int_for_every_example():
    assert nm.row_counts(None, 3, 4, "counts").tolist() == [4, 4, 4]
    for one in (2, np.int8(2), np.uint64(2)):
        got = nm.row_counts(one, 3, 4, "counts")
        assert got.dtype == np.intp and got.tolist() == [2, 2, 2]
    for bad in (True, np.True_, 2.0, "2", 0, 5, np.array(2), None):
        with pytest.raises(nm.ShapeError, match="^lengths .* are not ints in 1..4 for a batch of"):
            nm.row_counts(bad, 0 if bad is None else 3, 4, "lengths")


# each settings dataclass, with the fields a valid instance needs
_SETTINGS = {
    ModelConfig: dict(hidden_size=3, embedding_dim=2, pos_tags=("A", "B"), ne_tags=("O",)),
    TrainConfig: {},
    SyntheticSpec: {},
}
_SETTING_FIELDS = [
    (cls, name, kind) for cls in _SETTINGS for name, kind in typing.get_type_hints(cls).items()
]
_NOT_OF_TYPE = {  # declared type -> values of other types
    int: st.one_of(st.booleans(), st.just(np.True_), st.floats(), st.text(max_size=2), st.none()),
    float: st.one_of(
        st.booleans(), st.text(max_size=2), st.none(),
        st.sampled_from([10**400, -(10**400), float("nan"), float("inf"), -float("inf")]),
    ),
    bool: st.one_of(st.integers(0, 1), st.just(np.True_), st.text(max_size=2), st.none()),
    str: st.one_of(st.integers(), st.booleans(), st.binary(max_size=2), st.none()),
    tuple[str, ...]: st.one_of(
        st.lists(st.sampled_from(["A", "O"]), max_size=2), st.tuples(st.integers()), st.just("A"),
    ),
    tuple[int, int]: st.one_of(
        st.lists(st.integers(1, 9), min_size=2, max_size=2),
        st.tuples(st.floats(1, 9), st.floats(1, 9)),
        st.tuples(st.booleans(), st.integers(1, 9)),
        st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
    ),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from(_SETTING_FIELDS))
def test_every_settings_field_refuses_a_value_of_another_type(data, field):
    # ModelConfig took normalize_attention="no" as True and hidden_size=2.5,
    # SyntheticSpec seed=True, and TrainConfig learning_rate=10**400 raised
    # OverflowError
    cls, name, kind = field
    bad = data.draw(_NOT_OF_TYPE[kind], label=name)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**dict(_SETTINGS[cls], **{name: bad}))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), field=st.sampled_from(_SETTING_FIELDS))
def test_every_settings_field_takes_its_canonical_values(data, field):
    cls, name, kind = field
    value = _SETTINGS[cls].get(name, cls.__dataclass_fields__[name].default)
    forms = [value]  # values equal to it that the field takes as they are
    if kind is int:
        forms += [np.int64(value), np.uint16(value)]
    elif kind is float:
        forms += [np.float64(value)] + ([round(value)] if value == round(value) else [])
    form = data.draw(st.sampled_from(forms), label=name)
    assert getattr(cls(**dict(_SETTINGS[cls], **{name: form})), name) == value


def _pair_operands(stack):
    rng = np.random.default_rng(15)
    lead = (2, 5) if stack else (5,)
    return nm.parameter(rng.normal(size=lead + (3,))), nm.parameter(rng.normal(size=lead + (2,)))


@pytest.mark.parametrize(
    "a_index, b_index",
    [
        ([1, 1, 3, 0], [2, 3, 3, 1]),  # rows of two matrices, repeats on both sides
        (2, 0),  # one int row of each: a vector
        ((1, [4, 0, 4]), (1, [2, 2, 3])),  # rows of example 1 of two (B, T, d) stacks
        ((0, 4), (0, 0)),  # int rows of a stack
    ],
)
@pytest.mark.parametrize("same", [False, True], ids=["two_blocks", "one_block"])
def test_gather_pair_is_concat_of_gather_rows_bit_for_bit(a_index, b_index, same):
    # the same values, and the same gradient adds in the same order, as the
    # three nodes it replaces; with one block on both sides the order shows
    a, b = _pair_operands(isinstance(a_index, tuple))
    if same:
        b = a
    results = []
    for fused in (True, False):
        a.grad = b.grad = None
        with nm.Tape() as tape:
            if fused:
                pair = nm.gather_pair(a, a_index, b, b_index)
            else:
                pair = nm.concat(nm.gather_rows(a, a_index), nm.gather_rows(b, b_index))
            w = np.random.default_rng(16).normal(size=pair.shape)
            tape.backward(total(mul(pair, nm.tensor(w))))
        results.append((pair.data, a.grad.copy(), b.grad.copy()))
    (pair, da, db), (ref, ref_da, ref_db) = results
    assert pair.shape == ref.shape
    assert np.array_equal(pair, ref)
    assert np.array_equal(da, ref_da) and np.array_equal(db, ref_db)
    check_grads(lambda: total(mul(nm.gather_pair(a, a_index, b, b_index), nm.tensor(w))), [a])


def test_gather_pair_over_several_slices_is_concat_of_gather_rows():
    n = 2 * nm.GATHER_SLICE + 7
    rng = np.random.default_rng(17)
    a, b = nm.tensor(rng.normal(size=(3, n, 3))), nm.tensor(rng.normal(size=(3, n, 2)))
    rows, other = rng.integers(0, n, size=n), rng.integers(0, n, size=n)
    cases = [
        ((1, rows), (0, other)),  # rows of one example of each stack
        (1, 2),  # one int per side: every position of an example
        (rows % 3, other % 3),  # whole examples, repeats included
    ]
    for a_idx, b_idx in cases:
        pair = nm.gather_pair(a, a_idx, b, b_idx)
        ref = nm.concat(nm.gather_rows(a, a_idx), nm.gather_rows(b, b_idx))
        assert pair.shape == ref.shape and np.array_equal(pair.data, ref.data)


def test_gather_pair_holds_one_slice_beyond_its_output():
    # chunk rows are gathered a slice at a time, so a 2,955-candidate block
    # needs no whole-size copy of its wider side first
    rng = np.random.default_rng(18)
    n = 3 * nm.GATHER_SLICE + 7
    a, b = nm.tensor(rng.normal(size=(2, 400, 48))), nm.tensor(rng.normal(size=(2, 400, 32)))
    starts, ends = rng.integers(0, 400, size=n), rng.integers(0, 400, size=n)
    tracemalloc.start()
    try:
        pair = nm.gather_pair(a, (1, starts), b, (1, ends))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair.shape == (n, 80)
    one_slice = nm.GATHER_SLICE * 48 * 8
    assert peak - pair.data.nbytes <= one_slice + 16384, f"{peak - pair.data.nbytes} B beyond the block"


def test_gather_pair_bounds_and_shapes():
    a, b = _pair_operands(stack=True)
    with pytest.raises(IndexError):
        nm.gather_pair(a, (0, [1, 5]), b, (0, [1, 2]))
    with pytest.raises(IndexError):
        nm.gather_pair(a, (0, [1, 2]), b, (2, [1, 2]))
    with pytest.raises(IndexError):
        nm.gather_pair(a, (0, -1), b, (0, 0))
    with pytest.raises(nm.ShapeError):  # three rows against two
        nm.gather_pair(a, (0, [1, 2, 3]), b, (0, [1, 2]))
    with pytest.raises(nm.ShapeError):  # no axis left whole
        nm.gather_pair(a, (0, 1, 2), b, (0, 1))
    with pytest.raises(IndexError, match="not leading ints"):
        nm.gather_pair(a, ([0, 1], [1, 2]), b, (0, [1, 2]))
    with pytest.raises(IndexError, match="not leading ints"):
        nm.gather_pair(a, (0, [1, 2]), b, (0, [[1, 2]]))
    assert nm.gather_pair(a, (1, []), b, (1, [])).shape == (0, 5)


def test_accumulate_keeps_an_owned_gradient_and_copies_the_rest():
    t = nm.parameter(np.zeros((2, 3)))
    g = np.arange(6.0).reshape(2, 3)
    nm.accumulate(t, g, owned=True)
    assert t.grad is g  # handed over, not copied
    nm.accumulate(t, g)
    assert t.grad is g and np.array_equal(g, 2 * np.arange(6.0).reshape(2, 3))
    u = nm.parameter(np.zeros((2, 2)))
    view = g[:, :2]
    nm.accumulate(u, view)  # a view is copied
    assert not np.shares_memory(u.grad, g)
    s = nm.parameter(np.zeros(()))
    nm.accumulate(s, np.float64(2.0), owned=True)  # a numpy scalar is wrapped
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 2.0
    c = nm.tensor(np.zeros(3))
    nm.accumulate(c, np.ones(3), owned=True)  # a constant takes no gradient
    assert c.grad is None


def test_scale_total_broadcast_grads():
    rng = np.random.default_rng(13)
    a = nm.parameter(rng.normal(size=(3, 2)))
    check_grads(lambda: total(nm.scale(a, -2.5)), [a])


def test_dropout_inference_is_identity():
    a = nm.tensor(np.ones((3, 3)))
    rng = nm.SeededRng(0)
    out = nm.dropout(a, 0.5, rng, training=False)
    assert out is a
    out = nm.dropout(a, 0.0, rng, training=True)
    assert out is a


def test_dropout_training_masks_and_rescales():
    a = nm.tensor(np.ones(10000))
    rng = nm.SeededRng(42)
    out = nm.dropout(a, 0.2, rng, training=True)
    vals = np.unique(out.data)
    assert set(np.round(vals, 10)) <= {0.0, round(1.0 / 0.8, 10)}
    # surviving mass stays near the input mean
    assert out.data.mean() == pytest.approx(1.0, abs=0.05)


def test_dropout_grad_through_mask():
    base = np.random.default_rng(14).normal(size=20)
    a = nm.parameter(base)

    def build():
        # fresh rng each call so the mask is identical across fd evaluations
        return total(nm.dropout(a, 0.3, nm.SeededRng(7), training=True))

    check_grads(build, [a])


def test_dropout_rejects_bad_rate():
    a = nm.tensor(np.ones(3))
    rng = nm.SeededRng(0)
    with pytest.raises(ValueError):
        nm.dropout(a, 1.0, rng, training=True)
    with pytest.raises(ValueError):
        nm.dropout(a, -0.1, rng, training=True)


# ---------------------------------------------------------------------------
# tape semantics


def test_fanout_accumulates_both_paths():
    a = nm.parameter(np.array([3.0]))
    with nm.Tape() as tape:
        # loss = a*a, via two uses of the same tensor
        loss = total(mul(a, a))
        tape.backward(loss)
    assert a.grad[0] == pytest.approx(6.0)


def test_no_tape_records_nothing():
    a = nm.parameter(np.ones((2, 2)))
    out = mul(a, a)
    assert out.requires_grad is False
    with nm.Tape() as tape:
        mul(a, a)
        assert len(tape) == 1
    out2 = mul(a, a)  # tape closed again
    assert out2.requires_grad is False


def test_constants_do_not_record():
    a = nm.tensor(np.ones(3))
    b = nm.tensor(np.ones(3))
    with nm.Tape() as tape:
        nm.add(a, b)
        assert len(tape) == 0


def test_backward_requires_scalar_loss():
    a = nm.parameter(np.ones(3))
    with nm.Tape() as tape:
        out = mul(a, a)
        with pytest.raises(nm.ShapeError):
            tape.backward(out)


def test_tape_single_replay():
    a = nm.parameter(np.array([2.0]))
    with nm.Tape() as tape:
        loss = total(mul(a, a))
        tape.backward(loss)
        with pytest.raises(RuntimeError):
            tape.backward(loss)


def test_nested_tapes_are_independent():
    a = nm.parameter(np.array([2.0]))
    with nm.Tape() as outer:
        mul(a, a)
        with nm.Tape() as inner:
            mul(a, a)
            assert len(inner) == 1
        assert len(outer) == 1


def test_unreached_nodes_get_no_gradient():
    a = nm.parameter(np.array([1.0]))
    b = nm.parameter(np.array([1.0]))
    with nm.Tape() as tape:
        mul(b, b)  # recorded but not connected to the loss
        loss = total(mul(a, a))
        tape.backward(loss)
    assert b.grad is None
    assert a.grad is not None


def test_backward_determinism_bitwise():
    def run():
        rng = np.random.default_rng(99)
        a = nm.parameter(rng.normal(size=(6, 6)))
        b = nm.parameter(rng.normal(size=(6, 6)))
        with nm.Tape() as tape:
            h = tanh(nm.matmul(a, b))
            h = mul(h, sigmoid(nm.matmul(b, a)))
            loss = total(h)
            tape.backward(loss)
        return a.grad.tobytes(), b.grad.tobytes()

    assert run() == run()


def test_threads_record_on_their_own_tapes():
    # four threads (more than the cores of a small box), each inside its own
    # tape, stepped in lockstep by a barrier so every op of one thread lands
    # between ops of the others; a short switch interval adds preemption
    # inside the steps. Each tape must hold exactly its own thread's nodes
    # and every gradient must come out exact.
    inputs = {
        "a": np.array([1.0, -2.0, 0.5]),
        "b": np.array([4.0, 0.25]),
        "c": np.array([-8.0]),
        "d": np.array([0.125, 3.0, -1.0, 2.0]),
    }
    barrier = threading.Barrier(len(inputs), timeout=30)
    results = {}
    errors = []

    def worker(name, values):
        try:
            w = nm.parameter(values)
            with nm.Tape() as tape:
                barrier.wait()
                sq = mul(w, w)
                barrier.wait()
                loss = total(nm.scale(sq, 3.0))
                barrier.wait()
                tape.backward(loss)
                barrier.wait()
            results[name] = (len(tape), w.grad)
        except BaseException as exc:  # reported by the main thread
            errors.append((name, exc))
            barrier.abort()

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=item) for item in inputs.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for name, values in inputs.items():
        n_nodes, grad = results[name]
        assert n_nodes == 3  # mul, scale, total
        assert grad is not None and np.array_equal(grad, 6.0 * values)


# ---------------------------------------------------------------------------
# rng determinism


def test_seeded_rng_reproducible():
    r1 = nm.SeededRng(123)
    r2 = nm.SeededRng(123)
    assert np.array_equal(r1.uniform(-1, 1, 50), r2.uniform(-1, 1, 50))
    assert np.array_equal(r1.permutation(20), r2.permutation(20))
    assert np.array_equal(r1.random(5), r2.random(5))


def test_seeded_rng_takes_one_int_seed():
    # 1.5 and True drew seed 1's stream, and "3" seed 3's
    for bad in (1.5, True, np.True_, "3", [3]):
        with pytest.raises(ValueError, match="^seed must be an int, got "):
            nm.SeededRng(bad)
    assert type(nm.SeededRng(np.int64(3)).seed) is int
    assert np.array_equal(nm.SeededRng(np.int64(3)).random(4), nm.SeededRng(3).random(4))


def test_seeded_rng_seed_sensitivity():
    assert not np.array_equal(
        nm.SeededRng(1).uniform(-1, 1, 50), nm.SeededRng(2).uniform(-1, 1, 50)
    )


# ---------------------------------------------------------------------------
# property tests: gradient correctness on random graphs


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    rows=st.integers(1, 4),
    inner=st.integers(1, 4),
    cols=st.integers(1, 4),
)
def test_property_random_affine_chain_grads(seed, rows, inner, cols):
    # checked against the closed form, not central differences: on a
    # coordinate near 1e-5 the difference quotient's truncation error alone
    # can exceed 1e-6 relative (seed 28, shapes (4, 4, 2))
    rng = np.random.default_rng(seed)
    w = nm.parameter(rng.normal(scale=0.4, size=(rows, inner)))
    u = nm.parameter(rng.normal(scale=0.4, size=(inner, cols)))
    with nm.Tape() as tape:
        tape.backward(total(tanh(nm.matmul(w, u))))
    dz = 1.0 - np.tanh(w.data @ u.data) ** 2
    np.testing.assert_allclose(w.grad, dz @ u.data.T, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(u.grad, w.data.T @ dz, rtol=1e-12, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
def test_property_softmax_simplex(seed, n):
    rng = np.random.default_rng(seed)
    y = nm.softmax(rng.normal(scale=5.0, size=n))
    assert y.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(y >= 0)
