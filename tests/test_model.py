"""Attention fusion, chunk scoring, loss, prediction, and differentiability."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkreader import model as M, numerics as nm
from chunkreader.chunker import CandidateChunk, PosPatternTrie, build_pos_trie, enumerate_candidates
from chunkreader.corpus import DataError, Featurizer
from chunkreader.synthetic import NE_TAGS, POS_TAGS, SyntheticSpec, generate
from helpers import make_example, toy_embedding_table
from reference_ops import mul, total


def seed_params(model, seed=0):
    """Fill parameters at +-1/sqrt(fan_in); the training-scale 0.01 init is
    too close to zero for reliable finite-difference ratios."""
    rng = np.random.default_rng(seed)
    for p in model.parameters().values():
        bound = 1.0 / np.sqrt(p.data.shape[0])
        p.data[...] = rng.uniform(-bound, bound, size=p.data.shape)
    return model


def toy_config(d=3, emb=2, **kw):
    return M.ModelConfig(hidden_size=d, embedding_dim=emb, pos_tags=("A", "B"), ne_tags=("O",), **kw)


def toy_model(d=3, emb=2, seed=0, **kw):
    return seed_params(M.ChunkReaderModel(toy_config(d, emb, **kw)), seed)


def random_states(rng, rows, width):
    return nm.tensor(rng.normal(size=(rows, width)))


# ---------------------------------------------------------------------------
# attend


def test_attend_orthogonal_question_gives_zero_summary():
    hp = nm.tensor(np.array([[1.0, 0.0, 0.0, 0.0]]))
    hq = nm.tensor(np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]))
    v = M.attend(hp, hq)
    assert v.shape == (1, 8)
    assert np.array_equal(v.data[0, :4], hp.data[0])
    assert np.array_equal(v.data[0, 4:], np.zeros(4))


def test_attend_unit_self_match_recovers_question_state():
    q = np.array([0.6, 0.8, 0.0, 0.0])  # unit norm
    v = M.attend(nm.tensor(q[None, :]), nm.tensor(q[None, :]))
    assert np.allclose(v.data[0, 4:], q)


def test_attend_is_unnormalized_by_default():
    # doubling the question states must quadruple the summary (weight and
    # pooled state both scale), which a softmax would destroy
    rng = np.random.default_rng(0)
    hp = random_states(rng, 2, 4)
    hq = rng.normal(size=(3, 4))
    v1 = M.attend(hp, nm.tensor(hq))
    v2 = M.attend(hp, nm.tensor(2.0 * hq))
    assert np.allclose(v2.data[:, 4:], 4.0 * v1.data[:, 4:])


def test_attend_normalized_rows_pool_convexly():
    rng = np.random.default_rng(1)
    hp = random_states(rng, 3, 4)
    hq = random_states(rng, 2, 4)
    v = M.attend(hp, hq, normalize=True)
    # each summary must lie inside the segment spanned by the two question
    # states: coordinates bounded by the min/max of the endpoints
    lo = hq.data.min(axis=0) - 1e-12
    hi = hq.data.max(axis=0) + 1e-12
    assert np.all(v.data[:, 4:] >= lo) and np.all(v.data[:, 4:] <= hi)


def test_attend_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    hp = nm.parameter(rng.normal(size=(3, 4)))
    hq = nm.parameter(rng.normal(size=(2, 4)))

    def build():
        return total(M.attend(hp, hq))

    assert max(nm.finite_difference_errors(build, [hp, hq], 1e-6)) < 1e-5


def test_attend_normalized_gradients():
    rng = np.random.default_rng(3)
    hp = nm.parameter(rng.normal(size=(3, 4)))
    hq = nm.parameter(rng.normal(size=(2, 4)))

    def build():
        return total(M.attend(hp, hq, normalize=True))

    assert max(nm.finite_difference_errors(build, [hp, hq], 1e-6)) < 1e-5


def test_attend_shape_errors():
    with pytest.raises(nm.ShapeError):
        M.attend(nm.tensor(np.zeros((2, 4))), nm.tensor(np.zeros((2, 6))))
    with pytest.raises(nm.ShapeError):
        M.attend(nm.tensor(np.zeros((0, 4))), nm.tensor(np.zeros((2, 4))))
    with pytest.raises(nm.ShapeError):  # a matrix and a vector
        M.attend(nm.tensor(np.zeros((2, 4))), nm.tensor(np.zeros(4)))


def attend_with_grads(P, Q, w, normalize, **lens):
    """Recorded attend of P and Q under the loss sum(out * w): the output
    and the gradients of P and Q."""
    p, q = nm.parameter(P), nm.parameter(Q)
    with nm.Tape() as tape:
        out = M.attend(p, q, normalize, **lens)
        tape.backward(total(mul(out, nm.tensor(w))))
    assert len(tape) == 3  # the attention is one node: attend, mul, total
    return out.data, p.grad, q.grad


@pytest.mark.parametrize("normalize", [False, True])
def test_attend_on_a_stack_is_each_example_alone(normalize):
    # values and gradients of a stack are, bit for bit, those of the 2-D
    # call of each example
    rng = np.random.default_rng(4)
    P, Q = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 2, 4))
    w = rng.normal(size=(3, 5, 8))
    out, dP, dQ = attend_with_grads(P, Q, w, normalize)
    for b in range(3):
        alone = attend_with_grads(P[b], Q[b], w[b], normalize)
        for got, want in zip((out[b], dP[b], dQ[b]), alone):
            assert np.array_equal(got, want)
    with pytest.raises(nm.ShapeError):  # stacks of different depth
        M.attend(nm.tensor(P), nm.tensor(Q[:2]))
    with pytest.raises(nm.ShapeError):  # a stack and a matrix
        M.attend(nm.tensor(P), nm.tensor(Q[0]))


@pytest.mark.parametrize("normalize", [False, True])
def test_recorded_attend_over_mixed_lengths_is_each_example_on_its_real_rows(normalize):
    # padding changes neither an example's values nor its gradients, and
    # padded output rows and padded-row gradients are zero
    rng = np.random.default_rng(5)
    plens, qlens = [5, 2, 4], [1, 3, 2]
    P, Q = np.zeros((3, 5, 4)), np.zeros((3, 3, 4))
    for b, (n, k) in enumerate(zip(plens, qlens)):
        P[b, :n], Q[b, :k] = rng.normal(size=(n, 4)), rng.normal(size=(k, 4))
    w = rng.normal(size=(3, 5, 8))
    out, dP, dQ = attend_with_grads(P, Q, w, normalize, passage_lens=plens, question_lens=qlens)
    for b, (n, k) in enumerate(zip(plens, qlens)):
        alone = attend_with_grads(P[b, :n], Q[b, :k], w[b, :n], normalize)
        for got, want in zip((out[b, :n], dP[b, :n], dQ[b, :k]), alone):
            assert np.array_equal(got, want)
        assert not out[b, n:].any() and not dP[b, n:].any() and not dQ[b, k:].any()


def test_attend_question_lens_match_the_truncated_question():
    # normalized weights over question rows past question_lens would give
    # padding mass; the rows are left out instead
    rng = np.random.default_rng(18)
    P, Q = rng.normal(size=(4, 6)), rng.normal(size=(5, 6))
    w = rng.normal(size=(4, 12))
    out, dP, dQ = attend_with_grads(P, Q, w, True, question_lens=3)
    want = attend_with_grads(P, Q[:3], w, True)
    for got, kept in zip((out, dP, dQ[:3]), want):
        assert np.array_equal(got, kept)
    assert not dQ[3:].any()


def test_attend_normalized_padded_stack_gradients():
    rng = np.random.default_rng(16)
    hp = nm.parameter(rng.normal(size=(2, 4, 3)))
    hq = nm.parameter(rng.normal(size=(2, 3, 3)))
    w = nm.tensor(rng.normal(size=(2, 4, 6)))

    def build():
        return total(mul(M.attend(hp, hq, True, passage_lens=[4, 2], question_lens=[1, 3]), w))

    assert max(nm.finite_difference_errors(build, [hp, hq], 1e-6)) < 1e-5


def test_attend_rejects_lengths_outside_the_rows():
    # a question length of 0 would leave a passage row nothing to attend to
    P, Q = nm.tensor(np.ones((2, 4, 3))), nm.tensor(np.ones((2, 3, 3)))
    for lens in (
        {"question_lens": [0, 3]},
        {"question_lens": 4},
        {"passage_lens": [1, 5]},
        {"passage_lens": -1},
        {"passage_lens": [2]},
    ):
        with pytest.raises(ValueError):
            M.attend(P, Q, True, **lens)
    with pytest.raises(ValueError):
        M.attend(nm.tensor(np.ones((4, 3))), nm.tensor(np.ones((3, 3))), question_lens=0)


def test_attend_rejects_lengths_that_are_not_ints():
    # a count of 2.5 attended over 2 rows, and True over 1
    P, Q = nm.tensor(np.ones((2, 4, 3))), nm.tensor(np.ones((2, 3, 3)))
    for lens in (
        {"passage_lens": [2.5, 4]},
        {"passage_lens": 2.0},
        {"question_lens": [True, True]},
        {"question_lens": np.array([1.0, 3.0])},
    ):
        with pytest.raises(nm.ShapeError):
            M.attend(P, Q, True, **lens)
    out = M.attend(P, Q, True, passage_lens=np.array([2, 4], dtype=np.uint8), question_lens=[3, 1])
    assert np.array_equal(out.data[0, 2:], np.zeros((2, 6)))


# ---------------------------------------------------------------------------
# attention pass and chunk/question representations


def test_attention_pass_single_row():
    m = toy_model(d=3)
    fused = nm.tensor(np.random.default_rng(4).normal(size=(1, 12)))
    gf, gb, gc = m.attention_encoder.encode(fused)
    assert gf.shape == (1, 3) and gb.shape == (1, 3) and gc.shape == (1, 6)


def test_attention_pass_zero_weights_collapse():
    m = M.ChunkReaderModel(toy_config(d=3))  # unseeded: all weights zero
    fused = nm.tensor(np.random.default_rng(5).normal(size=(4, 12)))
    _, _, gc = m.attention_encoder.encode(fused)
    assert np.array_equal(gc.data, np.zeros((4, 6)))


def test_chunk_repr_single_and_full():
    rng = np.random.default_rng(6)
    F = nm.tensor(rng.normal(size=(5, 3)))
    B = nm.tensor(rng.normal(size=(5, 3)))
    reps = M.chunk_repr(F, B, [CandidateChunk(2, 2), CandidateChunk(1, 5)])
    assert reps.shape == (2, 6)
    assert np.array_equal(reps.data[0], np.concatenate([F.data[1], B.data[1]]))
    assert np.array_equal(reps.data[1], np.concatenate([F.data[0], B.data[4]]))


def test_chunk_repr_shared_start_differs_only_backward():
    rng = np.random.default_rng(7)
    F = nm.tensor(rng.normal(size=(5, 3)))
    B = nm.tensor(rng.normal(size=(5, 3)))
    a, b = M.chunk_repr(F, B, [CandidateChunk(2, 3), CandidateChunk(2, 5)]).data
    assert np.array_equal(a[:3], b[:3])
    assert not np.array_equal(a[3:], b[3:])


def test_chunk_repr_bounds():
    F = nm.tensor(np.zeros((3, 2)))
    B = nm.tensor(np.zeros((3, 2)))
    for bad in [(1, 4), (4, 4), (3, 5)]:
        with pytest.raises(IndexError):
            M.chunk_repr(F, B, [CandidateChunk(1, 1), CandidateChunk(*bad)])


def test_chunk_repr_locality():
    # the representation must read exactly the forward row at the start and
    # the backward row at the end; every other row is free to change
    rng = np.random.default_rng(8)
    F = rng.normal(size=(6, 3))
    B = rng.normal(size=(6, 3))
    chunk = [CandidateChunk(2, 5)]
    before = M.chunk_repr(nm.tensor(F), nm.tensor(B), chunk).data.copy()
    F2, B2 = F.copy(), B.copy()
    F2[2:5] = rng.normal(size=(3, 3))  # forward rows strictly after start
    B2[1:4] = rng.normal(size=(3, 3))  # backward rows strictly before end
    after = M.chunk_repr(nm.tensor(F2), nm.tensor(B2), chunk).data
    assert np.array_equal(before, after)


def test_question_repr_single_state():
    rng = np.random.default_rng(9)
    F = nm.tensor(rng.normal(size=(1, 3)))
    B = nm.tensor(rng.normal(size=(1, 3)))
    rep = M.question_repr(F, B)
    assert np.array_equal(rep.data, np.concatenate([F.data[0], B.data[0]]))
    assert rep.shape == (6,)


def test_question_repr_zero_input_extension_changes_only_forward_half():
    # a zero input from a zero state transitions to exactly zero, so the
    # backward stream entering the real tokens is unchanged by the pad
    from chunkreader.encoder import BiGruEncoder

    enc = BiGruEncoder(4, 3, "q")
    rng = np.random.default_rng(10)
    for p in enc.parameters().values():
        p.data[...] = rng.normal(scale=0.5, size=p.data.shape)
    Q = rng.normal(size=(4, 4))
    extended = np.vstack([Q, np.zeros((1, 4))])
    f1, b1, _ = enc.encode(nm.tensor(Q))
    f2, b2, _ = enc.encode(nm.tensor(extended))
    r1 = M.question_repr(f1, b1).data
    r2 = M.question_repr(f2, b2).data
    assert np.allclose(r1[3:], r2[3:], atol=1e-15)  # backward half identical
    assert not np.allclose(r1[:3], r2[:3])  # forward half moved


# ---------------------------------------------------------------------------
# scoring and loss


def test_score_identical_representations_split_evenly():
    rep = np.ones((2, 4))
    q = nm.tensor(np.array([1.0, -1.0, 0.5, 2.0]))
    scored = M.score_chunks(nm.tensor(rep), q, [CandidateChunk(1, 1), CandidateChunk(2, 2)])
    assert np.allclose(scored.probabilities.data, [0.5, 0.5])


def test_score_single_candidate_certain():
    scored = M.score_chunks(
        nm.tensor(np.ones((1, 4))), nm.tensor(np.ones(4)), [CandidateChunk(1, 2)]
    )
    assert np.allclose(scored.probabilities.data, [1.0])


def test_score_matches_direct_softmax():
    rng = np.random.default_rng(11)
    reps = rng.normal(size=(4, 6))
    q = rng.normal(size=6)
    cands = [CandidateChunk(i + 1, i + 1) for i in range(4)]
    scored = M.score_chunks(nm.tensor(reps), nm.tensor(q), cands)
    raw = reps @ q
    direct = np.exp(raw - raw.max())
    direct /= direct.sum()
    assert np.allclose(scored.probabilities.data, direct, atol=1e-12)


def test_score_empty_and_mismatch():
    with pytest.raises(ValueError):
        M.score_chunks(nm.tensor(np.zeros((0, 4))), nm.tensor(np.zeros(4)), [])
    with pytest.raises(ValueError):
        M.score_chunks(nm.tensor(np.zeros((2, 4))), nm.tensor(np.zeros(4)), [CandidateChunk(1, 1)])


def test_cosine_scoring_is_scale_invariant():
    rng = np.random.default_rng(12)
    reps = rng.normal(size=(3, 4))
    q = rng.normal(size=4)
    cands = [CandidateChunk(i + 1, i + 1) for i in range(3)]
    p1 = M.score_chunks(nm.tensor(reps), nm.tensor(q), cands, scoring="cosine")
    p2 = M.score_chunks(nm.tensor(5.0 * reps), nm.tensor(0.25 * q), cands, scoring="cosine")
    assert np.allclose(p1.probabilities.data, p2.probabilities.data, atol=1e-9)
    with pytest.raises(ValueError):
        M.score_chunks(nm.tensor(reps), nm.tensor(q), cands, scoring="euclid")


def test_cosine_scoring_gradients():
    rng = np.random.default_rng(13)
    reps = nm.parameter(rng.normal(size=(3, 4)))
    q = nm.parameter(rng.normal(size=4))
    cands = [CandidateChunk(i + 1, i + 1) for i in range(3)]

    def build():
        scored = M.score_chunks(reps, q, cands, scoring="cosine")
        return M.nll_loss(scored, CandidateChunk(2, 2))

    assert max(nm.finite_difference_errors(build, [reps, q], 1e-6)) < 1e-5


def test_cosine_scoring_matches_closed_form_with_zero_vectors():
    # per row a: s = a.q / (|a| |q|), ds/da = q / (|a| |q|) - (a.q) a / (|a|^3 |q|)
    # and ds/dq = a / (|a| |q|) - (a.q) q / (|a| |q|^3), with each squared
    # norm floored by 1e-12, so a zero row or a zero question stays finite
    rng = np.random.default_rng(15)
    reps = rng.normal(size=(4, 5))
    reps[2] = 0.0
    w = rng.normal(size=4)
    for q in (rng.normal(size=5), np.zeros(5)):
        R, Q = nm.parameter(reps), nm.parameter(q)
        with nm.Tape() as tape:
            scored = M.score_chunks(R, Q, [CandidateChunk(i + 1, i + 1) for i in range(4)], "cosine")
            tape.backward(nm.matmul(scored.scores, nm.tensor(w)))
        qn = np.sqrt(q @ q + 1e-12)
        dq = np.zeros(5)
        for i, a in enumerate(reps):
            an = np.sqrt(a @ a + 1e-12)
            dot = a @ q
            assert scored.scores.data[i] == pytest.approx(dot / (an * qn), rel=1e-12, abs=0.0)
            da = w[i] * (q / (an * qn) - dot * a / (an**3 * qn))
            np.testing.assert_allclose(R.grad[i], da, rtol=1e-12, atol=0.0)
            dq += w[i] * (a / (an * qn) - dot * q / (an * qn**3))
        np.testing.assert_allclose(Q.grad, dq, rtol=1e-12, atol=0.0)
        assert np.all(np.isfinite(R.grad)) and np.all(np.isfinite(Q.grad))


@pytest.mark.parametrize("scoring", ["dot", "cosine"])
def test_every_variant_records_a_length_independent_tape(scoring):
    # every scoring and attention variant is the same fixed set of tape
    # nodes: the attention, normalized or not, is one node, and so is cosine
    # scoring. forward is the batch-of-one call, whose chunk and question
    # rows are each gathered by one node straight from the batched state
    # blocks; the ranking softmax is computed only when probabilities are
    # read, so it is not on the tape. 13 = 3 + 3 shared-encoder passes, the
    # attention, 2 attention-encoder cells, chunk rows, question rows,
    # scores and the loss
    counts = {}
    for normalize in (False, True):
        m = toy_model(d=3, emb=2, seed=8, scoring=scoring, normalize_attention=normalize)
        width = m.config.input_width
        for T in (30, 60):
            rng = np.random.default_rng(T)
            cands = [CandidateChunk(i, i + 1) for i in range(1, T)]
            with nm.Tape() as tape:
                scored = m.forward(rng.normal(size=(T, width)), rng.normal(size=(5, width)), cands)
                tape.backward(M.nll_loss(scored, cands[3]))
            counts.setdefault(normalize, set()).add(len(tape))
    assert counts == {False: {13}, True: {13}}


def test_nll_singleton_is_zero():
    scored = M.score_chunks(
        nm.tensor(np.ones((1, 4))), nm.tensor(np.ones(4)), [CandidateChunk(3, 4)]
    )
    assert float(M.nll_loss(scored, CandidateChunk(3, 4)).data) == pytest.approx(0.0, abs=1e-15)


def test_nll_even_pair_is_ln2():
    scored = M.score_chunks(
        nm.tensor(np.ones((2, 4))),
        nm.tensor(np.ones(4)),
        [CandidateChunk(1, 1), CandidateChunk(2, 2)],
    )
    assert float(M.nll_loss(scored, CandidateChunk(1, 1)).data) == pytest.approx(np.log(2.0), abs=1e-12)


def test_nll_gold_missing_raises():
    scored = M.score_chunks(
        nm.tensor(np.ones((1, 4))), nm.tensor(np.ones(4)), [CandidateChunk(1, 1)]
    )
    with pytest.raises(LookupError):
        M.nll_loss(scored, CandidateChunk(2, 3))


def test_nll_finite_when_gold_probability_underflows():
    # softmax([800, 0])[1] underflows to 0, so -log(p) would be inf with
    # NaN gradients; computed from the scores it is 800 with finite ones
    reps = nm.parameter(np.array([[800.0], [0.0]]))
    cands = [CandidateChunk(1, 1), CandidateChunk(2, 2)]
    with nm.Tape() as tape:
        loss = M.nll_loss(M.score_chunks(reps, nm.tensor(np.ones(1)), cands), CandidateChunk(2, 2))
        tape.backward(loss)
    assert float(loss.data) == pytest.approx(800.0)
    assert np.array_equal(reps.grad, [[1.0], [-1.0]])


def test_nll_gradients_five_candidates():
    rng = np.random.default_rng(14)
    reps = nm.parameter(rng.normal(size=(5, 6)))
    q = nm.parameter(rng.normal(size=6))
    cands = [CandidateChunk(i + 1, i + 1) for i in range(5)]

    def build():
        return M.nll_loss(M.score_chunks(reps, q, cands), CandidateChunk(3, 3))

    assert max(nm.finite_difference_errors(build, [reps, q], 1e-6)) < 1e-4


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 12))
def test_property_probabilities_form_simplex(seed, n):
    rng = np.random.default_rng(seed)
    reps = nm.tensor(rng.normal(scale=3.0, size=(n, 4)))
    q = nm.tensor(rng.normal(scale=3.0, size=4))
    cands = [CandidateChunk(i + 1, i + 1) for i in range(n)]
    p = M.score_chunks(reps, q, cands).probabilities.data
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.all(p >= 0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), shift=st.floats(-30, 30))
def test_property_score_shift_invariance(seed, shift):
    rng = np.random.default_rng(seed)
    reps = rng.normal(size=(5, 4))
    q = rng.normal(size=4)
    cands = [CandidateChunk(i + 1, i + 1) for i in range(5)]
    base = M.score_chunks(nm.tensor(reps), nm.tensor(q), cands).probabilities.data
    # shifting every dot product by a constant: append a constant column
    reps_shifted = np.hstack([reps, np.full((5, 1), shift)])
    q_shifted = np.append(q, 1.0)
    moved = M.score_chunks(nm.tensor(reps_shifted), nm.tensor(q_shifted), cands).probabilities.data
    assert np.allclose(base, moved, atol=1e-9)


# ---------------------------------------------------------------------------
# scoreset invariants


def test_scoreset_validates_alignment_and_mass():
    cands = [CandidateChunk(1, 1), CandidateChunk(2, 2)]
    scored = M.ChunkScoreSet(cands, nm.tensor(np.log([0.25, 0.75])))
    assert np.allclose(scored.probabilities.data, [0.25, 0.75], rtol=0.0, atol=1e-15)
    with pytest.raises(ValueError):
        M.ChunkScoreSet([CandidateChunk(1, 1)], scored.scores)
    with pytest.raises(ValueError):
        M.ChunkScoreSet(cands, nm.tensor(np.zeros(3)))
    # a non-finite score (say, from a NaN weight) must not pass as a
    # simplex: NaN sums are not caught by comparing the sum with 1
    for bad in ([0.0, np.nan], [np.inf, 0.0], [np.inf, np.inf]):
        with pytest.raises(ValueError, match="not finite"), np.errstate(invalid="ignore"):
            M.ChunkScoreSet(cands, nm.tensor(np.array(bad))).probabilities


def test_probabilities_are_computed_on_read_and_never_taped():
    # training reads only the scores, so the softmax must cost it nothing
    m = toy_model(d=3, emb=2, seed=9)
    width = m.config.input_width
    rng = np.random.default_rng(10)
    cands = [CandidateChunk(i, i + 1) for i in range(1, 6)]
    with nm.Tape() as tape:
        scored = m.forward(rng.normal(size=(6, width)), rng.normal(size=(3, width)), cands)
        before = len(tape)
        probs = scored.probabilities
        assert len(tape) == before
    assert scored.probabilities is probs
    assert np.array_equal(probs.data, nm.softmax(scored.scores.data))


# ---------------------------------------------------------------------------
# full forward and predict


def example_fixture(seed=0):
    ex = make_example(
        "ex1",
        ["Alice", "met", "Bob", "today"],
        ["who", "met", "Bob"],
        [(1, 1)],
        pos=["A", "B", "A", "B"],
        ne=["O", "O", "O", "O"],
    )
    table = toy_embedding_table(["alice", "met", "bob", "today", "who"], dim=2, seed=seed)
    return ex, table


def test_forward_full_example_simplex_and_order():
    ex, table = example_fixture()
    m = toy_model(d=3, emb=2, seed=1)
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    cands = m.candidates_for(ex.passage)
    assert [(c.start, c.end) for c in cands] == sorted({(c.start, c.end) for c in cands})
    scored = m.forward(fz.passage_matrix(ex), fz.question_matrix(ex), cands)
    assert len(scored.candidates) == len(cands)
    assert abs(scored.probabilities.data.sum() - 1.0) <= 1e-9


def test_forward_rejects_candidate_beyond_length():
    ex, table = example_fixture()
    m = toy_model()
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    with pytest.raises(IndexError):
        m.forward(
            fz.passage_matrix(ex),
            fz.question_matrix(ex),
            [CandidateChunk(1, 3)],
            passage_len=2,
        )


def test_forward_padding_invariance():
    # zero-padding the feature blocks must not change the scores, with raw
    # and with normalized attention (training pads questions per batch)
    ex, table = example_fixture()
    for normalize in (False, True):
        m = toy_model(seed=2, normalize_attention=normalize)
        fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
        P = fz.passage_matrix(ex)
        Q = fz.question_matrix(ex)
        cands = m.candidates_for(ex.passage)
        plain = m.forward(P, Q, cands)
        padded = m.forward(
            np.vstack([P, np.zeros((2, P.shape[1]))]),
            np.vstack([Q, np.zeros((3, Q.shape[1]))]),
            cands,
            passage_len=P.shape[0],
            question_len=Q.shape[0],
        )
        assert np.array_equal(plain.probabilities.data, padded.probabilities.data), normalize


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
def test_inference_batch_rows_score_as_alone(normalize):
    # an unrecorded forward_batch scores each example of a padded block bit
    # for bit as the example alone; short questions padded to a longer one
    # are where a padded attention product would round differently
    m = toy_model(d=48, emb=8, seed=13, normalize_attention=normalize)
    rng = np.random.default_rng(14)
    lengths = [(9, 1), (3, 2), (14, 4), (1, 1), (6, 2)]
    P = rng.normal(size=(5, 14, m.config.input_width))
    Q = rng.normal(size=(5, 4, m.config.input_width))
    cands = [enumerate_candidates(plen, 3) for plen, _ in lengths]
    batch = m.forward_batch(P, Q, cands, [p for p, _ in lengths], [q for _, q in lengths])
    for b, (plen, qlen) in enumerate(lengths):
        alone = m.forward(P[b, :plen], Q[b, :qlen], cands[b])
        assert np.array_equal(batch[b].scores.data, alone.scores.data), b


def test_predict_single_candidate():
    ex, table = example_fixture()
    m = M.ChunkReaderModel(toy_config(max_chunk_len=1))
    seed_params(m, 3)
    span = m.predict_example(ex, Featurizer(table, m.config.pos_tags, m.config.ne_tags))
    assert span.start == span.end
    assert 1 <= span.start <= len(ex.passage)


def test_predict_tie_breaks_to_earliest_span():
    ex, table = example_fixture()
    m = M.ChunkReaderModel(toy_config())  # zero weights: every score equal
    span = m.predict_example(ex, Featurizer(table, m.config.pos_tags, m.config.ne_tags))
    assert (span.start, span.end) == (1, 1)


def test_predict_no_candidates_names_example():
    # no candidate is no answer: the empty string, which scores as a miss
    ex, table = example_fixture()
    empty_trie = PosPatternTrie(10)
    m = M.ChunkReaderModel(toy_config(candidate_mode="trie"), trie=empty_trie)
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    assert m.predict_example(ex, fz) is None
    assert m.answers([ex], fz)[0] == M.Prediction("ex1", "", None, None, None)


def test_predict_is_argmax_consistent():
    ex, table = example_fixture()
    m = toy_model(seed=4)
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    span = m.predict_example(ex, fz)
    scored = m.forward(fz.passage_matrix(ex), fz.question_matrix(ex), m.candidates_for(ex.passage))
    assert m.answers([ex], fz)[0] == M.Prediction(
        ex.id, span.text, span.start, span.end, float(scored.probabilities.data[scored.best_index()])
    )
    best = scored.probabilities.data[scored.best_index()]
    assert np.all(best >= scored.probabilities.data - 1e-15)
    assert (span.start, span.end) == (
        scored.candidates[scored.best_index()].start,
        scored.candidates[scored.best_index()].end,
    )
    assert span.text == " ".join(t.surface for t in ex.passage[span.start - 1 : span.end])


def answers_fixture(mode, seed=0, **kw):
    """Nine synthetic examples of 4 to 15 words, with 4-word questions,
    plus "blank", whose question is one word and whose tags match no trie
    pattern, and a seeded d = 48 model."""
    examples, table = generate(SyntheticSpec(n_examples=9, seed=5, passage_len=(4, 15)))
    trie = build_pos_trie(examples[:5], 4) if mode == "trie" else None
    examples.append(make_example("blank", ["w1", "w2", "w3"], ["w2"], [(2, 2)], pos=["none"] * 3))
    config = M.ModelConfig(
        hidden_size=48,
        embedding_dim=table.dim,
        pos_tags=POS_TAGS,
        ne_tags=NE_TAGS,
        candidate_mode=mode,
        max_chunk_len=4,
        **kw,
    )
    model = seed_params(M.ChunkReaderModel(config, trie), seed)
    return model, Featurizer(table, POS_TAGS, NE_TAGS), examples


def test_answers_raise_a_data_error_naming_an_example_with_non_finite_probabilities():
    # finite weights of +-1e308 overflow in the forward: the library types
    # the failure itself, and numpy's overflow warnings stay silent
    m, fz, examples = answers_fixture("window")
    rng = np.random.default_rng(0)
    for p in m.parameters().values():
        p.data[...] = rng.choice([-1e308, 1e308], size=p.data.shape)
    with pytest.raises(DataError) as info:
        m.answers(examples, fz)
    assert str(info.value) == f"example {examples[0].id!r}: probabilities are not finite"


def test_answers_are_forward_on_full_examples():
    m, fz, examples = answers_fixture("window", seed=5)
    for got, ex in zip(m.answers(examples, fz), examples):
        cands = m.candidates_for(ex.passage)
        direct = m.forward(fz.passage_matrix(ex), fz.question_matrix(ex), cands)
        best = direct.best_index()
        assert (got.id, got.start, got.end) == (ex.id, cands[best].start, cands[best].end)
        assert got.probability == float(direct.probabilities.data[best])


@pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
@pytest.mark.parametrize("scoring", ["dot", "cosine"])
@pytest.mark.parametrize("mode", ["window", "trie"])
def test_answers_in_any_chunking_equal_each_answer_alone(mode, scoring, normalize):
    # the rows of one inference batch never mix: every answer, probability
    # included, is bit for bit what its example gets alone, however the
    # examples are shuffled and cut into batches, by the caller or by
    # `answers` itself
    m, fz, examples = answers_fixture(mode, seed=11, scoring=scoring, normalize_attention=normalize)
    alone = {ex.id: m.answers([ex], fz)[0] for ex in examples}
    if mode == "trie":
        assert alone["blank"] == M.Prediction("blank", "")
    shuffled = [examples[i] for i in np.random.default_rng(12).permutation(len(examples))]
    assert shuffled[0].id != "blank" != shuffled[-1].id  # inside the batch of all ten
    for size in (1, 3, len(shuffled)):
        got = []
        for start in range(0, len(shuffled), size):
            got.extend(m.answers(shuffled[start : start + size], fz))
        assert got == [alone[ex.id] for ex in shuffled], size
    many = (shuffled * 4)[: 2 * M.ANSWER_BATCH + 5]  # three batches, the last one short
    assert m.answers(many, fz) == [alone[ex.id] for ex in many]


def test_answers_peak_memory_stays_near_the_fused_block():
    # an unrecorded batch frees each block once its last reader has run:
    # the passage encoder's outputs before the attention encoder, each
    # cell's input products before its states are scattered, and each
    # example's chunk block once scored. Keeping them would take the peak
    # past three times the (B, T, 4d) block the attention encoder reads.
    examples, table = generate(SyntheticSpec(n_examples=8, seed=3, passage_len=(20, 120)))
    config = M.ModelConfig(
        hidden_size=64, embedding_dim=table.dim, pos_tags=POS_TAGS, ne_tags=NE_TAGS, max_chunk_len=4
    )
    m = seed_params(M.ChunkReaderModel(config), 19)
    fz = Featurizer(table, POS_TAGS, NE_TAGS)
    lengths = [len(ex.passage) for ex in examples]
    assert len(set(lengths)) == len(lengths)  # every row but the longest is padded
    expected = m.answers(examples, fz)
    tracemalloc.start()
    try:
        assert m.answers(examples, fz) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fused = len(examples) * max(lengths) * 4 * 64 * 8
    assert peak <= 2.6 * fused, f"peak {peak / fused:.2f} times the fused block"


def test_answers_of_no_examples_is_empty():
    m, fz, _ = answers_fixture("window")
    assert m.answers([], fz) == []


# ---------------------------------------------------------------------------
# end-to-end differentiability


def loss_for_example(m, fz, ex, gold, dropout_rate=0.0, rng=None):
    cands = m.candidates_for(ex.passage)
    scored = m.forward(
        fz.passage_matrix(ex),
        fz.question_matrix(ex),
        cands,
        dropout_rate=dropout_rate,
        rng=rng,
        training=dropout_rate > 0.0,
    )
    return M.nll_loss(scored, gold)


def test_end_to_end_gradients_all_parameters():
    ex, table = example_fixture()
    m = toy_model(d=2, emb=2, seed=6)
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    params = list(m.parameters().values())

    def build():
        return loss_for_example(m, fz, ex, CandidateChunk(1, 1))

    err = max(nm.finite_difference_errors(build, params, 1e-5))
    assert err < 1e-4


def test_end_to_end_gradients_trie_mode():
    ex, table = example_fixture()
    trie = PosPatternTrie(10)
    trie.insert(["A"])
    trie.insert(["A", "B"])
    m = M.ChunkReaderModel(toy_config(d=2, candidate_mode="trie"), trie=trie)
    seed_params(m, 7)
    fz = Featurizer(table, m.config.pos_tags, m.config.ne_tags)
    params = list(m.parameters().values())

    def build():
        return loss_for_example(m, fz, ex, CandidateChunk(1, 1))

    err = max(nm.finite_difference_errors(build, params, 1e-5))
    assert err < 1e-4


def test_model_config_validation():
    with pytest.raises(ValueError):
        M.ChunkReaderModel(toy_config(candidate_mode="trie"))  # no trie given
    with pytest.raises(ValueError):
        M.ChunkReaderModel(toy_config(candidate_mode="nonsense"))
    with pytest.raises(ValueError, match="scoring"):
        M.ChunkReaderModel(toy_config(scoring="euclid"))
    with pytest.raises(ValueError, match="max_chunk_len"):
        M.ChunkReaderModel(toy_config(max_chunk_len=0))
    # one length cap for both strategies: the trie's must be the config's
    with pytest.raises(ValueError, match="trie depth cap 9 differs from max_chunk_len 3"):
        M.ChunkReaderModel(toy_config(candidate_mode="trie", max_chunk_len=3), PosPatternTrie(9))
    # a window model used to keep a trie nothing read, and checkpoints
    # saved its lines
    with pytest.raises(ValueError, match="^window candidate mode takes no trie$"):
        M.ChunkReaderModel(toy_config(), PosPatternTrie(10))


def test_parameter_catalog_covers_both_encoders():
    m = toy_model(d=3, emb=2)
    names = list(m.parameters())
    assert len(names) == 24  # 2 encoders x 2 directions x 6 matrices
    assert names[0].startswith("shared.") and names[-1].startswith("attention.")
    assert m.parameters()["shared.fwd.W_r"].data.shape == (m.config.input_width, 3)
    assert m.parameters()["attention.fwd.W_r"].data.shape == (12, 3)
