"""The traced run: per-layer time from spans around public calls.

The model's forward pass is recomposed here from the same public pieces
`ChunkReaderModel.forward` uses (encoders, `attend`, `score_chunks`,
`nll_loss`), with a span around each layer. Backward time is attributed
per layer from the tape-node range each layer's forward appended, read as
`len(tape)` before and after the call: the nodes' backward closures are
wrapped in timers before `Tape.backward` runs. Every traced step is
checked against an untraced `model.forward` + `nll_loss` step from the
same state: loss, gradients and predicted spans must match bit for bit.

Spans carry a name, start, end, parent span index and example id; they
are kept in memory and written out as JSONL when the run ends.
"""

from __future__ import annotations

import copy
import json
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from functools import reduce

import numpy as np

import chunkreader.numerics as nm
from chunkreader.checkpoint import load_checkpoint, save_checkpoint
from chunkreader.chunker import candidate_recall
from chunkreader.corpus import AnswerSpan, Featurizer, detokenize, load_dataset, load_embeddings
from chunkreader.evaluator import evaluate
from chunkreader.model import attend, nll_loss, question_repr, score_chunks
from chunkreader.numerics import SeededRng
from chunkreader.trainer import (
    AdamState,
    PreparedExample,
    adam_step,
    clip_gradients,
    filter_trainable,
    make_batches,
    truncate_for_training,
)

from workloads import InputFiles, Outcome, Workload, load_world, simplex_error

ENCODER_LAYERS = ("encoder.passage", "encoder.question", "encoder.attention")
BENCH_SPAN = "bench.check"  # the benchmark's own checks; not program time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.phase = "setup"

    @contextmanager
    def span(self, name: str, example: str | None = None):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "example": example,
            "phase": self.phase,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, start, end, parent, example, busy) -> None:
        """A span assembled after the fact; `busy` is the time inside it
        that the layer's own code ran (backward closures interleave)."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent,
             "example": example, "phase": self.phase, "busy": busy}
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


@contextmanager
def _layer(tracer: Tracer, name: str, example: str, tape, ranges: list):
    first = len(tape) if tape is not None else 0
    with tracer.span(name + ".fwd", example):
        yield
    if tape is not None:
        ranges.append((name, example, first, len(tape)))


def traced_forward(model, P, Q, candidates, passage_len, question_len, dropout_rate, rng,
                   training, tracer, example, tape=None, ranges=None, gold=None):
    """`ChunkReaderModel.forward` (plus `nll_loss` when gold is given),
    one span per layer. Returns (score set, loss or None)."""
    cfg = model.config
    ranges = ranges if ranges is not None else []
    Xp, Xq = nm.tensor(P), nm.tensor(Q)
    with _layer(tracer, "model.dropout", example, tape, ranges):
        if training and dropout_rate > 0.0:
            Xp = nm.dropout(Xp, dropout_rate, rng, training=True)
            Xq = nm.dropout(Xq, dropout_rate, rng, training=True)
    with _layer(tracer, "encoder.passage", example, tape, ranges):
        _, _, passage_ctx = model.shared_encoder.encode(Xp, passage_len)
    with _layer(tracer, "encoder.question", example, tape, ranges):
        q_fwd, q_bwd, question_ctx = model.shared_encoder.encode(Xq, question_len)
    with _layer(tracer, "model.fusion", example, tape, ranges):
        fused = attend(passage_ctx, question_ctx, cfg.normalize_attention)
    with _layer(tracer, "encoder.attention", example, tape, ranges):
        g_fwd, g_bwd, _ = model.attention_encoder.encode(fused, passage_len)
    with _layer(tracer, "model.scoring", example, tape, ranges):
        starts = [c.start - 1 for c in candidates]
        ends = [c.end - 1 for c in candidates]
        reps = nm.concat(nm.gather_rows(g_fwd, starts), nm.gather_rows(g_bwd, ends))
        qrep = question_repr(q_fwd, q_bwd, question_len)
        scored = score_chunks(reps, qrep, candidates, cfg.scoring)
        loss = nll_loss(scored, gold) if gold is not None else None
    return scored, loss


def _timed(fn, acc: list):
    def run(g):
        t0 = time.perf_counter()
        fn(g)
        t1 = time.perf_counter()
        if acc[0] is None:
            acc[0] = t0
        acc[1] = t1
        acc[2] += t1 - t0

    return run


def _wrap_backward(tape: nm.Tape, ranges: list) -> dict:
    """Wrap each layer's backward closures in a timer; returns
    (layer, example) -> [first start, last end, busy seconds]."""
    accs = {}
    for name, example, first, last in ranges:
        acc = accs.setdefault((name, example), [None, 0.0, 0.0])
        for i in range(first, last):
            out, inputs, fn = tape.nodes[i]
            tape.nodes[i] = (out, inputs, _timed(fn, acc))
    return accs


def _grads(model) -> dict:
    return {k: None if p.grad is None else p.grad.copy() for k, p in model.parameters().items()}


def _same_grads(a: dict, b: dict) -> bool:
    return all(
        (a[k] is None and b[k] is None)
        or (a[k] is not None and b[k] is not None and np.array_equal(a[k], b[k]))
        for k in a
    )


def reference_step(model, batch, config, rng):
    """Forward + backward of one batch through `model.forward` + `nll_loss`,
    as `train()` does it. Returns (loss bytes, seconds); gradients stay on
    the parameters."""
    model.zero_grads()
    started = time.perf_counter()
    with nm.Tape() as tape:
        losses = []
        for i, pe in enumerate(batch.items):
            scored = model.forward(
                batch.passages[i], batch.questions[i], pe.candidates,
                passage_len=pe.passage_len, question_len=pe.question_len,
                dropout_rate=config.dropout_rate, rng=rng, training=True,
            )
            losses.append(nll_loss(scored, pe.candidates[pe.gold_index]))
        loss = nm.scale(reduce(nm.add, losses), 1.0 / len(losses))
        tape.backward(loss)
    return loss.data.tobytes(), time.perf_counter() - started


class TracedRun:
    def __init__(self, wl: Workload, files: InputFiles, seed: int, out: Outcome, workdir: str):
        self.wl, self.files, self.seed, self.out, self.workdir = wl, files, seed, out, workdir
        self.tracer = Tracer()
        self.config = wl.train_config(seed)
        self.step_stats: list[dict] = []  # per traced training step
        self.predict_stats: list[dict] = []  # per traced predict call

    # -- set-up layers ----------------------------------------------------

    def setup(self) -> None:
        wl, files, tr = self.wl, self.files, self.tracer
        self.world = load_world(wl, files, self.seed)  # untimed warm-up of the same path
        self.model = self.world.model
        with tr.span("corpus.load_dataset"):
            load_dataset(files.main)
            if files.dev:
                load_dataset(files.dev)
        with tr.span("corpus.load_embeddings"):
            table = load_embeddings(files.embeddings, wl.embedding_dim)
        model = self.model
        fz = Featurizer(table, model.config.pos_tags, model.config.ne_tags)
        every = self.world.every
        for ex in every:
            with tr.span("corpus.featurize", ex.id):
                P, Q = fz.passage_matrix(ex), fz.question_matrix(ex)
            with tr.span("chunker.generate", ex.id):
                cands = model.candidates_for(ex.passage)
            ref_P, ref_Q = self.world.features[ex.id]
            self.out.check(np.array_equal(P, ref_P) and np.array_equal(Q, ref_Q), f"{ex.id}: features differ")
            self.out.check(cands == self.world.candidates[ex.id], f"{ex.id}: candidates differ")
        self.candidate_counts = [len(self.world.candidates[ex.id]) for ex in every]
        self.recall = candidate_recall(every, [self.world.candidates[ex.id] for ex in every])

        path = os.path.join(self.workdir, "traced.ckpt")
        with tr.span("checkpoint.save"):
            save_checkpoint(model, path)
        self.checkpoint_bytes = os.path.getsize(path)
        with tr.span("checkpoint.load"):
            loaded = load_checkpoint(path)
        same = all(
            np.array_equal(a.data, b.data)
            for a, b in zip(model.parameters().values(), loaded.parameters().values())
        )
        self.out.check(same, "checkpoint round trip changed parameters")

        truncated, _ = truncate_for_training(self.world.examples, self.config.max_passage_len)
        self.prepared = []
        for ex in truncated:
            cands = self.world.candidates[ex.id]
            gold = filter_trainable(ex, cands)
            if gold is not None:
                P, Q = self.world.features[ex.id]
                self.prepared.append(PreparedExample(ex, P, Q, cands, gold))
        self.out.check(bool(self.prepared), "no trainable example")

    # -- training steps ---------------------------------------------------

    def batches(self, rng, epoch):
        with self.tracer.span("trainer.make_batches"):
            return make_batches(self.prepared, self.config, rng, epoch)

    def train_step(self, batch, rng, state, step_id: str):
        """One traced step, checked against the untraced reference from the
        same parameters and rng state, then clipped and applied."""
        model, tr, config = self.model, self.tracer, self.config
        params = model.parameters()
        ref_rng = copy.deepcopy(rng)
        ref_loss, ref_s = reference_step(model, batch, config, ref_rng)
        ref_grads = _grads(model)

        with tr.span("trainer.step", step_id) as step_index:
            model.zero_grads()
            ranges: list = []
            t0 = time.perf_counter()
            with nm.Tape() as tape:
                losses = []
                for i, pe in enumerate(batch.items):
                    scored, loss = traced_forward(
                        model, batch.passages[i], batch.questions[i], pe.candidates,
                        pe.passage_len, pe.question_len, config.dropout_rate, rng, True,
                        tr, pe.example.id, tape, ranges, gold=pe.candidates[pe.gold_index],
                    )
                    err = simplex_error(scored.probabilities.data)
                    self.out.check(err is None, f"{pe.example.id}: {err}")
                    losses.append(loss)
                loss = nm.scale(reduce(nm.add, losses), 1.0 / len(losses))
                nodes = len(tape)
                encoder_nodes = sum(b - a for name, _, a, b in ranges if name in ENCODER_LAYERS)
                accs = _wrap_backward(tape, ranges)
                with tr.span("numerics.backward", step_id) as backward_index:
                    tape.backward(loss)
            traced_s = time.perf_counter() - t0
            backward = tr.spans[backward_index]
            for (name, example), (first, last, busy) in accs.items():
                if first is not None:
                    tr.add(name + ".bwd", first, last, backward_index, example, busy)
            with tr.span(BENCH_SPAN, step_id):
                self.out.check(loss.data.tobytes() == ref_loss, f"step {step_id}: traced loss differs")
                same = _same_grads(_grads(model), ref_grads)
                self.out.check(same, f"step {step_id}: traced gradients differ")
                self.out.check(np.isfinite(loss.data).all(), f"step {step_id}: non-finite loss")
            grads = {k: p.grad for k, p in params.items()}
            with tr.span("trainer.clip", step_id):
                clip_gradients([g for g in grads.values() if g is not None], config.clip_norm)
            with tr.span("trainer.adam", step_id):
                adam_step(params, grads, state, config.learning_rate)
        self.out.attempted += 1
        self.step_stats.append({
            "index": step_index,
            "overhead": 100.0 * (traced_s - ref_s) / ref_s,
            "examples": len(batch),
            "nodes": nodes,
            "encoder_nodes": encoder_nodes,
            "backward_s": backward["end"] - backward["start"],
            "pad_frac": _pad_frac(batch),
        })

    def step_peak_alloc_mb(self, batch, rng, state) -> float:
        """tracemalloc peak over one untraced step, run last because
        tracemalloc slows every allocation."""
        tracemalloc.start()
        try:
            reference_step(self.model, batch, self.config, rng)
            params = self.model.parameters()
            grads = {k: p.grad for k, p in params.items()}
            clip_gradients([g for g in grads.values() if g is not None], self.config.clip_norm)
            adam_step(params, grads, state, self.config.learning_rate)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- prediction -------------------------------------------------------

    def predict(self, ex) -> str:
        """One traced predict call, checked against `predict_example` and an
        untraced `model.forward` on the same inputs."""
        model, fz, tr = self.model, self.world.featurizer, self.tracer
        t0 = time.perf_counter()
        ref_span = model.predict_example(ex, fz)
        ref_s = time.perf_counter() - t0
        P0, Q0 = self.world.features[ex.id]
        t0 = time.perf_counter()
        ref_scored = model.forward(P0, Q0, self.world.candidates[ex.id])
        forward_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        with tr.span("predict", ex.id) as root:
            with tr.span("corpus.featurize", ex.id):
                P, Q = fz.passage_matrix(ex), fz.question_matrix(ex)
            with tr.span("chunker.generate", ex.id):
                cands = model.candidates_for(ex.passage)
            scored, _ = traced_forward(model, P, Q, cands, None, None, 0.0, None, False, tr, ex.id)
            best = scored.candidates[scored.best_index()]
            span = AnswerSpan(best.start, best.end, detokenize(ex.passage[best.start - 1 : best.end]))
        traced_s = time.perf_counter() - t0
        self.out.attempted += 1
        self.out.check(span == ref_span, f"{ex.id}: traced span differs from predict_example")
        self.out.check(
            np.array_equal(scored.probabilities.data, ref_scored.probabilities.data),
            f"{ex.id}: traced probabilities differ from model.forward",
        )
        err = simplex_error(scored.probabilities.data)
        self.out.check(err is None, f"{ex.id}: {err}")
        self.predict_stats.append(
            {"index": root, "forward_s": forward_s, "overhead": 100.0 * (traced_s - ref_s) / ref_s}
        )
        return span.text

    def predict_pass(self, examples) -> None:
        predictions = {ex.id: self.predict(ex) for ex in examples}
        self.out.attempted += 1
        t0 = time.perf_counter()
        evaluate(predictions, examples)
        self.evaluate_ms_per_1k = 1000.0 * 1000.0 * (time.perf_counter() - t0) / len(examples)

    # -- the run ----------------------------------------------------------

    def run(self, seconds: float) -> dict:
        tr = self.tracer
        self.setup()
        rng = SeededRng(self.seed)
        state = AdamState(self.model.parameters())
        deadline = time.perf_counter() + seconds
        tr.phase = "train"
        if self.wl.kind == "train":
            epoch = 0
            while epoch == 0 or time.perf_counter() < deadline:
                for b, batch in enumerate(self.batches(rng, epoch)):
                    self.train_step(batch, rng, state, f"e{epoch}b{b}")
                if epoch == 0:
                    first_epoch = list(self.step_stats)
                epoch += 1
            tr.phase = "predict"
            self.predict_pass(self.world.dev)
        else:
            self.train_step(self.batches(rng, 0)[0], rng, state, "e0b0")
            first_epoch = list(self.step_stats)
            tr.phase = "predict"
            while True:
                self.predict_pass(self.world.examples)
                if time.perf_counter() >= deadline:
                    break
        tr.phase = "memory"
        peak_mb = self.step_peak_alloc_mb(self.batches(rng, 0)[0], rng, state)
        return self.metrics(first_epoch, peak_mb)

    def metrics(self, first_epoch, peak_mb) -> dict:
        """Per-layer figures; the main path is training steps on the train
        workloads and predict calls on predict-paper."""
        spans = self.tracer.spans
        main_phase = "train" if self.wl.kind == "train" else "predict"
        main = self.step_stats if self.wl.kind == "train" else self.predict_stats

        def ms(name):
            found = [s for s in spans if s["name"] == name]
            return statistics.median(1000.0 * (s["end"] - s["start"]) for s in found)

        def per_example(name, phase):
            # one sample per example per step or call: the parent tells them apart
            by_call: dict = {}
            for s in spans:
                if s["name"] == name and s["phase"] == phase:
                    key = (s["parent"], s["example"])
                    by_call[key] = by_call.get(key, 0.0) + s.get("busy", s["end"] - s["start"])
            return 1000.0 * statistics.median(by_call.values())

        examples = sum(s["examples"] for s in first_epoch)
        out = {
            "numerics.tape_nodes_per_example": (sum(s["nodes"] for s in first_epoch) / examples, "count"),
            "numerics.backward_ms_per_example": (
                statistics.median(1000.0 * s["backward_s"] / s["examples"] for s in self.step_stats), "ms"),
            "numerics.step_peak_alloc_mb": (peak_mb, "MB"),
            "corpus.load_dataset_ms": (ms("corpus.load_dataset"), "ms"),
            "corpus.load_embeddings_ms": (ms("corpus.load_embeddings"), "ms"),
            "corpus.featurize_ms_per_example": (per_example("corpus.featurize", "setup"), "ms"),
            "chunker.generate_ms_per_example": (per_example("chunker.generate", "setup"), "ms"),
            "chunker.candidates_per_example": (statistics.mean(self.candidate_counts), "count"),
            "chunker.recall": (self.recall, "ratio"),
        }
        for layer in ENCODER_LAYERS + ("model.fusion", "model.scoring"):
            out[f"{layer}.fwd_ms"] = (per_example(layer + ".fwd", main_phase), "ms")
            out[f"{layer}.bwd_ms"] = (per_example(layer + ".bwd", "train"), "ms")
        encoder_nodes = sum(s["encoder_nodes"] for s in first_epoch)
        out["encoder.tape_nodes_per_example"] = (encoder_nodes / examples, "count")
        forward_ms = statistics.median(1000.0 * s["forward_s"] for s in self.predict_stats)
        out["model.forward_ms"] = (forward_ms, "ms")
        out["trainer.make_batches_ms"] = (ms("trainer.make_batches"), "ms")
        out["trainer.clip_ms"] = (ms("trainer.clip"), "ms")
        out["trainer.adam_ms"] = (ms("trainer.adam"), "ms")
        out["trainer.pad_frac"] = (statistics.mean(s["pad_frac"] for s in first_epoch), "ratio")
        out["evaluator.evaluate_ms_per_1k"] = (self.evaluate_ms_per_1k, "ms")
        out["checkpoint.save_ms"] = (ms("checkpoint.save"), "ms")
        out["checkpoint.load_ms"] = (ms("checkpoint.load"), "ms")
        out["checkpoint.bytes"] = (float(self.checkpoint_bytes), "bytes")
        out["trace.overhead_pct"] = (statistics.median(s["overhead"] for s in main), "%")
        children: dict = {}
        for i, s in enumerate(spans):
            children.setdefault(s["parent"], []).append(i)
        out["trace.unattributed_frac"] = (
            statistics.median(_unattributed(spans, children, s["index"]) for s in main), "ratio")
        return out


def _pad_frac(batch) -> float:
    """Padded rows over all rows of the batch's passage and question blocks."""
    rows = batch.passage_mask.size + batch.question_mask.size
    real = batch.passage_mask.sum() + batch.question_mask.sum()
    return float(rows - real) / rows


def _unattributed(spans: list[dict], children: dict, root: int) -> float:
    """Share of a step's time covered by no layer span; the benchmark's own
    checks are taken out of the step first."""
    step = spans[root]
    total = step["end"] - step["start"]
    covered = 0.0
    stack = [root]
    while stack:
        for child in children.get(stack.pop(), []):
            s = spans[child]
            if s["name"] == BENCH_SPAN:
                total -= s["end"] - s["start"]
            elif s["name"] == "numerics.backward":
                stack.append(child)  # its layer spans carry the attribution
            else:
                covered += s.get("busy", s["end"] - s["start"])
    return max(0.0, total - covered) / total
