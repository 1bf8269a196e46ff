"""Workload definitions, seeded inputs, set-up, and the untraced timed loops.

Every workload is a closed loop with one caller in one fresh process. The
library is driven only through its public entry points: inputs are made by
`synthetic.generate`, written as dataset JSONL plus an embedding file, and
reach the program only through `load_dataset` / `load_embeddings` (and
`load_checkpoint` for prediction).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass

import numpy as np

from chunkreader.checkpoint import load_checkpoint, save_checkpoint
from chunkreader.chunker import build_pos_trie
from chunkreader.corpus import (
    AnnotatedToken,
    EmbeddingTable,
    Example,
    Featurizer,
    build_tag_inventories,
    load_dataset,
    load_embeddings,
)
from chunkreader.evaluator import evaluate
from chunkreader.model import ChunkReaderModel, ModelConfig
from chunkreader.numerics import SeededRng
from chunkreader.synthetic import SyntheticSpec, generate, write_dataset_jsonl, write_embeddings_file
from chunkreader.trainer import TrainConfig, init_parameters, train


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Passage lengths are a fixed grid rather than random draws, and words,
    tags and answer positions depend on the example's index only, so every
    seed does the same amount of work (the same trie and candidate counts)
    and the run-to-run spread measures the program, not the draw. The seed
    picks the word embeddings, the initial weights, dropout masks and batch
    order.
    """

    name: str
    kind: str  # "train" or "predict"
    hidden_size: int
    embedding_dim: int
    vocab_size: int
    question_len: int  # K: the marker word plus K-1 fillers
    answer_len: tuple[int, int]
    lengths: tuple[int, ...]  # passages trained on, or predicted
    dev_lengths: tuple[int, ...]  # empty: the main set doubles as dev
    candidate_mode: str
    max_chunk_len: int
    batch_size: int
    dropout_rate: float
    epochs_per_round: int  # one train() call; epoch 1 of each is warm-up
    setup_repeats: int = 5

    def train_config(self, seed: int) -> TrainConfig:
        # patience >= max_epochs, so every round runs the same epochs
        return TrainConfig(
            learning_rate=0.001,
            batch_size=self.batch_size,
            dropout_rate=self.dropout_rate,
            hidden_size=self.hidden_size,
            max_epochs=self.epochs_per_round,
            patience=self.epochs_per_round,
            seed=seed,
            candidate_mode=self.candidate_mode,
            max_chunk_len=self.max_chunk_len,
        )


# train-paper: GEMM-heavy encoder forward/backward and Tape.backward do
# almost all the work; per-node overhead, chunking and evaluation are small.
TRAIN_PAPER = Workload(
    name="train-paper",
    kind="train",
    hidden_size=300,
    embedding_dim=300,
    vocab_size=5000,
    question_len=12,
    answer_len=(1, 4),
    lengths=(105, 135, 165, 195),
    dev_lengths=(150,),
    candidate_mode="window",
    max_chunk_len=10,
    batch_size=2,
    dropout_rate=0.2,
    epochs_per_round=3,
    setup_repeats=15,
)

# train-toy: the overfit gate's loop with trie candidates. BLAS work is
# negligible; per-tape-node Python cost, the trainer loop, dev evaluation
# every epoch, checkpoint writes and the trie chunker dominate.
TRAIN_TOY = Workload(
    name="train-toy",
    kind="train",
    hidden_size=32,
    embedding_dim=16,
    vocab_size=40,
    question_len=4,
    answer_len=(1, 3),
    lengths=tuple(8 + i % 7 for i in range(32)),
    dev_lengths=(),
    candidate_mode="trie",
    max_chunk_len=4,
    batch_size=8,
    dropout_rate=0.0,
    epochs_per_round=10,
    setup_repeats=101,  # a set-up takes milliseconds here
)

# predict-paper: forward-only encoders on full-length passages, per-call
# featurizing and candidate generation, and scoring of 1.4k-3k candidates.
PREDICT_PAPER = Workload(
    name="predict-paper",
    kind="predict",
    hidden_size=300,
    embedding_dim=300,
    vocab_size=5000,
    question_len=12,
    answer_len=(1, 4),
    lengths=tuple(range(150, 301, 10)),
    dev_lengths=(),
    candidate_mode="window",
    max_chunk_len=10,
    batch_size=2,
    dropout_rate=0.2,
    epochs_per_round=1,
    setup_repeats=9,
)

WORKLOADS = {w.name: w for w in (TRAIN_PAPER, TRAIN_TOY, PREDICT_PAPER)}


# ---------------------------------------------------------------------------
# seeded inputs


def _renamed(tokens: tuple[AnnotatedToken, ...], old: str, new: str):
    return tuple(
        dataclasses.replace(t, surface=new, lemma=new) if t.surface == old else t
        for t in tokens
    )


def make_inputs(wl: Workload, seed: int, prefix: str, first_index: int, lengths):
    """One `generate` call per passage length, renumbered into one dataset.

    Each example keeps generate's structure: a marker word `mk<i>` unique
    to the example sits right before the gold span and opens the question.
    That structure (words, tags, answer position) depends on the example's
    index only, so every seed gets the same trie and the same candidate
    counts, hence the same work; the seed draws every word's embedding.
    A word shared by examples keeps the vector of its first example.
    """
    examples: list[Example] = []
    entries: dict[str, np.ndarray] = {}
    for offset, length in enumerate(lengths):
        i = first_index + offset
        spec = SyntheticSpec(
            n_examples=1,
            vocab_size=wl.vocab_size,
            passage_len=(length, length),
            answer_len=wl.answer_len,
            question_fillers=wl.question_len - 1,
            embedding_dim=wl.embedding_dim,
            seed=i,
        )
        (ex,), table = generate(spec)
        vectors = np.random.default_rng((seed, i))
        marker = f"mk{i}"
        examples.append(
            Example(
                id=f"{prefix}{i}",
                passage=_renamed(ex.passage, "mk0", marker),
                question=_renamed(ex.question, "mk0", marker),
                answers=ex.answers,
            )
        )
        for word in sorted(table.entries):
            vec = vectors.normal(scale=0.3, size=wl.embedding_dim)
            entries.setdefault(marker if word == "mk0" else word, vec)
    return examples, entries


@dataclass
class InputFiles:
    main: str
    dev: str | None
    embeddings: str
    checkpoint: str | None  # predict workloads: the seeded-init model


def write_inputs(wl: Workload, seed: int, workdir: str) -> InputFiles:
    main, entries = make_inputs(wl, seed, "ex", 0, wl.lengths)
    dev, dev_entries = make_inputs(wl, seed, "dev", len(wl.lengths), wl.dev_lengths)
    for word, vec in dev_entries.items():
        entries.setdefault(word, vec)
    files = InputFiles(
        main=os.path.join(workdir, "main.jsonl"),
        dev=os.path.join(workdir, "dev.jsonl") if dev else None,
        embeddings=os.path.join(workdir, "embeddings.txt"),
        checkpoint=None,
    )
    write_dataset_jsonl(main, files.main)
    if dev:
        write_dataset_jsonl(dev, files.dev)
    write_embeddings_file(EmbeddingTable(wl.embedding_dim, entries), files.embeddings)
    if wl.kind == "predict":
        pos_tags, ne_tags = build_tag_inventories(main)
        model = ChunkReaderModel(model_config(wl, pos_tags, ne_tags))
        init_parameters(model, SeededRng(seed), wl.train_config(seed).init_range)
        files.checkpoint = os.path.join(workdir, "seeded-init.ckpt")
        save_checkpoint(model, files.checkpoint)
    return files


def model_config(wl: Workload, pos_tags, ne_tags) -> ModelConfig:
    return ModelConfig(
        hidden_size=wl.hidden_size,
        embedding_dim=wl.embedding_dim,
        pos_tags=pos_tags,
        ne_tags=ne_tags,
        candidate_mode=wl.candidate_mode,
        max_chunk_len=wl.max_chunk_len,
    )


# ---------------------------------------------------------------------------
# timing on a shared machine


class CpuRotation:
    """Moves the calling thread round-robin over the CPUs it may use.

    On a shared virtual machine two CPUs can run the same code at speeds
    30% apart, and which one is slow changes within minutes. A process the
    scheduler leaves on one CPU then reads fast or slow as a whole, and
    run-to-run spread doubles. Moving to the next CPU at every sample
    boundary (set-up, epoch, prediction pass) gives each CPU its share of
    the samples; `per_cpu_median` then averages the CPUs' medians. Only
    the calling thread moves: BLAS worker threads keep every CPU.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def next(self) -> int:
        cpu = self.cpus[self.turn % len(self.cpus)]
        self.turn += 1
        os.sched_setaffinity(0, {cpu})
        return cpu

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def per_cpu_median(samples) -> float:
    """Mean over CPUs of the median of each CPU's (cpu, value) samples."""
    by_cpu: dict[int, list[float]] = {}
    for cpu, value in samples:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.mean(statistics.median(values) for values in by_cpu.values())


# ---------------------------------------------------------------------------
# set-up: everything before the first timed operation


@dataclass
class World:
    examples: list[Example]  # trained on, or predicted
    dev: list[Example]
    model: ChunkReaderModel
    featurizer: Featurizer
    features: dict[str, tuple[np.ndarray, np.ndarray]]  # id -> (passage, question)
    candidates: dict[str, list]

    @property
    def every(self) -> list[Example]:
        """The main examples plus the dev examples, each once."""
        return self.examples + ([] if self.dev is self.examples else self.dev)


def load_world(wl: Workload, files: InputFiles, seed: int) -> World:
    """Load the inputs and build the model the way the CLI does, then
    featurize and generate candidates for every example once."""
    examples = load_dataset(files.main).examples
    dev = load_dataset(files.dev).examples if files.dev else examples
    table = load_embeddings(files.embeddings, wl.embedding_dim)
    if wl.kind == "train":
        pos_tags, ne_tags = build_tag_inventories(examples)
        trie = build_pos_trie(examples, wl.max_chunk_len) if wl.candidate_mode == "trie" else None
        model = ChunkReaderModel(model_config(wl, pos_tags, ne_tags), trie)
        init_parameters(model, SeededRng(seed), wl.train_config(seed).init_range)
    else:
        model = load_checkpoint(files.checkpoint)
    fz = Featurizer(table, model.config.pos_tags, model.config.ne_tags)
    world = World(examples, dev, model, fz, features={}, candidates={})
    for ex in world.every:
        world.features[ex.id] = (fz.passage_matrix(ex), fz.question_matrix(ex))
        world.candidates[ex.id] = model.candidates_for(ex.passage)
    return world


def timed_setup(wl: Workload, files: InputFiles, seed: int, cpus: CpuRotation):
    """Set up `setup_repeats` times, each on the next CPU; returns the last
    world and (cpu, seconds) samples."""
    samples = []
    world = None
    for _ in range(wl.setup_repeats):
        world = None  # release the previous model before building the next
        cpu = cpus.next()
        started = time.perf_counter()
        world = load_world(wl, files, seed)
        samples.append((cpu, time.perf_counter() - started))
    return world, samples


# ---------------------------------------------------------------------------
# output checks


def simplex_error(probabilities: np.ndarray) -> str | None:
    """Why a probability vector is not a simplex, or None if it is."""
    if not np.all(np.isfinite(probabilities)):
        return "non-finite probability"
    if np.any(probabilities < 0.0):
        return "negative probability"
    total = float(probabilities.sum())
    if abs(total - 1.0) > 1e-9:
        return f"probabilities sum to {total!r}"
    return None


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    With n samples sorted ascending that is the sample at index n-11; with
    ten or fewer samples there is no such percentile and the maximum is
    reported at the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Outcome:
    """Operation counts and failed checks of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail_op(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# untraced timed loops


def run_train(wl: Workload, world: World, seed: int, seconds: float, workdir: str, out: Outcome,
              cpus: CpuRotation):
    """Repeat one fixed-length `train()` call until `seconds` have passed.

    Per-epoch times come from timestamping train()'s `echo` callback, which
    also moves the loop to the next CPU; the first epoch of every call
    (featurizing, candidate generation, init and warm-up) is excluded.
    A round's throughput is trainable examples x measured epochs over their
    wall time; the run reports the median over rounds, and example_ms_p50
    is the median over rounds of wall ms per trained example. Every call
    must write the same epoch log.
    """
    config = wl.train_config(seed)
    epoch_s: list[tuple[int, float]] = []  # (cpu, seconds)
    round_rates: list[float] = []  # trained examples per second of each round
    trainable = 0
    logs: list[list[str]] = []
    deadline = time.perf_counter() + seconds

    def echo(_line):
        stamps.append(time.perf_counter())
        on_cpu.append(cpus.next())

    while True:
        on_cpu = [cpus.next()]
        stamps = [time.perf_counter()]
        try:
            result = train(
                world.model,
                world.featurizer,
                world.examples,
                world.dev,
                config,
                log_path=os.path.join(workdir, "train.log"),
                checkpoint_path=os.path.join(workdir, "best.ckpt"),
                echo=echo,
            )
        except Exception:
            out.attempted += 1
            out.fail_op("train() raised: " + traceback.format_exc(limit=3))
            break
        out.attempted += result.epochs_run
        for epoch, loss in enumerate(result.train_losses, start=1):
            if not math.isfinite(loss):
                out.fail_op(f"non-finite loss {loss!r} at epoch {epoch}")
        out.check(result.epochs_run == wl.epochs_per_round, f"ran {result.epochs_run} epochs")
        trainable = result.stats["trainable"]
        epoch_s.extend((cpu, b - a) for cpu, a, b in zip(on_cpu[1:], stamps[1:], stamps[2:]))
        if len(stamps) > 2:
            round_rates.append(trainable * (len(stamps) - 2) / (stamps[-1] - stamps[1]))
        logs.append(result.log_lines)
        if time.perf_counter() >= deadline:
            break
    if not round_rates:
        out.check(False, "no epoch was measured")
        return {}, {}

    out.check(all(log == logs[0] for log in logs), "epoch logs differ between identical train() calls")
    for ex in world.dev:
        P, Q = world.features[ex.id]
        err = simplex_error(world.model.forward(P, Q, world.candidates[ex.id]).probabilities.data)
        out.check(err is None, f"{ex.id}: {err}")
    # On a shared host a co-tenant can slow a CPU by up to ~1.5x for
    # seconds at a time, so epoch times spread wide and can be bimodal: a
    # median over epochs then jumps between the modes as the slowed share
    # crosses one half, while a round's mean moves with that share
    # smoothly. The median over rounds drops a round hit by a long burst.
    throughput = statistics.median(round_rates)
    final_em = float(logs[0][-1].split("\t")[2])
    metrics = {
        "examples_per_s": (throughput, "1/s"),
        "example_ms_p50": (statistics.median(1000.0 / r for r in round_rates), "ms"),
    }
    report = {
        "train_examples_per_s": throughput,
        "train_em": final_em,
        "trainable_examples": trainable,
        "rounds": len(logs),
        "epochs_measured": len(epoch_s),
        "round_examples_per_s": [round(r, 4) for r in round_rates],
        "epoch_s": [[cpu, round(s, 6)] for cpu, s in epoch_s],
        "epoch_log_digest": digest(logs[0]),
    }
    return metrics, report


def run_predict(world: World, seconds: float, out: Outcome, cpus: CpuRotation):
    """Predict every example, then evaluate, until `seconds` have passed.

    Each pass is complete, so the latency samples keep the workload's
    fixed mix of passage lengths. Throughput is the median over passes of
    predictions per second of the pass, evaluation included. Each pass runs
    on the next CPU, and medians are taken per CPU and averaged.
    """
    model, fz = world.model, world.featurizer
    latencies: list[tuple[int, float]] = []  # (cpu, seconds)
    passes: list[list[str]] = []
    pass_rates: list[tuple[int, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        cpu = cpus.next()
        pass_started = time.perf_counter()
        predictions, spans = {}, []
        for ex in world.examples:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                span = model.predict_example(ex, fz)
            except Exception:
                out.fail_op(f"predict_example({ex.id}) raised: " + traceback.format_exc(limit=3))
                continue
            latencies.append((cpu, time.perf_counter() - t0))
            predictions[ex.id] = span.text
            spans.append(f"{ex.id}\t{span.start}\t{span.end}\t{span.text}")
        out.attempted += 1
        try:
            evaluate(predictions, world.examples)
        except Exception:
            out.fail_op("evaluate raised: " + traceback.format_exc(limit=3))
        passes.append(spans)
        pass_rates.append((cpu, len(spans) / (time.perf_counter() - pass_started)))
        if time.perf_counter() >= deadline:
            break
    if not latencies:
        out.check(False, "no prediction succeeded")
        return {}, {}

    out.check(all(p == passes[0] for p in passes), "predicted spans differ between passes")
    for line in passes[0]:
        ex_id, start, end = line.split("\t")[:3]
        P, Q = world.features[ex_id]
        scored = model.forward(P, Q, world.candidates[ex_id])
        err = simplex_error(scored.probabilities.data)
        out.check(err is None, f"{ex_id}: {err}")
        best = scored.candidates[scored.best_index()]
        agrees = (best.start, best.end) == (int(start), int(end))
        out.check(agrees, f"{ex_id}: predicted span disagrees with forward")
    ms = [(cpu, 1000.0 * s) for cpu, s in latencies]
    pct, tail = tail_percentile([v for _, v in ms])
    throughput = per_cpu_median(pass_rates)
    p50 = per_cpu_median(ms)
    metrics = {
        "examples_per_s": (throughput, "1/s"),
        "example_ms_p50": (p50, "ms"),
    }
    report = {
        "predict_examples_per_s": throughput,
        "predict_ms_p50": p50,
        "predict_ms_tail": tail,
        "predict_ms_tail_percentile": pct,
        "predict_samples": len(ms),
        "call_ms": [[cpu, round(v, 3)] for cpu, v in ms],
        "pass_examples_per_s": pass_rates,
        "passes": len(passes),
        "span_digest": digest(passes[0]),
    }
    return metrics, report


def describe_inputs(wl: Workload, world: World, seed: int) -> dict:
    lengths = [len(ex.passage) for ex in world.examples]
    counts = [len(world.candidates[ex.id]) for ex in world.examples]
    return {
        "seed": seed,
        "examples": len(world.examples),
        "dev_examples": len(world.dev),
        "passage_len_mean": statistics.mean(lengths),
        "passage_len_max": max(lengths),
        "question_len": wl.question_len,
        "candidate_mode": wl.candidate_mode,
        "candidates_per_example": statistics.mean(counts),
        "hidden_size": wl.hidden_size,
        "embedding_dim": wl.embedding_dim,
        "batch_size": wl.batch_size,
        "parameters": int(sum(p.data.size for p in world.model.parameters().values())),
    }
