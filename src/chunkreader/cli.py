"""Command-line entry points.

Subcommands: train, evaluate, predict, chunk-stats, gradcheck. Exit
codes: 0 success, 1 usage or configuration error (settings too large to
allocate included), 2 data error (missing or malformed files, an output
path that is a directory or lies in a missing directory, empty trainable
set, checkpoint mismatch, a checkpoint whose answers are not finite), 3
gradient verification failure. Output paths are checked before any work
starts; `predict` writes --out only once every answer is computed, by
one `ChunkReaderModel.answers` call that bounds its own inference batches.

A command that reads a dataset prints each dropped record's line and
reason on stderr and exits 2 when the file holds no usable example.

Settings, datasets and embedding files are parsed only by the library;
this module checks paths and flags and wires the library's readers:
`trainer.load_train_config` for the --config file and every --set
KEY=VALUE (every setting, the seed included, resolves by precedence:
--set, then the file, then the TrainConfig default),
`corpus.load_dataset`, and `corpus.load_embeddings`, which reads the
width off the first line. A flag that would be ignored is a usage
error: `evaluate --predictions` with --checkpoint or --embeddings,
`chunk-stats --trie-data` without --mode trie.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import numerics as nm
from .checkpoint import CheckpointError, load_checkpoint
from .chunker import CANDIDATE_MODES, build_pos_trie, candidate_recall
from .chunker import enumerate_candidates, generate_candidates
from .corpus import (
    DataError,
    Example,
    Featurizer,
    build_tag_inventories,
    json_lines,
    load_dataset,
    load_embeddings,
    parse_id,
)
from .evaluator import breakdown_by_answer_length, breakdown_by_head_word, evaluate
from .model import ChunkReaderModel, ModelConfig, Prediction, _pad
from .trainer import load_train_config, train


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _bounded(kind, zero_ok=False):
    """argparse type: a finite `kind` number above zero, or at least zero
    when zero_ok."""
    wanted = "non-negative" if zero_ok else "positive"

    def parse(text):
        value = kind(text)
        if isinstance(value, float) and not math.isfinite(value):  # inf would pass below
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not (value >= 0 if zero_ok else value > 0):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its own errors
    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="chunkreader", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and save the best checkpoint")
    p.add_argument("--config", help="flat key-value training config file")
    p.add_argument("--train", required=True, dest="train_path", help="training JSONL")
    p.add_argument("--dev", required=True, dest="dev_path", help="held-out JSONL for early stopping")
    p.add_argument("--embeddings", required=True, help="word vector text file")
    p.add_argument("--out-checkpoint", required=True, help="where the best model goes")
    p.add_argument("--log", help="per-epoch training log path")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override any config field, repeatable")

    p = sub.add_parser("predict", help="write one answer per example as JSONL")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="score predictions against gold answers")
    p.add_argument("--data", required=True)
    p.add_argument("--predictions", help="JSONL from `predict`; otherwise give a checkpoint")
    p.add_argument("--checkpoint")
    p.add_argument("--embeddings")
    p.add_argument("--json-out", help="write the full JSON report here")

    p = sub.add_parser("chunk-stats", help="candidate recall and count statistics")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=CANDIDATE_MODES, default=ModelConfig.candidate_mode)
    p.add_argument("--max-len", type=_bounded(int), default=ModelConfig.max_chunk_len)
    p.add_argument("--trie-data", help="examples whose answers build the trie (default: --data)")

    p = sub.add_parser("gradcheck", help="verify gradients against finite differences")
    p.add_argument("--seed", type=_bounded(int, zero_ok=True), default=0)
    p.add_argument("--hidden-size", type=_bounded(int), default=3)
    p.add_argument("--step", type=_bounded(float), default=1e-4)
    p.add_argument("--tolerance", type=_bounded(float), default=1e-4)
    return parser


def _require_file(path, what: str):
    if not os.path.isfile(path):
        raise DataError(f"{what} not found: {path}")


def _require_output(path, flag: str):
    """An output path must name a file in an existing directory."""
    if path is not None and os.path.isdir(path):
        raise DataError(f"{flag} is a directory: {path}")
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        raise DataError(f"{flag}: directory not found: {os.path.dirname(path)}")


def _load_examples(path, what: str) -> list[Example]:
    """The usable examples of one dataset file. Each dropped record's line
    and reason go to stderr; a file with no usable example is a DataError."""
    _require_file(path, what)
    loaded = load_dataset(path)
    for line_no, reason in loaded.dropped:
        print(f"{path}: dropped line {line_no}: {reason}", file=sys.stderr)
    if not loaded.examples:
        raise DataError(f"no usable examples in {path}")
    return loaded.examples


def _checkpoint_answers(args, examples: list[Example]) -> list[Prediction]:
    """The --checkpoint model's answers to examples, in order, featurized
    with the --embeddings table, which must be as wide as the checkpoint's.
    An example whose probabilities are not finite (a finite checkpoint with
    huge weights) is a DataError naming it."""
    _require_file(args.checkpoint, "checkpoint")
    model = load_checkpoint(args.checkpoint)
    cfg = model.config
    _require_file(args.embeddings, "embedding file")
    table = load_embeddings(args.embeddings)
    if table.dim != cfg.embedding_dim:
        raise DataError(
            f"embedding width {table.dim} does not match the checkpoint's {cfg.embedding_dim}"
        )
    try:
        return model.answers(examples, Featurizer(table, cfg.pos_tags, cfg.ne_tags))
    except ValueError as exc:
        raise DataError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    if args.config:
        _require_file(args.config, "config file")
    try:
        config = load_train_config(args.config, args.set)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _require_output(args.out_checkpoint, "--out-checkpoint")
    _require_output(args.log, "--log")

    train_examples = _load_examples(args.train_path, "training dataset")
    dev_examples = _load_examples(args.dev_path, "dev dataset")
    _require_file(args.embeddings, "embedding file")
    table = load_embeddings(args.embeddings)
    pos_tags, ne_tags = build_tag_inventories(train_examples)
    trie = None
    if config.candidate_mode == "trie":
        trie = build_pos_trie(train_examples, config.max_chunk_len)
    model_config = ModelConfig(
        hidden_size=config.hidden_size,
        embedding_dim=table.dim,
        pos_tags=pos_tags,
        ne_tags=ne_tags,
        candidate_mode=config.candidate_mode,
        max_chunk_len=config.max_chunk_len,
    )
    model = ChunkReaderModel(model_config, trie)
    featurizer = Featurizer(table, pos_tags, ne_tags)
    try:
        result = train(
            model,
            featurizer,
            train_examples,
            dev_examples,
            config,
            log_path=args.log,
            checkpoint_path=args.out_checkpoint,
        )
    except ValueError as exc:  # e.g. every example filtered out
        raise DataError(str(exc)) from None
    print("train stats: " + " ".join(f"{k}={v}" for k, v in result.stats.items()), file=sys.stderr)
    print(
        f"finished: {result.epochs_run} epochs, best dev EM {result.best_em:.4f} "
        f"(F1 {result.best_f1:.4f}) at epoch {result.best_epoch}"
    )
    return 0


def cmd_predict(args) -> int:
    _require_output(args.out, "--out")
    examples = _load_examples(args.data, "dataset")
    answers = _checkpoint_answers(args, examples)
    lines = [json.dumps(dataclasses.asdict(got), allow_nan=False) for got in answers]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"wrote {len(examples)} predictions to {args.out}")
    return 0


def _read_predictions_file(path) -> dict[str, str]:
    _require_file(path, "predictions file")
    out = {}
    ids: dict[str, int] = {}
    for line_no, obj in json_lines(path):
        if not isinstance(obj, dict) or "id" not in obj or "answer" not in obj:
            raise DataError(f"line {line_no}: prediction needs id and answer")
        answer = obj["answer"]
        if not isinstance(answer, str):
            raise DataError(f"line {line_no}: prediction answer must be a string, got {answer!r}")
        out[parse_id(obj["id"], line_no, ids)] = answer
    return out


def cmd_evaluate(args) -> int:
    if args.predictions and (args.checkpoint or args.embeddings):
        raise UsageError(
            "evaluate takes --predictions, or --checkpoint with --embeddings, not both"
        )
    if not (args.predictions or (args.checkpoint and args.embeddings)):
        raise UsageError("evaluate needs --predictions, or --checkpoint with --embeddings")
    _require_output(args.json_out, "--json-out")
    examples = _load_examples(args.data, "dataset")
    if args.predictions:
        predictions = _read_predictions_file(args.predictions)
    else:
        predictions = {got.id: got.answer for got in _checkpoint_answers(args, examples)}
    try:
        report = evaluate(predictions, examples)
    except ValueError as exc:
        raise DataError(str(exc)) from None
    by_length = breakdown_by_answer_length(report)
    heads, bigrams = breakdown_by_head_word(report)
    payload = {
        "count": len(report.records),
        "em": report.em,
        "f1": report.f1,
        "by_answer_length": {str(k): dataclasses.asdict(v) for k, v in by_length.items()},
        "by_head_word": {k: dataclasses.asdict(v) for k, v in heads.items()},
        "what_bigrams": {k: dataclasses.asdict(v) for k, v in bigrams.items()},
    }
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"examples\t{len(report.records)}")
    print(f"exact_match\t{report.em:.6f}")
    print(f"f1\t{report.f1:.6f}")
    for key, row in by_length.items():
        print(f"length\t{key}\t{row.count}\t{row.em:.6f}\t{row.f1:.6f}")
    for key, row in heads.items():
        print(f"head\t{key}\t{row.count}\t{row.em:.6f}\t{row.f1:.6f}")
    return 0


def cmd_chunk_stats(args) -> int:
    if args.trie_data and args.mode != "trie":
        raise UsageError("--trie-data needs --mode trie")
    examples = _load_examples(args.data, "dataset")
    trie = None
    if args.mode == "trie":
        source = _load_examples(args.trie_data, "trie dataset") if args.trie_data else examples
        trie = build_pos_trie(source, args.max_len)
    lists = [generate_candidates(ex.passage, args.mode, trie, args.max_len) for ex in examples]
    recall = candidate_recall(examples, lists)
    counts = [len(c) for c in lists]
    hist = Counter(c.length for cands in lists for c in cands)
    print(f"examples\t{len(examples)}")
    print(f"mode\t{args.mode}")
    print(f"recall\t{recall:.6f}")
    print(f"mean_candidates\t{np.mean(counts):.4f}")
    for length in sorted(hist):
        print(f"length_hist\t{length}\t{hist[length]}")
    return 0


def cmd_gradcheck(args) -> int:
    """Finite-difference audit of the training loss at toy dimensions.

    Differentiates what a training step does without dropout: the mean
    NLL of one `forward_batch` over a zero-padded batch of three examples
    whose passage and question lengths all differ, so padding, per-row
    lengths and the attention's real rows are audited with the rest.
    Drives the network with dense random inputs and parameters at
    +-1.2/sqrt(fan_in) rather than the training setup: near-zero weights
    or sparse one-hot features leave some gradient coordinates at the
    difference-quotient noise floor, where the relative error ratio
    measures roundoff instead of correctness.
    """
    pos_tags = ("ADJ", "NOUN", "VERB")
    ne_tags = ("LOC", "O", "PER")
    config = ModelConfig(
        hidden_size=args.hidden_size,
        embedding_dim=4,
        pos_tags=pos_tags,
        ne_tags=ne_tags,
        max_chunk_len=3,
    )
    model = ChunkReaderModel(config)
    rng = np.random.default_rng(args.seed)
    for p in model.parameters().values():
        bound = 1.2 / np.sqrt(p.data.shape[0])
        p.data[...] = rng.uniform(-bound, bound, size=p.data.shape)
    passages, passage_lens = _pad([rng.normal(size=(n, config.input_width)) for n in (6, 8, 5)])
    questions, question_lens = _pad([rng.normal(size=(k, config.input_width)) for k in (3, 2, 4)])
    candidates = [enumerate_candidates(n, config.max_chunk_len) for n in passage_lens]
    golds = [int(rng.integers(len(c))) for c in candidates]

    def build():
        scored = model.forward_batch(passages, questions, candidates, passage_lens, question_lens)
        return nm.mean_nll([s.scores for s in scored], golds)

    names = list(model.parameters())
    params = list(model.parameters().values())
    errors = nm.finite_difference_errors(build, params, args.step)
    worst = 0.0
    for name, err in zip(names, errors):
        status = "ok" if err < args.tolerance else "BAD"
        print(f"{name}\t{err:.3e}\t{status}")
        worst = max(worst, err)
    if worst < args.tolerance:
        print(f"PASS\tmax relative error {worst:.3e} < {args.tolerance:.0e}")
        return 0
    print(f"FAIL\tmax relative error {worst:.3e} >= {args.tolerance:.0e}")
    return 3


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "chunk-stats": cmd_chunk_stats,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # settings too large to allocate, e.g. a huge hidden_size
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
