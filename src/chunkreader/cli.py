"""Command-line entry points.

Subcommands: train, evaluate, predict, chunk-stats, gradcheck,
convert-squad. Exit codes: 0 success, 1 usage or configuration error
(settings too large to allocate included, and an output that names the
file of another path flag of the command), 2 data error (an input that
cannot be read or an output that cannot be written, found before any
work; malformed files, empty trainable set, checkpoint mismatch, a
checkpoint whose answers are not finite), 3 gradient verification
failure. The library raises `corpus.DataError` or `CheckpointError`
where it finds unusable input, `_citing` prefixes one raised while a
file is read, or its examples checked, with that file's path (an
`OSError` names its file already), and `main` alone turns a failure
into its exit code and one line. Each output is probed before any file
is read (`_require_outputs`); an input is checked by its reader's own
open, so it may be a pipe. `predict` writes --out only once every
answer is computed, by one `ChunkReaderModel.answers` call that bounds
its own inference batches, and `convert-squad` writes --out only once
the whole conversion (`squad.convert_squad`) has succeeded.

A command that reads a dataset prints each dropped record's line and
reason on stderr and exits 2 when the file holds no usable example;
`convert-squad` exits 2, writing nothing, when it converts no question.

Settings, datasets, embedding files and SQuAD files are parsed only by
the library; this module checks output paths and flags and wires the
library's readers:
`trainer.load_train_config` for the --config file and every --set
KEY=VALUE (every setting, the seed included, resolves by precedence:
--set, then the file, then the TrainConfig default),
`corpus.load_dataset`, `corpus.load_embeddings`, which reads the
width off the first line, and `squad`'s `load_squad` and
`load_annotations`. `chunk-stats --max-len` is read by `nm.read_int`.
A flag that would be ignored is a usage error: `evaluate --predictions`
with --checkpoint or --embeddings. `chunk-stats --trie-data` picks the
pattern table, as a model's table picks it, and `gradcheck` takes no flag.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager

import numpy as np

from . import numerics as nm
from .checkpoint import CheckpointError, load_checkpoint, temporary_path
from .chunker import build_pos_trie, candidate_recall
from .chunker import enumerate_candidates, generate_candidates
from .corpus import (
    DataError,
    Example,
    Featurizer,
    build_tag_inventories,
    json_field,
    json_lines,
    load_dataset,
    load_embeddings,
    parse_id,
)
from .evaluator import breakdown_by_answer_length, breakdown_by_head_word, check_gold, evaluate
from .model import ChunkReaderModel, ModelConfig, Prediction, _pad
from .squad import convert_squad, load_annotations, load_squad
from .synthetic import write_dataset_jsonl
from .trainer import load_train_config, train


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _max_len(text: str) -> int:
    """argparse type of --max-len: `nm.read_int`'s digits, 1 or more."""
    if (value := nm.read_int(text, "value", argparse.ArgumentTypeError)) < 1:
        raise argparse.ArgumentTypeError(f"value must be 1 or more, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="chunkreader", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and save the best checkpoint")
    p.add_argument("--config", help="flat key-value training config file")
    p.add_argument("--train", required=True, help="training JSONL")
    p.add_argument("--dev", required=True, help="held-out JSONL for early stopping")
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
    p.add_argument("--max-len", type=_max_len, default=ModelConfig.max_chunk_len)
    p.add_argument("--trie-data", help="answers that build the pattern table (default: every span)")

    sub.add_parser("gradcheck", help="verify gradients against finite differences")

    p = sub.add_parser("convert-squad", help="join SQuAD JSON and token annotations into a dataset")
    p.add_argument("--squad", required=True, help="raw SQuAD v1.1 JSON")
    p.add_argument("--annotations", required=True, help="token annotation JSONL")
    p.add_argument("--out", required=True, help="output dataset JSONL")
    return parser


def _require_outputs(args, inputs: tuple[str, ...], outputs: tuple[str, ...], *more):
    """Before any file is read: no output (a path flag named by its dest in
    outputs, or a (flag, path) in more) may name the file of another path
    by os.path.realpath, else a UsageError, and each output must open for
    append (a file the probe created is removed), else a DataError."""
    pairs = [(f"--{dest.replace('_', '-')}", getattr(args, dest)) for dest in inputs + outputs]
    named = [(flag, path) for flag, path in pairs + list(more) if path is not None]
    written = named[sum(getattr(args, dest) is not None for dest in inputs):]
    real = [os.path.realpath(path) for _, path in named]
    for i, (flag, path) in enumerate(written, start=len(named) - len(written)):
        for j, (other, _) in enumerate(named):
            if j != i and real[j] == real[i]:
                raise UsageError(f"{flag} and {other} name the same file: {path}")
    for flag, path in written:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise DataError(f"{flag}: cannot write {path}: {exc.strerror}") from None
        if not existed:
            os.remove(path)


@contextmanager
def _citing(path):
    """Re-raise a DataError or CheckpointError from reading the file at
    path as `<path>: <reason>`."""
    try:
        yield
    except (DataError, CheckpointError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_examples(path, scored: bool = False) -> list[Example]:
    """The usable examples of one dataset file. Each dropped record's line
    and reason go to stderr; a file with no usable example, or (`scored`)
    one `evaluate` cannot score (`check_gold`), is a DataError."""
    with _citing(path):
        loaded = load_dataset(path)
        for line_no, reason in loaded.dropped:
            print(f"{path}: dropped line {line_no}: {reason}", file=sys.stderr)
        if not loaded.examples:
            raise DataError("no usable examples")
        if scored:
            check_gold(loaded.examples)
    return loaded.examples


def _checkpoint_answers(args, examples: list[Example]) -> list[Prediction]:
    """The --checkpoint model's answers to examples, in order, featurized
    with the --embeddings table, which must be as wide as the checkpoint's.
    An example whose probabilities are not finite (a finite checkpoint with
    huge weights) is a DataError naming it."""
    with _citing(args.checkpoint):
        model = load_checkpoint(args.checkpoint)
    cfg = model.config
    with _citing(args.embeddings):
        table = load_embeddings(args.embeddings)
    if table.dim != cfg.embedding_dim:
        raise DataError(
            f"embedding width {table.dim} does not match the checkpoint's {cfg.embedding_dim}"
        )
    return model.answers(examples, Featurizer(table, cfg.pos_tags, cfg.ne_tags))


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    _require_outputs(args, ("config", "train", "dev", "embeddings"), ("out_checkpoint", "log"),
                     ("--out-checkpoint", temporary_path(args.out_checkpoint)))
    try:
        config = load_train_config(args.config, args.set)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    train_examples = _load_examples(args.train)
    dev_examples = _load_examples(args.dev, scored=True)
    with _citing(args.embeddings):
        table = load_embeddings(args.embeddings)
    with _citing(args.train):
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
    result = train(
        model,
        featurizer,
        train_examples,
        dev_examples,
        config,
        log_path=args.log,
        checkpoint_path=args.out_checkpoint,
    )
    print("train stats: " + " ".join(f"{k}={v}" for k, v in result.stats.items()), file=sys.stderr)
    print(
        f"finished: {result.epochs_run} epochs, best dev EM {result.best_em:.4f} "
        f"(F1 {result.best_f1:.4f}) at epoch {result.best_epoch}"
    )
    return 0


def cmd_predict(args) -> int:
    _require_outputs(args, ("checkpoint", "data", "embeddings"), ("out",))
    examples = _load_examples(args.data)
    answers = _checkpoint_answers(args, examples)
    lines = [json.dumps(dataclasses.asdict(got), allow_nan=False) for got in answers]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)
    print(f"wrote {len(examples)} predictions to {args.out}")
    return 0


def _read_predictions_file(path) -> dict[str, str]:
    """Id -> answer from a JSONL file of objects with a new string `id`
    (`parse_id`) and a string `answer` (`json_field`)."""
    out = {}
    ids: dict[str, int] = {}
    for line_no, obj in json_lines(path):
        where = f"line {line_no}: prediction"
        out[parse_id(obj, line_no, ids, where)] = json_field(obj, "answer", str, where)
    return out


def cmd_evaluate(args) -> int:
    if args.predictions and (args.checkpoint or args.embeddings):
        raise UsageError(
            "evaluate takes --predictions, or --checkpoint with --embeddings, not both"
        )
    if not (args.predictions or (args.checkpoint and args.embeddings)):
        raise UsageError("evaluate needs --predictions, or --checkpoint with --embeddings")
    _require_outputs(args, ("data", "predictions", "checkpoint", "embeddings"), ("json_out",))
    examples = _load_examples(args.data, scored=True)
    if args.predictions:
        with _citing(args.predictions):
            predictions = _read_predictions_file(args.predictions)
    else:
        predictions = {got.id: got.answer for got in _checkpoint_answers(args, examples)}
    report = evaluate(predictions, examples)
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
    examples = _load_examples(args.data)
    trie = None
    if args.trie_data:  # the same path is read once, so it may be a pipe
        trie = build_pos_trie(
            examples if args.trie_data == args.data else _load_examples(args.trie_data), args.max_len
        )
    lists = [generate_candidates(ex.passage, trie, args.max_len) for ex in examples]
    recall = candidate_recall(examples, lists)
    counts = [len(c) for c in lists]
    hist = Counter(c.length for cands in lists for c in cands)
    print(f"examples\t{len(examples)}")
    print(f"mode\t{'window' if trie is None else 'trie'}")
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
    measures roundoff instead of correctness. The audit is fixed: seed 0,
    hidden size 3, difference step 1e-4 and pass bound 1e-4 on the error.
    """
    step, tolerance = 1e-4, 1e-4
    config = ModelConfig(
        hidden_size=3, embedding_dim=4, pos_tags=("ADJ", "NOUN", "VERB"), ne_tags=("LOC", "O", "PER"),
        max_chunk_len=3,
    )
    model = ChunkReaderModel(config)
    rng = np.random.default_rng(0)
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
    errors = nm.finite_difference_errors(build, params, step)
    for name, err in zip(names, errors):
        status = "ok" if err < tolerance else "BAD"
        print(f"{name}\t{err:.3e}\t{status}")
    worst = max(errors)
    if worst < tolerance:
        print(f"PASS\tmax relative error {worst:.3e} < {tolerance:.0e}")
        return 0
    print(f"FAIL\tmax relative error {worst:.3e} >= {tolerance:.0e}")
    return 3


def cmd_convert_squad(args) -> int:
    _require_outputs(args, ("squad", "annotations"), ("out",))
    with _citing(args.squad):
        squad = load_squad(args.squad)
    with _citing(args.annotations):
        annotations = load_annotations(args.annotations)
    with _citing(args.squad):
        examples, no_annotation, no_answers, skipped_answers = convert_squad(squad, annotations)
        if not examples:  # every other command would reject the empty --out
            raise DataError(
                f"no question converted: {no_annotation} with no annotation entry, "
                f"{no_answers} with no mappable answer"
            )
    write_dataset_jsonl(examples, args.out)
    print(f"wrote {len(examples)} examples to {args.out}", file=sys.stderr)
    if no_annotation:
        print(f"dropped {no_annotation} questions with no annotation entry", file=sys.stderr)
    if no_answers:
        print(f"dropped {no_answers} questions with no mappable answer", file=sys.stderr)
    if skipped_answers:
        print(f"skipped {skipped_answers} individual unmappable answers", file=sys.stderr)
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "chunk-stats": cmd_chunk_stats,
    "gradcheck": cmd_gradcheck,
    "convert-squad": cmd_convert_squad,
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
    except (DataError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
