"""End-to-end checks of the command-line entry points: exit codes, file
formats, seed precedence, and rerun determinism."""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from chunkreader import cli
from chunkreader import model as M
from chunkreader.checkpoint import load_checkpoint, save_checkpoint
from chunkreader.chunker import build_pos_trie, enumerate_candidates
from chunkreader.corpus import Featurizer, load_dataset, load_embeddings
from chunkreader.encoder import GruCell
from chunkreader.model import ChunkReaderModel
from chunkreader.synthetic import (
    SyntheticSpec,
    generate,
    write_dataset_jsonl,
    write_embeddings_file,
)
from helpers import edit_checkpoint

CONFIG_TEXT = """\
hidden_size 4
batch_size 4
max_epochs 2
dropout_rate 0.0
learning_rate 0.05
max_chunk_len 3
seed 7
"""

ALL_PARAM_NAMES = [
    f"{enc}.{direction}.{field}"
    for enc in ("shared", "attention")
    for direction in ("fwd", "bwd")
    for field in ("W_r", "W_u", "W", "U_r", "U_u", "U")
]


def write_config(path, text=CONFIG_TEXT):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def train_args(paths, **extra):
    args = [
        "train",
        "--config", paths["config"],
        "--train", paths["train"],
        "--dev", paths["dev"],
        "--embeddings", paths["emb"],
        "--out-checkpoint", paths["checkpoint"],
        "--log", paths["log"],
    ]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """Synthetic corpus on disk plus one trained checkpoint."""
    root = tmp_path_factory.mktemp("cliworld")
    spec = SyntheticSpec(
        n_examples=12, seed=3, passage_len=(7, 10), answer_len=(1, 2), embedding_dim=8
    )
    examples, table = generate(spec)
    paths = {
        "train": str(root / "train.jsonl"),
        "dev": str(root / "dev.jsonl"),
        "emb": str(root / "emb.txt"),
        "config": str(root / "config.txt"),
        "checkpoint": str(root / "model.ckpt"),
        "log": str(root / "train.log"),
    }
    write_dataset_jsonl(examples[:8], paths["train"])
    write_dataset_jsonl(examples[8:], paths["dev"])
    write_embeddings_file(table, paths["emb"])
    write_config(paths["config"])
    assert cli.main(train_args(paths)) == 0
    paths["dev_examples"] = load_dataset(paths["dev"]).examples
    return paths


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_log(world):
    model = load_checkpoint(world["checkpoint"])
    assert model.config.hidden_size == 4
    assert model.config.max_chunk_len == 3
    with open(world["log"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 2
    for line in lines:
        cols = line.split("\t")
        assert len(cols) == 4
        int(cols[0])
        float(cols[1])


def test_train_prints_stats_line(world, tmp_path, capsys):
    paths = dict(world, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"))
    assert cli.main(train_args(paths)) == 0
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("train stats: ")]
    assert len(lines) == 1
    stats = dict(item.split("=") for item in lines[0][len("train stats: "):].split(" "))
    assert set(stats) == {
        "train_examples", "dropped_by_truncation", "dropped_by_candidate_filter", "trainable",
        "skipped_steps", "clipped_steps", "max_grad_norm",
    }
    assert float(stats.pop("max_grad_norm")) > 0.0
    counts = {k: int(v) for k, v in stats.items()}
    assert 0 <= counts["clipped_steps"]
    assert counts["train_examples"] == 8
    assert counts["skipped_steps"] == 0
    assert counts["train_examples"] == (
        counts["dropped_by_truncation"] + counts["dropped_by_candidate_filter"] + counts["trainable"]
    )
    # the persisted log carries none of it: same bytes as the fixture's run
    with open(paths["log"], "rb") as fh, open(world["log"], "rb") as ref:
        assert fh.read() == ref.read()


def test_train_missing_dataset_exits_two_naming_path(world, capsys, tmp_path):
    paths = dict(world, train=str(tmp_path / "absent.jsonl"))
    assert cli.main(train_args(paths)) == 2
    assert "absent.jsonl" in capsys.readouterr().err


def test_train_unknown_config_key_exits_one(world, tmp_path, capsys):
    paths = dict(
        world,
        config=write_config(tmp_path / "bad.txt", "hidden_size 4\nwibble 3\n"),
        checkpoint=str(tmp_path / "m.ckpt"),
        log=str(tmp_path / "m.log"),
    )
    assert cli.main(train_args(paths)) == 1
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("batch_size 4\nbatch_size 6\n", "error: line 1 and line 2: batch_size is repeated"),
        ("hidden_size 4\nbatch_size 4 8\n", "error: line 2: batch_size: invalid literal"),
    ],
    ids=["repeated", "bad_value"],
)
def test_train_config_repeated_key_or_bad_value_exits_one_naming_the_line(
    world, tmp_path, capsys, text, message
):
    paths = dict(
        world,
        config=write_config(tmp_path / "bad.txt", text),
        checkpoint=str(tmp_path / "m.ckpt"),
        log=str(tmp_path / "m.log"),
    )
    assert cli.main(train_args(paths)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(message)
    assert not (tmp_path / "m.ckpt").exists()


def test_train_malformed_set_flag_exits_one(world, tmp_path):
    paths = dict(world, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"))
    assert cli.main(train_args(paths, set="nonsense")) == 1
    assert cli.main(train_args(paths, set="bogus_key=3")) == 1


def test_train_repeated_set_key_exits_one_naming_both_values(world, tmp_path, capsys):
    # the overrides used to be collected into a dict, so the last value
    # silently won
    paths = dict(world, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"))
    args = train_args(paths) + ["--set", "batch_size=x", "--set", "batch_size=4"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --set batch_size=x and --set batch_size=4: batch_size is repeated"]
    assert not (tmp_path / "m.ckpt").exists()


def test_train_bad_set_value_exits_one_naming_the_set_string(world, tmp_path, capsys):
    paths = dict(world, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"))
    assert cli.main(train_args(paths, set="learning_rate=fast")) == 1
    assert capsys.readouterr().err == (
        "error: --set learning_rate=fast: learning_rate: "
        "could not convert string to float: 'fast'\n"
    )
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize(
    "setting", ["learning_rate=nan", "learning_rate=inf", "init_range=inf", "init_range=1e308"]
)
def test_train_non_finite_setting_exits_one_without_checkpoint(world, tmp_path, capsys, setting):
    # a nan learning rate used to train to an all-NaN checkpoint, and an
    # init range whose draw width overflows ended in a traceback
    paths = dict(world, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"))
    assert cli.main(train_args(paths, set=setting)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and setting.split("=")[0] in err[0]
    assert not (tmp_path / "m.ckpt").exists()


def test_train_without_config_uses_set_overrides(world, tmp_path):
    args = [
        "train",
        "--train", world["train"],
        "--dev", world["dev"],
        "--embeddings", world["emb"],
        "--out-checkpoint", str(tmp_path / "m.ckpt"),
        "--set", "hidden_size=3",
        "--set", "batch_size=4",
        "--set", "max_epochs=1",
        "--set", "dropout_rate=0.0",
        "--set", "max_chunk_len=3",
    ]
    assert cli.main(args) == 0
    assert load_checkpoint(str(tmp_path / "m.ckpt")).config.hidden_size == 3


def run_train_variant(world, tmp_path, tag, config_text=None, **extra):
    paths = dict(
        world,
        checkpoint=str(tmp_path / f"{tag}.ckpt"),
        log=str(tmp_path / f"{tag}.log"),
    )
    if config_text is not None:
        paths["config"] = write_config(tmp_path / f"{tag}.cfg", config_text)
    assert cli.main(train_args(paths, **extra)) == 0
    with open(paths["log"], "rb") as fh:
        return fh.read()


def test_set_seed_beats_config(world, tmp_path, capsys):
    # config says 7, --set says 11; --set must win, and it is the only
    # seed override: a --seed flag is a usage error
    observed = run_train_variant(world, tmp_path, "overridden", set="seed=11")
    reference = run_train_variant(
        world, tmp_path, "direct11", config_text=CONFIG_TEXT.replace("seed 7", "seed 11")
    )
    assert observed == reference
    assert observed != run_train_variant(world, tmp_path, "plain")
    capsys.readouterr()
    paths = dict(world, checkpoint=str(tmp_path / "flag.ckpt"), log=str(tmp_path / "flag.log"))
    assert cli.main(train_args(paths, seed=11)) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --seed 11")


def test_train_rerun_is_byte_identical(world, tmp_path):
    logs = []
    checkpoints = []
    for tag in ("one", "two"):
        paths = dict(
            world,
            checkpoint=str(tmp_path / f"{tag}.ckpt"),
            log=str(tmp_path / f"{tag}.log"),
        )
        assert cli.main(train_args(paths)) == 0
        with open(paths["log"], "rb") as fh:
            logs.append(fh.read())
        with open(paths["checkpoint"], "rb") as fh:
            checkpoints.append(fh.read())
    assert logs[0] == logs[1]
    assert checkpoints[0] == checkpoints[1]


# ---------------------------------------------------------------------------
# shared argument handling


def test_unknown_subcommand_exits_one(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert cli.main([]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["chunk-stats", "--data", "{dev}", "--max-len", "0"],
        ["chunk-stats", "--data", "{dev}", "--max-len", "-1"],
        ["chunk-stats", "--data", "{dev}", "--mode", "trie", "--max-len", "0"],
        ["gradcheck", "--hidden-size", "0"],
        ["gradcheck", "--step", "0"],
        ["gradcheck", "--step", "-1"],
        ["gradcheck", "--tolerance", "0"],
    ],
    ids=[
        "max-len-0", "max-len-negative", "trie-max-len-0", "hidden-size-0", "step-0",
        "step-negative", "tolerance-0",
    ],
)
def test_non_positive_size_or_step_exits_one_with_one_line(world, capsys, argv):
    assert cli.main([arg.format(dev=world["dev"]) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: argument {argv[-2]}: must be positive") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["--tolerance", "inf"], ["--step", "inf"], ["--step", "nan"], ["--step=-inf"]],
    ids=["tolerance-inf", "step-inf", "step-nan", "step-minus-inf"],
)
def test_gradcheck_non_finite_float_exits_one_with_one_line(capsys, argv):
    # an infinite tolerance would pass any gradient, and an infinite step
    # would run the audit into numpy warnings and a FAIL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["gradcheck"] + argv) == 1
    flag, value = argv[0].split("=") if "=" in argv[0] else argv
    assert capsys.readouterr() == ("", f"error: argument {flag}: must be finite, got {value}\n")


def test_gradcheck_negative_seed_exits_one_with_one_line(capsys):
    assert cli.main(["gradcheck", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: argument --seed: must be non-negative, got -1\n"


@pytest.mark.parametrize("command", ["train", "gradcheck"])
def test_model_too_large_to_allocate_exits_one_with_one_line(world, tmp_path, capsys, command):
    # 10**9 hidden units ask for terabytes: the allocation fails at once,
    # before any page is touched
    if command == "train":
        paths = dict(world, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"))
        argv = train_args(paths, set=f"hidden_size={10**9}")
    else:
        argv = ["gradcheck", "--hidden-size", str(10**9)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _output_flag_args(world, tmp_path, command, flag, path):
    if command == "train":
        key = {"--out-checkpoint": "checkpoint", "--log": "log"}[flag]
        return train_args(dict(world, **{key: path}))
    if command == "predict":
        return predict_args(world, path)
    pairs = [(ex.id, "w1") for ex in world["dev_examples"]]
    predictions = write_predictions(tmp_path / "p.jsonl", pairs)
    return ["evaluate", "--data", world["dev"], "--predictions", predictions, flag, path]


@pytest.mark.parametrize(
    "command, flag",
    [
        ("train", "--out-checkpoint"),
        ("train", "--log"),
        ("predict", "--out"),
        ("evaluate", "--json-out"),
    ],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_bad_output_path_exits_two_before_any_work(
    world, tmp_path, capsys, monkeypatch, command, flag, where
):
    if where == "directory":
        path, message = str(tmp_path), f"{flag} is a directory: {tmp_path}"
    else:
        path = str(tmp_path / "absent" / "out")
        message = f"{flag}: directory not found: {tmp_path / 'absent'}"

    def no_work(*args, **kwargs):
        raise AssertionError("a dataset was read before the output paths were checked")

    monkeypatch.setattr(cli, "_load_examples", no_work)
    assert cli.main(_output_flag_args(world, tmp_path, command, flag, path)) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


# ---------------------------------------------------------------------------
# predict


def predict_args(world, out):
    return [
        "predict",
        "--checkpoint", world["checkpoint"],
        "--data", world["dev"],
        "--embeddings", world["emb"],
        "--out", out,
    ]


def test_predict_emits_one_record_per_example(world, tmp_path):
    out = str(tmp_path / "pred.jsonl")
    assert cli.main(predict_args(world, out)) == 0
    with open(out, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    examples = world["dev_examples"]
    assert [r["id"] for r in records] == [ex.id for ex in examples]
    for record, ex in zip(records, examples):
        assert set(record) == {"id", "answer", "start", "end", "probability"}
        start, end = record["start"], record["end"]
        assert 1 <= start <= end <= len(ex.passage)
        expected = " ".join(t.surface for t in ex.passage[start - 1 : end])
        assert record["answer"] == expected
        assert 0.0 < record["probability"] <= 1.0


def test_predict_rerun_is_byte_identical(world, tmp_path):
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"{tag}.jsonl")
        assert cli.main(predict_args(world, out)) == 0
        with open(out, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_predict_missing_checkpoint_exits_two(world, tmp_path, capsys):
    args = predict_args(dict(world, checkpoint=str(tmp_path / "no.ckpt")), str(tmp_path / "p.jsonl"))
    assert cli.main(args) == 2
    assert "no.ckpt" in capsys.readouterr().err


def _corrupt_first_dev_record(world, tmp_path, corrupt):
    with open(world["dev"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    corrupt(records[0])
    path = tmp_path / "dev.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return dict(world, dev=str(path)), records[0]["id"]


def _set_start(rec):
    rec["answers"][0]["start"] = "two"


def _null_offset(rec):
    rec["passage"][0]["offset"] = None


def _null_id(rec):
    rec["id"] = None


def _null_answer_text(rec):
    rec["answers"][0]["text"] = None


@pytest.mark.parametrize("corrupt", [_set_start, _null_offset, _null_id, _null_answer_text])
def test_predict_malformed_data_exits_two_with_one_line(world, tmp_path, capsys, corrupt):
    paths, _ = _corrupt_first_dev_record(world, tmp_path, corrupt)
    assert cli.main(predict_args(paths, str(tmp_path / "p.jsonl"))) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: line 1:") and err.count("\n") == 1


def test_predict_repeated_dataset_id_exits_two_with_one_line(world, tmp_path, capsys):
    with open(world["dev"], encoding="utf-8") as fh:
        lines = fh.readlines()
    path = tmp_path / "dev.jsonl"
    path.write_text(lines[0] + lines[0] + "".join(lines[1:]), encoding="utf-8")
    assert cli.main(predict_args(dict(world, dev=str(path)), str(tmp_path / "p.jsonl"))) == 2
    first_id = json.loads(lines[0])["id"]
    assert capsys.readouterr().err == f"data error: line 2: id {first_id!r} repeats line 1\n"


@pytest.mark.parametrize("side", ["passage", "question"])
def test_predict_skips_empty_passage_or_question(world, tmp_path, capsys, side):
    # no answers either, so no span check can drop the record first
    paths, dropped_id = _corrupt_first_dev_record(
        world, tmp_path, lambda rec: rec.update({side: [], "answers": []})
    )
    out = str(tmp_path / "p.jsonl")
    assert cli.main(predict_args(paths, out)) == 0
    capsys.readouterr()
    with open(out, encoding="utf-8") as fh:
        ids = [json.loads(line)["id"] for line in fh]
    assert ids == [ex.id for ex in world["dev_examples"] if ex.id != dropped_id]


@pytest.mark.parametrize(
    "old, new",
    [
        (b"manifest_bytes ", b"manifest_bytes x"),
        (b"hidden_size 4", b"hidden_size x"),
        (b"candidate_mode window", b"candidate_mode wibble"),
        (b"precision float64", b"precision \xff\xfeat64"),
        # same-length edits: a bad flag, then each saved setting renamed away
        (b"normalize_attention 0", b"normalize_attention x"),
        (b"candidate_mode window", b"xandidate_mode window"),
        (b"max_chunk_len 3", b"xax_chunk_len 3"),
        (b"scoring dot", b"xcoring dot"),
        (b"normalize_attention 0", b"xormalize_attention 0"),
        # a stray key or a repeated setting next to the real one
        (b"scoring dot\n", b"scoring dot\nxcoring dot\n"),
        (b"scoring dot\n", b"scoring dot\nscoring cosine\n"),
        # a second tag inventory used to win silently, permuting the one-hot columns
        (b"ne_tags ", b"pos_tags VERB PROPN NOUN DET ADJ\nne_tags "),
    ],
)
def test_predict_malformed_checkpoint_exits_two_with_one_line(world, tmp_path, capsys, old, new):
    with open(world["checkpoint"], "rb") as fh:
        raw = fh.read()
    assert old in raw
    path = tmp_path / "bad.ckpt"
    path.write_bytes(edit_checkpoint(raw, old, new))
    args = predict_args(dict(world, checkpoint=str(path)), str(tmp_path / "p.jsonl"))
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def trie_checkpoint_bytes(world, tmp_path_factory):
    """The world's trained weights saved as a trie-mode checkpoint whose
    trie holds the training answers' patterns, capped at max_chunk_len 3."""
    model = load_checkpoint(world["checkpoint"])
    train_examples = load_dataset(world["train"]).examples
    trie = build_pos_trie(train_examples, model.config.max_chunk_len)
    trie_model = ChunkReaderModel(dataclasses.replace(model.config, candidate_mode="trie"), trie)
    for name, p in trie_model.parameters().items():
        p.data[...] = model.parameters()[name].data
    path = tmp_path_factory.mktemp("trieckpt") / "trie.ckpt"
    save_checkpoint(trie_model, path)
    assert load_checkpoint(path).trie.depth_cap == 3  # loads as saved, before any edit
    return path.read_bytes()


@pytest.mark.parametrize(
    "old, new, reason",
    [
        # a pattern longer than the cap used to load with the pattern dropped
        (b"trie_depth_cap 3\n", b"trie_depth_cap 3\ntrie_pattern 1 X X X X\n",
         "pattern of 4 tags exceeds the depth cap 3"),
        # a cap other than max_chunk_len used to load and propose longer chunks
        (b"trie_depth_cap 3\n", b"trie_depth_cap 9\n",
         "trie depth cap 9 differs from max_chunk_len 3"),
    ],
    ids=["pattern-over-cap", "cap-differs"],
)
def test_predict_trie_checkpoint_beyond_its_cap_exits_two_with_one_line(
    world, tmp_path, capsys, trie_checkpoint_bytes, old, new, reason
):
    assert old in trie_checkpoint_bytes
    path = tmp_path / "bad.ckpt"
    path.write_bytes(edit_checkpoint(trie_checkpoint_bytes, old, new))
    out = tmp_path / "p.jsonl"
    assert cli.main(predict_args(dict(world, checkpoint=str(path)), str(out))) == 2
    assert capsys.readouterr().err == f"data error: invalid model settings: {reason}\n"
    assert not out.exists()


def test_predict_nan_weight_checkpoint_exits_two_without_output(world, tmp_path, capsys):
    # such a checkpoint used to load and give "probability": NaN, which is
    # not JSON, for every example
    model = load_checkpoint(world["checkpoint"])
    model.parameters()["shared.fwd.U"].data[0, 0] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(model, path)
    out = tmp_path / "p.jsonl"
    assert cli.main(predict_args(dict(world, checkpoint=str(path)), str(out))) == 2
    err = capsys.readouterr().err
    assert err == "data error: parameter shared.fwd.U holds a non-finite value\n"
    assert not out.exists()


def test_huge_weight_checkpoint_exits_two_naming_the_example(world, tmp_path, capsys):
    # finite weights of +-1e308 overflow in the forward: predict used to
    # print numpy warnings and a traceback and leave an empty --out
    model = load_checkpoint(world["checkpoint"])
    rng = np.random.default_rng(0)
    for p in model.parameters().values():
        p.data[...] = rng.choice([-1e308, 1e308], size=p.data.shape)
    path = tmp_path / "huge.ckpt"
    save_checkpoint(model, path)
    out = tmp_path / "p.jsonl"
    first = world["dev_examples"][0].id
    expected = f"data error: example {first!r}: probabilities are not finite\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(predict_args(dict(world, checkpoint=str(path)), str(out))) == 2
        assert capsys.readouterr().err == expected
        assert not out.exists()
        report = tmp_path / "report.json"
        assert cli.main([
            "evaluate", "--data", world["dev"], "--checkpoint", str(path),
            "--embeddings", world["emb"], "--json-out", str(report),
        ]) == 2
        assert capsys.readouterr().err == expected
        assert not report.exists()


def test_batched_predict_and_evaluate_equal_answers_one_at_a_time(
    world, tmp_path, monkeypatch, capsys
):
    # more examples than one inference batch holds, of unequal lengths: the
    # output is the per-example answers, in input order, whatever the
    # inference batch size
    spec = SyntheticSpec(n_examples=2 * M.ANSWER_BATCH + 5, seed=8, passage_len=(4, 20))
    examples, _ = generate(spec)
    data = str(tmp_path / "many.jsonl")
    write_dataset_jsonl(examples, data)
    model = load_checkpoint(world["checkpoint"])
    cfg = model.config
    fz = Featurizer(load_embeddings(world["emb"], cfg.embedding_dim), cfg.pos_tags, cfg.ne_tags)
    reference = "".join(
        json.dumps(dataclasses.asdict(model.answers([ex], fz)[0])) + "\n" for ex in examples
    )

    reports = []
    for batch in (M.ANSWER_BATCH, 1):
        monkeypatch.setattr(M, "ANSWER_BATCH", batch)
        out = tmp_path / f"pred{batch}.jsonl"
        assert cli.main(predict_args(dict(world, dev=data), str(out))) == 0
        assert out.read_text(encoding="utf-8") == reference, batch
        report = tmp_path / f"report{batch}.json"
        assert cli.main([
            "evaluate", "--data", data, "--checkpoint", world["checkpoint"],
            "--embeddings", world["emb"], "--json-out", str(report),
        ]) == 0
        reports.append(report.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_non_utf8_dataset_exits_two_with_one_line(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\xff\xfe{}\n")
    assert cli.main(["chunk-stats", "--data", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "data error: line 1: not valid UTF-8\n"


def test_non_utf8_embedding_word_exits_two_with_one_line(world, tmp_path, capsys):
    with open(world["emb"], "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    path = tmp_path / "emb.txt"
    path.write_bytes(lines[0] + b"\xff" + lines[1] + b"".join(lines[2:]))
    args = predict_args(dict(world, emb=str(path)), str(tmp_path / "p.jsonl"))
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err == "data error: line 2: not valid UTF-8\n"


def test_non_utf8_first_embedding_line_exits_two_with_one_line(world, tmp_path, capsys):
    # the width is read off the first line before the table loads
    with open(world["emb"], "rb") as fh:
        raw = fh.read()
    path = tmp_path / "emb.txt"
    path.write_bytes(b"\xff" + raw)
    assert cli.main(predict_args(dict(world, emb=str(path)), str(tmp_path / "p.jsonl"))) == 2
    assert capsys.readouterr().err == "data error: line 1: not valid UTF-8\n"


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_embeddings_of_another_width_than_the_checkpoint_exit_two(world, tmp_path, capsys, command):
    path = tmp_path / "emb.txt"
    path.write_text("w1 0.5 0.5\n", encoding="utf-8")
    if command == "predict":
        args = predict_args(dict(world, emb=str(path)), str(tmp_path / "p.jsonl"))
    else:
        args = ["evaluate", "--data", world["dev"], "--checkpoint", world["checkpoint"],
                "--embeddings", str(path)]
    assert cli.main(args) == 2
    assert capsys.readouterr().err == "data error: embedding width 2 does not match the checkpoint's 8\n"
    assert list(tmp_path.iterdir()) == [path]


def test_no_candidate_example_is_answered_empty(tmp_path, capsys):
    # in trie mode, dev passages syn12 and syn13 match no trained pattern
    examples, table = generate(SyntheticSpec(n_examples=14, seed=1))
    paths = {
        "train": str(tmp_path / "train.jsonl"),
        "dev": str(tmp_path / "dev.jsonl"),
        "emb": str(tmp_path / "emb.txt"),
        "config": write_config(tmp_path / "config.txt"),
        "checkpoint": str(tmp_path / "model.ckpt"),
        "log": str(tmp_path / "train.log"),
    }
    write_dataset_jsonl(examples[:10], paths["train"])
    write_dataset_jsonl(examples[10:], paths["dev"])
    write_embeddings_file(table, paths["emb"])
    assert cli.main(train_args(paths, set="candidate_mode=trie")) == 0
    with open(paths["log"], encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 2
    out = str(tmp_path / "pred.jsonl")
    assert cli.main(predict_args(paths, out)) == 0
    with open(out, encoding="utf-8") as fh:
        records = {r["id"]: r for r in map(json.loads, fh)}
    assert list(records) == [ex.id for ex in examples[10:]]
    assert records["syn12"] == {
        "id": "syn12", "answer": "", "start": None, "end": None, "probability": None,
    }
    assert cli.main([
        "evaluate", "--data", paths["dev"],
        "--checkpoint", paths["checkpoint"], "--embeddings", paths["emb"],
    ]) == 0
    assert "examples\t4" in capsys.readouterr().out


def _records_with_drops(world, path, keep_rest):
    """The dev file with an empty passage on line 1 and an empty question on
    line 2; without keep_rest, those two records are all it holds."""
    with open(world["dev"], encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    records[0].update(passage=[], answers=[])
    records[1].update(question=[], answers=[])
    if not keep_rest:
        records = records[:2]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def _args_reading(command, data, world, tmp_path):
    """Arguments for `command` with `data` as the dataset under test."""
    if command == "train":
        return train_args(dict(
            world, train=data, checkpoint=str(tmp_path / "m.ckpt"), log=str(tmp_path / "m.log"),
        ))
    if command == "predict":
        return predict_args(dict(world, dev=data), str(tmp_path / "p.jsonl"))
    if command == "evaluate":
        return [
            "evaluate", "--data", data,
            "--checkpoint", world["checkpoint"], "--embeddings", world["emb"],
        ]
    return ["chunk-stats", "--data", world["dev"], "--mode", "trie", "--trie-data", data]


@pytest.mark.parametrize("command", ["train", "predict", "evaluate", "chunk-stats"])
def test_dropped_records_reported_and_empty_set_exits_two(world, tmp_path, capsys, command):
    some = _records_with_drops(world, tmp_path / "some.jsonl", keep_rest=True)
    assert cli.main(_args_reading(command, some, world, tmp_path)) == 0
    err = capsys.readouterr().err.splitlines()
    assert f"{some}: dropped line 1: empty passage" in err
    assert f"{some}: dropped line 2: empty question" in err

    none = _records_with_drops(world, tmp_path / "none.jsonl", keep_rest=False)
    assert cli.main(_args_reading(command, none, world, tmp_path)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[:2] == [
        f"{none}: dropped line 1: empty passage",
        f"{none}: dropped line 2: empty question",
    ]
    assert err[-1] == f"data error: no usable examples in {none}"


# ---------------------------------------------------------------------------
# evaluate


def write_predictions(path, pairs):
    with open(path, "w", encoding="utf-8") as fh:
        for ex_id, answer in pairs:
            fh.write(json.dumps({"id": ex_id, "answer": answer}) + "\n")
    return str(path)


@pytest.mark.parametrize(
    "raw, reason",
    [
        (b'{"id": "a", "answer": "x"}\n\xff\n', "line 2: not valid UTF-8"),
        (b'{"id": "a", "answer": "x"}\n5\n', "line 2: prediction needs id and answer"),
        (b'["id", "answer"]\n', "line 1: prediction needs id and answer"),
        (b"[" * 100_000 + b"\n", "line 1: invalid JSON: beyond the parser's limits"),
        (b'{"id": "a", "answer": null}\n', "line 1: prediction answer must be a string, got None"),
        (b'{"id": null, "answer": "x"}\n', "line 1: id must be a string, got None"),
        (b'{"id": 5, "answer": "x"}\n', "line 1: id must be a string, got 5"),
        (b'{"id": "a", "answer": "x"}\n{"id": "a", "answer": "y"}\n', "line 2: id 'a' repeats line 1"),
    ],
    ids=["non-utf8", "number", "array", "deep-nesting", "non-string-answer", "null-id", "int-id",
         "repeated-id"],
)
def test_evaluate_malformed_predictions_exits_two_with_one_line(world, tmp_path, capsys, raw, reason):
    path = tmp_path / "p.jsonl"
    path.write_bytes(raw)
    assert cli.main(["evaluate", "--data", world["dev"], "--predictions", str(path)]) == 2
    assert capsys.readouterr().err == f"data error: {reason}\n"


def test_evaluate_from_predictions_file(world, tmp_path, capsys):
    examples = world["dev_examples"]
    pairs = [(ex.id, ex.answers[0].text) for ex in examples[:2]]
    pairs += [(ex.id, "zzz qqq") for ex in examples[2:]]
    pred_path = write_predictions(tmp_path / "p.jsonl", pairs)
    report_path = str(tmp_path / "report.json")
    code = cli.main([
        "evaluate", "--data", world["dev"],
        "--predictions", pred_path, "--json-out", report_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"exact_match\t{2 / len(examples):.6f}" in out
    with open(report_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["count"] == len(examples)
    assert payload["em"] == pytest.approx(2 / len(examples))
    assert payload["f1"] == pytest.approx(2 / len(examples))
    assert set(payload) == {
        "count", "em", "f1", "by_answer_length", "by_head_word", "what_bigrams",
    }
    assert sum(row["count"] for row in payload["by_answer_length"].values()) == len(examples)


def test_evaluate_with_checkpoint_matches_prediction_route(world, tmp_path, capsys):
    pred_path = str(tmp_path / "pred.jsonl")
    assert cli.main(predict_args(world, pred_path)) == 0
    direct = str(tmp_path / "direct.json")
    routed = str(tmp_path / "routed.json")
    assert cli.main([
        "evaluate", "--data", world["dev"],
        "--checkpoint", world["checkpoint"], "--embeddings", world["emb"],
        "--json-out", direct,
    ]) == 0
    assert cli.main([
        "evaluate", "--data", world["dev"],
        "--predictions", pred_path, "--json-out", routed,
    ]) == 0
    capsys.readouterr()
    with open(direct, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(routed, encoding="utf-8") as fh:
        b = json.load(fh)
    assert a == b


def test_evaluate_without_source_exits_one(world, capsys):
    assert cli.main(["evaluate", "--data", world["dev"]]) == 1
    assert "predictions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "given", [[], ["--checkpoint"], ["--embeddings"]], ids=["none", "checkpoint", "embeddings"]
)
def test_evaluate_without_source_exits_one_before_reading_data(world, tmp_path, capsys, given):
    # the score source is a usage question: it is settled before --data is
    # read, so a missing dataset does not turn it into a data error
    paths = {"--checkpoint": world["checkpoint"], "--embeddings": world["emb"]}
    args = ["evaluate", "--data", str(tmp_path / "missing.jsonl")]
    for flag in given:
        args += [flag, paths[flag]]
    assert cli.main(args) == 1
    assert capsys.readouterr() == (
        "", "error: evaluate needs --predictions, or --checkpoint with --embeddings\n"
    )


@pytest.mark.parametrize("extra", [["--checkpoint"], ["--embeddings"], ["--checkpoint", "--embeddings"]])
def test_evaluate_predictions_with_a_checkpoint_flag_exits_one(world, tmp_path, capsys, extra):
    # the checkpoint and the embeddings used to be ignored without a word
    pred_path = write_predictions(tmp_path / "p.jsonl", [(ex.id, "w1") for ex in world["dev_examples"]])
    given = {"--checkpoint": world["checkpoint"], "--embeddings": world["emb"]}
    args = ["evaluate", "--data", world["dev"], "--predictions", pred_path]
    for flag in extra:
        args += [flag, given[flag]]
    assert cli.main(args) == 1
    assert capsys.readouterr() == (
        "", "error: evaluate takes --predictions, or --checkpoint with --embeddings, not both\n"
    )


def test_evaluate_id_mismatch_exits_two(world, tmp_path, capsys):
    pred_path = write_predictions(tmp_path / "p.jsonl", [("ghost", "w1")])
    assert cli.main(["evaluate", "--data", world["dev"], "--predictions", pred_path]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# chunk-stats


def test_chunk_stats_window_reports_expected_numbers(world, capsys):
    assert cli.main([
        "chunk-stats", "--data", world["dev"], "--mode", "window", "--max-len", "3",
    ]) == 0
    out = capsys.readouterr().out
    rows = dict()
    hist = {}
    for line in out.splitlines():
        cols = line.split("\t")
        if cols[0] == "length_hist":
            hist[int(cols[1])] = int(cols[2])
        else:
            rows[cols[0]] = cols[1]
    examples = world["dev_examples"]
    counts = [len(enumerate_candidates(len(ex.passage), 3)) for ex in examples]
    assert rows["examples"] == str(len(examples))
    assert rows["recall"] == "1.000000"
    assert float(rows["mean_candidates"]) == pytest.approx(np.mean(counts), abs=1e-4)
    assert set(hist) <= {1, 2, 3}
    assert sum(hist.values()) == sum(counts)


def test_chunk_stats_trie_mode_runs(world, capsys):
    assert cli.main(["chunk-stats", "--data", world["dev"], "--mode", "trie"]) == 0
    out = capsys.readouterr().out
    assert "mode\ttrie" in out
    assert "recall\t1.000000" in out


def test_chunk_stats_trie_data_without_trie_mode_exits_one(world, capsys):
    # the trie data used to be ignored without a word in window mode
    args = ["chunk-stats", "--data", world["dev"], "--trie-data", world["train"]]
    assert cli.main(args) == 1
    assert capsys.readouterr() == ("", "error: --trie-data needs --mode trie\n")
    assert cli.main(args + ["--mode", "window"]) == 1
    assert cli.main(args + ["--mode", "trie"]) == 0


def test_chunk_stats_unknown_mode_exits_one(world, capsys):
    assert cli.main(["chunk-stats", "--data", world["dev"], "--mode", "sideways"]) == 1
    assert "sideways" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes_and_lists_every_parameter(capsys):
    assert cli.main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[-1].startswith("PASS")
    reported = {line.split("\t")[0] for line in lines[:-1]}
    assert reported == set(ALL_PARAM_NAMES)


def test_gradcheck_detects_corrupted_backward(capsys, monkeypatch):
    """A one percent error in one weight's gradient from the fused GRU
    backward must trip the gate."""
    backprop = GruCell.backprop

    def crooked_backprop(self, *args, **kwargs):
        dX, grads = backprop(self, *args, **kwargs)
        grads[5] = grads[5] * 1.01  # dU
        return dX, grads

    monkeypatch.setattr(GruCell, "backprop", crooked_backprop)
    assert cli.main(["gradcheck"]) == 3
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("FAIL")


def test_gradcheck_detects_a_backward_wrong_only_on_shorter_rows(capsys, monkeypatch):
    """An input gradient one percent off on each row shorter than its
    batch's longest, and right on every other row, must trip the gate:
    only a padded batch of mixed lengths has such rows, so an audit of one
    unpadded example passes this backward."""
    backprop = GruCell.backprop

    def crooked_backprop(self, g, X, states, input_grad):
        dX, grads = backprop(self, g, X, states, input_grad)
        lengths = np.bincount(states.index // X.shape[1], minlength=X.shape[0])
        if dX is not None:
            dX[lengths < X.shape[1]] *= 1.01
        return dX, grads

    monkeypatch.setattr(GruCell, "backprop", crooked_backprop)
    assert cli.main(["gradcheck"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("FAIL")
    # the attention encoder's input gradient reaches only the shared weights
    bad = {line.split("\t")[0] for line in lines[:-1] if line.endswith("\tBAD")}
    assert bad and all(name.startswith("shared.") for name in bad)
