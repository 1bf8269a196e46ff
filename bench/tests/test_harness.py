"""Fast self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench/tests -q

Each workload shape runs in-process, untraced and traced, for a fraction
of a second on a few short passages; the command-line contract is checked
in a subprocess.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
from workloads import WORKLOADS, tail_percentile  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    CONTRACT = json.load(fh)


def tiny(name):
    wl = WORKLOADS[name]
    small = dict(hidden_size=4, vocab_size=30, setup_repeats=2)
    if wl.embedding_dim > 16:
        small.update(embedding_dim=6, question_len=4, lengths=(6, 9, 7, 8))
        if wl.dev_lengths:
            small["dev_lengths"] = (7,)
    else:
        small["lengths"] = wl.lengths[:8]
    return dataclasses.replace(wl, **small)


def execute(tmp_path, wl, seed=3, trace=False):
    workdir = tmp_path / f"run-{len(list(tmp_path.glob('run-*')))}"
    workdir.mkdir()
    return run.execute(
        wl, seed, 0.05, trace, str(workdir),
        spans_path=str(tmp_path / "spans.jsonl"),
        store_path=str(tmp_path / "digests.json"),
        commit="test",
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_contract_metric(tmp_path, name, trace):
    result, report = execute(tmp_path, tiny(name), trace=trace)
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert report["spans"] > 0
        assert os.path.getsize(tmp_path / "spans.jsonl") > 0
    else:
        assert result["metrics"]["setup_s"]["value"] > 0
        assert result["metrics"]["examples_per_s"]["value"] > 0


def test_same_seed_same_digest_and_mismatch_is_caught(tmp_path):
    wl = tiny("train-toy")
    first, report = execute(tmp_path, wl)
    again, again_report = execute(tmp_path, wl)
    assert first["correct"] and again["correct"]
    assert report["epoch_log_digest"] == again_report["epoch_log_digest"]

    store = tmp_path / "digests.json"
    recorded = json.loads(store.read_text())
    store.write_text(json.dumps({key: "0" * 64 for key in recorded}))
    tampered, tampered_report = execute(tmp_path, wl)
    assert not tampered["correct"]
    assert any("digest" in p for p in tampered_report["problems"])


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    pct, value = tail_percentile(samples)
    assert pct == 90.0
    assert sum(1 for v in samples if v > value) == 10
    assert tail_percentile([1.0, 5.0]) == (100.0, 5.0)


def test_cli_fails_without_the_package(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the command
    exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        CONTRACT["command"] + ["--workload", "train-toy", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_rejects_unknown_workload():
    proc = subprocess.run(
        CONTRACT["command"] + ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
