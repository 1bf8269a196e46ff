"""Model persistence: a text manifest followed by one binary blob.

Layout of a checkpoint file:

    chunkreader-checkpoint 1\n          fixed magic + format version
    manifest_bytes <N>\n                 byte length of the manifest text
    <manifest, exactly N bytes of UTF-8 key-value lines>
    <blob: little-endian float64, parameters in manifest order>

The manifest pins everything needed to rebuild the model object: the
fixed `format_version 1` and `precision float64` lines, then the
settings lines, one `name value` line per `ModelConfig` field in
declaration order (tag inventories last; an int as digits, a bool as 0
or 1, tags space-joined), then the learned trie in trie mode and the
name and shape of every parameter tensor. Saving the same model twice
produces identical bytes. Loading requires each settings line exactly
once, rejects a key it does not know and a parameter holding a NaN or an
infinity, and ignores the trie lines older versions wrote for window
models.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import fields

import numpy as np

from .chunker import PosPatternTrie
from .model import ChunkReaderModel, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = "chunkreader-checkpoint 1"
_FIXED = {"format_version": "1", "precision": "float64"}


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def _int(text: str, what: str) -> int:
    if not (text.isascii() and text.isdigit() and len(text) <= 18):
        raise CheckpointError(f"{what} must be a non-negative integer below 10**18, got {text[:40]!r}")
    return int(text)


def _bool(text: str, what: str) -> bool:
    if text not in ("0", "1"):
        raise CheckpointError(f"{what} must be 0 or 1, got {text[:40]!r}")
    return text == "1"


def _tags_text(tags: tuple[str, ...]) -> str:
    for tag in tags:
        if not tag or any(ch.isspace() for ch in tag):
            raise CheckpointError(f"tag {tag!r} cannot be serialized (whitespace)")
    return " ".join(tags)


# ModelConfig field type -> (value to manifest text, manifest text to value)
_CODECS = {
    "int": (str, _int),
    "bool": (lambda value: str(int(value)), _bool),
    "str": (str, lambda text, what: text),
    "tuple[str, ...]": (_tags_text, lambda text, what: tuple(t for t in text.split(" ") if t)),
}


def _build_manifest(model: ChunkReaderModel) -> str:
    lines = [f"{key} {value}" for key, value in _FIXED.items()]
    for f in fields(ModelConfig):
        lines.append(f"{f.name} {_CODECS[f.type][0](getattr(model.config, f.name))}")
    if model.trie is not None:
        lines.append(f"trie_depth_cap {model.trie.depth_cap}")
        for pattern, count in model.trie.patterns():
            lines.append(f"trie_pattern {count} " + " ".join(pattern))
    for name, p in model.parameters().items():
        dims = " ".join(str(s) for s in p.data.shape)
        lines.append(f"param {name} {dims}")
    return "\n".join(lines) + "\n"


def save_checkpoint(model: ChunkReaderModel, path) -> None:
    """Write the checkpoint to `<path>.tmp`, then rename it onto path, so a
    write that fails part-way leaves a file already at path whole; the
    temporary file is removed on any failure."""
    manifest = _build_manifest(model).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{_MAGIC}\n".encode("ascii"))
            fh.write(f"manifest_bytes {len(manifest)}\n".encode("ascii"))
            fh.write(manifest)
            for p in model.parameters().values():
                fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not UTF-8") from None


def _read_line(fh: io.BufferedReader) -> str:
    raw = fh.readline()
    if not raw.endswith(b"\n"):
        raise CheckpointError("truncated header")
    return _decode(raw[:-1], "header")


def load_checkpoint(path) -> ChunkReaderModel:
    with open(path, "rb") as fh:
        if _read_line(fh) != _MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        head = _read_line(fh).split(" ")
        if len(head) != 2 or head[0] != "manifest_bytes":
            raise CheckpointError("missing manifest_bytes header")
        manifest_len = _int(head[1], "manifest_bytes")
        manifest = fh.read(manifest_len)
        if len(manifest) != manifest_len:
            raise CheckpointError("truncated manifest")

        values: dict[str, str] = {}
        trie_patterns: list[tuple[int, tuple[str, ...]]] = []
        params: list[tuple[str, tuple[int, ...]]] = []
        for line in _decode(manifest, "manifest").splitlines():
            parts = line.split(" ")
            key = parts[0]
            if key == "trie_pattern":
                if len(parts) < 3:
                    raise CheckpointError(f"malformed trie pattern line: {line!r}")
                trie_patterns.append((_int(parts[1], "trie pattern count"), tuple(parts[2:])))
            elif key == "param":
                if len(parts) < 3:
                    raise CheckpointError(f"malformed param line: {line!r}")
                params.append((parts[1], tuple(_int(d, f"{parts[1]} shape") for d in parts[2:])))
            elif key in values:
                raise CheckpointError(f"manifest repeats {key!r}")
            else:
                values[key] = " ".join(parts[1:])

        settings = fields(ModelConfig)
        required = [*_FIXED, *(f.name for f in settings)]
        if values.get("candidate_mode") == "trie":
            required.append("trie_depth_cap")
        for key in required:
            if key not in values:
                raise CheckpointError(f"manifest missing {key}")
        for key in values:
            if key not in required and key != "trie_depth_cap":  # the cap is ignored in window mode
                raise CheckpointError(f"unknown manifest key {key!r}")
        for key, expected in _FIXED.items():
            if values[key] != expected:
                raise CheckpointError(f"unsupported {key} {values[key][:40]!r}")

        config = ModelConfig(**{f.name: _CODECS[f.type][1](values[f.name], f.name) for f in settings})
        try:
            trie = None
            if config.candidate_mode == "trie":
                trie = PosPatternTrie(_int(values["trie_depth_cap"], "trie_depth_cap"))
                for count, pattern in trie_patterns:
                    trie.insert(pattern, count)
            model = ChunkReaderModel(config, trie)
        except (ValueError, MemoryError) as exc:  # settings no model accepts or fits
            raise CheckpointError(f"invalid model settings: {exc}") from None

        expected = model.parameters()
        if [n for n, _ in params] != list(expected):
            raise CheckpointError("parameter catalog does not match the architecture")
        for name, shape in params:
            p = expected[name]
            if p.data.shape != shape:
                raise CheckpointError(
                    f"parameter {name}: manifest shape {shape} vs model shape {p.data.shape}"
                )
            n_bytes = int(np.prod(shape)) * 8
            raw = fh.read(n_bytes)
            if len(raw) != n_bytes:
                raise CheckpointError(f"blob truncated at parameter {name}")
            values = np.frombuffer(raw, dtype="<f8")
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"parameter {name} holds a non-finite value")
            p.data[...] = values.reshape(shape)
        if fh.read(1):
            raise CheckpointError("trailing bytes after parameter blob")
    return model
