"""Model persistence: a text manifest followed by one binary blob.

Layout of a checkpoint file:

    chunkreader-checkpoint 1\n          fixed magic + format version
    manifest_bytes <N>\n                 byte length of the manifest text
    <manifest, exactly N bytes of UTF-8 key-value lines>
    <blob: little-endian float64, parameters in manifest order>

The manifest pins everything needed to rebuild the model object: sizes,
candidate mode, scoring flags, tag inventories, learned trie patterns
(when the trie mode is active), and the name and shape of every parameter
tensor. Saving the same model twice produces identical bytes. Loading
rejects a manifest key it does not know, a setting given twice, and a
parameter holding a NaN or an infinity.
"""

from __future__ import annotations

import io

import numpy as np

from .chunker import PosPatternTrie
from .model import ChunkReaderModel, ModelConfig

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = "chunkreader-checkpoint 1"
# manifest keys holding one value each; every other line is a tag list,
# a trie pattern or a parameter
_REQUIRED_KEYS = (
    "format_version", "precision", "hidden_size", "embedding_dim",
    "candidate_mode", "max_chunk_len", "scoring", "normalize_attention",
)
_SCALAR_KEYS = _REQUIRED_KEYS + ("trie_depth_cap",)  # the cap only in trie mode


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


def _build_manifest(model: ChunkReaderModel) -> str:
    cfg = model.config
    for tag in cfg.pos_tags + cfg.ne_tags:
        if not tag or any(ch.isspace() for ch in tag):
            raise CheckpointError(f"tag {tag!r} cannot be serialized (whitespace)")
    lines = [
        "format_version 1",
        "precision float64",
        f"hidden_size {cfg.hidden_size}",
        f"embedding_dim {cfg.embedding_dim}",
        f"candidate_mode {cfg.candidate_mode}",
        f"max_chunk_len {cfg.max_chunk_len}",
        f"scoring {cfg.scoring}",
        f"normalize_attention {int(cfg.normalize_attention)}",
        "pos_tags " + " ".join(cfg.pos_tags),
        "ne_tags " + " ".join(cfg.ne_tags),
    ]
    if model.trie is not None:
        lines.append(f"trie_depth_cap {model.trie.depth_cap}")
        for pattern, count in model.trie.patterns():
            lines.append(f"trie_pattern {count} " + " ".join(pattern))
    for name, p in model.parameters().items():
        dims = " ".join(str(s) for s in p.data.shape)
        lines.append(f"param {name} {dims}")
    return "\n".join(lines) + "\n"


def save_checkpoint(model: ChunkReaderModel, path) -> None:
    manifest = _build_manifest(model).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(f"{_MAGIC}\n".encode("ascii"))
        fh.write(f"manifest_bytes {len(manifest)}\n".encode("ascii"))
        fh.write(manifest)
        for p in model.parameters().values():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not UTF-8") from None


def _int(text: str, what: str) -> int:
    if not (text.isascii() and text.isdigit() and len(text) <= 18):
        raise CheckpointError(f"{what} must be a non-negative integer below 10**18, got {text[:40]!r}")
    return int(text)


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

        scalars: dict[str, str] = {}
        pos_tags: tuple[str, ...] = ()
        ne_tags: tuple[str, ...] = ()
        trie_patterns: list[tuple[int, tuple[str, ...]]] = []
        params: list[tuple[str, tuple[int, ...]]] = []
        for line in _decode(manifest, "manifest").splitlines():
            fields = line.split(" ")
            key = fields[0]
            if key == "pos_tags":
                pos_tags = tuple(t for t in fields[1:] if t)
            elif key == "ne_tags":
                ne_tags = tuple(t for t in fields[1:] if t)
            elif key == "trie_pattern":
                if len(fields) < 3:
                    raise CheckpointError(f"malformed trie pattern line: {line!r}")
                trie_patterns.append((_int(fields[1], "trie pattern count"), tuple(fields[2:])))
            elif key == "param":
                if len(fields) < 3:
                    raise CheckpointError(f"malformed param line: {line!r}")
                params.append((fields[1], tuple(_int(d, f"{fields[1]} shape") for d in fields[2:])))
            elif key in scalars:
                raise CheckpointError(f"manifest repeats {key!r}")
            else:
                scalars[key] = " ".join(fields[1:])

        required = list(_REQUIRED_KEYS)
        if scalars.get("candidate_mode") == "trie":
            required.append("trie_depth_cap")
        for key in required:
            if key not in scalars:
                raise CheckpointError(f"manifest missing {key}")
        for key in scalars:
            if key not in _SCALAR_KEYS:
                raise CheckpointError(f"unknown manifest key {key!r}")
        if scalars["format_version"] != "1":
            raise CheckpointError(f"unsupported format version {scalars['format_version']}")
        if scalars["precision"] != "float64":
            raise CheckpointError(f"unsupported precision {scalars['precision']}")
        if scalars["normalize_attention"] not in ("0", "1"):
            raise CheckpointError(
                f"normalize_attention must be 0 or 1, got {scalars['normalize_attention']!r}"
            )

        config = ModelConfig(
            hidden_size=_int(scalars["hidden_size"], "hidden_size"),
            embedding_dim=_int(scalars["embedding_dim"], "embedding_dim"),
            pos_tags=pos_tags,
            ne_tags=ne_tags,
            candidate_mode=scalars["candidate_mode"],
            max_chunk_len=_int(scalars["max_chunk_len"], "max_chunk_len"),
            scoring=scalars["scoring"],
            normalize_attention=scalars["normalize_attention"] == "1",
        )
        try:
            trie = None
            if config.candidate_mode == "trie":
                trie = PosPatternTrie(_int(scalars["trie_depth_cap"], "trie_depth_cap"))
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
