"""Versioned binary checkpoints.

Layout: the 4-byte magic ``LVPC``, a little-endian u32 format version, then
seven length-prefixed sections in fixed order: encoder, classifier,
prototypes, optimizer, scheduler, rng, config. Every section is a u64
little-endian byte length followed by the payload; a payload is a u32 length
plus a sorted-keys JSON header (array names/shapes and scalar metadata)
followed by the arrays' raw bytes as little-endian float64 in header order.
The prototypes section's metadata names the logistic mixing activation, the
only one there is. Round trips are bit-exact, which is what makes resumed
runs reproduce uninterrupted ones. The file is written through
``fileio.atomic_write``, so a failed save leaves the previous file whole.
Every malformed file raises ``FileFormatError``.

Version 2 names each ViT layer's attention parameters ``attn_qkv.w`` /
``attn_qkv.b`` (one fused q/k/v projection) where version 1 had per-head
``head{h}.w{q,k,v}`` / ``head{h}.b{q,k,v}``. Version 3 keeps the encoder
section's per-name arrays, but its optimizer section holds the encoder's
moments as two flat (P,) arrays ``encoder.m`` / ``encoder.v`` in
parameter declaration order with one step count ``encoder``, where version
2 had a moment pair and a count per parameter. Files of any other version,
versions 1 and 2 included, are rejected with a ``FileFormatError`` naming
it: a version-2 file would resume with the encoder's moments silently reset.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .fileio import atomic_write
from .scheduler import Phase, StageState

MAGIC = b"LVPC"
FORMAT_VERSION = 3
_SECTIONS = ("encoder", "classifier", "prototypes", "optimizer", "scheduler", "rng", "config")
_PROTOTYPE_META = {"activation": "logistic"}


@dataclass
class Checkpoint:
    encoder_arch: dict
    encoder_arrays: dict[str, np.ndarray]
    classifier: np.ndarray
    prototypes: np.ndarray
    prototypes_initialized: np.ndarray
    optimizer_arrays: dict[str, np.ndarray]
    optimizer_counts: dict[str, int]
    stage: StageState
    rng_state: dict
    config: dict[str, str] = field(default_factory=dict)
    version: int = FORMAT_VERSION


def _encode_section(meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    names = sorted(arrays)
    header = {
        "meta": meta,
        "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names],
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    blob = bytearray(struct.pack("<I", len(head)))
    blob += head
    for n in names:
        blob += np.ascontiguousarray(arrays[n], dtype="<f8").tobytes()
    return bytes(blob)


def _decode_section(payload: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    if len(payload) < 4:
        raise FileFormatError("truncated checkpoint section")
    (head_len,) = struct.unpack_from("<I", payload, 0)
    head_end = 4 + head_len
    if head_end > len(payload):
        raise FileFormatError("checkpoint section header overruns payload")
    header = json.loads(payload[4:head_end].decode("utf-8"))
    arrays: dict[str, np.ndarray] = {}
    offset = head_end
    for entry in header["arrays"]:
        shape = tuple(int(v) for v in entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(payload):
            raise FileFormatError(f"array {entry['name']!r} overruns section payload")
        arr = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8").reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float64, copy=True)
        offset += nbytes
    if offset != len(payload):
        raise FileFormatError("trailing bytes in checkpoint section")
    return header["meta"], arrays


def _rng_state_to_json(state: dict) -> dict:
    def convert(value):
        if isinstance(value, np.ndarray):
            return {"__array__": value.dtype.str, "data": [int(v) for v in value]}
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, dict):
            return {k: convert(v) for k, v in value.items()}
        return value

    return convert(state)


def _rng_state_from_json(state: dict):
    def convert(value):
        if isinstance(value, dict):
            if "__array__" in value:
                return np.asarray(value["data"], dtype=np.dtype(value["__array__"]))
            return {k: convert(v) for k, v in value.items()}
        return value

    return convert(state)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    sections: dict[str, bytes] = {}
    sections["encoder"] = _encode_section({"arch": ckpt.encoder_arch}, ckpt.encoder_arrays)
    sections["classifier"] = _encode_section({}, {"weight": ckpt.classifier})
    sections["prototypes"] = _encode_section(
        _PROTOTYPE_META,
        {
            "E": ckpt.prototypes,
            "initialized": ckpt.prototypes_initialized.astype(np.float64),
        },
    )
    sections["optimizer"] = _encode_section(
        {"counts": {k: int(v) for k, v in sorted(ckpt.optimizer_counts.items())}},
        ckpt.optimizer_arrays,
    )
    sections["scheduler"] = _encode_section(
        {
            "phase": ckpt.stage.phase.value,
            "css_raw": ckpt.stage.css_raw,
            "css_smoothed": ckpt.stage.css_smoothed,
            "iteration": ckpt.stage.iteration,
        },
        {},
    )
    sections["rng"] = _encode_section({"state": _rng_state_to_json(ckpt.rng_state)}, {})
    sections["config"] = _encode_section({"config": ckpt.config}, {})

    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", ckpt.version))
        for name in _SECTIONS:
            payload = sections[name]
            fh.write(struct.pack("<Q", len(payload)))
            fh.write(payload)


def load_checkpoint(path: str | Path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise FileFormatError(f"{path}: not a checkpoint file (bad magic)")
    try:
        (version,) = struct.unpack_from("<I", raw, 4)
        if version != FORMAT_VERSION:
            raise FileFormatError(
                f"{path}: unsupported checkpoint version {version}; this build reads "
                f"version {FORMAT_VERSION}"
            )
        offset = 8
        payloads: dict[str, bytes] = {}
        for name in _SECTIONS:
            if offset + 8 > len(raw):
                raise FileFormatError(f"{path}: missing section {name!r}")
            (length,) = struct.unpack_from("<Q", raw, offset)
            offset += 8
            if offset + length > len(raw):
                raise FileFormatError(f"{path}: section {name!r} overruns file")
            payloads[name] = raw[offset : offset + length]
            offset += length
        if offset != len(raw):
            raise FileFormatError(f"{path}: trailing bytes after final section")

        enc_meta, enc_arrays = _decode_section(payloads["encoder"])
        _, cls_arrays = _decode_section(payloads["classifier"])
        proto_meta, proto_arrays = _decode_section(payloads["prototypes"])
        opt_meta, opt_arrays = _decode_section(payloads["optimizer"])
        sched_meta, _ = _decode_section(payloads["scheduler"])
        rng_meta, _ = _decode_section(payloads["rng"])
        config_meta, _ = _decode_section(payloads["config"])
        if proto_meta != _PROTOTYPE_META:
            raise FileFormatError(f"{path}: unsupported prototype metadata {proto_meta!r}")
        rng_state = _rng_state_from_json(rng_meta["state"])
        np.random.Philox(0).state = rng_state  # raises on a state Philox cannot take

        stage = StageState(
            phase=Phase(sched_meta["phase"]),
            css_raw=float(sched_meta["css_raw"]),
            css_smoothed=(
                None if sched_meta["css_smoothed"] is None else float(sched_meta["css_smoothed"])
            ),
            iteration=int(sched_meta["iteration"]),
        )
        return Checkpoint(
            encoder_arch=enc_meta["arch"],
            encoder_arrays=enc_arrays,
            classifier=cls_arrays["weight"],
            prototypes=proto_arrays["E"],
            prototypes_initialized=proto_arrays["initialized"].astype(bool),
            optimizer_arrays=opt_arrays,
            optimizer_counts={k: int(v) for k, v in opt_meta["counts"].items()},
            stage=stage,
            rng_state=rng_state,
            config={k: str(v) for k, v in config_meta["config"].items()},
            version=version,
        )
    except (AttributeError, KeyError, TypeError, ValueError, struct.error) as exc:
        raise FileFormatError(f"{path}: malformed checkpoint: {exc!r}") from exc
