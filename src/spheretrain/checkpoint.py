"""Versioned checkpoints: format 4, a zip archive of ``.npy`` members.

The archive holds ``meta.json`` (sorted-keys JSON of the format version,
encoder architecture, optimizer step counts, scheduler stage, Philox state,
config and the prototypes' ``logistic`` activation) and one npy 1.0 file per
array: ``classifier.npy``, ``prototypes.npy``, ``prototypes_initialized.npy``
(bool), ``encoder/<name>.npy`` and ``optimizer/<key>.npy``, the rest float64.
Members are stored uncompressed, sorted, with the fixed timestamp 1980-01-01
00:00, so identical checkpoints are identical files. Arrays are written from
their own buffers, column-major ones too, and read straight into the arrays
returned: round trips are bit-exact, so resumed runs reproduce uninterrupted
ones. Saves go through ``fileio.atomic_write``, fsynced before the rename.

``zipfile`` checks a member's CRC-32 when it is read to its end, and every
member is; each array's dtype and size are checked before it is allocated.
Every malformed file raises ``FileFormatError``; versions 1-3 (``LVPC`` files)
and any other are rejected by number.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .fileio import atomic_write
from .scheduler import Phase, StageState

MAGIC = b"PK\x03\x04"  # a zip archive's first local file header
FORMAT_VERSION = 4
_STAMP = (1980, 1, 1, 0, 0, 0)
_CHUNK = 1 << 18  # bytes read at a time into an array


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


def _dtype(member: str) -> np.dtype:
    return np.dtype(bool if member == "prototypes_initialized.npy" else np.float64)


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    meta = {"version": ckpt.version, "arch": ckpt.encoder_arch, "rng": ckpt.rng_state,
            "counts": {k: int(v) for k, v in ckpt.optimizer_counts.items()},
            "stage": {**vars(ckpt.stage), "phase": ckpt.stage.phase.value},
            "config": ckpt.config, "activation": "logistic"}
    arrays = {"classifier": ckpt.classifier, "prototypes": ckpt.prototypes,
              "prototypes_initialized": ckpt.prototypes_initialized,
              **{f"encoder/{k}": v for k, v in ckpt.encoder_arrays.items()},
              **{f"optimizer/{k}": v for k, v in ckpt.optimizer_arrays.items()}}
    with atomic_write(path) as fh:
        with zipfile.ZipFile(fh, "w") as zf:
            text = json.dumps(meta, sort_keys=True, default=np.ndarray.tolist)
            zf.writestr(zipfile.ZipInfo("meta.json", _STAMP), text)
            for name in sorted(arrays):
                info = zipfile.ZipInfo(f"{name}.npy", _STAMP)
                arr = np.asarray(arrays[name], dtype=_dtype(info.filename))
                info.file_size = arr.nbytes  # so that zipfile picks zip64 past 2 GiB
                with zf.open(info, "w") as member:
                    np.lib.format.write_array(member, arr, version=(1, 0), allow_pickle=False)
        fh.flush()
        os.fsync(fh.fileno())


def _read_array(zf: zipfile.ZipFile, info: zipfile.ZipInfo) -> np.ndarray:
    """The member's array, read to the member's end, where its CRC is checked."""
    where, dtype = f"{zf.filename}: member {info.filename!r}", _dtype(info.filename)
    with zf.open(info) as member:
        if np.lib.format.read_magic(member) != (1, 0):
            raise FileFormatError(f"{where} is not an npy 1.0 file")
        shape, fortran_order, found = np.lib.format.read_array_header_1_0(member)
        if found != dtype or math.prod(shape) * dtype.itemsize != info.file_size - member.tell():
            raise FileFormatError(f"{where} is not a {dtype} array filling it: {found} {shape}")
        arr = np.empty(shape, dtype, order="F" if fortran_order else "C")
        flat = arr.reshape(-1, order="A").view(np.uint8)
        got = sum(member.readinto(flat[lo : lo + _CHUNK]) for lo in range(0, flat.size, _CHUNK))
        if got != flat.size or member.read(1):
            raise FileFormatError(f"{where} does not hold its array")
    return arr


def load_checkpoint(path: str | Path) -> Checkpoint:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:4] == b"LVPC":
            version = int.from_bytes(head[4:], "little")
            raise FileFormatError(f"{path}: unsupported checkpoint version {version}")
        if head[:4] != MAGIC:
            raise FileFormatError(f"{path}: not a checkpoint file (bad magic)")
        try:
            with zipfile.ZipFile(fh) as zf:
                members = zf.infolist()
                if any(info.compress_type != zipfile.ZIP_STORED for info in members):
                    raise FileFormatError(f"{path}: a member is compressed")
                meta = json.loads(zf.read("meta.json"))
                if meta["version"] != FORMAT_VERSION:
                    raise FileFormatError(f"{path}: unsupported version {meta['version']}")
                if meta["activation"] != "logistic":
                    raise FileFormatError(f"{path}: unknown activation {meta['activation']!r}")
                arrays = {info.filename.removesuffix(".npy"): _read_array(zf, info)
                          for info in members if info.filename.endswith(".npy")}
            encoder, optimizer = ({k[len(p):]: arrays.pop(k) for k in list(arrays)
                                   if k.startswith(p)} for p in ("encoder/", "optimizer/"))
            classifier, prototypes, flags = (arrays.pop(name) for name in (
                "classifier", "prototypes", "prototypes_initialized"))
            if arrays or len(members) != 4 + len(encoder) + len(optimizer):  # 4: meta and bank
                raise FileFormatError(f"{path}: unexpected members")
            np.random.Philox(0).state = meta["rng"]  # raises on a state Philox cannot take
            stage = meta["stage"]
            smoothed = None if stage["css_smoothed"] is None else float(stage["css_smoothed"])
            return Checkpoint(
                encoder_arch=meta["arch"], encoder_arrays=encoder, classifier=classifier,
                prototypes=prototypes, prototypes_initialized=flags, optimizer_arrays=optimizer,
                optimizer_counts={k: int(v) for k, v in meta["counts"].items()},
                stage=StageState(Phase(stage["phase"]), float(stage["css_raw"]), smoothed,
                                 int(stage["iteration"])),
                rng_state=meta["rng"], config={k: str(v) for k, v in meta["config"].items()})
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, AttributeError,
                LookupError, TypeError, ValueError) as exc:  # OSError: a seek off the file
            raise FileFormatError(f"{path}: malformed checkpoint: {exc!r}") from exc
