"""On-disk formats: embeddings, images, pair protocols, projection tables.

Embedding file: magic ``LVEM``, then little-endian u32 version, u32 count,
u32 dim, count*dim float32 feature values (row major), count u32 labels.

Image file: magic ``LVIM``, then u32 version, u32 count, u32 width,
u32 channels, count*width*width*channels float32 pixels (row major),
count u32 labels.

Pair protocol: UTF-8 CSV with header ``id_a,id_b,is_match`` and 0/1 match
flags, one pair per line; it reads back as a ``PairSet``. Projection table:
CSV with header ``coord1,coord2,label``.

Every reader raises ``FileFormatError`` for input that does not match its
layout, whatever is wrong with it. Every writer, ``save_checkpoint`` too, is
atomic: it fills a temporary file beside the target and renames it over the
target once complete, so a failed write leaves the earlier file whole. Every
write is also durable: the file is fsynced before the rename and its
directory after it, so after a crash the target holds the old contents or
the new ones, never an empty or torn file (Pillai et al., "All File Systems
Are Not Created Equal", OSDI 2014).
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ShapeError
from .evaluate import AngularProjection, PairSet

EMB_MAGIC = b"LVEM"
IMG_MAGIC = b"LVIM"
EMB_VERSION = 1
IMG_VERSION = 1


@contextmanager
def atomic_write(path: str | Path):
    """A binary handle whose contents replace ``path`` once the block ends;
    if it raises, ``path`` is untouched and the temporary file removed. The
    file is fsynced before the rename and its directory after it. A directory
    that cannot be opened for reading (write and search permission only) is
    not fsynced: the new file is in place and its data on disk, but the rename
    may not survive a crash."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    try:
        directory = os.open(Path(path).parent, os.O_RDONLY)
    except PermissionError:
        return
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _write_labelled(path, magic: bytes, header: tuple[int, ...], values, labels) -> None:
    """Magic, u32 header fields, float32 values (row major), u32 labels."""
    with atomic_write(path) as fh:
        fh.write(magic + struct.pack(f"<{len(header)}I", *header))
        fh.write(np.ascontiguousarray(values, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(labels, dtype="<u4").tobytes())


def _read_labelled(path, magic: bytes, version: int, kind: str, fields: int, shape_of):
    """Values shaped by ``shape_of(count, *header fields after the version)``
    and int64 labels, from a file ``_write_labelled`` wrote."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise FileFormatError(f"{path}: not an {kind} file (bad magic)")
    if len(raw) < 4 + 4 * fields:
        raise FileFormatError(f"{path}: file ends inside its header")
    found, count, *dims = struct.unpack_from(f"<{fields}I", raw, 4)
    if found != version:
        raise FileFormatError(f"{path}: unsupported {kind} file version {found}")
    shape = shape_of(count, *dims)
    offset, size = 4 + 4 * fields, math.prod(shape)
    if len(raw) != offset + 4 * size + 4 * count:
        raise FileFormatError(f"{path}: {kind} file length does not match header")
    values = np.frombuffer(raw, dtype="<f4", count=size, offset=offset)
    labels = np.frombuffer(raw, dtype="<u4", count=count, offset=offset + 4 * size)
    return values.reshape(shape).copy(), labels.astype(np.int64)


def write_embeddings(path: str | Path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ShapeError(
            f"need (n, d) features and (n,) labels, got {features.shape} and {labels.shape}"
        )
    _write_labelled(path, EMB_MAGIC, (EMB_VERSION, *features.shape), features, labels)


def read_embeddings(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    return _read_labelled(path, EMB_MAGIC, EMB_VERSION, "embedding", 3, lambda n, d: (n, d))


def write_images(path: str | Path, images: np.ndarray, labels: np.ndarray) -> None:
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 4 or images.shape[1] != images.shape[2]:
        raise ShapeError(f"need (n, W, W, C) images, got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ShapeError(f"{labels.shape} labels for {images.shape[0]} images")
    count, width, _, channels = images.shape
    _write_labelled(path, IMG_MAGIC, (IMG_VERSION, count, width, channels), images, labels)


def read_images(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    return _read_labelled(path, IMG_MAGIC, IMG_VERSION, "image", 4,
                          lambda n, w, c: (n, w, w, c))


def _write_csv(path: str | Path, header: str, row_format: str, table: np.ndarray) -> None:
    text = (row_format * len(table)) % tuple(table.ravel().tolist())
    with atomic_write(path) as fh:
        fh.write(f"{header}\n{text}".encode())


def write_pairs(path: str | Path, pairs: PairSet) -> None:
    table = np.column_stack([pairs.index_a, pairs.index_b, pairs.is_match])
    _write_csv(path, "id_a,id_b,is_match", "%d,%d,%d\n", table)


def read_pairs(path: str | Path) -> PairSet:
    """The pair table parsed in one pass over all its fields; a table that
    fails any rule is rescanned line by line to name the first bad line."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != "id_a,id_b,is_match":
        raise FileFormatError(f"{path}: expected header 'id_a,id_b,is_match'")
    body = list(filter(str.strip, lines[1:]))
    try:
        if list(map(str.count, body, repeat(","))).count(2) == len(body):
            fields = list(map(int, ",".join(body).split(",")))
            a, b, flag = np.array(fields, dtype=np.int64).reshape(-1, 3).T
            if (((flag == 0) | (flag == 1)) & (a != b) & (a >= 0) & (b >= 0)).all():
                return PairSet(a, b, flag)
    except (ValueError, OverflowError):  # a non-integer field, or one beyond int64
        pass
    return _read_pair_lines(path, lines)


def _read_pair_lines(path: str | Path, lines: list[str]) -> PairSet:
    """The pair table read line by line; raises for the first bad line."""
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise FileFormatError(f"{path}:{lineno}: expected three comma-separated fields")
        try:
            a, b, flag = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: non-integer field") from exc
        if flag not in (0, 1):
            raise FileFormatError(f"{path}:{lineno}: is_match must be 0 or 1")
        if a == b or min(a, b) < 0 or max(a, b) >= 2**63:
            raise FileFormatError(f"{path}:{lineno}: need two distinct indices in [0, 2**63)")
        rows.append((a, b, flag))
    return PairSet(*np.array(rows, dtype=np.int64).reshape(-1, 3).T)


def write_projection(path: str | Path, projection: AngularProjection) -> None:
    _write_csv(path, "coord1,coord2,label", "%r,%r,%d\n", projection.points)
