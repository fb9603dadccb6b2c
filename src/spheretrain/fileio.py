"""On-disk formats: embeddings, images, pair protocols, projection tables.

Embedding file: magic ``LVEM``, then little-endian u32 version, u32 count,
u32 dim, count*dim float32 feature values (row major), count u32 labels.

Image file: magic ``LVIM``, then u32 version, u32 count, u32 width,
u32 channels, count*width*width*channels float32 pixels (row major),
count u32 labels.

Pair protocol: UTF-8 CSV with header ``id_a,id_b,is_match`` and 0/1 match
flags. Projection table: CSV with header ``coord1,coord2,label``.

Every reader raises ``FileFormatError`` for input that does not match its
layout, whatever is wrong with it.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import FileFormatError, ShapeError
from .evaluate import AngularProjection, VerificationPair

EMB_MAGIC = b"LVEM"
IMG_MAGIC = b"LVIM"
EMB_VERSION = 1
IMG_VERSION = 1


def _header_fields(raw: bytes, path, count: int) -> tuple[int, ...]:
    """The ``count`` u32 header fields after the 4-byte magic."""
    if len(raw) < 4 + 4 * count:
        raise FileFormatError(f"{path}: file ends inside its header")
    return struct.unpack_from(f"<{count}I", raw, 4)


def write_embeddings(path: str | Path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 2 or labels.shape != (features.shape[0],):
        raise ShapeError(
            f"need (n, d) features and (n,) labels, got {features.shape} and {labels.shape}"
        )
    count, dim = features.shape
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<III", EMB_VERSION, count, dim))
        fh.write(np.ascontiguousarray(features, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(labels, dtype="<u4").tobytes())


def read_embeddings(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != EMB_MAGIC:
        raise FileFormatError(f"{path}: not an embedding file (bad magic)")
    version, count, dim = _header_fields(raw, path, 3)
    if version != EMB_VERSION:
        raise FileFormatError(f"{path}: unsupported embedding version {version}")
    offset = 16
    feat_bytes = count * dim * 4
    if len(raw) != offset + feat_bytes + count * 4:
        raise FileFormatError(f"{path}: embedding file length does not match header")
    features = np.frombuffer(raw, dtype="<f4", count=count * dim, offset=offset)
    labels = np.frombuffer(raw, dtype="<u4", count=count, offset=offset + feat_bytes)
    return features.reshape(count, dim).copy(), labels.astype(np.int64)


def write_images(path: str | Path, images: np.ndarray, labels: np.ndarray) -> None:
    images = np.asarray(images)
    labels = np.asarray(labels)
    if images.ndim != 4 or images.shape[1] != images.shape[2]:
        raise ShapeError(f"need (n, W, W, C) images, got {images.shape}")
    if labels.shape != (images.shape[0],):
        raise ShapeError(f"{labels.shape} labels for {images.shape[0]} images")
    count, width, _, channels = images.shape
    with open(path, "wb") as fh:
        fh.write(IMG_MAGIC)
        fh.write(struct.pack("<IIII", IMG_VERSION, count, width, channels))
        fh.write(np.ascontiguousarray(images, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(labels, dtype="<u4").tobytes())


def read_images(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != IMG_MAGIC:
        raise FileFormatError(f"{path}: not an image file (bad magic)")
    version, count, width, channels = _header_fields(raw, path, 4)
    if version != IMG_VERSION:
        raise FileFormatError(f"{path}: unsupported image file version {version}")
    offset = 20
    pix = count * width * width * channels
    if len(raw) != offset + pix * 4 + count * 4:
        raise FileFormatError(f"{path}: image file length does not match header")
    images = np.frombuffer(raw, dtype="<f4", count=pix, offset=offset)
    labels = np.frombuffer(raw, dtype="<u4", count=count, offset=offset + pix * 4)
    return images.reshape(count, width, width, channels).copy(), labels.astype(np.int64)


def write_pairs(path: str | Path, pairs: list[VerificationPair]) -> None:
    lines = ["id_a,id_b,is_match"]
    for p in pairs:
        lines.append(f"{p.index_a},{p.index_b},{1 if p.is_match else 0}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_pairs(path: str | Path) -> list[VerificationPair]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != "id_a,id_b,is_match":
        raise FileFormatError(f"{path}: expected header 'id_a,id_b,is_match'")
    pairs = []
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
        try:
            pairs.append(VerificationPair(a, b, bool(flag)))
        except ShapeError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
    return pairs


def write_projection(path: str | Path, projection: AngularProjection) -> None:
    lines = ["coord1,coord2,label"]
    for c1, c2, label in projection.points:
        lines.append(f"{c1!r},{c2!r},{int(label)}")
    Path(path).write_text("\n".join(lines) + "\n")
