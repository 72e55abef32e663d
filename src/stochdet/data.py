"""Desk-scale labeled image data: a synthetic generator and IDX file support.

The synthetic corpus has four geometric classes (filled square, hollow
square, cross, diagonal stripe) drawn as single-channel images in [0,1]
with a small random placement jitter and additive uniform pixel noise of
amplitude 0.1. It is fully determined by its seed.

IDX is the classic big-endian binary format: two zero bytes, a type code
(0x08 = unsigned byte), a dimension-count byte, 32-bit extents, payload.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .rng import substream

NOISE_AMPLITUDE = 0.1
DEFAULT_IMAGE_SIZE = 18  # smallest even-pool-friendly size for the fixture net
MIN_SYNTH_IMAGE_SIZE = 12
CLASS_NAMES = ("filled_square", "hollow_square", "cross", "diagonal_stripe")


class IdxFormatError(ValueError):
    """Malformed IDX byte stream."""


@dataclass
class Dataset:
    images: list[np.ndarray]  # each (1, H, W), float64 in [0,1]
    labels: list[int]
    class_count: int

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images but {len(self.labels)} labels"
            )
        for lab in self.labels:
            if not 0 <= lab < self.class_count:
                raise ValueError(f"label {lab} out of range for {self.class_count} classes")

    def __len__(self) -> int:
        return len(self.images)


def _paint_pattern(canvas: np.ndarray, label: int, top: int, left: int, side: int) -> None:
    fg = 0.9
    if label == 0:  # filled square
        canvas[top : top + side, left : left + side] = fg
    elif label == 1:  # hollow square, 2px border
        canvas[top : top + side, left : left + side] = fg
        canvas[top + 2 : top + side - 2, left + 2 : left + side - 2] = 0.0
    elif label == 2:  # cross through the block center
        mid_r = top + side // 2
        mid_c = left + side // 2
        canvas[mid_r - 1 : mid_r + 1, left : left + side] = fg
        canvas[top : top + side, mid_c - 1 : mid_c + 1] = fg
    elif label == 3:  # diagonal stripe across the block
        for d in range(side):
            r = top + d
            canvas[r, left + max(0, d - 1) : left + min(side, d + 2)] = fg
    else:
        raise ValueError(f"no pattern for label {label}")


def synth_dataset(seed: int, count: int, image_size: int = DEFAULT_IMAGE_SIZE) -> Dataset:
    """Deterministic synthetic corpus of the CLASS_NAMES shapes; same seed, same bytes."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if image_size < MIN_SYNTH_IMAGE_SIZE:
        raise ValueError(f"image_size must be at least {MIN_SYNTH_IMAGE_SIZE}, got {image_size}")

    class_count = len(CLASS_NAMES)
    rng = substream(seed, "synth")
    side = image_size // 2
    base = (image_size - side) // 2
    jitter = 2  # small placement wobble: keeps conv features honest without
    # making pooled feature positions so variable the dense head turns brittle
    images: list[np.ndarray] = []
    labels: list[int] = []
    for _ in range(count):
        label = int(rng.integers(0, class_count))
        top = base + int(rng.integers(-jitter, jitter + 1))
        left = base + int(rng.integers(-jitter, jitter + 1))
        canvas = np.full((image_size, image_size), 0.05, dtype=np.float64)
        _paint_pattern(canvas, label, top, left, side)
        noise = rng.uniform(-NOISE_AMPLITUDE, NOISE_AMPLITUDE, size=canvas.shape)
        img = np.clip(canvas + noise, 0.0, 1.0)
        images.append(img[None, :, :])
        labels.append(label)
    return Dataset(images=images, labels=labels, class_count=class_count)


# ---------------------------------------------------------------------------
# IDX format

_IDX_UBYTE = 0x08


def parse_idx(data: bytes) -> np.ndarray:
    """Decode an IDX stream.

    1-d payloads are label files and come back as an int64 vector; higher
    dimensional payloads are images and come back as float64 scaled by 255.
    """
    if len(data) < 4:
        raise IdxFormatError(f"stream of {len(data)} bytes is shorter than the IDX magic")
    zero0, zero1, type_code, ndim = data[0], data[1], data[2], data[3]
    if zero0 != 0 or zero1 != 0:
        raise IdxFormatError(f"bad magic: first two bytes are {zero0:#04x} {zero1:#04x}, expected zeros")
    if type_code != _IDX_UBYTE:
        raise IdxFormatError(f"unsupported type code {type_code:#04x}; only unsigned byte (0x08) is supported")
    if ndim == 0:
        raise IdxFormatError("rank 0: an IDX stream needs at least one extent")
    header_len = 4 + 4 * ndim
    if len(data) < header_len:
        raise IdxFormatError(f"truncated header: {len(data)} bytes cannot hold {ndim} extents")
    extents = struct.unpack(f">{ndim}I", data[4:header_len])
    if 0 in extents:  # numpy rejects even an empty array whose other extents overflow its byte size
        raise IdxFormatError(f"zero extent in {extents}: an IDX stream must hold at least one value")
    payload_len = math.prod(extents)  # exact: a numpy product can wrap to a small length
    payload = data[header_len:]
    if len(payload) != payload_len:
        raise IdxFormatError(
            f"truncated payload: extents {extents} require {payload_len} bytes, found {len(payload)}"
        )
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(extents)
    if ndim == 1:
        return raw.astype(np.int64)
    return raw.astype(np.float64) / 255.0


def serialize_idx(array: np.ndarray) -> bytes:
    """Inverse of parse_idx; parse(serialize(parse(s))) reproduces s."""
    arr = np.asarray(array)
    if arr.ndim == 1:
        raw = arr.astype(np.uint8)
    else:
        raw = np.rint(np.asarray(arr, dtype=np.float64) * 255.0).astype(np.uint8)
    header = bytes([0, 0, _IDX_UBYTE, arr.ndim])
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + raw.tobytes()


def load_idx_dataset(images_bytes: bytes, labels_bytes: bytes) -> Dataset:
    images = parse_idx(images_bytes)
    labels = parse_idx(labels_bytes)
    if images.ndim != 3:
        raise IdxFormatError(f"image file must be 3-d (count x H x W), got {images.ndim} dims")
    if labels.ndim != 1:
        raise IdxFormatError(f"label file must be 1-d, got {labels.ndim} dims")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{images.shape[0]} images but {labels.shape[0]} labels")
    return Dataset(
        images=[images[i][None, :, :] for i in range(images.shape[0])],
        labels=[int(v) for v in labels],
        class_count=int(labels.max()) + 1,
    )
