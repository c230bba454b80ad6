"""Bit-exact CIFAR binary ingestion, standardization, augmentation, batching.

CIFAR-10 batches are 3073-byte records (label byte + 3072 pixel bytes,
channel-planar R/G/B, row-major), CIFAR-100 uses 3074-byte records (coarse
label, fine label, pixels).  Pixels are scaled to [0,1] and standardized
with per-channel mean/std computed once from the train split; no hardcoded
normalization constants.

A generic raw-tensor container ("RAWT1": u32 dims N/C/H/W little-endian,
f32 payload, u8 labels) lets any externally prepared dataset be injected
through the same pipeline.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, DataError

CIFAR10_RECORD = 3073
CIFAR100_RECORD = 3074
CIFAR10_TRAIN_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6))
CIFAR10_TEST_FILE = "test_batch.bin"


@dataclass
class ImageDataset:
    """Standardized images (N,3,32,32) float32 with integer labels."""

    images: np.ndarray
    labels: np.ndarray
    split: str
    class_count: int

    def __post_init__(self) -> None:
        if self.images.ndim != 4:
            raise DataError(f"images must be rank 4, got shape {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(
                f"{self.images.shape[0]} images but {self.labels.shape} labels"
            )
        if self.labels.size and (
            self.labels.min() < 0 or self.labels.max() >= self.class_count
        ):
            raise DataError(
                f"labels must lie in [0, {self.class_count}), got range "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.images.shape[0]


def _resolve_dir(directory, subdir_candidates: tuple[str, ...]) -> Path:
    base = Path(directory)
    if not base.is_dir():
        raise ConfigurationError(f"dataset directory not found: {base}")
    for sub in subdir_candidates:
        if (base / sub).is_dir():
            return base / sub
    return base


def read_cifar_records(path, record_bytes: int,
                       expected_records: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Split one binary batch file into (label bytes, pixel bytes)."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    raw = np.frombuffer(path.read_bytes(), dtype=np.uint8)
    if raw.size % record_bytes != 0:
        raise DataError(
            f"{path} has {raw.size} bytes, not a multiple of the "
            f"{record_bytes}-byte record size"
        )
    n = raw.size // record_bytes
    if expected_records is not None and n != expected_records:
        raise DataError(
            f"{path} holds {n} records ({raw.size} bytes), expected "
            f"{expected_records} ({expected_records * record_bytes} bytes)"
        )
    records = raw.reshape(n, record_bytes)
    label_bytes = record_bytes - 3072
    return records[:, :label_bytes], records[:, label_bytes:]


def _decode_pixels(pixel_bytes: np.ndarray) -> np.ndarray:
    # byte layout per record: channel-planar, pixel (c,h,w) at c*1024 + h*32 + w
    n = pixel_bytes.shape[0]
    images = pixel_bytes.reshape(n, 3, 32, 32).astype(np.float32)
    images /= 255.0
    return images


_STATS_CHUNK = 1000  # images per float64 slice of the train statistics


def _standardize(train: np.ndarray, test: np.ndarray) -> None:
    """Standardize both splits in place with the train split's per-channel
    mean and (biased) std.  Both are reduced in float64, one slice of
    _STATS_CHUNK images at a time, so no float64 copy of the split exists."""
    m = train.size // 3
    slices = [train[i : i + _STATS_CHUNK] for i in range(0, len(train), _STATS_CHUNK)]
    mean = (sum(part.sum(axis=(0, 2, 3), dtype=np.float64) for part in slices) / m
            ).reshape(1, 3, 1, 1)
    var = sum(np.square(part - mean).sum(axis=(0, 2, 3)) for part in slices) / m
    mean32 = mean.astype(np.float32)
    std32 = np.sqrt(var).astype(np.float32).reshape(1, 3, 1, 1)
    for images in (train, test):
        images -= mean32
        images /= std32


def load_cifar10(directory) -> tuple[ImageDataset, ImageDataset]:
    folder = _resolve_dir(directory, ("cifar-10-batches-bin",))
    train_labels, train_pixels = [], []
    for name in CIFAR10_TRAIN_FILES:
        labels, pixels = read_cifar_records(folder / name, CIFAR10_RECORD, 10000)
        train_labels.append(labels[:, 0])
        train_pixels.append(pixels)
    test_labels, test_pixels = read_cifar_records(
        folder / CIFAR10_TEST_FILE, CIFAR10_RECORD, 10000
    )
    train_images = _decode_pixels(np.concatenate(train_pixels))
    test_images = _decode_pixels(test_pixels)
    _standardize(train_images, test_images)
    train = ImageDataset(train_images, np.concatenate(train_labels).astype(np.int64),
                         "train", 10)
    test = ImageDataset(test_images, test_labels[:, 0].astype(np.int64), "test", 10)
    return train, test


def load_cifar100(directory) -> tuple[ImageDataset, ImageDataset]:
    folder = _resolve_dir(directory, ("cifar-100-binary",))
    train_labels, train_pixels = read_cifar_records(
        folder / "train.bin", CIFAR100_RECORD, 50000
    )
    test_labels, test_pixels = read_cifar_records(
        folder / "test.bin", CIFAR100_RECORD, 10000
    )
    train_images = _decode_pixels(train_pixels)
    test_images = _decode_pixels(test_pixels)
    _standardize(train_images, test_images)
    # byte 0 is the coarse label, byte 1 the fine label; classification uses fine
    train = ImageDataset(train_images, train_labels[:, 1].astype(np.int64), "train", 100)
    test = ImageDataset(test_images, test_labels[:, 1].astype(np.int64), "test", 100)
    return train, test


# ---------------------------------------------------------------------------
# Augmentation and batching
# ---------------------------------------------------------------------------

CROP_PAD = 4


def augment_batch(images: np.ndarray, rng: np.random.Generator,
                  flip: bool = True) -> np.ndarray:
    """Zero-pad 4px per side, random 32x32 crop, then coin-flip mirror.

    Draw order (crop offsets for the whole batch, then flip coins) is part
    of the determinism contract.  Offset (4,4) with no flip is the identity.
    """
    n, c, h, w = images.shape
    padded = np.pad(images, ((0, 0), (0, 0), (CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD)))
    offsets = rng.integers(0, 2 * CROP_PAD + 1, size=(n, 2))
    flips = rng.random(n) < 0.5 if flip else np.zeros(n, dtype=bool)
    out = np.empty_like(images)
    for i in range(n):
        dy, dx = offsets[i]
        crop = padded[i, :, dy : dy + h, dx : dx + w]
        out[i] = crop[:, :, ::-1] if flips[i] else crop
    return out


def batches(dataset: ImageDataset, batch_size: int, seed: int | np.random.Generator = 0,
            shuffle: bool = True, augment: bool = False,
            flip: bool = True) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Seeded epoch iterator; the final partial batch is included."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = len(dataset)
    order = rng.permutation(n) if shuffle else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        images = dataset.images[idx]
        if augment:
            images = augment_batch(images, rng, flip=flip)
        yield images, dataset.labels[idx]


def class_balanced_subset(dataset: ImageDataset, per_class: int,
                          seed: int = 0) -> ImageDataset:
    """Deterministic subset with `per_class` samples of every class."""
    rng = np.random.default_rng(seed)
    picks = []
    for c in range(dataset.class_count):
        candidates = np.flatnonzero(dataset.labels == c)
        if candidates.size < per_class:
            raise DataError(
                f"class {c} has only {candidates.size} samples, wanted {per_class}"
            )
        picks.append(rng.choice(candidates, size=per_class, replace=False))
    idx = np.sort(np.concatenate(picks))
    return ImageDataset(dataset.images[idx].copy(), dataset.labels[idx].copy(),
                        dataset.split, dataset.class_count)


# ---------------------------------------------------------------------------
# Raw tensor container
# ---------------------------------------------------------------------------

RAW_MAGIC = b"RAWT1"


def save_raw(path, images: np.ndarray, labels: np.ndarray) -> None:
    """Write a RAWT1 container; refuses, before opening `path`, anything
    load_raw would reject."""
    if images.ndim != 4:
        raise DataError(f"raw container needs rank-4 images, got {images.shape}")
    labels = np.asarray(labels)
    if labels.shape != (images.shape[0],):
        raise DataError(f"raw container needs one label per image: {images.shape[0]} "
                        f"images, labels of shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() > 255):
        raise DataError("raw container stores labels as u8; range exceeded")
    with np.errstate(over="ignore"):  # a pixel past float32's range becomes inf
        pixels = np.ascontiguousarray(images, dtype="<f4")
    if not np.isfinite(pixels).all():
        raise DataError("raw container cannot hold non-finite pixel values")
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<4I", *images.shape))
        fh.write(pixels.tobytes())
        fh.write(labels.astype(np.uint8).tobytes())


def load_raw(path, split: str = "train") -> ImageDataset:
    blob = Path(path).read_bytes()
    if blob[: len(RAW_MAGIC)] != RAW_MAGIC:
        raise DataError(f"{path} is not a raw tensor container (bad magic)")
    header_end = len(RAW_MAGIC) + 16
    if len(blob) < header_end:
        raise DataError(f"{path} is truncated before the dimension header")
    n, c, h, w = struct.unpack("<4I", blob[len(RAW_MAGIC) : header_end])
    payload = n * c * h * w * 4
    if len(blob) != header_end + payload + n:
        raise DataError(
            f"{path} has {len(blob)} bytes, expected {header_end + payload + n} "
            f"for {n}x{c}x{h}x{w} images plus labels"
        )
    images = np.frombuffer(blob, dtype="<f4", count=n * c * h * w,
                           offset=header_end).reshape(n, c, h, w).copy()
    if not np.isfinite(images).all():
        raise DataError(f"{path} holds non-finite pixel values")
    labels = np.frombuffer(blob, dtype=np.uint8, offset=header_end + payload).astype(np.int64)
    class_count = int(labels.max()) + 1 if n else 1
    return ImageDataset(images, labels, split, class_count)
