"""Bit-exact CIFAR binary ingestion, standardization, augmentation.

CIFAR-10 batches are 3073-byte records (label byte + 3072 pixel bytes,
channel-planar R/G/B, row-major), CIFAR-100 uses 3074-byte records (coarse
label, fine label, pixels); one reader serves both.  Pixels are scaled to
[0,1] and standardized with per-channel mean/std computed once from the
train split; no hardcoded normalization constants.

A generic raw-tensor container ("RAWT1": u32 dims N/C/H/W little-endian,
f32 payload, u8 labels) lets any externally prepared dataset be injected
through the same pipeline.  It is read through `metrics.BlobReader`: a
header that promises more than the file holds fails before any copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DataError, require_finite
from .metrics import BlobReader, atomic_write

# classes -> (subdirectory, train files, test file, record bytes); the class
# is the last label byte: CIFAR-100's two are the coarse, then the fine label
CIFAR_LAYOUTS = {
    10: ("cifar-10-batches-bin", tuple(f"data_batch_{i}.bin" for i in range(1, 6)),
         "test_batch.bin", 3073),
    100: ("cifar-100-binary", ("train.bin",), "test.bin", 3074),
}
CIFAR_PIXEL_BYTES = 3072


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


def _resolve_dir(directory, subdir: str) -> Path:
    base = Path(directory)
    if not base.is_dir():
        raise ConfigurationError(f"dataset directory not found: {base}")
    return base / subdir if (base / subdir).is_dir() else base


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
    label_bytes = record_bytes - CIFAR_PIXEL_BYTES
    return records[:, :label_bytes], records[:, label_bytes:]


def _decode(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels) of one split's (label bytes, pixel bytes) files, the
    pixels cast straight into one float32 array and scaled to [0, 1]."""
    # byte layout per record: channel-planar, pixel (c,h,w) at c*1024 + h*32 + w
    images = np.concatenate([pixels.reshape(-1, 3, 32, 32) for _, pixels in parts],
                            dtype=np.float32)
    images /= 255.0
    return images, np.concatenate([labels[:, -1] for labels, _ in parts], dtype=np.int64)


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


def load_cifar(directory, classes: int) -> tuple[ImageDataset, ImageDataset]:
    """The CIFAR-10 or CIFAR-100 (`classes` 10 or 100) train and test splits,
    from the binary files in `directory` or its standard subdirectory."""
    if classes not in CIFAR_LAYOUTS:
        raise ConfigurationError(f"CIFAR has 10 or 100 classes, not {classes}")
    subdir, train_files, test_file, record = CIFAR_LAYOUTS[classes]
    folder = _resolve_dir(directory, subdir)
    # every file is read and checked before any is decoded
    train = [read_cifar_records(folder / name, record, 50000 // len(train_files))
             for name in train_files]
    test = [read_cifar_records(folder / test_file, record, 10000)]
    (train_images, train_labels), (test_images, test_labels) = _decode(train), _decode(test)
    del train, test  # the file bytes, before the standardization passes
    _standardize(train_images, test_images)
    return (ImageDataset(train_images, train_labels, "train", classes),
            ImageDataset(test_images, test_labels, "test", classes))


# ---------------------------------------------------------------------------
# Augmentation and subsets
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


def class_balanced_subset(dataset: ImageDataset, per_class: int,
                          seed: int = 0) -> ImageDataset:
    """Deterministic subset with `per_class` samples of every class."""
    for name, value in (("per_class", per_class), ("seed", seed)):
        if value < 0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")
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
    require_finite(pixels, DataError, "raw container cannot hold non-finite pixel values")
    atomic_write(path, RAW_MAGIC, struct.pack("<4I", *images.shape), pixels,
                 labels.astype(np.uint8))


def load_raw(path, split: str = "train") -> ImageDataset:
    reader = BlobReader(Path(path).read_bytes(), DataError, str(path))
    if reader.take(len(RAW_MAGIC)) != RAW_MAGIC:
        raise DataError(f"{path} is not a raw tensor container (bad magic)")
    n, c, h, w = struct.unpack("<4I", reader.take(16))
    images = reader.array((n, c, h, w), "<f4")
    labels = reader.array((n,), np.uint8).astype(np.int64)
    reader.finish()
    require_finite(images, DataError, f"{path} holds non-finite pixel values")
    class_count = int(labels.max()) + 1 if n else 1
    return ImageDataset(images, labels, split, class_count)
