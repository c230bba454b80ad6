"""Deterministic synthetic image data for pipeline tests.

Ten classes of oriented sinusoidal gratings with class-specific color
mixes, per-instance phase/shift/noise variation.  Learnable by a small
model yet non-trivial, and cheap to generate at any size.  `write_cifar10_dir`
emits the byte-exact CIFAR-10 binary layout so loader paths can be
exercised without the real corpus.  `uniform_alpha` gives a model shortcut
coefficients that all carry weight.
"""

from pathlib import Path

import numpy as np

from thriftynet.data import ImageDataset

_COLOR_MIX = np.array([
    [1.0, 0.2, 0.1], [0.1, 1.0, 0.2], [0.2, 0.1, 1.0], [0.9, 0.9, 0.1],
    [0.1, 0.9, 0.9], [0.9, 0.1, 0.9], [0.6, 0.6, 0.6], [1.0, 0.5, 0.0],
    [0.0, 0.5, 1.0], [0.5, 1.0, 0.5],
])


def synthetic_arrays(n: int, seed: int = 0, size: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Returns uint8 images (n,3,size,size) and int64 labels in [0,10)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 10, size=n)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.empty((n, 3, size, size), dtype=np.uint8)
    for i in range(n):
        c = labels[i]
        theta = np.pi * c / 10.0
        freq = 2.0 + (c % 5)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta))
                      / size + phase)
        shift = rng.integers(-3, 4, size=2)
        wave = np.roll(wave, shift, axis=(0, 1))
        noise = rng.normal(0.0, 0.15, size=(3, size, size))
        img = 0.5 + 0.4 * wave[None] * _COLOR_MIX[c][:, None, None] + noise
        images[i] = (np.clip(img, 0.0, 1.0) * 255).astype(np.uint8)
    return images, labels.astype(np.int64)


def standardized_pair(n_train: int, n_test: int, seed: int = 0,
                      class_count: int = 10) -> tuple[ImageDataset, ImageDataset]:
    """In-memory train/test datasets, standardized like the CIFAR loader."""
    train_images, train_labels = synthetic_arrays(n_train, seed)
    test_images, test_labels = synthetic_arrays(n_test, seed + 1)
    train = train_images.astype(np.float32) / 255.0
    test = test_images.astype(np.float32) / 255.0
    mean = train.mean(axis=(0, 2, 3)).reshape(1, 3, 1, 1)
    std = train.std(axis=(0, 2, 3)).reshape(1, 3, 1, 1)
    return (
        ImageDataset((train - mean) / std, train_labels, "train", class_count),
        ImageDataset((test - mean) / std, test_labels, "test", class_count),
    )


def cifar10_records(images: np.ndarray, labels: np.ndarray) -> bytes:
    """Pack uint8 images/labels into 3073-byte CIFAR-10 records."""
    n = images.shape[0]
    records = np.empty((n, 3073), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images.reshape(n, 3072)
    return records.tobytes()


def write_cifar10_dir(directory, train_images, train_labels, test_images,
                      test_labels) -> Path:
    """Write the standard 5-train-batch + 1-test-batch binary layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    per_file = train_images.shape[0] // 5
    for i in range(5):
        chunk = slice(i * per_file, (i + 1) * per_file)
        (directory / f"data_batch_{i + 1}.bin").write_bytes(
            cifar10_records(train_images[chunk], train_labels[chunk])
        )
    (directory / "test_batch.bin").write_bytes(
        cifar10_records(test_images, test_labels)
    )
    return directory


def uniform_alpha(model, seed: int):
    """Replace the model's identity alpha with uniform [0, 1) draws, so that
    every lag is in play; returns the model.  The draws continue the seeded
    stream past the conv and FC weights that `ThriftyNet(config, seed)` drew."""
    rng = np.random.default_rng(seed)
    rng.random(sum(k.weights.data.size for k in model.kernels) + model.fc_w.data.size)
    model.alpha.data = rng.uniform(0.0, 1.0, model.alpha.data.shape).astype(model.dtype)
    return model
