"""Byte-exact loaders, standardization, augmentation, batching."""

import errno
import os
import struct
import tracemalloc

import numpy as np
import pytest

from _synth import cifar10_records, synthetic_arrays, write_cifar10_dir
from thriftynet.data import (
    CIFAR_LAYOUTS,
    RAW_MAGIC,
    ImageDataset,
    augment_batch,
    class_balanced_subset,
    load_cifar,
    load_raw,
    read_cifar_records,
    save_raw,
)
from thriftynet.errors import ConfigurationError, DataError
from thriftynet.tensor import Value
from thriftynet.training import TrainConfig, _epoch_batches, evaluate

CIFAR10_RECORD = CIFAR_LAYOUTS[10][3]


class TestRecordParsing:
    def test_record_arithmetic(self, tmp_path):
        images, labels = synthetic_arrays(64, seed=0)
        blob = cifar10_records(images, labels.astype(np.uint8))
        path = tmp_path / "mini.bin"
        # spec-sized file: 10000 records is 30,730,000 bytes
        assert 10000 * CIFAR10_RECORD == 30_730_000
        path.write_bytes(blob)
        parsed_labels, pixels = read_cifar_records(path, CIFAR10_RECORD)
        assert parsed_labels.shape == (64, 1)
        assert pixels.shape == (64, 3072)
        np.testing.assert_array_equal(parsed_labels[:, 0], labels)

    def test_pixel_byte_layout(self, tmp_path):
        # pixel (c,h,w) of a record sits at byte 1 + c*1024 + h*32 + w
        record = bytearray(CIFAR10_RECORD)
        record[0] = 3
        c, h, w = 2, 5, 7
        record[1 + c * 1024 + h * 32 + w] = 255
        path = tmp_path / "one.bin"
        path.write_bytes(bytes(record))
        labels, pixels = read_cifar_records(path, CIFAR10_RECORD)
        assert labels[0, 0] == 3
        image = pixels.reshape(1, 3, 32, 32)
        assert image[0, c, h, w] == 255
        assert image.sum() == 255

    def test_wrong_size_reports_byte_counts(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(bytes(CIFAR10_RECORD * 2 + 17))
        with pytest.raises(DataError, match="bytes"):
            read_cifar_records(path, CIFAR10_RECORD)

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_cifar_records(tmp_path / "nope.bin", CIFAR10_RECORD)

    def test_cifar100_record_length(self):
        assert CIFAR_LAYOUTS[100][3] == 3074


class TestCifar10Loader:
    def test_full_layout(self, cifar10_synth_dir):
        train, test = load_cifar(cifar10_synth_dir, 10)
        assert len(train) == 50000 and train.split == "train"
        assert len(test) == 10000 and test.split == "test"
        assert train.images.shape == (50000, 3, 32, 32)
        assert train.images.dtype == np.float32
        assert train.class_count == 10

    def test_standardization_statistics(self, cifar10_synth_dir):
        train, _ = load_cifar(cifar10_synth_dir, 10)
        means = train.images.mean(axis=(0, 2, 3), dtype=np.float64)
        stds = train.images.std(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(means, 0.0, atol=1e-5)
        np.testing.assert_allclose(stds, 1.0, atol=1e-4)

    def test_test_split_uses_train_statistics(self, cifar10_synth_dir):
        _, test = load_cifar(cifar10_synth_dir, 10)
        # test pixels are i.i.d. with the train ones here, so the reuse of the
        # train statistics still lands near (0, 1), but only approximately
        means = test.images.mean(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(means, 0.0, atol=0.05)

    def test_reload_is_bit_identical(self, cifar10_synth_dir):
        first_train, first_test = load_cifar(cifar10_synth_dir, 10)
        second_train, second_test = load_cifar(cifar10_synth_dir, 10)
        np.testing.assert_array_equal(first_train.images, second_train.images)
        np.testing.assert_array_equal(first_test.images, second_test.images)
        np.testing.assert_array_equal(first_train.labels, second_train.labels)

    def test_all_zero_record_value(self, tmp_path):
        images = np.zeros((50, 3, 32, 32), dtype=np.uint8)
        images[1:] = np.random.default_rng(0).integers(
            1, 256, size=(49, 3, 32, 32), dtype=np.uint8
        )
        labels = np.zeros(50, dtype=np.uint8)
        folder = write_cifar10_dir(tmp_path, np.repeat(images, 1000, axis=0),
                                   np.repeat(labels, 1000), images[:40],
                                   labels[:40])
        # undersized test file must be rejected before any decoding
        with pytest.raises(DataError):
            load_cifar(folder, 10)

    def test_wrong_record_count_rejected(self, tmp_path):
        images, labels = synthetic_arrays(250, seed=1)
        write_cifar10_dir(tmp_path, images[:250], labels[:250].astype(np.uint8),
                          images[:50], labels[:50].astype(np.uint8))
        with pytest.raises(DataError, match="records"):
            load_cifar(tmp_path, 10)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_cifar(tmp_path / "absent", 10)

    def test_standardized_zero_record(self, cifar10_synth_dir):
        # an all-zero image standardizes to exactly (0 - mean)/std per channel
        train, _ = load_cifar(cifar10_synth_dir, 10)
        raw = []
        for i in range(1, 6):
            _, pixels = read_cifar_records(
                cifar10_synth_dir / f"data_batch_{i}.bin", CIFAR10_RECORD
            )
            raw.append(pixels)
        raw_images = np.concatenate(raw).reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
        mean = raw_images.mean(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        std = raw_images.std(axis=(0, 2, 3), dtype=np.float64).astype(np.float32)
        np.testing.assert_array_equal(
            train.images[0],
            (raw_images[0] - mean.reshape(3, 1, 1)) / std.reshape(3, 1, 1),
        )


    def test_load_peak_stays_near_the_result(self, cifar10_synth_dir):
        # 737 MB of float32 images come back; decoding into fresh arrays and
        # a float64 deviation array of the whole train split peaked at 2151 MB
        tracemalloc.start()
        try:
            load_cifar(cifar10_synth_dir, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3e9, f"{peak / 1e6:.0f} MB load peak"

class TestCifar100Loader:
    def test_fine_labels_and_counts(self, tmp_path):
        rng = np.random.default_rng(3)
        n_train, n_test = 50000, 10000
        folder = tmp_path / "cifar-100-binary"  # the standard subdirectory
        folder.mkdir()
        fine = {}
        for name, n in (("train.bin", n_train), ("test.bin", n_test)):
            records = np.zeros((n, 3074), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 20, size=n)   # coarse
            records[:, 1] = rng.integers(0, 100, size=n)  # fine
            records[:, 2:] = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
            (folder / name).write_bytes(records.tobytes())
            fine[name] = records[:, 1].astype(np.int64)
        train, test = load_cifar(tmp_path, 100)
        assert len(train) == 50000
        assert train.class_count == 100
        np.testing.assert_array_equal(train.labels, fine["train.bin"])
        assert len(test) == 10000
        np.testing.assert_array_equal(test.labels, fine["test.bin"])

    def test_only_ten_or_a_hundred_classes(self, tmp_path):
        with pytest.raises(ConfigurationError, match="10 or 100"):
            load_cifar(tmp_path, 20)


class TestAugmentation:
    def test_centered_crop_no_flip_is_identity(self):
        images = np.random.default_rng(4).standard_normal((2, 3, 32, 32)).astype(np.float32)

        class FixedRng:
            def integers(self, low, high, size):
                return np.full(size, 4)

            def random(self, n):
                return np.ones(n)  # >= 0.5 means no flip

        out = augment_batch(images, FixedRng())
        np.testing.assert_array_equal(out, images)

    def test_double_flip_is_identity(self):
        images = np.random.default_rng(5).standard_normal((3, 3, 32, 32)).astype(np.float32)
        flipped = images[:, :, :, ::-1]
        np.testing.assert_array_equal(flipped[:, :, :, ::-1], images)

    def test_seeded_determinism(self):
        images = np.random.default_rng(6).standard_normal((4, 3, 32, 32)).astype(np.float32)
        a = augment_batch(images, np.random.default_rng(99))
        b = augment_batch(images, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_preserves_shape(self):
        images = np.random.default_rng(7).standard_normal((5, 3, 32, 32)).astype(np.float32)
        assert augment_batch(images, np.random.default_rng(0)).shape == images.shape


def tiny_dataset(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return ImageDataset(
        rng.standard_normal((n, 3, 8, 8)).astype(np.float32),
        rng.integers(0, 3, size=n).astype(np.int64),
        "train",
        3,
    )


def epoch_batches(ds, batch_size, seed, augment=False, steps_per_epoch=None):
    config = TrainConfig(epochs=1, lr_drops=(), batch_size=batch_size, augment=augment,
                         steps_per_epoch=steps_per_epoch)
    return list(_epoch_batches(ds, config, np.random.default_rng(seed)))


class FirstClassModel:
    """Stands in for a model in `evaluate`: records the images it is handed
    and scores every one as class 0."""

    def __init__(self):
        self.seen = []

    def forward(self, images, mode):
        assert mode == "eval"
        self.seen.append(images.copy())
        return Value(np.eye(3, dtype=np.float32)[np.zeros(len(images), dtype=int)])


class TestBatches:
    def test_partial_final_batch(self):
        sizes = [len(labels) for _, labels in epoch_batches(tiny_dataset(10), 4, seed=0)]
        assert sizes == [4, 4, 2]

    def test_unshuffled_preserves_order(self):
        # evaluate reads the split in order, its last slice partial
        ds = tiny_dataset(6)
        model = FirstClassModel()
        acc = evaluate(model, ds, batch_size=4)
        assert [len(images) for images in model.seen] == [4, 2]
        np.testing.assert_array_equal(np.concatenate(model.seen), ds.images)
        assert acc == 100.0 * np.count_nonzero(ds.labels == 0) / 6

    def test_permutation_covers_everything(self):
        ds = tiny_dataset(17)
        images = np.concatenate([im for im, _ in epoch_batches(ds, 5, seed=3)])
        assert images.shape[0] == 17
        # recover indices by matching first pixels
        key = ds.images[:, 0, 0, 0]
        seen = sorted(np.flatnonzero(np.isclose(key, v)).item()
                      for v in images[:, 0, 0, 0])
        assert seen == list(range(17))

    def test_same_seed_same_permutation_distinct_seeds_differ(self):
        ds = tiny_dataset(64)
        def order(seed):
            return np.concatenate([l for _, l in epoch_batches(ds, 16, seed=seed)])
        repeats = 0
        for pair in range(100):
            a, b = 2 * pair, 2 * pair + 1
            np.testing.assert_array_equal(order(a), order(a))
            if np.array_equal(order(a), order(b)):
                repeats += 1
        assert repeats <= 1  # collisions vanishingly unlikely

    def test_augmented_batches_keep_label_pairing(self):
        # the permutation is drawn before any augmentation draw
        ds = tiny_dataset(8)
        plain = epoch_batches(ds, 4, seed=5, augment=False)
        for (im_a, lab_a), (_, lab_b) in zip(
            epoch_batches(ds, 4, seed=5, augment=True), plain
        ):
            np.testing.assert_array_equal(lab_a, lab_b)
            assert im_a.shape == (4, 3, 8, 8)

    @pytest.mark.parametrize("augment", [False, True])
    def test_fixed_steps_draw_indices_then_augment(self, augment):
        # the draw order of the steps_per_epoch mode is part of the
        # determinism contract: per step, the indices, then the augmentation
        ds = tiny_dataset(9)
        got = epoch_batches(ds, 4, seed=7, augment=augment, steps_per_epoch=3)
        rng = np.random.default_rng(7)
        assert len(got) == 3
        for images, labels in got:
            idx = rng.integers(0, 9, size=4)
            expected = augment_batch(ds.images[idx], rng) if augment else ds.images[idx]
            np.testing.assert_array_equal(images, expected)
            np.testing.assert_array_equal(labels, ds.labels[idx])


class TestSubset:
    def test_class_balanced(self):
        ds = tiny_dataset(60, seed=8)
        sub = class_balanced_subset(ds, 4, seed=0)
        assert len(sub) == 12
        counts = np.bincount(sub.labels, minlength=3)
        np.testing.assert_array_equal(counts, [4, 4, 4])

    def test_deterministic(self):
        ds = tiny_dataset(60, seed=9)
        a = class_balanced_subset(ds, 3, seed=1)
        b = class_balanced_subset(ds, 3, seed=1)
        np.testing.assert_array_equal(a.images, b.images)


class TestRawContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        images = rng.standard_normal((7, 3, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 5, size=7)
        path = tmp_path / "data.rawt"
        save_raw(path, images, labels)
        ds = load_raw(path, "test")
        np.testing.assert_array_equal(ds.images, images)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.class_count == labels.max() + 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rawt"
        path.write_bytes(b"WRONG" + bytes(32))
        with pytest.raises(DataError):
            load_raw(path)

    def test_truncated_payload(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "short.rawt"
        save_raw(path, rng.standard_normal((4, 3, 4, 4)).astype(np.float32),
                 np.zeros(4, dtype=np.int64))
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(DataError):
            load_raw(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, tmp_path, bad):
        # written by hand: save_raw refuses to write such a file
        images = np.zeros((3, 1, 2, 2), dtype="<f4")
        images[1, 0, 1, 0] = bad
        path = tmp_path / "bad.rawt"
        path.write_bytes(RAW_MAGIC + struct.pack("<4I", *images.shape) + images.tobytes()
                         + bytes([0, 1, 2]))
        with pytest.raises(DataError, match="non-finite"):
            load_raw(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_save_refuses_non_finite_pixels(self, tmp_path, bad):
        images = np.zeros((3, 1, 2, 2))
        images[2, 0, 0, 1] = bad  # 1e39 is past float32's range
        path = tmp_path / "bad.rawt"
        with pytest.raises(DataError, match="non-finite"):
            save_raw(path, images, np.arange(3))
        assert not path.exists()

    @pytest.mark.parametrize("labels", [np.arange(5), np.arange(2), np.zeros((3, 1))])
    def test_save_refuses_a_label_count_mismatch(self, tmp_path, labels):
        path = tmp_path / "bad.rawt"
        with pytest.raises(DataError, match="one label per image"):
            save_raw(path, np.zeros((3, 1, 2, 2), dtype=np.float32), labels)
        assert not path.exists()

    def test_failed_save_keeps_the_old_container(self, tmp_path, monkeypatch):
        path = tmp_path / "data.rawt"
        save_raw(path, np.ones((2, 1, 2, 2), dtype=np.float32), np.arange(2))
        old = path.read_bytes()

        def full_disk(_fd):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "fsync", full_disk)
        with pytest.raises(OSError, match="No space left"):
            save_raw(path, np.zeros((3, 1, 2, 2), dtype=np.float32), np.arange(3))
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["data.rawt"]

    def test_save_streams_the_pixels(self, tmp_path):
        # the payload goes to the file as it is, and its finiteness check
        # builds no mask: a bytes copy made the peak exceed the pixel array,
        # and a boolean mask per pixel was 29.3 MiB of a 117 MiB save
        images = np.zeros((10000, 3, 32, 32), dtype="<f4")
        path = tmp_path / "big.rawt"
        tracemalloc.start()
        try:
            save_raw(path, images, np.zeros(10000, dtype=np.int64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        path.unlink()
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB save peak"

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.rawt"
        path.write_bytes(b"RAW")
        with pytest.raises(DataError, match="truncated: wanted 5 bytes at offset 0"):
            load_raw(path)

    def test_cut_header(self, tmp_path):
        path = tmp_path / "cut.rawt"
        path.write_bytes(RAW_MAGIC + struct.pack("<4I", 2, 1, 2, 2)[:10])
        with pytest.raises(DataError, match="truncated: wanted 16 bytes at offset 5, "
                                            "file has 15"):
            load_raw(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.rawt"
        save_raw(path, np.ones((2, 1, 2, 2), dtype=np.float32), np.arange(2))
        path.write_bytes(path.read_bytes() + b"xyz")
        with pytest.raises(DataError, match="has 3 trailing bytes"):
            load_raw(path)

    def test_short_file_with_huge_header_fails_without_allocating(self, tmp_path):
        # a 29-byte file whose header claims 10**6 3x1000x1000 images: the
        # pixels alone would take 12 TB, so the reader's bound must fire
        # before any copy
        path = tmp_path / "huge.rawt"
        path.write_bytes(RAW_MAGIC + struct.pack("<4I", 10**6, 3, 1000, 1000) + bytes(8))
        assert path.stat().st_size == 29
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated"):
                load_raw(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_load_peak_is_the_file_and_the_pixels(self, tmp_path):
        # the file's bytes and the aligned pixel copy, with no mask beside them
        rng = np.random.default_rng(12)
        images = rng.standard_normal((2000, 3, 32, 32)).astype(np.float32)
        path = tmp_path / "big.rawt"
        save_raw(path, images, np.arange(2000) % 10)
        tracemalloc.start()
        try:
            ds = load_raw(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(ds.images, images)
        assert peak < 2.1 * images.nbytes, f"{peak / images.nbytes:.2f} x the payload"

    def test_empty_container_round_trip(self, tmp_path):
        path = tmp_path / "empty.rawt"
        save_raw(path, np.zeros((0, 3, 4, 4), dtype=np.float32), np.zeros(0, dtype=np.int64))
        ds = load_raw(path)
        assert ds.images.shape == (0, 3, 4, 4)
        assert ds.labels.shape == (0,)
        assert len(ds) == 0
