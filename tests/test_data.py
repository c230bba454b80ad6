"""Byte-exact loaders, standardization, augmentation, batching."""

import struct

import numpy as np
import pytest

from _synth import cifar10_records, synthetic_arrays, write_cifar10_dir
from thriftynet.data import (
    CIFAR100_RECORD,
    CIFAR10_RECORD,
    RAW_MAGIC,
    ImageDataset,
    augment_batch,
    batches,
    class_balanced_subset,
    load_cifar10,
    load_cifar100,
    load_raw,
    read_cifar_records,
    save_raw,
)
from thriftynet.errors import ConfigurationError, DataError


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
        assert CIFAR100_RECORD == 3074


class TestCifar10Loader:
    def test_full_layout(self, cifar10_synth_dir):
        train, test = load_cifar10(cifar10_synth_dir)
        assert len(train) == 50000 and train.split == "train"
        assert len(test) == 10000 and test.split == "test"
        assert train.images.shape == (50000, 3, 32, 32)
        assert train.images.dtype == np.float32
        assert train.class_count == 10

    def test_standardization_statistics(self, cifar10_synth_dir):
        train, _ = load_cifar10(cifar10_synth_dir)
        means = train.images.mean(axis=(0, 2, 3), dtype=np.float64)
        stds = train.images.std(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(means, 0.0, atol=1e-5)
        np.testing.assert_allclose(stds, 1.0, atol=1e-4)

    def test_test_split_uses_train_statistics(self, cifar10_synth_dir):
        _, test = load_cifar10(cifar10_synth_dir)
        # test pixels are i.i.d. with the train ones here, so the reuse of the
        # train statistics still lands near (0, 1), but only approximately
        means = test.images.mean(axis=(0, 2, 3), dtype=np.float64)
        np.testing.assert_allclose(means, 0.0, atol=0.05)

    def test_reload_is_bit_identical(self, cifar10_synth_dir):
        first_train, first_test = load_cifar10(cifar10_synth_dir)
        second_train, second_test = load_cifar10(cifar10_synth_dir)
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
            load_cifar10(folder)

    def test_wrong_record_count_rejected(self, tmp_path):
        images, labels = synthetic_arrays(250, seed=1)
        write_cifar10_dir(tmp_path, images[:250], labels[:250].astype(np.uint8),
                          images[:50], labels[:50].astype(np.uint8))
        with pytest.raises(DataError, match="records"):
            load_cifar10(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_cifar10(tmp_path / "absent")

    def test_standardized_zero_record(self, cifar10_synth_dir):
        # an all-zero image standardizes to exactly (0 - mean)/std per channel
        train, _ = load_cifar10(cifar10_synth_dir)
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


class TestCifar100Loader:
    def test_fine_labels_and_counts(self, tmp_path):
        rng = np.random.default_rng(3)
        n_train, n_test = 50000, 10000
        for name, n in (("train.bin", n_train), ("test.bin", n_test)):
            records = np.zeros((n, CIFAR100_RECORD), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 20, size=n)   # coarse
            records[:, 1] = rng.integers(0, 100, size=n)  # fine
            records[:, 2:] = rng.integers(0, 256, size=(n, 3072))
            (tmp_path / name).write_bytes(records.tobytes())
        train, test = load_cifar100(tmp_path)
        assert len(train) == 50000
        assert train.class_count == 100
        assert train.labels.min() >= 0 and train.labels.max() < 100
        assert len(test) == 10000


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


class TestBatches:
    def test_partial_final_batch(self):
        sizes = [len(labels) for _, labels in batches(tiny_dataset(10), 4)]
        assert sizes == [4, 4, 2]

    def test_unshuffled_preserves_order(self):
        ds = tiny_dataset(6)
        collected = np.concatenate(
            [labels for _, labels in batches(ds, 4, shuffle=False)]
        )
        np.testing.assert_array_equal(collected, ds.labels)

    def test_permutation_covers_everything(self):
        ds = tiny_dataset(17)
        images = np.concatenate([im for im, _ in batches(ds, 5, seed=3)])
        assert images.shape[0] == 17
        # recover indices by matching first pixels
        key = ds.images[:, 0, 0, 0]
        seen = sorted(np.flatnonzero(np.isclose(key, v)).item()
                      for v in images[:, 0, 0, 0])
        assert seen == list(range(17))

    def test_same_seed_same_permutation_distinct_seeds_differ(self):
        ds = tiny_dataset(64)
        def order(seed):
            return np.concatenate([l for _, l in batches(ds, 16, seed=seed)])
        repeats = 0
        for pair in range(100):
            a, b = 2 * pair, 2 * pair + 1
            np.testing.assert_array_equal(order(a), order(a))
            if np.array_equal(order(a), order(b)):
                repeats += 1
        assert repeats <= 1  # collisions vanishingly unlikely

    def test_augmented_batches_keep_label_pairing(self):
        ds = tiny_dataset(8)
        plain = list(batches(ds, 4, seed=5, augment=False))
        rng = np.random.default_rng(11)
        for (im_a, lab_a), (_, lab_b) in zip(
            batches(ds, 4, seed=5, augment=True), plain
        ):
            np.testing.assert_array_equal(lab_a, lab_b)
            assert im_a.shape == (4, 3, 8, 8)


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

    def test_empty_container_round_trip(self, tmp_path):
        path = tmp_path / "empty.rawt"
        save_raw(path, np.zeros((0, 3, 4, 4), dtype=np.float32), np.zeros(0, dtype=np.int64))
        ds = load_raw(path)
        assert ds.images.shape == (0, 3, 4, 4)
        assert ds.labels.shape == (0,)
        assert len(ds) == 0
