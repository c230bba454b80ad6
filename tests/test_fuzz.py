"""Seeded fuzzing of the file readers.

Truncated and byte-flipped copies of valid checkpoints and RAWT1 containers
must either load or fail with CheckpointError / DataError, never with another
exception, and the reader must not allocate more than a small fixed amount
while rejecting them (a flipped header can claim gigabytes of tensors).
"""

import tracemalloc

import numpy as np
import pytest

from thriftynet.data import load_raw, save_raw
from thriftynet.errors import CheckpointError, DataError
from thriftynet.model import ThriftyConfig, ThriftyNet, load_model, serialize_model
from thriftynet.training import SGD, load_train_checkpoint, save_train_checkpoint

CASES = 250               # mutated files per format and per mutation kind
PEAK_BOUND = 2 * 2**20    # bytes; every valid file here is under 12 kB
HEADER_SPAN = 64          # half the byte flips land in the first bytes of a file


def mutations(blob: bytes, spans: list[tuple[int, int]], seed: int):
    """Yield (kind, mutated blob): CASES random truncations, then CASES
    copies with 1-4 bytes XOR-ed, half of them inside one of `spans`
    (headers), where a flip changes the file's claimed shapes."""
    rng = np.random.default_rng(seed)
    for _ in range(CASES):
        yield "truncate", blob[: int(rng.integers(0, len(blob)))]
    for i in range(CASES):
        flipped = bytearray(blob)
        start, stop = spans[i % len(spans)] if i % 2 else (0, len(blob))
        for pos in rng.integers(start, stop, size=int(rng.integers(1, 5))):
            flipped[pos] ^= int(rng.integers(1, 256))
        yield "flip", bytes(flipped)


def fuzz(read, path, blob: bytes, spans: list[tuple[int, int]], seed: int) -> int:
    """Feed every mutation of `blob` to `read(path)`; returns how many loaded."""
    loaded = 0
    tracemalloc.start()
    try:
        for i, (kind, case) in enumerate(mutations(blob, spans, seed)):
            path.write_bytes(case)
            try:
                read(path)
                loaded += 1
            except (CheckpointError, DataError):
                pass
            except Exception as exc:  # any other exception is the failure
                pytest.fail(f"case {i} ({kind}, {len(case)} bytes) raised "
                            f"{type(exc).__name__}: {exc}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND
    return loaded


def small_net(seed: int, dtype=np.float32) -> ThriftyNet:
    config = ThriftyConfig(filters=6, iterations=4, schedule=(1, 2, 1, 1), history=2,
                           num_classes=5)
    return ThriftyNet(config, seed=seed, dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_model_checkpoint(tmp_path, dtype):
    blob = serialize_model(small_net(1, dtype))
    loaded = fuzz(load_model, tmp_path / "m.ckpt", blob, [(0, HEADER_SPAN)], seed=1)
    assert loaded < 2 * CASES  # every truncation is rejected


def test_train_checkpoint(tmp_path):
    model = small_net(2)
    opt = SGD(model.trainables(), momentum=0.9)
    for vel in opt.velocities:
        vel[...] = 0.5
    path = tmp_path / "t.ckpt"
    save_train_checkpoint(model, opt, 3, 0.1, 42.0, path)
    blob = path.read_bytes()
    opt_header = len(serialize_model(model))  # the OPTSTATE1 section starts here

    def read(p):
        target = small_net(3)
        load_train_checkpoint(p, target, SGD(target.trainables(), momentum=0.9))

    spans = [(0, HEADER_SPAN), (opt_header, opt_header + 33)]
    fuzz(read, tmp_path / "fuzzed.ckpt", blob, spans, seed=2)


def test_raw_container(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "data.rawt"
    save_raw(path, rng.standard_normal((6, 3, 8, 8)).astype(np.float32),
             rng.integers(0, 10, size=6))
    fuzz(load_raw, tmp_path / "fuzzed.rawt", path.read_bytes(), [(0, 21)], seed=3)
