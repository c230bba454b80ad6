"""Acceptance criteria, one test per criterion.

Criteria 5-8 train on the real CIFAR-10 binaries and skip (loudly) when the
corpus is absent; place cifar-10-batches-bin under ./data or point
$THRIFTYNET_DATA at it.  Their machinery is exercised unconditionally at
smaller scale in test_training_synthetic.py.  Each test prints an
"ACCEPTANCE <n> PASS" line on success.
"""

import time

import numpy as np
import pytest

from _synth import uniform_alpha
from thriftynet.data import ImageDataset, class_balanced_subset, load_cifar
from thriftynet.errors import DataError
from thriftynet.gradcheck import (
    check_model_gradients,
    default_check_config,
    finite_difference,
    max_rel_error,
)
from thriftynet.model import (
    MacTally,
    ThriftyConfig,
    ThriftyNet,
    load_model,
    save_model,
    serialize_model,
)
from thriftynet.planner import mac_count, make_schedule, param_count, solve_filters
from thriftynet.tensor import Value
from thriftynet.training import (
    AlphaRegConfig,
    TrainConfig,
    alpha_reg_loss,
    alpha_well_distance,
    evaluate,
    train,
)


def announce(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n} PASS: {message}")


def random_structural_config(rng, min_history=0):
    f = int(rng.integers(2, 17))
    t = int(rng.integers(1, 9))
    h = int(rng.integers(min_history, 11))
    kernel = (3, 3) if rng.random() < 0.7 else ((5, 5) if rng.random() < 0.5 else (1, 1))
    conv_mode = "classical" if rng.random() < 0.5 else "grouped"
    schedule = tuple(int(v) for v in rng.choice([1, 1, 2], size=t))
    classes = int(rng.integers(2, 12))
    return ThriftyConfig(
        filters=f, iterations=t, schedule=schedule, history=h, kernel=kernel,
        conv_mode=conv_mode, num_classes=classes, input_channels=min(3, f),
    )


def test_acceptance_1_gradient_correctness():
    """f=4, T=3, h=2, K=3, 8x8 inputs, float64: every trainable group's
    analytic gradient matches central differences (step 1e-5) < 1e-4."""
    t0 = time.time()
    config = default_check_config()
    assert (config.filters, config.iterations, config.history,
            config.num_classes) == (4, 3, 2, 3)
    results = check_model_gradients(config, seed=0, batch=3, input_hw=(8, 8),
                                    step=1e-5, tol=1e-4)
    elapsed = time.time() - t0
    worst = max(results, key=lambda r: r.max_rel_err)
    assert all(r.passed for r in results), \
        [f"{r.name}: {r.max_rel_err:.2e}" for r in results if not r.passed]
    assert elapsed < 60.0
    announce(1, f"all {len(results)} parameter groups < 1e-4 "
                f"(worst {worst.name}: {worst.max_rel_err:.2e}) in {elapsed:.1f}s")


def test_acceptance_2_parameter_accounting():
    """>= 200 random configs: total == enumerated trainables exactly, and
    the core term matches the published closed forms."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(220):
        config = random_structural_config(rng)
        counts = param_count(config)
        f, t, h = config.filters, config.iterations, config.history
        a, b = config.kernel
        if config.conv_mode == "classical":
            expected_core = f * f * a * b + 2 * f * t
        else:
            expected_core = f * (a * b + f) + 2 * f * t
        assert counts.core == expected_core
        assert counts.table1_total == expected_core + h * t
        model = ThriftyNet(config, seed=checked)
        assert counts.total == model.trainable_count()
        checked += 1
    announce(2, f"{checked} random configs: totals equal enumeration, "
                f"core matches closed forms")


def test_acceptance_3_mac_accounting():
    """planner.mac_count times the batch size equals the forward's tally exactly."""
    rng = np.random.default_rng(3033)
    checked = 0
    while checked < 50:
        config = random_structural_config(rng)
        if config.filters > 12 or config.iterations > 6:
            continue
        lo = 2 ** config.n_pools
        hw = int(rng.integers(lo, max(lo + 1, 13)))
        model = ThriftyNet(config, seed=checked)
        x = rng.standard_normal((1, config.input_channels, hw, hw)).astype(np.float32)
        expected = mac_count(config, (hw, hw))
        for n in (1, 3):  # the tally counts the batch, mac_count one sample
            tally = MacTally()
            model.forward(np.repeat(x, n, axis=0), mode="eval", tally=tally)
            assert tuple(tally.per_iteration) == tuple(n * m for m in expected.per_iteration)
            assert tally.head == n * expected.head
            assert tally.total == n * expected.total
        checked += 1
    announce(3, f"{checked} random configs: closed form == instrumented tally")


def test_acceptance_4_recursion_equivalence():
    """Residual forward with lag-0 weight 1 is bit-identical to the plain
    recursion on shared weights, train and eval modes."""
    rng = np.random.default_rng(4044)
    for trial in range(20):
        f = int(rng.integers(3, 11))
        t = int(rng.integers(1, 7))
        h = int(rng.integers(1, 5))
        schedule = tuple(int(v) for v in rng.choice([1, 1, 2], size=t))
        lo = 2 ** schedule.count(2)
        hw = int(rng.integers(lo, max(lo + 1, 17)))
        activation = "relu" if rng.random() < 0.5 else "tanh"
        base = dict(filters=f, iterations=t, schedule=schedule,
                    kernel=(3, 3), activation=activation, num_classes=5,
                    input_channels=3)
        residual = ThriftyNet(ThriftyConfig(history=h, **base), seed=trial)
        residual.alpha.data[...] = 0.0
        residual.alpha.data[:, 0] = 1.0
        plain = ThriftyNet(ThriftyConfig(history=0, **base), seed=trial)
        x = rng.standard_normal((2, 3, hw, hw)).astype(np.float32)
        for mode in ("train", "eval"):
            lhs = residual.forward(x, mode=mode).data
            rhs = plain.forward(x, mode=mode).data
            assert lhs.tobytes() == rhs.tobytes(), f"trial {trial} mode {mode}"
    announce(4, "20 random configs bit-identical under lag-0 masking")


@pytest.fixture(scope="module")
def cifar10_loaded(cifar10_real):
    return load_cifar(cifar10_real, 10)


def fixed_64_sample_subset(train_ds) -> ImageDataset:
    subset = class_balanced_subset(train_ds, 7, seed=64)
    return ImageDataset(subset.images[:64].copy(), subset.labels[:64].copy(),
                        "train", train_ds.class_count)


@pytest.mark.slow
def test_acceptance_5_overfit_capacity(cifar10_loaded):
    """A residual model (f=32, T=10, h=3) memorizes a fixed 64-sample
    CIFAR-10 subset within 200 epochs in under 10 minutes."""
    train_ds, _ = cifar10_loaded
    subset = fixed_64_sample_subset(train_ds)
    config = ThriftyConfig(filters=32, iterations=10,
                           schedule=make_schedule(10, 3), history=3)
    model = ThriftyNet(config, seed=0)
    t0 = time.time()
    train(model, subset, subset, TrainConfig(
        epochs=200, lr_drops=(50, 100, 150), batch_size=16, seed=0,
        augment=False))
    train_acc = evaluate(model, subset)
    elapsed = time.time() - t0
    assert train_acc == 100.0, f"reached only {train_acc}%"
    assert elapsed < 600.0
    announce(5, f"100% train accuracy on the 64-sample subset "
                f"({param_count(config).total} params, {elapsed:.0f}s)")


@pytest.mark.slow
def test_acceptance_6_desk_scale_learning(cifar10_loaded):
    """40K-budget model (T=15, h=5, 4 regular pools), 20 epochs on the full
    CIFAR-10 train split: >= 55% test accuracy."""
    train_ds, test_ds = cifar10_loaded
    filters = solve_filters(40000, 15, 5)
    config = ThriftyConfig(filters=filters, iterations=15,
                           schedule=make_schedule(15, 4), history=5)
    model = ThriftyNet(config, seed=0)
    result = train(model, train_ds, test_ds, TrainConfig(
        epochs=20, lr0=0.1, lr_drops=(12, 17), batch_size=128, seed=0))
    assert result.best_test_acc >= 55.0, f"best {result.best_test_acc:.2f}%"
    announce(6, f"f={filters} ({param_count(config).total} params) reached "
                f"{result.best_test_acc:.2f}% test accuracy in 20 epochs")


def test_acceptance_7a_alpha_penalty_gradient():
    """Analytic double-well gradient matches finite differences < 1e-10."""
    rng = np.random.default_rng(7077)
    alpha = Value(rng.uniform(-0.5, 1.5, size=(6, 4)))
    lam = 3e-4
    _, analytic = alpha_reg_loss(alpha.data, lam)
    numeric = finite_difference(lambda: alpha_reg_loss(alpha.data, lam)[0],
                                alpha, step=1e-6)
    err = max_rel_error(analytic, numeric)
    assert err < 1e-10
    announce(7, f"L_alpha gradient matches finite differences ({err:.2e})")


@pytest.mark.slow
def test_acceptance_7b_annealing_pulls_alpha_to_wells(cifar10_loaded):
    """150 epochs of the published annealing protocol (lambda0=3e-4,
    eps=1.5e-4 per step, 500 steps per epoch) on the 64-sample toy task
    strictly shrinks the mean distance of unmasked alpha to {0, 1}."""
    train_ds, _ = cifar10_loaded
    subset = fixed_64_sample_subset(train_ds)
    config = ThriftyConfig(filters=8, iterations=6,
                           schedule=make_schedule(6, 2), history=3)
    model = uniform_alpha(ThriftyNet(config, seed=1), seed=1)
    before = alpha_well_distance(model.alpha.data)
    train(model, subset, subset, TrainConfig(
        epochs=150, lr0=0.1, lr_drops=(50, 100), batch_size=16, seed=1,
        augment=False, alpha_reg=AlphaRegConfig(3e-4, 1.5e-4),
        steps_per_epoch=500))
    after = alpha_well_distance(model.alpha.data)
    assert after < before, f"distance went {before:.4f} -> {after:.4f}"
    announce(7, f"well distance {before:.4f} -> {after:.4f} under annealing")


@pytest.mark.slow
def test_acceptance_8_downsampling_trend(cifar10_loaded):
    """~40K budget, T=30, 15-epoch desk-scale runs: 4 pools does not trail
    1 pool by more than 1 point."""
    train_full, test_full = cifar10_loaded
    train_ds = class_balanced_subset(train_full, 300, seed=8)
    test_ds = class_balanced_subset(test_full, 200, seed=9)
    filters = solve_filters(40000, 30, 5)
    accs = {}
    for pools in (1, 4):
        config = ThriftyConfig(filters=filters, iterations=30,
                               schedule=make_schedule(30, pools), history=5)
        model = ThriftyNet(config, seed=8)
        result = train(model, train_ds, test_ds, TrainConfig(
            epochs=15, lr_drops=(5, 10), batch_size=128, seed=8))
        accs[pools] = result.best_test_acc
    assert accs[4] >= accs[1] - 1.0, f"4 pools {accs[4]:.2f} vs 1 pool {accs[1]:.2f}"
    announce(8, f"accuracy(4 pools)={accs[4]:.2f} vs accuracy(1 pool)={accs[1]:.2f}")


def test_acceptance_9_determinism_and_persistence(tiny_pair, tmp_path):
    """Same seed => bit-identical logs; checkpoints round-trip bit-exactly;
    resumed training reproduces the uninterrupted run's rows."""
    train_ds, test_ds = tiny_pair
    config = ThriftyConfig(filters=6, iterations=3, schedule=(1, 2, 1),
                           history=2)
    train_cfg = TrainConfig(epochs=4, lr0=0.05, lr_drops=(2,), batch_size=32,
                            seed=9, augment=True,
                            alpha_reg=AlphaRegConfig(3e-4, 1.5e-4))

    logs = []
    for name in ("a", "b"):
        model = ThriftyNet(config, seed=9)
        train(model, train_ds, test_ds, train_cfg, out_dir=tmp_path / name)
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()

    model = ThriftyNet(config, seed=9)
    model.forward(train_ds.images[:8], mode="train")  # non-trivial BN stats
    ckpt = tmp_path / "round.ckpt"
    save_model(model, ckpt)
    reloaded = load_model(ckpt)
    for a, b in zip(model.state_arrays(), reloaded.state_arrays()):
        np.testing.assert_array_equal(a, b)
    assert serialize_model(reloaded) == serialize_model(model)

    full_model = ThriftyNet(config, seed=9)
    full = train(full_model, train_ds, test_ds, train_cfg,
                 out_dir=tmp_path / "full")
    half_cfg = TrainConfig(epochs=2, lr0=0.05, lr_drops=(), batch_size=32,
                           seed=9, augment=True,
                           alpha_reg=AlphaRegConfig(3e-4, 1.5e-4))
    half_model = ThriftyNet(config, seed=9)
    train(half_model, train_ds, test_ds, half_cfg, out_dir=tmp_path / "half")
    resumed_model = ThriftyNet(config, seed=9)
    resumed = train(resumed_model, train_ds, test_ds, train_cfg,
                    out_dir=tmp_path / "resumed",
                    resume_from=tmp_path / "half" / "last.ckpt")
    assert [r.values() for r in resumed.log.rows[-2:]] == \
        [r.values() for r in full.log.rows[-2:]]
    for a, b in zip(full_model.state_arrays(), resumed_model.state_arrays()):
        np.testing.assert_array_equal(a, b)
    announce(9, "identical logs, bit-exact checkpoints, exact resume")


def test_acceptance_10_data_ingestion(cifar10_synth_dir, tmp_path):
    """Loaders validate the 50000/10000 record counts and byte layout;
    standardized train channels have mean 0 +/- 1e-5 and std 1 +/- 1e-4."""
    train_ds, test_ds = load_cifar(cifar10_synth_dir, 10)
    assert len(train_ds) == 50000
    assert len(test_ds) == 10000
    means = train_ds.images.mean(axis=(0, 2, 3), dtype=np.float64)
    stds = train_ds.images.std(axis=(0, 2, 3), dtype=np.float64)
    assert np.abs(means).max() < 1e-5
    assert np.abs(stds - 1.0).max() < 1e-4

    # byte-exact layout: a flipped pixel lands exactly where the format says
    blob = bytearray((cifar10_synth_dir / "data_batch_3.bin").read_bytes())
    record, c, h, w = 1234, 1, 7, 19
    offset = record * 3073 + 1 + c * 1024 + h * 32 + w
    original = blob[offset]
    blob[offset] = (original + 1) % 256
    (tmp_path / "data_batch_3.bin").write_bytes(bytes(blob))
    for name in ("data_batch_1.bin", "data_batch_2.bin", "data_batch_4.bin",
                 "data_batch_5.bin", "test_batch.bin"):
        (tmp_path / name).write_bytes((cifar10_synth_dir / name).read_bytes())
    modified_train, _ = load_cifar(tmp_path, 10)
    delta = np.abs(modified_train.images - train_ds.images)
    index = np.unravel_index(delta.argmax(), delta.shape)
    assert index == (20000 + record, c, h, w)
    assert np.count_nonzero(delta) == 1

    # undersized files are rejected with byte counts in the message
    (tmp_path / "test_batch.bin").write_bytes(bytes(3073 * 9999))
    with pytest.raises(DataError, match="records"):
        load_cifar(tmp_path, 10)
    announce(10, "record counts, byte-exact layout, standardization verified")
