"""Small-scale twins of the data-dependent acceptance runs.

The real CIFAR-10 criteria in test_acceptance.py skip when the corpus is
absent; these tests drive the identical code paths on deterministic
synthetic data at desk scale, with thresholds fixed from this
implementation's first verified runs.
"""

import numpy as np
import pytest

from _synth import standardized_pair, uniform_alpha
from thriftynet.data import ImageDataset, class_balanced_subset
from thriftynet.model import ThriftyConfig, ThriftyNet
from thriftynet.planner import make_schedule, solve_filters
from thriftynet.training import (
    AlphaRegConfig,
    TrainConfig,
    alpha_well_distance,
    evaluate,
    train,
)


def sixty_four_samples(dataset) -> ImageDataset:
    subset = class_balanced_subset(dataset, 7, seed=3)
    return ImageDataset(subset.images[:64].copy(), subset.labels[:64].copy(),
                        "train", dataset.class_count)


@pytest.mark.slow
def test_capacity_overfits_64_samples(synth_pair):
    """Twin of acceptance 5: a small residual model memorizes 64 samples."""
    train_full, _ = synth_pair
    subset = sixty_four_samples(train_full)
    config = ThriftyConfig(filters=16, iterations=6,
                           schedule=make_schedule(6, 1), history=2)
    model = ThriftyNet(config, seed=0)
    train(model, subset, subset, TrainConfig(
        epochs=100, lr_drops=(50, 80), batch_size=16, seed=0, augment=False))
    assert evaluate(model, subset) == 100.0


@pytest.mark.slow
def test_learning_signal_at_fixed_budget(synth_pair):
    """Twin of acceptance 6: budget-solved model learns the held-out split.

    First verified run reached 99.75%; 80% is the regression floor.
    """
    train_ds, test_ds = synth_pair
    filters = solve_filters(3000, 8, 3)
    config = ThriftyConfig(filters=filters, iterations=8,
                           schedule=make_schedule(8, 2), history=3)
    model = ThriftyNet(config, seed=0)
    result = train(model, train_ds, test_ds, TrainConfig(
        epochs=6, lr_drops=(4,), batch_size=128, seed=0, augment=True))
    assert result.best_test_acc >= 80.0, f"best {result.best_test_acc:.2f}%"


@pytest.mark.slow
def test_annealed_penalty_pulls_alpha_to_wells(synth_pair):
    """Twin of acceptance 7b, with the annealing step count compressed by a
    larger eps (the published eps needs ~75k steps before the penalty
    dominates; the twin reaches the same regime in 4.5k).
    """
    train_full, _ = synth_pair
    subset = sixty_four_samples(train_full)
    config = ThriftyConfig(filters=8, iterations=6,
                           schedule=make_schedule(6, 2), history=3)
    model = uniform_alpha(ThriftyNet(config, seed=1), seed=1)
    before = alpha_well_distance(model.alpha.data)
    train(model, subset, subset, TrainConfig(
        epochs=30, lr0=0.1, lr_drops=(10, 20), batch_size=8, seed=1,
        augment=False, alpha_reg=AlphaRegConfig(lambda0=3e-4, eps=1.5e-3),
        steps_per_epoch=150))
    after = alpha_well_distance(model.alpha.data)
    assert after < before
    assert after < 0.2  # first verified run landed at 0.011


@pytest.mark.slow
def test_more_downsamplings_do_not_hurt(synth_pair):
    """Twin of acceptance 8: at a fixed budget, the heavily pooled schedule
    keeps pace with the single-pool one (first run: 53.0% vs 41.5%)."""
    train_full, test_full = synth_pair
    train_ds = class_balanced_subset(train_full, 100, seed=5)
    filters = solve_filters(3000, 12, 3)
    accs = {}
    for pools in (1, 3):
        config = ThriftyConfig(filters=filters, iterations=12,
                               schedule=make_schedule(12, pools), history=3)
        model = ThriftyNet(config, seed=2)
        result = train(model, train_ds, test_full, TrainConfig(
            epochs=5, lr_drops=(3,), batch_size=128, seed=2, augment=True))
        accs[pools] = result.best_test_acc
    assert accs[3] >= accs[1] - 1.0, f"3 pools {accs[3]:.2f} vs 1 pool {accs[1]:.2f}"
