"""SGD training loop, shortcut-coefficient regularization, ablation, sweeps.

The optimizer follows

    v <- momentum * v + grad + weight_decay * param
    param <- param - lr * v

with the learning rate divided by 10 at each configured drop epoch.  The
optional auxiliary loss

    L_alpha = lambda * sum(x^2 (1-x)^2)   over the shortcut coefficients

pushes every coefficient toward 0 or 1; lambda is multiplied by (1+eps)
after each optimizer step at which the penalty acts on a trained alpha.
Per-epoch RNG streams are derived from (seed, epoch), and `last.ckpt`, which
model.py writes, holds the optimizer state after the model, so a resumed run
reproduces the uninterrupted one exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import planner
from .data import ImageDataset, augment_batch
from .errors import ConfigurationError, DataError, NumericalError, require_finite
from .metrics import (MetricLog, MetricRow, now, read_metric_log, read_timing,
                      write_csv, write_metric_log, write_timing)
from .model import ThriftyNet, load_train_checkpoint, save_model, save_train_checkpoint
from .tensor import Tape, Value, softmax_cross_entropy


def _require_finite(config, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(config, name)):
            raise ConfigurationError(f"{name} must be finite, got {getattr(config, name)}")


def _require_positive_or_none(config, name: str) -> None:
    value = getattr(config, name)
    if value is not None and value < 1:
        raise ConfigurationError(f"{name} must be >= 1 or None, got {value}")


@dataclass(frozen=True)
class AlphaRegConfig:
    lambda0: float = 3e-4
    eps: float = 1.5e-4
    epochs: int | None = None  # apply during the first N epochs (None = all)

    def __post_init__(self) -> None:
        _require_finite(self, "lambda0", "eps")
        _require_positive_or_none(self, "epochs")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr0: float = 0.1
    lr_drops: tuple[int, ...] = (50, 100, 150)
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 128
    seed: int = 0
    augment: bool = True
    flip: bool = True  # horizontal mirroring (used for CIFAR, not digits)
    alpha_reg: AlphaRegConfig | None = None
    steps_per_epoch: int | None = None  # None = one pass over the train split

    def __post_init__(self) -> None:
        drops = tuple(self.lr_drops)
        if any(d2 <= d1 for d1, d2 in zip(drops, drops[1:])):
            raise ConfigurationError(f"lr_drops must be strictly increasing: {drops}")
        if any(d >= self.epochs for d in drops):
            raise ConfigurationError(
                f"lr_drops {drops} must all be < epochs={self.epochs}"
            )
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigurationError("epochs and batch_size must be positive")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        _require_finite(self, "lr0", "momentum", "weight_decay")
        _require_positive_or_none(self, "steps_per_epoch")
        object.__setattr__(self, "lr_drops", drops)


def lr_at(config: TrainConfig, epoch: int) -> float:
    drops = sum(1 for d in config.lr_drops if d <= epoch)
    return config.lr0 * (0.1 ** drops)


class SGD:
    """Momentum SGD over named parameters; running BN stats are untouched."""

    def __init__(self, params: list[tuple[str, Value]], momentum: float = 0.9,
                 weight_decay: float = 0.0):
        self.params = params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocities = [np.zeros_like(v.data) for _, v in params]

    def zero_grad(self) -> None:
        for _, v in self.params:
            v.grad = None

    def step(self, lr: float) -> None:
        for (name, p), vel in zip(self.params, self.velocities):
            g = p.grad
            if g is None:
                continue
            require_finite(g, NumericalError, f"non-finite gradient in parameter {name!r}")
            np.multiply(vel, self.momentum, out=vel)
            vel += g
            if self.weight_decay:
                vel += self.weight_decay * p.data
            p.data -= lr * vel


def alpha_reg_loss(alpha: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """Double-well penalty lambda*sum(x^2 (1-x)^2) and its gradient."""
    x = alpha
    loss = float(lam * np.sum(x * x * (1.0 - x) ** 2))
    grad = 2.0 * lam * x * (1.0 - x) * (1.0 - 2.0 * x)
    return loss, grad.astype(alpha.dtype, copy=False)


def binarize_alpha(alpha: np.ndarray) -> np.ndarray:
    """Threshold at 0.5; entries >= 0.5 become 1, the rest 0."""
    return (alpha >= 0.5).astype(alpha.dtype)


def alpha_well_distance(alpha: np.ndarray) -> float:
    """Mean over unmasked entries (lag i usable at step t, t >= i) of
    min(|x|, |1-x|), the distance to the nearest well."""
    t_idx, i_idx = np.indices(alpha.shape)
    valid = t_idx >= i_idx
    x = alpha[valid]
    return float(np.minimum(np.abs(x), np.abs(1.0 - x)).mean())


def evaluate(model: ThriftyNet, dataset: ImageDataset, batch_size: int = 500) -> float:
    """Eval-mode accuracy in percent over a dataset, read in order.

    `batch_size` bounds only the slice of images handed to the forward and
    its logits: the forward runs each slice in chunks of 64-127 images, so
    the activations held at once do not grow with it.
    """
    _require_images(dataset)
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    correct = 0
    for start in range(0, len(dataset), batch_size):
        batch = slice(start, start + batch_size)
        logits = model.forward(dataset.images[batch], mode="eval")
        correct += int((logits.data.argmax(axis=1) == dataset.labels[batch]).sum())
    return 100.0 * correct / len(dataset)


def _require_images(dataset: ImageDataset) -> None:
    if len(dataset) == 0:
        raise DataError(f"the {dataset.split} split has no images")


@dataclass
class TrainResult:
    model: ThriftyNet
    log: MetricLog
    best_test_acc: float
    final_test_acc: float


def _epoch_batches(dataset: ImageDataset, config: TrainConfig,
                   rng: np.random.Generator):
    """One epoch's (images, labels) batches: a shuffled pass over the split,
    its last batch partial, or `steps_per_epoch` batches drawn uniformly with
    replacement.  Index draws and augmentation share `rng`, in that order."""
    n, size = len(dataset), config.batch_size
    if config.steps_per_epoch is None:
        order = rng.permutation(n)
        draws = (order[start : start + size] for start in range(0, n, size))
    else:
        draws = (rng.integers(0, n, size=size) for _ in range(config.steps_per_epoch))
    for idx in draws:
        images = dataset.images[idx]
        if config.augment:
            images = augment_batch(images, rng, flip=config.flip)
        yield images, dataset.labels[idx]


def train(model: ThriftyNet, train_ds: ImageDataset, test_ds: ImageDataset,
          config: TrainConfig, out_dir=None, freeze_alpha: bool = False,
          resume_from=None) -> TrainResult:
    """Run the epoch loop; returns the trained model plus its metric log.

    With `out_dir` set, metrics.csv, timing.csv, last.ckpt (model +
    optimizer state) and best.ckpt (model only, best test accuracy) are
    maintained after every epoch.  `resume_from` restores a last.ckpt and
    continues; the resumed log reproduces the uninterrupted run.
    `freeze_alpha` makes alpha a constant, which neither the backward nor
    the optimizer touches, until a later `train()` without it.
    """
    if train_ds.class_count != model.config.num_classes:
        raise ConfigurationError(
            f"dataset has {train_ds.class_count} classes, model expects "
            f"{model.config.num_classes}"
        )
    # an empty split would fail only after the first epoch's training
    _require_images(train_ds)
    _require_images(test_ds)
    if model.alpha is not None:
        # a frozen alpha is a constant: the forward computes no gradient for it
        model.alpha.needs_grad = not freeze_alpha
    opt = SGD([(n, v) for n, v in model.trainables() if v.needs_grad], config.momentum,
              config.weight_decay)

    start_epoch = 0
    lam = config.alpha_reg.lambda0 if config.alpha_reg else 0.0
    best_acc = float("-inf")
    log = MetricLog()
    if resume_from is not None:
        start_epoch, lam, best_acc = load_train_checkpoint(resume_from, model, opt)
        if out_dir is not None and (Path(out_dir) / "metrics.csv").is_file():
            timing = Path(out_dir) / "timing.csv"
            wall_times = read_timing(timing) if timing.is_file() else {}
            for row in read_metric_log(Path(out_dir) / "metrics.csv"):
                if row.epoch < start_epoch:
                    row.wall_time_s = wall_times.get(row.epoch, 0.0)
                    log.append(row)

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    # the penalty, and lambda's annealing, act only on an alpha that trains
    reg = config.alpha_reg if model.alpha is not None and model.alpha.needs_grad else None

    final_acc = best_acc
    for epoch in range(start_epoch, config.epochs):
        t0 = now()
        lr = lr_at(config, epoch)
        rng = np.random.default_rng([config.seed, epoch])
        reg_active = reg is not None and (reg.epochs is None or epoch < reg.epochs)
        loss_sum = 0.0
        n_batches = 0
        correct = 0
        seen = 0
        for images, labels in _epoch_batches(train_ds, config, rng):
            opt.zero_grad()
            tape = Tape()
            logits = model.forward(images, mode="train", tape=tape)
            loss, grad_scores = softmax_cross_entropy(logits.data, labels)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}; last checkpoint retained"
                )
            tape.backward(logits, grad_scores)
            if reg_active:
                _, reg_grad = alpha_reg_loss(model.alpha.data, lam)
                if model.alpha.grad is None:
                    model.alpha.grad = reg_grad
                else:
                    model.alpha.grad += reg_grad
            opt.step(lr)
            if reg_active:
                lam *= 1.0 + reg.eps
            loss_sum += loss
            n_batches += 1
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(labels)

        test_acc = evaluate(model, test_ds)
        final_acc = test_acc
        log.append(MetricRow(
            epoch=epoch,
            lr=lr,
            train_loss=loss_sum / max(n_batches, 1),
            train_acc=100.0 * correct / max(seen, 1),
            test_acc=test_acc,
            lam=lam if config.alpha_reg else 0.0,
            wall_time_s=now() - t0,
        ))
        improved = test_acc > best_acc
        if improved:
            best_acc = test_acc
        if out is not None:
            write_metric_log(log, out / "metrics.csv")
            write_timing(log, out / "timing.csv")
            save_train_checkpoint(model, opt, epoch + 1, lam, best_acc,
                                  out / "last.ckpt")
            if improved:
                save_model(model, out / "best.ckpt")
    return TrainResult(model, log, best_acc, final_acc)


# ---------------------------------------------------------------------------
# Shortcut freezing study
# ---------------------------------------------------------------------------


@dataclass
class AblationReport:
    baseline_acc: float          # phase 1, trained with the double-well penalty
    finetune_acc: float          # (a) continue from phase-1 weights
    same_init_acc: float         # (b) retrain from the phase-1 initialization
    fresh_init_acc: float        # (c) retrain from a different initialization
    binarized_alpha: np.ndarray
    final_accs: dict = field(default_factory=dict)


def _scaled_drops(epochs: int) -> tuple[int, ...]:
    # the 150-epoch protocol drops at 50 and 100; scale that pattern
    return tuple(sorted({d for d in (epochs // 3, 2 * epochs // 3) if 0 < d < epochs}))


def _phase2_config(base: TrainConfig, epochs: int) -> TrainConfig:
    return replace(base, epochs=epochs, lr_drops=_scaled_drops(epochs), alpha_reg=None)


def ablation_alpha(config, train_ds: ImageDataset, test_ds: ImageDataset,
                   train_config: TrainConfig, phase1_epochs: int = 150,
                   phase2_epochs: int = 150, out_dir=None) -> AblationReport:
    """Two-phase shortcut freezing study.

    Phase 1 trains with the annealed double-well penalty; the shortcut
    matrix is then binarized at 0.5 and frozen.  Phase 2 runs three
    150-epoch (by default) trainings: (a) continuing from the phase-1
    weights, (b) restarting from the phase-1 initialization (seed replay),
    (c) restarting from a fresh initialization.
    """
    if config.history < 1:
        raise ConfigurationError("the shortcut study needs a residual model (h >= 1)")
    seed = train_config.seed
    reg = train_config.alpha_reg or AlphaRegConfig()
    phase1_cfg = replace(train_config, epochs=phase1_epochs,
                         lr_drops=_scaled_drops(phase1_epochs), alpha_reg=reg)
    out = Path(out_dir) if out_dir is not None else None

    model = ThriftyNet(config, seed=seed)
    phase1 = train(model, train_ds, test_ds, phase1_cfg,
                   out_dir=None if out is None else out / "phase1")
    binarized = binarize_alpha(model.alpha.data)

    phase2_cfg = _phase2_config(train_config, phase2_epochs)
    results = {}
    for tag, variant_model in (
        ("a", model),
        ("b", ThriftyNet(config, seed=seed)),
        ("c", ThriftyNet(config, seed=seed + 1)),
    ):
        variant_model.alpha.data[...] = binarized
        results[tag] = train(
            variant_model, train_ds, test_ds, phase2_cfg,
            out_dir=None if out is None else out / f"phase2_{tag}",
            freeze_alpha=True,
        )
    return AblationReport(
        baseline_acc=phase1.best_test_acc,
        finetune_acc=results["a"].best_test_acc,
        same_init_acc=results["b"].best_test_acc,
        fresh_init_acc=results["c"].best_test_acc,
        binarized_alpha=binarized,
        final_accs={tag: r.final_test_acc for tag, r in results.items()},
    )


# ---------------------------------------------------------------------------
# Trade-off sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = ("f", "T", "h", "n_pools", "params_total", "macs_total",
                 "test_acc", "status")


def sweep(configs, train_ds, test_ds, train_config, repeats: int = 1, out_dir=None):
    """Train every config with the shared settings; emit the trade-off table.

    MACs are counted at the (H, W) of the train images.  One seed per point
    by default; `repeats` > 1 averages over consecutive seeds.  A failing
    point is a failed row, with nan MACs if its pools do not fit the images,
    and the sweep continues.  Rows are emitted in config order.
    """
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if out_dir is not None:  # before the first point trains
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    rows = []
    for config in configs:
        params = planner.param_count(config)
        macs, accs, status = float("nan"), [], "ok"
        try:
            macs = planner.mac_count(config, train_ds.images.shape[2:]).total
            for r in range(repeats):
                run_seed = train_config.seed + r
                model = ThriftyNet(config, seed=run_seed)
                result = train(model, train_ds, test_ds,
                               replace(train_config, seed=run_seed))
                accs.append(result.best_test_acc)
        except Exception as exc:  # noqa: BLE001 - sweep must survive bad points
            status = f"failed: {type(exc).__name__}"
        mean_acc = sum(accs) / len(accs) if accs else float("nan")
        rows.append([config.filters, config.iterations, config.history,
                     config.n_pools, params.total, macs, mean_acc, status])
        if out_dir is not None:
            write_csv(Path(out_dir) / "sweep.csv", SWEEP_COLUMNS, rows)
    return rows
