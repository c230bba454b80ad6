"""SGD training loop, shortcut-coefficient regularization, ablation protocol.

The optimizer follows

    v <- momentum * v + grad + weight_decay * param
    param <- param - lr * v

with the learning rate divided by 10 at each configured drop epoch.  The
optional auxiliary loss

    L_alpha = lambda * sum(x^2 (1-x)^2)   over the shortcut coefficients

pushes every coefficient toward 0 or 1; lambda is multiplied by (1+eps)
after each optimizer step.  Checkpoints append an optimizer-state section
(velocities, next epoch, lambda, best accuracy) to the model container, and
per-epoch RNG streams are derived from (seed, epoch) so a resumed run
reproduces the uninterrupted one exactly.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import ImageDataset, augment_batch, batches
from .errors import CheckpointError, ConfigurationError, NumericalError
from .metrics import MetricLog, MetricRow, now, read_metric_log, write_metric_log, write_timing
from .model import ThriftyNet, _Reader, deserialize_model, serialize_model
from .tensor import Tape, Value, softmax_cross_entropy


@dataclass(frozen=True)
class AlphaRegConfig:
    lambda0: float = 3e-4
    eps: float = 1.5e-4
    epochs: int | None = None  # apply during the first N epochs (None = all)


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
    eval_batch_size: int = 500

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
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in parameter {name!r}")
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
    """Eval-mode accuracy in percent over a dataset."""
    correct = 0
    for images, labels in batches(dataset, batch_size, shuffle=False, augment=False):
        logits = model.forward(images, mode="eval")
        correct += int((logits.data.argmax(axis=1) == labels).sum())
    return 100.0 * correct / len(dataset)


@dataclass
class TrainResult:
    model: ThriftyNet
    log: MetricLog
    best_test_acc: float
    final_test_acc: float


def _epoch_batches(dataset: ImageDataset, config: TrainConfig,
                   rng: np.random.Generator):
    if config.steps_per_epoch is None:
        yield from batches(dataset, config.batch_size, seed=rng, shuffle=True,
                           augment=config.augment, flip=config.flip)
        return
    # fixed step count per epoch: batches sampled uniformly with replacement
    for _ in range(config.steps_per_epoch):
        idx = rng.integers(0, len(dataset), size=config.batch_size)
        images = dataset.images[idx]
        if config.augment:
            images = augment_batch(images, rng, flip=config.flip)
        yield images, dataset.labels[idx]


def train(model: ThriftyNet, train_ds: ImageDataset, test_ds: ImageDataset,
          config: TrainConfig, out_dir=None, freeze_alpha: bool = False,
          resume_from=None, epoch_hook=None) -> TrainResult:
    """Run the epoch loop; returns the trained model plus its metric log.

    With `out_dir` set, metrics.csv, timing.csv, last.ckpt (model +
    optimizer state) and best.ckpt (model only, best test accuracy) are
    maintained after every epoch.  `resume_from` restores a last.ckpt and
    continues; the resumed log reproduces the uninterrupted run.
    `epoch_hook(row, model)` fires after each epoch's metrics are recorded.
    """
    if train_ds.class_count != model.config.num_classes:
        raise ConfigurationError(
            f"dataset has {train_ds.class_count} classes, model expects "
            f"{model.config.num_classes}"
        )
    all_params = model.trainables()
    opt_params = [(n, v) for n, v in all_params if not (freeze_alpha and n == "alpha")]
    opt = SGD(opt_params, config.momentum, config.weight_decay)

    start_epoch = 0
    lam = config.alpha_reg.lambda0 if config.alpha_reg else 0.0
    best_acc = float("-inf")
    log = MetricLog()
    if resume_from is not None:
        start_epoch, lam, best_acc = load_train_checkpoint(resume_from, model, opt)
        if out_dir is not None and (Path(out_dir) / "metrics.csv").is_file():
            for values in read_metric_log(Path(out_dir) / "metrics.csv"):
                if values[0] < start_epoch:
                    log.append(MetricRow(int(values[0]), *values[1:]))

    out = Path(out_dir) if out_dir is not None else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)

    final_acc = best_acc
    for epoch in range(start_epoch, config.epochs):
        t0 = now()
        lr = lr_at(config, epoch)
        rng = np.random.default_rng([config.seed, epoch])
        reg_active = config.alpha_reg is not None and model.alpha is not None and (
            config.alpha_reg.epochs is None or epoch < config.alpha_reg.epochs
        )
        loss_sum = 0.0
        n_batches = 0
        correct = 0
        seen = 0
        for images, labels in _epoch_batches(train_ds, config, rng):
            for _, v in all_params:
                v.grad = None
            tape = Tape()
            logits = model.forward(images, mode="train", tape=tape)
            loss, grad_scores = softmax_cross_entropy(logits.data, labels)
            if not np.isfinite(loss):
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
                lam *= 1.0 + config.alpha_reg.eps
            loss_sum += loss
            n_batches += 1
            correct += int((logits.data.argmax(axis=1) == labels).sum())
            seen += len(labels)

        test_acc = evaluate(model, test_ds, config.eval_batch_size)
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
                _atomic_write(out / "best.ckpt", serialize_model(model))
    return TrainResult(model, log, best_acc, final_acc)


# ---------------------------------------------------------------------------
# Training checkpoints: model container + optimizer-state section
# ---------------------------------------------------------------------------

OPT_MAGIC = b"OPTSTATE1"
_OPT_HEADER = struct.Struct("<IddI")  # next_epoch, lambda, best_acc, n_velocities


def _atomic_write(path: Path, blob: bytes) -> None:
    """Replace `path` with `blob` so that a crash leaves the old or the new file.

    The temp file is synced before the rename and the directory after it.
    """
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def save_train_checkpoint(model: ThriftyNet, opt: SGD, next_epoch: int, lam: float,
                          best_acc: float, path) -> None:
    parts = [serialize_model(model), OPT_MAGIC,
             _OPT_HEADER.pack(next_epoch, lam, best_acc, len(opt.velocities))]
    for vel in opt.velocities:
        parts.append(np.ascontiguousarray(vel, dtype=model.dtype).tobytes())
    _atomic_write(Path(path), b"".join(parts))


def load_train_checkpoint(path, model: ThriftyNet, opt: SGD) -> tuple[int, float, float]:
    """Restore parameters, running stats and velocities in place.

    All or nothing: the whole file, optimizer section included, is read and
    checked before anything is copied, so a rejected file leaves `model`
    and `opt` as they were.
    """
    blob = Path(path).read_bytes()
    restored, offset = deserialize_model(blob)
    if restored.config != model.config:
        raise CheckpointError(
            f"checkpoint config {restored.config} does not match model "
            f"{model.config}"
        )
    if blob[offset : offset + len(OPT_MAGIC)] != OPT_MAGIC:
        raise CheckpointError("checkpoint has no optimizer-state section")
    reader = _Reader(blob, offset + len(OPT_MAGIC))
    next_epoch, lam, best_acc, n_vel = _OPT_HEADER.unpack(reader.take(_OPT_HEADER.size))
    if n_vel != len(opt.velocities):
        raise CheckpointError(
            f"checkpoint stores {n_vel} velocities, optimizer has "
            f"{len(opt.velocities)}"
        )
    velocities = [reader.array(vel.shape, restored.dtype) for vel in opt.velocities]
    if reader.offset != len(blob):
        raise CheckpointError(f"checkpoint has {len(blob) - reader.offset} trailing bytes")
    for (name, dst), (rname, src) in zip(model.trainables(), restored.trainables()):
        if name != rname:  # pragma: no cover - orders derive from one config
            raise CheckpointError(f"parameter order mismatch: {name} vs {rname}")
        dst.data[...] = src.data
    for dst_bn, src_bn in zip(model.bn, restored.bn):
        dst_bn.running_mean[...] = src_bn.running_mean
        dst_bn.running_var[...] = src_bn.running_var
    for dst, src in zip(opt.velocities, velocities):
        dst[...] = src
    return next_epoch, lam, best_acc


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
                   phase2_epochs: int = 150, out_dir=None,
                   alpha_init: str = "identity") -> AblationReport:
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

    model = ThriftyNet(config, seed=seed, alpha_init=alpha_init)
    phase1 = train(model, train_ds, test_ds, phase1_cfg,
                   out_dir=None if out is None else out / "phase1")
    binarized = binarize_alpha(model.alpha.data)

    phase2_cfg = _phase2_config(train_config, phase2_epochs)
    results = {}
    for tag, variant_model in (
        ("a", model),
        ("b", ThriftyNet(config, seed=seed, alpha_init=alpha_init)),
        ("c", ThriftyNet(config, seed=seed + 1, alpha_init=alpha_init)),
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
