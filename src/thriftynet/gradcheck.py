"""Finite-difference verification of the analytic gradients.

The checker perturbs every element of every trainable tensor by +/-step,
re-evaluates the scalar loss, and compares the central difference against
the gradient produced by one taped backward pass.  Runs in float64.  Every
forward is a train-mode forward, which normalizes with the batch's own
statistics, so the running statistics it updates never change the loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .model import ThriftyConfig, ThriftyNet
from .tensor import Tape, Value, softmax_cross_entropy

DEFAULT_STEP = 1e-5


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest elementwise deviation, normalized by the gradient scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0),
                1e-12)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def finite_difference(loss_fn: Callable[[], float], value: Value,
                      step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of loss_fn w.r.t. every element of value."""
    grad = np.zeros_like(value.data, dtype=np.float64)
    flat = value.data.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up = loss_fn()
        flat[i] = original - step
        down = loss_fn()
        flat[i] = original
        grad.reshape(-1)[i] = (up - down) / (2.0 * step)
    return grad


@dataclass
class GroupCheck:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def default_check_config() -> ThriftyConfig:
    return ThriftyConfig(
        filters=4,
        iterations=3,
        schedule=(1, 2, 1),
        history=2,
        num_classes=3,
        input_channels=3,
    )


def check_model_gradients(config: ThriftyConfig | None = None, seed: int = 0,
                          batch: int = 3, input_hw: tuple[int, int] = (8, 8),
                          step: float = DEFAULT_STEP, tol: float = 1e-4) -> list[GroupCheck]:
    """Compare analytic and numeric gradients for every parameter group."""
    if not 0 <= tol < float("inf"):  # a nan, inf or negative tol judges nothing
        raise ConfigurationError(f"tolerance must be finite and >= 0, got {tol}")
    if config is None:
        config = default_check_config()
    model = ThriftyNet(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((batch, config.input_channels, *input_hw))
    labels = rng.integers(0, config.num_classes, size=batch)

    def loss_fn() -> float:
        logits = model.forward(x, mode="train")
        return softmax_cross_entropy(logits.data, labels)[0]

    tape = Tape()
    logits = model.forward(x, mode="train", tape=tape)
    _, grad_scores = softmax_cross_entropy(logits.data, labels)
    tape.backward(logits, grad_scores)

    results = []
    for name, value in model.trainables():
        analytic = value.grad if value.grad is not None else np.zeros_like(value.data)
        numeric = finite_difference(loss_fn, value, step)
        results.append(GroupCheck(name, max_rel_error(analytic, numeric), tol))
    return results


def summarize_groups(results: list[GroupCheck]) -> list[GroupCheck]:
    """Collapse the per-iteration gamma_t/beta_t entries into one row each."""
    merged: dict[str, GroupCheck] = {}
    for check in results:
        group = check.name.split("_")[0] if check.name.startswith(("gamma", "beta")) \
            else check.name
        prev = merged.get(group)
        if prev is None or check.max_rel_err > prev.max_rel_err:
            merged[group] = GroupCheck(group, check.max_rel_err, check.tol)
    return list(merged.values())
