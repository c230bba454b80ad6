"""Analytical accounting and budget-driven architecture planning.

Parameter counts follow the closed forms

    classical core   f^2*a*b + 2*f*T
    grouped core     f*(a*b + f) + 2*f*T

with the residual shortcut matrix adding T*(h+1) entries and the classifier
head adding f*K + K.  `table1_total` reports the alternative convention that
adds h*T on top of the core, kept for cross-checking published counts; both
conventions are exposed rather than silently merging them.

MAC counts are nominal: one multiply-accumulate per kernel multiplication,
zero-padded positions and zero input channels included, so the first
classical conv counts all f input channels although it multiplies only the
image's real ones; pooling, batch norm, activations and shortcut sums are
excluded.  The reference for correctness is the `MacTally` that a forward
pass fills in, divided by its batch size, not any published total.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .model import DownsampleSchedule, ThriftyConfig


@dataclass(frozen=True)
class ParamCount:
    core: int          # shared conv + all batch-norm affine pairs
    alpha_full: int    # T*(h+1) shortcut coefficients (0 for plain models)
    head: int          # f*K + K
    total: int         # core + alpha_full + head = enumerated trainables
    table1_total: int  # core + h*T convention


@dataclass(frozen=True)
class MacCount:
    per_iteration: tuple[int, ...]
    head: int
    total: int


def param_count(config: ThriftyConfig) -> ParamCount:
    f, t, h = config.filters, config.iterations, config.history
    a, b = config.kernel
    conv = f * f * a * b if config.conv_mode == "classical" else f * (a * b + f)
    core = conv + 2 * f * t
    alpha_full = t * (h + 1) if config.residual else 0
    head = f * config.num_classes + config.num_classes
    return ParamCount(
        core=core,
        alpha_full=alpha_full,
        head=head,
        total=core + alpha_full + head,
        table1_total=core + h * t,
    )


def mac_count(config: ThriftyConfig, input_hw: tuple[int, int]) -> MacCount:
    """Per-sample multiply-accumulates, tracking the resolution schedule,
    of an input the model would run on (`ThriftyConfig.check_input_size`)."""
    config.check_input_size(*input_hw)
    f = config.filters
    a, b = config.kernel
    h, w = input_hw
    per_position = f * f * a * b if config.conv_mode == "classical" else f * a * b + f * f
    per_iteration = []
    for factor in config.schedule:
        per_iteration.append(per_position * h * w)
        if factor == 2:
            h, w = (h + 1) // 2, (w + 1) // 2
    head = f * config.num_classes
    return MacCount(
        per_iteration=tuple(per_iteration),
        head=head,
        total=sum(per_iteration) + head,
    )


def solve_filters(budget: int, iterations: int, history: int,
                  kernel: tuple[int, int] = (3, 3), conv_mode: str = "classical",
                  num_classes: int = 10, convention: str = "total") -> int:
    """Largest f whose parameter count fits the budget.

    `convention` picks which count is held under the budget: "total"
    (core + shortcut matrix + head, the enumerated trainables) or "table1"
    (core + h*T).
    """
    if convention not in ("total", "table1"):
        raise ConfigurationError(f"unknown budget convention {convention!r}")

    def count(f: int) -> int:
        # parameter counts read neither the schedule nor the input channels
        counts = param_count(ThriftyConfig(
            filters=f, iterations=iterations, schedule=(1,) * iterations,
            history=history, kernel=kernel, conv_mode=conv_mode,
            num_classes=num_classes, input_channels=1,
        ))
        return counts.table1_total if convention == "table1" else counts.total

    if count(1) > budget:
        raise ConfigurationError(
            f"budget {budget} is too small: even f=1 needs {count(1)} parameters"
        )
    lo, hi = 1, 2
    while count(hi) <= budget:
        lo, hi = hi, hi * 2
    while hi - lo > 1:  # count is monotone increasing in f
        mid = (lo + hi) // 2
        if count(mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def make_schedule(iterations: int, n_pools: int = 0,
                  placement: str = "regular") -> DownsampleSchedule:
    """Build a downsampling schedule: 1 keeps resolution, 2 halves it.

    regular      pool k fires after iteration floor((k+1)*T/(n_pools+1)) - 1
    front_loaded pools occupy iterations 0 .. n_pools-1

    An explicit schedule needs no building: `validate_schedule` checks it.
    """
    if not 0 <= n_pools <= iterations:
        raise ConfigurationError(
            f"n_pools={n_pools} must lie in [0, iterations={iterations}]"
        )
    factors = [1] * iterations
    if placement == "regular":
        positions = [(k + 1) * iterations // (n_pools + 1) - 1 for k in range(n_pools)]
        if n_pools > 0 and (positions[0] < 0 or len(set(positions)) != n_pools):
            raise ConfigurationError(
                f"cannot space {n_pools} pools regularly over {iterations} iterations"
            )
        for p in positions:
            factors[p] = 2
    elif placement == "front_loaded":
        for p in range(n_pools):
            factors[p] = 2
    else:
        raise ConfigurationError(
            f"placement must be 'regular' or 'front_loaded', got {placement!r}"
        )
    return tuple(factors)


PLAN_COLUMNS = ("f", "T", "h", "n_pools", "params_core", "params_total", "macs_total")


def plan_row(config: ThriftyConfig, input_hw: tuple[int, int]) -> dict:
    params = param_count(config)
    macs = mac_count(config, input_hw)
    return {
        "f": config.filters,
        "T": config.iterations,
        "h": config.history,
        "n_pools": config.n_pools,
        "params_core": params.core,
        "params_total": params.total,
        "macs_total": macs.total,
    }
