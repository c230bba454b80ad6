"""The recursive single-convolution classifier.

One convolutional filter bank is applied T times to the channel-padded
input.  Each iteration applies the shared convolution, the activation, a
shortcut sum over the last h+1 activations, a per-iteration batch norm, and
the scheduled downsampling:

    x_{t+1} = D_t[ BN_t( act(conv(x_t)) + sum_i alpha[t,i] * x_{t-i} ) ]

with lags restricted to 0 <= i <= min(t, h).  The plain net is the case h=0
with a fixed, untrained alpha[t,0] = 1, so it runs the same recursion as the
residual net, and a residual net whose alpha is masked to a unit lag-0
coefficient reproduces it bit for bit.  Whenever a downsampling fires, every
stored history entry is pooled as well, keeping all lags at the resolution
of the newest activation.  The head is a global max pool followed by a fully
connected layer.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigurationError
from .tensor import (
    BatchNormState,
    ConvKernel,
    MacTally,
    Tape,
    Value,
    add_scaled,
    batchnorm,
    channel_pad,
    check_tensor4,
    conv2d,
    global_max_pool,
    grouped_conv,
    linear,
    maxpool2x2,
    relu,
    reshape,
    tanh_act,
)

DownsampleSchedule = tuple[int, ...]

CONV_MODES = ("classical", "grouped")
ACTIVATIONS = ("relu", "tanh")


def validate_schedule(schedule, iterations: int) -> DownsampleSchedule:
    factors = tuple(int(d) for d in schedule)
    if len(factors) != iterations:
        raise ConfigurationError(
            f"schedule has {len(factors)} entries, expected iterations={iterations}"
        )
    if any(d not in (1, 2) for d in factors):
        raise ConfigurationError(f"schedule entries must be 1 or 2, got {factors}")
    return factors


@dataclass(frozen=True)
class ThriftyConfig:
    """Complete architecture description."""

    filters: int
    iterations: int
    schedule: DownsampleSchedule
    history: int = 0
    kernel: tuple[int, int] = (3, 3)
    conv_mode: str = "classical"
    activation: str = "relu"
    num_classes: int = 10
    input_channels: int = 3

    def __post_init__(self) -> None:
        if self.filters < 1 or self.iterations < 1:
            raise ConfigurationError("filters and iterations must be positive")
        if self.history < 0:
            raise ConfigurationError(f"history must be >= 0, got {self.history}")
        a, b = self.kernel
        if a < 1 or b < 1 or a % 2 == 0 or b % 2 == 0:
            raise ConfigurationError(f"kernel must have odd positive sides, got {a}x{b}")
        if self.conv_mode not in CONV_MODES:
            raise ConfigurationError(f"conv_mode must be one of {CONV_MODES}")
        if self.activation not in ACTIVATIONS:
            raise ConfigurationError(f"activation must be one of {ACTIVATIONS}")
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be positive")
        if not 1 <= self.input_channels <= self.filters:
            raise ConfigurationError(
                f"input_channels={self.input_channels} must lie in [1, filters={self.filters}]"
            )
        object.__setattr__(
            self, "schedule", validate_schedule(self.schedule, self.iterations)
        )

    @property
    def residual(self) -> bool:
        return self.history >= 1

    @property
    def n_pools(self) -> int:
        return self.schedule.count(2)


@dataclass
class ForwardRecord:
    """Per-iteration channel means collected during a forward pass."""

    post_means: list[np.ndarray] = field(default_factory=list)  # mean of x_{t+1}
    act_means: list[np.ndarray] = field(default_factory=list)   # mean of act(conv(x_t))
    shapes: list[tuple[int, ...]] = field(default_factory=list)


def _glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
                    fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class ThriftyNet:
    """Model instance: a config plus its parameters and batch-norm state."""

    def __init__(self, config: ThriftyConfig, seed: int = 0, dtype=np.float32,
                 alpha_init: str = "identity"):
        dtype = np.dtype(dtype)
        f, t, k = config.filters, config.iterations, config.num_classes
        a, b = config.kernel
        rng = np.random.default_rng(seed)
        # Draw order is part of the checkpoint/replay contract: conv weights,
        # FC weights, then alpha, so that the alpha_init choice never shifts
        # the stream behind the shared weights.
        if config.conv_mode == "classical":
            conv = [_glorot_uniform(rng, (f, f, a, b), f * a * b, f * a * b, dtype)]
        else:
            conv = [_glorot_uniform(rng, (f, 1, a, b), a * b, a * b, dtype),
                    _glorot_uniform(rng, (f, f, 1, 1), f, f, dtype)]
        fc_w = _glorot_uniform(rng, (f, k), f, k, dtype)
        alpha = []
        if config.residual:
            if alpha_init == "identity":
                alpha = [np.zeros((t, config.history + 1), dtype=dtype)]
                alpha[0][:, 0] = 1.0
            elif alpha_init == "uniform":
                alpha = [rng.uniform(0.0, 1.0, size=(t, config.history + 1)).astype(dtype)]
            else:
                raise ConfigurationError(
                    f"alpha_init must be 'identity' or 'uniform', got {alpha_init!r}"
                )
        # per iteration: gamma, beta, running_mean, running_var
        bn = [np.full(f, v, dtype=dtype) for _ in range(t) for v in (1, 0, 0, 1)]
        self._assemble(config, dtype, [*conv, *bn, *alpha, fc_w, np.zeros(k, dtype=dtype)])

    def _assemble(self, config: ThriftyConfig, dtype: np.dtype,
                  tensors: list[np.ndarray]) -> None:
        """Adopt `tensors`, in checkpoint file order, as the parameters and BN
        state; the checkpoint reader builds its model through this alone."""
        self.config, self.dtype = config, dtype
        take = iter(tensors).__next__
        if config.conv_mode == "classical":
            self.conv = ConvKernel(Value(take()), groups=1)
            self.depthwise = self.pointwise = None
        else:
            self.conv = None
            self.depthwise = ConvKernel(Value(take()), groups=config.filters)
            self.pointwise = ConvKernel(Value(take()), groups=1)
        self.bn = [BatchNormState(Value(take()), Value(take()), take(), take())
                   for _ in range(config.iterations)]
        self.alpha: Value | None = Value(take()) if config.residual else None
        self.fc_w, self.fc_b = Value(take()), Value(take())

    # -- parameter bookkeeping ------------------------------------------------

    def trainables(self) -> list[tuple[str, Value]]:
        """Named trainables in the fixed checkpoint/optimizer order."""
        params: list[tuple[str, Value]] = []
        if self.conv is not None:
            params.append(("conv_w", self.conv.weights))
        else:
            params.append(("conv_dw", self.depthwise.weights))
            params.append(("conv_pw", self.pointwise.weights))
        for t, state in enumerate(self.bn):
            params.append((f"gamma_{t}", state.gamma))
            params.append((f"beta_{t}", state.beta))
        if self.alpha is not None:
            params.append(("alpha", self.alpha))
        params.append(("fc_w", self.fc_w))
        params.append(("fc_b", self.fc_b))
        return params

    def trainable_count(self) -> int:
        return sum(v.data.size for _, v in self.trainables())

    def state_arrays(self) -> list[np.ndarray]:
        """Every array whose bits define the model: trainables + running stats."""
        arrays = [v.data for _, v in self.trainables()]
        for state in self.bn:
            arrays.append(state.running_mean)
            arrays.append(state.running_var)
        return arrays

    # -- forward passes --------------------------------------------------------

    def _conv_step(self, x: Value, tape, tally) -> Value:
        if self.conv is not None:
            return conv2d(x, self.conv, tape=tape, tally=tally)
        return grouped_conv(x, self.depthwise, self.pointwise, tape=tape, tally=tally)

    def _activate(self, x: Value, tape) -> Value:
        if self.config.activation == "relu":
            return relu(x, tape=tape)
        return tanh_act(x, tape=tape)

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        check_tensor4(x)
        cfg = self.config
        if x.shape[1] != cfg.input_channels:
            raise ConfigurationError(
                f"expected {cfg.input_channels} input channels, got {x.shape[1]}"
            )
        if x.shape[1] > cfg.filters:
            raise ConfigurationError(
                f"input channels {x.shape[1]} exceed filters {cfg.filters}"
            )
        if 2 ** cfg.n_pools > min(x.shape[2], x.shape[3]):
            raise ConfigurationError(
                f"schedule performs {cfg.n_pools} halvings but input is only "
                f"{x.shape[2]}x{x.shape[3]}"
            )
        return np.ascontiguousarray(x, dtype=self.dtype)

    def forward(self, x: np.ndarray, mode: str = "train", tape: Tape | None = None,
                tally: MacTally | None = None,
                record: ForwardRecord | None = None) -> Value:
        """Run the recursion; returns the (N, K) class scores as a Value."""
        cfg = self.config
        image = Value(self._check_input(x), needs_grad=False)
        # history[i] = x_{t-i}, newest first; x_0 is the image padded to f channels
        history: list[Value] = [channel_pad(image, cfg.filters, tape=tape)]
        # the classical conv reads missing channels as zeros, so at t=0 it
        # convolves the image's real channels only
        cur = image if self.conv is not None else history[0]
        # the plain net's lag-0 coefficient is a fixed 1 that is never trained
        alpha = self.alpha if cfg.residual else np.ones((cfg.iterations, 1), self.dtype)
        for t in range(cfg.iterations):
            if tally is not None:
                tally.begin_iteration()
            a = self._activate(self._conv_step(cur, tape, tally), tape)
            if record is not None:
                record.act_means.append(a.data.mean(axis=(0, 2, 3)))
            u = add_scaled(a, history, alpha, t, tape=tape)
            v = batchnorm(u, self.bn[t], mode, tape=tape)
            keep = history[: cfg.history]  # entries still reachable next step
            if cfg.schedule[t] == 2:
                v = maxpool2x2(v, tape=tape)
                keep = [maxpool2x2(h, tape=tape) for h in keep]
            cur = v
            history = [cur, *keep]
            if record is not None:
                record.post_means.append(cur.data.mean(axis=(0, 2, 3)))
                record.shapes.append(cur.data.shape)
        pooled = global_max_pool(cur, tape=tape)
        flat = reshape(pooled, (pooled.data.shape[0], cfg.filters), tape=tape)
        if tally is not None:
            tally.begin_head()
        return linear(flat, self.fc_w, self.fc_b, tape=tape, tally=tally)


def mean_activations(model: ThriftyNet, images: np.ndarray,
                     batch_size: int = 256) -> np.ndarray:
    """(T, f) matrix: mean of x_{t+1} per channel over a dataset, eval mode.

    Spatial resolutions differ across iterations, so each row is the mean
    over batch and its own spatial grid, weighted by sample count across
    batches.
    """
    cfg = model.config
    total = np.zeros((cfg.iterations, cfg.filters), dtype=np.float64)
    seen = 0
    for start in range(0, images.shape[0], batch_size):
        chunk = images[start : start + batch_size]
        rec = ForwardRecord()
        model.forward(chunk, mode="eval", record=rec)
        total += chunk.shape[0] * np.stack(rec.post_means)
        seen += chunk.shape[0]
    return (total / seen).astype(model.dtype)


# ---------------------------------------------------------------------------
# Checkpoint format
# ---------------------------------------------------------------------------
#
# Little-endian throughout.
#
#   magic   8 bytes  b"THRIFTY1"
#   u8      dtype code: 4 = float32, 8 = float64
#   u8      conv_mode: 0 = classical, 1 = grouped
#   u8      activation: 0 = relu, 1 = tanh
#   u8      reserved (0)
#   u32 x7  filters, kernel_a, kernel_b, iterations, history,
#           num_classes, input_channels
#   u8 x T  schedule factors
#
# then raw tensors in fixed order: conv weights (classical: one tensor;
# grouped: depthwise then pointwise), per iteration gamma/beta/
# running_mean/running_var, alpha row-major (residual only), FC weights
# row-major, FC bias.

CHECKPOINT_MAGIC = b"THRIFTY1"
_HEADER = struct.Struct("<8s4B7I")
_DTYPE_CODES = {4: np.dtype(np.float32), 8: np.dtype(np.float64)}


def _tensor_shapes(cfg: ThriftyConfig) -> list[tuple[int, ...]]:
    """Shapes of the checkpoint's tensors, in file order."""
    f, (a, b), t, k = cfg.filters, cfg.kernel, cfg.iterations, cfg.num_classes
    shapes = [(f, f, a, b)] if cfg.conv_mode == "classical" else [(f, 1, a, b), (f, f, 1, 1)]
    shapes += [(f,)] * (4 * t)
    if cfg.residual:
        shapes.append((t, cfg.history + 1))
    return shapes + [(f, k), (k,)]


def _model_tensors(model: ThriftyNet) -> list[np.ndarray]:
    tensors = []
    if model.conv is not None:
        tensors.append(model.conv.weights.data)
    else:
        tensors.append(model.depthwise.weights.data)
        tensors.append(model.pointwise.weights.data)
    for state in model.bn:
        tensors.extend([state.gamma.data, state.beta.data,
                        state.running_mean, state.running_var])
    if model.alpha is not None:
        tensors.append(model.alpha.data)
    tensors.extend([model.fc_w.data, model.fc_b.data])
    return tensors


def serialize_model(model: ThriftyNet) -> bytes:
    cfg = model.config
    dtype_code = {np.dtype(np.float32): 4, np.dtype(np.float64): 8}[model.dtype]
    header = _HEADER.pack(
        CHECKPOINT_MAGIC,
        dtype_code,
        CONV_MODES.index(cfg.conv_mode),
        ACTIVATIONS.index(cfg.activation),
        0,
        cfg.filters,
        cfg.kernel[0],
        cfg.kernel[1],
        cfg.iterations,
        cfg.history,
        cfg.num_classes,
        cfg.input_channels,
    )
    parts = [header, bytes(cfg.schedule)]
    for tensor in _model_tensors(model):
        parts.append(np.ascontiguousarray(tensor, dtype=model.dtype).tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, blob: bytes, offset: int = 0):
        self.blob = blob
        self.offset = offset

    def _advance(self, n: int) -> int:
        """Consume n bytes; returns where they start."""
        if self.offset + n > len(self.blob):
            raise CheckpointError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.offset}, "
                f"file has {len(self.blob)}"
            )
        self.offset += n
        return self.offset - n

    def take(self, n: int) -> bytes:
        return self.blob[self._advance(n) : self.offset]

    def array(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        # read in place, then one copy: no intermediate bytes slice
        count = math.prod(shape)
        start = self._advance(count * dtype.itemsize)
        return np.frombuffer(self.blob, dtype, count, start).reshape(shape).copy()


def deserialize_model(blob: bytes) -> tuple[ThriftyNet, int]:
    """Rebuild a model from bytes; returns (model, bytes consumed)."""
    reader = _Reader(blob)
    try:
        (magic, dtype_code, mode_code, act_code, _reserved, f, a, b, t, h,
         num_classes, input_channels) = _HEADER.unpack(reader.take(_HEADER.size))
    except struct.error as exc:  # pragma: no cover - take() normally fires first
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if dtype_code not in _DTYPE_CODES:
        raise CheckpointError(f"unknown dtype code {dtype_code}")
    if mode_code >= len(CONV_MODES) or act_code >= len(ACTIVATIONS):
        raise CheckpointError("unknown conv mode or activation code")
    dtype = _DTYPE_CODES[dtype_code]
    schedule = tuple(reader.take(t))
    try:
        config = ThriftyConfig(
            filters=f,
            iterations=t,
            schedule=schedule,
            history=h,
            kernel=(a, b),
            conv_mode=CONV_MODES[mode_code],
            activation=ACTIVATIONS[act_code],
            num_classes=num_classes,
            input_channels=input_channels,
        )
    except ConfigurationError as exc:
        raise CheckpointError(f"checkpoint header describes no valid model: {exc}") from exc
    shapes = _tensor_shapes(config)
    need = dtype.itemsize * sum(math.prod(shape) for shape in shapes)
    if len(blob) - reader.offset < need:
        raise CheckpointError(
            f"checkpoint truncated: header promises {need} bytes of tensors, "
            f"file has {len(blob) - reader.offset} after the header"
        )
    model = ThriftyNet.__new__(ThriftyNet)
    model._assemble(config, dtype, [reader.array(shape, dtype) for shape in shapes])
    return model, reader.offset


def save_model(model: ThriftyNet, path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> ThriftyNet:
    blob = Path(path).read_bytes()
    model, consumed = deserialize_model(blob)
    if consumed != len(blob):
        raise CheckpointError(
            f"checkpoint has {len(blob) - consumed} trailing bytes"
        )
    return model
