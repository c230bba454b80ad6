"""The recursive single-convolution classifier.

One convolutional filter bank is applied T times, starting from x_0, the
input image.  Its C <= f channels are read as zero-padded to f: the convs
and the shortcut sum treat the channels it lacks as zeros, so the image is
never widened in memory.  Each iteration applies the shared convolution,
the activation, a shortcut sum over the last h+1 activations, a
per-iteration batch norm, and the scheduled downsampling:

    x_{t+1} = D_t[ BN_t( act(conv(x_t)) + sum_i alpha[t,i] * x_{t-i} ) ]

with lags restricted to 0 <= i <= min(t, h).  The plain net is the case h=0
with a fixed, untrained alpha[t,0] = 1, so it runs the same recursion as the
residual net, and a residual net whose alpha is masked to a unit lag-0
coefficient reproduces it bit for bit.  Whenever a downsampling fires, every
stored history entry is pooled as well, keeping all lags at the resolution
of the newest activation.  The head is a global max pool followed by a fully
connected layer.

Layout: the model takes (N, C, H, W) images and checkpoints hold conv
weights as (f_out, f_in, a, b).  Inside, `iterate` transposes the image once
to channels-last (N, H, W, C), the layout of every tensor op, and the
recursion never leaves it: the x_{t+1} it yields are (N, H, W, f).

Eval forwards run in image chunks.  Eval-mode BN, the activation, the
shortcut sum and the global max pool each treat one image on its own, so
`forward` runs the recursion over chunks of at least `EVAL_CHUNK` whole
images, keeping one chunk's activations alive instead of the batch's, and
applies the head once to the whole batch's pooled features.  Chunks of 64
or more images keep every conv GEMM off OpenBLAS's short-matrix kernel, and
one head GEMM keeps the 100-class head's bits, so the logits equal an
unchunked pass's bit for bit.  Train forwards, the only ones a tape takes,
stay one pass, since BN's batch statistics need the whole batch.

Instrumentation lives here, not in the ops: `iterate` yields every x_{t+1},
which `forward` drains and `mean_activations` reads, and `forward` fills a
`MacTally` from the resolutions and weight counts it already knows.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import CheckpointError, ConfigurationError, DataError, require_finite
from .metrics import BlobReader, atomic_write
from .tensor import (
    BatchNormState,
    ConvKernel,
    Tape,
    Value,
    add_scaled,
    batchnorm,
    check_tensor4,
    conv2d,
    global_max_pool,
    linear,
    maxpool2x2,
    relu,
    tanh_act,
)

DownsampleSchedule = tuple[int, ...]

# the shared conv's trainable names per conv mode, in the order its kernels
# apply; `_conv_shapes` gives their shapes
CONV_NAMES = {"classical": ("conv_w",), "grouped": ("conv_dw", "conv_pw")}
CONV_MODES = tuple(CONV_NAMES)
ACTIVATIONS = ("relu", "tanh")
# fewest images per eval chunk: OpenBLAS sgemm gives a short matrix's rows
# other bits than the same rows of a tall one, and 64 rows are tall enough
EVAL_CHUNK = 64


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

    def check_input_size(self, height: int, width: int) -> None:
        """Refuse an input too small for this net: every halving needs a
        pixel to pool.  The model and `planner.mac_count` both apply it."""
        if height < 1 or width < 1:
            raise ConfigurationError(f"input size must be positive, got {(height, width)}")
        if 2 ** self.n_pools > min(height, width):
            raise ConfigurationError(f"schedule performs {self.n_pools} halvings but "
                                     f"input is only {height}x{width}")


@dataclass
class MacTally:
    """Nominal multiply-accumulates of forward passes, as `ThriftyNet.forward`
    adds them: iteration t counts N*H_t*W_t times the shared conv's weight
    count, since each output position reads every weight once (zero input
    channels included, so the narrow t=0 conv counts all f_in), and the head
    counts N*f*K.  Pooling, batch norm, activations and shortcut sums are
    not counted."""

    per_iteration: list[int] = field(default_factory=list)
    head: int = 0

    @property
    def total(self) -> int:
        return sum(self.per_iteration) + self.head


def _channel_means(x: np.ndarray) -> np.ndarray:
    """Per-channel mean of a channels-last activation, accumulated in float64
    (a float32 sum over the leading axes adds every value in sequence)."""
    return x.mean(axis=(0, 1, 2), dtype=np.float64).astype(x.dtype)


def _eval_chunks(n: int) -> list[slice]:
    """max(1, n // EVAL_CHUNK) contiguous slices that cover n images, sizes
    differing by at most one: 64-127 images each when n >= 64."""
    k = max(1, n // EVAL_CHUNK)
    bounds = [n * i // k for i in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _conv_shapes(cfg: ThriftyConfig) -> list[tuple[int, int, int, int]]:
    """Shapes of the shared conv's kernels, (f_out, f_in/groups, a, b), in
    the order they apply: the classical kernel, or depthwise then pointwise."""
    f, (a, b) = cfg.filters, cfg.kernel
    if cfg.conv_mode == "classical":
        return [(f, f, a, b)]
    return [(f, 1, a, b), (f, f, 1, 1)]


def _glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int,
                    fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class ThriftyNet:
    """Model instance: a config plus its parameters and batch-norm state."""

    def __init__(self, config: ThriftyConfig, seed: int = 0, dtype=np.float32):
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        dtype = np.dtype(dtype)
        f, t, k = config.filters, config.iterations, config.num_classes
        rng = np.random.default_rng(seed)
        # Draw order is part of the checkpoint/replay contract: conv weights,
        # then FC weights.
        conv = []
        for shape in _conv_shapes(config):
            fan = math.prod(shape[1:])
            conv.append(_glorot_uniform(rng, shape, fan, fan, dtype))
        fc_w = _glorot_uniform(rng, (f, k), f, k, dtype)
        alpha = []
        if config.residual:  # lag 0 alone: the residual net starts as the plain one
            alpha = [np.zeros((t, config.history + 1), dtype=dtype)]
            alpha[0][:, 0] = 1.0
        # per iteration: gamma, beta, running_mean, running_var
        bn = [np.full(f, v, dtype=dtype) for _ in range(t) for v in (1, 0, 0, 1)]
        self._assemble(config, dtype, [*conv, *bn, *alpha, fc_w, np.zeros(k, dtype=dtype)])

    def _assemble(self, config: ThriftyConfig, dtype: np.dtype,
                  tensors: list[np.ndarray]) -> None:
        """Adopt `tensors`, in checkpoint file order, as the parameters and BN
        state; the checkpoint reader builds its model through this alone.
        File order, the order of `state_arrays()`, is the model's one order."""
        self.config, self.dtype = config, dtype
        take = iter(tensors).__next__
        # the shared conv's kernels in the order they apply
        self.kernels = [ConvKernel(Value(take()), groups=shape[0] // shape[1])
                        for shape in _conv_shapes(config)]
        self.bn = [BatchNormState(Value(take()), Value(take()), take(), take())
                   for _ in range(config.iterations)]
        self.alpha: Value | None = Value(take()) if config.residual else None
        self.fc_w, self.fc_b = Value(take()), Value(take())

    # -- parameter bookkeeping ------------------------------------------------

    def _file_order(self) -> Iterator[tuple[str, Value | np.ndarray]]:
        """Every array the model owns, named, in checkpoint file order: a
        Value per trainable, the plain array per BN running statistic.  Read
        afresh on each call, since callers may rebind `Value.data` and the
        `BatchNormState` fields."""
        yield from zip(CONV_NAMES[self.config.conv_mode],
                       (kernel.weights for kernel in self.kernels))
        for t, state in enumerate(self.bn):
            yield f"gamma_{t}", state.gamma
            yield f"beta_{t}", state.beta
            yield f"running_mean_{t}", state.running_mean
            yield f"running_var_{t}", state.running_var
        if self.alpha is not None:
            yield "alpha", self.alpha
        yield "fc_w", self.fc_w
        yield "fc_b", self.fc_b

    def trainables(self) -> list[tuple[str, Value]]:
        """Named trainables: `state_arrays()` order without the running
        stats.  The optimizer's velocities follow this order, in memory and
        in `last.ckpt`."""
        return [(name, v) for name, v in self._file_order() if isinstance(v, Value)]

    def trainable_count(self) -> int:
        return sum(v.data.size for _, v in self.trainables())

    def state_arrays(self) -> list[np.ndarray]:
        """Every array whose bits define the model, in checkpoint file order:
        the trainables' data with each iteration's running stats after its
        gamma and beta.  `serialize_model` writes exactly these."""
        return [v.data if isinstance(v, Value) else v for _, v in self._file_order()]

    # -- forward passes --------------------------------------------------------

    def _conv_step(self, x: Value, tape) -> Value:
        for kernel in self.kernels:
            x = conv2d(x, kernel, tape=tape)
        return x

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
        cfg.check_input_size(x.shape[2], x.shape[3])
        return np.ascontiguousarray(x.transpose(0, 2, 3, 1), dtype=self.dtype)

    def iterate(self, x: np.ndarray, mode: str = "train",
                tape: Tape | None = None) -> Iterator[Value]:
        """Run the recursion on (N, C, H, W) images, yielding each x_{t+1},
        t = 0 .. T-1, as an (N, H_{t+1}, W_{t+1}, f) Value."""
        cfg = self.config
        # history[i] = x_{t-i}, newest first.  x_0 is the image itself, read
        # as zero-padded to f channels: the conv and the shortcut sum treat
        # the channels it lacks as zeros
        history = [Value(self._check_input(x), needs_grad=False)]
        # the plain net's lag-0 coefficient is a fixed 1 that is never trained
        alpha = self.alpha if cfg.residual else Value(
            np.ones((cfg.iterations, 1), self.dtype), needs_grad=False)
        for t in range(cfg.iterations):
            # nested, and `summed` dropped once BN has read it, so that the
            # conv output, the activation and the shortcut sum are each freed
            # once the next op has read them
            summed = add_scaled(self._activate(self._conv_step(history[0], tape), tape),
                                history, alpha, t, tape=tape)
            history = history[: cfg.history]  # entries still reachable next step
            pool = cfg.schedule[t] == 2
            if pool:
                # before BN, so that the full-size lags are freed before BN
                # allocates its xhat and output
                history = [maxpool2x2(h, tape=tape) for h in history]
            cur = batchnorm(summed, self.bn[t], mode, tape=tape)
            del summed
            if pool:
                cur = maxpool2x2(cur, tape=tape)
            history = [cur, *history]
            yield cur

    def forward(self, x: np.ndarray, mode: str = "train", tape: Tape | None = None,
                tally: MacTally | None = None) -> Value:
        """Run the recursion on (N, C, H, W) images; returns the (N, K) class
        scores as a Value.  A `tally` gets this pass's MACs added.

        An eval forward runs the recursion over chunks of 64-127 images, so
        that one chunk's activations are alive at a time and every conv GEMM
        is tall enough for OpenBLAS to give the rows an unchunked pass
        gives; it applies the head once, to the whole batch's pooled
        features, since the 100-class head GEMM rounds differently on fewer
        rows.  A train forward, the only kind a `tape` takes, is one pass
        over the batch: BN's batch statistics and the backward need all of
        it."""
        n = x.shape[0]
        chunks = _eval_chunks(n) if mode == "eval" else [slice(0, n)]
        pooled = []
        for chunk in chunks:
            grids = []  # H*W of x_1 .. x_T
            for cur in self.iterate(x[chunk], mode, tape):
                grids.append(cur.data.shape[1] * cur.data.shape[2])
            pooled.append(global_max_pool(cur, tape=tape))
        features = pooled[0] if len(pooled) == 1 else Value(
            np.concatenate([p.data for p in pooled]))
        if tally is not None:
            # iteration t convolves x_t at the resolution x_t has
            weights = sum(kernel.weight_count for kernel in self.kernels)
            inputs = [x.shape[2] * x.shape[3], *grids[:-1]]  # H*W of x_0 .. x_{T-1}
            tally.per_iteration += [n * g * weights for g in inputs]
            tally.head += n * self.fc_w.data.size
        return linear(features, self.fc_w, self.fc_b, tape=tape)


def mean_activations(model: ThriftyNet, images: np.ndarray) -> np.ndarray:
    """(T, f) matrix: mean of x_{t+1} per channel over a dataset, eval mode.

    The images run in the eval forward's chunks.  Spatial resolutions differ
    across iterations, so each row is the mean over images and its own
    spatial grid, weighted by image count across chunks.
    """
    n = images.shape[0]
    if n == 0:
        raise DataError("mean_activations needs at least one image, got 0")
    cfg = model.config
    total = np.zeros((cfg.iterations, cfg.filters), dtype=np.float64)
    for chunk in _eval_chunks(n):
        part = images[chunk]
        means = [_channel_means(x.data) for x in model.iterate(part, mode="eval")]
        total += part.shape[0] * np.stack(means)
    return (total / n).astype(model.dtype)


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
# then the raw tensors of `ThriftyNet.state_arrays()`, in its order: conv
# weights (classical: one tensor; grouped: depthwise then pointwise), per
# iteration gamma/beta/running_mean/running_var, alpha row-major (residual
# only), FC weights row-major, FC bias.
#
# A training checkpoint (`last.ckpt`) continues with an optimizer section,
# which `save_train_checkpoint` writes, `load_train_checkpoint` reads and
# `load_model` skips; this module alone writes and reads the container:
#
#   magic   9 bytes  b"OPTSTATE1"
#   u32     next epoch
#   f64     alpha-regularization strength lambda
#   f64     best test accuracy so far
#   u32     velocity count
#
# then one momentum velocity per trainable, in `trainables()` order, raw in
# the model's dtype.

CHECKPOINT_MAGIC = b"THRIFTY1"
OPT_MAGIC = b"OPTSTATE1"
_HEADER = struct.Struct("<8s4B7I")
_OPT_HEADER = struct.Struct("<IddI")  # next_epoch, lambda, best_acc, n_velocities
_DTYPE_CODES = {4: np.dtype(np.float32), 8: np.dtype(np.float64)}


def _tensor_shapes(cfg: ThriftyConfig) -> list[tuple[int, ...]]:
    """Shapes of the checkpoint's tensors, in file order."""
    f, t, k = cfg.filters, cfg.iterations, cfg.num_classes
    shapes = _conv_shapes(cfg) + [(f,)] * (4 * t)
    if cfg.residual:
        shapes.append((t, cfg.history + 1))
    return shapes + [(f, k), (k,)]


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
    for tensor in model.state_arrays():
        parts.append(np.ascontiguousarray(tensor, dtype=model.dtype).tobytes())
    return b"".join(parts)


def deserialize_model(blob: bytes) -> tuple[ThriftyNet, int]:
    """Rebuild a model from bytes; returns (model, bytes consumed).  A
    tensor holding a NaN or an infinity is rejected, naming the tensor."""
    reader = BlobReader(blob, CheckpointError, "checkpoint")
    (magic, dtype_code, mode_code, act_code, _reserved, f, a, b, t, h,
     num_classes, input_channels) = _HEADER.unpack(reader.take(_HEADER.size))
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
    model = ThriftyNet.__new__(ThriftyNet)
    model._assemble(config, dtype, [reader.array(shape, dtype) for shape in shapes])
    for (name, _), array in zip(model._file_order(), model.state_arrays()):
        require_finite(array, CheckpointError,
                       f"checkpoint tensor {name} holds a non-finite value")
    return model, reader.offset


def save_model(model: ThriftyNet, path) -> None:
    atomic_write(path, serialize_model(model))


def _read_checkpoint(path) -> tuple[ThriftyNet, BlobReader | None]:
    """The model in a checkpoint file, and a reader at the start of its
    optimizer section, or None when the model ends the file."""
    blob = Path(path).read_bytes()
    model, offset = deserialize_model(blob)
    if blob.startswith(OPT_MAGIC, offset):
        return model, BlobReader(blob, CheckpointError, "checkpoint", offset + len(OPT_MAGIC))
    BlobReader(blob, CheckpointError, "checkpoint", offset).finish()
    return model, None


def load_model(path) -> ThriftyNet:
    """The model in a checkpoint file: a model container that ends the file
    or is followed by an optimizer section, which is not read."""
    return _read_checkpoint(path)[0]


def save_train_checkpoint(model: ThriftyNet, opt, next_epoch: int, lam: float,
                          best_acc: float, path) -> None:
    """Write the model and the optimizer state of `opt`, a `training.SGD`."""
    parts = [serialize_model(model), OPT_MAGIC,
             _OPT_HEADER.pack(next_epoch, lam, best_acc, len(opt.velocities))]
    for vel in opt.velocities:
        parts.append(np.ascontiguousarray(vel, dtype=model.dtype))
    atomic_write(path, *parts)


def load_train_checkpoint(path, model: ThriftyNet, opt) -> tuple[int, float, float]:
    """Restore parameters, running stats and the velocities of `opt`, a
    `training.SGD`, in place, from a checkpoint of the model's config and
    dtype; returns (next epoch, lambda, best test accuracy).

    All or nothing: the whole file, optimizer section included, is read and
    checked, for non-finite values too, before anything is copied, so a
    rejected file leaves `model` and `opt` as they were.
    """
    restored, reader = _read_checkpoint(path)
    if restored.config != model.config:
        raise CheckpointError(
            f"checkpoint config {restored.config} does not match model "
            f"{model.config}"
        )
    if restored.dtype != model.dtype:
        # copying would round (float64 -> float32) or widen the saved bits, so
        # the resumed run would not be the uninterrupted one
        raise CheckpointError(
            f"checkpoint holds {restored.dtype} arrays, model is {model.dtype}"
        )
    if reader is None:
        raise CheckpointError("checkpoint has no optimizer-state section")
    next_epoch, lam, best_acc, n_vel = _OPT_HEADER.unpack(reader.take(_OPT_HEADER.size))
    if n_vel != len(opt.velocities):
        raise CheckpointError(
            f"checkpoint stores {n_vel} velocities, optimizer has "
            f"{len(opt.velocities)}"
        )
    velocities = [reader.array(vel.shape, restored.dtype) for vel in opt.velocities]
    reader.finish()
    if not math.isfinite(lam):
        raise CheckpointError(f"checkpoint's alpha-regularization lambda is {lam}")
    if not 0.0 <= best_acc <= 100.0:
        raise CheckpointError(f"checkpoint's best test accuracy is {best_acc}, not in [0, 100]")
    for (name, _), vel in zip(opt.params, velocities):
        require_finite(vel, CheckpointError,
                       f"checkpoint's velocity of {name} holds a non-finite value")
    for dst, src in zip(model.state_arrays(), restored.state_arrays()):
        dst[...] = src
    for dst, src in zip(opt.velocities, velocities):
        dst[...] = src
    return next_epoch, lam, best_acc
