"""Rank-4 tensors and the differentiable primitives the network is built from.

Activations use one layout, channels-last (batch, height, width, channel),
C-contiguous, so element (n, h, w, c) lives at flat index
((n*H + h)*W + w)*C + c.  A classical conv's im2col GEMM then reads and
writes its (N*H*W, f) matrices as plain reshapes, batch norm reduces over
rows of C contiguous values, and pooling strides over H and W with C
innermost.  The public edges stay (batch, channel, height, width): the
model transposes its input image once, and conv weights keep the shape
(f_out, f_in, a, b).  The recursion adds each conv output to earlier
activations, so every conv is same-padded: an odd a x b kernel sees
(a-1)/2 rows and (b-1)/2 columns of zeros on each side, and only pooling
shrinks an activation.  Every primitive comes as a forward plus an
analytic backward; recording ops on a Tape while running forward and
replaying the records in reverse accumulates gradients into every `Value`
that contributed, parameters included.  A record keeps only what its
backward reads, and each activation once: the gradient slots of its
inputs, not the inputs, no patch matrix, and ReLU's mask at one bit per
value.  A backward that reads an input keeps `Value.rows()` of it, so a
train-mode batch-norm output, which the conv's weight gradient and the
shortcut sum's coefficient gradient read, is rebuilt a few images at a
time from the xhat that batch norm's backward keeps, not kept beside it
(the rule that makes this sound is in the Tape docstring).  One function,
`_scale_shift`, makes batch norm's train output, its eval output and that
rebuild, so a rebuilt row equals the output because the same code made
both.  Eval-mode batch norm, a fixed affine of the running statistics, has
no backward: only train forwards take a tape.  The classical conv gathers
its im2col patch matrix as a transient in the forward, a few whole images
(about 8 MiB of patches) at a time, so that its GEMM reads the patches
back from cache, not from DRAM; its backward works through g in the same
chunks, and takes the weight gradient from the patch matrix of g that it
gathers for the input gradient anyway.

Each gradient array has one owner (the rule is in the Tape docstring), so
ReLU, tanh and batch norm build their input gradient in the g they are
handed, and the shortcut sum hands g itself to its base, uncopied.

float32 is the training precision; the gradient-checking tests run the same
code in float64.  All ops are pure given their inputs and the explicit
mutable state they declare (BatchNormState running stats, the Tape).

Heap policy: the recursion applies one convolution T times, so a step asks
for the same few large shapes over and over.  glibc serves every block above
its mmap threshold (by default at most 32 MiB) with a fresh mapping and
unmaps it on free.  At paper scale a 128x64x32x32 float32 activation is
32 MiB of data (33.5 MB), just above that cap once malloc adds its header,
so each one would be zero-filled page by page again on every use.
Importing this module therefore tells glibc, once, to serve blocks up to
2 GiB from its heap and never to trim the heap top, so a freed array is
reused by the next request of its size.  Where `mallopt` is missing or
refuses, nothing changes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigurationError, DataError, DegenerateBatchError

Array = np.ndarray

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_blocks_in_heap() -> None:
    """Apply the heap policy of the module docstring; a no-op off glibc.
    (The MALLOC_*_ environment variables would have to be set before the
    process starts.)"""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, -1)
    mallopt(_M_MMAP_THRESHOLD, 2**31 - 1)


_keep_freed_blocks_in_heap()


class _GradSlot:
    """The accumulated gradient of one Value, held apart from its data."""

    __slots__ = ("grad",)

    def __init__(self) -> None:
        self.grad: Array | None = None


class Value:
    """An array in the computation together with its accumulated gradient.

    The gradient lives in a small slot of its own, `slot`, and `grad` reads
    and writes it.  Backward closures capture the slots of their inputs, not
    the inputs themselves, so an activation that no backward reads is freed
    as soon as the forward drops it.  A backward that does read an input's
    data keeps `rows()` of it, not `data`: for a taped train-mode batch-norm
    output, whose `affine` holds the xhat that batch norm's own backward
    keeps anyway and gamma and beta tiled to one image row, that is a
    reader which rebuilds the rows it is asked for, so the output itself is
    freed with the forward's last reference too.

    A Value made with `needs_grad=False` is a constant, the model's input
    image or a fixed coefficient table (the plain net's, or a frozen
    alpha): `maxpool2x2` of it records nothing and returns a constant, and
    `conv2d` and `add_scaled` compute no gradient for it.
    """

    __slots__ = ("data", "slot", "needs_grad", "affine")

    def __init__(self, data: Array, needs_grad: bool = True,
                 affine: tuple[Array, Array, Array] | None = None):
        self.data = np.ascontiguousarray(data)
        self.slot = _GradSlot()
        self.needs_grad = needs_grad
        self.affine = affine

    def rows(self) -> Array | _AffineRows:
        """What a backward keeps to read this Value's data, indexed by a
        slice of images: `data` itself, or, for a Value with `affine` =
        (xhat, gamma row, beta row), a reader that rebuilds xhat * gamma +
        beta."""
        return self.data if self.affine is None else _AffineRows(*self.affine)

    @property
    def grad(self) -> Array | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: Array | None) -> None:
        self.slot.grad = g

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value(shape={self.data.shape}, dtype={self.data.dtype})"


def _scale_shift(x: Array, scale_row: Array, shift_row: Array, out: Array) -> Array:
    """out = x * scale + shift for (N,H,W,C) arrays x and out, with the
    per-channel scale and shift tiled to one image row (W*C values), so
    that numpy's broadcast loop runs over W*C values at a time rather than
    C (about twice as fast at C=16).  Each value gets the same two IEEE ops
    as with a (C,) broadcast."""
    rows = out.reshape(-1, scale_row.size)
    np.multiply(x.reshape(rows.shape), scale_row, out=rows)
    rows += shift_row
    return out


class _AffineRows:
    """Rows of a train-mode batch norm's output, rebuilt on demand from
    xhat by the `_scale_shift` that made the output, so they equal its
    bits.  Each read is written into one scratch, reused across reads and
    sized by the first, so it stays valid only until the next read."""

    __slots__ = ("xhat", "gamma_row", "beta_row", "shape", "_scratch")

    def __init__(self, xhat: Array, gamma_row: Array, beta_row: Array):
        self.xhat, self.shape = xhat, xhat.shape
        self.gamma_row, self.beta_row = gamma_row, beta_row
        self._scratch: Array | None = None

    def __getitem__(self, images: slice) -> Array:
        xhat = self.xhat[images]
        k = len(xhat)
        if self._scratch is None or len(self._scratch) < k:
            self._scratch = np.empty_like(xhat)
        return _scale_shift(xhat, self.gamma_row, self.beta_row, self._scratch[:k])


def _accumulate(slot: _GradSlot, g: Array) -> None:
    # g belongs to this slot alone (the Tape's ownership rule), so no copy
    if slot.grad is None:
        slot.grad = g
    else:
        slot.grad += g


class Tape:
    """Execution record of one forward pass, enabling reverse-mode gradients.

    Ops are appended in execution order, which is topological by
    construction; replaying the backward closures in reverse order therefore
    visits every consumer of a Value before its producer.  A record holds the
    gradient slot of its output, not the output.  A tape supports exactly
    one backward, which consumes the records: each is popped and run, then
    its closure, the arrays the closure saved and its output's gradient are
    dropped.  A tape must not be shared between concurrent forward passes.

    Gradient ownership: `backward` hands each closure a g that no slot and
    no other closure holds.  The closure may overwrite g, and may hand g, or
    a view of g, to exactly one slot once it has finished reading g.  Each
    array it passes to `_accumulate` goes to one slot only, so no slot
    copies what it gets.  The seed is copied, so the caller's array is
    never written.

    Rebuilt rows: a train-mode batch norm's backward spends its saved xhat
    in place, and the readers that `Value.rows()` hands out for its output
    read that xhat.  This is sound because every consumer of an output is
    recorded after the op that made it, so each consumer's backward, the
    only place a reader is read, runs before the batch norm's backward.
    """

    def __init__(self) -> None:
        self._records: list[tuple[_GradSlot, Callable[[Array], None]]] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Value, backward: Callable[[Array], None]) -> None:
        self._records.append((out.slot, backward))

    def backward(self, out: Value, seed_grad: Array) -> None:
        """Seed d(loss)/d(out) and propagate to everything on the tape."""
        if self._consumed:
            raise ConfigurationError("tape already consumed by a previous backward()")
        self._consumed = True
        seed = np.array(seed_grad, dtype=out.data.dtype)
        if seed.shape != out.data.shape:
            raise ConfigurationError(
                f"seed gradient shape {seed.shape} != output shape {out.data.shape}"
            )
        _accumulate(out.slot, seed)
        records = self._records
        while records:
            slot, backward_fn = records.pop()
            grad, slot.grad = slot.grad, None
            if grad is not None:
                backward_fn(grad)


def check_tensor4(x: Array) -> None:
    if x.ndim != 4:
        raise ConfigurationError(
            "input must be rank 4, (N,H,W,C) inside the tensor ops or (N,C,H,W) "
            f"as a model input; got shape {x.shape}"
        )
    if min(x.shape) < 1:
        raise ConfigurationError(f"input has an empty dimension: {x.shape}")


def _channel_sum(x: Array) -> Array:
    """Per-channel sum of an (N,H,W,C) array: over each image (one
    matrix-vector product per image), then over the batch.  A plain sum
    over the leading axes would add each channel's N*H*W values one after
    another; at 128x32x32 float32 that is about 40 times less accurate."""
    n, h, w, c = x.shape
    return (np.ones(h * w, dtype=x.dtype) @ x.reshape(n, h * w, c)).sum(axis=0)


def _channel_dot(x: Array, y: Array) -> Array:
    """Per-channel <x, y> of two (N,H,W,C) arrays, summed like _channel_sum."""
    return np.einsum("nhwc,nhwc->nc", x, y).sum(axis=0)


def _dot(x: Array, y: Array | _AffineRows) -> Array:
    """<x, y> of two (N,H,W,C) arrays: one dot product per image, then their
    sum; at 128x32x32x64 float32 a single dot over all the values is about
    40 times less accurate.  y is `Value.rows()` of an input, read one
    _image_chunks slice at a time, so a rebuilt y is never whole.  A y with
    fewer channels than x is read as zero-padded to x's channels, in a
    scratch, since a dot over y's own channels alone would round
    differently from the dot with its padded self."""
    n, c = x.shape[0], y.shape[3]
    dots = np.empty((n, 1, 1), dtype=x.dtype)
    padded = None
    for chunk in _image_chunks(n, x[0].nbytes, _SUM_BYTES):
        xs, ys = x[chunk], y[chunk]
        k = len(xs)
        if c < x.shape[3]:
            if padded is None:
                padded = np.zeros_like(xs)  # channels c.. stay zero
            padded[:k, ..., :c] = ys
            ys = padded[:k]
        np.matmul(xs.reshape(k, 1, -1), ys.reshape(k, -1, 1), out=dots[chunk])
    return dots.sum()


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


@dataclass
class ConvKernel:
    """Bias-free convolution weights of shape (f_out, f_in/groups, a, b).

    Two groupings exist: `groups=1`, a classical convolution, and
    `groups=f_out` with weights (f_out, 1, a, b), a depthwise convolution
    that filters each channel on its own.
    """

    weights: Value
    groups: int = 1

    def __post_init__(self) -> None:
        w = self.weights.data
        if w.ndim != 4:
            raise ConfigurationError(f"kernel must be rank 4, got shape {w.shape}")
        _conv_kernels(w, self.groups)
        a, b = w.shape[2:]
        if a % 2 == 0 or b % 2 == 0:
            raise ConfigurationError(
                f"kernel size {a}x{b} is even; same-padding is undefined"
            )

    @property
    def f_in(self) -> int:
        return self.weights.data.shape[1] * self.groups

    @property
    def weight_count(self) -> int:
        return int(self.weights.data.size)


def _pad_same(x: Array, a: int, b: int) -> Array:
    """(N,H,W,C) zero-padded by (a-1)/2 rows and (b-1)/2 columns on each
    side, so that an odd a x b window fits at each of its H*W positions; x
    itself for a 1x1 window."""
    ph, pw = (a - 1) // 2, (b - 1) // 2
    if ph == 0 and pw == 0:
        return x
    n, h, w, c = x.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    out[:, ph : ph + h, pw : pw + w] = x
    return out


def _gather_cols(xp: Array, a: int, b: int) -> Array:
    """(N,Hp,Wp,C) -> (N*Ho*Wo, a*b*C) patch matrix for one fat GEMM, in K
    order (i, j, c).  One copy of a window view: every (n, ho, wo, i) step
    moves a contiguous run of b*C values."""
    n, hp, wp, c = xp.shape
    windows = np.lib.stride_tricks.sliding_window_view(xp, (a, b), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(n * (hp - a + 1) * (wp - b + 1), a * b * c)


def _kernel_matrix(w: Array) -> Array:
    # (f_out, C, a, b) -> (a*b*C, f_out), matching the patch-matrix K order
    f_out, c, a, b = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(a * b * c, f_out))


_PATCH_BYTES = 8 << 20  # per im2col patch matrix: the fastest of a 1-32 MiB sweep
_SUM_BYTES = 256 << 10  # per shortcut-sum pass: the fastest of a 256 KiB-8 MiB sweep


def _image_chunks(n: int, image_bytes: int, budget: int) -> Iterator[slice]:
    """Slices of a batch of n images, each as many whole images (at least
    one) as keep a transient of `image_bytes` per image within `budget`
    bytes, so that the pass that reads it back finds it in cache."""
    step = max(1, budget // image_bytes)
    return (slice(start, start + step) for start in range(0, n, step))


def _conv2d_forward_single(x: Array, w: Array) -> Array:
    """groups=1 convolution, stride 1, same padding.  An input with C < f_in
    channels is read as if zero-padded to f_in: only w[:, :C] multiplies,
    so the patch matrix is a*b*C wide.  The batch runs in _image_chunks,
    each through a patch matrix that is freed before the next is gathered;
    the backward keeps none of them."""
    n, h, width, c = x.shape
    f_out, _, a, b = w.shape
    wmat = _kernel_matrix(w[:, :c])
    out = np.empty((n, h, width, f_out), dtype=x.dtype)
    for chunk in _image_chunks(n, h * width * wmat.shape[0] * x.itemsize, _PATCH_BYTES):
        np.matmul(_gather_cols(_pad_same(x[chunk], a, b), a, b), wmat,
                  out=out[chunk].reshape(-1, f_out))
    return out


def _conv2d_backward_single(g: Array, x: Array, w: Array,
                            need_x: bool = True) -> tuple[Array | None, Array]:
    """grad_x (None unless `need_x`) is the full correlation of g with the
    flipped kernel, its in/out axes swapped.  Same padding p = (a-1)/2
    leaves a-1-p = p, so g is padded exactly as the forward pads x, then
    goes through the forward's gather and a GEMM, one _image_chunks slice
    of g at a time.  That patch matrix also gives grad_w:
    gcols[(n,h,w), (i,j,o)] = g[n, h+i-(a-1)/2, w+j-(b-1)/2, o], so the sum
    over chunks of x.T @ gcols holds kernel tap (i, j) at (a-1-i, b-1-j),
    flipped back once at the end; x is `Value.rows()` of the input, read
    in the same chunks.  A constant input has no gcols, so its
    grad_w sums cols.T @ g over chunks of re-gathered patches of x, narrow
    for the image.  For an input with C < f_in channels the weights past
    channel C get an exactly zero gradient."""
    n, h, width, c = x.shape
    f_out, _, a, b = w.shape
    grad_w = np.zeros_like(w)
    w = w[:, :c]
    if not need_x:
        acc = np.zeros((a * b * c, f_out), dtype=g.dtype)
        for chunk in _image_chunks(n, h * width * a * b * c * g.itemsize, _PATCH_BYTES):
            cols = _gather_cols(_pad_same(x[chunk], a, b), a, b)
            acc += cols.T @ g[chunk].reshape(-1, f_out)
        grad_w[:, :c] = acc.reshape(a, b, c, f_out).transpose(3, 2, 0, 1)
        return None, grad_w
    wflip = _kernel_matrix(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    grad_x = np.empty((n, h, width, c), dtype=g.dtype)
    acc = np.zeros((c, a * b * f_out), dtype=g.dtype)
    for chunk in _image_chunks(n, h * width * wflip.shape[0] * g.itemsize, _PATCH_BYTES):
        gcols = _gather_cols(_pad_same(g[chunk], a, b), a, b)
        np.matmul(gcols, wflip, out=grad_x[chunk].reshape(-1, c))
        acc += x[chunk].reshape(-1, c).T @ gcols
    grad_w[:, :c] = acc.reshape(c, a, b, f_out)[:, ::-1, ::-1].transpose(3, 0, 1, 2)
    return grad_x, grad_w


def _conv2d_forward_depthwise(x: Array, w: Array) -> Array:
    """Depthwise convolution, stride 1, same padding.  An input with C < f
    channels is read as if zero-padded to f: output channels C.. are zero."""
    n, h, width, c = x.shape
    f, _, a, b = w.shape
    xp = _pad_same(x, a, b)
    out = np.zeros((n, h, width, f), dtype=x.dtype)
    body = out[..., :c]
    for i in range(a):
        for j in range(b):
            body += xp[:, i : i + h, j : j + width] * w[:c, 0, i, j]
    return out


def _conv2d_backward_depthwise(g: Array, x: Array, w: Array,
                               need_x: bool = True) -> tuple[Array | None, Array]:
    """For an input with C < f channels only g's first C channels are read,
    and the weights of channels C.. get an exactly zero gradient.  x is
    `Value.rows()` of the input, read whole, since the shifted windows span
    the batch: the one backward that rebuilds a whole batch-norm output."""
    n, h, width, c = x.shape
    _, _, a, b = w.shape
    xp = _pad_same(x[:], a, b)
    g = g[..., :c]
    grad_w = np.zeros_like(w)
    grad_xp = np.zeros_like(xp)
    for i in range(a):
        for j in range(b):
            grad_w[:c, 0, i, j] = _channel_dot(g, xp[:, i : i + h, j : j + width])
            if need_x:
                grad_xp[:, i : i + h, j : j + width] += g * w[:c, 0, i, j]
    if not need_x:
        return None, grad_w
    ph, pw = (a - 1) // 2, (b - 1) // 2
    return np.ascontiguousarray(grad_xp[:, ph : ph + h, pw : pw + width]), grad_w


def _conv_kernels(w: Array, groups: int):
    """The (forward, backward) kernel pair for weights `w` in `groups` groups:
    an im2col GEMM for groups=1, shifted windows for depthwise."""
    if groups == 1:
        return _conv2d_forward_single, _conv2d_backward_single
    if groups == w.shape[0] and w.shape[1] == 1:
        return _conv2d_forward_depthwise, _conv2d_backward_depthwise
    raise ConfigurationError(
        f"groups must be 1 or, for depthwise weights (f_out, 1, a, b), "
        f"f_out={w.shape[0]}; got groups={groups} for weights {w.shape}"
    )


def conv2d(x: Value, kernel: ConvKernel, *, tape: Tape | None = None) -> Value:
    """Stride-1 classical or depthwise convolution with same padding: an
    a x b kernel sees (a-1)/2 rows and (b-1)/2 columns of zeros on each
    side, so the output keeps the input's height and width.  Both
    groupings take an input with fewer channels than the kernel's f_in and
    read the missing channels as zeros; the output always has f_out."""
    check_tensor4(x.data)
    c = x.data.shape[3]
    if c > kernel.f_in:
        raise ConfigurationError(
            f"input has {c} channels but kernel expects at most {kernel.f_in}"
        )
    w = kernel.weights
    forward, backward_kernel = _conv_kernels(w.data, kernel.groups)
    out = Value(forward(x.data, w.data))
    if tape is not None:
        x_rows, need_x, x_slot = x.rows(), x.needs_grad, x.slot

        def backward(g: Array) -> None:
            gx, gw = backward_kernel(g, x_rows, w.data, need_x)
            if need_x:
                _accumulate(x_slot, gx)
            _accumulate(w.slot, gw)

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


@dataclass
class BatchNormState:
    """Per-channel affine parameters plus (non-trainable) running statistics."""

    gamma: Value
    beta: Value
    running_mean: Array
    running_var: Array
    momentum: float = 0.1
    epsilon: float = 1e-5

    @classmethod
    def create(cls, channels: int, dtype=np.float32, momentum: float = 0.1,
               epsilon: float = 1e-5) -> "BatchNormState":
        return cls(
            gamma=Value(np.ones(channels, dtype=dtype)),
            beta=Value(np.zeros(channels, dtype=dtype)),
            running_mean=np.zeros(channels, dtype=dtype),
            running_var=np.ones(channels, dtype=dtype),
            momentum=momentum,
            epsilon=epsilon,
        )


def _bn_train_backward(g: Array, xhat: Array, inv_std: Array, gamma: Array,
                       m: int) -> tuple[Array, Array]:
    # with dxhat = gamma*g: grad_x = inv/m * (m*dxhat - sum(dxhat)
    #                                         - xhat*sum(dxhat*xhat)),
    # built in g, spending xhat, as gamma*inv * (g - (xhat*sum(g*xhat) + sum(g))/m)
    grad_beta = _channel_sum(g)
    grad_gamma = _channel_dot(g, xhat)
    xhat *= grad_gamma / m
    xhat += grad_beta / m
    g -= xhat
    g *= gamma * inv_std
    return grad_gamma, grad_beta


def batchnorm(x: Value, state: BatchNormState, mode: str, *,
              tape: Tape | None = None) -> Value:
    """Per-channel normalization over (N,H,W); `mode` is "train" or "eval".
    Eval mode is one per-channel scale and shift of the running stats, with
    no gradient, so it takes no tape: a taped forward is a train forward."""
    check_tensor4(x.data)
    n, h, w, c = x.data.shape
    if state.gamma.data.shape != (c,):
        raise ConfigurationError(
            f"batchnorm state has {state.gamma.data.shape[0]} channels, input has {c}"
        )
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"mode must be 'train' or 'eval', got {mode!r}")
    gamma, beta = state.gamma, state.beta
    if mode == "eval":
        if tape is not None:
            raise ConfigurationError("eval-mode batchnorm has no backward, so takes no tape")
        inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
        scale = gamma.data * inv_std
        shift = beta.data - state.running_mean * scale
        return Value(_scale_shift(x.data, np.tile(scale, w), np.tile(shift, w),
                                  np.empty_like(x.data)))
    m = n * h * w
    if m == 1:
        raise DegenerateBatchError(
            "train-mode batchnorm needs more than one value per channel"
        )
    # xhat holds the deviations until it is normalized in place
    mean = _channel_sum(x.data) / m
    xhat = x.data - mean
    var = _channel_dot(xhat, xhat) / m  # biased (1/m) estimator
    inv_std = 1.0 / np.sqrt(var + state.epsilon)
    xhat *= inv_std
    gamma_row, beta_row = np.tile(gamma.data, w), np.tile(beta.data, w)
    # taped, the output can be rebuilt from what the backward keeps
    out = Value(_scale_shift(xhat, gamma_row, beta_row, np.empty_like(xhat)),
                affine=None if tape is None else (xhat, gamma_row, beta_row))
    rho = state.momentum
    state.running_mean[:] = (1.0 - rho) * state.running_mean + rho * mean
    state.running_var[:] = (1.0 - rho) * state.running_var + rho * var * (m / (m - 1))
    if tape is not None:
        x_slot = x.slot

        def backward(g: Array) -> None:
            ggamma, gbeta = _bn_train_backward(g, xhat, inv_std, gamma.data, m)
            _accumulate(x_slot, g)
            _accumulate(gamma.slot, ggamma)
            _accumulate(beta.slot, gbeta)

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x: Value, *, tape: Tape | None = None) -> Value:
    out = Value(np.maximum(x.data, 0))
    if tape is not None:
        # the mask, one bit per value; subgradient 0 at exactly 0
        bits, x_slot = np.packbits(out.data > 0), x.slot

        def backward(g: Array) -> None:
            g *= np.unpackbits(bits, count=g.size).view(bool).reshape(g.shape)
            _accumulate(x_slot, g)

        tape.record(out, backward)
    return out


def tanh_act(x: Value, *, tape: Tape | None = None) -> Value:
    out = Value(np.tanh(x.data))
    if tape is not None:
        saved, x_slot = out.data, x.slot

        def backward(g: Array) -> None:
            g *= 1.0 - saved * saved
            _accumulate(x_slot, g)

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


def _pool_winner(c0: Array, c1: Array, c2: Array, c3: Array, top: Array,
                 bottom: Array) -> Array:
    """Index 0-3 (row-major) of each 2x2 window's first maximal corner, as
    uint8, from the forward's maxima top = max(c0, c1) and bottom =
    max(c2, c3): it is where(bottom > top, 2 + (c3 > c2), c1 > c0), built
    with in-place bit operations on booleans, which np.where with mixed
    types would do four times slower."""
    low = np.greater(bottom, top)  # the winner is in the bottom row
    col = np.greater(c1, c0)
    col_bottom = np.greater(c3, c2)
    col_bottom ^= col
    col_bottom &= low
    col ^= col_bottom  # c3 > c2 in the bottom row, c1 > c0 in the top
    winner = low.view(np.uint8)
    winner += winner
    winner += col.view(np.uint8)
    return winner


def maxpool2x2(x: Value, *, tape: Tape | None = None) -> Value:
    """2x2/stride-2 max pooling; odd sizes are replicate-padded right/bottom.

    Ties route their gradient to the first element in row-major window
    order: a taped forward saves each window's winning corner as a uint8
    index, and the backward writes g to that corner and zero to the others.
    """
    check_tensor4(x.data)
    n, h, w, c = x.data.shape
    pad_h, pad_w = h % 2, w % 2
    xp = x.data
    if pad_h or pad_w:
        xp = np.pad(x.data, ((0, 0), (0, pad_h), (0, pad_w), (0, 0)), mode="edge")
    corners = [xp[:, di::2, dj::2] for di in (0, 1) for dj in (0, 1)]
    top = np.maximum(corners[0], corners[1])
    bottom = np.maximum(corners[2], corners[3])
    out = Value(np.maximum(top, bottom), needs_grad=x.needs_grad)
    if tape is not None and x.needs_grad:
        winner = _pool_winner(*corners, top, bottom)
        hp, wp = xp.shape[1:3]
        x_slot = x.slot

        def backward(g: Array) -> None:
            gxp = np.empty((n, hp, wp, c), dtype=g.dtype)
            # (n, i, di, j, dj, c): corner k of window (i, j) is (k >> 1, k & 1)
            windows = gxp.reshape(n, hp // 2, 2, wp // 2, 2, c)
            for k in range(4):
                np.multiply(g, winner == k, out=windows[:, :, k >> 1, :, k & 1])
            if pad_h:
                gxp[:, h - 1] += gxp[:, h]
            if pad_w:
                gxp[:, :, w - 1] += gxp[:, :, w]
            _accumulate(x_slot, gxp[:, :h, :w])

        tape.record(out, backward)
    return out


def global_max_pool(x: Value, *, tape: Tape | None = None) -> Value:
    """(N,H,W,C) -> (N,C), the spatial maximum of each channel: the
    features `linear` takes."""
    check_tensor4(x.data)
    n, h, w, c = x.data.shape
    flat = x.data.reshape(n, h * w, c)
    idx = flat.argmax(axis=1)[:, None]
    out = Value(np.take_along_axis(flat, idx, axis=1).reshape(n, c))
    if tape is not None:
        x_slot = x.slot

        def backward(g: Array) -> None:
            scattered = np.zeros((n, h * w, c), dtype=g.dtype)
            np.put_along_axis(scattered, idx, g.reshape(n, 1, c), axis=1)
            _accumulate(x_slot, scattered.reshape(n, h, w, c))

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# The recursion's shortcut sum
# ---------------------------------------------------------------------------


def add_scaled(base: Value, lags: list[Value], coeffs: Value, t: int, *,
               tape: Tape | None = None) -> Value:
    """base + sum_i coeffs[t, i] * lags[i], as one op with one backward.

    A trained `coeffs` receives in row t the gradient <g, lags[i]> for each
    lag used; a constant one (`needs_grad=False`) is a fixed table that
    receives none.  A constant lag gets no gradient, but its coefficient
    still does.  A lag may have fewer channels than the base (the model's
    image x_0): it is read as zero-padded to the base's channels, so it
    adds into the base's first channels only.
    The terms are summed as (base + lags[0]*coeffs[t,0]) + lags[1]*coeffs[t,1]
    + ..., in lag order, a _SUM_BYTES slice of whole images at a time: each
    slice of the output starts as the base, and each scaled lag passes
    through one slice-sized scratch, so no temporary is as large as the
    output.
    """
    table, trained = coeffs.data, coeffs.needs_grad
    if not 1 <= len(lags) <= table.shape[1]:
        raise ConfigurationError(
            f"add_scaled takes 1 to {table.shape[1]} lags, got {len(lags)}"
        )
    n, h, w, f = base.data.shape
    for lag in lags:
        if lag.data.shape[:3] != (n, h, w) or lag.data.shape[3] > f:
            raise ConfigurationError(
                f"add_scaled shape mismatch: {base.data.shape} vs {lag.data.shape}"
            )
    scales = table[t, : len(lags)].astype(base.data.dtype)
    out_data = np.empty_like(base.data)
    scratch = None
    for chunk in _image_chunks(n, base.data[0].nbytes, _SUM_BYTES):
        dst = out_data[chunk]
        dst[...] = base.data[chunk]
        if scratch is None:
            scratch = np.empty(dst.size, dtype=dst.dtype)
        for lag, scale in zip(lags, scales):
            part = lag.data[chunk]
            term = scratch[: part.size].reshape(part.shape)
            np.multiply(part, scale, out=term)
            dst[..., : part.shape[3]] += term
    out = Value(out_data)
    if tape is not None:
        base_slot = base.slot
        lag_slots = [lag.slot if lag.needs_grad else None for lag in lags]
        widths = [lag.data.shape[3] for lag in lags]
        lag_rows = [lag.rows() for lag in lags] if trained else []

        def backward(g: Array) -> None:
            for slot, c, scale in zip(lag_slots, widths, scales):
                if slot is not None:
                    _accumulate(slot, scale * g[..., :c])
            if trained:
                if coeffs.grad is None:
                    coeffs.grad = np.zeros_like(coeffs.data)
                for i, rows in enumerate(lag_rows):
                    coeffs.grad[t, i] += _dot(g, rows)
            _accumulate(base_slot, g)  # last, once nothing reads g: the base takes g

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------


def _linear_backward(g: Array, x: Array, w: Array) -> tuple[Array, Array, Array]:
    return g @ w.T, x.T @ g, g.sum(axis=0)


def linear(x: Value, weights: Value, bias: Value, *, tape: Tape | None = None) -> Value:
    """(N,F) @ (F,K) + (K,) -> class scores."""
    if x.data.ndim != 2:
        raise ConfigurationError(f"linear input must be 2-D, got shape {x.data.shape}")
    f = x.data.shape[1]
    if weights.data.shape[0] != f:
        raise ConfigurationError(
            f"linear weights expect {weights.data.shape[0]} features, input has {f}"
        )
    if bias.data.shape != (weights.data.shape[1],):
        raise ConfigurationError(
            f"bias shape {bias.data.shape} does not match {weights.data.shape[1]} outputs"
        )
    out = Value(x.data @ weights.data + bias.data)
    if tape is not None:
        x_data, x_slot = x.data, x.slot

        def backward(g: Array) -> None:
            gx, gw, gb = _linear_backward(g, x_data, weights.data)
            _accumulate(x_slot, gx)
            _accumulate(weights.slot, gw)
            _accumulate(bias.slot, gb)

        tape.record(out, backward)
    return out


def softmax_cross_entropy(scores: Array, labels: Array) -> tuple[float, Array]:
    """Mean negative log-likelihood and its gradient w.r.t. the scores.

    Stabilized by max subtraction; the gradient (softmax - onehot)/N is
    returned so callers can seed a tape's backward pass directly.
    """
    n, k = scores.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ConfigurationError(f"expected {n} labels, got shape {labels.shape}")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0, {k}), got range "
                        f"[{labels.min()}, {labels.max()}]")
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad = exp / total
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(scores.dtype, copy=False)
