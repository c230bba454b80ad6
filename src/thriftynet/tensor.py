"""Rank-4 tensors and the differentiable primitives the network is built from.

Arrays use the (batch, channel, height, width) layout, C-contiguous, so
element (n, c, h, w) lives at flat index ((n*C + c)*H + h)*W + w.  Every
primitive comes as a forward plus an analytic backward; recording ops on a
Tape while running forward and replaying the records in reverse accumulates
gradients into every `Value` that contributed, parameters included.

float32 is the training precision; the gradient-checking tests run the same
code in float64.  All ops are pure given their inputs and the explicit
mutable state they declare (BatchNormState running stats, the Tape).

Heap policy: the recursion applies one convolution T times, so a step asks
for the same few large shapes over and over.  glibc serves every block above
its mmap threshold (by default at most 32 MiB) with a fresh mapping and
unmaps it on free.  At paper scale a 128x64x32x32 float32 activation is
32 MiB of data (33.5 MB), just above that cap once malloc adds its header,
and a patch matrix is 302 MB, so each of them would be zero-filled page by
page again on every use.  Importing this module therefore tells glibc, once,
to serve blocks up to 2 GiB from its heap and never to trim the heap top, so
a freed array is reused by the next request of its size.  Where `mallopt` is
missing or refuses, nothing changes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import Callable

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


class Value:
    """An array in the computation together with its accumulated gradient.

    A Value made with `needs_grad=False` is a constant, the model's input
    image: `channel_pad` and `maxpool2x2` of it record nothing and return a
    constant, and `conv2d` and `add_scaled` compute no gradient for it.
    """

    __slots__ = ("data", "grad", "needs_grad")

    def __init__(self, data: Array, needs_grad: bool = True):
        self.data = np.ascontiguousarray(data)
        self.grad: Array | None = None
        self.needs_grad = needs_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Value(shape={self.data.shape}, dtype={self.data.dtype})"


def _accumulate(v: Value, g: Array, owned: bool = False) -> None:
    # Copy on first write unless the closure vouches that `g` is freshly
    # allocated: a shared array may alias another consumer's gradient buffer.
    if v.grad is None:
        v.grad = g if owned else np.array(g, copy=True)
    else:
        v.grad += g


class Tape:
    """Execution record of one forward pass, enabling reverse-mode gradients.

    Ops are appended in execution order, which is topological by
    construction; replaying the backward closures in reverse order therefore
    visits every consumer of a Value before its producer.  A tape supports
    exactly one backward traversal and must not be shared between concurrent
    forward passes.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Value, Callable[[Array], None]]] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, out: Value, backward: Callable[[Array], None]) -> None:
        self._records.append((out, backward))

    def backward(self, out: Value, seed_grad: Array) -> None:
        """Seed d(loss)/d(out) and propagate to everything on the tape."""
        if self._consumed:
            raise ConfigurationError("tape already consumed by a previous backward()")
        self._consumed = True
        seed = np.asarray(seed_grad, dtype=out.data.dtype)
        if seed.shape != out.data.shape:
            raise ConfigurationError(
                f"seed gradient shape {seed.shape} != output shape {out.data.shape}"
            )
        _accumulate(out, seed)
        for value, backward_fn in reversed(self._records):
            if value.grad is not None:
                backward_fn(value.grad)


class MacTally:
    """Counts the nominal multiply-accumulate operations of conv/linear.

    A conv counts f_in/groups * a * b MACs per output, the layer's nominal
    size, zero input channels included: the first classical conv reads only
    the image's real channels but is tallied as if it read all f_in.  Only
    the multiplicative kernels are tallied; pooling, batch norm, activations
    and shortcut sums are excluded from the accounting.
    """

    def __init__(self) -> None:
        self.per_iteration: list[int] = []
        self.head = 0
        self.other = 0
        self._bucket: int | str | None = None

    def begin_iteration(self) -> None:
        self.per_iteration.append(0)
        self._bucket = len(self.per_iteration) - 1

    def begin_head(self) -> None:
        self._bucket = "head"

    def add(self, macs: int) -> None:
        if self._bucket == "head":
            self.head += macs
        elif isinstance(self._bucket, int):
            self.per_iteration[self._bucket] += macs
        else:
            self.other += macs

    @property
    def total(self) -> int:
        return sum(self.per_iteration) + self.head + self.other


def check_tensor4(x: Array, name: str = "input") -> Array:
    if x.ndim != 4:
        raise ConfigurationError(f"{name} must be rank 4 (N,C,H,W), got shape {x.shape}")
    if min(x.shape) < 1:
        raise ConfigurationError(f"{name} has an empty dimension: {x.shape}")
    return x


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
    def f_out(self) -> int:
        return self.weights.data.shape[0]

    @property
    def f_in(self) -> int:
        return self.weights.data.shape[1] * self.groups

    @property
    def kernel_hw(self) -> tuple[int, int]:
        return self.weights.data.shape[2], self.weights.data.shape[3]

    @property
    def same_padding(self) -> int:
        return (self.weights.data.shape[2] - 1) // 2

    @property
    def weight_count(self) -> int:
        return int(self.weights.data.size)


def _pad_hw(x: Array, padding: int) -> Array:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def _pad_nhwc(x: Array, ph: int, pw: int) -> Array:
    """(N,C,H,W) -> channels-last (N,H+2ph,W+2pw,C), zero-padded by ph rows
    and pw columns on each side, or cropped by -ph / -pw where negative.
    Channels-last makes each kernel row of a patch one contiguous run of b*C
    values for the gather below."""
    ch, cw = max(-ph, 0), max(-pw, 0)
    x = x[:, :, ch : x.shape[2] - ch, cw : x.shape[3] - cw]
    ph, pw = max(ph, 0), max(pw, 0)
    n, c, h, w = x.shape
    out = np.zeros((n, h + 2 * ph, w + 2 * pw, c), dtype=x.dtype)
    out[:, ph : ph + h, pw : pw + w, :] = x.transpose(0, 2, 3, 1)
    return out


def _gather_cols(xpt: Array, a: int, b: int) -> Array:
    """(N,Hp,Wp,C) -> (N*Ho*Wo, a*b*C) patch matrix for one fat GEMM, in K
    order (i, j, c).  One copy of a window view: every (n, ho, wo, i) step
    moves a contiguous run of b*C values."""
    n, hp, wp, c = xpt.shape
    windows = np.lib.stride_tricks.sliding_window_view(xpt, (a, b), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(n * (hp - a + 1) * (wp - b + 1), a * b * c)


def _kernel_matrix(w: Array) -> Array:
    # (f_out, C, a, b) -> (a*b*C, f_out), matching the patch-matrix K order
    f_out, c, a, b = w.shape
    return np.ascontiguousarray(w.transpose(2, 3, 1, 0).reshape(a * b * c, f_out))


_UNTAPED_CHUNK = 128  # images per patch matrix when no backward needs it


def _conv2d_forward_single(x: Array, w: Array, padding: int, tally: MacTally | None,
                           keep: bool) -> tuple[Array, Array | None]:
    """groups=1 convolution, stride 1.  An input with C < f_in channels is
    read as if zero-padded to f_in: only w[:, :C] multiplies, so the patch
    matrix is a*b*C wide, but the tally counts the nominal f_in*a*b MACs per
    output.  With `keep` the whole batch goes through one patch matrix, which
    is returned so a taped backward can skip regathering it; without, the
    batch runs in chunks of _UNTAPED_CHUNK images, so a large eval batch
    never holds its full patch matrix."""
    n, c, h, width = x.shape
    f_out, f_in, a, b = w.shape
    ho, wo = h + 2 * padding - a + 1, width + 2 * padding - b + 1
    if tally is not None:
        tally.add(n * f_out * ho * wo * f_in * a * b)
    w = w[:, :c]
    if a == 1 and b == 1 and padding == 0:
        # pointwise: a plain channel-mixing matmul
        out = np.tensordot(w[:, :, 0, 0], x, axes=([1], [1]))  # (f_out,N,H,W)
        return np.ascontiguousarray(out.transpose(1, 0, 2, 3)), None
    wmat = _kernel_matrix(w)
    out = np.empty((n, f_out, ho, wo), dtype=x.dtype)
    if keep:
        return out, _gemm_conv_into(out, x, wmat, padding, a, b)
    for start in range(0, n, _UNTAPED_CHUNK):
        _gemm_conv_into(out[start : start + _UNTAPED_CHUNK], x[start : start + _UNTAPED_CHUNK],
                        wmat, padding, a, b)
    return out, None


def _gemm_conv_into(out: Array, x: Array, wmat: Array, padding: int, a: int, b: int) -> Array:
    """Convolve x into `out` (N,f_out,Ho,Wo) with one im2col GEMM; returns the
    patch matrix, which a caller that drops it frees before the next chunk."""
    cols = _gather_cols(_pad_nhwc(x, padding, padding), a, b)
    out2d = cols @ wmat
    out[...] = out2d.reshape(out.shape[0], out.shape[2], out.shape[3], -1).transpose(0, 3, 1, 2)
    return cols


def _conv2d_backward_single(g: Array, x: Array, w: Array, padding: int,
                            cols: Array | None = None,
                            need_x: bool = True) -> tuple[Array | None, Array]:
    """grad_w = cols.T @ g; for an input with C < f_in channels the weights
    past channel C get an exactly zero gradient.  grad_x (None unless
    `need_x`) is the full correlation of g with the flipped kernel, its
    in/out axes swapped: g is padded by a-1-p rows and b-1-p columns (cropped
    instead where padding > a-1 or > b-1), then goes through the forward's
    gather and one GEMM."""
    n, c, h, width = x.shape
    f_out, _, a, b = w.shape
    ho, wo = g.shape[2], g.shape[3]
    grad_w = np.zeros_like(w)
    w = w[:, :c]
    if a == 1 and b == 1 and padding == 0:
        grad_w[:, :c, 0, 0] = np.tensordot(g, x, axes=([0, 2, 3], [0, 2, 3]))
        if not need_x:
            return None, grad_w
        grad_x = np.tensordot(g, w[:, :, 0, 0], axes=([1], [0])).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(grad_x), grad_w
    if cols is None:
        cols = _gather_cols(_pad_nhwc(x, padding, padding), a, b)
    g2d = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f_out)
    grad_w[:, :c] = (cols.T @ g2d).reshape(a, b, c, f_out).transpose(3, 2, 0, 1)
    if not need_x:
        return None, grad_w
    gcols = _gather_cols(_pad_nhwc(g, a - 1 - padding, b - 1 - padding), a, b)
    grad_x = gcols @ _kernel_matrix(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    grad_x = grad_x.reshape(n, h, width, c).transpose(0, 3, 1, 2)
    return np.ascontiguousarray(grad_x), grad_w


def _conv2d_forward_depthwise(x: Array, w: Array, padding: int, tally: MacTally | None,
                              keep: bool) -> tuple[Array, None]:
    n, c, h, width = x.shape
    _, _, a, b = w.shape
    xp = _pad_hw(x, padding)
    ho, wo = h + 2 * padding - a + 1, width + 2 * padding - b + 1
    if tally is not None:
        tally.add(n * c * ho * wo * a * b)
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(a):
        for j in range(b):
            out += w[:, 0, i, j].reshape(1, c, 1, 1) * xp[:, :, i : i + ho, j : j + wo]
    return out, None


def _conv2d_backward_depthwise(g: Array, x: Array, w: Array, padding: int,
                               _saved: None = None,
                               need_x: bool = True) -> tuple[Array | None, Array]:
    n, c, h, width = x.shape
    _, _, a, b = w.shape
    ho, wo = g.shape[2], g.shape[3]
    xp = _pad_hw(x, padding)
    grad_w = np.zeros_like(w)
    grad_xp = np.zeros_like(xp)
    for i in range(a):
        for j in range(b):
            window = xp[:, :, i : i + ho, j : j + wo]
            grad_w[:, 0, i, j] = (g * window).sum(axis=(0, 2, 3))
            if need_x:
                grad_xp[:, :, i : i + ho, j : j + wo] += g * w[:, 0, i, j].reshape(1, c, 1, 1)
    if not need_x:
        return None, grad_w
    if padding:
        grad_xp = grad_xp[:, :, padding : padding + h, padding : padding + width]
    return np.ascontiguousarray(grad_xp), grad_w


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


def conv2d_raw(x: Array, w: Array, groups: int = 1, padding: int = 0,
               tally: MacTally | None = None) -> Array:
    """Non-taped convolution, stride 1, zero padding; with groups=1, x may
    have fewer channels than w, the missing ones read as zeros."""
    forward, _ = _conv_kernels(w, groups)
    return forward(x, w, padding, tally, False)[0]


def conv2d_backward(grad_out: Array, x: Array, w: Array, groups: int = 1,
                    padding: int = 0) -> tuple[Array, Array]:
    """Gradients of conv2d_raw w.r.t. its input and weights (full-size, zero
    past the channels of a narrow input)."""
    _, backward = _conv_kernels(w, groups)
    expected = (x.shape[0], w.shape[0], x.shape[2] + 2 * padding - w.shape[2] + 1,
                x.shape[3] + 2 * padding - w.shape[3] + 1)
    if grad_out.shape != expected:
        raise ConfigurationError(
            f"grad_out shape {grad_out.shape} does not match forward output {expected}"
        )
    return backward(grad_out, x, w, padding, None)


def conv2d(x: Value, kernel: ConvKernel, padding: int | None = None, *,
           tape: Tape | None = None, tally: MacTally | None = None) -> Value:
    """Stride-1 classical or depthwise convolution; `padding=None` means
    same-padding.  A classical conv also takes an input with fewer channels
    than the kernel's f_in and treats the missing channels as zeros."""
    check_tensor4(x.data)
    a, b = kernel.kernel_hw
    if padding is None:
        padding = kernel.same_padding
    if padding < 0:
        raise ConfigurationError(f"padding must be >= 0, got {padding}")
    c = x.data.shape[1]
    if c > kernel.f_in or (c < kernel.f_in and kernel.groups != 1):
        raise ConfigurationError(
            f"input has {c} channels but kernel expects "
            f"{'at most ' if kernel.groups == 1 else ''}{kernel.f_in}"
        )
    if x.data.shape[2] + 2 * padding < a or x.data.shape[3] + 2 * padding < b:
        raise ConfigurationError(
            f"spatial size {x.data.shape[2:]} too small for kernel {a}x{b} "
            f"with padding {padding}"
        )
    x_data, w = x.data, kernel.weights
    forward, backward_kernel = _conv_kernels(w.data, kernel.groups)
    out_data, saved = forward(x_data, w.data, padding, tally, tape is not None)
    out = Value(out_data)
    if tape is not None:
        need_x = x.needs_grad

        def backward(g: Array) -> None:
            gx, gw = backward_kernel(g, x_data, w.data, padding, saved, need_x)
            if need_x:
                _accumulate(x, gx, owned=True)
            _accumulate(w, gw, owned=True)

        tape.record(out, backward)
    return out


def grouped_conv(x: Value, depthwise: ConvKernel, pointwise: ConvKernel, *,
                 tape: Tape | None = None, tally: MacTally | None = None) -> Value:
    """Depthwise axb convolution followed by a pointwise 1x1 channel mix."""
    c = x.data.shape[1]
    if depthwise.groups != c or depthwise.f_out != c:
        raise ConfigurationError(
            f"depthwise kernel must have groups == channels == {c}, "
            f"got groups={depthwise.groups}, f_out={depthwise.f_out}"
        )
    if pointwise.groups != 1 or pointwise.kernel_hw != (1, 1):
        raise ConfigurationError("pointwise kernel must be 1x1 with a single group")
    mid = conv2d(x, depthwise, tape=tape, tally=tally)
    return conv2d(mid, pointwise, tape=tape, tally=tally)


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
                       m: int) -> tuple[Array, Array, Array]:
    # with dxhat = gamma*g: grad_x = inv/m * (m*dxhat - sum(dxhat)
    #                                         - xhat*sum(dxhat*xhat))
    grad_beta = np.einsum("nchw->c", g)
    grad_gamma = np.einsum("nchw,nchw->c", g, xhat)
    coef = gamma * inv_std
    grad_x = xhat * (-(coef * grad_gamma / m).reshape(1, -1, 1, 1))
    grad_x += coef.reshape(1, -1, 1, 1) * g
    grad_x -= (coef * grad_beta / m).reshape(1, -1, 1, 1)
    return grad_x, grad_gamma, grad_beta


def batchnorm(x: Value, state: BatchNormState, mode: str, *,
              tape: Tape | None = None) -> Value:
    """Per-channel normalization over (N,H,W); `mode` is "train" or "eval"."""
    check_tensor4(x.data)
    c = x.data.shape[1]
    if state.gamma.data.shape != (c,):
        raise ConfigurationError(
            f"batchnorm state has {state.gamma.data.shape[0]} channels, input has {c}"
        )
    if mode not in ("train", "eval"):
        raise ConfigurationError(f"mode must be 'train' or 'eval', got {mode!r}")
    gamma, beta = state.gamma, state.beta
    gview = gamma.data.reshape(1, c, 1, 1)
    bview = beta.data.reshape(1, c, 1, 1)
    if mode == "train":
        n, _, h, w = x.data.shape
        m = n * h * w
        if m == 1:
            raise DegenerateBatchError(
                "train-mode batchnorm needs more than one value per channel"
            )
        # one mean pass, not x.mean() plus the one inside x.var(), with the
        # same operations as x.var(), so the same bits; xhat holds the
        # deviations until it is normalized in place
        mean = x.data.mean(axis=(0, 2, 3), keepdims=True)
        xhat = x.data - mean
        var = np.square(xhat).sum(axis=(0, 2, 3))
        var /= m  # biased (1/m) estimator
        mean = mean.reshape(c)
        inv_std = 1.0 / np.sqrt(var + state.epsilon)
        xhat *= inv_std.reshape(1, c, 1, 1)
        out_data = gview * xhat
        out_data += bview
        out = Value(out_data)
        rho = state.momentum
        state.running_mean[:] = (1.0 - rho) * state.running_mean + rho * mean
        state.running_var[:] = (1.0 - rho) * state.running_var + rho * var * (m / (m - 1))
        if tape is not None:

            def backward(g: Array) -> None:
                gx, ggamma, gbeta = _bn_train_backward(g, xhat, inv_std, gamma.data, m)
                _accumulate(x, gx, owned=True)
                _accumulate(gamma, ggamma, owned=True)
                _accumulate(beta, gbeta, owned=True)

            tape.record(out, backward)
        return out

    inv_std = 1.0 / np.sqrt(state.running_var + state.epsilon)
    xhat = (x.data - state.running_mean.reshape(1, c, 1, 1)) * inv_std.reshape(1, c, 1, 1)
    out = Value(gview * xhat + bview)
    if tape is not None:

        def backward(g: Array) -> None:
            _accumulate(x, g * (gamma.data * inv_std).reshape(1, c, 1, 1), owned=True)
            _accumulate(gamma, (g * xhat).sum(axis=(0, 2, 3)), owned=True)
            _accumulate(beta, g.sum(axis=(0, 2, 3)), owned=True)

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


def relu(x: Value, *, tape: Tape | None = None) -> Value:
    out = Value(np.maximum(x.data, 0))
    if tape is not None:
        mask = out.data > 0  # subgradient 0 at exactly 0

        def backward(g: Array) -> None:
            _accumulate(x, g * mask, owned=True)

        tape.record(out, backward)
    return out


def tanh_act(x: Value, *, tape: Tape | None = None) -> Value:
    out = Value(np.tanh(x.data))
    if tape is not None:
        saved = out.data

        def backward(g: Array) -> None:
            _accumulate(x, g * (1.0 - saved * saved), owned=True)

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Pooling and padding
# ---------------------------------------------------------------------------


def maxpool2x2(x: Value, *, tape: Tape | None = None) -> Value:
    """2x2/stride-2 max pooling; odd sizes are replicate-padded right/bottom.

    Ties route their gradient to the first element in row-major window
    order, realized by masking each window corner against the max and
    excluding positions an earlier corner already claimed.
    """
    check_tensor4(x.data)
    n, c, h, w = x.data.shape
    pad_h, pad_w = h % 2, w % 2
    xp = x.data
    if pad_h or pad_w:
        xp = np.pad(x.data, ((0, 0), (0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    corners = [xp[:, :, di::2, dj::2] for di in (0, 1) for dj in (0, 1)]
    out_data = np.maximum(np.maximum(corners[0], corners[1]),
                          np.maximum(corners[2], corners[3]))
    out = Value(out_data, needs_grad=x.needs_grad)
    if tape is not None and x.needs_grad:

        def backward(g: Array) -> None:
            gxp = np.empty_like(xp)
            claimed = np.zeros(out_data.shape, dtype=bool)
            for corner, (di, dj) in zip(corners, ((0, 0), (0, 1), (1, 0), (1, 1))):
                mask = (corner == out_data) & ~claimed
                claimed |= mask
                gxp[:, :, di::2, dj::2] = g * mask
            if pad_h:
                gxp[:, :, h - 1, :] += gxp[:, :, h, :]
            if pad_w:
                gxp[:, :, :, w - 1] += gxp[:, :, :, w]
            _accumulate(x, gxp[:, :, :h, :w], owned=True)  # view into fresh gxp

        tape.record(out, backward)
    return out


def global_max_pool(x: Value, *, tape: Tape | None = None) -> Value:
    """(N,C,H,W) -> (N,C,1,1), the spatial maximum of each channel."""
    check_tensor4(x.data)
    n, c, h, w = x.data.shape
    flat = x.data.reshape(n, c, h * w)
    idx = flat.argmax(axis=-1)
    out = Value(np.take_along_axis(flat, idx[..., None], axis=-1).reshape(n, c, 1, 1))
    if tape is not None:

        def backward(g: Array) -> None:
            scattered = np.zeros((n, c, h * w), dtype=g.dtype)
            np.put_along_axis(scattered, idx[..., None], g.reshape(n, c, 1), axis=-1)
            _accumulate(x, scattered.reshape(n, c, h, w), owned=True)

        tape.record(out, backward)
    return out


def channel_pad(x: Value, target_channels: int, *, tape: Tape | None = None) -> Value:
    """Embed (N,C,H,W) into (N,target,H,W); the extra channels are zero."""
    check_tensor4(x.data)
    n, c, h, w = x.data.shape
    if target_channels < c:
        raise ConfigurationError(
            f"cannot pad {c} channels down to {target_channels}"
        )
    if target_channels == c:
        return x
    padded = np.zeros((n, target_channels, h, w), dtype=x.data.dtype)
    padded[:, :c] = x.data
    out = Value(padded, needs_grad=x.needs_grad)
    if tape is not None and x.needs_grad:

        def backward(g: Array) -> None:
            _accumulate(x, g[:, :c])

        tape.record(out, backward)
    return out


def reshape(x: Value, shape: tuple[int, ...], *, tape: Tape | None = None) -> Value:
    out = Value(x.data.reshape(shape))
    if tape is not None:
        orig = x.data.shape

        def backward(g: Array) -> None:
            _accumulate(x, g.reshape(orig))

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# The recursion's shortcut sum
# ---------------------------------------------------------------------------


def add_scaled(base: Value, lags: list[Value], coeffs: Value | Array, t: int, *,
               tape: Tape | None = None) -> Value:
    """base + sum_i coeffs[t, i] * lags[i], as one op with one backward.

    `coeffs` is either a trained Value, whose row t receives the gradient
    <g, lags[i]> for each lag used, or a fixed array that receives none.
    A constant lag gets no gradient, but its coefficient still does.
    The terms are summed as (lags[0]*coeffs[t,0] + base) + lags[1]*coeffs[t,1]
    + ..., in lag order.
    """
    trained = isinstance(coeffs, Value)
    table = coeffs.data if trained else coeffs
    if not 1 <= len(lags) <= table.shape[1]:
        raise ConfigurationError(
            f"add_scaled takes 1 to {table.shape[1]} lags, got {len(lags)}"
        )
    for lag in lags:
        if lag.data.shape != base.data.shape:
            raise ConfigurationError(
                f"add_scaled shape mismatch: {base.data.shape} vs {lag.data.shape}"
            )
    scales = table[t, : len(lags)].copy()
    out_data = lags[0].data * scales[0]
    out_data += base.data
    for lag, scale in zip(lags[1:], scales[1:]):
        out_data += lag.data * scale
    out = Value(out_data)
    if tape is not None:

        def backward(g: Array) -> None:
            _accumulate(base, g)
            if trained and coeffs.grad is None:
                coeffs.grad = np.zeros_like(coeffs.data)
            for i, (lag, scale) in enumerate(zip(lags, scales)):
                if lag.needs_grad:
                    _accumulate(lag, scale * g, owned=True)
                if trained:
                    coeffs.grad[t, i] += np.vdot(g, lag.data)

        tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Classifier head
# ---------------------------------------------------------------------------


def _linear_backward(g: Array, x: Array, w: Array) -> tuple[Array, Array, Array]:
    return g @ w.T, x.T @ g, g.sum(axis=0)


def linear(x: Value, weights: Value, bias: Value, *, tape: Tape | None = None,
           tally: MacTally | None = None) -> Value:
    """(N,F) @ (F,K) + (K,) -> class scores."""
    if x.data.ndim != 2:
        raise ConfigurationError(f"linear input must be 2-D, got shape {x.data.shape}")
    n, f = x.data.shape
    if weights.data.shape[0] != f:
        raise ConfigurationError(
            f"linear weights expect {weights.data.shape[0]} features, input has {f}"
        )
    if bias.data.shape != (weights.data.shape[1],):
        raise ConfigurationError(
            f"bias shape {bias.data.shape} does not match {weights.data.shape[1]} outputs"
        )
    if tally is not None:
        tally.add(n * f * weights.data.shape[1])
    out = Value(x.data @ weights.data + bias.data)
    if tape is not None:
        x_data = x.data

        def backward(g: Array) -> None:
            gx, gw, gb = _linear_backward(g, x_data, weights.data)
            _accumulate(x, gx, owned=True)
            _accumulate(weights, gw, owned=True)
            _accumulate(bias, gb, owned=True)

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
