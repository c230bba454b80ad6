"""Forward oracles and gradient checks for every primitive."""

import ctypes
import tracemalloc
import weakref

import numpy as np
import pytest

from _layout import nchw, nhwc
from _oracles import (
    naive_batchnorm_train,
    naive_conv2d,
    naive_conv2d_backward,
    naive_maxpool2x2,
)
from thriftynet import tensor
from thriftynet.errors import ConfigurationError, DataError, DegenerateBatchError
from thriftynet.gradcheck import finite_difference, max_rel_error
from thriftynet.model import ThriftyConfig, ThriftyNet
from thriftynet.tensor import (
    BatchNormState,
    ConvKernel,
    Tape,
    Value,
    add_scaled,
    batchnorm,
    conv2d,
    global_max_pool,
    linear,
    maxpool2x2,
    relu,
    softmax_cross_entropy,
    tanh_act,
)


def kernel(array, groups=1):
    return ConvKernel(Value(np.asarray(array, dtype=np.float64)), groups=groups)


# odd kernel shapes, non-square ones included: conv2d pads each axis apart
KERNELS = [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)]


def same_padded(x, a, b):
    """(N,C,H,W) x zero-padded by (a-1)/2 rows and (b-1)/2 columns on each
    side: the input on which the padding-free oracles compute a same conv."""
    ph, pw = (a - 1) // 2, (b - 1) // 2
    return np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))


def oracle_conv(x, w, groups=1):
    return naive_conv2d(same_padded(x, *w.shape[2:]), w, groups=groups)


def oracle_conv_backward(grad_out, x, w):
    """naive_conv2d_backward on the same-padded input, its grad_x cropped
    back to x's height and width."""
    a, b = w.shape[2:]
    grad_xp, grad_w = naive_conv2d_backward(grad_out, same_padded(x, a, b), w)
    ph, pw = (a - 1) // 2, (b - 1) // 2
    return grad_xp[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]], grad_w


def conv(x, w, groups=1):
    """Untaped conv2d of a channels-last array."""
    return conv2d(Value(x), ConvKernel(Value(w), groups=groups)).data


def conv_backward(grad_out, x, w, groups=1):
    """(grad_x, grad_w) of conv2d through a Tape seeded with grad_out, with
    x, grad_x and grad_out channels-last."""
    xv, wv = Value(x), Value(w)
    tape = Tape()
    tape.backward(conv2d(xv, ConvKernel(wv, groups=groups), tape=tape), grad_out)
    return xv.grad, wv.grad


def build_loss_scalar(build_loss):
    def scalar():
        return float(build_loss(analytic=False))
    return scalar


# Per-image bit equality of a chunked conv needs its GEMM's rows to round
# alike whatever the row count: OpenBLAS does not guarantee that for a
# 3-column product (a 3-column float64 GEMM of 210 rows differs in the last
# bit from seven of 30 rows), but does for 4 columns.
_BIT_STABLE_WIDTH = 4


class TestConv2d:
    def test_identity_kernel(self):
        x = Value(nhwc(np.ones((1, 1, 3, 3))))
        out = conv2d(x, kernel(np.ones((1, 1, 1, 1))))
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_border_counts(self):
        x = Value(nhwc(np.ones((1, 1, 3, 3))))
        out = conv2d(x, kernel(np.ones((1, 1, 3, 3))))
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
        np.testing.assert_array_equal(nchw(out.data)[0, 0], expected)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 8, 8))
        for a, b in KERNELS:
            w = rng.standard_normal((8, 4, a, b))
            out = nchw(conv(nhwc(x), w))
            assert out.shape == (2, 8, 8, 8)
            assert max_rel_error(out, oracle_conv(x, w)) < 1e-6

    @pytest.mark.parametrize("groups,channels,f_out", [(4, 4, 4)])
    def test_matches_naive_reference_grouped(self, groups, channels, f_out):
        rng = np.random.default_rng(groups)
        x = rng.standard_normal((2, channels, 5, 5))
        for a, b in KERNELS:
            w = rng.standard_normal((f_out, channels // groups, a, b))
            out = nchw(conv(nhwc(x), w, groups=groups))
            assert max_rel_error(out, oracle_conv(x, w, groups=groups)) < 1e-6

    def test_only_classical_and_depthwise_groupings(self):
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((6, 2, 3, 3)), groups=2)
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((6, 1, 3, 3)), groups=3)  # one channel per group, f_out != groups
        assert kernel(np.zeros((6, 1, 3, 3)), groups=6).f_in == 6

    def test_linearity_in_input_and_weights(self):
        rng = np.random.default_rng(6)
        x = nhwc(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        z = nhwc(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        a, b = np.float32(0.7), np.float32(-1.3)
        mixed = conv(a * x + b * z, w)
        split = a * conv(x, w) + b * conv(z, w)
        assert max_rel_error(mixed, split) < 1e-5
        w2 = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        mixed_w = conv(x, a * w + b * w2)
        split_w = a * conv(x, w) + b * conv(x, w2)
        assert max_rel_error(mixed_w, split_w) < 1e-5

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d(Value(nhwc(np.zeros((1, 3, 4, 4)))), kernel(np.zeros((2, 2, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((1, 1, 3, 2)))

    def test_untaped_chunks_match_per_image_runs(self):
        # images sized from the patch budget to about three per chunk, and a
        # batch of two full chunks plus a one-image tail: every image lands
        # in its own slot
        k = 2 * 3 * 3  # patch-matrix width of a 3x3 conv on 2 channels
        side = int((tensor._PATCH_BYTES / (3 * k * 8)) ** 0.5)
        per_chunk = tensor._PATCH_BYTES // (side * side * k * 8)
        assert per_chunk >= 2
        n = 2 * per_chunk + 1
        rng = np.random.default_rng(12)
        x = rng.standard_normal((n, 2, side, side))
        f_out = _BIT_STABLE_WIDTH
        w = rng.standard_normal((f_out, 2, 3, 3))
        out = conv(nhwc(x), w)
        per_image = np.concatenate([conv(nhwc(x[i : i + 1]), w) for i in range(n)])
        assert out.tobytes() == per_image.tobytes()
        taped = conv2d(Value(nhwc(x)), ConvKernel(Value(w)), tape=Tape())
        assert taped.data.tobytes() == out.tobytes()  # one chunked path, taped or not
        tail = slice(n - 1, n)  # the naive loops are slow; one image suffices
        assert max_rel_error(nchw(out[tail]), oracle_conv(x[tail], w)) < 1e-10


class TestNarrowConv:
    """A conv on an input with C < f_in channels equals the conv of that
    input zero-padded to f_in channels, in both groupings."""

    @staticmethod
    def case(a, b, c=2, f_in=5):
        rng = np.random.default_rng(a * 100 + b * 10)
        x = rng.standard_normal((2, c, 6, 7))
        padded = np.concatenate([x, np.zeros((2, f_in - c, 6, 7))], axis=1)
        w = rng.standard_normal((4, f_in, a, b))
        grad_out = rng.standard_normal((2, 4, 6, 7))
        return x, padded, w, grad_out

    @pytest.mark.parametrize("a,b", KERNELS)
    def test_matches_naive_reference_of_padded_input(self, a, b):
        x, padded, w, grad_out = self.case(a, b)
        out = nchw(conv(nhwc(x), w))
        np.testing.assert_allclose(out, oracle_conv(padded, w), rtol=0, atol=1e-10)
        grad_x, grad_w = conv_backward(nhwc(grad_out), nhwc(x), w)
        grad_x = nchw(grad_x)
        want_x, want_w = oracle_conv_backward(grad_out, padded, w)
        assert grad_x.shape == x.shape and grad_w.shape == w.shape
        np.testing.assert_allclose(grad_x, want_x[:, : x.shape[1]], rtol=0, atol=1e-10)
        np.testing.assert_allclose(grad_w, want_w, rtol=0, atol=1e-10)
        assert not grad_w[:, x.shape[1] :].any()  # exactly zero past the real channels

    @pytest.mark.parametrize("a,b", KERNELS)
    def test_constant_input_gets_no_gradient(self, a, b):
        x, padded, w, grad_out = self.case(a, b)
        image, weights = Value(nhwc(x), needs_grad=False), Value(w)
        tape = Tape()
        out = conv2d(image, ConvKernel(weights), tape=tape)
        tape.backward(out, nhwc(grad_out))
        assert image.grad is None
        _, want_w = oracle_conv_backward(grad_out, padded, w)
        np.testing.assert_allclose(weights.grad, want_w, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("a,b", KERNELS)
    @pytest.mark.parametrize("needs_grad", [True, False])
    def test_depthwise_matches_naive_reference_of_padded_input(self, a, b, needs_grad):
        c, f = 2, 5
        rng = np.random.default_rng(a * 100 + b * 10 + 1)
        x = rng.standard_normal((2, c, 6, 7))
        padded = np.concatenate([x, np.zeros((2, f - c, 6, 7))], axis=1)
        w = rng.standard_normal((f, 1, a, b))
        grad_out = nhwc(rng.standard_normal((2, f, 6, 7)))
        out = nchw(conv(nhwc(x), w, groups=f))
        np.testing.assert_allclose(out, oracle_conv(padded, w, groups=f), rtol=0, atol=1e-10)
        assert not out[:, c:].any()
        image, weights = Value(nhwc(x), needs_grad=needs_grad), Value(w)
        tape = Tape()
        tape.backward(conv2d(image, ConvKernel(weights, groups=f), tape=tape), grad_out)
        want_x, want_w = conv_backward(grad_out, nhwc(padded), w, groups=f)
        np.testing.assert_allclose(weights.grad, want_w, rtol=0, atol=1e-10)
        assert not weights.grad[c:].any()  # exactly zero past the real channels
        if needs_grad:
            np.testing.assert_allclose(image.grad, want_x[..., :c], rtol=0, atol=1e-10)
        else:
            assert image.grad is None


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def test_large_arrays_come_from_the_heap():
    # importing thriftynet.tensor raised glibc's mmap threshold, so a 64 MB
    # array is not a fresh mapping (hblkhd: bytes in mmapped blocks)
    try:
        mallinfo2 = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        pytest.skip("no glibc mallinfo2 here")
    mallinfo2.argtypes = ()
    mallinfo2.restype = _MallInfo2
    before = mallinfo2().hblkhd
    block = np.ones(64 << 20, dtype=np.uint8)
    assert mallinfo2().hblkhd == before
    del block


class TestConv2dBackward:
    def test_transpose_of_ones_kernel(self):
        x = nhwc(np.random.default_rng(1).standard_normal((2, 1, 4, 4)))
        w = np.ones((1, 1, 1, 1))
        grad_out = nhwc(np.ones((2, 1, 4, 4)))
        grad_x, grad_w = conv_backward(grad_out, x, w)
        np.testing.assert_array_equal(grad_x, np.ones_like(x))
        np.testing.assert_allclose(grad_w[0, 0, 0, 0], x.sum())

    def test_shape_mismatch_rejected(self):
        # the output gradient must have the conv output's (same-padded) shape
        tape = Tape()
        out = conv2d(Value(nhwc(np.zeros((1, 1, 5, 5)))), kernel(np.zeros((1, 1, 3, 3))),
                     tape=tape)
        with pytest.raises(ConfigurationError):
            tape.backward(out, nhwc(np.zeros((1, 1, 3, 3))))

    @pytest.mark.parametrize("a,b", KERNELS)
    def test_matches_naive_reference(self, a, b):
        rng = np.random.default_rng(a * 100 + b * 10)
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((4, 3, a, b))
        grad_out = rng.standard_normal((2, 4, 5, 6))
        grad_x, grad_w = conv_backward(nhwc(grad_out), nhwc(x), w)
        grad_x = nchw(grad_x)
        want_x, want_w = oracle_conv_backward(grad_out, x, w)
        assert grad_x.shape == x.shape and grad_w.shape == w.shape
        np.testing.assert_allclose(grad_x, want_x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(grad_w, want_w, rtol=0, atol=1e-10)

    # a float64 batch of three full two-image chunks plus a one-image tail,
    # the patch budget shrunk to two images' patch matrix
    @pytest.mark.parametrize("a,b", KERNELS)
    def test_chunked_matches_naive_and_per_image_runs(self, monkeypatch, a, b):
        n, c, f_out, h, width = 7, _BIT_STABLE_WIDTH, 3, 5, 6
        rng = np.random.default_rng(a * 100 + b * 10 + 7)
        x = rng.standard_normal((n, c, h, width))
        w = rng.standard_normal((f_out, c, a, b))
        grad_out = rng.standard_normal((n, f_out, h, width))
        # the backward's patch matrix of g: h*width rows, a*b*f_out wide
        monkeypatch.setattr(tensor, "_PATCH_BYTES", 2 * h * width * a * b * f_out * 8)
        grad_x, grad_w = conv_backward(nhwc(grad_out), nhwc(x), w)
        per_image = np.concatenate([
            conv_backward(nhwc(grad_out[i : i + 1]), nhwc(x[i : i + 1]), w)[0]
            for i in range(n)])
        assert grad_x.tobytes() == per_image.tobytes()
        want_x, want_w = oracle_conv_backward(grad_out, x, w)
        np.testing.assert_allclose(nchw(grad_x), want_x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(grad_w, want_w, rtol=0, atol=1e-10)

    def test_chunked_constant_narrow_input(self, monkeypatch):
        n, c, f_in, f_out = 7, 2, 5, 4
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, c, 6, 7))
        padded = np.concatenate([x, np.zeros((n, f_in - c, 6, 7))], axis=1)
        w = rng.standard_normal((f_out, f_in, 3, 3))
        grad_out = rng.standard_normal((n, f_out, 6, 7))
        # two images' patches of x per chunk: 6*7 rows, 3*3*c wide
        monkeypatch.setattr(tensor, "_PATCH_BYTES", 2 * 6 * 7 * 3 * 3 * c * 8)
        image, weights = Value(nhwc(x), needs_grad=False), Value(w)
        tape = Tape()
        out = conv2d(image, ConvKernel(weights), tape=tape)
        tape.backward(out, nhwc(grad_out))
        assert image.grad is None
        _, want_w = oracle_conv_backward(grad_out, padded, w)
        np.testing.assert_allclose(weights.grad, want_w, rtol=0, atol=1e-10)
        assert not weights.grad[:, c:].any()

    @pytest.mark.parametrize("groups", [1, 4])
    def test_finite_differences(self, groups):
        rng = np.random.default_rng(42 + groups)
        c = 4
        x = Value(nhwc(rng.standard_normal((2, c, 5, 5))))
        w = Value(rng.standard_normal((4, c // groups, 3, 3)))
        weights = nhwc(rng.standard_normal((2, 4, 5, 5)))

        def run(analytic=True):
            tape = Tape()
            out = conv2d(x, ConvKernel(w, groups=groups), tape=tape)
            if not analytic:
                return (out.data * weights).sum()
            x.grad = w.grad = None
            tape.backward(out, weights)
            return x.grad, w.grad

        grad_x, grad_w = run()
        loss = build_loss_scalar(run)
        assert max_rel_error(grad_w, finite_difference(loss, w)) < 1e-6
        assert max_rel_error(grad_x, finite_difference(loss, x)) < 1e-6


class TestGroupedConv:
    def test_double_identity(self):
        f = 4
        dw = np.zeros((f, 1, 3, 3))
        dw[:, 0, 1, 1] = 1.0  # centered delta per channel
        pw = np.eye(f).reshape(f, f, 1, 1)
        x = Value(nhwc(np.random.default_rng(2).standard_normal((2, f, 5, 5))))
        out = conv2d(conv2d(x, kernel(dw, groups=f)), kernel(pw))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_weight_count_formula(self):
        f = 8
        dw = kernel(np.zeros((f, 1, 3, 3)), groups=f)
        pw = kernel(np.zeros((f, f, 1, 1)))
        assert dw.weight_count + pw.weight_count == f * 9 + f * f == 136

    def test_equals_two_separate_convs(self):
        # a grouped model's conv step is its depthwise conv, then its pointwise
        f = 6
        config = ThriftyConfig(filters=f, iterations=1, schedule=(1,), conv_mode="grouped",
                               input_channels=f)
        model = ThriftyNet(config, seed=3, dtype=np.float64)
        x = np.random.default_rng(3).standard_normal((2, f, 7, 7))
        (x_1,) = model.iterate(x, mode="eval")
        x_0 = Value(nhwc(x))
        staged = relu(conv2d(conv2d(x_0, model.kernels[0]), model.kernels[1]))
        unit = Value(np.ones((1, 1)), needs_grad=False)
        staged = batchnorm(add_scaled(staged, [x_0], unit, 0), model.bn[0], "eval")
        np.testing.assert_array_equal(x_1.data, staged.data)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(4)
        # tolerance 1e-5 assumes unit-or-larger variance: output var is
        # exactly var/(var + eps), i.e. 1 - eps/var
        x = Value(nhwc(1.5 * rng.standard_normal((4, 3, 6, 6))))
        state = BatchNormState.create(3, dtype=np.float64)
        out = nchw(batchnorm(x, state, "train").data)
        means = out.mean(axis=(0, 2, 3))
        variances = out.var(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0.0, atol=1e-6)
        np.testing.assert_allclose(variances, 1.0, atol=1e-5)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 4, 5, 5))
        state = BatchNormState.create(4, dtype=np.float64)
        state.gamma.data = rng.standard_normal(4)
        state.beta.data = rng.standard_normal(4)
        out = batchnorm(Value(nhwc(x)), state, "train")
        ref = naive_batchnorm_train(x, state.gamma.data, state.beta.data,
                                    state.epsilon)
        assert max_rel_error(nchw(out.data), ref) < 1e-12

    def test_eval_mode_is_affine(self):
        state = BatchNormState.create(2, dtype=np.float64)
        state.gamma.data = np.full(2, 2.0)
        state.beta.data = np.full(2, 3.0)
        x = Value(nhwc(np.full((2, 2, 3, 3), 5.0)))
        out = batchnorm(x, state, "eval")
        expected = 2.0 * 5.0 / np.sqrt(1.0 + state.epsilon) + 3.0
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_eval_mode_batch_independent(self):
        rng = np.random.default_rng(9)
        state = BatchNormState.create(3, dtype=np.float64)
        state.running_mean = rng.standard_normal(3)
        state.running_var = rng.uniform(0.5, 2.0, 3)
        batch = nhwc(rng.standard_normal((6, 3, 4, 4)))
        joint = batchnorm(Value(batch), state, "eval").data
        for i in range(6):
            alone = batchnorm(Value(batch[i : i + 1]), state, "eval").data
            np.testing.assert_array_equal(alone[0], joint[i])

    def test_running_stats_update(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 2, 3, 3))
        state = BatchNormState.create(2, dtype=np.float64)
        batchnorm(Value(nhwc(x)), state, "train")
        m = 4 * 3 * 3
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(
            state.running_var,
            0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1),
        )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rebuilt_rows_equal_the_output(self, dtype):
        # a taped train-mode output is read back by the backwards through a
        # reader that rebuilds its rows; chunks of 2, 2, 2 and 1 images, the
        # scratch sized by the first and reused
        rng = np.random.default_rng(15)
        state = BatchNormState.create(4, dtype=dtype)
        state.gamma.data = rng.uniform(0.5, 1.5, 4).astype(dtype)
        state.beta.data = rng.standard_normal(4).astype(dtype)
        x = Value(nhwc(rng.standard_normal((7, 4, 5, 3)).astype(dtype)))
        out = batchnorm(x, state, "train", tape=Tape())
        rows = out.rows()
        assert rows is not out.data
        chunks = [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]
        rebuilt = np.concatenate([rows[chunk].copy() for chunk in chunks])
        assert rebuilt.dtype == dtype and rebuilt.tobytes() == out.data.tobytes()
        assert rows[:].tobytes() == out.data.tobytes()  # the depthwise read
        # untaped, no backward reads it: its rows are the array itself
        plain = batchnorm(x, state, "train")
        assert plain.rows() is plain.data

    @pytest.mark.parametrize("channels", [16, 64])
    def test_outputs_equal_the_broadcast_affine(self, channels):
        # the scale and shift runs over tiled image rows; each value must
        # still get the two ops of a (C,) broadcast, bit for bit
        rng = np.random.default_rng(16)
        state = BatchNormState.create(channels)
        state.gamma.data = rng.uniform(0.5, 1.5, channels).astype(np.float32)
        state.beta.data = rng.standard_normal(channels).astype(np.float32)
        state.running_mean = rng.standard_normal(channels).astype(np.float32)
        state.running_var = rng.uniform(0.5, 2.0, channels).astype(np.float32)
        x = Value(rng.standard_normal((3, 5, 6, channels)).astype(np.float32))
        scale = state.gamma.data * (1.0 / np.sqrt(state.running_var + state.epsilon))
        shift = state.beta.data - state.running_mean * scale
        want = x.data * scale
        want += shift
        assert batchnorm(x, state, "eval").data.tobytes() == want.tobytes()
        out = batchnorm(x, state, "train", tape=Tape())
        xhat = out.affine[0]  # what the backward keeps
        want = xhat * state.gamma.data
        want += state.beta.data
        assert out.data.tobytes() == want.tobytes()

    def test_degenerate_batch_rejected(self):
        state = BatchNormState.create(2, dtype=np.float64)
        with pytest.raises(DegenerateBatchError):
            batchnorm(Value(nhwc(np.zeros((1, 2, 1, 1)))), state, "train")

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Value(nhwc(rng.standard_normal((3, 2, 4, 4))))
        state = BatchNormState.create(2, dtype=np.float64)
        state.gamma.data = rng.uniform(0.5, 1.5, 2)
        state.beta.data = rng.standard_normal(2)
        state.running_mean = rng.standard_normal(2)
        state.running_var = rng.uniform(0.5, 2.0, 2)
        snapshot = (state.running_mean.copy(), state.running_var.copy())
        weights = rng.standard_normal(x.data.shape)

        for target in (state.gamma, state.beta, x):
            def run(analytic=True, target=target):
                tape = Tape()
                out = batchnorm(Value(x.data) if target is not x else x,
                                state, "train", tape=tape)
                state.running_mean[...], state.running_var[...] = snapshot
                value = (out.data**2 * weights).sum()
                if not analytic:
                    return value
                target.grad = None
                tape.backward(out, 2.0 * out.data * weights)
                return target.grad

            err = max_rel_error(run(), finite_difference(build_loss_scalar(run), target))
            assert err < 1e-6, f"gradient w.r.t. {target} off by {err}"


class TestActivations:
    def test_relu_values(self):
        out = relu(Value(np.array([[[[-1.0, 0.0, 2.0]]]])))
        np.testing.assert_array_equal(out.data, [[[[0.0, 0.0, 2.0]]]])

    def test_tanh_zero(self):
        assert tanh_act(Value(np.zeros((1, 1, 1, 1)))).data[0, 0, 0, 0] == 0.0

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Value(np.array([[[[-1.0, 0.0, 2.0]]]]))
        tape = Tape()
        out = relu(x, tape=tape)
        tape.backward(out, np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad, [[[[0.0, 0.0, 1.0]]]])

    def test_relu_after_conv_with_exact_zeros(self):
        # an all-zero image makes every conv output of it exactly 0, where
        # the bit-packed mask must give subgradient 0; 3*5*3*3 = 135 values
        # leave the mask's last byte partly used
        rng = np.random.default_rng(27)
        x_nchw = rng.standard_normal((3, 2, 5, 3))
        x_nchw[1] = 0.0
        x, w = Value(nhwc(x_nchw)), Value(rng.standard_normal((3, 2, 3, 3)))
        weights = nhwc(rng.standard_normal((3, 3, 5, 3)))

        def run(analytic=True):
            tape = Tape()
            mid = conv2d(x, ConvKernel(w), tape=tape)
            out = relu(mid, tape=tape)
            if not analytic:
                return (out.data * weights).sum()
            x.grad = w.grad = None
            tape.backward(out, weights)
            return nchw(mid.data)

        mid = run()
        assert not mid[1].any() and (mid[[0, 2]] != 0).all()
        want_x, want_w = oracle_conv_backward(nchw(weights) * (mid > 0), x_nchw, w.data)
        assert not x.grad[1].any()
        np.testing.assert_allclose(nchw(x.grad), want_x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(w.grad, want_w, rtol=0, atol=1e-10)
        assert max_rel_error(w.grad, finite_difference(build_loss_scalar(run), w)) < 1e-6

    def test_tanh_finite_differences(self):
        rng = np.random.default_rng(12)
        x = Value(rng.standard_normal((2, 3, 4, 4)))

        def run(analytic=True):
            tape = Tape()
            out = tanh_act(x, tape=tape)
            if not analytic:
                return (out.data**3).sum()
            x.grad = None
            tape.backward(out, 3.0 * out.data**2)
            return x.grad

        assert max_rel_error(run(), finite_difference(build_loss_scalar(run), x)) < 1e-9


class TestMaxPool:
    def test_constant_input(self):
        out = nchw(maxpool2x2(Value(nhwc(np.full((2, 3, 4, 6), 2.5)))).data)
        assert out.shape == (2, 3, 2, 3)
        np.testing.assert_array_equal(out, np.full((2, 3, 2, 3), 2.5))

    def test_single_window(self):
        out = maxpool2x2(Value(nhwc(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_matches_naive_reference(self):
        x = np.random.default_rng(13).standard_normal((2, 3, 6, 8))
        out = maxpool2x2(Value(nhwc(x)))
        np.testing.assert_array_equal(nchw(out.data), naive_maxpool2x2(x))

    def test_odd_sizes_replicate_pad(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = maxpool2x2(Value(nhwc(x)))
        # windows: [[0,1],[3,4]] -> 4, [[2,2],[5,5]] -> 5, rows/cols replicated
        np.testing.assert_array_equal(nchw(out.data)[0, 0], [[4.0, 5.0], [7.0, 8.0]])

    def test_tie_break_routes_to_first_index(self):
        x = Value(nhwc(np.full((1, 1, 2, 2), 7.0)))
        tape = Tape()
        out = maxpool2x2(x, tape=tape)
        tape.backward(out, np.ones_like(out.data))
        np.testing.assert_array_equal(nchw(x.grad)[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("h,w", [(4, 6), (5, 4), (3, 7), (1, 1)])
    def test_backward_routes_to_first_maximal_corner(self, h, w):
        # values from {0, 1, 2} tie often, in every corner order; odd sides
        # are replicate-padded, and a padded copy routes to its source
        rng = np.random.default_rng(10 * h + w)
        x = rng.integers(0, 3, (2, 3, h, w)).astype(np.float64)
        g = rng.standard_normal((2, 3, (h + 1) // 2, (w + 1) // 2))
        xp = np.pad(x, ((0, 0), (0, 0), (0, h % 2), (0, w % 2)), mode="edge")
        want = np.zeros_like(x)
        for n, c, i, j in np.ndindex(g.shape):
            di, dj = divmod(int(xp[n, c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].argmax()), 2)
            want[n, c, min(2 * i + di, h - 1), min(2 * j + dj, w - 1)] += g[n, c, i, j]
        value = Value(nhwc(x))
        tape = Tape()
        out = maxpool2x2(value, tape=tape)
        tape.backward(out, nhwc(g))
        np.testing.assert_array_equal(nchw(value.grad), want)

    def test_constant_input_records_nothing(self):
        x = Value(nhwc(np.ones((1, 3, 2, 2))), needs_grad=False)
        tape = Tape()
        pooled = maxpool2x2(x, tape=tape)
        assert len(tape) == 0 and not pooled.needs_grad

    def test_finite_differences_distinct_entries(self):
        rng = np.random.default_rng(15)
        base = rng.permutation(16).astype(np.float64).reshape(1, 1, 4, 4)
        x = Value(nhwc(base + rng.uniform(0, 0.2, base.shape)))

        def run(analytic=True):
            tape = Tape()
            out = maxpool2x2(x, tape=tape)
            if not analytic:
                return (out.data**2).sum()
            x.grad = None
            tape.backward(out, 2.0 * out.data)
            return x.grad

        assert max_rel_error(run(), finite_difference(build_loss_scalar(run), x)) < 1e-8


class TestGlobalMaxPool:
    def test_channel_maxima(self):
        x = np.array([[[[5.0, 1.0], [0.0, 2.0]], [[-3.0, -1.0], [-9.0, -4.0]]]])
        out = global_max_pool(Value(nhwc(x)))
        np.testing.assert_array_equal(out.data.reshape(2), [5.0, -1.0])

    def test_constant(self):
        out = global_max_pool(Value(nhwc(np.full((2, 3, 4, 4), 1.25))))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 1.25))

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 4, 4))
        perm = rng.permutation(16)
        shuffled = x.reshape(2, 3, 16)[:, :, perm].reshape(2, 3, 4, 4)
        np.testing.assert_array_equal(
            global_max_pool(Value(nhwc(x))).data, global_max_pool(Value(nhwc(shuffled))).data
        )

    def test_backward_routes_to_argmax(self):
        x = Value(nhwc(np.array([[[[1.0, 3.0], [2.0, 0.0]]]])))
        tape = Tape()
        out = global_max_pool(x, tape=tape)
        tape.backward(out, np.full((1, 1), 2.0))
        np.testing.assert_array_equal(nchw(x.grad)[0, 0], [[0.0, 2.0], [0.0, 0.0]])


class TestLinear:
    def test_identity(self):
        x = Value(np.random.default_rng(19).standard_normal((4, 5)))
        out = linear(x, Value(np.eye(5)), Value(np.zeros(5)))
        np.testing.assert_array_equal(out.data, x.data)

    def test_parameter_count(self):
        w = Value(np.zeros((64, 10)))
        b = Value(np.zeros(10))
        assert w.data.size + b.data.size == 650

    def test_finite_differences(self):
        rng = np.random.default_rng(20)
        x = Value(rng.standard_normal((3, 4)))
        w = Value(rng.standard_normal((4, 5)))
        b = Value(rng.standard_normal(5))
        weights = rng.standard_normal((3, 5))

        for target in (x, w, b):
            def run(analytic=True, target=target):
                tape = Tape()
                out = linear(x, w, b, tape=tape)
                if not analytic:
                    return (out.data * weights).sum()
                target.grad = None
                tape.backward(out, weights)
                return target.grad

            err = max_rel_error(run(), finite_difference(build_loss_scalar(run), target))
            assert err < 1e-8


class TestSoftmaxCrossEntropy:
    def test_uniform_scores(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.arange(4))
        assert abs(loss - np.log(10.0)) < 1e-12

    def test_confident_scores_do_not_overflow(self):
        scores = np.zeros((2, 5))
        scores[0, 3] = 1e4
        scores[1, 1] = 1e4
        loss, grad = softmax_cross_entropy(scores, np.array([3, 1]))
        assert loss < 1e-8
        assert np.all(np.isfinite(grad))

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(22)
        scores = Value(rng.standard_normal((4, 6)))
        labels = rng.integers(0, 6, size=4)
        _, analytic = softmax_cross_entropy(scores.data, labels)

        def scalar():
            return softmax_cross_entropy(scores.data, labels)[0]

        numeric = finite_difference(scalar, scores)
        assert max_rel_error(analytic, numeric) < 1e-7


class TestArithmeticOps:
    def test_add_backward_fans_out(self):
        # unit coefficients: every input receives the output gradient as is
        base = Value(np.ones((1, 2, 2, 2)))
        lags = [Value(np.full((1, 2, 2, 2), float(i))) for i in range(3)]
        coeffs = Value(np.ones((2, 4)))
        tape = Tape()
        out = add_scaled(base, lags, coeffs, 1, tape=tape)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 4.0))
        seed = np.random.default_rng(23).standard_normal(out.data.shape)
        tape.backward(out, seed)
        for v in (base, *lags):
            np.testing.assert_array_equal(v.grad, seed)
        expected = np.zeros((2, 4))
        expected[1, :3] = [(seed * lag.data).sum() for lag in lags]
        np.testing.assert_allclose(coeffs.grad, expected)

    def test_add_scaled_routes_coefficient_gradient(self):
        rng = np.random.default_rng(24)
        base = Value(rng.standard_normal((2, 3, 4, 4)))
        lags = [Value(rng.standard_normal((2, 3, 4, 4))) for _ in range(2)]
        coeffs = Value(rng.standard_normal((3, 4)))
        tape = Tape()
        out = add_scaled(base, lags, coeffs, 1, tape=tape)
        c = coeffs.data
        np.testing.assert_allclose(
            out.data, base.data + c[1, 0] * lags[0].data + c[1, 1] * lags[1].data)
        seed = rng.standard_normal(out.data.shape)
        tape.backward(out, seed)
        np.testing.assert_array_equal(base.grad, seed)
        for i, lag in enumerate(lags):
            np.testing.assert_allclose(lag.grad, c[1, i] * seed)
            np.testing.assert_allclose(coeffs.grad[1, i], (seed * lag.data).sum())
        untouched = np.ones((3, 4), dtype=bool)
        untouched[1, :2] = False
        assert (coeffs.grad[untouched] == 0.0).all()

    def test_add_scaled_fixed_coefficients_take_no_gradient(self):
        base = Value(np.ones((1, 1, 2, 2)))
        lag = Value(np.full((1, 1, 2, 2), 2.0))
        fixed = Value(np.full((1, 1), 3.0), needs_grad=False)
        tape = Tape()
        out = add_scaled(base, [lag], fixed, 0, tape=tape)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 7.0))
        tape.backward(out, np.ones_like(out.data))
        np.testing.assert_array_equal(lag.grad, np.full((1, 1, 2, 2), 3.0))
        assert fixed.grad is None
        np.testing.assert_array_equal(fixed.data, np.full((1, 1), 3.0))

    def test_add_scaled_constant_lag_still_grades_its_coefficient(self):
        rng = np.random.default_rng(25)
        base = Value(rng.standard_normal((2, 3, 4, 4)))
        lags = [Value(rng.standard_normal((2, 3, 4, 4))),
                Value(rng.standard_normal((2, 3, 4, 4)), needs_grad=False)]
        coeffs = Value(rng.standard_normal((2, 2)))
        tape = Tape()
        out = add_scaled(base, lags, coeffs, 0, tape=tape)
        seed = rng.standard_normal(out.data.shape)
        tape.backward(out, seed)
        assert lags[1].grad is None
        np.testing.assert_allclose(lags[0].grad, coeffs.data[0, 0] * seed)
        np.testing.assert_allclose(coeffs.grad[0], [(seed * lag.data).sum() for lag in lags])

    def test_add_scaled_rejects_bad_lags(self):
        base = Value(np.ones((1, 1, 2, 2)))
        coeffs = Value(np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            add_scaled(base, [], coeffs, 0)
        with pytest.raises(ConfigurationError):
            add_scaled(base, [base, base, base], coeffs, 0)  # more lags than columns
        with pytest.raises(ConfigurationError):
            add_scaled(base, [Value(np.ones((1, 1, 3, 3)))], coeffs, 0)
        with pytest.raises(ConfigurationError):
            add_scaled(base, [Value(np.ones((1, 1, 2, 3)))], coeffs, 0)  # wider than base

    @staticmethod
    def narrow_case(dtype):
        """A base, two lags, a 2-channel lag and that lag zero-padded to the
        base's 6 channels, coefficients and an output gradient."""
        c = 2
        rng = np.random.default_rng(26)
        shape = (5, 4, 3, 6)
        base = rng.standard_normal(shape).astype(dtype)
        lags = [rng.standard_normal(shape).astype(dtype) for _ in range(2)]
        narrow = rng.standard_normal(shape[:3] + (c,)).astype(dtype)
        padded = np.zeros(shape, dtype=dtype)
        padded[..., :c] = narrow
        coeffs = rng.standard_normal((2, 4)).astype(dtype)
        seed = rng.standard_normal(shape).astype(dtype)
        return base, lags, narrow, padded, coeffs, seed

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_add_scaled_narrow_lag_equals_its_zero_padded_self(self, monkeypatch,
                                                               dtype, position):
        base, lags, narrow, padded, coeffs, seed = self.narrow_case(dtype)
        # two images per shortcut-sum slice: two full slices and a one-image tail
        monkeypatch.setattr(tensor, "_SUM_BYTES", 2 * base[0].nbytes)

        def run(lag):
            values = [Value(base), *(Value(d) for d in lags), Value(coeffs)]
            extra = Value(lag)
            terms = values[1:3]
            terms.insert(position, extra)
            tape = Tape()
            out = add_scaled(values[0], terms, values[-1], 1, tape=tape)
            tape.backward(out, seed)
            return [out.data, extra.grad, *(v.grad for v in values)]

        got, want = run(narrow), run(padded)
        want[1] = want[1][..., : narrow.shape[3]]  # the narrow lag's: g's first channels
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_add_scaled_narrow_lag_finite_differences(self):
        base, lags, narrow, _, coeffs, seed = self.narrow_case(np.float64)
        values = [Value(base), Value(lags[0]), Value(narrow), Value(lags[1])]
        mix = Value(coeffs)

        def run(analytic=True):
            tape = Tape()
            out = add_scaled(values[0], values[1:], mix, 1, tape=tape)
            if not analytic:
                return (out.data * seed).sum()
            for v in (*values, mix):
                v.grad = None
            tape.backward(out, seed)
            return [v.grad for v in (*values, mix)]

        grads = run()
        loss = build_loss_scalar(run)
        for v, grad in zip((*values, mix), grads):
            assert max_rel_error(grad, finite_difference(loss, v)) < 1e-6

    def test_add_scaled_holds_no_full_size_temporary(self):
        # untaped, the output and one slice-sized scratch are all it allocates
        rng = np.random.default_rng(27)
        shape = (16, 16, 16, 64)  # 2 MiB per float64 array
        base = Value(rng.standard_normal(shape))
        lags = [Value(rng.standard_normal(shape)) for _ in range(3)]
        lags.append(Value(rng.standard_normal(shape[:3] + (3,))))
        coeffs = Value(np.ones((1, 4)), needs_grad=False)
        add_scaled(base, lags, coeffs, 0)  # warm-up
        tracemalloc.start()
        try:
            out = add_scaled(base, lags, coeffs, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + tensor._SUM_BYTES + (64 << 10), peak


class TestTape:
    def test_single_backward_per_tape(self):
        x = Value(np.ones((1, 1, 2, 2)))
        tape = Tape()
        out = relu(x, tape=tape)
        tape.backward(out, np.ones_like(out.data))
        assert len(tape) == 0  # the backward consumed every record
        with pytest.raises(ConfigurationError):
            tape.backward(out, np.ones_like(out.data))

    def test_records_hold_no_unread_activation(self):
        # relu's backward reads only its mask, so the conv output it was fed
        # dies with the caller's last reference, before any backward runs
        rng = np.random.default_rng(21)
        x_nchw, w = rng.standard_normal((2, 3, 5, 6)), rng.standard_normal((4, 3, 3, 3))
        x, weights = Value(nhwc(x_nchw)), Value(w)
        tape = Tape()
        mid = conv2d(x, ConvKernel(weights), tape=tape)
        probe, active = weakref.ref(mid.data), nchw(mid.data) > 0
        out = relu(mid, tape=tape)
        del mid
        assert probe() is None
        seed = rng.standard_normal(out.shape)
        tape.backward(out, seed)
        want_x, want_w = naive_conv2d_backward(nchw(seed) * active, x_nchw, w, padding=1)
        np.testing.assert_allclose(nchw(x.grad), want_x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(weights.grad, want_w, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("groups", [1, 3])
    def test_records_hold_no_batchnorm_output(self, monkeypatch, groups):
        # a train-mode BN output feeds a conv and is a trained lag; both
        # backwards read it through rows rebuilt from BN's own xhat, so the
        # output dies with the caller's last reference.  The shortcut's dot
        # runs in two-image chunks of a 5-image batch.
        rng = np.random.default_rng(26)
        x_nchw = rng.standard_normal((5, 3, 4, 6))
        x, w = Value(nhwc(x_nchw)), Value(rng.standard_normal((3, 3 // groups, 3, 3)))
        state = BatchNormState.create(3, dtype=np.float64)
        state.gamma.data = rng.uniform(0.5, 1.5, 3)
        state.beta.data = rng.standard_normal(3)
        snapshot = (state.running_mean.copy(), state.running_var.copy())
        coeffs = Value(rng.uniform(-1.0, 1.0, (1, 1)))
        seed = rng.standard_normal((5, 4, 6, 3))
        monkeypatch.setattr(tensor, "_SUM_BYTES", 2 * seed[0].nbytes)

        def run(analytic=True):
            state.running_mean[...], state.running_var[...] = snapshot
            tape = Tape()
            y = batchnorm(x, state, "train", tape=tape)
            y_data, probe = y.data.copy(), weakref.ref(y.data)
            out = add_scaled(conv2d(y, ConvKernel(w, groups=groups), tape=tape), [y],
                             coeffs, 0, tape=tape)
            del y
            if not analytic:
                return float((out.data * seed).sum())
            assert probe() is None
            for v in (x, w, state.gamma, state.beta, coeffs):
                v.grad = None
            tape.backward(out, seed)
            return y_data

        y_data = run()
        np.testing.assert_allclose(coeffs.grad[0, 0], (y_data * seed).sum(), rtol=1e-12)
        if groups == 1:
            _, want_w = naive_conv2d_backward(nchw(seed), nchw(y_data), w.data, padding=1)
            np.testing.assert_allclose(w.grad, want_w, rtol=0, atol=1e-10)
        for target in (x, w, state.gamma, state.beta, coeffs):
            numeric = finite_difference(build_loss_scalar(run), target)
            assert max_rel_error(target.grad, numeric) < 1e-6

    def test_seed_shape_checked(self):
        x = Value(np.ones((1, 1, 2, 2)))
        tape = Tape()
        out = relu(x, tape=tape)
        with pytest.raises(ConfigurationError):
            tape.backward(out, np.ones((1, 1, 3, 3)))

    def test_shared_value_accumulates_both_paths(self):
        # y = x + 2x + 3x  =>  dy/dx = 6 through three uses of the same Value
        x = Value(np.full((1, 1, 2, 2), 3.0))
        coeffs = Value(np.array([[2.0, 3.0]]))
        tape = Tape()
        out = add_scaled(x, [x, x], coeffs, 0, tape=tape)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 18.0))
        tape.backward(out, np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 6.0))
        np.testing.assert_array_equal(coeffs.grad, [[12.0, 12.0]])

    def test_backward_leaves_the_seed_unchanged(self):
        # batch norm and relu build their input gradient in the g they get
        x = Value(nhwc(np.random.default_rng(22).standard_normal((2, 3, 3, 3))))
        tape = Tape()
        out = batchnorm(relu(x, tape=tape), BatchNormState.create(3, np.float64),
                        "train", tape=tape)
        seed = np.random.default_rng(23).standard_normal(out.shape)
        kept = seed.copy()
        tape.backward(out, seed)
        np.testing.assert_array_equal(seed, kept)
        assert np.abs(x.grad).max() > 0

    @pytest.mark.parametrize("order", ["relu_first", "add_scaled_first"])
    def test_one_value_feeding_every_in_place_backward(self, order):
        # v feeds relu, train-mode batchnorm, maxpool2x2 and add_scaled (as
        # its base and as a lag), so each backward that writes into its g or
        # hands g on uncopied meets the others in v's gradient slot; the two
        # recording orders fill that slot in opposite orders
        rng = np.random.default_rng(24)
        x = Value(nhwc(rng.standard_normal((2, 3, 4, 4))))
        state = BatchNormState.create(3, dtype=np.float64)
        state.gamma.data = rng.uniform(0.5, 1.5, 3)
        state.beta.data = rng.standard_normal(3)
        shared = Value(rng.uniform(-1.0, 1.0, (1, 2)))
        mix = Value(rng.uniform(-1.0, 1.0, (1, 3)))
        weights = rng.standard_normal((2, 2, 2, 3))

        def build(analytic=True):
            tape = Tape()
            v = tanh_act(x, tape=tape)
            ops = {
                "r": lambda: relu(v, tape=tape),
                "b": lambda: batchnorm(v, state, "train", tape=tape),
                "p": lambda: maxpool2x2(v, tape=tape),
                "s": lambda: add_scaled(v, [v, v], shared, 0, tape=tape),
            }
            names = "rbps" if order == "relu_first" else "spbr"
            out = {name: ops[name]() for name in names}
            pooled = [maxpool2x2(out[name], tape=tape) for name in "rbs"]
            z = add_scaled(out["p"], pooled, mix, 0, tape=tape)
            if not analytic:
                return float(np.sum(z.data * weights))
            for value in (x, state.gamma, state.beta, shared, mix):
                value.grad = None
            tape.backward(z, weights)
            return None

        build()
        for target in (x, state.gamma, state.beta, shared, mix):
            analytic = target.grad
            numeric = finite_difference(build_loss_scalar(build), target, 1e-6)
            assert max_rel_error(analytic, numeric) < 1e-6

    def test_unused_branches_contribute_nothing(self):
        x = Value(nhwc(np.ones((1, 2, 4, 4))))
        tape = Tape()
        kept = relu(x, tape=tape)
        _dead_end = maxpool2x2(kept, tape=tape)  # never reaches the loss
        out = global_max_pool(kept, tape=tape)
        tape.backward(out, np.ones_like(out.data))
        assert x.grad is not None  # reaches x only through the live branch
        assert x.grad.sum() == 2.0


SWEEP_SEEDS = range(20)


@pytest.mark.parametrize("seed", SWEEP_SEEDS)
def test_every_primitive_gradient_sweep(seed):
    """All primitives pass central-difference checks across random seeds."""
    rng = np.random.default_rng(1000 + seed)
    x = Value(nhwc(rng.standard_normal((2, 4, 6, 6))))
    # init-scale weights: O(1) draws saturate tanh and the softmax, leaving
    # a flat loss whose true gradients sit at the finite-difference noise floor
    w = Value(0.3 * rng.standard_normal((4, 4, 3, 3)))
    dw = Value(0.3 * rng.standard_normal((4, 1, 3, 3)))
    state = BatchNormState.create(4, dtype=np.float64)
    state.gamma.data = rng.uniform(0.5, 1.5, 4)
    state.beta.data = rng.standard_normal(4)
    snapshot = (state.running_mean.copy(), state.running_var.copy())
    fc_w = Value(0.5 * rng.standard_normal((4, 3)))
    fc_b = Value(0.2 * rng.standard_normal(3))
    coeffs = Value(rng.uniform(-1.0, 1.0, (2, 3)))
    labels = rng.integers(0, 3, size=2)

    def composite(analytic=True):
        state.running_mean[...], state.running_var[...] = snapshot
        tape = Tape()
        h1 = conv2d(x, ConvKernel(w), tape=tape)
        h2 = conv2d(h1, ConvKernel(dw, groups=4), tape=tape)
        h3 = tanh_act(h2, tape=tape)
        h4 = batchnorm(h3, state, "train", tape=tape)
        h5 = add_scaled(h4, [h1, h3], coeffs, 1, tape=tape)
        h6 = maxpool2x2(h5, tape=tape)
        h7 = global_max_pool(h6, tape=tape)
        logits = linear(h7, fc_w, fc_b, tape=tape)
        loss, grad = softmax_cross_entropy(logits.data, labels)
        state.running_mean[...], state.running_var[...] = snapshot
        if not analytic:
            return loss
        for v in (x, w, dw, state.gamma, state.beta, coeffs, fc_w, fc_b):
            v.grad = None
        tape.backward(logits, grad)
        return None

    composite()
    for target in (w, dw, state.gamma, state.beta, coeffs, fc_w, fc_b):
        analytic = target.grad
        numeric = finite_difference(build_loss_scalar(composite), target)
        assert max_rel_error(analytic, numeric) < 1e-5
