"""Forward oracles and gradient checks for every primitive."""

import ctypes

import numpy as np
import pytest

from _oracles import (
    naive_batchnorm_train,
    naive_conv2d,
    naive_conv2d_backward,
    naive_maxpool2x2,
)
from thriftynet import tensor
from thriftynet.errors import ConfigurationError, DataError, DegenerateBatchError
from thriftynet.gradcheck import finite_difference, max_rel_error
from thriftynet.tensor import (
    BatchNormState,
    ConvKernel,
    MacTally,
    Tape,
    Value,
    add_scaled,
    batchnorm,
    channel_pad,
    conv2d,
    conv2d_backward,
    conv2d_raw,
    global_max_pool,
    grouped_conv,
    linear,
    maxpool2x2,
    relu,
    reshape,
    softmax_cross_entropy,
    tanh_act,
)


def kernel(array, groups=1):
    return ConvKernel(Value(np.asarray(array, dtype=np.float64)), groups=groups)


def build_loss_scalar(build_loss):
    def scalar():
        return float(build_loss(analytic=False))
    return scalar


class TestConv2d:
    def test_identity_kernel(self):
        x = Value(np.ones((1, 1, 3, 3)))
        out = conv2d(x, kernel(np.ones((1, 1, 1, 1))), padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_ones_kernel_border_counts(self):
        x = Value(np.ones((1, 1, 3, 3)))
        out = conv2d(x, kernel(np.ones((1, 1, 3, 3))), padding=1)
        expected = np.array([[4, 6, 4], [6, 9, 6], [4, 6, 4]], dtype=np.float64)
        np.testing.assert_array_equal(out.data[0, 0], expected)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 8, 8))
        w = rng.standard_normal((8, 4, 3, 3))
        out = conv2d_raw(x, w, groups=1, padding=1)
        ref = naive_conv2d(x, w, groups=1, padding=1)
        assert max_rel_error(out, ref) < 1e-6

    @pytest.mark.parametrize("groups,channels,f_out", [(4, 4, 4)])
    def test_matches_naive_reference_grouped(self, groups, channels, f_out):
        rng = np.random.default_rng(groups)
        x = rng.standard_normal((2, channels, 5, 5))
        w = rng.standard_normal((f_out, channels // groups, 3, 3))
        out = conv2d_raw(x, w, groups=groups, padding=1)
        ref = naive_conv2d(x, w, groups=groups, padding=1)
        assert max_rel_error(out, ref) < 1e-6

    def test_only_classical_and_depthwise_groupings(self):
        w = np.zeros((6, 2, 3, 3))
        with pytest.raises(ConfigurationError):
            kernel(w, groups=2)
        with pytest.raises(ConfigurationError):
            conv2d_raw(np.zeros((1, 4, 5, 5)), w, groups=2, padding=1)
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((6, 1, 3, 3)), groups=3)  # one channel per group, f_out != groups
        assert kernel(np.zeros((6, 1, 3, 3)), groups=6).f_in == 6

    def test_linearity_in_input_and_weights(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        z = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        a, b = np.float32(0.7), np.float32(-1.3)
        mixed = conv2d_raw(a * x + b * z, w, padding=1)
        split = a * conv2d_raw(x, w, padding=1) + b * conv2d_raw(z, w, padding=1)
        assert max_rel_error(mixed, split) < 1e-5
        w2 = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        mixed_w = conv2d_raw(x, a * w + b * w2, padding=1)
        split_w = a * conv2d_raw(x, w, padding=1) + b * conv2d_raw(x, w2, padding=1)
        assert max_rel_error(mixed_w, split_w) < 1e-5

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d(Value(np.zeros((1, 3, 4, 4))), kernel(np.zeros((2, 2, 3, 3))))

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            kernel(np.zeros((1, 1, 2, 2)))

    def test_untaped_chunks_match_per_image_runs(self):
        # a batch one full chunk plus a 5-image tail: every image lands in its
        # own slot, and the MACs are counted once for the whole batch
        n = tensor._UNTAPED_CHUNK + 5
        rng = np.random.default_rng(12)
        x = rng.standard_normal((n, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        tally = MacTally()
        out = conv2d_raw(x, w, padding=1, tally=tally)
        per_image = np.concatenate([conv2d_raw(x[i : i + 1], w, padding=1) for i in range(n)])
        assert out.tobytes() == per_image.tobytes()
        assert max_rel_error(out, naive_conv2d(x, w, padding=1)) < 1e-10
        assert tally.total == n * 3 * 4 * 4 * 2 * 3 * 3


class TestNarrowConv:
    """A classical conv on an input with C < f_in channels equals the conv of
    that input zero-padded to f_in channels."""

    @staticmethod
    def case(a, b, padding, c=2, f_in=5):
        rng = np.random.default_rng(a * 100 + b * 10 + padding)
        x = rng.standard_normal((2, c, 6, 7))
        padded = np.concatenate([x, np.zeros((2, f_in - c, 6, 7))], axis=1)
        w = rng.standard_normal((4, f_in, a, b))
        grad_out = rng.standard_normal(naive_conv2d(padded, w, padding=padding).shape)
        return x, padded, w, grad_out

    @pytest.mark.parametrize("a,b,padding", [(3, 3, 1), (3, 3, 0), (1, 1, 0), (5, 3, 2)])
    def test_matches_naive_reference_of_padded_input(self, a, b, padding):
        x, padded, w, grad_out = self.case(a, b, padding)
        out = conv2d_raw(x, w, padding=padding)
        np.testing.assert_allclose(out, naive_conv2d(padded, w, padding=padding),
                                   rtol=0, atol=1e-10)
        grad_x, grad_w = conv2d_backward(grad_out, x, w, padding=padding)
        want_x, want_w = naive_conv2d_backward(grad_out, padded, w, padding=padding)
        assert grad_x.shape == x.shape and grad_w.shape == w.shape
        np.testing.assert_allclose(grad_x, want_x[:, : x.shape[1]], rtol=0, atol=1e-10)
        np.testing.assert_allclose(grad_w, want_w, rtol=0, atol=1e-10)
        assert not grad_w[:, x.shape[1] :].any()  # exactly zero past the real channels

    @pytest.mark.parametrize("a,b,padding", [(3, 3, 1), (1, 1, 0)])
    def test_constant_input_gets_no_gradient(self, a, b, padding):
        x, padded, w, grad_out = self.case(a, b, padding)
        image, weights = Value(x, needs_grad=False), Value(w)
        tape = Tape()
        out = conv2d(image, ConvKernel(weights), padding=padding, tape=tape)
        tape.backward(out, grad_out)
        assert image.grad is None
        _, want_w = naive_conv2d_backward(grad_out, padded, w, padding=padding)
        np.testing.assert_allclose(weights.grad, want_w, rtol=0, atol=1e-10)

    def test_tallies_nominal_macs(self):
        x, _, w, _ = self.case(3, 3, 1)
        for keep in (False, True):  # untaped chunks, and the taped whole batch
            tally = MacTally()
            if keep:
                conv2d(Value(x), ConvKernel(Value(w)), padding=1, tape=Tape(), tally=tally)
            else:
                conv2d_raw(x, w, padding=1, tally=tally)
            assert tally.total == 2 * 4 * 6 * 7 * 5 * 3 * 3  # f_in=5, not C=2

    def test_depthwise_still_needs_every_channel(self):
        with pytest.raises(ConfigurationError):
            conv2d(Value(np.zeros((1, 2, 4, 4))), kernel(np.zeros((4, 1, 3, 3)), groups=4))


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
        x = np.random.default_rng(1).standard_normal((2, 1, 4, 4))
        w = np.ones((1, 1, 1, 1))
        grad_out = np.ones((2, 1, 4, 4))
        grad_x, grad_w = conv2d_backward(grad_out, x, w, padding=0)
        np.testing.assert_array_equal(grad_x, np.ones_like(x))
        np.testing.assert_allclose(grad_w[0, 0, 0, 0], x.sum())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            conv2d_backward(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 5, 5)),
                            np.zeros((1, 1, 3, 3)), padding=0)

    # (a, b, padding): padding > a-1 or > b-1 crops the output gradient
    # before the flipped-kernel correlation that gives grad_x
    @pytest.mark.parametrize("a,b,padding", [(3, 3, 0), (3, 3, 1), (3, 3, 3), (1, 1, 1),
                                             (5, 3, 1), (3, 5, 4)])
    def test_matches_naive_reference(self, a, b, padding):
        rng = np.random.default_rng(a * 100 + b * 10 + padding)
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((4, 3, a, b))
        grad_out = rng.standard_normal(naive_conv2d(x, w, padding=padding).shape)
        grad_x, grad_w = conv2d_backward(grad_out, x, w, padding=padding)
        want_x, want_w = naive_conv2d_backward(grad_out, x, w, padding=padding)
        assert grad_x.shape == x.shape and grad_w.shape == w.shape
        np.testing.assert_allclose(grad_x, want_x, rtol=0, atol=1e-10)
        np.testing.assert_allclose(grad_w, want_w, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("groups", [1, 4])
    def test_finite_differences(self, groups):
        rng = np.random.default_rng(42 + groups)
        c = 4
        x = Value(rng.standard_normal((2, c, 5, 5)))
        w = Value(rng.standard_normal((4, c // groups, 3, 3)))
        weights = rng.standard_normal((2, 4, 5, 5))

        def run(analytic=True):
            tape = Tape()
            out = conv2d(x, ConvKernel(w, groups=groups), padding=1, tape=tape)
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
        x = Value(np.random.default_rng(2).standard_normal((2, f, 5, 5)))
        out = grouped_conv(x, kernel(dw, groups=f), kernel(pw))
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_weight_count_formula(self):
        f = 8
        dw = kernel(np.zeros((f, 1, 3, 3)), groups=f)
        pw = kernel(np.zeros((f, f, 1, 1)))
        assert dw.weight_count + pw.weight_count == f * 9 + f * f == 136

    def test_equals_two_separate_convs(self):
        rng = np.random.default_rng(3)
        f = 6
        x = Value(rng.standard_normal((2, f, 7, 7)))
        dw = kernel(rng.standard_normal((f, 1, 3, 3)), groups=f)
        pw = kernel(rng.standard_normal((f, f, 1, 1)))
        combined = grouped_conv(x, dw, pw)
        staged = conv2d(conv2d(x, dw), pw)
        np.testing.assert_array_equal(combined.data, staged.data)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(4)
        # tolerance 1e-5 assumes unit-or-larger variance: output var is
        # exactly var/(var + eps), i.e. 1 - eps/var
        x = Value(1.5 * rng.standard_normal((4, 3, 6, 6)))
        state = BatchNormState.create(3, dtype=np.float64)
        out = batchnorm(x, state, "train")
        means = out.data.mean(axis=(0, 2, 3))
        variances = out.data.var(axis=(0, 2, 3))
        np.testing.assert_allclose(means, 0.0, atol=1e-6)
        np.testing.assert_allclose(variances, 1.0, atol=1e-5)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 4, 5, 5))
        state = BatchNormState.create(4, dtype=np.float64)
        state.gamma.data = rng.standard_normal(4)
        state.beta.data = rng.standard_normal(4)
        out = batchnorm(Value(x), state, "train")
        ref = naive_batchnorm_train(x, state.gamma.data, state.beta.data,
                                    state.epsilon)
        assert max_rel_error(out.data, ref) < 1e-12

    def test_eval_mode_is_affine(self):
        state = BatchNormState.create(2, dtype=np.float64)
        state.gamma.data = np.full(2, 2.0)
        state.beta.data = np.full(2, 3.0)
        x = Value(np.full((2, 2, 3, 3), 5.0))
        out = batchnorm(x, state, "eval")
        expected = 2.0 * 5.0 / np.sqrt(1.0 + state.epsilon) + 3.0
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_eval_mode_batch_independent(self):
        rng = np.random.default_rng(9)
        state = BatchNormState.create(3, dtype=np.float64)
        state.running_mean = rng.standard_normal(3)
        state.running_var = rng.uniform(0.5, 2.0, 3)
        batch = rng.standard_normal((6, 3, 4, 4))
        joint = batchnorm(Value(batch), state, "eval").data
        for i in range(6):
            alone = batchnorm(Value(batch[i : i + 1]), state, "eval").data
            np.testing.assert_array_equal(alone[0], joint[i])

    def test_running_stats_update(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 2, 3, 3))
        state = BatchNormState.create(2, dtype=np.float64)
        batchnorm(Value(x), state, "train")
        m = 4 * 3 * 3
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=(0, 2, 3)))
        np.testing.assert_allclose(
            state.running_var,
            0.9 * 1.0 + 0.1 * x.var(axis=(0, 2, 3)) * m / (m - 1),
        )

    def test_degenerate_batch_rejected(self):
        state = BatchNormState.create(2, dtype=np.float64)
        with pytest.raises(DegenerateBatchError):
            batchnorm(Value(np.zeros((1, 2, 1, 1))), state, "train")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_finite_differences(self, mode):
        rng = np.random.default_rng(11)
        x = Value(rng.standard_normal((3, 2, 4, 4)))
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
                                state, mode, tape=tape)
                state.running_mean[...], state.running_var[...] = snapshot
                value = (out.data**2 * weights).sum()
                if not analytic:
                    return value
                target.grad = None
                tape.backward(out, 2.0 * out.data * weights)
                return target.grad

            err = max_rel_error(run(), finite_difference(build_loss_scalar(run), target))
            assert err < 1e-6, f"{mode} gradient w.r.t. {target} off by {err}"


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
        out = maxpool2x2(Value(np.full((2, 3, 4, 6), 2.5)))
        assert out.data.shape == (2, 3, 2, 3)
        np.testing.assert_array_equal(out.data, np.full((2, 3, 2, 3), 2.5))

    def test_single_window(self):
        out = maxpool2x2(Value(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])))
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 4.0

    def test_matches_naive_reference(self):
        x = np.random.default_rng(13).standard_normal((2, 3, 6, 8))
        out = maxpool2x2(Value(x))
        np.testing.assert_array_equal(out.data, naive_maxpool2x2(x))

    def test_odd_sizes_replicate_pad(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        out = maxpool2x2(Value(x))
        # windows: [[0,1],[3,4]] -> 4, [[2,2],[5,5]] -> 5, rows/cols replicated
        np.testing.assert_array_equal(out.data[0, 0], [[4.0, 5.0], [7.0, 8.0]])

    def test_tie_break_routes_to_first_index(self):
        x = Value(np.full((1, 1, 2, 2), 7.0))
        tape = Tape()
        out = maxpool2x2(x, tape=tape)
        tape.backward(out, np.ones_like(out.data))
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_finite_differences_distinct_entries(self):
        rng = np.random.default_rng(15)
        base = rng.permutation(16).astype(np.float64).reshape(1, 1, 4, 4)
        x = Value(base + rng.uniform(0, 0.2, base.shape))

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
        out = global_max_pool(Value(x))
        np.testing.assert_array_equal(out.data.reshape(2), [5.0, -1.0])

    def test_constant(self):
        out = global_max_pool(Value(np.full((2, 3, 4, 4), 1.25)))
        np.testing.assert_array_equal(out.data, np.full((2, 3, 1, 1), 1.25))

    def test_spatial_permutation_invariance(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 3, 4, 4))
        perm = rng.permutation(16)
        shuffled = x.reshape(2, 3, 16)[:, :, perm].reshape(2, 3, 4, 4)
        np.testing.assert_array_equal(
            global_max_pool(Value(x)).data, global_max_pool(Value(shuffled)).data
        )

    def test_backward_routes_to_argmax(self):
        x = Value(np.array([[[[1.0, 3.0], [2.0, 0.0]]]]))
        tape = Tape()
        out = global_max_pool(x, tape=tape)
        tape.backward(out, np.full((1, 1, 1, 1), 2.0))
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 2.0], [0.0, 0.0]])


class TestChannelPad:
    def test_identity_when_target_equals_channels(self):
        x = Value(np.ones((1, 3, 2, 2)))
        assert channel_pad(x, 3) is x

    def test_pads_with_zeros(self):
        x = Value(np.random.default_rng(17).standard_normal((2, 3, 4, 4)))
        out = channel_pad(x, 64)
        np.testing.assert_array_equal(out.data[:, :3], x.data)
        assert not out.data[:, 3:].any()

    def test_backward_is_projection(self):
        x = Value(np.ones((1, 3, 2, 2)))
        tape = Tape()
        out = channel_pad(x, 5, tape=tape)
        seed = np.random.default_rng(18).standard_normal(out.data.shape)
        tape.backward(out, seed)
        np.testing.assert_array_equal(x.grad, seed[:, :3])

    def test_shrinking_rejected(self):
        with pytest.raises(ConfigurationError):
            channel_pad(Value(np.ones((1, 3, 2, 2))), 2)

    def test_constant_input_records_nothing(self):
        x = Value(np.ones((1, 3, 2, 2)), needs_grad=False)
        tape = Tape()
        out = channel_pad(x, 5, tape=tape)
        assert len(tape) == 0 and not out.needs_grad
        pooled = maxpool2x2(out, tape=tape)
        assert len(tape) == 0 and not pooled.needs_grad


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
        fixed = np.full((1, 1), 3.0)
        tape = Tape()
        out = add_scaled(base, [lag], fixed, 0, tape=tape)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 7.0))
        tape.backward(out, np.ones_like(out.data))
        np.testing.assert_array_equal(lag.grad, np.full((1, 1, 2, 2), 3.0))
        np.testing.assert_array_equal(fixed, np.full((1, 1), 3.0))

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


class TestTape:
    def test_single_backward_per_tape(self):
        x = Value(np.ones((1, 1, 2, 2)))
        tape = Tape()
        out = relu(x, tape=tape)
        tape.backward(out, np.ones_like(out.data))
        with pytest.raises(ConfigurationError):
            tape.backward(out, np.ones_like(out.data))

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

    def test_unused_branches_contribute_nothing(self):
        x = Value(np.ones((1, 2, 4, 4)))
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
    x = Value(rng.standard_normal((2, 4, 6, 6)))
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
        flat = reshape(h7, (2, 4), tape=tape)
        logits = linear(flat, fc_w, fc_b, tape=tape)
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
