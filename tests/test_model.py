"""Forward-pass contracts: shapes, recursion equivalence, init, checkpoints."""

import os
import tracemalloc

import numpy as np
import pytest

from _layout import nhwc
from _synth import uniform_alpha
from thriftynet.errors import CheckpointError, ConfigurationError, DataError
from thriftynet.gradcheck import check_model_gradients, finite_difference, max_rel_error
from thriftynet.model import (
    _HEADER,
    CHECKPOINT_MAGIC,
    MacTally,
    ThriftyConfig,
    ThriftyNet,
    deserialize_model,
    load_model,
    mean_activations,
    save_model,
    serialize_model,
    _tensor_shapes,
)
from thriftynet.planner import mac_count, make_schedule, param_count
from thriftynet.tensor import (
    Tape,
    Value,
    batchnorm,
    global_max_pool,
    linear,
    softmax_cross_entropy,
)
from thriftynet.training import TrainConfig, train


def small_config(**overrides) -> ThriftyConfig:
    base = dict(filters=6, iterations=4, schedule=(1, 2, 1, 1), history=2,
                num_classes=5, input_channels=3)
    base.update(overrides)
    return ThriftyConfig(**base)


def random_input(config, n=2, hw=8, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, config.input_channels, hw, hw)).astype(dtype)


class TestConfigValidation:
    def test_schedule_length_must_match(self):
        with pytest.raises(ConfigurationError):
            small_config(schedule=(1, 1))

    def test_schedule_entries_restricted(self):
        with pytest.raises(ConfigurationError):
            small_config(schedule=(1, 3, 1, 1))

    def test_input_channels_bounded_by_filters(self):
        with pytest.raises(ConfigurationError):
            small_config(filters=2, input_channels=3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigurationError):
            small_config(kernel=(2, 2))


class TestPlainForward:
    def test_zero_weights_reduce_to_batchnorm(self):
        # W = 0 makes act(conv) vanish, so one iteration is just BN of x_0
        config = ThriftyConfig(filters=3, iterations=1, schedule=(1,),
                               num_classes=3, input_channels=3)
        model = ThriftyNet(config, seed=0, dtype=np.float64)
        model.kernels[0].weights.data[...] = 0.0
        model.fc_w.data = np.eye(3)
        model.fc_b.data = np.zeros(3)
        x = random_input(config, n=2, hw=6, dtype=np.float64)
        (x_1,) = model.iterate(x, mode="eval")
        expected = batchnorm(Value(nhwc(x)), model.bn[0], "eval").data
        np.testing.assert_array_equal(x_1.data, expected)
        np.testing.assert_array_equal(
            model.forward(x, mode="eval").data, expected.max(axis=(1, 2))
        )

    def test_narrow_first_conv_tallies_nominal_macs(self):
        # the t=0 conv reads the image's 2 channels but counts all f_in=5
        config = ThriftyConfig(filters=5, iterations=1, schedule=(1,), input_channels=2)
        model = ThriftyNet(config, seed=0, dtype=np.float64)
        x = random_input(config, n=2, hw=6, dtype=np.float64)
        for tape in (None, Tape()):
            tally = MacTally()
            model.forward(x, mode="train", tape=tape, tally=tally)
            assert tally.per_iteration == [2 * 6 * 6 * 5 * 5 * 3 * 3]

    def test_cifar_shape_trace(self):
        config = ThriftyConfig(filters=64, iterations=15,
                               schedule=make_schedule(15, 4), history=0)
        model = ThriftyNet(config, seed=1)
        x = np.zeros((1, 3, 32, 32), dtype=np.float32)
        *_, last = model.iterate(x, mode="eval")
        assert last.data.shape == (1, 2, 2, 64)
        assert model.forward(x, mode="eval").data.shape == (1, 10)

    def test_spatial_trace_ceil_halving(self):
        config = ThriftyConfig(filters=4, iterations=3, schedule=(2, 2, 2),
                               input_channels=3)
        model = ThriftyNet(config, seed=2)
        outputs = model.iterate(np.zeros((1, 3, 11, 9), dtype=np.float32), mode="eval")
        assert [x.data.shape[1:3] for x in outputs] == [(6, 5), (3, 3), (2, 2)]

    def test_logits_permutation_covariant(self):
        config = small_config(history=0)
        model = ThriftyNet(config, seed=3)
        x = random_input(config, seed=4)
        base = model.forward(x, mode="eval").data
        perm = np.random.default_rng(5).permutation(config.num_classes)
        model.fc_w.data = model.fc_w.data[:, perm]
        model.fc_b.data = model.fc_b.data[perm]
        permuted = model.forward(x, mode="eval").data
        np.testing.assert_array_equal(permuted, base[:, perm])

    def test_too_many_pools_rejected(self):
        config = ThriftyConfig(filters=4, iterations=3, schedule=(2, 2, 2),
                               input_channels=3)
        model = ThriftyNet(config, seed=0)
        with pytest.raises(ConfigurationError):
            model.forward(np.zeros((1, 3, 4, 4), dtype=np.float32), mode="eval")

    def test_wrong_channel_count_rejected(self):
        model = ThriftyNet(small_config(), seed=0)
        with pytest.raises(ConfigurationError):
            model.forward(np.zeros((1, 4, 8, 8), dtype=np.float32), mode="eval")

    def test_forward_deterministic(self):
        config = small_config()
        model = ThriftyNet(config, seed=6)
        x = random_input(config, seed=7)
        a = model.forward(x, mode="eval").data
        b = model.forward(x, mode="eval").data
        np.testing.assert_array_equal(a, b)


def masked_identity_alpha(model: ThriftyNet) -> None:
    model.alpha.data[...] = 0.0
    model.alpha.data[:, 0] = 1.0


class TestResidualForward:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_masked_alpha_reproduces_plain(self, mode):
        config = small_config(history=1)
        plain = ThriftyNet(small_config(history=0), seed=8)
        residual = ThriftyNet(config, seed=8)
        masked_identity_alpha(residual)
        x = random_input(config, seed=9)
        np.testing.assert_array_equal(
            residual.forward(x, mode=mode).data,
            plain.forward(x, mode=mode).data,
        )

    def test_zero_alpha_zero_weights_leave_only_bias(self):
        config = small_config(history=2, activation="relu")
        model = ThriftyNet(config, seed=10)
        model.kernels[0].weights.data[...] = 0.0
        model.alpha.data[...] = 0.0
        model.fc_b.data = np.arange(config.num_classes, dtype=np.float32)
        for seed in (11, 12):
            logits = model.forward(random_input(config, seed=seed), mode="eval").data
            np.testing.assert_allclose(logits, np.tile(model.fc_b.data, (2, 1)),
                                       atol=1e-6)

    def test_history_stays_synchronized_through_pools(self):
        config = ThriftyConfig(filters=4, iterations=5, schedule=(1, 2, 1, 2, 1),
                               history=3, input_channels=3)
        model = ThriftyNet(config, seed=13)
        outputs = model.iterate(np.zeros((1, 3, 8, 8), dtype=np.float32), mode="eval")
        assert ([x.data.shape[1:3] for x in outputs]
                == [(8, 8), (4, 4), (4, 4), (2, 2), (2, 2)])

    def test_alpha_gradient_finite_differences(self):
        config = ThriftyConfig(filters=4, iterations=4, schedule=(1, 2, 1, 1),
                               history=2, num_classes=3, input_channels=3)
        model = ThriftyNet(config, seed=14, dtype=np.float64)
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 8, 8))
        labels = rng.integers(0, 3, size=2)
        model.alpha.data = rng.uniform(-0.5, 1.0, model.alpha.data.shape)
        snapshot = [(s.running_mean.copy(), s.running_var.copy()) for s in model.bn]

        def restore():
            for state, (m, v) in zip(model.bn, snapshot):
                state.running_mean[...] = m
                state.running_var[...] = v

        def loss_fn():
            logits = model.forward(x, mode="train")
            loss, _ = softmax_cross_entropy(logits.data, labels)
            restore()
            return loss

        tape = Tape()
        logits = model.forward(x, mode="train", tape=tape)
        _, grad = softmax_cross_entropy(logits.data, labels)
        model.alpha.grad = None
        tape.backward(logits, grad)
        restore()
        numeric = finite_difference(loss_fn, model.alpha)
        assert max_rel_error(model.alpha.grad, numeric) < 1e-5


def model_values(model):
    """Every Value reachable from the model's attributes."""
    found = []

    def visit(obj):
        if isinstance(obj, Value):
            found.append(obj)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)
        elif hasattr(obj, "__dict__"):
            for item in vars(obj).values():
                visit(item)

    visit(model)
    return found


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0, -1e-12])
def test_gradcheck_rejects_a_tolerance_that_cannot_judge(tol):
    with pytest.raises(ConfigurationError, match="tolerance must be finite and >= 0"):
        check_model_gradients(tol=tol)


class TestNonSquareKernels:
    """An a x b kernel with a != b is same-padded per axis, so it keeps every
    activation's height and width."""

    @pytest.mark.parametrize("kernel", [(3, 5), (5, 1)], ids=["3x5", "5x1"])
    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_gradients_match_finite_differences(self, conv_mode, kernel):
        config = ThriftyConfig(filters=4, iterations=3, schedule=(1, 2, 1), history=2,
                               num_classes=3, kernel=kernel, conv_mode=conv_mode)
        for check in check_model_gradients(config, seed=5):
            assert check.passed, (check.name, check.max_rel_err)

    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_tally_matches_mac_count(self, conv_mode):
        config = small_config(kernel=(3, 5), conv_mode=conv_mode)
        model = ThriftyNet(config, seed=6)
        x = np.random.default_rng(7).standard_normal((3, 3, 8, 6)).astype(np.float32)
        tally = MacTally()
        model.forward(x, tally=tally)
        counts = mac_count(config, (8, 6))
        assert tally.per_iteration == [3 * m for m in counts.per_iteration]
        assert tally.head == 3 * counts.head

    def test_checkpoint_round_trip(self, tmp_path):
        config = small_config(kernel=(5, 3))
        model = ThriftyNet(config, seed=8)
        x = random_input(config, seed=9)
        model.forward(x, mode="train")  # non-trivial running stats
        save_model(model, tmp_path / "model.ckpt")
        loaded = load_model(tmp_path / "model.ckpt")
        assert loaded.config.kernel == (5, 3)
        assert serialize_model(loaded) == serialize_model(model)
        assert loaded.forward(x, mode="eval").data.tobytes() == \
            model.forward(x, mode="eval").data.tobytes()

    def test_trains(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(small_config(kernel=(3, 5), num_classes=10), seed=10)
        result = train(model, train_ds, test_ds,
                       TrainConfig(epochs=2, lr_drops=(), batch_size=16,
                                   steps_per_epoch=3, augment=False))
        assert len(result.log.rows) == 2
        assert all(np.isfinite(row.train_loss) for row in result.log.rows)


class TestImageInput:
    """The model input is a constant: the classical conv reads its real
    channels at t=0, and nothing differentiates back into it."""

    @staticmethod
    def graded(model, x):
        tape = Tape()
        logits = model.forward(x, mode="train", tape=tape)
        _, grad = softmax_cross_entropy(logits.data, np.arange(len(x)) % 5)
        tape.backward(logits, grad)
        return logits.data, [(name, v.grad) for name, v in model.trainables()]

    @pytest.mark.parametrize("conv_mode,history", [("classical", 0), ("classical", 2),
                                                   ("grouped", 0), ("grouped", 2)])
    def test_equals_the_net_fed_the_padded_image(self, conv_mode, history):
        # weights do not depend on input_channels, so both nets draw the same;
        # the second reads the image already padded to f channels
        config = small_config(conv_mode=conv_mode, history=history)
        padded_config = small_config(conv_mode=conv_mode, history=history,
                                     input_channels=config.filters)
        x = random_input(config, n=4, dtype=np.float64)
        padded = np.concatenate([x, np.zeros((4, config.filters - 3, 8, 8))], axis=1)
        got = self.graded(ThriftyNet(config, seed=40, dtype=np.float64), x)
        want = self.graded(ThriftyNet(padded_config, seed=40, dtype=np.float64), padded)
        assert max_rel_error(got[0], want[0]) < 1e-10
        for (name, g), (_, w) in zip(got[1], want[1]):
            assert max_rel_error(g, w) < 1e-10, name

    def test_input_gets_no_gradient_and_no_tape_record(self, monkeypatch):
        import thriftynet.model as model_module

        seen = []  # the input of every conv; the first is the image x_0
        conv2d = model_module.conv2d

        def spy(x, *args, **kwargs):
            seen.append(x)
            return conv2d(x, *args, **kwargs)

        monkeypatch.setattr(model_module, "conv2d", spy)
        config = small_config()  # T=4, pool at t=1, h=2
        model = ThriftyNet(config, seed=41)
        tape = Tape()
        logits = model.forward(random_input(config, n=4), mode="train", tape=tape)
        # 4 per iteration (conv, relu, add_scaled, bn), the pools of x_2 and
        # x_1 at t=1 but not of the image x_0, and 2 for the head
        assert len(tape) == 4 * 4 + 2 + 2
        tape.backward(logits, np.ones_like(logits.data))
        image = seen[0]
        assert len(seen) == config.iterations and image.shape == (4, 8, 8, 3)
        assert not image.needs_grad and image.grad is None
        assert all(v.grad is not None for _, v in model.trainables())


class TestPlainRecursion:
    def test_train_step_grads_only_trainables(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        config = small_config(history=0, num_classes=10)
        model = ThriftyNet(config, seed=31)
        train(model, train_ds, test_ds,
              TrainConfig(epochs=1, lr_drops=(), batch_size=8, steps_per_epoch=1,
                          augment=False))
        assert model.alpha is None
        trainable = {id(v) for _, v in model.trainables()}
        graded = [v for v in model_values(model) if v.grad is not None]
        assert graded and all(id(v) in trainable for v in graded)
        assert all(v.grad is not None for _, v in model.trainables())


class TestInitialization:
    def test_same_seed_bit_identical(self):
        config = small_config(history=3)
        a = ThriftyNet(config, seed=42)
        b = ThriftyNet(config, seed=42)
        for (name, va), (_, vb) in zip(a.trainables(), b.trainables()):
            np.testing.assert_array_equal(va.data, vb.data, err_msg=name)

    def test_alpha_init_is_masked_identity(self):
        model = ThriftyNet(small_config(history=3), seed=0)
        assert (model.alpha.data[:, 0] == 1.0).all()
        assert not model.alpha.data[:, 1:].any()

    def test_residual_init_equals_plain_init_forward(self):
        config = small_config(history=2)
        residual = ThriftyNet(config, seed=16)
        plain = ThriftyNet(small_config(history=0), seed=16)
        x = random_input(config, seed=17)
        np.testing.assert_array_equal(
            residual.forward(x, mode="eval").data,
            plain.forward(x, mode="eval").data,
        )

    def test_conv_weight_mean_near_zero(self):
        # f=34 gives 34*34*9 > 10^4 draws from the symmetric uniform law
        config = ThriftyConfig(filters=34, iterations=2, schedule=(1, 1))
        model = ThriftyNet(config, seed=18)
        weights = model.kernels[0].weights.data
        assert weights.size >= 10_000
        assert abs(weights.mean()) < 0.01


class TestTrainableEnumeration:
    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    @pytest.mark.parametrize("history", [0, 1, 4])
    def test_matches_param_count(self, conv_mode, history):
        config = ThriftyConfig(filters=8, iterations=5,
                               schedule=make_schedule(5, 2), history=history,
                               conv_mode=conv_mode, num_classes=7)
        model = ThriftyNet(config, seed=0)
        assert model.trainable_count() == param_count(config).total


class TestMeanActivations:
    def test_matrix_shape(self):
        config = small_config(history=2)
        model = ThriftyNet(config, seed=20)
        images = random_input(config, n=9, seed=21)
        matrix = mean_activations(model, images)
        assert matrix.shape == (config.iterations, config.filters)

    def test_no_images_is_a_data_error(self):
        # a mean over no images would be 0/0: NaN rows and a RuntimeWarning
        config = small_config()
        images = random_input(config, n=1)[:0]
        with pytest.raises(DataError, match="at least one image"):
            mean_activations(ThriftyNet(config, seed=20), images)

    def test_zero_weight_network_rows(self):
        # W = 0, identity BN stats: iteration t shrinks x_0 by 1/sqrt(1+eps)
        # once more, so row t holds the padded channel means times scale^(t+1)
        config = ThriftyConfig(filters=5, iterations=3, schedule=(1, 1, 1),
                               num_classes=4, input_channels=3)
        model = ThriftyNet(config, seed=22, dtype=np.float64)
        model.kernels[0].weights.data[...] = 0.0
        images = random_input(config, n=6, hw=5, seed=23, dtype=np.float64)
        matrix = mean_activations(model, images)
        padded_means = np.zeros(5)
        padded_means[:3] = images.mean(axis=(0, 2, 3))
        scale = 1.0 / np.sqrt(1.0 + model.bn[0].epsilon)
        for t, row in enumerate(matrix):
            np.testing.assert_allclose(row, padded_means * scale ** (t + 1),
                                       rtol=1e-10, atol=1e-15)


def paper_shape(conv_mode: str, num_classes: int) -> ThriftyConfig:
    """The paper's 40K-parameter net in either conv mode."""
    return ThriftyConfig(filters={"classical": 64, "grouped": 176}[conv_mode],
                         iterations=15, schedule=make_schedule(15, 4), history=5,
                         conv_mode=conv_mode, num_classes=num_classes)


class TestChunkedEval:
    """An untaped eval forward runs the recursion in chunks of 64-127 images
    and applies the head once; 16x16 inputs keep these tests fast and bring
    the last iterations' conv GEMMs down to one row per image."""

    @pytest.mark.parametrize("num_classes", [10, 100])
    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_chunked_equals_one_pass(self, conv_mode, num_classes):
        # 150 images run as two chunks of 75; the 100-class head GEMM gives
        # other bits on any fewer rows than the whole batch
        model = uniform_alpha(ThriftyNet(paper_shape(conv_mode, num_classes), seed=1),
                              seed=1)
        x = random_input(model.config, n=150, hw=16, seed=2)
        model.forward(x, mode="train")  # running stats that are not the identity
        for cur in model.iterate(x, mode="eval"):
            pass
        whole = linear(global_max_pool(cur), model.fc_w, model.fc_b).data
        np.testing.assert_array_equal(model.forward(x, mode="eval").data, whole)

    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_logits_do_not_depend_on_the_batch(self, conv_mode):
        model = uniform_alpha(ThriftyNet(paper_shape(conv_mode, 10), seed=3), seed=3)
        x = random_input(model.config, n=200, hw=16, seed=4)
        full = model.forward(x, mode="eval").data  # chunks of 66, 67, 67
        for lo, hi in ((0, 64), (30, 130), (70, 200)):
            np.testing.assert_array_equal(model.forward(x[lo:hi], mode="eval").data,
                                          full[lo:hi], err_msg=f"images {lo}:{hi}")

    def test_train_and_taped_forwards_are_one_pass(self):
        # train-mode BN normalizes by the whole batch's statistics, and a
        # taped forward is a train forward
        x = random_input(small_config(), n=130, seed=6)
        model = ThriftyNet(small_config(), seed=5)
        for cur in model.iterate(x, mode="train"):
            pass
        whole = linear(global_max_pool(cur), model.fc_w, model.fc_b).data
        model = ThriftyNet(small_config(), seed=5)  # the running stats afresh
        np.testing.assert_array_equal(model.forward(x, mode="train").data, whole)
        taped = model.forward(x, mode="train", tape=Tape())
        np.testing.assert_array_equal(taped.data, whole)

    def test_taped_eval_forward_is_rejected(self):
        # eval-mode BN is a fixed affine with no backward
        model = ThriftyNet(small_config(), seed=5)
        with pytest.raises(ConfigurationError, match="no tape"):
            model.forward(random_input(small_config(), seed=6), mode="eval", tape=Tape())


class TestCheckpoints:
    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_round_trip_bit_exact(self, tmp_path, conv_mode):
        config = small_config(history=2, conv_mode=conv_mode)
        model = ThriftyNet(config, seed=26)
        # make running stats non-trivial before saving
        model.forward(random_input(config, seed=27), mode="train")
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == config
        for a, b in zip(model.state_arrays(), loaded.state_arrays()):
            np.testing.assert_array_equal(a, b)
        assert serialize_model(loaded) == serialize_model(model)

    @pytest.mark.parametrize("history", [0, 2])
    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_header_predicts_tensor_shapes(self, conv_mode, history):
        config = small_config(history=history, conv_mode=conv_mode)
        model = ThriftyNet(config, seed=26)
        assert _tensor_shapes(config) == [t.shape for t in model.state_arrays()]

    @pytest.mark.parametrize("conv_mode", ["classical", "grouped"])
    def test_one_file_order_behind_trainables_state_and_bytes(self, conv_mode):
        config = small_config(history=2, conv_mode=conv_mode)
        model = ThriftyNet(config, seed=26)
        model.forward(random_input(config, seed=27), mode="train")
        # rebinding, as a model copier does, must show in the next walk
        model.fc_w.data = model.fc_w.data.copy()
        model.bn[1].running_var = model.bn[1].running_var + 1.0
        state = model.state_arrays()
        running = [a for s in model.bn for a in (s.running_mean, s.running_var)]
        assert all(any(a is r for a in state) for r in running)
        # trainables() is state_arrays() without the running stats, as the
        # same array objects in the same order
        assert [id(v.data) for _, v in model.trainables()] == \
            [id(a) for a in state if not any(a is r for r in running)]
        assert len(state) == len(model.trainables()) + 2 * config.iterations
        blob = serialize_model(model)
        assert _HEADER.unpack(blob[:_HEADER.size])[0] == CHECKPOINT_MAGIC
        assert blob[_HEADER.size:] == \
            bytes(config.schedule) + b"".join(a.tobytes() for a in state)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + bytes(64))
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        config = small_config()
        blob = serialize_model(ThriftyNet(config, seed=28))
        path = tmp_path / "short.ckpt"
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        config = small_config()
        blob = serialize_model(ThriftyNet(config, seed=29))
        path = tmp_path / "long.ckpt"
        path.write_bytes(blob + b"extra")
        with pytest.raises(CheckpointError):
            load_model(path)

    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch):
        # a crash mid-write must leave the old model or the new one, whole
        config = small_config()
        path = tmp_path / "best.ckpt"
        save_model(ThriftyNet(config, seed=1), path)
        old = path.read_bytes()

        def crash(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError, match="crashed"):
            save_model(ThriftyNet(config, seed=2), path)
        assert path.read_bytes() == old

    def test_deserialize_reports_consumed_bytes(self):
        config = small_config()
        blob = serialize_model(ThriftyNet(config, seed=30))
        _, consumed = deserialize_model(blob + b"tail")
        assert consumed == len(blob)

    def test_read_allocates_about_one_payload(self):
        # the model is built around the tensors read from the blob, with no
        # random init drawn first only to be overwritten
        config = small_config(filters=256, iterations=15, schedule=(1,) * 15, history=5)
        blob = serialize_model(ThriftyNet(config, seed=31))
        tracemalloc.start()
        try:
            model, _ = deserialize_model(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert serialize_model(model) == blob
        assert peak < 1.5 * len(blob)

    def test_short_blob_with_huge_header_fails_without_allocating(self):
        # a 41-byte file whose header claims f=3000: the weights alone would
        # take hundreds of MB, so the size check must come before the model
        blob = _HEADER.pack(CHECKPOINT_MAGIC, 4, 0, 0, 0, 3000, 3, 3, 1, 0, 10, 3) + bytes([1])
        assert len(blob) == 41
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError):
                deserialize_model(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
