"""Optimizer semantics, schedules, the shortcut regularizer, resume."""

import os
import stat

import numpy as np
import pytest

from thriftynet.errors import CheckpointError, ConfigurationError, NumericalError
from thriftynet.gradcheck import finite_difference, max_rel_error
from thriftynet.model import ThriftyConfig, ThriftyNet
from thriftynet.planner import make_schedule
from thriftynet.tensor import Value
from thriftynet.training import (
    SGD,
    AlphaRegConfig,
    TrainConfig,
    ablation_alpha,
    alpha_reg_loss,
    alpha_well_distance,
    binarize_alpha,
    evaluate,
    load_train_checkpoint,
    lr_at,
    train,
    _atomic_write,
)


def tiny_model_config(history=2, filters=6, iterations=3):
    return ThriftyConfig(filters=filters, iterations=iterations,
                         schedule=make_schedule(iterations, 1), history=history,
                         num_classes=10, input_channels=3)


def tiny_train_config(**overrides):
    base = dict(epochs=2, lr0=0.05, lr_drops=(), momentum=0.9, batch_size=32,
                seed=3, augment=False)
    base.update(overrides)
    return TrainConfig(**base)


class TestSGD:
    def test_vanilla_step(self):
        p = Value(np.array([1.0, 2.0]))
        p.grad = np.array([0.5, -1.0])
        opt = SGD([("p", p)], momentum=0.0, weight_decay=0.0)
        opt.step(lr=0.1)
        np.testing.assert_allclose(p.data, [0.95, 2.1])

    def test_zero_gradients_leave_params(self):
        p = Value(np.array([1.0, 2.0]))
        p.grad = np.zeros(2)
        opt = SGD([("p", p)], momentum=0.9)
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_momentum_recurrence(self):
        # constant gradient g, lr=1: step1 moves by g, step2 by 1.9 g
        p = Value(np.array([0.0]))
        g = np.array([1.0])
        opt = SGD([("p", p)], momentum=0.9, weight_decay=0.0)
        p.grad = g.copy()
        opt.step(lr=1.0)
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad = g.copy()
        opt.step(lr=1.0)
        np.testing.assert_allclose(p.data, [-1.0 - 1.9])

    def test_weight_decay_enters_velocity(self):
        p = Value(np.array([2.0]))
        p.grad = np.array([0.0])
        opt = SGD([("p", p)], momentum=0.0, weight_decay=0.1)
        opt.step(lr=1.0)
        np.testing.assert_allclose(p.data, [2.0 - 0.2])

    def test_nonfinite_gradient_aborts(self):
        p = Value(np.array([1.0]))
        p.grad = np.array([np.nan])
        opt = SGD([("p", p)])
        with pytest.raises(NumericalError, match="p"):
            opt.step(lr=0.1)

    def test_nonzero_grad_changes_some_parameter(self):
        rng = np.random.default_rng(0)
        params = [(f"p{i}", Value(rng.standard_normal(4))) for i in range(3)]
        for _, v in params:
            v.grad = rng.standard_normal(4)
        before = [v.data.copy() for _, v in params]
        SGD(params).step(lr=0.01)
        assert any((v.data != b).any() for (_, v), b in zip(params, before))


class TestLrSchedule:
    def test_published_drop_pattern(self):
        config = TrainConfig(epochs=200, lr0=0.1, lr_drops=(50, 100, 150))
        expected = {49: 0.1, 50: 0.01, 99: 0.01, 100: 0.001, 149: 0.001,
                    150: 0.0001}
        for epoch, lr in expected.items():
            assert lr_at(config, epoch) == pytest.approx(lr, rel=1e-12)

    def test_drops_validated(self):
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=100, lr_drops=(50, 50))
        with pytest.raises(ConfigurationError):
            TrainConfig(epochs=100, lr_drops=(150,))


class TestAlphaReg:
    def test_wells_have_zero_loss_and_gradient(self):
        alpha = np.array([[0.0, 1.0], [1.0, 0.0]])
        loss, grad = alpha_reg_loss(alpha, lam=0.7)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(alpha))

    def test_midpoint_value(self):
        loss, grad = alpha_reg_loss(np.array([[0.5]]), lam=1.0)
        assert loss == pytest.approx(0.0625, abs=1e-15)
        assert grad[0, 0] == 0.0

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(1)
        alpha = Value(rng.uniform(-0.5, 1.5, size=(4, 3)))
        lam = 2.5e-4
        _, analytic = alpha_reg_loss(alpha.data, lam)
        numeric = finite_difference(lambda: alpha_reg_loss(alpha.data, lam)[0],
                                    alpha, step=1e-6)
        assert max_rel_error(analytic, numeric) < 1e-10

    def test_lambda_growth_formula(self):
        lam0, eps, steps = 3e-4, 1.5e-4, 977
        lam = lam0
        for _ in range(steps):
            lam *= 1.0 + eps
        assert lam == pytest.approx(lam0 * (1.0 + eps) ** steps, rel=1e-12)


class TestBinarize:
    def test_threshold_with_ties_up(self):
        np.testing.assert_array_equal(
            binarize_alpha(np.array([0.49, 0.5, 0.51])), [0.0, 1.0, 1.0]
        )

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        alpha = rng.uniform(-1, 2, size=(5, 4))
        once = binarize_alpha(alpha)
        np.testing.assert_array_equal(binarize_alpha(once), once)

    def test_zeros_stay_zero(self):
        np.testing.assert_array_equal(binarize_alpha(np.zeros((3, 2))),
                                      np.zeros((3, 2)))


class TestWellDistance:
    def test_masked_entries_excluded(self):
        alpha = np.array([[0.5, 9.0],   # (0,1) masked: t < i
                          [0.5, 0.5]])
        assert alpha_well_distance(alpha) == pytest.approx(0.5)

    def test_wells_have_distance_zero(self):
        alpha = np.zeros((3, 2))
        alpha[:, 0] = 1.0
        assert alpha_well_distance(alpha) == 0.0


class TestEvaluate:
    def test_eval_leaves_state_bit_identical(self, tiny_pair):
        _, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(), seed=5)
        before = [a.copy() for a in model.state_arrays()]
        evaluate(model, test_ds, batch_size=32)
        for a, b in zip(model.state_arrays(), before):
            np.testing.assert_array_equal(a, b)

    def test_chance_level_for_random_model(self, synth_pair):
        _, test_ds = synth_pair
        model = ThriftyNet(tiny_model_config(), seed=6)
        acc = evaluate(model, test_ds)
        assert 0.0 <= acc <= 35.0  # untrained: near chance on 10 classes


class TestTrainLoop:
    def test_identical_seeds_identical_logs(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        logs = []
        for run in ("a", "b"):
            model = ThriftyNet(tiny_model_config(), seed=7)
            result = train(model, train_ds, test_ds, tiny_train_config(),
                           out_dir=tmp_path / run)
            logs.append(result.log)
        assert [r.values() for r in logs[0].rows] == [r.values() for r in logs[1].rows]
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
            (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_loss_improves_on_tiny_data(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(), seed=8)
        result = train(model, train_ds, test_ds, tiny_train_config(epochs=4))
        assert result.log.rows[-1].train_loss < result.log.rows[0].train_loss

    def test_class_count_mismatch_rejected(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        config = tiny_model_config()
        model = ThriftyNet(ThriftyConfig(
            filters=6, iterations=3, schedule=config.schedule, history=2,
            num_classes=7, input_channels=3), seed=0)
        with pytest.raises(ConfigurationError):
            train(model, train_ds, test_ds, tiny_train_config())

    def test_divergence_aborts_keeping_checkpoint(self, tiny_pair, tmp_path):
        from thriftynet.data import ImageDataset

        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(), seed=9)
        out = tmp_path / "diverge"
        train(model, train_ds, test_ds, tiny_train_config(epochs=1), out_dir=out)
        good_checkpoint = (out / "last.ckpt").read_bytes()

        poisoned_images = train_ds.images.copy()
        poisoned_images[0] = np.inf
        poisoned = ImageDataset(poisoned_images, train_ds.labels, "train",
                                train_ds.class_count)
        with pytest.raises(NumericalError):
            train(model, poisoned, test_ds, tiny_train_config(epochs=2),
                  out_dir=out, resume_from=out / "last.ckpt")
        # the abort happened mid-epoch: the last good checkpoint is untouched
        assert (out / "last.ckpt").read_bytes() == good_checkpoint

    def test_alpha_reg_annealing_recorded(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(), seed=10)
        config = tiny_train_config(epochs=2, alpha_reg=AlphaRegConfig(3e-4, 1.5e-4))
        result = train(model, train_ds, test_ds, config)
        steps_per_epoch = int(np.ceil(len(train_ds) / config.batch_size))
        expected = 3e-4 * (1.0 + 1.5e-4) ** steps_per_epoch
        assert result.log.rows[0].lam == pytest.approx(expected, rel=1e-12)
        assert result.log.rows[1].lam > result.log.rows[0].lam

    def test_frozen_alpha_is_bit_exact(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(history=3), seed=11)
        frozen = binarize_alpha(np.random.default_rng(0).uniform(
            0, 1, model.alpha.data.shape).astype(model.dtype))
        model.alpha.data[...] = frozen
        train(model, train_ds, test_ds, tiny_train_config(epochs=2),
              freeze_alpha=True)
        np.testing.assert_array_equal(model.alpha.data, frozen)

    def test_steps_per_epoch_mode(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(), seed=12)
        config = tiny_train_config(epochs=1, steps_per_epoch=3, batch_size=16)
        result = train(model, train_ds, test_ds, config)
        assert len(result.log) == 1


class TestResume:
    def test_resumed_rows_match_uninterrupted(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        full_cfg = tiny_train_config(epochs=4, lr_drops=(2,),
                                     alpha_reg=AlphaRegConfig(3e-4, 1.5e-4))

        model_a = ThriftyNet(tiny_model_config(), seed=13)
        full = train(model_a, train_ds, test_ds, full_cfg, out_dir=tmp_path / "full")

        half_cfg = tiny_train_config(epochs=2, lr_drops=(),
                                     alpha_reg=AlphaRegConfig(3e-4, 1.5e-4))
        model_b = ThriftyNet(tiny_model_config(), seed=13)
        train(model_b, train_ds, test_ds, half_cfg, out_dir=tmp_path / "half")

        model_c = ThriftyNet(tiny_model_config(), seed=13)
        resumed = train(model_c, train_ds, test_ds, full_cfg,
                        out_dir=tmp_path / "resumed",
                        resume_from=tmp_path / "half" / "last.ckpt")
        assert [r.values() for r in resumed.log.rows[-2:]] == \
            [r.values() for r in full.log.rows[-2:]]
        for a, b in zip(model_a.state_arrays(), model_c.state_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_first_two_epochs_agree_across_horizons(self, tiny_pair, tmp_path):
        # per-epoch rng depends on (seed, epoch) only, not the total horizon
        train_ds, test_ds = tiny_pair
        model_a = ThriftyNet(tiny_model_config(), seed=14)
        four = train(model_a, train_ds, test_ds, tiny_train_config(epochs=3))
        model_b = ThriftyNet(tiny_model_config(), seed=14)
        two = train(model_b, train_ds, test_ds, tiny_train_config(epochs=2))
        assert [r.values() for r in four.log.rows[:2]] == \
            [r.values() for r in two.log.rows]

    def test_resume_checkpoint_config_must_match(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(), seed=15)
        train(model, train_ds, test_ds, tiny_train_config(epochs=1),
              out_dir=tmp_path)
        other = ThriftyNet(tiny_model_config(history=1), seed=15)
        opt = SGD(other.trainables())
        with pytest.raises(CheckpointError):
            load_train_checkpoint(tmp_path / "last.ckpt", other, opt)

    def test_rejected_checkpoint_changes_nothing(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        train(ThriftyNet(tiny_model_config(), seed=16), train_ds, test_ds,
              tiny_train_config(epochs=1), out_dir=tmp_path)
        blob = (tmp_path / "last.ckpt").read_bytes()
        model = ThriftyNet(tiny_model_config(), seed=17)
        opt = SGD(model.trainables())
        opt.velocities[0][...] = 0.5

        def state():
            return [a.tobytes() for a in model.state_arrays() + opt.velocities]

        before = state()
        for name, bad in (("short", blob[:-3]), ("long", blob + b"\0")):
            (tmp_path / name).write_bytes(bad)
            with pytest.raises(CheckpointError):
                load_train_checkpoint(tmp_path / name, model, opt)
            assert state() == before
        load_train_checkpoint(tmp_path / "last.ckpt", model, opt)
        assert state() != before

    def test_atomic_write_syncs_file_before_rename_then_directory(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "last.ckpt"
        synced = []  # (inode, is a directory, target present yet)
        real_fsync = os.fsync

        def spy(fd):
            st = os.fstat(fd)
            synced.append((st.st_ino, stat.S_ISDIR(st.st_mode), path.exists()))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        _atomic_write(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert not (tmp_path / "last.ckpt.tmp").exists()
        assert synced == [(path.stat().st_ino, False, False),
                          (tmp_path.stat().st_ino, True, True)]


class TestAblation:
    def test_desk_scale_protocol(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        config = tiny_model_config(history=2)
        report = ablation_alpha(
            config, train_ds, test_ds,
            tiny_train_config(epochs=2, alpha_reg=AlphaRegConfig(3e-3, 1.5e-3)),
            phase1_epochs=3, phase2_epochs=3, out_dir=tmp_path,
        )
        assert set(np.unique(report.binarized_alpha)).issubset({0.0, 1.0})
        for acc in (report.baseline_acc, report.finetune_acc,
                    report.same_init_acc, report.fresh_init_acc):
            assert 0.0 <= acc <= 100.0
        assert sorted(report.final_accs) == ["a", "b", "c"]
        # the frozen matrix survives every phase-2 variant bit for bit
        assert (tmp_path / "phase2_b" / "last.ckpt").is_file()

    def test_requires_residual_model(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        with pytest.raises(ConfigurationError):
            ablation_alpha(tiny_model_config(history=0), train_ds, test_ds,
                           tiny_train_config())
