"""Optimizer semantics, schedules, the shortcut regularizer, resume."""

import os
import stat
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from thriftynet.data import class_balanced_subset
from thriftynet.errors import CheckpointError, ConfigurationError, DataError, NumericalError
from thriftynet.gradcheck import finite_difference, max_rel_error
from thriftynet.model import ThriftyConfig, ThriftyNet, load_model, serialize_model
from thriftynet.planner import mac_count, make_schedule
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
    save_train_checkpoint,
    sweep,
    train,
)
from thriftynet.metrics import atomic_write, read_csv


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

    @pytest.mark.parametrize("steps", [0, -2])
    def test_steps_per_epoch_is_positive_or_none(self, steps):
        assert TrainConfig(steps_per_epoch=None).steps_per_epoch is None
        with pytest.raises(ConfigurationError, match="steps_per_epoch"):
            TrainConfig(steps_per_epoch=steps)


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

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_is_positive_or_none(self, epochs):
        assert AlphaRegConfig(epochs=None).epochs is None
        with pytest.raises(ConfigurationError, match="epochs"):
            AlphaRegConfig(epochs=epochs)

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

    def test_empty_split_rejected(self, tiny_pair):
        _, test_ds = tiny_pair
        empty = replace(test_ds, images=test_ds.images[:0], labels=test_ds.labels[:0])
        with pytest.raises(DataError):
            evaluate(ThriftyNet(tiny_model_config(), seed=6), empty)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_must_be_positive(self, tiny_pair, batch_size):
        _, test_ds = tiny_pair
        with pytest.raises(ConfigurationError, match="batch_size"):
            evaluate(ThriftyNet(tiny_model_config(), seed=6), test_ds, batch_size)


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

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_rejected_before_the_first_epoch(self, tiny_pair, tmp_path, split):
        pair = dict(zip(("train", "test"), tiny_pair))
        ds = pair[split]
        pair[split] = replace(ds, images=ds.images[:0], labels=ds.labels[:0])
        model = ThriftyNet(tiny_model_config(), seed=0)
        before = [a.copy() for a in model.state_arrays()]
        with pytest.raises(DataError):
            train(model, pair["train"], pair["test"], tiny_train_config(), out_dir=tmp_path)
        assert not (tmp_path / "last.ckpt").exists()
        for a, b in zip(model.state_arrays(), before):
            np.testing.assert_array_equal(a, b)

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

    def test_frozen_alpha_keeps_lambda0(self, tiny_pair, tmp_path):
        # the penalty never acts on a frozen alpha, so lambda does not anneal:
        # neither the log nor the checkpoint a resumed run reads it from grows it
        train_ds, test_ds = tiny_pair
        config = tiny_train_config(epochs=2, alpha_reg=AlphaRegConfig(3e-4, 1.5e-4))
        train(ThriftyNet(tiny_model_config(), seed=10), train_ds, test_ds, config,
              out_dir=tmp_path, freeze_alpha=True)
        resumed = train(ThriftyNet(tiny_model_config(), seed=10), train_ds, test_ds,
                        replace(config, epochs=3), out_dir=tmp_path, freeze_alpha=True,
                        resume_from=tmp_path / "last.ckpt")
        assert [row.lam for row in resumed.log.rows] == [3e-4] * 3

    def test_frozen_alpha_is_bit_exact(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        model = ThriftyNet(tiny_model_config(history=3), seed=11)
        frozen = binarize_alpha(np.random.default_rng(0).uniform(
            0, 1, model.alpha.data.shape).astype(model.dtype))
        model.alpha.data[...] = frozen
        train(model, train_ds, test_ds, tiny_train_config(epochs=2),
              freeze_alpha=True)
        np.testing.assert_array_equal(model.alpha.data, frozen)

    def test_frozen_alpha_gets_no_gradient(self, tiny_pair, tmp_path, monkeypatch):
        # A frozen alpha is read as fixed coefficients, so no step computes
        # its gradient; a run that computes it and throws it away, as the
        # shortcut sum of a trained alpha does, writes the same metrics.csv.
        # A later unfrozen run trains alpha again.
        import thriftynet.model as model_module

        train_ds, test_ds = tiny_pair
        config = tiny_train_config(epochs=2)
        frozen = binarize_alpha(np.random.default_rng(1).uniform(
            0, 1, (3, 4)).astype(np.float32))

        def run(out: str) -> ThriftyNet:
            model = ThriftyNet(tiny_model_config(history=3), seed=11)
            model.alpha.data[...] = frozen
            train(model, train_ds, test_ds, config, out_dir=tmp_path / out,
                  freeze_alpha=True)
            return model

        model = run("frozen")
        assert model.alpha.grad is None
        real = model_module.add_scaled

        def graded(base, lags, coeffs, t, *, tape=None):
            if isinstance(coeffs, Value) and not coeffs.needs_grad:
                coeffs = Value(coeffs.data)  # graded, its gradient dropped
            return real(base, lags, coeffs, t, tape=tape)

        with monkeypatch.context() as patch:
            patch.setattr(model_module, "add_scaled", graded)
            reference = run("graded")
        assert (tmp_path / "frozen" / "metrics.csv").read_bytes() == \
            (tmp_path / "graded" / "metrics.csv").read_bytes()
        for a, b in zip(model.state_arrays(), reference.state_arrays()):
            np.testing.assert_array_equal(a, b)

        train(model, train_ds, test_ds, tiny_train_config(epochs=1))
        assert model.alpha.grad is not None
        assert not np.array_equal(model.alpha.data, frozen)

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

    @pytest.mark.parametrize("saved, target", [(np.float64, np.float32),
                                               (np.float32, np.float64)])
    def test_resume_checkpoint_dtype_must_match(self, tmp_path, saved, target):
        # loading float64 arrays into float32 would round them (1/3 becomes
        # 0.33333334), so the resumed run would not be the uninterrupted one
        source = ThriftyNet(tiny_model_config(), seed=15, dtype=saved)
        source_opt = SGD(source.trainables())
        for a in source.state_arrays() + source_opt.velocities:
            a[...] = 1.0 / 3.0
        save_train_checkpoint(source, source_opt, 1, 0.0, 10.0, tmp_path / "last.ckpt")
        model = ThriftyNet(tiny_model_config(), seed=15, dtype=target)
        opt = SGD(model.trainables())
        before = [a.tobytes() for a in model.state_arrays() + opt.velocities]
        with pytest.raises(CheckpointError, match="float"):
            load_train_checkpoint(tmp_path / "last.ckpt", model, opt)
        assert [a.tobytes() for a in model.state_arrays() + opt.velocities] == before

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

    def test_non_finite_velocity_changes_nothing(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        train(ThriftyNet(tiny_model_config(), seed=16), train_ds, test_ds,
              tiny_train_config(epochs=1), out_dir=tmp_path)
        blob = bytearray((tmp_path / "last.ckpt").read_bytes())
        blob[-4:] = np.array([np.nan], dtype=np.float32).tobytes()  # fc_b's velocity
        (tmp_path / "nan.ckpt").write_bytes(blob)
        model = ThriftyNet(tiny_model_config(), seed=17)
        opt = SGD(model.trainables())
        opt.velocities[0][...] = 0.5
        before = [a.tobytes() for a in model.state_arrays() + opt.velocities]
        with pytest.raises(CheckpointError, match="fc_b"):
            load_train_checkpoint(tmp_path / "nan.ckpt", model, opt)
        assert [a.tobytes() for a in model.state_arrays() + opt.velocities] == before

    def test_load_model_reads_the_model_of_a_training_checkpoint(self, tiny_pair,
                                                                 tmp_path):
        train_ds, test_ds = tiny_pair
        result = train(ThriftyNet(tiny_model_config(), seed=18), train_ds, test_ds,
                       tiny_train_config(epochs=1), out_dir=tmp_path)
        loaded = load_model(tmp_path / "last.ckpt")
        assert loaded.config == result.model.config
        for a, b in zip(loaded.state_arrays(), result.model.state_arrays()):
            np.testing.assert_array_equal(a, b)
        # what follows the model must be an optimizer section
        blob = serialize_model(result.model)
        (tmp_path / "junk.ckpt").write_bytes(blob + b"OPTSTATE" + bytes(40))
        with pytest.raises(CheckpointError):
            load_model(tmp_path / "junk.ckpt")

    def test_resume_keeps_earlier_wall_times(self, tiny_pair, tmp_path):
        # metrics.csv holds no wall time; timing.csv keeps the earlier epochs'
        train_ds, test_ds = tiny_pair
        train(ThriftyNet(tiny_model_config(), seed=20), train_ds, test_ds,
              tiny_train_config(epochs=2), out_dir=tmp_path)
        before = (tmp_path / "timing.csv").read_text().splitlines()
        train(ThriftyNet(tiny_model_config(), seed=20), train_ds, test_ds,
              tiny_train_config(epochs=3), out_dir=tmp_path,
              resume_from=tmp_path / "last.ckpt")
        after = (tmp_path / "timing.csv").read_text().splitlines()
        assert len(after) == 4 and after[:3] == before

    def test_malformed_timing_is_a_data_error(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        train(ThriftyNet(tiny_model_config(), seed=20), train_ds, test_ds,
              tiny_train_config(epochs=1), out_dir=tmp_path)
        timing = tmp_path / "timing.csv"
        timing.write_text("epoch,wall_time_s\n0,fast\n")
        with pytest.raises(DataError) as excinfo:
            train(ThriftyNet(tiny_model_config(), seed=20), train_ds, test_ds,
                  tiny_train_config(epochs=2), out_dir=tmp_path,
                  resume_from=tmp_path / "last.ckpt")
        assert f"{timing}:2:" in str(excinfo.value)

    def test_run_leaves_no_temp_files(self, tiny_pair, tmp_path):
        train_ds, test_ds = tiny_pair
        train(ThriftyNet(tiny_model_config(), seed=19), train_ds, test_ds,
              tiny_train_config(epochs=2), out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["best.ckpt", "last.ckpt", "metrics.csv", "timing.csv"]

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
        atomic_write(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert not (tmp_path / "last.ckpt.tmp").exists()
        assert synced == [(path.stat().st_ino, False, False),
                          (tmp_path.stat().st_ino, True, True)]

    def test_atomic_write_writes_its_parts_in_order(self, tmp_path):
        path = tmp_path / "blob"
        atomic_write(path, b"RAW", np.arange(3, dtype="<f4"), bytearray(b"!"))
        assert path.read_bytes() == b"RAW" + np.arange(3, dtype="<f4").tobytes() + b"!"

    def test_failed_cleanup_keeps_the_error_that_stopped_the_write(self, tmp_path,
                                                                  monkeypatch):
        path = tmp_path / "last.ckpt"
        path.write_bytes(b"old")

        def refuse(*_args, **_kwargs):
            raise OSError("replace refused")

        def stuck(*_args, **_kwargs):
            raise OSError("unlink refused")

        monkeypatch.setattr(os, "replace", refuse)
        monkeypatch.setattr(Path, "unlink", stuck)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write(path, b"new")
        assert path.read_bytes() == b"old"


class TestSweep:
    def test_makes_its_output_directory_before_the_first_point(self, tiny_pair,
                                                               tmp_path):
        train_ds, test_ds = tiny_pair
        out = tmp_path / "new" / "sweep"
        rows = sweep([tiny_model_config()], train_ds, test_ds,
                     tiny_train_config(epochs=1), out_dir=out)
        assert rows[0][-1] == "ok"
        _, written = read_csv(out / "sweep.csv")
        assert len(written) == 1

    @pytest.mark.parametrize("repeats", [0, -1])
    def test_repeats_below_one_rejected(self, tiny_pair, repeats):
        # repeats=0 once returned a NaN accuracy marked ok
        train_ds, test_ds = tiny_pair
        with pytest.raises(ConfigurationError, match=f"repeats must be >= 1, got {repeats}"):
            sweep([tiny_model_config()], train_ds, test_ds, tiny_train_config(epochs=1),
                  repeats=repeats)

    def test_a_point_whose_pools_do_not_fit_fails_and_the_sweep_goes_on(self, tiny_pair):
        train_ds, test_ds = tiny_pair
        assert train_ds.images.shape[2:] == (32, 32)
        unfit = ThriftyConfig(filters=6, iterations=6, schedule=(2,) * 6, history=0,
                              num_classes=10)  # 64 > 32: the model refuses the images
        rows = sweep([unfit, tiny_model_config()], train_ds, test_ds,
                     tiny_train_config(epochs=1))
        assert rows[0][-1] == "failed: ConfigurationError"
        assert np.isnan(rows[0][5]) and np.isnan(rows[0][6])  # macs_total, accuracy
        assert rows[1][-1] == "ok"
        assert rows[1][5] == mac_count(tiny_model_config(), (32, 32)).total


@pytest.mark.parametrize("call,name", [
    (lambda ds: TrainConfig(seed=-1), "seed"),
    (lambda ds: ThriftyNet(tiny_model_config(), seed=-1), "seed"),
    (lambda ds: class_balanced_subset(ds, 2, seed=-1), "seed"),
    (lambda ds: class_balanced_subset(ds, -1), "per_class"),
], ids=["TrainConfig-seed", "ThriftyNet-seed", "subset-seed", "subset-per_class"])
def test_negative_library_argument_is_a_configuration_error(tiny_pair, call, name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be >= 0, got -1$"):
        call(tiny_pair[0])


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
