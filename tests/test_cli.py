"""End-to-end CLI behavior: flags, config files, exit codes, determinism."""

import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thriftynet
import thriftynet.tensor
from thriftynet.cli import (ARCH_DEFAULTS, DATA_DEFAULTS, TRAIN_DEFAULTS, main,
                            read_settings)
from thriftynet.data import save_raw
from thriftynet.errors import ConfigurationError
from thriftynet.metrics import read_csv, read_metric_log
from thriftynet.model import ThriftyConfig, ThriftyNet, save_model


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m thriftynet` from this source checkout, so the exit code is
    the process's, not only main()'s return value."""
    src = str(Path(thriftynet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "thriftynet", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def train_args(raw_dataset_files, out, **extra):
    train_path, test_path = raw_dataset_files
    args = [
        "train", "--dataset", "raw",
        "--raw-train", str(train_path), "--raw-test", str(test_path),
        "--filters", "6", "--iterations", "3", "--history", "2",
        "--pools", "1", "--epochs", "2", "--lr-drops", "", "--batch-size", "64",
        "--no-augment", "--out", str(out),
    ]
    for key, value in extra.items():
        args.extend([f"--{key.replace('_', '-')}", str(value)])
    return args


COMMANDS = ["train", "eval", "count", "plan", "gradcheck", "ablate",
            "export-activations", "sweep"]


class TestHelpAndUsage:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_defaults(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "default" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_states_each_default_once(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "(default: None)" not in out
        assert "(default: )" not in out  # an empty default says what it means
        assert ") (default:" not in " ".join(out.split())

    @pytest.mark.parametrize("command,flag,meaning", [
        ("plan", "--iterations-list", "just --iterations"),
        ("plan", "--pools-list", "just --pools"),
        ("train", "--raw-train", "none; --dataset raw needs it"),
        ("eval", "--raw-test", "none; --dataset raw needs it"),
    ], ids=["iterations-list", "pools-list", "raw-train", "raw-test"])
    def test_empty_defaults_state_their_meaning(self, capsys, command, flag, meaning):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        metavar = flag[2:].replace("-", "_").upper()
        assert f"{flag} {metavar} (default: {meaning})" in " ".join(out.split())

    @pytest.mark.parametrize("command,flag,default", [
        ("count", "--input-size", "32"), ("plan", "--classes", "10"),
        ("ablate", "--phase2-epochs", "150"), ("sweep", "--repeats", "1"),
    ])
    def test_command_flags_show_their_defaults(self, capsys, command, flag, default):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert f"(default: {default})" in out.split(flag)[-1].split("--")[0]

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "count", "--no-such-flag")
        assert code == 2

    def test_missing_command_exits_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


class TestCount:
    def test_table1_example(self, capsys):
        code, out, _ = run(capsys, "count", "--filters", "64",
                           "--iterations", "15", "--history", "5")
        assert code == 0
        assert "params_core=38784" in out
        assert "params_table1=38859" in out

    def test_grouped_changes_only_core(self, capsys):
        def fields(mode):
            _, out, _ = run(capsys, "count", "--filters", "8",
                            "--iterations", "5", "--history", "2",
                            "--conv", mode)
            return dict(line.split("=", 1) for line in out.splitlines()
                        if "=" in line and "," not in line)

        classical, grouped = fields("classical"), fields("grouped")
        assert classical["params_core"] != grouped["params_core"]
        for key in ("params_alpha", "params_head"):
            assert classical[key] == grouped[key]

    def test_fewer_filters_than_image_channels(self, capsys):
        code, out, _ = run(capsys, "count", "--filters", "2", "--iterations", "3",
                           "--history", "0", "--pools", "1")
        assert code == 0
        assert "params_core=48" in out  # 2*2*3*3 conv weights + 3*2*2 BN

    def test_pools_that_do_not_fit_the_input_exit_2(self, capsys):
        # the default 4 pools need 16x16; the model refuses an 8x8 input
        code, out, err = run(capsys, "count", "--input-size", "8")
        assert code == 2
        assert out == ""
        assert "schedule performs 4 halvings but input is only 8x8" in err


class TestPlan:
    def test_rows_sorted_by_macs(self, capsys, tmp_path):
        out_csv = tmp_path / "plan.csv"
        code, out, _ = run(capsys, "plan", "--budget", "5000",
                           "--iterations-list", "6,12", "--pools-list", "1,2",
                           "--history", "3", "--out", str(out_csv))
        assert code == 0
        header, rows = read_csv(out_csv)
        assert header[-1] == "macs_total"
        macs = [row[-1] for row in rows]
        assert macs == sorted(macs)
        assert len(rows) == 4

    def test_fewer_filters_than_image_channels(self, capsys):
        code, out, _ = run(capsys, "plan", "--filters", "2", "--iterations", "3",
                           "--history", "0", "--pools", "1")
        assert code == 0
        assert len(out.splitlines()) == 2  # header and one row

    def test_pools_that_do_not_fit_the_input_exit_2(self, capsys, tmp_path):
        out_csv = tmp_path / "plan.csv"
        code, out, err = run(capsys, "plan", "--input-size", "8", "--pools-list", "2,4",
                             "--out", str(out_csv))
        assert code == 2
        assert out == ""
        assert "schedule performs 4 halvings but input is only 8x8" in err
        assert not out_csv.exists()

    def test_schedule_flag_matches_count(self, capsys):
        arch = ("--schedule", "front_loaded", "--iterations", "15", "--pools", "4")
        _, counted, _ = run(capsys, "count", *arch)
        code, planned, _ = run(capsys, "plan", *arch, "--iterations-list", "15",
                               "--pools-list", "4")
        assert code == 0
        macs_total = counted.split("macs_total=")[1].split()[0]
        assert planned.splitlines()[1].split(",")[-1] == macs_total


class TestTrain:
    def test_budget_first_flow(self, capsys, raw_dataset_files, tmp_path):
        out = tmp_path / "run"
        train_path, test_path = raw_dataset_files
        code, stdout, _ = run(
            capsys, "train", "--dataset", "raw",
            "--raw-train", str(train_path), "--raw-test", str(test_path),
            "--budget", "3000", "--iterations", "4", "--history", "2",
            "--pools", "1", "--epochs", "1", "--lr-drops", "",
            "--batch-size", "64", "--no-augment", "--out", str(out),
        )
        assert code == 0
        line = next(l for l in stdout.splitlines() if "params_total" in l)
        params_total = int(line.split("params_total=")[1].split()[0])
        assert params_total <= 3000
        assert (out / "runspec.txt").is_file()
        assert (out / "metrics.csv").is_file()
        assert (out / "last.ckpt").is_file()

    def test_missing_data_dir_exits_2_without_outputs(self, capsys, tmp_path):
        out = tmp_path / "never"
        code, _, err = run(capsys, "train", "--dataset", "cifar10",
                           "--data-dir", str(tmp_path / "absent"),
                           "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "error" in err

    def test_same_seed_identical_outputs(self, capsys, raw_dataset_files, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code, _, _ = run(capsys, *train_args(raw_dataset_files, out,
                                                 seed=7))
            assert code == 0
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_empty_test_split_exits_3_before_training(self, capsys, raw_dataset_files,
                                                      tmp_path):
        from thriftynet.data import save_raw

        train_path, _ = raw_dataset_files
        empty = tmp_path / "empty.rawt"
        save_raw(empty, np.zeros((0, 3, 32, 32), dtype=np.float32), np.zeros(0))
        out = tmp_path / "run"
        code, _, err = run(capsys, *train_args((train_path, empty), out))
        assert code == 3
        assert "no images" in err
        assert not (out / "last.ckpt").exists()

    def test_config_file_with_flag_override(self, capsys, raw_dataset_files,
                                            tmp_path):
        train_path, test_path = raw_dataset_files
        config = tmp_path / "run.cfg"
        config.write_text(
            "dataset = raw\n"
            f"raw_train = {train_path}\n"
            f"raw_test = {test_path}\n"
            "filters = 6\niterations = 3\nhistory = 0\npools = 1\n"
            "epochs = 5\nlr_drops =\nbatch_size = 64\naugment = false\n"
        )
        out = tmp_path / "cfg_run"
        code, _, _ = run(capsys, "train", "--config", str(config),
                         "--epochs", "1", "--out", str(out))
        assert code == 0
        rows = read_metric_log(out / "metrics.csv")
        assert len(rows) == 1  # the flag overrode the file's 5 epochs
        assert "epochs=1" in (out / "runspec.txt").read_text()

    @pytest.mark.parametrize("row", ["0,0.1,1.0", "zero,0.1,2.3,10.0,10.0,0.0",
                                     "0,0.1,2.3,10.0,250.0,0.0"],
                             ids=["torn", "non_numeric_epoch", "accuracy_out_of_range"])
    def test_malformed_metric_log_exits_3_on_resume(self, capsys, raw_dataset_files,
                                                    tmp_path, row):
        out = tmp_path / "run"
        assert run(capsys, *train_args(raw_dataset_files, out, epochs=1))[0] == 0
        metrics = out / "metrics.csv"
        metrics.write_text(metrics.read_text().splitlines()[0] + "\n" + row + "\n")
        code, _, err = run(capsys, *train_args(raw_dataset_files, out),
                           "--resume", str(out / "last.ckpt"))
        assert code == 3
        assert f"{metrics}:2:" in err

    @pytest.mark.parametrize("best", [float("nan"), 250.0])
    def test_resume_rejects_a_best_accuracy_outside_0_100(self, capsys, raw_dataset_files,
                                                          tmp_path, best):
        out = tmp_path / "run"
        assert run(capsys, *train_args(raw_dataset_files, out, epochs=1))[0] == 0
        last = out / "last.ckpt"
        blob = bytearray(last.read_bytes())
        # the optimizer section follows the model: magic, next epoch, lambda, best
        at = len((out / "best.ckpt").read_bytes()) + len(b"OPTSTATE1") + 4 + 8
        blob[at : at + 8] = struct.pack("<d", best)
        last.write_bytes(bytes(blob))
        logged = (out / "metrics.csv").read_bytes()
        code, _, err = run(capsys, *train_args(raw_dataset_files, out, epochs=3),
                           "--resume", str(last))
        assert code == 3
        assert "best test accuracy" in err
        assert (out / "metrics.csv").read_bytes() == logged

    @pytest.mark.parametrize("extra", [
        ("--lr", "nan"),
        ("--momentum", "inf"),
        ("--weight-decay", "nan"),
        ("--alpha-reg", "--lambda0", "nan"),
        ("--alpha-reg", "--eps", "inf"),
    ], ids=["lr", "momentum", "weight_decay", "lambda0", "eps"])
    def test_non_finite_hyperparameter_exits_2_before_training(self, capsys,
                                                               raw_dataset_files,
                                                               tmp_path, extra):
        out = tmp_path / "run"
        code, _, err = run(capsys, *train_args(raw_dataset_files, out), *extra)
        assert code == 2
        assert "must be finite" in err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_option = 3\n")
        code, _, _ = run(capsys, "train", "--config", str(config),
                         "--out", str(tmp_path / "x"))
        assert code == 2


class TestSettingBounds:
    """A setting that would fail deep in numpy, or silently mean something
    else, is a ConfigurationError naming it (exit 2), before any output."""

    @pytest.mark.parametrize("extra,key", [
        (("--seed", "-1"), "seed"),
        (("--limit-train", "-10"), "limit_train"),
        (("--limit-test", "-10"), "limit_test"),
        (("--filters", "-1"), "filters"),
        (("--steps-per-epoch", "-2"), "steps_per_epoch"),
        (("--alpha-reg", "--alpha-epochs", "-1"), "epochs"),
    ], ids=["seed", "limit_train", "limit_test", "filters", "steps_per_epoch",
            "alpha_epochs"])
    def test_train_exits_2_before_any_output(self, capsys, raw_dataset_files, tmp_path,
                                             extra, key):
        out = tmp_path / "run"
        code, _, err = run(capsys, *train_args(raw_dataset_files, out), *extra)
        assert code == 2
        assert key in err
        assert not out.exists()

    def test_gradcheck_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, "gradcheck", "--seed", "-1")
        assert code == 2
        assert "seed" in err and not out

    def test_sweep_without_repeats_exits_2(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("filters=6 iterations=3 history=0 pools=1\n")
        out = tmp_path / "sweep"
        code, _, err = run(
            capsys, "sweep", "--manifest", str(manifest), "--repeats", "0",
            "--dataset", "raw", "--raw-train", str(train_path),
            "--raw-test", str(test_path), "--epochs", "1", "--lr-drops", "",
            "--out", str(out),
        )
        assert code == 2
        assert "repeats" in err
        assert not out.exists()

    def test_negative_filters_in_a_manifest_exit_2(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text("filters=8\nfilters=-3\n")
        with pytest.raises(ConfigurationError, match="sweep.txt:2: filters"):
            read_settings(path, ARCH_DEFAULTS)

    def test_config_file_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"filters=\xff\xfe8\n")
        code, _, err = run(capsys, "count", "--config", str(config))
        assert code == 2
        assert str(config) in err and "UTF-8" in err

    def test_manifest_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_bytes(b"filters=8 # \xe9t\xe9\n")
        with pytest.raises(ConfigurationError, match="sweep.txt is not UTF-8"):
            read_settings(path, ARCH_DEFAULTS)

    def test_ablate_honours_alpha_epochs(self, capsys, raw_dataset_files, tmp_path):
        # without --alpha-reg, phase 1 still anneals only in its first epoch
        train_path, test_path = raw_dataset_files
        out = tmp_path / "ablation"
        code, _, _ = run(
            capsys, "ablate", "--dataset", "raw",
            "--raw-train", str(train_path), "--raw-test", str(test_path),
            "--filters", "6", "--iterations", "3", "--history", "2",
            "--pools", "1", "--phase1-epochs", "2", "--phase2-epochs", "1",
            "--alpha-epochs", "1", "--lr-drops", "", "--batch-size", "64",
            "--no-augment", "--out", str(out),
        )
        assert code == 0
        first, second = read_metric_log(out / "phase1" / "metrics.csv")
        assert first.lam > 3e-4  # annealed during epoch 0
        assert second.lam == first.lam


INTEGER_TRAIN_SETTINGS = [key for key, value in
                          {**ARCH_DEFAULTS, **DATA_DEFAULTS, **TRAIN_DEFAULTS}.items()
                          if type(value) is int]


@pytest.fixture(scope="module")
def small_raw_files(tmp_path_factory):
    """40 train and 20 test random 8x8 images, four of each class in train."""
    rng = np.random.default_rng(41)
    folder = tmp_path_factory.mktemp("small_raw")
    for name, n in (("train.rawt", 40), ("test.rawt", 20)):
        save_raw(folder / name, rng.standard_normal((n, 3, 8, 8)).astype(np.float32),
                 np.arange(n) % 10)
    return folder / "train.rawt", folder / "test.rawt"


@pytest.mark.parametrize("value", ["-1", "0"])
@pytest.mark.parametrize("key", INTEGER_TRAIN_SETTINGS)
def test_integer_train_setting_never_exits_1(capsys, small_raw_files, tmp_path,
                                             key, value):
    # 0 and -1 are each either a valid setting or a configuration error
    argv = train_args(small_raw_files, tmp_path / "run", epochs=1, alpha_epochs=1)
    argv += ["--alpha-reg", f"--{key.replace('_', '-')}", value]
    assert run(capsys, *argv)[0] in (0, 2)


class TestHostileOutputPaths:
    """An output path the package cannot write exits 3 with one error line and
    no traceback, and leaves no temp file.  (A path the user may not write to
    is not among the cases: it cannot be provoked when the tests run as root.)"""

    @pytest.fixture()
    def blocker(self, tmp_path):
        path = tmp_path / "blocker"
        path.write_text("keep\n")
        return path

    def argv(self, command, small_raw_files, tmp_path, out):
        train_path, test_path = small_raw_files
        raw = ["--dataset", "raw", "--raw-train", str(train_path),
               "--raw-test", str(test_path)]
        fit = ["--epochs", "1", "--lr-drops", "", "--batch-size", "20", "--no-augment"]
        arch = ["--filters", "4", "--iterations", "2", "--history", "1", "--pools", "1"]
        if command == "sweep":
            manifest = tmp_path / "manifest.txt"
            manifest.write_text("filters=4 iterations=2 history=1 pools=1\n")
            return ["sweep", *raw, *fit, "--manifest", str(manifest), "--out", out]
        if command == "export-activations":
            checkpoint = tmp_path / "model.ckpt"
            save_model(ThriftyNet(ThriftyConfig(filters=4, iterations=2, schedule=(1, 2))),
                       checkpoint)
            return [command, *raw, "--checkpoint", str(checkpoint), "--out", out]
        if command == "plan":
            return ["plan", "--out", out]
        extra = ["--phase1-epochs", "1", "--phase2-epochs", "1"] if command == "ablate" else []
        return [command, *raw, *fit, *arch, *extra, "--out", out]

    def assert_one_error_line(self, code, err, tmp_path):
        assert code == 3, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("command,where", [
        ("train", "file"), ("ablate", "file"), ("sweep", "file"),
        ("train", "under_file"), ("ablate", "under_file"), ("sweep", "under_file"),
        ("plan", "under_file"), ("export-activations", "under_file"),
    ])
    def test_unwritable_out_exits_3(self, capsys, small_raw_files, tmp_path, blocker,
                                    command, where):
        # --out of train, ablate and sweep names a directory, so an existing
        # file is in the way; --out of plan and export-activations names a CSV,
        # which may replace an existing file
        out = blocker if where == "file" else blocker / "out.csv"
        code, _, err = run(capsys, *self.argv(command, small_raw_files, tmp_path, str(out)))
        self.assert_one_error_line(code, err, tmp_path)
        assert blocker.read_text() == "keep\n"

    def test_resume_under_a_file_exits_3(self, capsys, small_raw_files, tmp_path, blocker):
        argv = self.argv("train", small_raw_files, tmp_path, str(tmp_path / "run"))
        code, _, err = run(capsys, *argv, "--resume", str(blocker / "last.ckpt"))
        self.assert_one_error_line(code, err, tmp_path)

    def test_module_entry_point_prints_one_line(self, blocker):
        proc = run_module("plan", "--out", str(blocker / "x.csv"))
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


class TestOneChannelData:
    @pytest.mark.parametrize("command", ["train", "sweep", "ablate"])
    def test_runs_on_one_channel_raw_images(self, capsys, tmp_path, command):
        from thriftynet.data import save_raw

        rng = np.random.default_rng(41)
        paths = []
        for name, n in (("train", 40), ("test", 20)):
            paths.append(tmp_path / f"{name}.rawt")
            save_raw(paths[-1], rng.standard_normal((n, 1, 8, 8)).astype(np.float32),
                     np.arange(n) % 2)
        argv = [command, "--dataset", "raw", "--raw-train", str(paths[0]),
                "--raw-test", str(paths[1]), "--epochs", "1", "--lr-drops", "",
                "--batch-size", "20", "--no-augment", "--out", str(tmp_path / "out")]
        if command == "sweep":
            manifest = tmp_path / "manifest.txt"
            manifest.write_text("filters=4 iterations=2 history=1 pools=1\n")
            argv += ["--manifest", str(manifest)]
        else:
            argv += ["--filters", "4", "--iterations", "2", "--history", "1", "--pools", "1"]
        if command == "ablate":
            argv += ["--phase1-epochs", "1", "--phase2-epochs", "1"]
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        if command == "sweep":  # a failed sweep point is a row, not an exit code
            _, rows = read_csv(tmp_path / "out" / "sweep.csv")
            assert rows[0][-1] == "ok"


class TestMalformedNumbers:
    """A number that does not parse is a ConfigurationError naming the key
    and the value (exit 2), wherever it comes from."""

    def test_config_file_value(self, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("iterations = abc\n")
        code, _, err = run(capsys, "count", "--config", str(config))
        assert code == 2
        assert "iterations" in err and "'abc'" in err

    @pytest.mark.parametrize("argv,key", [
        (("plan", "--iterations-list", "10,x"), "iterations_list"),
        (("plan", "--pools-list", "1 2.5"), "pools_list"),
        (("count", "--iterations", "3", "--schedule", "1,x,1"), "schedule"),
    ])
    def test_integer_list_flags(self, capsys, argv, key):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert key in err

    def test_lr_drops(self, capsys, raw_dataset_files, tmp_path):
        argv = train_args(raw_dataset_files, tmp_path / "run")
        argv[argv.index("--lr-drops") + 1] = "5,x"
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "lr_drops" in err and "'x'" in err

    def test_sweep_manifest_value(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("filters=abc iterations=3\n")
        code, _, err = run(
            capsys, "sweep", "--manifest", str(manifest), "--dataset", "raw",
            "--raw-train", str(train_path), "--raw-test", str(test_path),
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 2
        assert "filters" in err and "'abc'" in err

    def test_module_entry_point_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("iterations = abc\n")
        proc = run_module("count", "--config", str(config))
        assert proc.returncode == 2
        assert "iterations" in proc.stderr and "Traceback" not in proc.stderr


class TestEval:
    @pytest.fixture()
    def trained_run(self, capsys, raw_dataset_files, tmp_path):
        out = tmp_path / "trained"
        code, _, _ = run(capsys, *train_args(raw_dataset_files, out, seed=5))
        assert code == 0
        return out

    def test_eval_reproduces_final_test_acc(self, capsys, raw_dataset_files,
                                            trained_run):
        train_path, test_path = raw_dataset_files
        code, out, _ = run(capsys, "eval",
                           "--checkpoint", str(trained_run / "last.ckpt"),
                           "--dataset", "raw", "--raw-train", str(train_path),
                           "--raw-test", str(test_path))
        assert code == 0
        printed = float(out.split("test_acc=")[1])
        final_logged = read_metric_log(trained_run / "metrics.csv")[-1].test_acc
        assert printed == pytest.approx(final_logged, abs=5e-5)

    def test_truncated_checkpoint_exits_3(self, capsys, raw_dataset_files,
                                          trained_run, tmp_path):
        train_path, test_path = raw_dataset_files
        blob = (trained_run / "best.ckpt").read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[: len(blob) // 3])
        code, _, _ = run(capsys, "eval", "--checkpoint", str(bad),
                         "--dataset", "raw", "--raw-train", str(train_path),
                         "--raw-test", str(test_path))
        assert code == 3

    def test_junk_after_the_model_exits_3(self, capsys, raw_dataset_files,
                                          trained_run, tmp_path):
        train_path, test_path = raw_dataset_files
        bad = tmp_path / "long.ckpt"
        bad.write_bytes((trained_run / "best.ckpt").read_bytes() + bytes(900))
        code, _, err = run(capsys, "eval", "--checkpoint", str(bad),
                           "--dataset", "raw", "--raw-train", str(train_path),
                           "--raw-test", str(test_path))
        assert code == 3
        assert "900 trailing bytes" in err

    def test_non_finite_weight_exits_3(self, capsys, raw_dataset_files,
                                       trained_run, tmp_path):
        # a NaN weight once evaluated to test_acc=10.0000 and exit 0
        train_path, test_path = raw_dataset_files
        model = thriftynet.load_model(trained_run / "best.ckpt")
        model.kernels[0].weights.data[0, 0, 1, 1] = np.nan
        bad = tmp_path / "nan.ckpt"
        thriftynet.save_model(model, bad)
        code, out, err = run(capsys, "eval", "--checkpoint", str(bad),
                             "--dataset", "raw", "--raw-train", str(train_path),
                             "--raw-test", str(test_path))
        assert code == 3
        assert "conv_w" in err and "test_acc" not in out

    def test_bad_magic_exits_3(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        bad = tmp_path / "junk.ckpt"
        bad.write_bytes(b"JUNKJUNK" + bytes(200))
        code, _, _ = run(capsys, "eval", "--checkpoint", str(bad),
                         "--dataset", "raw", "--raw-train", str(train_path),
                         "--raw-test", str(test_path))
        assert code == 3


class TestGradcheck:
    def test_all_groups_pass(self, capsys):
        code, out, _ = run(capsys, "gradcheck")
        assert code == 0
        for group in ("conv_w", "gamma", "beta", "alpha", "fc_w", "fc_b"):
            assert f"{group}: PASS" in out

    def test_corrupted_backward_detected(self, capsys, monkeypatch):
        real = thriftynet.tensor._linear_backward

        def corrupted(g, x, w):
            gx, gw, gb = real(g, x, w)
            return gx, gw * 1.01, gb  # 1% error in the weight gradient

        monkeypatch.setattr(thriftynet.tensor, "_linear_backward", corrupted)
        code, out, _ = run(capsys, "gradcheck")
        assert code == 4
        assert "fc_w: FAIL" in out

    def test_config_file_sets_the_tolerance(self, capsys, tmp_path):
        config = tmp_path / "strict.cfg"
        config.write_text("tolerance = 0\n")
        code, out, _ = run(capsys, "gradcheck", "--config", str(config))
        assert code == 4
        assert "tol=0.0e+00" in out

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "-1"])
    def test_tolerance_that_cannot_judge_exits_2(self, capsys, monkeypatch, tolerance):
        # inf passed a 1% error in fc_w; nan and -1 failed a correct backward
        real = thriftynet.tensor._linear_backward

        def corrupted(g, x, w):
            gx, gw, gb = real(g, x, w)
            return gx, gw * 1.01, gb

        monkeypatch.setattr(thriftynet.tensor, "_linear_backward", corrupted)
        code, out, err = run(capsys, "gradcheck", "--tolerance", tolerance)
        assert code == 2
        assert out == ""
        assert "tolerance must be finite and >= 0" in err


class TestExportActivations:
    def test_matrix_csv(self, capsys, raw_dataset_files, tmp_path):
        out = tmp_path / "run"
        code, _, _ = run(capsys, *train_args(raw_dataset_files, out, seed=2))
        assert code == 0
        train_path, test_path = raw_dataset_files
        matrix_path = tmp_path / "acts.csv"
        code, _, _ = run(capsys, "export-activations",
                         "--checkpoint", str(out / "best.ckpt"),
                         "--dataset", "raw", "--raw-train", str(train_path),
                         "--raw-test", str(test_path),
                         "--out", str(matrix_path))
        assert code == 0
        header, rows = read_csv(matrix_path)
        assert len(rows) == 3            # iterations
        assert len(header) == 1 + 6      # index + filters

    def test_empty_train_split_exits_3(self, capsys, tmp_path):
        # a mean over no images once wrote a CSV of NaNs and exited 0
        from thriftynet.data import save_raw
        from thriftynet.model import ThriftyConfig, ThriftyNet, save_model

        empty, test = tmp_path / "empty.rawt", tmp_path / "test.rawt"
        save_raw(empty, np.zeros((0, 3, 8, 8), np.float32), np.zeros(0, np.int64))
        save_raw(test, np.zeros((2, 3, 8, 8), np.float32), np.zeros(2, np.int64))
        checkpoint = tmp_path / "model.ckpt"
        save_model(ThriftyNet(ThriftyConfig(filters=4, iterations=2, schedule=(1, 2))),
                   checkpoint)
        matrix_path = tmp_path / "acts.csv"
        code, _, err = run(capsys, "export-activations", "--checkpoint", str(checkpoint),
                           "--dataset", "raw", "--raw-train", str(empty),
                           "--raw-test", str(test), "--out", str(matrix_path))
        assert code == 3
        assert "at least one image" in err
        assert not matrix_path.exists()


class TestAblate:
    def test_desk_scale_report(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        out = tmp_path / "ablation"
        code, stdout, _ = run(
            capsys, "ablate", "--dataset", "raw",
            "--raw-train", str(train_path), "--raw-test", str(test_path),
            "--filters", "6", "--iterations", "3", "--history", "2",
            "--pools", "1", "--phase1-epochs", "2", "--phase2-epochs", "2",
            "--lr-drops", "", "--epochs", "2", "--batch-size", "64",
            "--no-augment", "--out", str(out),
        )
        assert code == 0
        for tag in ("baseline", "finetune_a", "same_init_b", "fresh_init_c"):
            assert tag in stdout
        assert (out / "ablation.csv").is_file()
        assert (out / "alpha_binarized.csv").is_file()


class TestSweep:
    def test_manifest_sweep(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(
            "filters=6 iterations=3 history=0 pools=1\n"
            "filters=6 iterations=3 history=2 pools=1\n"
        )
        out = tmp_path / "sweep"
        code, stdout, _ = run(
            capsys, "sweep", "--manifest", str(manifest),
            "--dataset", "raw", "--raw-train", str(train_path),
            "--raw-test", str(test_path), "--epochs", "1", "--lr-drops", "",
            "--batch-size", "64", "--no-augment", "--out", str(out),
        )
        assert code == 0
        header, rows = read_csv(out / "sweep.csv")
        assert len(rows) == 2

    def test_explicit_schedule_in_manifest(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("filters=6 iterations=3 history=0 schedule=1,2,1  # one pool\n")
        out = tmp_path / "sweep"
        code, _, err = run(
            capsys, "sweep", "--manifest", str(manifest),
            "--dataset", "raw", "--raw-train", str(train_path),
            "--raw-test", str(test_path), "--epochs", "1", "--lr-drops", "",
            "--batch-size", "64", "--no-augment", "--out", str(out),
        )
        assert code == 0, err
        header, rows = read_csv(out / "sweep.csv")
        assert rows[0][header.index("n_pools")] == 1
        assert rows[0][-1] == "ok"

    def test_pair_without_equals_exits_2(self, capsys, raw_dataset_files, tmp_path):
        train_path, test_path = raw_dataset_files
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("filters=6 iterations=3\nfilters 6\n")
        code, _, err = run(
            capsys, "sweep", "--manifest", str(manifest), "--dataset", "raw",
            "--raw-train", str(train_path), "--raw-test", str(test_path),
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 2
        assert f"{manifest}:2:" in err

    def test_macs_are_counted_at_the_data_size(self, capsys, tmp_path):
        from thriftynet.data import save_raw
        from thriftynet.model import MacTally, ThriftyConfig, ThriftyNet
        from thriftynet.planner import make_schedule

        rng = np.random.default_rng(42)
        paths = []
        for name, n in (("train", 20), ("test", 10)):
            paths.append(tmp_path / f"{name}.rawt")
            save_raw(paths[-1], rng.standard_normal((n, 3, 16, 16)).astype(np.float32),
                     np.arange(n) % 10)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("filters=8 iterations=3 history=0 pools=1\n")
        out = tmp_path / "sweep"
        code, _, err = run(
            capsys, "sweep", "--manifest", str(manifest), "--dataset", "raw",
            "--raw-train", str(paths[0]), "--raw-test", str(paths[1]),
            "--epochs", "1", "--lr-drops", "", "--batch-size", "10",
            "--no-augment", "--out", str(out),
        )
        assert code == 0, err
        header, rows = read_csv(out / "sweep.csv")
        config = ThriftyConfig(filters=8, iterations=3, schedule=make_schedule(3, 1))
        tally = MacTally()
        ThriftyNet(config).forward(np.zeros((2, 3, 16, 16), np.float32), "eval",
                                   tally=tally)
        assert rows[0][header.index("macs_total")] == tally.total / 2

    def test_classes_flag_is_rejected(self, capsys, raw_dataset_files, tmp_path):
        # the model is always built for the data's classes
        train_path, test_path = raw_dataset_files
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("filters=6 iterations=3 history=0 pools=1\n")
        code, _, _ = run(
            capsys, "sweep", "--manifest", str(manifest), "--classes", "5",
            "--dataset", "raw", "--raw-train", str(train_path),
            "--raw-test", str(test_path), "--epochs", "1", "--lr-drops", "",
            "--out", str(tmp_path / "sweep"),
        )
        assert code == 2


class TestManifest:
    """`read_settings` reads config files and manifests: one dict per line."""

    def test_parses_lines(self, tmp_path):
        path = tmp_path / "sweep.txt"
        path.write_text(
            "# comment\n"
            "filters=8 iterations=4 pools=1\n"
            "\n"
            "filters=12, iterations=6, history=2\n"
        )
        entries = read_settings(path, ARCH_DEFAULTS)
        assert entries == [
            {"filters": 8, "iterations": 4, "pools": 1},
            {"filters": 12, "iterations": 6, "history": 2},
        ]

    def test_malformed_token_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("filters 8\n")
        with pytest.raises(ConfigurationError, match="bad.txt:1:"):
            read_settings(path, ARCH_DEFAULTS)

    def test_config_line_with_several_pairs(self, tmp_path):
        # dashed keys, spaces round '=', a value's own commas, a trailing comment
        path = tmp_path / "run.cfg"
        path.write_text("filters = 8, budget-convention=table1  # note\n"
                        "schedule = 1,2,1 iterations=3\n")
        assert read_settings(path, ARCH_DEFAULTS) == [
            {"filters": 8, "budget_convention": "table1"},
            {"schedule": "1,2,1", "iterations": 3},
        ]
