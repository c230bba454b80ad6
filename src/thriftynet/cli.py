"""Command-line entry point.

Subcommands: train, eval, plan, count, gradcheck, ablate,
export-activations, sweep.  A command's settings are its flag groups in
`build_parser`: the defaults, overridden by a ``--config`` file, overridden
by explicit flags.  The resolved run spec is echoed into the output
directory before any work starts.

Config files and sweep manifests share one key=value format.  A pair ends
where whitespace or a comma meets the next ``key=``, so ``schedule=1,2,1``
is one pair and ``filters=12, iterations=6`` two.  ``#`` starts a comment
and a dash in a key reads as an underscore.  A config file merges its
lines, a later line winning; a manifest is one sweep point per line.  A
pair without ``=``, an unknown key, a malformed value or a value below its
floor in `SETTING_FLOORS` is a configuration error naming the file and
line; a file that is not UTF-8 is one naming the file.  `main` turns any
package error or `OSError` into one ``error:`` line and the exit code that
`errors` states.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from . import data as data_mod
from . import metrics as metrics_mod
from . import planner
from .errors import ConfigurationError, DataError, NumericalError, ThriftyNetError
from .gradcheck import check_model_gradients, summarize_groups
from .model import (ThriftyConfig, ThriftyNet, load_model, mean_activations,
                    validate_schedule)
from .training import (
    AlphaRegConfig,
    TrainConfig,
    ablation_alpha,
    evaluate,
    sweep,
    train,
)

def _coerce(key: str, raw: str, like):
    """`raw` as the type of `like`; a malformed value is a ConfigurationError
    naming the key and the value."""
    if isinstance(like, bool):
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigurationError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(like, (int, float)):
        try:
            return type(like)(raw)
        except ValueError:
            expected = "an integer" if isinstance(like, int) else "a number"
            raise ConfigurationError(f"{key}: expected {expected}, got {raw!r}") from None
    return raw


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    return tuple(_coerce(key, tok, 0) for tok in text.replace(",", " ").split())


# a pair ends at whitespace or a comma that the next `key=` follows
_PAIR_BREAK = re.compile(r"[\s,]+(?=[\w-]+\s*=)")


def _check_floor(key: str, value) -> None:
    floor = SETTING_FLOORS.get(key)
    if floor is not None and value < floor:
        raise ConfigurationError(f"{key} must be >= {floor}, got {value}")


def read_settings(path, defaults: dict) -> list[dict]:
    """One dict of settings, typed like `defaults`, per non-blank line of a
    config file or manifest (the format is in the module docstring)."""
    try:
        content = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text: byte {exc.start} "
                                 f"cannot be decoded") from None
    lines = []
    for lineno, line in enumerate(content.splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        settings = {}
        for pair in _PAIR_BREAK.split(text):
            key, eq, value = pair.partition("=")
            key, where = key.strip().replace("-", "_"), f"{path}:{lineno}"
            if not eq:
                raise ConfigurationError(f"{where}: expected key=value, got {pair!r}")
            if key not in defaults:
                raise ConfigurationError(f"{where}: unknown key {key!r}")
            try:
                settings[key] = _coerce(key, value.strip(), defaults[key])
                _check_floor(key, settings[key])
            except ConfigurationError as exc:
                raise ConfigurationError(f"{where}: {exc}") from None
        lines.append(settings)
    return lines


def resolve(args: argparse.Namespace) -> argparse.Namespace:
    """The command's settings: its defaults, overridden by the --config
    file, overridden by explicit flags."""
    spec = dict(args.defaults)
    if args.config:
        if not Path(args.config).is_file():
            raise ConfigurationError(f"config file not found: {args.config}")
        for settings in read_settings(args.config, args.defaults):
            spec.update(settings)
    spec.update((key, getattr(args, key)) for key in args.defaults
                if getattr(args, key) is not None)
    for key, value in spec.items():
        _check_floor(key, value)
    return argparse.Namespace(**spec)


# ---------------------------------------------------------------------------
# Shared flag groups
# ---------------------------------------------------------------------------

ARCH_DEFAULTS = {
    "filters": 0,            # 0 = derive from the budget
    "budget": 40000,
    "budget_convention": "total",
    "iterations": 15,
    "history": 5,
    "kernel": 3,
    "pools": 4,
    "schedule": "regular",   # regular | front_loaded | explicit comma list
    "conv": "classical",
    "activation": "relu",
}

DATA_DEFAULTS = {
    "dataset": "cifar10",    # cifar10 | cifar100 | raw
    "data_dir": "data",
    "raw_train": "",
    "raw_test": "",
    "limit_train": 0,        # 0 = full split; otherwise a class-balanced subset
    "limit_test": 0,
}

TRAIN_DEFAULTS = {
    "epochs": 200,
    "lr": 0.1,
    "lr_drops": "50,100,150",
    "momentum": 0.9,
    "weight_decay": 0.0,
    "batch_size": 128,
    "seed": 0,
    "augment": True,
    "flip": True,
    "alpha_reg": False,
    "lambda0": 3e-4,
    "eps": 1.5e-4,
    "alpha_epochs": 0,       # 0 = anneal for the whole run
    "steps_per_epoch": 0,    # 0 = one pass over the train split
}

COUNT_DEFAULTS = {"input_size": 32, "classes": 10}

PLAN_DEFAULTS = {
    **COUNT_DEFAULTS,
    "iterations_list": "",   # comma list
    "pools_list": "",        # comma list
}

# what an empty-string default stands for, as --help states it
EMPTY_DEFAULT_HELP = {
    "raw_train": "none; --dataset raw needs it",
    "raw_test": "none; --dataset raw needs it",
    "iterations_list": "just --iterations",
    "pools_list": "just --pools",
}

ABLATE_DEFAULTS = {"phase1_epochs": 150, "phase2_epochs": 150}

SWEEP_DEFAULTS = {"repeats": 1}  # seeds per sweep point

GRADCHECK_DEFAULTS = {"seed": 0, "tolerance": 1e-4}  # tolerance: max relative error

# the least value a setting may take; below it the setting would fail deep in
# numpy or silently mean something else
SETTING_FLOORS = {"filters": 0, "seed": 0, "limit_train": 0, "limit_test": 0,
                  "repeats": 1}


def _add_flags(parser: argparse.ArgumentParser, defaults: dict) -> None:
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        shown = EMPTY_DEFAULT_HELP.get(key, "none") if default == "" else default
        if isinstance(default, bool):
            group = parser.add_mutually_exclusive_group()
            group.add_argument(flag, dest=key, action="store_const", const=True,
                               default=None, help=f"(default: {shown})")
            group.add_argument("--no-" + key.replace("_", "-"), dest=key,
                               action="store_const", const=False, default=None,
                               help=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, dest=key, type=type(default), default=None,
                                help=f"(default: {shown})")


def _build_schedule(spec) -> tuple[int, ...]:
    if spec.schedule in ("regular", "front_loaded"):
        return planner.make_schedule(spec.iterations, spec.pools, spec.schedule)
    return validate_schedule(_parse_int_list("schedule", spec.schedule), spec.iterations)


def _build_model_config(spec, num_classes: int, input_channels: int) -> ThriftyConfig:
    schedule = _build_schedule(spec)
    filters = spec.filters
    if filters <= 0:
        filters = planner.solve_filters(
            spec.budget, spec.iterations, spec.history, (spec.kernel, spec.kernel),
            spec.conv, num_classes, spec.budget_convention,
        )
    return ThriftyConfig(
        filters=filters,
        iterations=spec.iterations,
        schedule=schedule,
        history=spec.history,
        kernel=(spec.kernel, spec.kernel),
        conv_mode=spec.conv,
        activation=spec.activation,
        num_classes=num_classes,
        input_channels=input_channels,
    )


def _load_datasets(spec):
    if spec.dataset in ("cifar10", "cifar100"):
        classes = int(spec.dataset.removeprefix("cifar"))
        train_ds, test_ds = data_mod.load_cifar(spec.data_dir, classes)
    elif spec.dataset == "raw":
        if not spec.raw_train or not spec.raw_test:
            raise ConfigurationError(
                "dataset=raw needs --raw-train and --raw-test container paths"
            )
        train_ds = data_mod.load_raw(spec.raw_train, "train")
        test_ds = data_mod.load_raw(spec.raw_test, "test")
        if train_ds.class_count != test_ds.class_count:
            test_ds = replace(test_ds, class_count=train_ds.class_count)
    else:
        raise ConfigurationError(f"unknown dataset {spec.dataset!r}")
    subset_seed = getattr(spec, "seed", 0)
    if spec.limit_train:
        train_ds = _limit(train_ds, spec.limit_train, subset_seed)
    if spec.limit_test:
        test_ds = _limit(test_ds, spec.limit_test, subset_seed + 1)
    return train_ds, test_ds


def _limit(ds, total: int, seed: int):
    if total % ds.class_count != 0:
        raise ConfigurationError(
            f"--limit values must be divisible by the class count "
            f"({total} vs {ds.class_count})"
        )
    return data_mod.class_balanced_subset(ds, total // ds.class_count, seed)


def _train_config(spec) -> TrainConfig:
    alpha_reg = None
    if spec.alpha_reg:
        alpha_reg = AlphaRegConfig(
            lambda0=spec.lambda0,
            eps=spec.eps,
            epochs=spec.alpha_epochs or None,
        )
    return TrainConfig(
        epochs=spec.epochs,
        lr0=spec.lr,
        lr_drops=_parse_int_list("lr_drops", spec.lr_drops),
        momentum=spec.momentum,
        weight_decay=spec.weight_decay,
        batch_size=spec.batch_size,
        seed=spec.seed,
        augment=spec.augment,
        flip=spec.flip,
        alpha_reg=alpha_reg,
        steps_per_epoch=spec.steps_per_epoch or None,
    )


def _prepare_out(spec, out: str) -> Path:
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{key}={value}" for key, value in sorted(vars(spec).items())]
    metrics_mod.atomic_write(out_dir / "runspec.txt", ("\n".join(lines) + "\n").encode())
    return out_dir


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_train(spec, args) -> None:
    train_config = _train_config(spec)
    train_ds, test_ds = _load_datasets(spec)
    config = _build_model_config(spec, train_ds.class_count, train_ds.images.shape[1])
    counts = planner.param_count(config)
    out_dir = _prepare_out(spec, args.out)
    print(f"filters={config.filters} params_total={counts.total} "
          f"params_table1={counts.table1_total}")
    model = ThriftyNet(config, seed=spec.seed)
    result = train(model, train_ds, test_ds, train_config,
                   out_dir=out_dir, resume_from=args.resume or None)
    print(f"best_test_acc={result.best_test_acc:.2f} "
          f"final_test_acc={result.final_test_acc:.2f}")


def cmd_eval(spec, args) -> None:
    model = load_model(args.checkpoint)
    _, test_ds = _load_datasets(spec)
    if test_ds.class_count != model.config.num_classes:
        raise ConfigurationError(
            f"checkpoint expects {model.config.num_classes} classes, dataset "
            f"has {test_ds.class_count}"
        )
    acc = evaluate(model, test_ds)
    print(f"test_acc={acc:.4f}")


def cmd_count(spec, args) -> None:
    # the counts read no input_channels; 1 is valid for every filter count
    config = _build_model_config(spec, spec.classes, input_channels=1)
    counts = planner.param_count(config)
    macs = planner.mac_count(config, (spec.input_size, spec.input_size))
    print(f"filters={config.filters}")
    print(f"params_core={counts.core}")
    print(f"params_alpha={counts.alpha_full}")
    print(f"params_head={counts.head}")
    print(f"params_total={counts.total}")
    print(f"params_table1={counts.table1_total}")
    print(f"macs_total={macs.total}")
    print("macs_per_iteration=" + ",".join(str(m) for m in macs.per_iteration))


def cmd_plan(spec, args) -> None:
    iteration_values = (_parse_int_list("iterations_list", spec.iterations_list)
                        or (spec.iterations,))
    pool_values = _parse_int_list("pools_list", spec.pools_list) or (spec.pools,)
    rows = []
    for iterations in iteration_values:
        for pools in pool_values:
            row_spec = argparse.Namespace(**{**vars(spec), "iterations": iterations,
                                             "pools": pools})
            config = _build_model_config(row_spec, spec.classes, input_channels=1)
            rows.append(planner.plan_row(config, (spec.input_size, spec.input_size)))
    rows.sort(key=lambda r: r["macs_total"])
    print(",".join(planner.PLAN_COLUMNS))
    for row in rows:
        print(",".join(str(row[c]) for c in planner.PLAN_COLUMNS))
    if args.out:
        metrics_mod.write_csv(args.out, planner.PLAN_COLUMNS,
                              [[row[c] for c in planner.PLAN_COLUMNS] for row in rows])


def cmd_gradcheck(spec, args) -> None:
    results = summarize_groups(check_model_gradients(seed=spec.seed,
                                                     tol=spec.tolerance))
    failed = False
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"{check.name}: {status} max_rel_err={check.max_rel_err:.3e} "
              f"tol={check.tol:.1e}")
        failed |= not check.passed
    if failed:
        raise NumericalError("analytic gradients do not match finite differences")


def cmd_ablate(spec, args) -> None:
    # phase 1 always anneals the penalty, whether or not --alpha-reg is given
    base = _train_config(argparse.Namespace(**{**vars(spec), "alpha_reg": True}))
    train_ds, test_ds = _load_datasets(spec)
    config = _build_model_config(spec, train_ds.class_count, train_ds.images.shape[1])
    if config.history < 1:
        raise ConfigurationError("the shortcut study needs --history >= 1")
    out_dir = _prepare_out(spec, args.out)
    report = ablation_alpha(config, train_ds, test_ds, base,
                            phase1_epochs=spec.phase1_epochs,
                            phase2_epochs=spec.phase2_epochs, out_dir=out_dir)
    rows = [
        ("baseline", report.baseline_acc),
        ("finetune_a", report.finetune_acc),
        ("same_init_b", report.same_init_acc),
        ("fresh_init_c", report.fresh_init_acc),
    ]
    for name, acc in rows:
        print(f"{name}={acc:.2f}")
    metrics_mod.write_csv(out_dir / "ablation.csv", ("variant", "test_acc"), rows)
    binarized = "".join(",".join(f"{v:.1f}" for v in row) + "\n"
                        for row in report.binarized_alpha)
    metrics_mod.atomic_write(out_dir / "alpha_binarized.csv", binarized.encode())


def cmd_export_activations(spec, args) -> None:
    model = load_model(args.checkpoint)
    train_ds, _ = _load_datasets(spec)
    matrix = mean_activations(model, train_ds.images)
    metrics_mod.write_matrix_csv(matrix, args.out)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} matrix to {args.out}")


def cmd_sweep(spec, args) -> None:
    train_config = _train_config(spec)
    points = read_settings(args.manifest, ARCH_DEFAULTS)
    if not points:
        raise ConfigurationError(f"manifest {args.manifest} lists no configs")
    train_ds, test_ds = _load_datasets(spec)
    configs = [_build_model_config(argparse.Namespace(**{**ARCH_DEFAULTS, **point}),
                                   train_ds.class_count, train_ds.images.shape[1])
               for point in points]
    out_dir = _prepare_out(spec, args.out)
    rows = sweep(configs, train_ds, test_ds, train_config, spec.repeats, out_dir)
    for row in rows:
        print(",".join(str(v) for v in row))


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thriftynet",
        description="Train and analyze recursive single-convolution classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def new_command(name, func, help_text, flag_groups, **extra):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None,
                         help="key=value file; explicit flags override it")
        defaults = {key: value for group in flag_groups for key, value in group.items()}
        _add_flags(cmd, defaults)
        for flag, kwargs in extra.items():
            cmd.add_argument(flag, **kwargs)
        cmd.set_defaults(func=func, defaults=defaults)
        return cmd

    new_command(
        "train", cmd_train, "train a model",
        (ARCH_DEFAULTS, DATA_DEFAULTS, TRAIN_DEFAULTS),
        **{
            "--out": dict(default="runs/train", help="output directory (default: runs/train)"),
            "--resume": dict(default="", help="resume from a last.ckpt (default: start anew)"),
        },
    )
    new_command(
        "eval", cmd_eval, "evaluate a checkpoint on the test split",
        (DATA_DEFAULTS,),
        **{"--checkpoint": dict(required=True, help="model checkpoint path")},
    )
    new_command(
        "count", cmd_count, "print parameter and MAC counts",
        (ARCH_DEFAULTS, COUNT_DEFAULTS),
    )
    new_command(
        "plan", cmd_plan, "budget-constrained architecture table",
        (ARCH_DEFAULTS, PLAN_DEFAULTS),
        **{"--out": dict(default="", help="CSV output path (default: print only)")},
    )
    new_command(
        "gradcheck", cmd_gradcheck, "verify analytic gradients per group",
        (GRADCHECK_DEFAULTS,),
    )
    new_command(
        "ablate", cmd_ablate, "shortcut binarization/freezing study",
        (ARCH_DEFAULTS, DATA_DEFAULTS, TRAIN_DEFAULTS, ABLATE_DEFAULTS),
        **{"--out": dict(default="runs/ablation",
                         help="output directory (default: runs/ablation)")},
    )
    new_command(
        "export-activations", cmd_export_activations,
        "mean activation matrix of a trained model",
        (DATA_DEFAULTS,),
        **{
            "--checkpoint": dict(required=True, help="model checkpoint path"),
            "--out": dict(default="activations.csv",
                          help="CSV output path (default: activations.csv)"),
        },
    )
    new_command(
        "sweep", cmd_sweep, "train every config in a manifest",
        (DATA_DEFAULTS, TRAIN_DEFAULTS, SWEEP_DEFAULTS),
        **{
            "--manifest": dict(required=True,
                               help="key=value file in the --config format, one "
                                    "sweep point of architecture keys per line"),
            "--out": dict(default="runs/sweep", help="output directory (default: runs/sweep)"),
        },
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        args.func(resolve(args), args)
    except (ThriftyNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", DataError.exit_code)  # an OSError exits 3
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
