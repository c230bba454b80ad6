"""Run one benchmark workload in this process and print its result as JSON.

run.py starts this script with the BLAS thread pool already capped (through
the environment, before numpy loads) and measures set-up time from the
moment it spawns the process to the ``first_op_at`` stamp printed here.

The package is driven only through its public functions.  The plain run
times the workload's operations; the traced run (``--trace 1``) runs every
operation twice from the same starting state, once plainly and once under
``optrace.OpTracer``, and requires identical bits from both.
See README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import thriftynet
import thriftynet.model
import thriftynet.training
from thriftynet import (
    SGD,
    MacTally,
    Tape,
    ThriftyConfig,
    ThriftyNet,
    TrainConfig,
    evaluate,
    mac_count,
    make_schedule,
    softmax_cross_entropy,
    solve_filters,
    train,
)
from thriftynet.data import ImageDataset, augment_batch

import optrace

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

LEARNING_RATE = 0.05
MIN_OPS = 2            # the fewest timed operations a plain run makes
CHECK_IMAGES = 8       # fixed slice for the float32-vs-float64 check
# float32 against float64 on the same weights and inputs: max |difference|
# of the logits, relative to the largest float64 logit, and of the loss.
# Accumulated float32 rounding over T recursions stays orders of magnitude
# below this; a wrong kernel is off by O(1).
PRECISION_RTOL = 1e-3
MIN_COVERAGE = 0.9     # traced op self-times over step time, paper scale


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "steps", "evaluate" or "train"
    filters: int
    iterations: int
    history: int
    pools: int
    batch: int
    hw: int = 32
    images: int = 1024   # generated images the timed operations draw from
    heldout: int = 0     # train(): held-out split evaluated after every epoch
    epochs: int = 0
    steps_per_epoch: int = 0
    gate_coverage: bool = False

    @property
    def units_per_op(self) -> int:
        """Training steps (or eval batches) in one timed operation."""
        return self.epochs * self.steps_per_epoch if self.kind == "train" else 1

    def config(self) -> ThriftyConfig:
        return ThriftyConfig(
            filters=self.filters,
            iterations=self.iterations,
            schedule=make_schedule(self.iterations, self.pools),
            history=self.history,
        )

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, lr0=LEARNING_RATE, lr_drops=(),
                           batch_size=self.batch, seed=seed,
                           steps_per_epoch=self.steps_per_epoch)


# The paper's CIFAR-10 net: a 40K-parameter budget with T=15, h=5 gives f=64.
PAPER = dict(filters=solve_filters(40_000, 15, 5), iterations=15, history=5, pools=4)

WORKLOADS = {
    "train_paper": Workload("train_paper", "steps", batch=128, gate_coverage=True,
                            **PAPER),
    "eval_paper": Workload("eval_paper", "evaluate", batch=500, images=1000, **PAPER),
    "train_small": Workload("train_small", "train", filters=16, iterations=6,
                            history=0, pools=1, batch=16, heldout=200, epochs=3,
                            steps_per_epoch=8),
}


def tiny(workload: Workload) -> Workload:
    """The same workload on a net and data small enough for a smoke test."""
    return replace(workload, filters=6, iterations=3, history=min(workload.history, 2),
                   pools=1, batch=8, hw=8, images=32,
                   heldout=16 if workload.heldout else 0,
                   epochs=min(workload.epochs, 2),
                   steps_per_epoch=min(workload.steps_per_epoch, 2), gate_coverage=False)


# ---------------------------------------------------------------------------
# Inputs and set-up
# ---------------------------------------------------------------------------


def synthetic(rng: np.random.Generator, n: int, hw: int, split: str) -> ImageDataset:
    """Standardized-looking images: a per-class channel offset plus noise."""
    labels = rng.integers(0, 10, size=n)
    offsets = np.linspace(-1.0, 1.0, 30).reshape(10, 3)[labels]
    images = rng.standard_normal((n, 3, hw, hw)) + offsets[:, :, None, None]
    return ImageDataset(images.astype(np.float32), labels.astype(np.int64), split, 10)


def calibrate_bn(model: ThriftyNet, images: np.ndarray) -> None:
    """Set every running statistic to the statistics of one train-mode batch,
    so eval mode normalizes like a trained net does."""
    for state in model.bn:
        state.momentum = 1.0
    model.forward(images, mode="train")
    for state in model.bn:
        state.momentum = 0.1


def draw_batch(data: ImageDataset, batch: int, rng: np.random.Generator):
    idx = rng.integers(0, len(data), size=batch)
    return augment_batch(data.images[idx], rng), data.labels[idx]


def train_step(model: ThriftyNet, opt: SGD, images, labels, lr: float):
    opt.zero_grad()
    tape = Tape()
    logits = model.forward(images, mode="train", tape=tape)
    loss, grad = softmax_cross_entropy(logits.data, labels)
    tape.backward(logits, grad)
    opt.step(lr)
    return loss, logits.data


@dataclass
class Context:
    workload: Workload
    seed: int
    config: ThriftyConfig
    model: ThriftyNet
    opt: SGD
    data: ImageDataset
    heldout: ImageDataset | None
    work_dir: Path


def set_up(workload: Workload, seed: int) -> Context:
    rng = np.random.default_rng(seed)
    config = workload.config()
    data = synthetic(rng, workload.images, workload.hw, "train")
    heldout = synthetic(rng, workload.heldout, workload.hw, "test") if workload.heldout else None
    model = ThriftyNet(config, seed=seed)
    opt = SGD(model.trainables(), momentum=0.9)
    warm = data.images[:8], data.labels[:8]
    if workload.kind == "evaluate":
        calibrate_bn(model, data.images[:16])
        evaluate(model, ImageDataset(*warm, "test", 10), workload.batch)
    else:  # one small step on a throwaway copy loads every code path
        spare = ThriftyNet(config, seed=seed + 1)
        train_step(spare, SGD(spare.trainables(), momentum=0.9), *warm, LEARNING_RATE)
    work_dir = OUT_DIR / "work" / f"{workload.name}-{os.getpid()}"
    return Context(workload, seed, config, model, opt, data, heldout, work_dir)


# ---------------------------------------------------------------------------
# Timed operations.  Each op returns (images, outputs); its check runs after
# the clock stops, raises CheckFailed on a wrong output and otherwise returns
# the bytes that the traced run must reproduce exactly.
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def steps_op(ctx: Context, k: int):
    rng = np.random.default_rng([ctx.seed, k])
    images, labels = draw_batch(ctx.data, ctx.workload.batch, rng)
    return len(labels), train_step(ctx.model, ctx.opt, images, labels, LEARNING_RATE)


def steps_check(ctx: Context, outputs, first) -> bytes:
    loss, logits = outputs
    if not (math.isfinite(loss) and np.isfinite(logits).all()):
        raise CheckFailed(f"non-finite loss {loss} or logits")
    return np.float64(loss).tobytes() + logits.tobytes()


def evaluate_op(ctx: Context, k: int):
    batch = ctx.workload.batch
    start = k % (len(ctx.data) // batch) * batch
    images = ctx.data.images[start : start + batch]
    labels = ctx.data.labels[start : start + batch]
    seen = []
    model = ctx.model

    def forward(x, *args, **kwargs):  # keeps the logits evaluate() discards
        out = type(model).forward(model, x, *args, **kwargs)
        seen.append(out.data)
        return out

    model.forward = forward
    try:
        acc = evaluate(model, ImageDataset(images, labels, "test", 10), batch)
    finally:
        del model.forward
    return batch, (acc, seen, labels)


def evaluate_check(ctx: Context, outputs, first) -> bytes:
    acc, seen, labels = outputs
    logits = np.concatenate(seen)
    if not np.isfinite(logits).all():
        raise CheckFailed("non-finite logits")
    expected = 100.0 * int((logits.argmax(axis=1) == labels).sum()) / len(labels)
    if acc != expected:
        raise CheckFailed(f"evaluate() reported {acc}%, its logits give {expected}%")
    return np.float64(acc).tobytes() + logits.tobytes()


def train_op(ctx: Context, k: int):
    model = ThriftyNet(ctx.config, seed=ctx.seed)
    out_dir = ctx.work_dir / f"call{k}"
    result = train(model, ctx.data, ctx.heldout, ctx.workload.train_config(ctx.seed),
                   out_dir=out_dir)
    return ctx.workload.units_per_op * ctx.workload.batch, (result, out_dir)


def train_check(ctx: Context, outputs, first) -> bytes:
    """Every call trains from the same seed, so every call must write the
    same metrics.csv and end with the same weights as the first."""
    result, out_dir = outputs
    try:
        rows = result.log.rows
        if len(rows) != ctx.workload.epochs:
            raise CheckFailed(f"{len(rows)} epochs logged, expected {ctx.workload.epochs}")
        if not all(math.isfinite(r.train_loss) for r in rows):
            raise CheckFailed("non-finite training loss")
        for name in ("timing.csv", "last.ckpt", "best.ckpt"):
            if not (out_dir / name).is_file():
                raise CheckFailed(f"train() wrote no {name}")
        key = (out_dir / "metrics.csv").read_bytes() + state_bytes(result.model)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if first is not None and key != first:
        raise CheckFailed("same seed, but a different metrics.csv or final weights")
    return key


OPS = {"steps": (steps_op, steps_check), "evaluate": (evaluate_op, evaluate_check),
       "train": (train_op, train_check)}


def state_bytes(model: ThriftyNet) -> bytes:
    return b"".join(a.tobytes() for a in model.state_arrays())


@dataclass
class Pass:
    rates: list = field(default_factory=list)    # img/s of each successful operation
    seconds: list = field(default_factory=list)  # duration of each operation
    outputs: list = field(default_factory=list)  # check() bytes (None if it failed)
    attempted: int = 0
    failed: int = 0
    first_op_at: float = 0.0


def run_op(ctx: Context, k: int, run: Pass) -> None:
    """Time operation k, check its outputs and record both into `run`."""
    op, check = OPS[ctx.workload.kind]
    first = next((o for o in run.outputs if o is not None), None)
    t0 = perf_counter()
    try:
        images, outputs = op(ctx, k)
        duration = perf_counter() - t0
        run.outputs.append(check(ctx, outputs, first))
        run.rates.append(images / duration)
    except Exception:  # a failed operation is counted, and the run goes on
        duration = perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        run.failed += ctx.workload.units_per_op
        run.outputs.append(None)
    run.seconds.append(duration)
    run.attempted += ctx.workload.units_per_op


def measure(ctx: Context, seconds: float) -> Pass:
    """Run timed operations for `seconds`, and at least MIN_OPS of them."""
    run = Pass()
    run.first_op_at = start = perf_counter()
    while (len(run.seconds) < MIN_OPS
           or perf_counter() - start + statistics.median(run.seconds) <= seconds):
        run_op(ctx, len(run.seconds), run)
    return run


# ---------------------------------------------------------------------------
# Checks outside the timed region
# ---------------------------------------------------------------------------


def clone(model: ThriftyNet, dtype) -> ThriftyNet:
    twin = ThriftyNet(model.config, dtype=dtype)
    for (_, dst), (_, src) in zip(twin.trainables(), model.trainables()):
        dst.data = src.data.astype(dtype)
    for dst, src in zip(twin.bn, model.bn):
        dst.running_mean = src.running_mean.astype(dtype)
        dst.running_var = src.running_var.astype(dtype)
    return twin


def precision_check(ctx: Context) -> dict:
    """float32 logits (and, for training, the train-mode loss) on a fixed
    slice against the same computation in float64."""
    mode = "eval" if ctx.workload.kind == "evaluate" else "train"
    images = ctx.data.images[:CHECK_IMAGES]
    labels = ctx.data.labels[:CHECK_IMAGES]
    l32 = clone(ctx.model, np.float32).forward(images, mode=mode).data
    l64 = clone(ctx.model, np.float64).forward(images.astype(np.float64), mode=mode).data
    logit_err = float(np.abs(l32 - l64).max() / max(np.abs(l64).max(), 1e-30))
    result = {"mode": mode, "logit_rel_err": logit_err, "rtol": PRECISION_RTOL}
    ok = logit_err <= PRECISION_RTOL
    if mode == "train":
        loss32 = softmax_cross_entropy(l32, labels)[0]
        loss64 = softmax_cross_entropy(l64, labels)[0]
        result["loss_rel_err"] = abs(loss32 - loss64) / abs(loss64)
        ok = ok and result["loss_rel_err"] <= PRECISION_RTOL
    result["ok"] = bool(ok)
    return result


def mac_check(ctx: Context, tracer: optrace.OpTracer, totals: dict) -> dict:
    """Traced conv+head MACs per sample against planner.mac_count and MacTally."""
    planned = mac_count(ctx.config, (ctx.workload.hw, ctx.workload.hw)).total
    tally = MacTally()
    ctx.model.forward(ctx.data.images[:2], mode="eval", tally=tally)
    traced = totals["conv"]["macs"] + totals["head"]["macs"]
    ok = traced == planned * tracer.samples and tally.total == planned * 2
    return {"planned_per_sample": planned, "traced_total": traced,
            "traced_samples": tracer.samples, "tally_per_sample": tally.total / 2,
            "ok": bool(ok)}


def gemm_floor_gflops(ctx: Context) -> float:
    """A plain float32 GEMM of the first conv's im2col shape at this batch."""
    a, b = ctx.config.kernel
    f = ctx.config.filters
    m, k = ctx.workload.batch * ctx.workload.hw ** 2, a * b * f
    cols = np.full((m, k), 0.5, dtype=np.float32)  # GEMM time does not depend on values
    w = np.full((k, f), 0.25, dtype=np.float32)
    times = []
    for _ in range(4):
        t0 = perf_counter()
        cols @ w
        times.append(perf_counter() - t0)
    return 2.0 * m * k * f / statistics.median(times[1:]) / 1e9


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def plain_run(ctx: Context, seconds: float) -> dict:
    run = measure(ctx, seconds)
    precision = precision_check(ctx)
    return {
        "first_op_at": run.first_op_at,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": {"precision": precision},
        "correct": run.failed == 0 and precision["ok"],
        "metrics": {
            "img_per_s": {"value": statistics.median(run.rates) if run.rates else 0.0,
                          "unit": "img/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "success_rate": {"value": 1.0 - run.failed / run.attempted, "unit": "ratio"},
        },
        "samples": {"img_per_s": run.rates, "op_seconds": run.seconds},
    }


def traced_run(ctx: Context, seconds: float) -> dict:
    """Run each operation twice from the same state, plainly and traced, in
    alternating order so drift and first-touch costs fall on both sides."""
    tracer = optrace.OpTracer()
    modules = [thriftynet.model, thriftynet.training, sys.modules[__name__]]
    state = ctx.model.state_arrays() + ctx.opt.velocities
    plain, traced = Pass(), Pass()
    plain.first_op_at = start = perf_counter()
    k = 0
    while k < MIN_OPS or (perf_counter() - start + statistics.median(plain.seconds)
                          + statistics.median(traced.seconds)) <= seconds:
        saved = [a.copy() for a in state]
        for tracing in ((False, True) if k % 2 == 0 else (True, False)):
            for dst, src in zip(state, saved):
                dst[...] = src
            if tracing:
                with tracer.installed(modules):
                    run_op(ctx, k, traced)
            else:
                run_op(ctx, k, plain)
        k += 1
    identical = None not in plain.outputs and plain.outputs == traced.outputs
    totals = {kind: tracer.kind_totals(kind) for kind in optrace.KINDS}
    macs = mac_check(ctx, tracer, totals)
    units = traced.attempted
    spans = tracer.spans
    work_s = sum(traced.seconds) - spans.total["trace.bookkeeping"]
    coverage = tracer.op_seconds() / work_s
    plain_rate = statistics.median(plain.rates) if plain.rates else 0.0
    traced_rate = statistics.median(traced.rates) if traced.rates else 0.0
    coverage_ok = coverage >= MIN_COVERAGE or not ctx.workload.gate_coverage

    def per_op(value: float) -> float:
        return value / units

    metrics = {}
    for kind in optrace.KINDS:
        metrics[f"tensor.{kind}.fwd_s"] = (per_op(spans.total[f"tensor.{kind}.fwd"]), "s")
        metrics[f"tensor.{kind}.bwd_s"] = (per_op(spans.total[f"tensor.{kind}.bwd"]), "s")
        metrics[f"tensor.{kind}.calls"] = (per_op(totals[kind]["calls"]), "count")
        metrics[f"tensor.{kind}.bytes"] = (per_op(totals[kind]["bytes"]), "B_computed")
    samples = max(tracer.samples, 1)
    conv_fwd_s = spans.total["tensor.conv.fwd"]
    metrics.update({
        "tensor.conv.macs": (totals["conv"]["macs"] / samples, "MAC/sample"),
        "tensor.head.macs": (totals["head"]["macs"] / samples, "MAC/sample"),
        "tensor.conv.fwd_gflops": (2.0 * totals["conv"]["macs"] / conv_fwd_s / 1e9
                                   if conv_fwd_s else 0.0, "GFLOP/s"),
        "tensor.gemm_floor_gflops": (gemm_floor_gflops(ctx), "GFLOP/s"),
        "tensor.loss_s": (per_op(spans.total["tensor.loss"]), "s"),
        "tensor.tape.records": (statistics.mean(tracer.tape_records)
                                if tracer.tape_records else 0.0, "count"),
        "tensor.tape.held_bytes": (float(max(tracer.tape_held_bytes, default=0)), "B"),
        "tensor.tape.backward_s": (per_op(spans.total["tensor.tape.backward"]), "s"),
        "model.forward_s": (per_op(spans.total["model.forward"]), "s"),
        "model.forward_self_s": (per_op(spans.self_time["model.forward"]), "s"),
        "training.sgd_s": (per_op(spans.total["training.sgd"]), "s"),
        "training.evaluate_s": (per_op(spans.total["training.evaluate"]), "s"),
        "training.checkpoint_s": (per_op(spans.total["training.checkpoint"]), "s"),
        "training.train_self_s": (per_op(spans.self_time["training.train"]), "s"),
        "data.augment_s": (per_op(spans.total["data.augment"]), "s"),
        "data.batch_s": (per_op(spans.total["data.batch"]), "s"),
        "trace.coverage": (coverage, "ratio"),
        "trace.overhead": (plain_rate / traced_rate - 1.0 if traced_rate else 0.0, "ratio"),
    })
    failed = plain.failed + traced.failed
    return {
        "first_op_at": plain.first_op_at,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "checks": {"bit_identical": identical, "macs": macs,
                   "coverage": {"value": coverage, "min": MIN_COVERAGE,
                                "gated": ctx.workload.gate_coverage, "ok": coverage_ok}},
        "correct": failed == 0 and identical and macs["ok"] and coverage_ok,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
        "samples": {"plain_img_per_s": plain.rates, "traced_img_per_s": traced.rates},
        "table": tracer.table_rows(),
        "spans": {name: {"total_s": spans.total[name], "self_s": spans.self_time[name],
                         "count": spans.count[name]} for name in sorted(spans.total)},
    }


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, from the library numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: Workload, seed: int) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": asdict(workload),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed operation (set-up timing)")
    parser.add_argument("--tiny", action="store_true",
                        help="a tiny net and data, for the smoke test")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if src not in Path(thriftynet.__file__).resolve().parents:
        print(f"worker: thriftynet imported from {thriftynet.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    ctx = set_up(workload, args.seed)
    if args.setup_only:
        print(json.dumps({"first_op_at": perf_counter()}))
        return 0
    try:
        run = traced_run if args.trace else plain_run
        result = run(ctx, args.seconds)
    finally:
        shutil.rmtree(ctx.work_dir, ignore_errors=True)
    result["env"] = environment(workload, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
