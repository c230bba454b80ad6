"""The paper's CIFAR-10 net (f=64, T=15, h=5, 4 pools): float32 gradients
against float64 ones, the structure of its tape, and the memory one
training step and one eval forward hold."""

import tracemalloc

import numpy as np

from _synth import uniform_alpha
from thriftynet.gradcheck import max_rel_error
from thriftynet.model import ThriftyConfig, ThriftyNet
from thriftynet.planner import make_schedule
from thriftynet.tensor import Tape, softmax_cross_entropy

PAPER = ThriftyConfig(filters=64, iterations=15, schedule=make_schedule(15, 4), history=5)


def graded(model: ThriftyNet, x: np.ndarray, labels: np.ndarray) -> dict:
    tape = Tape()
    logits = model.forward(x, mode="train", tape=tape)
    _, grad = softmax_cross_entropy(logits.data, labels)
    tape.backward(logits, grad)
    return {name: v.grad for name, v in model.trainables()}


def test_float32_gradients_track_float64_at_paper_depth():
    # Batch norm's per-channel sums run over 16*32*32 values per channel at
    # t=0..2; summed row after row in float32 they move these gradients
    # about ten times past the bound.
    m32 = uniform_alpha(ThriftyNet(PAPER, seed=1), seed=1)
    m64 = ThriftyNet(PAPER, seed=1, dtype=np.float64)
    for (_, v64), (_, v32) in zip(m64.trainables(), m32.trainables()):
        v64.data = v32.data.astype(np.float64)  # the very same weights
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, size=16)
    g32 = graded(m32, x, labels)
    g64 = graded(m64, x.astype(np.float64), labels)
    errors = {name: max_rel_error(g32[name], g64[name]) for name in g64}
    assert max(errors.values()) <= 5e-4, errors


def test_paper_forward_records_83_ops():
    # 4 per iteration (conv, relu, add_scaled, bn), 21 pools (each pooling
    # step pools x_{t+1} and every lag still reachable, never the constant
    # x_0), and 2 for the head (global max pool, linear)
    model = ThriftyNet(PAPER, seed=0)
    x = np.random.default_rng(4).standard_normal((2, 3, 32, 32)).astype(np.float32)
    tape = Tape()
    model.forward(x, mode="train", tape=tape)
    assert len(tape) == 4 * 15 + 21 + 2 == 83


def traced_step(batch: int) -> tuple[int, int]:
    """(bytes held after the forward, step peak) of one training step at
    `batch`, traced by tracemalloc (numpy reports its buffers to it) after
    an untraced warm-up step: lazy imports and first-use allocations."""
    model = uniform_alpha(ThriftyNet(PAPER, seed=1), seed=1)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 10, size=batch)

    def step(traced: bool) -> int:
        for _, v in model.trainables():
            v.grad = None
        tape = Tape()
        logits = model.forward(x, mode="train", tape=tape)
        held = tracemalloc.get_traced_memory()[0] if traced else 0
        _, grad = softmax_cross_entropy(logits.data, labels)
        tape.backward(logits, grad)
        return held

    step(traced=False)
    tracemalloc.start()
    try:
        held = step(traced=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, peak


def test_paper_step_holds_only_what_the_backward_reads():
    # A tape that cached the im2col patches, kept the activations no
    # backward reads, or kept each record after it ran held 50-108 MB after
    # the forward or peaked at 73-159 MB over the step.
    held, peak = traced_step(8)
    assert held <= 30e6, f"{held / 1e6:.1f} MB held after the forward"
    assert peak <= 60e6, f"{peak / 1e6:.1f} MB step peak"


def test_paper_step_keeps_each_activation_once():
    # A 32x32 activation is 8.4 MB here.  Keeping each train-mode BN output
    # for the conv and shortcut backwards that read it, next to the xhat it
    # is rebuilt from, ReLU masks at one byte per value, and pooling the
    # lags after BN held 77.9 MB after the forward and peaked at 99.0 MB;
    # rebuilding the outputs, bit-packing the masks and pooling first hold
    # 48.4 MB and peak at 72.7 MB.
    held, peak = traced_step(32)
    assert held <= 60e6, f"{held / 1e6:.1f} MB held after the forward"
    assert peak <= 85e6, f"{peak / 1e6:.1f} MB step peak"


def test_paper_eval_forward_gathers_patches_in_small_chunks():
    # An untaped batch-16 forward, traced by tracemalloc after a warm-up.
    # A conv that gathered the patch matrix of the whole batch at once
    # (37.7 MB at 32x32) peaked at 68 MB.
    model = uniform_alpha(ThriftyNet(PAPER, seed=1), seed=1)
    x = np.random.default_rng(6).standard_normal((16, 3, 32, 32)).astype(np.float32)
    model.forward(x, mode="eval")  # warm-up: lazy imports and first-use allocations
    tracemalloc.start()
    try:
        model.forward(x, mode="eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45e6, f"{peak / 1e6:.1f} MB forward peak"


def test_paper_eval_forward_holds_one_iteration_of_transients():
    # An untaped batch-64 forward, traced by tracemalloc after a warm-up.
    # A 32x32 activation is 16.8 MB here.  Widening the image x_0 to f
    # channels, a full-size temporary per lag in the shortcut sum, and
    # keeping the conv output, the activation and the shortcut sum alive
    # through batch norm and pooling peaked at 113-118 MB.
    model = uniform_alpha(ThriftyNet(PAPER, seed=1), seed=1)
    x = np.random.default_rng(6).standard_normal((64, 3, 32, 32)).astype(np.float32)
    model.forward(x, mode="eval")  # warm-up: lazy imports and first-use allocations
    tracemalloc.start()
    try:
        model.forward(x, mode="eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80e6, f"{peak / 1e6:.1f} MB forward peak"


def test_paper_eval_forward_runs_in_image_chunks():
    # An untaped batch-500 forward, traced by tracemalloc after a warm-up.
    # One pass over the whole batch held 500 images' activations and
    # peaked at 531 MB; chunks of 71-72 images peak at about 77 MB.
    model = uniform_alpha(ThriftyNet(PAPER, seed=1), seed=1)
    x = np.random.default_rng(7).standard_normal((500, 3, 32, 32)).astype(np.float32)
    model.forward(x[:64], mode="eval")  # warm-up: lazy imports and first-use allocations
    tracemalloc.start()
    try:
        model.forward(x, mode="eval")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e6, f"{peak / 1e6:.1f} MB forward peak"
