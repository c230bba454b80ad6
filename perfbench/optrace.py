"""Op-level tracer for the benchmark's traced run (``--trace 1``).

Nothing in the package changes.  ``OpTracer.installed(modules)`` swaps, for
the duration of a ``with`` block, the public names the package calls through:

* the tensor primitives under the names ``thriftynet.model`` imports them by,
  each timed as a forward span of its op kind;
* ``Tape`` in the given modules, replaced by a subclass that times every
  recorded backward closure under the op kind that recorded it;
* ``ThriftyNet.forward`` and ``SGD.step``, and the training/data entry points
  (loss, augmentation, batching, evaluate, checkpoint save, train).

Spans nest; a span's self time is its duration minus the time of the spans
opened inside it.  Time spent on the tracer's own counting is a span of its
own (``trace.bookkeeping``), so it is not charged to the code around it.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from thriftynet import SGD, BatchNormState, ConvKernel, Tape, ThriftyNet, Value

# op name (as imported by thriftynet.model) -> op kind
OP_KINDS = {
    "conv2d": "conv",
    "add_scaled": "shortcut",
    "add": "shortcut",
    "batchnorm": "bn",
    "maxpool2x2": "pool",
    "relu": "act",
    "tanh_act": "act",
    "channel_pad": "head",
    "global_max_pool": "head",
    "reshape": "head",
    "linear": "head",
}
KINDS = ("conv", "shortcut", "bn", "pool", "act", "head")

# plain functions timed as one span each, by the name they are called under
FUNCTION_SPANS = {
    "softmax_cross_entropy": "tensor.loss",
    "augment_batch": "data.augment",
    "draw_batch": "data.batch",
    "evaluate": "training.evaluate",
    "save_train_checkpoint": "training.checkpoint",
    "train": "training.train",
}
# generators whose every step (producing one batch) is a span
GENERATOR_SPANS = {
    "batches": "data.batch",
    "_epoch_batches": "data.batch",
}
BOOKKEEPING = "trace.bookkeeping"


class Spans:
    """Wall-clock spans kept in memory: total and self time per name."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, time of child spans]

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> float:
        name, start, children = self._stack.pop()
        duration = perf_counter() - start
        self.total[name] += duration
        self.self_time[name] += duration - children
        self.count[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration


def _array_bytes(obj) -> int:
    if isinstance(obj, Value):
        return obj.data.nbytes
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, ConvKernel):
        return obj.weights.data.nbytes
    if isinstance(obj, BatchNormState):
        return (obj.gamma.data.nbytes + obj.beta.data.nbytes
                + obj.running_mean.nbytes + obj.running_var.nbytes)
    return 0


def _held_bytes(entries) -> int:
    """Bytes of the distinct arrays that tape records and their backward
    closures keep alive; views are charged once, as their base array."""
    roots: dict[int, int] = {}

    def visit(obj) -> None:
        if isinstance(obj, Value):
            obj = obj.data
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            roots[id(obj)] = obj.nbytes
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                visit(item)

    for out, backward in entries:
        visit(out)
        for cell in backward.__closure__ or ():
            try:
                visit(cell.cell_contents)
            except ValueError:  # empty cell
                continue
    return sum(roots.values())


class OpTracer:
    """Collects spans, per-kind op counts and a per-(kind, iteration) table."""

    def __init__(self) -> None:
        self.spans = Spans()
        # (kind, iteration t or None for head ops) -> [calls, fwd_s, bwd_s, bytes, macs]
        self.table: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.samples = 0  # images pushed through ThriftyNet.forward
        self.tape_records: list[int] = []
        self.tape_held_bytes: list[int] = []
        self._kind: str | None = None
        self._t = -1

    # -- wrappers ----------------------------------------------------------

    def _op(self, name: str, fn):
        kind = OP_KINDS[name]
        span = f"tensor.{kind}.fwd"

        def traced(*args, **kwargs):
            if kind == "conv":
                self._t += 1  # one shared conv per recursion step
            outer, self._kind = self._kind, kind
            self.spans.enter(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                duration = self.spans.exit()
                self._kind = outer
            self.spans.enter(BOOKKEEPING)
            self._count(name, kind, args, kwargs, out, duration)
            self.spans.exit()
            return out

        return traced

    def _count(self, name, kind, args, kwargs, out, duration) -> None:
        moved = out.data.nbytes + sum(_array_bytes(a) for a in args)
        moved += sum(_array_bytes(v) for k, v in kwargs.items() if k != "tape")
        macs = 0
        if name == "conv2d":  # conv2d(x, kernel): f_in/groups * a * b per output
            macs = out.data.size * args[1].weights.data[0].size
        elif name == "linear":  # linear(x, weights, bias): f per output
            macs = out.data.size * args[1].data.shape[0]
        row = self.table[(kind, None if kind == "head" else self._t)]
        row[0] += 1
        row[1] += duration
        row[3] += moved
        row[4] += macs

    def _timed_backward(self, backward):
        kind = self._kind or "other"
        row = self.table[(kind, None if kind == "head" else self._t)]
        span = f"tensor.{kind}.bwd"

        def timed(grad) -> None:
            self.spans.enter(span)
            try:
                backward(grad)
            finally:
                row[2] += self.spans.exit()

        return timed

    def _tape_class(self):
        tracer = self

        class TracedTape(Tape):
            """Tape whose backward closures are timed under their op kind."""

            def __init__(self) -> None:
                super().__init__()
                self.entries = []

            def record(self, out, backward) -> None:
                self.entries.append((out, backward))
                super().record(out, tracer._timed_backward(backward))

            def backward(self, out, seed_grad) -> None:
                tracer.spans.enter(BOOKKEEPING)
                tracer.tape_records.append(len(self))
                tracer.tape_held_bytes.append(_held_bytes(self.entries))
                tracer.spans.exit()
                tracer.spans.enter("tensor.tape.backward")
                try:
                    super().backward(out, seed_grad)
                finally:
                    tracer.spans.exit()

        return TracedTape

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            self.spans.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.exit()

        return traced

    def _generator(self, name: str, fn):
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self.spans.enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.spans.exit()
                yield item

        return traced

    def _forward(self, fn):
        def forward(model, x, *args, **kwargs):
            self._t = -1
            self.samples += x.shape[0]
            self.spans.enter("model.forward")
            try:
                return fn(model, x, *args, **kwargs)
            finally:
                self.spans.exit()

        return forward

    @contextmanager
    def installed(self, modules):
        """Route the package's public entry points through this tracer."""
        saved = []

        def patch(owner, name, new) -> None:
            saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, new)

        try:
            for module in modules:
                for name in OP_KINDS:
                    if hasattr(module, name):
                        patch(module, name, self._op(name, getattr(module, name)))
                for name, span in FUNCTION_SPANS.items():
                    if hasattr(module, name):
                        patch(module, name, self._span(span, getattr(module, name)))
                for name, span in GENERATOR_SPANS.items():
                    if hasattr(module, name):
                        patch(module, name, self._generator(span, getattr(module, name)))
                if getattr(module, "Tape", None) is Tape:
                    patch(module, "Tape", self._tape_class())
            patch(ThriftyNet, "forward", self._forward(ThriftyNet.forward))
            patch(SGD, "step", self._span("training.sgd", SGD.step))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def op_seconds(self) -> float:
        """Self time of every tensor op, forward and backward, plus the loss."""
        names = [f"tensor.{k}.{d}" for k in (*KINDS, "other") for d in ("fwd", "bwd")]
        return sum(self.spans.self_time[n] for n in names) + self.spans.self_time["tensor.loss"]

    def kind_totals(self, kind: str) -> dict:
        """Calls, bytes and MACs of one op kind, summed over iterations."""
        rows = [row for (k, _), row in self.table.items() if k == kind]
        return {"calls": sum(r[0] for r in rows), "bytes": sum(r[3] for r in rows),
                "macs": sum(r[4] for r in rows)}

    def table_rows(self) -> list[dict]:
        """The per-(kind, iteration t) table; times are totals over the run."""
        return [{"kind": kind, "t": t, "calls": calls, "fwd_s": fwd_s, "bwd_s": bwd_s,
                 "bytes_computed": moved, "macs": macs}
                for (kind, t), (calls, fwd_s, bwd_s, moved, macs) in sorted(
                    self.table.items(), key=lambda item: (item[0][0], item[0][1] or 0))]
