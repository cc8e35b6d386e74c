"""Span recording from outside the package.

Every layer is timed by replacing a public function with a wrapper at the
name its caller looks it up by, so the package itself is never edited.
Spans stay in memory and are written out when the run ends. A layer's self
time is its span minus the spans of its children; spans are strictly
nested because the package runs on one Python thread.

The optimizer-step clock (GradientTape() creation to the return of
AdamW.step) is installed on untraced runs as well, because the step
latency is an end-to-end metric; everything else is installed only when
tracing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

from sparseattn.tensor import Tensor

# (module the caller looks the name up in, attribute, span name).
# `sparseattn.train` is the train() function, which shadows the submodule,
# so modules are always reached through importlib.
PATCHES = [
    ("sparseattn.train", "model_forward", "model.model_forward"),
    ("sparseattn.model", "model_forward", "model.model_forward"),  # predict()
    ("sparseattn.model", "coarse_forward", "coarse.coarse_forward"),
    ("sparseattn.model", "select_top_k", "selector.select_top_k"),
    ("sparseattn.model", "embed_pixels", "embedding.embed_pixels"),
    ("sparseattn.model", "fine_forward", "fine.fine_forward"),
    ("sparseattn.model", "classifier_forward", "model.classifier_forward"),
    ("sparseattn.coarse", "conv2d", "tensor.conv2d"),
    ("sparseattn.baseline", "conv2d", "tensor.conv2d"),
    ("sparseattn.baseline", "baseline_forward", "baseline.baseline_forward"),
    ("sparseattn.train", "total_loss", "losses.total_loss"),
    ("sparseattn.baseline", "focal_loss", "losses.focal_loss"),
    ("sparseattn.train", "checkpoint_bytes", "model.checkpoint_bytes"),
    ("sparseattn.train", "update_k", "selector.update_k"),
]
# modules whose GradientTape() starts an optimizer step
STEP_MODULES = ["sparseattn.train", "sparseattn.baseline"]

STEP = "train.step"
TRAIN = "train.train"
FORWARD_NAMES = ("model.model_forward", "baseline.baseline_forward")
LOSS_NAMES = ("losses.total_loss", "losses.focal_loss")


def _tape_of(obj):
    """The tape an argument records on: a tensor's own tape, or the tape of
    a module's first parameter."""
    if isinstance(obj, Tensor):
        return obj.tape
    params = getattr(obj, "params", None)
    if params is not None:
        return params()[0][1].tape
    return None


class Tracer:
    """Step clock plus, when `trace` is set, an in-memory span recorder.

    A span is a dict with name, start, end, parent (index of the enclosing
    span), item (the step or image it belongs to), and optional extras:
    `ops` (tape ops it recorded), `k` (pixel budget), `hit` (foreground
    share of the selected pixels).
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.step_ms: list[float] = []
        self.step_cpu_ms: list[float] = []
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._step_start: tuple[float, float] | None = None
        self._steps = 0
        self.between_steps = None             # called after each optimizer step
        self.image_ids: dict[int, int] = {}   # id(pixel array) -> image index
        self.masks: dict[int, object] = {}    # id(pixel array) -> foreground mask

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, item=None) -> int:
        parent = self._open[-1] if self._open else None
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": parent, "item": item}
        if parent is not None:
            up = self.spans[parent]
            span["item"] = item if item is not None else up["item"]
            span["in_step"] = up["in_step"] or up["name"] == STEP
            span["in_train"] = up["in_train"] or up["name"] == TRAIN
        else:
            span["in_step"] = span["in_train"] = False
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> dict:
        # close anything left open inside this span by an exception
        while self._open and self._open[-1] != index:
            self.spans[self._open.pop()]["end"] = time.perf_counter()
        if self._open:
            self._open.pop()
        span = self.spans[index]
        span["end"] = time.perf_counter()
        return span

    def wrap(self, name: str, fn, count_ops: bool = False, annotate=None):
        """`fn` inside a span; identity when not tracing."""
        if not self.trace:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.trace:
                return fn(*args, **kwargs)
            tape = _tape_of(args[0]) if count_ops and args else None
            before = len(tape._ops) if tape is not None else 0
            item = None
            if name in FORWARD_NAMES and id(args[1].data) in self.image_ids:
                item = f"image:{self.image_ids[id(args[1].data)]}"
            index = self.begin(name, item)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if tape is not None:
                span["ops"] = len(tape._ops) - before
            if annotate is not None:
                # its own span, so the caller's self time does not absorb it
                note = self.begin("trace.note")
                annotate(span, args, result)
                self.end(note)
            return result

        return traced

    # -- step clock ----------------------------------------------------------

    def _tape_factory(self, tape_cls):
        def start_step():
            self._steps += 1
            if self.trace:
                self.begin(STEP, f"step:{self._steps}")
            self._step_start = (time.perf_counter(), time.process_time())
            return tape_cls()
        return start_step

    def _adamw_step(self, step):
        tracer = self

        @functools.wraps(step)
        def timed_step(opt):
            index = tracer.begin("train.adamw") if tracer.trace else None
            try:
                step(opt)
            finally:
                if index is not None:
                    tracer.end(index)
            end, cpu_end = time.perf_counter(), time.process_time()
            if tracer._step_start is not None:
                start, cpu_start = tracer._step_start
                tracer.step_ms.append(1e3 * (end - start))
                tracer.step_cpu_ms.append(1e3 * (cpu_end - cpu_start))
                tracer._step_start = None
            if tracer.trace and tracer._open and tracer.spans[tracer._open[-1]]["name"] == STEP:
                tracer.end(tracer._open[-1])
            if tracer.between_steps is not None:
                index = tracer.begin("bench.between_steps") if tracer.trace else None
                tracer.between_steps()
                if index is not None:
                    tracer.end(index)
        return timed_step

    def _backward(self, backward):
        tracer = self

        @functools.wraps(backward)
        def traced_backward(tape, root):
            if not tracer.trace:
                return backward(tape, root)
            ops = len(tape._ops)
            index = tracer.begin("tensor.backward")
            try:
                backward(tape, root)
            finally:
                tracer.end(index)["ops"] = ops
        return traced_backward

    # -- annotations ---------------------------------------------------------

    def _note_k(self, span, args, _result):
        span["k"] = int(args[2])

    def _note_hits(self, span, args, pixels):
        mask = self.masks.get(id(args[1].data))
        if mask is not None and pixels:
            span["hit"] = sum(bool(mask[p.row, p.col]) for p in pixels) / len(pixels)

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every hook; returns a function that undoes the patches.

        Raises AttributeError when a patched name no longer exists, so a
        rename in the package fails loudly instead of reporting 0 ms."""
        undo = []

        def patch(owner, attr, value):
            original = getattr(owner, attr)   # AttributeError on a rename
            undo.append((owner, attr, original))
            setattr(owner, attr, value)

        train_mod = importlib.import_module("sparseattn.train")
        for mod_name in STEP_MODULES:
            mod = importlib.import_module(mod_name)
            patch(mod, "GradientTape", self._tape_factory(mod.GradientTape))
        patch(train_mod.AdamW, "step", self._adamw_step(train_mod.AdamW.step))
        if self.trace:
            tape_cls = importlib.import_module("sparseattn.tensor").GradientTape
            patch(tape_cls, "backward", self._backward(tape_cls.backward))
            counted = {"model.model_forward", "coarse.coarse_forward",
                       "embedding.embed_pixels", "fine.fine_forward",
                       "model.classifier_forward", "baseline.baseline_forward",
                       "losses.total_loss", "losses.focal_loss"}
            notes = {"model.model_forward": self._note_k,
                     "selector.select_top_k": self._note_hits}
            for mod_name, attr, span_name in PATCHES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                patch(mod, attr, self.wrap(span_name, fn, span_name in counted,
                                           notes.get(span_name)))

        def restore():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return restore

    # -- reading the spans ---------------------------------------------------

    def durations(self, name: str, where=None) -> list[float]:
        """Milliseconds of every span called `name` (optionally filtered)."""
        return [1e3 * (s["end"] - s["start"]) for s in self.spans
                if s["name"] == name and (where is None or where(s))]

    def self_ms(self, name: str) -> float:
        """Total self time in ms of spans called `name`."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return 1e3 * sum(s["end"] - s["start"] - child[i]
                         for i, s in enumerate(self.spans) if s["name"] == name)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
