"""The three workloads, their output checks, and the per-layer metrics
derived from a traced run.

Every workload builds its inputs from the seed with the package's own
generator (the acceptance fixture: 900 synthetic 32x32 images, split
80/20), drives the package only through its public functions, and reports
the same end-to-end metrics, each meaning the workload's own version of it:

  img_per_s       images per second through the workload's main call:
                  train() / evaluate() at k=160 / train_baseline()
  op_ms_p50/p90   one unit of work: an optimizer step (GradientTape()
                  creation to the return of AdamW.step) on the training
                  workloads, one predict() at k=160 on infer-sparse
  eval_img_per_s  tape-free evaluation of the 180 test images: evaluate()
                  at k=512 (train-sparse on the model it trained,
                  infer-sparse on the checkpoint), evaluate_baseline()
  setup_s         import (in a fresh interpreter) + the workload's set-up,
                  each the median of three
  peak_rss_mb     the process's ru_maxrss

Throughputs are medians over repeated calls after a warm-up. Latencies
are a median and a p90 with at least ten samples beyond it: over all
steps of the run (at least 100), and on infer-sparse the median over
rounds of each 180-image round's percentiles.

Times are wall-clock times scaled to a reference host speed. On a shared
host the speed at which the same code runs drifts by up to 2x within a
minute, while the CPU time stays equal to the wall time, so neither clock
alone is steady. A fixed calibration kernel (small numpy products and
interpreter work, the kind of work the package does) runs between timed
calls; each call's wall time is divided by its slowness, the mean of the
kernel times just before and after it over REFERENCE_KERNEL_S. Optimizer
steps and predict() calls are bracketed the same way by a ten times
shorter kernel, run after every step and every PREDICT_GROUP images. The
unscaled wall and CPU times are printed beside the metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from tracer import FORWARD_NAMES, LOSS_NAMES, STEP, TRAIN

IMAGE_SIZE = 32
SAMPLES_PER_CLASS = 300
CLASSES = 3
K_TRAIN = 512      # the fixture's k_init; the selector's largest forward stage
K_FINAL = 160      # the fixture's k_min, which it ends at
EPOCHS = 2         # the controller first moves k after epoch 2, so every step runs at k=512
BATCH = 32
LEARNING_RATE = 3e-3
VAL_FRACTION = 0.2  # TrainConfig's default hold-out share
SETUP_REPS = 3      # and as many imports, each in a fresh interpreter
MIN_SAMPLES = 100   # a p90 with ten samples beyond it
TRAIN_SHARE = 0.7   # of --seconds, for the training phase; the rest evaluates
MIN_EVAL_PASSES = 12
COST_PROBE_PAIRS = 5

REFERENCE_KERNEL_S = 0.015   # the kernel's time on a 2-CPU Xeon host at its fastest
KERNEL_ITERATIONS = 2500
SHORT_KERNEL_ITERATIONS = 250  # run after every optimizer step and every PREDICT_GROUP predicts
SHORT_REFERENCE_S = REFERENCE_KERNEL_S * SHORT_KERNEL_ITERATIONS / KERNEL_ITERATIONS
PREDICT_GROUP = 10
KERNEL_MATRIX = np.random.default_rng(0).random((16, 16))


clock = time.perf_counter


def timed(fn, *args):
    """(result, wall seconds, process CPU seconds) of one call."""
    wall, cpu = clock(), time.process_time()
    out = fn(*args)
    return out, clock() - wall, time.process_time() - cpu


def import_seconds(src: Path) -> tuple[float, float]:
    """Wall and CPU seconds of `import sparseattn` in a fresh interpreter,
    timed from inside it, so interpreter start-up is left out."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "w, c = time.perf_counter(), time.process_time(); import sparseattn; "
            "print(time.perf_counter() - w, time.process_time() - c)")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=60)
    wall, cpu = map(float, out.stdout.split())
    return wall, cpu


def kernel_seconds(iterations: int = KERNEL_ITERATIONS) -> float:
    """Wall time of the fixed calibration kernel."""
    a = KERNEL_MATRIX
    start = clock()
    for _ in range(iterations):
        b = a @ a
        a = b / np.abs(b).max()
        sum(range(20))
    return clock() - start


class Run:
    """One workload run: its inputs, clocks, failure accounting and output."""

    def __init__(self, sa, tracer, seed: int, seconds: float, work_dir: Path):
        self.sa = sa
        self.tracer = tracer
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # metric -> kind ("scaled", "wall", "cpu") -> samples
        self.samples = defaultdict(lambda: defaultdict(list))
        self.info: dict[str, float] = {}      # inputs to the per-layer metrics
        self.tracing = tracer.trace
        self.primary_rates: list[float] = []    # scaled img/s of each main-call unit
        self.reference_rates: list[float] = []  # the same, untraced, in a traced run
        self.test_set = None     # what the cost probe evaluates
        self.sparse = None       # the workload's sparse model, if any
        self.dense = None        # the workload's dense model, if any
        kernel_seconds()         # warm-up
        self.kernel_s = [kernel_seconds()]
        self.short_kernel_s: list[float] = []
        tracer.between_steps = self.short_kernel

    def short_kernel(self) -> float:
        self.short_kernel_s.append(kernel_seconds(SHORT_KERNEL_ITERATIONS))
        return self.short_kernel_s[-1]

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    # -- clocks --------------------------------------------------------------

    def measure(self, fn, *args):
        """(result, wall s, CPU s, slowness) of one call; slowness is the
        mean of the kernel times just before and after it over the
        reference time."""
        out, wall, cpu = timed(fn, *args)
        self.kernel_s.append(kernel_seconds())
        slowness = (self.kernel_s[-2] + self.kernel_s[-1]) / (2 * REFERENCE_KERNEL_S)
        return out, wall, cpu, slowness

    def add_rate(self, name: str, count: int, wall: float, cpu: float, slowness: float):
        rate = count / wall * slowness
        self.samples[name]["scaled"].append(rate)
        self.samples[name]["wall"].append(count / wall)
        self.samples[name]["cpu"].append(count / cpu)
        return rate

    def add_time(self, name: str, wall: float, cpu: float, slowness: float) -> None:
        self.samples[name]["scaled"].append(wall / slowness)
        self.samples[name]["wall"].append(wall)
        self.samples[name]["cpu"].append(cpu)

    def slowness(self) -> float:
        """The run's median slowness, for spans timed without a kernel."""
        return statistics.median(self.kernel_s) / REFERENCE_KERNEL_S

    # -- units of the main call ----------------------------------------------

    def start_unit(self) -> None:
        """In a traced run, main-call units alternate traced and untraced;
        the untraced ones are the base of the tracing overhead."""
        if self.tracing:
            self.tracer.trace = len(self.primary_rates) <= len(self.reference_rates)

    def record_unit(self, rate: float) -> None:
        traced = self.tracer.trace or not self.tracing
        (self.primary_rates if traced else self.reference_rates).append(rate)
        self.tracer.trace = self.tracing

    def units_pending(self) -> bool:
        return not self.primary_rates or (self.tracing and not self.reference_rates)

    # -- building blocks -----------------------------------------------------

    def fixture(self, generate):
        """(train set, test set) of the acceptance fixture for this seed."""
        spec = self.sa.SyntheticSpec(image_size=IMAGE_SIZE, seed=self.seed, noise_sigma=0.05,
                                     samples_per_class=SAMPLES_PER_CLASS)
        return self.sa.split(generate(spec), 0.8, seed=self.seed)

    def sparse_model(self, k_init: int):
        return self.sa.build_model(seed=self.seed, image_shape=(IMAGE_SIZE, IMAGE_SIZE),
                                   class_count=CLASSES, hidden=32, dim=4, heads=2,
                                   k_init=k_init, k_min=K_FINAL)

    def dense_model(self):
        return self.sa.build_baseline(self.seed, (IMAGE_SIZE, IMAGE_SIZE), CLASSES)

    def train_config(self):
        return self.sa.TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=self.seed,
                                   learning_rate=LEARNING_RATE, val_fraction=VAL_FRACTION)

    def register(self, images, masks=None) -> None:
        """Let spans name the image they belong to and score selections
        against the generator's foreground masks."""
        for i, sample in enumerate(images):
            self.tracer.image_ids[id(sample.pixels.data)] = i
            mask = sample.foreground_mask if masks is None else masks[i]
            if mask is not None:
                self.tracer.masks[id(sample.pixels.data)] = mask

    def time_import(self, src: Path) -> None:
        for _ in range(SETUP_REPS):
            (wall, cpu), _, _, slowness = self.measure(import_seconds, src)
            self.add_time("import_s", wall, cpu, slowness)

    def setup(self, build):
        """Run `build` SETUP_REPS times, each timed; returns the last result."""
        for _ in range(SETUP_REPS):
            out, wall, cpu, slowness = self.measure(build)
            self.add_time("setup_s", wall, cpu, slowness)
        return out

    def account_eval(self, report, images) -> np.ndarray:
        """Every image must land in exactly one confusion cell, on its label's row."""
        conf = np.asarray(report.confusion, dtype=np.int64)
        expected = np.bincount([s.label for s in images], minlength=CLASSES)
        self.attempted += len(images)
        self.failed += abs(len(images) - int(conf.sum()))
        self.check(np.array_equal(conf.sum(axis=1), expected),
                   "confusion rows do not match the label counts")
        return conf

    def train_phase(self, train_fn, make_model, train_set, deadline: float):
        """A fresh model and one train call per unit, until the deadline
        has passed and MIN_SAMPLES steps are timed; returns the last model.

        A train call lasts seconds, over which the host speed drifts, so
        the short kernel runs after every step: each step is scaled by the
        mean of the kernels just before and after it, and the call by the
        mean of all its kernels, after their own time is taken out of its
        wall and CPU time."""
        train_fn = self.tracer.wrap(TRAIN, train_fn)
        n_fit = fit_images(train_set) * EPOCHS
        steps_per_call = math.ceil(fit_images(train_set) / BATCH) * EPOCHS
        step_ms, step_cpu_ms = self.tracer.step_ms, self.tracer.step_cpu_ms
        first_logs = None
        while (self.units_pending() or len(self.samples["step_ms"]["scaled"]) < MIN_SAMPLES
               or clock() < deadline):
            before, kernels_before = len(step_ms), len(self.short_kernel_s)
            self.attempted += steps_per_call
            self.start_unit()
            try:
                (model, logs), wall, cpu = timed(train_fn, make_model(), train_set,
                                                 self.train_config())
            except (ArithmeticError, ValueError):
                self.failed += steps_per_call - (len(step_ms) - before)
                raise
            kernels = self.short_kernel_s[kernels_before:]
            slowness = statistics.fmean(kernels) / SHORT_REFERENCE_S
            self.record_unit(self.add_rate("img_per_s", n_fit, wall - sum(kernels),
                                           cpu - sum(kernels), slowness))
            for i, (ms, cpu_ms) in enumerate(zip(step_ms[before:], step_cpu_ms[before:])):
                bracket = statistics.fmean(kernels[max(0, i - 1):i + 1])
                self.add_time("step_ms", ms, cpu_ms, bracket / SHORT_REFERENCE_S)
            self.failed += abs(steps_per_call - (len(step_ms) - before))
            self.check(len(logs) == EPOCHS, f"{len(logs)} epoch logs, expected {EPOCHS}")
            self.check(all(math.isfinite(rec[key]) for rec in logs
                           for key in ("train_loss", "val_loss")),
                       "non-finite training or validation loss")
            if first_logs is None:
                first_logs = logs
            self.check(logs == first_logs, "repeated seeded training gave different logs")
        # a unit has too few steps for its own p90, so the steps are pooled
        for kind, ms in self.samples.pop("step_ms").items():
            p50, p90 = p50_p90(ms)
            self.samples["op_ms_p50"][kind].append(p50)
            self.samples["op_ms_p90"][kind].append(p90)
        self.info["epochs"] = EPOCHS * len(self.primary_rates)
        self.info["val_accuracy"] = logs[-1]["val_accuracy"]
        return model

    def eval_phase(self, evaluate_fn, model, images, deadline: float):
        """A warm-up pass, then timed passes until the deadline (at least
        MIN_EVAL_PASSES); returns the last confusion matrix."""
        evaluate_fn = self.tracer.wrap("train.evaluate", evaluate_fn)
        conf = self.account_eval(evaluate_fn(model, images), images)
        while (len(self.samples["eval_img_per_s"]["scaled"]) < MIN_EVAL_PASSES
               or clock() < deadline):
            report, wall, cpu, slowness = self.measure(evaluate_fn, model, images)
            conf = self.account_eval(report, images)
            self.add_rate("eval_img_per_s", len(images), wall, cpu, slowness)
        return conf

    def check_outputs(self, logits_of, images, conf, what: str) -> list[int]:
        """Recompute every image's logits, untimed and untraced: they must be
        finite, and their argmax must agree with the confusion matrix `what`
        returned; returns the argmaxes."""
        self.tracer.trace = False
        labels = []
        for sample in images:
            logits = logits_of(sample.pixels).data
            self.failed += not bool(np.all(np.isfinite(logits)))
            labels.append(int(np.argmax(logits)))
        self.tracer.trace = self.tracing
        self.check(np.array_equal(confusion(images, labels), conf),
                   f"{what} disagrees with the recomputed logits")
        return labels

    def check_sparse(self, model, images, k: int, conf, predictions=None) -> None:
        """check_outputs at budget k, plus predict() and the budget's bounds."""
        labels = self.check_outputs(lambda pixels: self.sa.model_forward(model, pixels, k)[0],
                                    images, conf, f"evaluate() at k={k}")
        if predictions is not None:
            wrong = sum(p != labels[i % len(images)] for i, p in enumerate(predictions))
            self.failed += wrong
            self.check(wrong == 0, f"{wrong} predict() results disagree with model_forward()")
        ctrl = model.controller
        self.check(ctrl.k_min <= ctrl.k <= ctrl.k_max,
                   f"k={ctrl.k} outside [{ctrl.k_min}, {ctrl.k_max}]")

    # -- results -------------------------------------------------------------

    def end_to_end(self):
        """(metrics, the same figures unscaled in wall and CPU time)."""
        out = {"scaled": {}, "wall": {}, "cpu": {}}
        for kind, figures in out.items():
            figures["setup_s"] = (statistics.median(self.samples["import_s"][kind])
                                  + statistics.median(self.samples["setup_s"][kind]))
            for name in ("img_per_s", "eval_img_per_s", "op_ms_p50", "op_ms_p90"):
                figures[name] = statistics.median(self.samples[name][kind])
        out["scaled"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        out["kernel_ms_median"] = 1e3 * statistics.median(self.kernel_s)
        return out.pop("scaled"), out


def p50_p90(samples) -> tuple[float, float]:
    return statistics.median(samples), statistics.quantiles(samples, n=10)[-1]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def confusion(images, labels) -> np.ndarray:
    conf = np.zeros((CLASSES, CLASSES), dtype=np.int64)
    for sample, label in zip(images, labels):
        conf[sample.label, label] += 1
    return conf


def quantized(pixels: np.ndarray) -> np.ndarray:
    """What an 8-bit PGM round trip keeps of a [0, 1] image."""
    return np.round(np.clip(pixels, 0.0, 1.0) * 255.0).astype(np.uint8) / 255.0


def fit_images(train_set) -> int:
    """Images train() fits on per epoch: it holds out VAL_FRACTION of each
    class (at least one image) for validation."""
    counts = Counter(s.label for s in train_set).values()
    return sum(n - max(1, round(VAL_FRACTION * n)) if n >= 2 else n for n in counts)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def train_sparse(run: Run) -> None:
    """The acceptance fixture through train(), then evaluate() at k=512."""
    generate = run.tracer.wrap("data.generate", run.sa.generate)

    def setup():
        data = run.fixture(generate)
        run.sparse_model(K_TRAIN)
        return data

    train_set, test_set = run.setup(setup)
    run.register(train_set + test_set)
    start = clock()
    model = run.train_phase(run.sa.train, lambda: run.sparse_model(K_TRAIN), train_set,
                            start + TRAIN_SHARE * run.seconds)
    run.info["k_final"] = model.controller.k
    run.check(model.controller.k_min <= model.controller.k <= model.controller.k_max,
              "trained k outside its bounds")
    model.controller.k = K_TRAIN
    conf = run.eval_phase(run.sa.evaluate, model, test_set, start + run.seconds)
    run.check_sparse(model, test_set, K_TRAIN, conf)
    run.test_set, run.sparse = test_set, model


def dense_baseline(run: Run) -> None:
    """The same data and config through train_baseline(), then evaluate_baseline()."""
    generate = run.tracer.wrap("data.generate", run.sa.generate)

    def setup():
        data = run.fixture(generate)
        run.dense_model()
        return data

    train_set, test_set = run.setup(setup)
    run.register(train_set + test_set)
    start = clock()
    net = run.train_phase(run.sa.train_baseline, run.dense_model, train_set,
                          start + TRAIN_SHARE * run.seconds)
    conf = run.eval_phase(run.sa.evaluate_baseline, net, test_set, start + run.seconds)
    run.check_outputs(lambda pixels: run.sa.baseline_forward(net, pixels), test_set, conf,
                      "evaluate_baseline()")
    run.info["k_final"] = 0
    run.test_set, run.dense = test_set, net


def infer_sparse(run: Run) -> None:
    """Tape-free evaluate() of a fixed-seed checkpoint at k=160 and k=512
    and single-image predict() at k=160, on the 180 test images read back
    from PGM files. The checkpoint and PGM directory are written untimed."""
    sa = run.sa
    _, generated = run.fixture(sa.generate)
    saved = run.sparse_model(K_FINAL)
    checkpoint, pgm_dir = run.work_dir / "model.satm", run.work_dir / "test"
    sa.save_model(saved, checkpoint)
    sa.export_dataset(generated, pgm_dir)

    load_dataset = run.tracer.wrap("data.load_dataset", sa.load_dataset)
    load_model = run.tracer.wrap("model.load_model", sa.load_model)
    test_set, model = run.setup(lambda: (load_dataset(pgm_dir, class_count=CLASSES),
                                         load_model(checkpoint)))
    run.check([s.label for s in test_set] == [s.label for s in generated],
              "PGM labels differ from the generated ones")
    run.check(all(np.array_equal(s.pixels.data, quantized(g.pixels.data))
                  for s, g in zip(test_set, generated)),
              "PGM pixels differ from the generated image quantized to 8 bits")
    run.check(all(np.array_equal(a.data, b.data)
                  for (_, a), (_, b) in zip(model.params(), saved.params())),
              "loaded checkpoint differs from the saved model")
    run.register(test_set, [g.foreground_mask for g in generated])

    evaluate = run.tracer.wrap("train.evaluate", sa.evaluate)
    predict = run.tracer.wrap("model.predict", sa.predict)

    def evaluate_at(k):
        model.controller.k = k
        try:
            return evaluate(model, test_set)
        finally:
            model.controller.k = K_FINAL

    def predict_round():
        """predict() on each test image, in groups bracketed by short
        kernels; (label, wall s, CPU s, slowness) per image."""
        out, before = [], run.short_kernel()
        for start in range(0, len(test_set), PREDICT_GROUP):
            group = [timed(predict, model, s.pixels)
                     for s in test_set[start:start + PREDICT_GROUP]]
            after = run.short_kernel()
            slowness = (before + after) / (2 * SHORT_REFERENCE_S)
            out += [(label, wall, cpu, slowness) for label, wall, cpu in group]
            before = after
        return out

    for k in (K_FINAL, K_TRAIN):    # warm-up
        run.account_eval(evaluate_at(k), test_set)
    predictions, conf = [], {}
    deadline = clock() + run.seconds
    while run.units_pending() or len(predictions) < MIN_SAMPLES or clock() < deadline:
        for k, name in ((K_FINAL, "img_per_s"), (K_TRAIN, "eval_img_per_s")):
            if k == K_FINAL:
                run.start_unit()
            report, wall, cpu, slowness = run.measure(evaluate_at, k)
            rate = run.add_rate(name, len(test_set), wall, cpu, slowness)
            if k == K_FINAL:
                run.record_unit(rate)
            conf[k] = run.account_eval(report, test_set)
        timings = predict_round()
        predictions += [label for label, _, _, _ in timings]
        # each round's percentiles (18 samples beyond its p90); the
        # metrics are their medians, so one noisy round moves neither
        for kind, ms in (("scaled", [1e3 * wall / slow for _, wall, _, slow in timings]),
                         ("wall", [1e3 * wall for _, wall, _, _ in timings]),
                         ("cpu", [1e3 * cpu for _, _, cpu, _ in timings])):
            p50, p90 = p50_p90(ms)
            run.samples["op_ms_p50"][kind].append(p50)
            run.samples["op_ms_p90"][kind].append(p90)
    run.attempted += len(predictions)
    run.check_sparse(model, test_set, K_FINAL, conf[K_FINAL], predictions)
    run.check_sparse(model, test_set, K_TRAIN, conf[K_TRAIN])
    run.info["k_final"] = model.controller.k
    run.info["epochs"] = 0
    run.test_set, run.sparse = test_set, model


WORKLOADS = {
    "train-sparse": train_sparse,
    "infer-sparse": infer_sparse,
    "dense-baseline": dense_baseline,
}

# spans that must fire on a workload, and spans that must not
REQUIRED = {
    "train-sparse": [
        "data.generate", TRAIN, STEP, "tensor.backward", "train.adamw",
        "model.model_forward", "coarse.coarse_forward", "tensor.conv2d",
        "selector.select_top_k", "embedding.embed_pixels", "fine.fine_forward",
        "model.classifier_forward", "losses.total_loss", "model.checkpoint_bytes",
        "selector.update_k", "train.evaluate"],
    "infer-sparse": [
        "data.load_dataset", "model.load_model", "train.evaluate", "model.predict",
        "model.model_forward", "coarse.coarse_forward", "tensor.conv2d",
        "selector.select_top_k", "embedding.embed_pixels", "fine.fine_forward",
        "model.classifier_forward"],
    "dense-baseline": [
        "data.generate", TRAIN, STEP, "tensor.backward", "train.adamw",
        "baseline.baseline_forward", "tensor.conv2d", "losses.focal_loss",
        "train.evaluate"],
}
FORBIDDEN = {
    "train-sparse": ["baseline.baseline_forward", "losses.focal_loss"],
    "infer-sparse": [STEP, "tensor.backward", "train.adamw", "losses.total_loss",
                     "model.checkpoint_bytes"],
    "dense-baseline": ["model.model_forward", "selector.select_top_k",
                       "losses.total_loss", "model.checkpoint_bytes"],
}


def coverage_problems(workload: str, calls: dict[str, int]) -> list[str]:
    out = [f"span {name} never fired on {workload}"
           for name in REQUIRED[workload] if not calls.get(name)]
    out += [f"span {name} fired {calls[name]} times on {workload}, where it must not"
            for name in FORBIDDEN[workload] if calls.get(name)]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

def cost_probe(run: Run) -> tuple[float, float]:
    """Criterion 10 at k=160 in MACs and in seconds: tape-free sparse
    evaluate() against evaluate_baseline() on the same test images, in
    COST_PROBE_PAIRS back-to-back pairs after a warm-up (median ratio)."""
    sa = run.sa
    sparse = run.sparse if run.sparse is not None else run.sparse_model(K_FINAL)
    dense = run.dense if run.dense is not None else run.dense_model()
    saved, sparse.controller.k = sparse.controller.k, K_FINAL
    sa.evaluate(sparse, run.test_set)
    sa.evaluate_baseline(dense, run.test_set)
    ratios = [timed(sa.evaluate, sparse, run.test_set)[1]
              / timed(sa.evaluate_baseline, dense, run.test_set)[1]
              for _ in range(COST_PROBE_PAIRS)]
    sparse.controller.k = saved
    macs = (sa.count_cost(sparse, (IMAGE_SIZE, IMAGE_SIZE), K_FINAL).total_flops
            / sa.baseline_cost(dense).total_flops)
    return macs, statistics.median(ratios)


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer figures of the traced units; times are scaled by the
    run's median slowness."""
    sa, tr = run.sa, run.tracer
    calls = tr.calls()

    def total(name, where=None):
        return sum(tr.durations(name, where))

    def per(value, count):
        return value / count if count else 0.0

    steps = calls.get(STEP, 0)
    epochs = run.info["epochs"]
    forwards = [s for s in tr.spans if s["name"] == "model.model_forward"]
    model = run.sparse_model(K_TRAIN)
    costs = {}
    for s in forwards:
        if s["k"] not in costs:
            costs[s["k"]] = sa.count_cost(model, (IMAGE_SIZE, IMAGE_SIZE), s["k"]).stage_flops

    def stage_macs(stage):
        return per(sum(costs[s["k"]][stage] for s in forwards), len(forwards))

    def ops_per_taped(name):
        ops = [s["ops"] for s in tr.spans if s["name"] == name and s.get("ops")]
        return per(sum(ops), len(ops))

    out = {
        "tensor.backward_ms_per_step": per(total("tensor.backward"), steps),
        "tensor.tape_ops_per_step": per(sum(s["ops"] for s in tr.spans
                                            if s["name"] == "tensor.backward"), steps),
        "tensor.conv2d_ms_per_image": per(total("tensor.conv2d"),
                                          calls.get("coarse.coarse_forward", 0)
                                          + calls.get("baseline.baseline_forward", 0)),
    }
    for layer, span in (("coarse", "coarse.coarse_forward"),
                        ("embedding", "embedding.embed_pixels"),
                        ("fine", "fine.fine_forward")):
        out[f"{layer}.fwd_ms_per_image"] = per(total(span), calls.get(span, 0))
        out[f"{layer}.tape_ops_per_image"] = ops_per_taped(span)
        out[f"{layer}.macs_per_image"] = stage_macs(layer)
    hits = [s["hit"] for s in tr.spans if "hit" in s]
    out.update({
        "selector.fwd_ms_per_image": per(total("selector.select_top_k"),
                                         calls.get("selector.select_top_k", 0)),
        "selector.fg_hit_rate": per(sum(hits), len(hits)),
        "selector.k_final": run.info["k_final"],
        "model.classifier_ms_per_image": per(total("model.classifier_forward"),
                                             calls.get("model.classifier_forward", 0)),
        "model.classifier_macs_per_image": stage_macs("classifier"),
        "model.forward_self_ms_per_image": per(tr.self_ms("model.model_forward"), len(forwards)),
        "model.checkpoint_ms_per_epoch": per(total("model.checkpoint_bytes"), epochs),
        "model.load_ms": median_or_zero(tr.durations("model.load_model")),
        "losses.ms_per_step": per(sum(total(n, lambda s: s["in_step"]) for n in LOSS_NAMES),
                                  steps),
        "losses.tape_ops_per_step": per(sum(s.get("ops", 0) for s in tr.spans
                                            if s["name"] in LOSS_NAMES and s["in_step"]),
                                        steps),
        "train.adamw_ms_per_step": per(total("train.adamw"), steps),
        "train.validation_ms_per_epoch": per(
            sum(total(n, lambda s: s["in_train"] and not s["in_step"])
                for n in FORWARD_NAMES + LOSS_NAMES), epochs),
        "train.epoch_self_ms": per(tr.self_ms(TRAIN), epochs),
        "train.val_accuracy": run.info.get("val_accuracy", 0.0),
        "data.generate_ms": median_or_zero(tr.durations("data.generate")),
        "data.load_ms": median_or_zero(tr.durations("data.load_dataset")),
    })
    dense_calls = calls.get("baseline.baseline_forward", 0)
    out["baseline.fwd_ms_per_image"] = per(total("baseline.baseline_forward"), dense_calls)
    out["baseline.macs_per_image"] = (
        sa.baseline_cost(run.dense_model()).total_flops if dense_calls else 0)
    slowness = run.slowness()
    for name in out:
        if "ms" in name.split(".")[-1].split("_"):
            out[name] /= slowness
    out["cost.macs_ratio_sparse_dense"], out["cost.seconds_ratio_sparse_dense"] = cost_probe(run)
    # traced against untraced main-call units of the same run
    out["trace.overhead_pct"] = 100.0 * (statistics.median(run.reference_rates)
                                         / statistics.median(run.primary_rates) - 1.0)
    return out
