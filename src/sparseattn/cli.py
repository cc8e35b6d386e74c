"""Command-line front end: dataset generation, training, evaluation, cost
accounting, and attention-map export.

Settings resolve in three layers: the default of the library parameter
each one feeds, then a key=value config file, then explicit flags. Every
run echoes its effective settings to <out>/config.resolved, which is itself
a valid config file, so a run can be reproduced with --config alone. Exit
codes: 0 success, 2 config error (any setting the library rejects, NaN
included, or memory it cannot allocate), 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import errno
import inspect
import json
import os
import sys
from collections import namedtuple
from pathlib import Path

import numpy as np

from .baseline import (
    BASELINE_MAGIC,
    baseline_checkpoint_bytes,
    baseline_cost,
    baseline_from_bytes,
    build_baseline,
    evaluate_baseline,
    train_baseline,
)
from .cost import count_cost
from .data import (
    SYNTHETIC_CLASSES,
    DatasetError,
    SyntheticSpec,
    export_dataset,
    generate,
    load_dataset,
    parse_checkpoint,
    read_file,
    read_pgm,
    split,
    write_pgm,
)
from .losses import LossConfig
from .model import MODEL_MAGIC, build_model, checkpoint_bytes, model_forward, model_from_bytes
from .tensor import NumericError, Tensor
from .train import TrainConfig, evaluate, train


class ConfigError(ValueError):
    """Bad config file key/value or inconsistent settings."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


# The CLI's own options, key -> (type, default, help); keys are spelled as flags
_OWN_OPTIONS: dict[str, tuple] = {
    "synthetic": (bool, False, "use the in-memory synthetic dataset"),
    "dataset": (str, "", "dataset directory containing manifest.csv"),
    "model": (str, "sparse", "model family: sparse or baseline"),
    "seed": (int, None, "RNG seed (fallback: SPARSEATTN_SEED, then 0)"),
    "k": (int, 0, "pixel budget for cost accounting (0 = from checkpoint)"),
    "json": (bool, False, "emit JSON instead of a table"),
    "baseline": (bool, False, "also report the dense baseline cost"),
}

# Every other option feeds one library parameter: key -> (home, parameter, help)
_FEEDS: dict[str, tuple] = {
    "epochs": (TrainConfig, "epochs", "training epochs"),
    "batch": (TrainConfig, "batch_size", "batch size"),
    "lr": (TrainConfig, "learning_rate", "learning rate"),
    "wd": (TrainConfig, "weight_decay", "decoupled weight decay"),
    "gamma": (LossConfig, "gamma", "focal focusing parameter"),
    "lambda-contrast": (LossConfig, "lambda_contrast", "contrastive loss weight"),
    "lambda-distill": (LossConfig, "lambda_distill", "distillation loss weight"),
    "tau": (LossConfig, "tau", "contrastive temperature"),
    "emphasis": (LossConfig, "emphasis", "distillation target sharpening exponent"),
    "k-init": (build_model, "k_init", "initial pixel budget"),
    "k-min": (build_model, "k_min", "minimum pixel budget"),
    "k-max": (build_model, "k_max", "maximum pixel budget (0 = full image)"),
    "k-step": (build_model, "k_step", "budget step per epoch, before the alpha mix"),
    "ema-beta": (build_model, "ema_beta", "loss EMA coefficient"),
    "k-alpha": (build_model, "k_alpha", "budget damping: k moves (1 - alpha) of each step"),
    "dim": (build_model, "dim", "token embedding dimension"),
    "heads": (build_model, "heads", "fine attention heads"),
    "hidden": (build_model, "hidden", "classifier hidden width"),
    "samples-per-class": (SyntheticSpec, "samples_per_class", "synthetic samples per class"),
    "image-size": (SyntheticSpec, "image_size", "synthetic image edge length"),
    "noise-sigma": (SyntheticSpec, "noise_sigma", "synthetic background noise sigma"),
}


def _fed_by(home) -> list[str]:
    return [key for key, feed in _FEEDS.items() if feed[0] is home]


def _fed_option(home, parameter: str, help_text: str) -> tuple:
    default = inspect.signature(home).parameters[parameter].default
    return type(default), default, help_text


# key -> (type, default, help) of every option
_OPTIONS = {**_OWN_OPTIONS, **{key: _fed_option(*feed) for key, feed in _FEEDS.items()}}


# What the CLI calls to build, train, evaluate and checkpoint one model family
_Family = namedtuple("_Family", "magic build train evaluate to_bytes from_bytes")
_FAMILIES = {   # --model value -> family
    "sparse": _Family(MODEL_MAGIC, build_model, train, evaluate, checkpoint_bytes,
                      model_from_bytes),
    "baseline": _Family(BASELINE_MAGIC, build_baseline, train_baseline, evaluate_baseline,
                        baseline_checkpoint_bytes, baseline_from_bytes),
}


def _read_config_file(path: Path) -> dict:
    values = {}
    lines = read_file(path, "config file", ConfigError, "UTF-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _OPTIONS[key][0]
        try:
            values[key] = _parse_bool(raw) if typ is bool else typ(raw.strip())
        except (ValueError, ConfigError) as err:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {err}") from err
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Defaults, then config file, then explicit flags."""
    settings = {key: spec[1] for key, spec in _OPTIONS.items()}
    if args.config:
        settings.update(_read_config_file(Path(args.config)))
    for key in _OPTIONS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            settings[key] = value
    if settings["seed"] is None:
        env = os.environ.get("SPARSEATTN_SEED")
        try:
            settings["seed"] = int(env) if env else 0
        except ValueError as err:
            raise ConfigError(f"SPARSEATTN_SEED is not an integer: {env!r}") from err
    if settings["seed"] < 0:
        raise ConfigError(f"seed {settings['seed']} is negative")
    if settings["model"] not in _FAMILIES:
        raise ConfigError(f"unknown model {settings['model']!r}")
    return settings


def _out_dir(raw: str) -> Path:
    """--out as a directory, made if missing; ConfigError if it cannot be."""
    try:
        Path(raw).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot make the --out directory {raw}: {err.strerror}") from err
    return Path(raw)


def _write_resolved(settings: dict, out_dir: Path) -> None:
    lines = []
    for key in sorted(_OPTIONS):
        value = settings[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key}={value}")
    (out_dir / "config.resolved").write_text("\n".join(lines) + "\n")


def _build(home, settings: dict, **fixed):
    """home(**fixed) plus every setting that feeds `home`; a ValueError
    there rejects a setting (exit 2)."""
    fed = {_FEEDS[key][1]: settings[key] for key in _fed_by(home)}
    try:
        return home(**fed, **fixed)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _load_data(settings: dict):
    if settings["synthetic"]:
        spec = _build(SyntheticSpec, settings, seed=settings["seed"])
        return generate(spec), SYNTHETIC_CLASSES
    if not settings["dataset"]:
        raise ConfigError("either --synthetic or --dataset is required")
    data = load_dataset(settings["dataset"])
    if not data:
        raise DatasetError(f"dataset at {settings['dataset']} is empty")
    return data, max(s.label for s in data) + 1


def cmd_gen(args) -> int:
    settings = _resolve(args)
    data = generate(_build(SyntheticSpec, settings, seed=settings["seed"]))
    out_dir = _out_dir(args.out)
    export_dataset(data, out_dir)
    _write_resolved(settings, out_dir)
    print(f"wrote {len(data)} images to {out_dir}")
    return 0


def cmd_train(args) -> int:
    settings = _resolve(args)
    family = _FAMILIES[settings["model"]]
    data, classes = _load_data(settings)
    if classes > len(data):   # n images show at most n classes
        raise DatasetError(f"label {classes - 1} is not below the dataset's {len(data)} images, "
                           "so it cannot set the class count")
    train_set, test_set = split(data, 0.8, settings["seed"])
    config = _build(TrainConfig, settings, seed=settings["seed"],
                    loss=_build(LossConfig, settings))
    model = _build(family.build, settings, seed=settings["seed"],
                   image_shape=train_set[0].pixels.data.shape, class_count=classes)
    out_dir = _out_dir(args.out)
    _write_resolved(settings, out_dir)
    ckpt_path = out_dir / f"checkpoint.{family.magic.decode().lower()}"
    if ckpt_path.is_dir():   # no file could replace it: say so before training
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(ckpt_path))
    # the run writes beside the checkpoint and replaces it only when it ends
    # with a model to keep, so an interrupted run leaves the old file whole
    partial = out_dir / f"{ckpt_path.name}.partial"
    ckpt = open(partial, "wb")   # opened first: an unwritable --out exits 2 untrained
    try:
        with ckpt:
            abort = None
            try:
                model, logs = family.train(model, train_set, config)
            except NumericError as err:
                abort = err
            ckpt.write(family.to_bytes(model))
        os.replace(partial, ckpt_path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    if abort is not None:
        print(f"numeric abort: {abort}; last-good checkpoint at {ckpt_path}", file=sys.stderr)
        return 4
    metrics = family.evaluate(model, test_set) if test_set else None

    with open(out_dir / "metrics.jsonl", "w") as fh:
        for record in logs:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        if metrics is not None:
            fh.write(json.dumps({"final_test": metrics.to_dict()}, sort_keys=True) + "\n")
    if metrics is not None:
        print(f"test accuracy {metrics.accuracy:.4f}  f1 {metrics.f1:.4f}  "
              f"k {metrics.k_mean:.0f} ({metrics.k_percent:.1f}% of pixels)")
    print(f"checkpoint: {ckpt_path}")
    return 0


def checkpoint_from_bytes(data: bytes, source="checkpoint"):
    """(family name, model) of a SATM or SATB byte string; a damaged one
    raises DatasetError naming `source` (`data.parse_checkpoint`)."""
    for kind, family in _FAMILIES.items():
        if data[:4] == family.magic:
            return kind, parse_checkpoint(family.from_bytes, data, source)
    raise DatasetError(f"{source}: unrecognized checkpoint magic {data[:4]!r}")


def cmd_eval(args) -> int:
    settings = _resolve(args)
    kind, model = checkpoint_from_bytes(read_file(args.checkpoint, "checkpoint"), args.checkpoint)
    data, _ = _load_data(settings)
    metrics = _FAMILIES[kind].evaluate(model, data)
    if settings["json"]:
        print(json.dumps(metrics.to_dict(), sort_keys=True))
    else:
        print(f"accuracy   {metrics.accuracy:.4f}")
        print(f"precision  {metrics.precision:.4f} (weighted)")
        print(f"recall     {metrics.recall:.4f} (weighted)")
        print(f"f1         {metrics.f1:.4f} (weighted)")
        print(f"k          {metrics.k_mean:.1f} ({metrics.k_percent:.2f}% of image)")
        print("confusion (rows = true):")
        for row in metrics.confusion:
            print("  " + " ".join(f"{v:6d}" for v in row))
    return 0


def cmd_cost(args) -> int:
    settings = _resolve(args)
    if args.checkpoint:
        kind, model = checkpoint_from_bytes(read_file(args.checkpoint, "checkpoint"),
                                            args.checkpoint)
    else:
        kind, model = "sparse", _build(build_model, settings, seed=settings["seed"],
                                       image_shape=(settings["image-size"],) * 2,
                                       class_count=SYNTHETIC_CLASSES)
    shape = model.image_shape
    reports = {}   # payload key -> (table title, report)
    if kind == "baseline":
        reports["baseline"] = ("dense baseline", baseline_cost(model))
    else:
        if not 0 <= settings["k"] <= shape[0] * shape[1]:
            raise ConfigError(f"k {settings['k']} outside 0..{shape[0] * shape[1]} (0: model's k)")
        k = settings["k"] or model.controller.k
        sparse = count_cost(model, shape, k)
        reports["sparse"] = (f"sparse model (k={k})", sparse)
        if settings["baseline"]:
            base = baseline_cost(_build(build_baseline, settings, seed=settings["seed"],
                                        image_shape=shape, class_count=model.class_count))
            reports["baseline"] = ("dense baseline", base)
    payload = {key: report.to_dict() for key, (_, report) in reports.items()}
    if len(reports) == 2:
        payload["flops_ratio"] = sparse.total_flops / base.total_flops
    if settings["json"]:
        print(json.dumps(payload, sort_keys=True))
        return 0
    for title, report in reports.values():
        print(title)
        print(f"  parameters    {report.parameters}")
        for stage, flops in report.stage_flops.items():
            print(f"  {stage:<12}  {flops} MACs")
        print(f"  total         {report.total_flops} MACs")
        print(f"  % image       {report.pixel_percent:.2f}")
    if "flops_ratio" in payload:
        print(f"  flops ratio   {payload['flops_ratio']:.3f}")
    return 0


def cmd_viz(args) -> int:
    kind, model = checkpoint_from_bytes(read_file(args.checkpoint, "checkpoint"), args.checkpoint)
    if kind != "sparse":
        raise DatasetError("viz needs a sparse-model checkpoint")
    image_path = Path(args.image)
    pixels = read_pgm(image_path)
    k = model.controller.k
    logits, diag = model_forward(model, Tensor(pixels), k)   # DatasetError on a shape mismatch
    out_dir = _out_dir(args.out)
    stem = image_path.stem

    coarse_map = diag.coarse.attention_map.data
    write_pgm(out_dir / f"{stem}_coarse.pgm", coarse_map)
    with open(out_dir / f"{stem}_coarse.csv", "w") as fh:
        fh.write("# shape: " + "x".join(str(e) for e in coarse_map.shape) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in coarse_map.tolist())

    importance = diag.fine.pixel_importance.data[:k]
    index = diag.pixels.index
    scores = coarse_map.ravel()[index]
    with open(out_dir / f"{stem}_topk.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["row", "col", "x", "y", "v", "score", "fine_score"])
        out.writerows(zip(diag.pixels.row.tolist(), diag.pixels.col.tolist(),
                          *diag.pixels.triplets.T.tolist(), scores.tolist(), importance.tolist()))

    fine_map = np.zeros(pixels.shape)
    peak = importance.max()
    if peak > 0:
        fine_map.ravel()[index] = importance / peak
    write_pgm(out_dir / f"{stem}_fine.pgm", fine_map)

    print(f"predicted class {int(np.argmax(logits.data))}; "
          f"maps written to {out_dir}/{stem}_*.pgm")
    return 0


# A subcommand's own arguments: flag -> add_argument keywords
_OUT = {"--out": {"required": True, "help": "output directory"}}
_CONFIG = {"--config": {"default": "", "help": "key=value config file"}}
_CHECKPOINT = {"--checkpoint": {"required": True}}
_GEN_KEYS = ["seed", *_fed_by(SyntheticSpec)]

# subcommand -> (handler, help line, own arguments, settings keys)
_COMMANDS = {
    "gen": (cmd_gen, "write a synthetic PGM dataset", {**_OUT, **_CONFIG}, _GEN_KEYS),
    "train": (cmd_train, "train a model and write checkpoint + logs", {**_OUT, **_CONFIG},
              [key for key in _OPTIONS if key not in ("k", "json", "baseline")]),
    "eval": (cmd_eval, "evaluate a checkpoint on a dataset", {**_CHECKPOINT, **_CONFIG},
             ["synthetic", "dataset", *_GEN_KEYS, "json"]),
    "cost": (cmd_cost, "report parameters and per-stage FLOPs",
             {"--checkpoint": {"default": ""}, **_CONFIG},
             ["seed", "image-size", *_fed_by(build_model), "k", "json", "baseline"]),
    "viz": (cmd_viz, "export attention maps for one image",
            {**_CHECKPOINT, "--image": {"required": True, "help": "input PGM image"}, **_OUT},
            []),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseattn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, arguments, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, keywords in arguments.items():
            p.add_argument(flag, **keywords)
        for key in keys:
            typ, _, help_text = _OPTIONS[key]
            kind = {"action": "store_const", "const": True} if typ is bool else {"type": typ}
            p.add_argument(f"--{key}", default=None, help=help_text, **kind)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except DatasetError as err:
        print(f"data error: {err}", file=sys.stderr)
        return 3
    except NumericError as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 4
    except OSError as err:   # every read and --out map their own errors: this is a write
        print(f"config error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except MemoryError as err:   # numpy's says what it could not allocate, in one line
        print(f"config error: cannot allocate memory: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
