"""Command-line front end: dataset generation, training, evaluation, cost
accounting, and attention-map export.

Settings resolve in three layers: the default of the library parameter
each one feeds, then a key=value config file, then explicit flags. Every
run echoes its effective settings to <out>/config.resolved, which is itself
a valid config file, so a run can be reproduced with --config alone. Exit
codes: 0 success, 2 config error (any setting the library rejects, NaN
included), 3 data error, 4 numeric abort.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np

from .baseline import (
    baseline_cost,
    baseline_from_bytes,
    build_baseline,
    evaluate_baseline,
    save_baseline,
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
    read_file,
    read_pgm,
    split,
    write_pgm,
)
from .losses import LossConfig
from .model import build_model, model_forward, model_from_bytes, save_model
from .selector import write_topk_csv
from .tensor import NumericError, Tensor, tensor_to_csv
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
    "k-max": (int, 0, "maximum pixel budget (0 = full image)"),
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
    "k-step-up": (build_model, "k_step_up", "budget increase step"),
    "k-step-down": (build_model, "k_step_down", "budget decrease step"),
    "ema-beta": (build_model, "ema_beta", "loss EMA coefficient"),
    "k-alpha": (build_model, "k_alpha", "budget momentum coefficient"),
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
    if settings["model"] not in ("sparse", "baseline"):
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
    classes = max(s.label for s in data) + 1
    return data, classes


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
    data, classes = _load_data(settings)
    train_set, test_set = split(data, 0.8, settings["seed"])
    shape = train_set[0].pixels.data.shape
    config = _build(TrainConfig, settings, seed=settings["seed"],
                    loss=_build(LossConfig, settings))
    out_dir = _out_dir(args.out)
    _write_resolved(settings, out_dir)

    if settings["model"] == "baseline":
        model = _build(build_baseline, settings, seed=settings["seed"], image_shape=shape,
                       class_count=classes)
        ckpt_path = out_dir / "checkpoint.satb"
        train_fn, save_fn, eval_fn = train_baseline, save_baseline, evaluate_baseline
    else:
        model = _build(build_model, settings, seed=settings["seed"], image_shape=shape,
                       class_count=classes, k_max=settings["k-max"] or None)
        ckpt_path = out_dir / "checkpoint.satm"
        train_fn, save_fn, eval_fn = train, save_model, evaluate
    try:
        model, logs = train_fn(model, train_set, config)
    except NumericError as err:
        save_fn(model, ckpt_path)
        print(f"numeric abort: {err}; last-good checkpoint at {ckpt_path}",
              file=sys.stderr)
        return 4
    save_fn(model, ckpt_path)
    metrics = eval_fn(model, test_set) if test_set else None

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


_CHECKPOINT_KINDS = {
    b"SATM": ("sparse", model_from_bytes),
    b"SATB": ("baseline", baseline_from_bytes),
}


def checkpoint_from_bytes(data: bytes, source="checkpoint"):
    """(kind, model) of a SATM or SATB byte string. Bad magic, another
    version, truncation, trailing bytes, corrupt records, missing, unknown
    or wrong-shaped tensors and metadata of the wrong type all raise
    DatasetError, naming `source`."""
    magic = data[:4]
    if magic not in _CHECKPOINT_KINDS:
        raise DatasetError(f"{source}: unrecognized checkpoint magic {magic!r}")
    kind, parse = _CHECKPOINT_KINDS[magic]
    try:
        return kind, parse(data)
    except (ValueError, KeyError, TypeError, OverflowError, struct.error) as err:
        # ValueError covers bad JSON and bad UTF-8 as well; OverflowError an infinite int
        raise DatasetError(f"{source}: corrupt or truncated checkpoint: {err}") from err


def cmd_eval(args) -> int:
    settings = _resolve(args)
    kind, model = checkpoint_from_bytes(read_file(args.checkpoint, "checkpoint"), args.checkpoint)
    data, _ = _load_data(settings)
    metrics = evaluate(model, data) if kind == "sparse" else evaluate_baseline(model, data)
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
                                       class_count=SYNTHETIC_CLASSES,
                                       k_max=settings["k-max"] or None)
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
    tensor_to_csv(diag.coarse.attention_map, out_dir / f"{stem}_coarse.csv")

    importance = diag.fine.pixel_importance.data[:k]
    index = diag.pixels.index
    scores = coarse_map.ravel()[index]
    write_topk_csv(out_dir / f"{stem}_topk.csv", diag.pixels, scores, importance)

    fine_map = np.zeros(pixels.shape)
    peak = importance.max()
    if peak > 0:
        fine_map.ravel()[index] = importance / peak
    write_pgm(out_dir / f"{stem}_fine.pgm", fine_map)

    print(f"predicted class {int(np.argmax(logits.data))}; "
          f"maps written to {out_dir}/{stem}_*.pgm")
    return 0


def _add_options(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        typ, _, help_text = _OPTIONS[key]
        flag = f"--{key}"
        if typ is bool:
            parser.add_argument(flag, action="store_const", const=True,
                                default=None, help=help_text)
        else:
            parser.add_argument(flag, type=typ, default=None, help=help_text)


_GEN_KEYS = ["seed", *_fed_by(SyntheticSpec)]
_TRAIN_KEYS = [k for k in _OPTIONS if k not in ("k", "json", "baseline")]
_DATA_KEYS = ["synthetic", "dataset", *_GEN_KEYS, "json"]
_COST_KEYS = ["seed", "image-size", *_fed_by(build_model), "k-max", "k", "json", "baseline"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseattn",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a synthetic PGM dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default="", help="key=value config file")
    _add_options(p, _GEN_KEYS)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a model and write checkpoint + logs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default="", help="key=value config file")
    _add_options(p, _TRAIN_KEYS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default="", help="key=value config file")
    _add_options(p, _DATA_KEYS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cost", help="report parameters and per-stage FLOPs")
    p.add_argument("--checkpoint", default="")
    p.add_argument("--config", default="", help="key=value config file")
    _add_options(p, _COST_KEYS)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("viz", help="export attention maps for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True, help="input PGM image")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz)

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


if __name__ == "__main__":
    sys.exit(main())
