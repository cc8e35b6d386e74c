"""CLI: subcommand flows, exit codes, config layering, resolved-config
round trip, and byte-determinism of emitted files.
"""

import argparse
import inspect
import json
import os
import struct

import numpy as np
import pytest

from sparseattn.baseline import baseline_checkpoint_bytes, build_baseline
import sparseattn.model as model_module
from sparseattn.cli import _FEEDS, _OPTIONS, _build, build_parser, checkpoint_from_bytes, main
from sparseattn.data import DatasetError, SyntheticSpec, generate, read_pgm, write_pgm
from sparseattn.losses import LossConfig
from sparseattn.model import build_model, checkpoint_bytes, model_forward
from sparseattn.tensor import Tensor, pack, unpack
from sparseattn.train import AdamW, TrainConfig

FAST_TRAIN = ["--epochs", "2", "--samples-per-class", "4", "--image-size", "16",
              "--hidden", "8", "--k-init", "40", "--k-min", "16", "--batch", "4"]


def run_train(out_dir, extra=()):
    return main(["train", "--synthetic", "--out", str(out_dir), "--seed", "7",
                 *FAST_TRAIN, *extra])


class TestTrainCommand:
    def test_success_writes_artifacts(self, tmp_path):
        assert run_train(tmp_path) == 0
        assert (tmp_path / "checkpoint.satm").exists()
        assert (tmp_path / "metrics.jsonl").exists()
        assert (tmp_path / "config.resolved").exists()
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 3                      # 2 epochs + final test record
        assert "final_test" in json.loads(lines[-1])

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        run_train(tmp_path / "a")
        run_train(tmp_path / "b")
        assert (tmp_path / "a/metrics.jsonl").read_bytes() == \
            (tmp_path / "b/metrics.jsonl").read_bytes()
        assert (tmp_path / "a/checkpoint.satm").read_bytes() == \
            (tmp_path / "b/checkpoint.satm").read_bytes()

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        code = main(["train", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        assert "manifest" in capsys.readouterr().err

    def test_numeric_abort_exits_4(self, tmp_path):
        code = run_train(tmp_path, extra=["--lr", "1e25"])
        assert code == 4
        assert (tmp_path / "checkpoint.satm").exists()

    def test_numeric_abort_leaves_no_partial_file(self, tmp_path):
        assert run_train(tmp_path, extra=["--lr", "1e25"]) == 4
        assert sorted(os.listdir(tmp_path)) == ["checkpoint.satm", "config.resolved"]
        checkpoint_from_bytes((tmp_path / "checkpoint.satm").read_bytes())

    def test_interrupted_run_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        """A run stopped by anything but a numeric abort replaces nothing:
        the checkpoint of the run before keeps its bytes, a fresh --out gets
        no checkpoint, and no .partial file is left behind."""
        assert run_train(tmp_path / "old") == 0
        old = (tmp_path / "old" / "checkpoint.satm").read_bytes()

        def step(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(AdamW, "step", step)
        for out in ("old", "fresh"):
            with pytest.raises(KeyboardInterrupt):
                run_train(tmp_path / out)
        assert (tmp_path / "old" / "checkpoint.satm").read_bytes() == old
        assert sorted(os.listdir(tmp_path / "old")) == ["checkpoint.satm", "config.resolved",
                                                        "metrics.jsonl"]
        assert os.listdir(tmp_path / "fresh") == ["config.resolved"]

    def test_baseline_writes_a_checkpoint_that_eval_and_cost_read(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert run_train(tmp_path / name, extra=["--model", "baseline"]) == 0
        ckpt = tmp_path / "a" / "checkpoint.satb"
        assert sorted(os.listdir(tmp_path / "a")) == ["checkpoint.satb", "config.resolved",
                                                      "metrics.jsonl"]
        for f in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes(), f
        assert main(["eval", "--checkpoint", str(ckpt), "--synthetic", "--image-size", "16",
                     "--samples-per-class", "2"]) == 0
        assert main(["cost", "--checkpoint", str(ckpt)]) == 0
        assert "dense baseline" in capsys.readouterr().out

    def test_paper_scale_defaults_present_in_resolved(self, tmp_path):
        run_train(tmp_path, extra=["--k-init", "8000", "--k-min", "1500"])
        resolved = (tmp_path / "config.resolved").read_text()
        assert "k-init=8000" in resolved
        assert "k-min=1500" in resolved

    def test_small_tau_trains_without_a_warning(self, tmp_path, capsys):
        """At tau 0.002 the contrastive denominator's square overflows; the
        divisor's gradient must not, so the run writes nothing to stderr."""
        assert run_train(tmp_path, ["--tau", "0.002"]) == 0
        assert capsys.readouterr().err == ""

    def test_label_beyond_the_image_count_exits_3(self, tmp_path, capsys):
        """The class count is the largest label + 1, and n images show at
        most n classes: a label of 10^12 once sized a classifier of 466 TiB
        and died with a MemoryError (exit 1)."""
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        for name in ("a.pgm", "b.pgm"):
            write_pgm(data_dir / name, np.zeros((16, 16)))
        (data_dir / "manifest.csv").write_text("filename,label\na.pgm,0\nb.pgm,1000000000000\n")
        code = main(["train", "--dataset", str(data_dir), "--out", str(tmp_path / "out"),
                     *FAST_TRAIN])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "label 1000000000000" in err

    def test_row_sum_overflow_is_a_numeric_abort(self, tmp_path, capsys):
        """Just above the tau floor each exp(1/tau) is finite but a row of
        them sums past float64: exit 4 with one line naming tau, and no
        overflow warning (which pytest turns into an error)."""
        assert run_train(tmp_path, ["--tau", "0.00141"]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "tau 0.00141" in err


class TestConfigFile:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense-key=5\n")
        code = main(["train", "--synthetic", "--out", str(tmp_path / "out"),
                     "--config", str(cfg)])
        assert code == 2
        assert "nonsense-key" in capsys.readouterr().err

    def test_config_saved_with_a_byte_order_mark_is_read(self, tmp_path, capsys):
        """The mark is dropped, so the first key is a known one."""
        cfg = tmp_path / "bom.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfimage-size=16\nk=40\n")
        assert main(["cost", "--config", str(cfg)]) == 0
        assert "sparse model (k=40)" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epochs=9\nseed=7\n")
        out = tmp_path / "out"
        main(["train", "--synthetic", "--out", str(out), "--config", str(cfg),
              *FAST_TRAIN])   # --epochs 2 wins over epochs=9
        assert "epochs=2" in (out / "config.resolved").read_text()

    def test_resolved_config_reproduces_run(self, tmp_path):
        a = tmp_path / "a"
        run_train(a)
        b = tmp_path / "b"
        code = main(["train", "--out", str(b),
                     "--config", str(a / "config.resolved")])
        assert code == 0
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "checkpoint.satm").read_bytes() == \
            (b / "checkpoint.satm").read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPARSEATTN_SEED", "7")
        out_env = tmp_path / "env"
        main(["train", "--synthetic", "--out", str(out_env), *FAST_TRAIN])
        out_flag = tmp_path / "flag"
        run_train(out_flag)   # explicit --seed 7
        assert (out_env / "metrics.jsonl").read_bytes() == \
            (out_flag / "metrics.jsonl").read_bytes()


class TestRejectedSettings:
    """A setting the library rejects is a config error (exit 2), not a
    traceback; one case per option family, and the NaN and out-of-range
    settings that once trained on (exit 0), raised (exit 1) or failed at
    the first backward (exit 4)."""

    @pytest.mark.parametrize("flags", [
        ["--heads", "3"], ["--dim", "0"], ["--hidden", "0"],
        ["--k-min", "0"],
        ["--tau", "0"], ["--tau", "0.0014"], ["--gamma", "-1"],
        ["--samples-per-class", "0"], ["--image-size", "8"], ["--noise-sigma", "-1"],
        ["--model", "baseline", "--image-size", "18"],
        ["--ema-beta", "nan"], ["--k-alpha", "nan"], ["--lr", "nan"], ["--wd", "nan"],
        ["--lambda-distill", "nan"], ["--batch", "0"], ["--epochs", "-1"],
    ], ids=["model-heads", "model-dim", "model-hidden", "budget-k-min", "loss-tau",
            "loss-tau-overflows", "loss-gamma", "data-samples", "data-image-size", "data-noise", "baseline-shape",
            "budget-ema-beta-nan", "budget-k-alpha-nan", "train-lr-nan", "train-wd-nan",
            "loss-lambda-distill-nan", "train-batch-0", "train-epochs-negative"])
    def test_train_exits_2(self, tmp_path, capsys, flags):
        code = main(["train", "--synthetic", "--out", str(tmp_path), "--epochs", "1",
                     "--samples-per-class", "2", "--image-size", "16", *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_gen_and_cost_exit_2(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path), "--image-size", "8"]) == 2
        assert main(["cost", "--heads", "3"]) == 2
        assert main(["cost", "--image-size", "30", "--baseline"]) == 2
        assert main(["cost", "--image-size", "16", "--k", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("config error") == 4 and captured.out == ""

    # Each size asks for petabytes, more than a process can map (128 TiB on
    # x86-64 Linux), so the first large allocation fails whatever the
    # host's memory and overcommit policy.
    @pytest.mark.parametrize("argv", [
        ["cost", "--hidden", "1000000000000000"],
        ["gen", "--out", "g", "--image-size", "10000000", "--samples-per-class", "1"],
    ], ids=["cost-hidden", "gen-image-size"])
    def test_size_too_large_for_memory_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("config error: cannot allocate memory: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []


class TestUnusablePaths:
    """An input path that names a directory, a config file that is not UTF-8
    text and an --out path that cannot be a directory print one line, with
    no traceback, and exit 3 (a dataset, image or checkpoint) or 2 (a config
    file or --out)."""

    @staticmethod
    def assert_one_line(capsys, start):
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1, err

    def test_manifest_that_is_a_directory_exits_3(self, tmp_path, capsys):
        (tmp_path / "data" / "manifest.csv").mkdir(parents=True)
        code = main(["train", "--dataset", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")])
        assert code == 3
        self.assert_one_line(capsys, "data error: manifest unreadable (Is a directory)")

    def test_manifest_row_that_names_a_directory_exits_3(self, tmp_path, capsys):
        (tmp_path / "sub.pgm").mkdir()
        (tmp_path / "manifest.csv").write_text("filename,label\nsub.pgm,0\n")
        code = main(["train", "--dataset", str(tmp_path), "--out", str(tmp_path / "out")])
        assert code == 3
        self.assert_one_line(capsys, "data error: image file unreadable (Is a directory)")

    def test_viz_image_that_is_a_directory_exits_3(self, tmp_path, capsys):
        ckpt = tmp_path / "model.satm"
        ckpt.write_bytes(checkpoint_bytes(build_model(seed=0, image_shape=(16, 16), hidden=8,
                                                      k_init=40, k_min=16)))
        code = main(["viz", "--checkpoint", str(ckpt), "--image", str(tmp_path),
                     "--out", str(tmp_path / "viz")])
        assert code == 3
        self.assert_one_line(capsys, "data error: image file unreadable (Is a directory)")

    def test_checkpoint_that_is_a_directory_exits_3(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path), "--synthetic"]) == 3
        self.assert_one_line(capsys, "data error: checkpoint unreadable (Is a directory)")

    def test_config_that_is_a_directory_exits_2(self, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.satm"),
                     "--config", str(tmp_path)])
        assert code == 2
        self.assert_one_line(capsys, "config error: config file unreadable (Is a directory)")

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"seed=1\n# \xff\n")
        code = main(["eval", "--checkpoint", str(tmp_path / "none.satm"),
                     "--config", str(config)])
        assert code == 2
        self.assert_one_line(capsys, f"config error: config file {config}: not UTF-8 text")

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = main(["gen", "--out", str(tmp_path / "file"), "--samples-per-class", "1",
                     "--image-size", "16"])
        assert code == 2
        self.assert_one_line(capsys, "config error: cannot make the --out directory")

    def test_out_inside_a_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        assert run_train(tmp_path / "file" / "sub") == 2
        self.assert_one_line(capsys, "config error: cannot make the --out directory")


class TestUnwritableOutputs:
    """A file the command writes inside a usable --out directory, but that
    names a directory, is a config error (exit 2) with one line and no
    traceback."""

    @staticmethod
    def assert_cannot_write(capsys, path):
        err = capsys.readouterr().err
        assert err == f"config error: cannot write {path}: Is a directory\n"

    def test_train_checkpoint(self, tmp_path, capsys, monkeypatch):
        """Found before training: no optimizer step runs."""
        def step(self):
            raise AssertionError("train stepped before it checked its checkpoint path")

        monkeypatch.setattr(AdamW, "step", step)
        (tmp_path / "checkpoint.satm").mkdir()
        assert run_train(tmp_path) == 2
        self.assert_cannot_write(capsys, tmp_path / "checkpoint.satm")

    def test_gen_manifest(self, tmp_path, capsys):
        (tmp_path / "manifest.csv").mkdir()
        assert main(["gen", "--out", str(tmp_path), "--samples-per-class", "1",
                     "--image-size", "16"]) == 2
        self.assert_cannot_write(capsys, tmp_path / "manifest.csv")

    def test_viz_coarse_map(self, tmp_path, capsys):
        ckpt, image = tmp_path / "model.satm", tmp_path / "img.pgm"
        ckpt.write_bytes(checkpoint_bytes(build_model(seed=0, image_shape=(16, 16), hidden=8,
                                                      k_init=40, k_min=16)))
        write_pgm(image, np.full((16, 16), 0.5))
        (tmp_path / "viz" / "img_coarse.pgm").mkdir(parents=True)
        assert main(["viz", "--checkpoint", str(ckpt), "--image", str(image),
                     "--out", str(tmp_path / "viz")]) == 2
        self.assert_cannot_write(capsys, tmp_path / "viz" / "img_coarse.pgm")


class TestNegativeSeed:
    """A negative seed, from a flag, a config file or SPARSEATTN_SEED, is a
    config error (exit 2) before any command does work."""

    @pytest.mark.parametrize("command", ["gen", "train", "cost"])
    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    def test_exits_2(self, tmp_path, capsys, monkeypatch, command, source):
        out = tmp_path / "out"
        argv = {"gen": ["gen", "--out", str(out)],
                "train": ["train", "--synthetic", "--out", str(out)],
                "cost": ["cost"]}[command]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "config":
            (tmp_path / "run.cfg").write_text("seed=-1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            monkeypatch.setenv("SPARSEATTN_SEED", "-1")
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: seed -1 is negative\n"
        assert not out.exists()


class TestGenAndDatasetFlow:
    def test_gen_then_train_from_directory(self, tmp_path):
        data_dir = tmp_path / "data"
        assert main(["gen", "--out", str(data_dir), "--seed", "3",
                     "--samples-per-class", "4", "--image-size", "16"]) == 0
        assert (data_dir / "manifest.csv").exists()
        out = tmp_path / "run"
        code = main(["train", "--dataset", str(data_dir), "--out", str(out),
                     "--seed", "3", *FAST_TRAIN])
        assert code == 0

    def test_gen_is_deterministic(self, tmp_path):
        for name in ("a", "b"):
            main(["gen", "--out", str(tmp_path / name), "--seed", "5",
                  "--samples-per-class", "3", "--image-size", "16"])
        for f in sorted(os.listdir(tmp_path / "a")):
            assert (tmp_path / "a" / f).read_bytes() == \
                (tmp_path / "b" / f).read_bytes(), f


class TestEvalCommand:
    def test_eval_json_output(self, tmp_path, capsys):
        run_train(tmp_path)
        capsys.readouterr()   # drain training output
        code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint.satm"),
                     "--synthetic", "--seed", "7", "--samples-per-class", "4",
                     "--image-size", "16", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert "confusion" in payload

    def test_eval_missing_checkpoint_exits_3(self, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.satm"),
                     "--synthetic"])
        assert code == 3

    def test_eval_on_images_of_another_shape_exits_3(self, tmp_path, capsys):
        run_train(tmp_path)                       # a 16×16 checkpoint
        code = main(["eval", "--checkpoint", str(tmp_path / "checkpoint.satm"),
                     "--synthetic", "--samples-per-class", "2", "--image-size", "32"])
        assert code == 3
        assert "shape" in capsys.readouterr().err

    def test_eval_on_a_pgm_below_one_pixel_exits_3(self, tmp_path, capsys):
        model = build_model(seed=0, image_shape=(4, 4), class_count=2, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        ckpt = tmp_path / "model.satm"
        ckpt.write_bytes(checkpoint_bytes(model))
        (tmp_path / "manifest.csv").write_text("filename,label\nimg.pgm,0\n")
        for raw in (b"P5\n-4 -4\n255\n" + b"\x00" * 16, b"P5\n0 0\n255\n"):
            (tmp_path / "img.pgm").write_bytes(raw)
            assert main(["eval", "--checkpoint", str(ckpt),
                         "--dataset", str(tmp_path)]) == 3
            assert "at least 1×1" in capsys.readouterr().err

    def test_eval_on_a_label_beyond_the_classes_exits_3(self, tmp_path, capsys):
        write_pgm(tmp_path / "img.pgm", np.zeros((16, 16)))
        (tmp_path / "manifest.csv").write_text("filename,label\nimg.pgm,5\n")
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        for name, data in (("model.satm", checkpoint_bytes(model)),
                           ("model.satb", baseline_checkpoint_bytes(build_baseline(0, (16, 16), 3)))):
            (tmp_path / name).write_bytes(data)
            assert main(["eval", "--checkpoint", str(tmp_path / name),
                         "--dataset", str(tmp_path)]) == 3, name
            assert capsys.readouterr().err == \
                "data error: label 5 is not one of the model's 3 classes\n"


class TestDamagedDatasets:
    """Every strict prefix and every single-byte substitution of a small
    manifest.csv and of a 4×4 PGM either evaluates or is a data error."""

    MANIFEST = b"filename,label\nsample_00.pgm,1\n"
    PGM = b"P5\n4 4\n255\n" + bytes(range(0, 160, 10))
    SUBSTITUTES = b"\x00\xff\x80# 9-\n\","

    @classmethod
    def variants(cls, data: bytes):
        for n in range(len(data)):
            yield data[:n]
        for i in range(len(data)):
            for byte in cls.SUBSTITUTES:
                yield data[:i] + bytes([byte]) + data[i + 1:]

    def eval_codes(self, tmp_path, manifests, pgms):
        model = build_model(seed=0, image_shape=(4, 4), class_count=2, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        ckpt = tmp_path / "model.satm"
        ckpt.write_bytes(checkpoint_bytes(model))
        codes = []
        for manifest, pgm in zip(manifests, pgms):
            (tmp_path / "manifest.csv").write_bytes(manifest)
            (tmp_path / "sample_00.pgm").write_bytes(pgm)
            codes.append(main(["eval", "--checkpoint", str(ckpt), "--dataset", str(tmp_path)]))
        return codes

    def test_manifest_prefixes_and_substitutions(self, tmp_path, capsys):
        manifests = list(self.variants(self.MANIFEST))
        assert len(manifests) == 341
        codes = self.eval_codes(tmp_path, manifests, [self.PGM] * len(manifests))
        assert set(codes) == {0, 3}
        assert "not UTF-8" in capsys.readouterr().err

    def test_pgm_prefixes_and_substitutions(self, tmp_path):
        pgms = list(self.variants(self.PGM))
        assert len(pgms) == 297
        codes = self.eval_codes(tmp_path, [self.MANIFEST] * len(pgms), pgms)
        assert set(codes) == {0, 3}


class TestTruncatedCheckpoints:
    """Every strict prefix of a checkpoint, and every other damaged one, is a
    data error (exit 3), never a traceback."""

    @staticmethod
    def small_files():
        model = build_model(seed=0, image_shape=(4, 4), class_count=2, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        return [checkpoint_bytes(model),
                baseline_checkpoint_bytes(build_baseline(0, (4, 4), 2))]

    def test_every_prefix_is_a_data_error(self):
        for data in self.small_files():
            checkpoint_from_bytes(data)           # the whole file loads
            for n in range(len(data)):
                with pytest.raises(DatasetError):
                    checkpoint_from_bytes(data[:n])

    @staticmethod
    def header_offsets(data: bytes) -> list[int]:
        """Offset of every byte of a pack() string outside its float64
        payloads: magic, version, metadata length and JSON, record count,
        and each record's name and SATN header."""
        (meta_len,) = struct.unpack_from("<I", data, 8)
        pos = 12 + meta_len + 4
        (count,) = struct.unpack_from("<I", data, pos - 4)
        offsets = list(range(pos))
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, pos)
            satn = pos + 2 + name_len
            (rank,) = struct.unpack_from("<I", data, satn + 4)
            shape = struct.unpack_from(f"<{rank}I", data, satn + 8)
            offsets += range(pos, satn + 8 + 4 * rank)
            pos = satn + 8 + 4 * rank + 8 * int(np.prod(shape))
        assert pos == len(data)
        return offsets

    def test_header_substitutions_evaluate_or_are_data_errors(self, tmp_path):
        """Every single-byte substitution outside the float64 payloads of a
        4×4 SATM and SATB: the loader raises DatasetError (exit 3) or the
        file loads, and then `eval` on a 4×4 dataset exits 0 or 3."""
        (tmp_path / "manifest.csv").write_bytes(TestDamagedDatasets.MANIFEST)
        (tmp_path / "sample_00.pgm").write_bytes(TestDamagedDatasets.PGM)
        path = tmp_path / "sub.ckpt"
        swept = loaded = 0
        for data in self.small_files():
            for i in self.header_offsets(data):
                for byte in TestDamagedDatasets.SUBSTITUTES:
                    if byte == data[i]:
                        continue
                    variant = data[:i] + bytes([byte]) + data[i + 1:]
                    swept += 1
                    try:
                        checkpoint_from_bytes(variant)
                    except DatasetError:
                        continue
                    loaded += 1
                    path.write_bytes(variant)
                    code = main(["eval", "--checkpoint", str(path), "--dataset", str(tmp_path)])
                    assert code in (0, 3), (i, byte)
        assert swept == 13487 and 0 < loaded < swept

    def test_cli_exits_3_on_a_truncated_file(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        for data in self.small_files():
            for n in (2, 10, 60, 300, len(data) // 2, len(data) - 1):
                path.write_bytes(data[:n])
                assert main(["eval", "--checkpoint", str(path), "--synthetic"]) == 3
                assert main(["cost", "--checkpoint", str(path)]) == 3

    # checkpoints of 16×16 models, so `eval` runs on matching synthetic data
    # and only the damage can make it fail
    EVAL_16 = ["--synthetic", "--image-size", "16", "--samples-per-class", "1"]

    @staticmethod
    def damaged_files():
        """(label, bytes) of one SATM and one SATB with each container fault:
        an unknown, a missing or a wrong-shaped tensor, trailing bytes and
        another version (4, the format before this one, for SATM; 2 for SATB)."""
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        cases = []
        for data, magic, version, other, reshaped in (
                (checkpoint_bytes(model), b"SATM", 5, 4, "classifier.w_out"),
                (baseline_checkpoint_bytes(build_baseline(0, (16, 16), 3)), b"SATB", 1, 2,
                 "head_w")):
            meta, arrays = unpack(data, magic, version)
            named = [(name, Tensor(a)) for name, a in arrays.items()]
            wrong = [(name, Tensor(a.T if name == reshaped else a)) for name, a in arrays.items()]
            kind = magic.decode()
            cases += [
                (f"{kind} unknown tensor",
                 pack(magic, version, meta, named + [("extra", Tensor(np.zeros(2)))])),
                (f"{kind} missing tensor", pack(magic, version, meta, named[1:])),
                (f"{kind} wrong-shaped {reshaped}", pack(magic, version, meta, wrong)),
                (f"{kind} trailing bytes", data + b"\x00\x00"),
                (f"{kind} version {other}", pack(magic, other, meta, named)),
            ]
        return model, cases

    def test_container_faults_are_data_errors(self, tmp_path):
        model, cases = self.damaged_files()
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(checkpoint_bytes(model))
        assert main(["eval", "--checkpoint", str(path)] + self.EVAL_16) == 0
        assert len(cases) == 10
        for label, data in cases:
            with pytest.raises(DatasetError):
                checkpoint_from_bytes(data)
            path.write_bytes(data)
            assert main(["eval", "--checkpoint", str(path)] + self.EVAL_16) == 3, label
            assert main(["cost", "--checkpoint", str(path)]) == 3, label

    def test_a_version_4_checkpoint_is_a_data_error(self, tmp_path, capsys):
        """SATM 4 held the controller's two steps, step_up and step_down:
        eval exits 3 naming the version, and load_model raises DatasetError."""
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        meta, arrays = unpack(checkpoint_bytes(model), b"SATM", 5)
        step = meta["controller"].pop("step")
        meta["controller"].update(step_up=80, step_down=step)
        path = tmp_path / "old.satm"
        path.write_bytes(pack(b"SATM", 4, meta, [(n, Tensor(a)) for n, a in arrays.items()]))
        assert main(["eval", "--checkpoint", str(path)] + self.EVAL_16) == 3
        assert "unsupported SATM checkpoint version 4" in capsys.readouterr().err
        with pytest.raises(DatasetError, match="unsupported SATM checkpoint version 4"):
            model_module.load_model(path)

    def test_non_finite_weights_are_a_data_error(self, tmp_path, capsys):
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        model.classifier.w_out.data = np.full_like(model.classifier.w_out.data, np.nan)
        net = build_baseline(0, (16, 16), 3)
        net.head_w.data = np.full_like(net.head_w.data, np.inf)
        for name, data in (("nan.satm", checkpoint_bytes(model)),
                           ("inf.satb", baseline_checkpoint_bytes(net))):
            (tmp_path / name).write_bytes(data)
            assert main(["eval", "--checkpoint", str(tmp_path / name)] + self.EVAL_16) == 3
            assert "non-finite" in capsys.readouterr().err, name

    def test_sizes_are_bounded_before_the_model_is_built(self, monkeypatch):
        """A 50 kB file whose metadata gives hidden 2000 beside a 3×2000
        classifier.w_in fails on the record shapes: build_model would
        allocate four 2000×2000 matrices before the records are checked."""
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        meta, arrays = unpack(checkpoint_bytes(model), b"SATM", 5)
        meta["hidden"] = 2000
        arrays["classifier.w_in"] = np.zeros((3, 2000))
        data = pack(b"SATM", 5, meta, [(n, Tensor(a)) for n, a in arrays.items()])

        def build_model_called(*args, **kwargs):
            raise AssertionError("build_model ran on unchecked sizes")

        monkeypatch.setattr(model_module, "build_model", build_model_called)
        with pytest.raises(DatasetError):
            checkpoint_from_bytes(data)

    @pytest.mark.parametrize("fault", [
        {"k": 5000, "k_max": 9000}, {"k": float("inf")}, {"beta": float("nan")},
        {"ema_prev": 0.5}, {"step_up": 80, "step_down": 50},
    ], ids=["budget-beyond-the-image", "infinite-k", "nan-beta", "version-3-key",
            "version-4-keys"])
    def test_controller_faults_are_data_errors(self, tmp_path, capsys, fault):
        """Controller metadata out of range, or of the version-3 or version-4
        format, is a data error in eval, viz and cost: a 16×16 model whose
        k = 5000 and k_max = 9000 never runs a k its image cannot hold."""
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        meta, arrays = unpack(checkpoint_bytes(model), b"SATM", 5)
        meta["controller"].update(fault)
        path = tmp_path / "controller.satm"
        path.write_bytes(pack(b"SATM", 5, meta, [(n, Tensor(a)) for n, a in arrays.items()]))
        image = tmp_path / "img.pgm"
        write_pgm(image, np.zeros((16, 16)))
        assert main(["eval", "--checkpoint", str(path)] + self.EVAL_16) == 3
        assert main(["viz", "--checkpoint", str(path), "--image", str(image),
                     "--out", str(tmp_path / "viz")]) == 3
        assert main(["cost", "--checkpoint", str(path)]) == 3
        assert capsys.readouterr().err.count("corrupt or truncated checkpoint") == 3

    # hidden, dim, coarse_channels and the first SATB image_shape lie far
    # beyond any host's memory: each must fail against the shapes of the
    # tensor records before anything is allocated
    @pytest.mark.parametrize("magic, version, key, value", [
        (b"SATM", 5, "heads", "2"),
        (b"SATM", 5, "heads", 0),
        (b"SATM", 5, "image_shape", None),
        (b"SATM", 5, "controller", [1]),
        (b"SATB", 1, "classes", "3"),
        (b"SATM", 5, "hidden", 10**12),
        (b"SATM", 5, "dim", 10**12),
        (b"SATM", 5, "coarse_channels", 10**12),
        (b"SATB", 1, "image_shape", [4 * 10**6, 4 * 10**6]),
        (b"SATM", 5, "image_shape", [-4, -4]),
    ])
    def test_metadata_of_the_wrong_type_is_a_data_error(self, tmp_path, magic, version,
                                                        key, value):
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        data = (checkpoint_bytes(model) if magic == b"SATM"
                else baseline_checkpoint_bytes(build_baseline(0, (16, 16), 3)))
        meta, arrays = unpack(data, magic, version)
        meta[key] = value
        data = pack(magic, version, meta, [(n, Tensor(a)) for n, a in arrays.items()])
        with pytest.raises(DatasetError):
            checkpoint_from_bytes(data)
        path = tmp_path / "meta.ckpt"
        path.write_bytes(data)
        assert main(["eval", "--checkpoint", str(path)] + self.EVAL_16) == 3
        assert main(["cost", "--checkpoint", str(path)]) == 3


class TestCostCommand:
    def test_cost_json_with_baseline(self, tmp_path, capsys):
        code = main(["cost", "--image-size", "32", "--k", "160", "--hidden",
                     "32", "--baseline", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sparse"]["total_flops"] < payload["baseline"]["total_flops"]
        assert payload["flops_ratio"] < 0.5
        assert payload["sparse"]["pixel_percent"] == pytest.approx(100 * 160 / 1024)

    def test_cost_from_checkpoint(self, tmp_path, capsys):
        run_train(tmp_path)
        capsys.readouterr()   # drain training output
        code = main(["cost", "--checkpoint", str(tmp_path / "checkpoint.satm"),
                     "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sparse"]["parameters"] > 0

    def test_k_beyond_the_checkpoint_image_is_a_config_error(self, tmp_path, capsys):
        """A budget above H·W is refused, not clamped; H·W itself and 0
        (the checkpoint's own k) still report."""
        run_train(tmp_path)
        path = str(tmp_path / "checkpoint.satm")
        capsys.readouterr()   # drain training output
        assert main(["cost", "--checkpoint", path, "--k", "100000"]) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err and captured.out == ""
        assert main(["cost", "--checkpoint", path, "--k", "256", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sparse"]["pixel_percent"] == 100.0
        assert main(["cost", "--checkpoint", path, "--k", "0"]) == 0


class TestCostOutput:
    """The exact stdout of `cost`, as a table and as JSON, on a SATB
    checkpoint, on a SATM checkpoint with --baseline and with no checkpoint.
    Cost depends on shapes alone, so untrained checkpoints pin it."""

    BASELINE_TABLE = ("dense baseline\n  parameters    6339\n  conv1         36864 MACs\n"
                      "  conv2         294912 MACs\n  head          1536 MACs\n"
                      "  total         333312 MACs\n  % image       100.00\n")
    BASELINE_JSON = ('{"parameters": 6339, "pixel_percent": 100.0, "stage_flops": '
                     '{"conv1": 36864, "conv2": 294912, "head": 1536}, "total_flops": 333312}')
    EXPECTED = {
        ("satb", False): BASELINE_TABLE,
        ("satb", True): '{"baseline": ' + BASELINE_JSON + '}\n',
        ("satm", False): (
            "sparse model (k=40)\n  parameters    804\n  coarse        36864 MACs\n"
            "  embedding     4480 MACs\n  fine          3444 MACs\n"
            "  classifier    376 MACs\n  total         45164 MACs\n  % image       15.62\n"
            + BASELINE_TABLE + "  flops ratio   0.136\n"),
        ("satm", True): (
            '{"baseline": ' + BASELINE_JSON + ', "flops_ratio": 0.13550067204301075, '
            '"sparse": {"parameters": 804, "pixel_percent": 15.625, "stage_flops": '
            '{"classifier": 376, "coarse": 36864, "embedding": 4480, "fine": 3444}, '
            '"total_flops": 45164}}\n'),
        ("none", False): (
            "sparse model (k=160)\n  parameters    5220\n  coarse        147456 MACs\n"
            "  embedding     17920 MACs\n  fine          13524 MACs\n"
            "  classifier    4576 MACs\n  total         183476 MACs\n  % image       15.62\n"),
        ("none", True): (
            '{"sparse": {"parameters": 5220, "pixel_percent": 15.625, "stage_flops": '
            '{"classifier": 4576, "coarse": 147456, "embedding": 17920, "fine": 13524}, '
            '"total_flops": 183476}}\n'),
    }

    @pytest.mark.parametrize("as_json", [False, True])
    @pytest.mark.parametrize("case", ["satb", "satm", "none"])
    def test_stdout_is_pinned(self, tmp_path, capsys, case, as_json):
        (tmp_path / "m.satb").write_bytes(baseline_checkpoint_bytes(build_baseline(0, (16, 16), 3)))
        (tmp_path / "m.satm").write_bytes(checkpoint_bytes(
            build_model(seed=0, image_shape=(16, 16), hidden=8, k_init=40, k_min=16)))
        argv = {"satb": ["cost", "--checkpoint", str(tmp_path / "m.satb")],
                "satm": ["cost", "--checkpoint", str(tmp_path / "m.satm"), "--baseline"],
                "none": ["cost", "--image-size", "32", "--k", "160", "--hidden", "32"]}[case]
        assert main(argv + ["--json"] * as_json) == 0
        assert capsys.readouterr().out == self.EXPECTED[case, as_json]


class TestVizCommand:
    def test_outputs_and_bounds(self, tmp_path):
        run_train(tmp_path)
        data_dir = tmp_path / "imgs"
        main(["gen", "--out", str(data_dir), "--seed", "7",
              "--samples-per-class", "1", "--image-size", "16"])
        image = data_dir / "sample_00000.pgm"
        out = tmp_path / "viz"
        code = main(["viz", "--checkpoint", str(tmp_path / "checkpoint.satm"),
                     "--image", str(image), "--out", str(out)])
        assert code == 0
        coarse = read_pgm(out / "sample_00000_coarse.pgm")
        assert coarse.shape == (16, 16)
        csv_lines = (out / "sample_00000_coarse.csv").read_text().splitlines()
        assert csv_lines[0] == "# shape: 16x16"
        assert len(csv_lines) == 17
        fine = read_pgm(out / "sample_00000_fine.pgm")
        lines = (out / "sample_00000_topk.csv").read_text().splitlines()
        assert lines[0] == "row,col,x,y,v,score,fine_score"
        k = len(lines) - 1
        assert np.count_nonzero(fine) <= k
        for rec in lines[1:]:
            row, col = int(rec.split(",")[0]), int(rec.split(",")[1])
            assert 0 <= row < 16 and 0 <= col < 16

    def test_csv_bytes(self, tmp_path):
        """Both CSVs of a fixed checkpoint and image, byte for byte: the
        coarse map as a shape line, then one row of repr floats per map row,
        each ending in \\n; the selected pixels in rank order as csv.writer
        rows, each ending in \\r\\n."""
        model = build_model(seed=0, image_shape=(16, 16), hidden=8, k_init=40, k_min=16)
        (tmp_path / "m.satm").write_bytes(checkpoint_bytes(model))
        write_pgm(tmp_path / "img.pgm", generate(SyntheticSpec(
            image_size=16, seed=7, samples_per_class=1))[1].pixels.data)
        assert main(["viz", "--checkpoint", str(tmp_path / "m.satm"),
                     "--image", str(tmp_path / "img.pgm"), "--out", str(tmp_path / "viz")]) == 0

        _, diag = model_forward(model, Tensor(read_pgm(tmp_path / "img.pgm")), 40)
        coarse = diag.coarse.attention_map.data
        assert coarse.shape == (16, 16)
        rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in coarse)
        assert (tmp_path / "viz" / "img_coarse.csv").read_bytes() == \
            ("# shape: 16x16\n" + rows).encode()

        pixels, fine = diag.pixels, diag.fine.pixel_importance.data[:40]
        assert len(pixels) == len(fine) == 40
        rows = "".join(
            f"{i // 16},{i % 16},{x!r},{y!r},{v!r},{float(coarse.flat[i])!r},{float(f)!r}\r\n"
            for i, (x, y, v), f in zip(pixels.index.tolist(), pixels.triplets.tolist(), fine))
        assert (tmp_path / "viz" / "img_topk.csv").read_bytes() == \
            ("row,col,x,y,v,score,fine_score\r\n" + rows).encode()

    def test_viz_is_byte_deterministic(self, tmp_path):
        run_train(tmp_path)
        data_dir = tmp_path / "imgs"
        main(["gen", "--out", str(data_dir), "--seed", "7",
              "--samples-per-class", "1", "--image-size", "16"])
        image = data_dir / "sample_00000.pgm"
        for name in ("v1", "v2"):
            main(["viz", "--checkpoint", str(tmp_path / "checkpoint.satm"),
                  "--image", str(image), "--out", str(tmp_path / name)])
        for f in sorted(os.listdir(tmp_path / "v1")):
            assert (tmp_path / "v1" / f).read_bytes() == \
                (tmp_path / "v2" / f).read_bytes(), f

    def test_shape_mismatch_exits_3(self, tmp_path):
        run_train(tmp_path)
        data_dir = tmp_path / "imgs"
        main(["gen", "--out", str(data_dir), "--seed", "7",
              "--samples-per-class", "1", "--image-size", "32"])
        code = main(["viz", "--checkpoint", str(tmp_path / "checkpoint.satm"),
                     "--image", str(data_dir / "sample_00000.pgm"),
                     "--out", str(tmp_path / "viz")])
        assert code == 3


def test_cli_defaults_are_the_library_defaults():
    """Each fed option names a real parameter of its home and takes that
    parameter's default and type, so the defaults live in one place."""
    for key, (home, param, _) in _FEEDS.items():
        parameters = inspect.signature(home).parameters
        assert param in parameters, key
        default = parameters[param].default
        assert default is not inspect.Parameter.empty, key
        assert _OPTIONS[key][:2] == (type(default), default), key
    # untouched settings build the library's default objects
    settings = {key: spec[1] for key, spec in _OPTIONS.items()}
    assert _build(TrainConfig, settings, loss=_build(LossConfig, settings)) == TrainConfig()
    assert _build(SyntheticSpec, settings) == SyntheticSpec()
    # no library default: the CLI's own choices, and one sentinel (seed None
    # falls back to SPARSEATTN_SEED and then 0)
    own = {"synthetic", "dataset", "model", "seed", "k", "json", "baseline"}
    assert not set(_FEEDS) & own
    assert set(_FEEDS) | own == set(_OPTIONS)
    assert _OPTIONS["seed"][1] is None and TrainConfig().seed == SyntheticSpec().seed == 0


class TestParser:
    """Each subcommand's help line and its option strings with their help
    text, as the parser stood before its table was written; compared as
    sets, so the order of options is free."""

    HELP = {
        "--help": "show this help message and exit", "--out": "output directory",
        "--config": "key=value config file", "--checkpoint": None, "--image": "input PGM image",
        "--synthetic": "use the in-memory synthetic dataset",
        "--dataset": "dataset directory containing manifest.csv",
        "--model": "model family: sparse or baseline",
        "--seed": "RNG seed (fallback: SPARSEATTN_SEED, then 0)",
        "--k": "pixel budget for cost accounting (0 = from checkpoint)",
        "--json": "emit JSON instead of a table",
        "--baseline": "also report the dense baseline cost",
        "--epochs": "training epochs", "--batch": "batch size", "--lr": "learning rate",
        "--wd": "decoupled weight decay", "--gamma": "focal focusing parameter",
        "--lambda-contrast": "contrastive loss weight",
        "--lambda-distill": "distillation loss weight", "--tau": "contrastive temperature",
        "--emphasis": "distillation target sharpening exponent",
        "--k-init": "initial pixel budget", "--k-min": "minimum pixel budget",
        "--k-max": "maximum pixel budget (0 = full image)",
        "--k-step": "budget step per epoch, before the alpha mix",
        "--ema-beta": "loss EMA coefficient",
        "--k-alpha": "budget damping: k moves (1 - alpha) of each step",
        "--dim": "token embedding dimension", "--heads": "fine attention heads",
        "--hidden": "classifier hidden width",
        "--samples-per-class": "synthetic samples per class",
        "--image-size": "synthetic image edge length",
        "--noise-sigma": "synthetic background noise sigma",
    }
    SYNTHETIC = "--seed --samples-per-class --image-size --noise-sigma"
    BUDGET = ("--k-init --k-min --k-max --k-step --ema-beta --k-alpha "
              "--dim --heads --hidden")
    COMMANDS = {
        "gen": ("write a synthetic PGM dataset", f"--out --config {SYNTHETIC}"),
        "train": ("train a model and write checkpoint + logs",
                  f"--out --config --synthetic --dataset --model {SYNTHETIC} {BUDGET} "
                  "--epochs --batch --lr --wd --gamma --lambda-contrast --lambda-distill "
                  "--tau --emphasis"),
        "eval": ("evaluate a checkpoint on a dataset",
                 f"--checkpoint --config --synthetic --dataset {SYNTHETIC} --json"),
        "cost": ("report parameters and per-stage FLOPs",
                 f"--checkpoint --config --seed --image-size {BUDGET} --k --json --baseline"),
        "viz": ("export attention maps for one image", "--checkpoint --image --out"),
    }

    def test_subcommands_and_their_options(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {a.dest: a.help for a in sub._choices_actions} == \
            {name: line for name, (line, _) in self.COMMANDS.items()}
        for name, (_, flags) in self.COMMANDS.items():
            got = {(s, a.help) for a in sub.choices[name]._actions for s in a.option_strings}
            want = {("-h", self.HELP["--help"])} | \
                {(flag, self.HELP[flag]) for flag in ["--help", *flags.split()]}
            assert got == want, name
