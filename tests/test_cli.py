"""CLI: subcommand flows, exit codes, config layering, resolved-config
round trip, and byte-determinism of emitted files.
"""

import json
import os

import numpy as np
import pytest

from sparseattn.baseline import baseline_checkpoint_bytes, build_baseline
from sparseattn.cli import checkpoint_from_bytes, main
from sparseattn.data import DatasetError, read_pgm
from sparseattn.model import build_model, checkpoint_bytes
from sparseattn.tensor import Tensor, pack, unpack

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

    def test_paper_scale_defaults_present_in_resolved(self, tmp_path):
        run_train(tmp_path, extra=["--k-init", "8000", "--k-min", "1500"])
        resolved = (tmp_path / "config.resolved").read_text()
        assert "k-init=8000" in resolved
        assert "k-min=1500" in resolved


class TestConfigFile:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense-key=5\n")
        code = main(["train", "--synthetic", "--out", str(tmp_path / "out"),
                     "--config", str(cfg)])
        assert code == 2
        assert "nonsense-key" in capsys.readouterr().err

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
        another version (1 for SATM, 2 for SATB)."""
        model = build_model(seed=0, image_shape=(16, 16), class_count=3, dim=2, heads=1,
                            hidden=2, coarse_channels=1, k_init=4, k_min=2)
        cases = []
        for data, magic, version, other, reshaped in (
                (checkpoint_bytes(model), b"SATM", 2, 1, "classifier.w_out"),
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

    # hidden, dim, coarse_channels and the first SATB image_shape lie far
    # beyond any host's memory: each must fail against the shapes of the
    # tensor records before anything is allocated
    @pytest.mark.parametrize("magic, version, key, value", [
        (b"SATM", 2, "heads", "2"),
        (b"SATM", 2, "heads", 0),
        (b"SATM", 2, "image_shape", None),
        (b"SATM", 2, "controller", [1]),
        (b"SATB", 1, "classes", "3"),
        (b"SATM", 2, "hidden", 10**12),
        (b"SATM", 2, "dim", 10**12),
        (b"SATM", 2, "coarse_channels", 10**12),
        (b"SATB", 1, "image_shape", [4 * 10**6, 4 * 10**6]),
        (b"SATM", 2, "image_shape", [-4, -4]),
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
