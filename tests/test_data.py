"""Synthetic generator determinism and shape statistics, PGM round trips,
manifest validation, and stratified splitting.
"""

import numpy as np
import pytest

from sparseattn.data import (
    DatasetError,
    LabeledImage,
    SyntheticSpec,
    export_dataset,
    generate,
    load_dataset,
    read_pgm,
    split,
    write_pgm,
)
from sparseattn.losses import BatchLossReport
from sparseattn.tensor import Tensor, reduce_sum
from sparseattn.train import TrainConfig, fit


class TestGenerate:
    def test_seeded_determinism_is_byte_exact(self):
        spec = SyntheticSpec(image_size=32, seed=9, samples_per_class=5)
        a = generate(spec)
        b = generate(spec)
        assert len(a) == len(b) == 15
        for s, t in zip(a, b):
            assert s.pixels.data.tobytes() == t.pixels.data.tobytes()
            assert s.label == t.label
            assert np.array_equal(s.foreground_mask, t.foreground_mask)

    def test_zero_noise_background_is_exactly_zero(self):
        spec = SyntheticSpec(image_size=32, seed=2, noise_sigma=0.0,
                             samples_per_class=3)
        for sample in generate(spec):
            background = sample.pixels.data[~sample.foreground_mask]
            np.testing.assert_array_equal(background, 0.0)

    def test_disk_foreground_fraction_near_pi_r2(self):
        # mean disk radius is size/4 = 8 on 32x32: pi*64/1024 ≈ 0.196
        spec = SyntheticSpec(image_size=32, seed=5, samples_per_class=40)
        disks = [s for s in generate(spec) if s.label == 0]
        frac = np.mean([s.foreground_mask.mean() for s in disks])
        assert frac == pytest.approx(np.pi * 64 / 1024, abs=0.04)

    def test_values_inside_unit_interval(self):
        for sample in generate(SyntheticSpec(image_size=24, seed=7,
                                             samples_per_class=4)):
            assert sample.pixels.data.min() >= 0.0
            assert sample.pixels.data.max() <= 1.0

    def test_mask_coverage_stable_across_seeds(self):
        per_seed = []
        for seed in (1, 2, 3, 4):
            data = generate(SyntheticSpec(image_size=32, seed=seed,
                                          samples_per_class=30))
            per_seed.append([
                np.mean([s.foreground_mask.mean() for s in data if s.label == c])
                for c in range(3)
            ])
        per_seed = np.array(per_seed)
        for c in range(3):
            assert per_seed[:, c].max() - per_seed[:, c].min() < 0.05

    def test_minimum_image_size(self):
        with pytest.raises(ValueError):
            SyntheticSpec(image_size=8)

    def test_classes_have_distinct_morphologies(self):
        """Disk is one filled blob; ring has a hole; lobes are elongated."""
        data = generate(SyntheticSpec(image_size=32, seed=11, noise_sigma=0.0,
                                      samples_per_class=10))
        for s in data:
            mask = s.foreground_mask
            ys, xs = np.nonzero(mask)
            cy, cx = ys.mean(), xs.mean()
            if s.label == 1:
                # ring: the centroid pixel itself is in the hole
                assert not mask[int(round(cy)), int(round(cx))]
            if s.label == 0:
                assert mask[int(round(cy)), int(round(cx))]
            if s.label == 2:
                cov = np.cov(np.stack([ys, xs]))
                eigs = np.sort(np.linalg.eigvalsh(cov))
                assert eigs[1] / max(eigs[0], 1e-9) > 1.5


class TestSplit:
    def _dataset(self, per_class=100):
        return generate(SyntheticSpec(image_size=16, seed=1,
                                      samples_per_class=per_class))

    def test_80_20_stratified_counts(self):
        train, test = split(self._dataset(100), 0.8, seed=3)
        assert len(train) == 240 and len(test) == 60
        for c in range(3):
            assert sum(1 for s in train if s.label == c) == 80
            assert sum(1 for s in test if s.label == c) == 20

    def test_same_seed_same_split(self):
        data = self._dataset(20)
        a_train, a_test = split(data, 0.8, seed=5)
        b_train, b_test = split(data, 0.8, seed=5)
        assert [id(s) for s in a_train] == [id(s) for s in b_train]
        assert [id(s) for s in a_test] == [id(s) for s in b_test]

    def test_disjoint_and_exhaustive(self):
        data = self._dataset(15)
        train, test = split(data, 0.8, seed=9)
        train_ids = {id(s) for s in train}
        test_ids = {id(s) for s in test}
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == len(data)

    def test_tiny_class_goes_to_train_with_warning(self):
        data = self._dataset(5)
        data.append(LabeledImage(pixels=Tensor(np.zeros((16, 16))), label=3))
        with pytest.warns(UserWarning, match="class 3"):
            train, test = split(data, 0.8, seed=1)
        assert sum(1 for s in train if s.label == 3) == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            split([], 0.8, seed=0)

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, float("nan")])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="train_fraction"):
            split(self._dataset(4), fraction, seed=0)

    def test_fraction_bounds_put_everything_on_one_side(self):
        data = self._dataset(4)
        assert [len(part) for part in split(data, 0.0, seed=0)] == [0, 12]
        assert [len(part) for part in split(data, 1.0, seed=0)] == [12, 0]


def interleaved_dataset() -> list[LabeledImage]:
    """23 2×2 images in classes of 1, 2, 3, 7 and 10 samples (labels 3, 0, 4,
    1, 2), dealt round-robin so no class is contiguous or first in order."""
    sizes = {3: 1, 0: 2, 4: 3, 1: 7, 2: 10}
    labels = [label for r in range(10) for label, size in sizes.items() if r < size]
    return [LabeledImage(Tensor(np.full((2, 2), i / 23)), label)
            for i, label in enumerate(labels)]


class _Recorder:
    """The model `fit` needs, with one parameter, and the batches it sees."""

    image_shape, class_count = (2, 2), 5

    def __init__(self):
        self.w = Tensor(np.zeros(1))
        self.batches = []

    def params(self):
        return [("w", self.w)]

    def batch_report(self, batch, cfg):
        self.batches.append(batch)
        report = BatchLossReport(0.0, 0.0, 0.0, 0.0, reduce_sum(self.w))
        return report, np.array([s.label for s in batch])


def fit_parts(dataset, val_fraction: float, seed: int):
    """(fit, validation) lists as `fit` draws them, from one epoch in one
    batch: the training batch is the fit list in the order of the epoch's
    shuffle (seed salt 37), and the validation batch comes in list order."""
    model = _Recorder()
    config = TrainConfig(epochs=1, batch_size=len(dataset), seed=seed,
                         val_fraction=val_fraction)
    fit(model, dataset, config, model.batch_report, lambda: b"", lambda data: None,
        lambda loss: {})
    trained, validated = model.batches
    order = np.random.default_rng(np.random.SeedSequence([seed, 37])).permutation(len(trained))
    return [trained[j] for j in np.argsort(order)], (validated if val_fraction else [])


class TestMembership:
    """The exact members, in order, of the test split and the validation
    split of interleaved_dataset(); the lists were recorded from the two
    splitters that preceded data.stratified_parts."""

    SPLIT = {
        (0, 0.0): ([0], [5, 1, 12, 7, 10, 3, 18, 14, 16, 20, 4, 15, 22, 21, 8, 17, 19, 13,
                         11, 2, 6, 9]),
        (0, 0.8): ([5, 1, 12, 7, 10, 3, 18, 14, 20, 4, 15, 22, 21, 8, 17, 19, 0, 2, 6],
                   [16, 13, 11, 9]),
        (0, 1.0): ([5, 1, 12, 7, 10, 3, 18, 14, 16, 20, 4, 15, 22, 21, 8, 17, 19, 13, 11, 0,
                    2, 6, 9], []),
        (5, 0.0): ([0], [5, 1, 7, 14, 18, 16, 3, 12, 10, 21, 17, 22, 11, 15, 4, 20, 13, 19,
                         8, 2, 6, 9]),
        (5, 0.8): ([5, 1, 7, 14, 18, 16, 3, 12, 21, 17, 22, 11, 15, 4, 20, 13, 0, 2, 6],
                   [10, 19, 8, 9]),
        (5, 1.0): ([5, 1, 7, 14, 18, 16, 3, 12, 10, 21, 17, 22, 11, 15, 4, 20, 13, 19, 8, 0,
                    2, 6, 9], []),
    }
    VALIDATION = {
        (0, 0.0): (list(range(23)), []),
        (0, 0.2): ([1, 10, 7, 3, 14, 12, 16, 21, 19, 13, 15, 11, 8, 17, 22, 0, 9, 2],
                   [5, 18, 20, 4, 6]),
        (0, 0.5): ([1, 14, 12, 16, 15, 11, 8, 17, 22, 0, 2],
                   [5, 18, 10, 7, 3, 20, 4, 21, 19, 13, 6, 9]),
        (5, 0.0): (list(range(23)), []),
        (5, 0.2): ([1, 12, 14, 18, 10, 16, 7, 11, 17, 20, 4, 21, 22, 13, 19, 0, 9, 2],
                   [5, 3, 15, 8, 6]),
        (5, 0.5): ([1, 10, 16, 7, 4, 21, 22, 13, 19, 0, 2],
                   [5, 3, 12, 14, 18, 15, 8, 11, 17, 20, 6, 9]),
    }

    @staticmethod
    def positions(dataset, parts):
        where = {id(s): i for i, s in enumerate(dataset)}
        return tuple([where[id(s)] for s in part] for part in parts)

    @pytest.mark.parametrize("seed, fraction", sorted(SPLIT))
    def test_split(self, seed, fraction):
        data = interleaved_dataset()
        with pytest.warns(UserWarning, match="class 3 has fewer than 2"):
            parts = split(data, fraction, seed=seed)
        assert self.positions(data, parts) == self.SPLIT[seed, fraction]

    @pytest.mark.parametrize("seed, fraction", sorted(VALIDATION))
    def test_validation_split(self, seed, fraction):
        data = interleaved_dataset()
        parts = fit_parts(data, fraction, seed)
        assert self.positions(data, parts) == self.VALIDATION[seed, fraction]


class TestPgm:
    def test_full_white_reads_as_ones(self, tmp_path):
        path = tmp_path / "w.pgm"
        write_pgm(path, np.ones((4, 6)))
        np.testing.assert_array_equal(read_pgm(path), 1.0)

    def test_round_trip_is_quantized_exactly(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.uniform(0, 1, (8, 8))
        path = tmp_path / "r.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        np.testing.assert_array_equal(back, np.round(img * 255) / 255.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            read_pgm(tmp_path / "absent.pgm")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(DatasetError, match="magic"):
            read_pgm(path)

    def test_size_below_one_pixel(self, tmp_path):
        path = tmp_path / "empty.pgm"
        for raw in (b"P5\n-4 -4\n255\n" + b"\x00" * 16, b"P5\n0 0\n255\n"):
            path.write_bytes(raw)
            with pytest.raises(DatasetError, match="at least 1×1"):
                read_pgm(path)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# comment line\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = read_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 1] == 128 / 255.0


class TestLoadDataset:
    def test_export_then_load_round_trip(self, tmp_path):
        data = generate(SyntheticSpec(image_size=16, seed=8, samples_per_class=3))
        export_dataset(data, tmp_path)
        back = load_dataset(tmp_path)
        assert len(back) == 9
        for orig, loaded in zip(data, back):
            assert loaded.label == orig.label
            np.testing.assert_array_equal(
                loaded.pixels.data, np.round(orig.pixels.data * 255) / 255.0)

    def test_missing_manifest_names_path(self, tmp_path):
        with pytest.raises(DatasetError, match=str(tmp_path / "manifest.csv")):
            load_dataset(tmp_path)

    def test_label_out_of_range_names_row(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
        (tmp_path / "manifest.csv").write_text("filename,label\na.pgm,3\n")
        with pytest.raises(DatasetError, match=":2"):
            load_dataset(tmp_path, class_count=3)

    def test_negative_label_names_row(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
        (tmp_path / "manifest.csv").write_text("filename,label\na.pgm,0\na.pgm,-1\n")
        with pytest.raises(DatasetError, match=":3: label -1 "):
            load_dataset(tmp_path)

    def test_empty_manifest_gives_empty_dataset(self, tmp_path):
        (tmp_path / "manifest.csv").write_text("filename,label\n")
        assert load_dataset(tmp_path) == []

    def test_mismatched_shapes_rejected(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
        write_pgm(tmp_path / "b.pgm", np.zeros((6, 6)))
        (tmp_path / "manifest.csv").write_text("filename,label\na.pgm,0\nb.pgm,1\n")
        with pytest.raises(DatasetError, match="differs"):
            load_dataset(tmp_path)

    def test_manifest_saved_with_a_byte_order_mark_loads(self, tmp_path):
        """The mark is dropped, so the header row is still recognised."""
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
        (tmp_path / "manifest.csv").write_bytes(b"\xef\xbb\xbffilename,label\na.pgm,2\n")
        assert [s.label for s in load_dataset(tmp_path)] == [2]

    def test_non_integer_label(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((4, 4)))
        (tmp_path / "manifest.csv").write_text("filename,label\na.pgm,x\n")
        with pytest.raises(DatasetError, match="not an integer"):
            load_dataset(tmp_path)
