"""tools/seeds.py: the per-seed runner of acceptance criteria 9 and 11,
on fixtures small enough to train in well under a second."""

import numpy as np
import pytest

import sparseattn as sa
from conftest import load_tool
from sparseattn.coarse import coarse_forward
from sparseattn.selector import select_top_k
from sparseattn.train import EVAL_CHUNK

seeds = load_tool("seeds")

TINY = {"image-size": 16, "samples-per-class": 4, "epochs": 2, "k-init": 32, "k-min": 16}


def without_wall_times(results):
    return [{key: value for key, value in r.items() if key != "elapsed_s"} for r in results]


def test_one_and_two_processes_print_the_same_results():
    one = seeds.run([3, 4], TINY, jobs=1)
    two = seeds.run([3, 4], TINY, jobs=2)
    assert [r["seed"] for r in one] == [3, 4]
    assert all("error" not in r and r["elapsed_s"] >= 0 for r in one + two)
    assert without_wall_times(one) == without_wall_times(two)


def test_a_line_holds_every_field():
    (result,) = seeds.run([5], TINY, jobs=1)
    assert list(result) == ["seed", "accuracy", "k", "hit_rate", "restored_epoch",
                            "epoch_k", "epoch_hit_rate", "criterion_9", "criterion_11",
                            "passed", "elapsed_s"]
    assert len(result["epoch_k"]) == len(result["epoch_hit_rate"]) == TINY["epochs"]
    assert result["epoch_k"][0] == TINY["k-init"]
    assert 0 <= result["restored_epoch"] < TINY["epochs"]
    assert 0.0 <= result["hit_rate"] <= 1.0
    assert result["passed"] == (result["criterion_9"] and result["criterion_11"])


def test_a_failed_run_is_reported_not_raised():
    (result,) = seeds.run([1], dict(TINY, **{"k-min": 0}), jobs=1)
    assert result["seed"] == 1 and "k_min" in result["error"]


def test_summary_counts_each_criterion():
    results = [
        {"seed": 2, "criterion_9": True, "criterion_11": True, "passed": True},
        {"seed": 5, "criterion_9": True, "criterion_11": False, "passed": False},
        {"seed": 7, "error": "ValueError: need 1 <= k_min <= k_max"},
    ]
    assert seeds.summary(results) == ("criteria 9 and 11 both hold on 1 of 3 seeds: 2; "
                                      "criterion 9 on 2, criterion 11 on 1")
    assert seeds.summary(results[1:]).startswith("criteria 9 and 11 both hold on 0 of 2 "
                                                 "seeds: none;")


@pytest.mark.parametrize("accuracy, k, elapsed_s, hit_rate, want", [
    (0.90, 204, 299.9, 0.70, (True, True)),
    (0.8999, 204, 1.0, 0.70, (False, True)),
    (0.95, 205, 1.0, 0.6999, (False, False)),
    (0.95, 160, 300.0, 0.99, (False, True)),
])
def test_criteria_bounds(accuracy, k, elapsed_s, hit_rate, want):
    """Criterion 9 on a 32×32 image: k at most 204.8; at most 60 epochs."""
    got = seeds.criteria(accuracy, k, 32 * 32, 28, elapsed_s, hit_rate)
    assert (got["criterion_9"], got["criterion_11"]) == want
    assert not seeds.criteria(1.0, 160, 32 * 32, 61, 1.0, 1.0)["criterion_9"]


def test_parse_seeds(capsys):
    assert seeds.parse_seeds("1-3,7,101-102") == [1, 2, 3, 7, 101, 102]
    assert seeds.parse_seeds("4-4") == [4]
    # a reversed or open range is a usage error (exit 2), not a run of 0 seeds
    for text in ("5-3", "3-", "1-3,9-8", "-3"):
        with pytest.raises(SystemExit) as exit_:
            seeds.main([text])
        assert exit_.value.code == 2
        assert "argument seeds" in capsys.readouterr().err


def per_image_hit_rate(model, test_set, k):
    """Criterion 11's hit rate one image at a time: the oracle of the
    batched seeds.hit_rate."""
    rates = []
    for sample in test_set:
        out = coarse_forward(model.coarse, sample.pixels)
        picked = select_top_k(out.attention_map, sample.pixels, k)
        rates.append(int(sample.foreground_mask[picked.row, picked.col].sum()) / len(picked))
    return float(np.mean(rates))


# seed, image size, samples per class, epochs, k_init, k_min: 9 test images
TINY_FIXTURE = (3, 16, 15, 2, 32, 16)


@pytest.fixture(scope="module")
def tiny_fixture():
    """The test split, an untrained model and one trained for 2 epochs."""
    train_set, test_set, model, config = seeds.fixture(*TINY_FIXTURE)
    untrained = seeds.fixture(*TINY_FIXTURE)[2]
    trained, _ = sa.train(model, train_set, config)
    return test_set, untrained, trained


@pytest.mark.parametrize("chunk", [EVAL_CHUNK, 4])
@pytest.mark.parametrize("k", [1, 8, 37, 160, 255, 256])
def test_batched_hit_rate_equals_the_per_image_loop(tiny_fixture, k, chunk, monkeypatch):
    """Bit for bit, over chunks that do not divide the test set."""
    test_set, untrained, trained = tiny_fixture
    assert len(test_set) % chunk != 0
    monkeypatch.setattr(seeds, "EVAL_CHUNK", chunk)
    for model in (untrained, trained):
        assert seeds.hit_rate(model, test_set, k) == per_image_hit_rate(model, test_set, k)


@pytest.mark.parametrize("k", [1, 37, 256])
def test_batched_hit_rate_on_a_constant_map(tiny_fixture, k):
    """Every rank a tie, so each image selects its first k pixels."""
    test_set = tiny_fixture[0]
    model = seeds.fixture(*TINY_FIXTURE)[2]
    model.coarse.conv2_w.data = np.zeros_like(model.coarse.conv2_w.data)
    scores = coarse_forward(model.coarse, seeds.stack_images(test_set)).attention_map
    assert np.ptp(scores.data) == 0.0
    got = seeds.hit_rate(model, test_set, k)
    assert got == per_image_hit_rate(model, test_set, k)
    first_k = np.stack([s.foreground_mask.reshape(-1)[:k] for s in test_set])
    assert got == float(np.mean(first_k.sum(axis=1) / k))
