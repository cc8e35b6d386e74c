"""tools/seeds.py: the per-seed runner of acceptance criteria 9 and 11,
on fixtures small enough to train in well under a second."""

import pytest

from conftest import load_tool

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


def test_parse_seeds():
    assert seeds.parse_seeds("1-3,7,101-102") == [1, 2, 3, 7, 101, 102]
