"""Top-k selection against a brute-force oracle, and controller behavior."""

from dataclasses import asdict, replace

import numpy as np
import pytest

from sparseattn.selector import (
    KController,
    select_top_k,
    update_k,
)
from sparseattn.tensor import NumericError, Tensor

from conftest import load_tool

select_timing = load_tool("select_timing")   # stable_selection, the oracle, and tie_share


def brute_force_order(scores: np.ndarray) -> list[int]:
    """Full sort by (descending value, ascending flat index)."""
    flat = scores.ravel()
    return sorted(range(flat.size), key=lambda i: (-flat[i], i))


class TestSelectTopK:
    def test_hand_example(self):
        score = Tensor([[0.9, 0.1], [0.8, 0.2]])
        img = Tensor([[1.0, 2.0], [3.0, 4.0]])
        picked = select_top_k(score, img, 2)
        assert picked.row.tolist() == [0, 1] and picked.col.tolist() == [0, 0]
        assert picked.triplets[:, 2].tolist() == [1.0, 3.0]

    def test_k_equals_all_pixels(self):
        rng = np.random.default_rng(2)
        score = Tensor(rng.uniform(0, 1, (5, 7)))
        picked = select_top_k(score, Tensor(np.zeros((5, 7))), 35)
        assert len(picked) == 35
        assert sorted(picked.index.tolist()) == list(range(35))

    def test_constant_map_tie_break_by_flat_index(self):
        score = Tensor(np.full((2, 2), 0.3))
        picked = select_top_k(score, Tensor(np.zeros((2, 2))), 3)
        assert picked.index.tolist() == [0, 1, 2]

    def test_matches_brute_force_on_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            h, w = rng.integers(2, 65), rng.integers(2, 65)
            scores = rng.uniform(0, 1, (h, w))
            if rng.random() < 0.3:   # inject ties
                scores = np.round(scores, 1)
            k = int(rng.integers(1, h * w + 1))
            picked = select_top_k(Tensor(scores), Tensor(scores), k)
            expected = brute_force_order(scores)[:k]
            assert picked.index.tolist() == expected

    def test_batch_rows_match_brute_force(self):
        rng = np.random.default_rng(17)
        scores = np.round(rng.uniform(0, 1, (5, 6, 7)), 1)     # ties in every row
        images = rng.uniform(0, 1, (5, 6, 7))
        picked = select_top_k(Tensor(scores), Tensor(images), 9)
        assert picked.index.shape == (5, 9) and picked.triplets.shape == (5, 9, 3)
        for b in range(5):
            assert picked.index[b].tolist() == brute_force_order(scores[b])[:9]
            single = select_top_k(Tensor(scores[b]), Tensor(images[b]), 9)
            np.testing.assert_array_equal(picked.triplets[b], single.triplets)
            np.testing.assert_array_equal(
                single.triplets[:, 2], images[b][single.row, single.col])

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        scores = Tensor(np.round(rng.uniform(0, 1, (16, 16)), 1))
        img = Tensor(rng.uniform(0, 1, (16, 16)))
        a = select_top_k(scores, img, 40)
        b = select_top_k(scores, img, 40)
        assert np.array_equal(a.index, b.index)
        assert np.array_equal(a.triplets, b.triplets)

    def test_k_out_of_range(self):
        score = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            select_top_k(score, score, 0)
        with pytest.raises(ValueError):
            select_top_k(score, score, 5)

    def test_coordinate_normalization_hits_corners(self):
        score = np.zeros((3, 4))
        score[0, 0] = 2.0
        score[2, 3] = 1.0
        picked = select_top_k(Tensor(score), Tensor(score), 2)
        assert picked.triplets[0, :2].tolist() == [0.0, 0.0]
        assert picked.triplets[1, :2].tolist() == [1.0, 1.0]

    def test_values_dominate_unselected(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(0, 1, (32, 32))
        picked = select_top_k(Tensor(scores), Tensor(scores), 50)
        chosen = set(picked.index.tolist())
        floor = min(scores.ravel()[i] for i in chosen)
        rest = [scores.ravel()[i] for i in range(1024) if i not in chosen]
        assert floor >= max(rest)


def oracle_cases():
    rng = np.random.default_rng(29)
    maps = {}
    straddle = rng.uniform(0, 0.4, (3, 6, 6))
    straddle[:, :2, :] = 0.7                          # 12 ties at the 10th score
    straddle[:, 2, :4] = 0.9
    maps["ties-straddling-k"] = (straddle, [4, 5, 10, 16])
    maps["all-equal"] = (np.full((2, 5, 5), 0.25), [1, 7, 25])
    saturated = rng.uniform(0, 1, (3, 6, 6))
    saturated[0] = 1.0
    saturated[1, rng.random((6, 6)) < 0.5] = 1.0
    maps["saturated"] = (saturated, [1, 9, 18, 36])
    nan = rng.uniform(0, 1, (4, 5, 5))
    nan[0] = np.nan                                   # no number at all
    nan[1, rng.random((5, 5)) < 0.7] = np.nan         # fewer numbers than most k
    nan[2, 0, :3] = np.nan                            # NaN, but k numbers remain
    maps["nan-rows"] = (nan, [1, 5, 22, 25])
    signed = rng.choice([0.0, -0.0, 1.0, -np.inf, np.inf], (2, 4, 4))
    maps["signed-zero-and-inf"] = (signed, [1, 3, 8, 16])
    maps["one-image"] = (np.round(rng.uniform(0, 1, (1, 32, 32)), 2), [1, 160, 512, 1024])
    maps["unbatched"] = (np.round(rng.uniform(0, 1, (7, 9)), 1), [1, 20, 63])
    maps["rounded-batch"] = (np.round(rng.uniform(0, 1, (32, 8, 8)), 2), [1, 10, 32, 64])
    # a trained map: distinct scores on the foreground, one clipped score on
    # the background, whose run straddles k=512 and runs to the end of the row
    trained = rng.uniform(0.5, 1, (4, 32, 32))
    trained[rng.random((4, 32, 32)) < 0.55] = 0.4198
    maps["clipped-run-to-row-end"] = (trained, [160, 512, 1024])
    tail_ties = rng.uniform(0.5, 1, (3, 8, 8))
    tail_ties[:, 4:, :] = 0.25                       # ranks 32…63 tie, ranks 0…31 do not
    maps["ties-only-beyond-k"] = (tail_ties, [1, 16, 31])
    mixed = rng.uniform(0, 1, (6, 8, 8))
    mixed[::2, :3, :] = 2.0                          # rows 0, 2, 4 tie at ranks 0…23
    maps["tied-and-untied-rows"] = (mixed, [8, 24, 40])
    nan_run = rng.uniform(0, 1, (3, 6, 6))
    nan_run[:, 3:, :] = np.nan                       # 18 numbers, then 18 NaNs
    nan_run[1, 0, 0] = np.nan
    maps["nan-run-straddling-k"] = (nan_run, [17, 18, 20, 36])
    cases = [(name, scores, k) for name, (scores, ks) in maps.items() for k in ks]
    pool = np.array([0.0, -0.0, 0.3, 0.7, 1.0, np.inf, -np.inf, np.nan])
    for i in range(40):
        h, w = rng.integers(2, 7, 2)
        values = rng.choice(pool, int(rng.integers(2, 6)), replace=False)
        shape = (h, w) if i % 4 == 0 else (int(rng.integers(1, 5)), h, w)
        cases.append((f"sweep{i}", rng.choice(values, shape), int(rng.integers(1, h * w + 1))))
    return cases


class TestAgainstStableArgsort:
    @pytest.mark.parametrize("name, scores, k", oracle_cases(),
                             ids=[f"{name}-k{k}" for name, _, k in oracle_cases()])
    def test_selection_equals_the_oracle(self, name, scores, k):
        images = np.random.default_rng(k).uniform(0, 1, scores.shape)
        picked = select_top_k(Tensor(scores), Tensor(images), k)
        index, triplets = select_timing.stable_selection(scores, images, k)
        assert picked.index.dtype == index.dtype
        np.testing.assert_array_equal(picked.index, index)
        np.testing.assert_array_equal(picked.triplets, triplets)

    def test_cases_take_the_tie_free_and_the_re_sort_path(self):
        tied = [select_timing.tie_share(scores.reshape(-1, *scores.shape[-2:]), k) > 0
                for _, scores, k in oracle_cases()]
        assert 0 < sum(tied) < len(tied)


class TestKController:
    def test_first_call_initializes_only(self):
        ctrl = KController(k=100, k_min=10, k_max=200)
        assert update_k(ctrl, 1.0) == 100
        assert ctrl.ema == 1.0

    def test_ema_hand_value(self):
        ctrl = KController(k=100, k_min=10, k_max=200, beta=0.2)
        update_k(ctrl, 1.0)
        update_k(ctrl, 0.5)
        # beta*prev + (1-beta)*loss = 0.2*1.0 + 0.8*0.5
        assert ctrl.ema == pytest.approx(0.6)

    def test_decrease_with_momentum_hand_value(self):
        ctrl = KController(k=8000, k_min=1500, k_max=20000,
                           beta=0.2, alpha=0.2, step=50)
        update_k(ctrl, 1.0)
        new_k = update_k(ctrl, 0.5)
        # raw 7950, smoothed round(0.2*8000 + 0.8*7950) = 7960
        assert new_k == 7960

    def test_clamps_at_k_min(self):
        ctrl = KController(k=1500, k_min=1500, k_max=20000)
        update_k(ctrl, 1.0)
        for loss in (0.9, 0.8, 0.7):
            assert update_k(ctrl, loss) == 1500

    def test_monotone_down_on_strictly_decreasing_losses(self):
        ctrl = KController(k=2000, k_min=1500, k_max=20000)
        update_k(ctrl, 5.0)
        ks = [update_k(ctrl, 5.0 - 0.1 * i) for i in range(1, 30)]
        assert all(a >= b for a, b in zip(ks, ks[1:]))
        assert ks[-1] == 1500
        assert all(isinstance(k, int) and 1500 <= k <= 20000 for k in ks)

    def test_monotone_up_on_increasing_losses(self):
        ctrl = KController(k=2000, k_min=1500, k_max=2400)
        update_k(ctrl, 1.0)
        ks = [update_k(ctrl, 1.0 + 0.1 * i) for i in range(1, 30)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))
        assert ks[-1] == 2400

    def test_raw_step_sign_matches_trend(self):
        ctrl = KController(k=2000, k_min=100, k_max=4000,
                           alpha=0.0)   # no damping: k == raw
        update_k(ctrl, 1.0)
        assert update_k(ctrl, 2.0) == 2050    # up by step
        assert update_k(ctrl, 0.1) == 2000    # down by step

    def test_a_flipping_trend_does_not_drift(self):
        """A loss that rises and falls in turn moves k up and down by the
        same (1 - alpha)·step, so k is back at 2000 after every pair."""
        ctrl = KController(k=2000)
        update_k(ctrl, 1.0)
        for _ in range(4):
            assert update_k(ctrl, 2.0) == 2040
            assert update_k(ctrl, 0.0) == 2000

    def test_nonfinite_loss_leaves_state_unchanged(self):
        ctrl = KController(k=300, k_min=10, k_max=400)
        update_k(ctrl, 1.0)
        before = replace(ctrl)
        with pytest.raises(NumericError):
            update_k(ctrl, float("nan"))
        assert ctrl == before

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            KController(k=10, k_min=200, k_max=100)

    @pytest.mark.parametrize("setting", [
        {"beta": float("nan")}, {"beta": 1.5}, {"alpha": float("nan")}, {"alpha": -0.1},
        {"step": -1}, {"step": float("nan")},
    ], ids=["beta-nan", "beta-above-1", "alpha-nan", "alpha-below-0", "step-below-0",
            "step-nan"])
    def test_coefficient_and_step_validation(self, setting):
        with pytest.raises(ValueError):
            KController(k=100, k_min=10, k_max=200, **setting)

    def test_updates_stay_in_bounds_without_a_final_clamp(self):
        """Every alpha in [0, 1] and every trend keep k inside [k_min, k_max]."""
        for alpha in (0.0, 0.3, 0.5, 0.999, 1.0):
            ctrl = KController(k=150, k_min=100, k_max=200, alpha=alpha,
                               step=1000)
            update_k(ctrl, 1.0)
            for loss in (2.0, 3.0, 0.1, 0.05, 5.0, 0.01, 9.0):
                assert 100 <= update_k(ctrl, loss) <= 200
                assert isinstance(ctrl.k, int)

    def test_state_round_trip(self):
        ctrl = KController(k=321, k_min=10, k_max=400, beta=0.3, alpha=0.4)
        update_k(ctrl, 2.0)
        update_k(ctrl, 1.0)
        back = KController(**asdict(ctrl))
        assert back == ctrl
