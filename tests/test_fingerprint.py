"""tools/fingerprint.py, the bit-exactness check of the training fixture,
and tools/select_timing.py, which builds on it, on small configurations."""

from conftest import load_tool


def test_two_runs_print_the_same_fingerprint():
    tool = load_tool("fingerprint")
    settings = dict(image_size=16, samples_per_class=10, epochs=1, baseline_epochs=1,
                    k_init=64, k_min=16)
    first = tool.fingerprint(**settings)
    assert first == tool.fingerprint(**settings)
    for run in first.values():
        assert {"chunk_logits_sha", "single_logits_sha"} <= set(run)
        assert all(len(run[key]) == 64 for key in run if key.endswith("_sha"))
    assert 16 <= first["sparse"]["k"] <= 64


def test_select_timing_agrees_and_reports_every_setting():
    report = load_tool("select_timing").select_timing(passes=1, samples_per_class=60,
                                                      epochs=1)
    assert report["images"] == 36
    settings = {(t["maps"], t["batch"], t["k"]) for t in report["timings"]}
    assert settings == {(m, b, k) for m in ("untrained", "trained")
                        for b in (1, 8, 32) for k in (160, 512)}
    assert all(0 <= t["tie_share"] <= 1 and t["stable_us"] > 0 and t["select_top_k_us"] > 0
               for t in report["timings"])


def test_differing_keys_names_the_one_key_that_differs():
    tool = load_tool("fingerprint")
    first = {"sparse": {"k": 165, "logs_sha": "a"}, "baseline": {"logs_sha": "b"}}
    second = {"sparse": {"k": 166, "logs_sha": "a"}, "baseline": {"logs_sha": "b"}}
    assert tool.differing_keys(first, first) == []
    assert tool.differing_keys(first, second) == ["sparse.k"]
