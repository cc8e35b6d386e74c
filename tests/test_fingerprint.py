"""tools/fingerprint.py, the bit-exactness check of the training fixture,
on a tiny configuration."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("fingerprint", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_fingerprint():
    tool = load_tool()
    settings = dict(image_size=16, samples_per_class=10, epochs=1, baseline_epochs=1,
                    k_init=64, k_min=16)
    first = tool.fingerprint(**settings)
    assert first == tool.fingerprint(**settings)
    for run in first.values():
        assert all(len(run[key]) == 64 for key in run if key.endswith("_sha"))
    assert 16 <= first["sparse"]["k"] <= 64
