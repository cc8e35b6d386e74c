"""Shared test helpers."""

import importlib.util
import sys
from pathlib import Path

from sparseattn.tensor import GradientTape, central_difference_error

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """The module tools/<name>.py. The tools import each other by name, so
    tools/ joins sys.path."""
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def param_grad_errors(named_params, loss_fn, eps: float = 1e-5) -> dict[str, float]:
    """Worst relative error of taped vs central-difference gradients, per
    parameter, for a loss computed from live module state.

    Same comparison rule as tensor.grad_check: central differences with
    relative error over max(|analytic|, |numeric|, 1e-8). loss_fn must
    be deterministic and is re-evaluated tape-free for the probes.
    """
    tape = GradientTape()
    tape.watch(*[t for _, t in named_params])
    tape.backward(loss_fn())
    analytic = {name: t.grad.copy() for name, t in named_params}
    for _, t in named_params:
        t.grad = None

    errors = {}
    for name, t in named_params:
        base = t.data
        t.data = base.copy()    # probed in place through a flat view
        errors[name] = central_difference_error(
            analytic[name], t.data.reshape(-1), lambda: loss_fn().item(), eps)
        t.data = base
    return errors
