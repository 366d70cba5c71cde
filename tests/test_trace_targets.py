"""The benchmark's tracer wraps pinchopt functions by name and reads some of
their arguments by position.  These tests keep those names and positions
from drifting without importing the benchmark package."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import pinchopt
from pinchopt import (
    AlgoConfig,
    AntennaLayout,
    QosTargets,
    SystemParams,
    UserPosition,
    bisection_solve,
    evaluate_placement,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _literal(name: str):
    """The literal value assigned to module-level ``name`` in the tracer."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == name for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


TARGETS = sorted(set(_literal("TRACE_TARGETS")) | set(_literal("SOLVER_TARGETS")))


def _function(layer: str, name: str):
    return getattr(importlib.import_module(f"pinchopt.{layer}"), name, None)


@pytest.mark.parametrize("layer, name", TARGETS, ids=[f"{l}.{n}" for l, n in TARGETS])
def test_target_is_callable(layer, name):
    assert callable(_function(layer, name)), f"pinchopt.{layer}.{name} is gone"


# leading parameters the tracer's measurements read by position
POSITIONAL = [
    ("placement", "bisection_solve", ("params", "users", "qos")),
    ("oracle", "exhaustive_placement", ("params", "users", "qos")),
    ("placement", "fine_tune", ("params", "layout", "users", "cfg")),
    ("sim", "write_table", ("table", "path")),
]


@pytest.mark.parametrize(
    "layer, name, leading", POSITIONAL, ids=[f"{l}.{n}" for l, n, _ in POSITIONAL]
)
def test_measured_parameters_keep_their_places(layer, name, leading):
    params = list(inspect.signature(_function(layer, name)).parameters)
    assert tuple(params[:len(leading)]) == leading


def test_evaluate_placement_verdict_is_bool():
    params = SystemParams()
    layout = AntennaLayout((-params.delta_min, 0.0, params.delta_min), -params.side_d / 2)
    users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
    report = evaluate_placement(params, layout, users, QosTargets())[2]
    assert isinstance(report.overall, bool)


# beyond the names: what the tracer's fine-tune key and the benchmark's
# output checks read from arguments and results
def test_fine_tune_key_attributes():
    params = SystemParams()
    fields = ("fc", "n_eff", "h", "side_d", "n_antennas", "delta_min")
    assert all(isinstance(getattr(params, f), (int, float)) for f in fields)
    cfg = AlgoConfig()
    assert isinstance(cfg.delta1, float) and isinstance(cfg.delta2, float)
    assert cfg.resolved_fine_step(params) > 0
    assert isinstance(cfg.resolved_max_shifts(params), int)
    layout = AntennaLayout((-params.delta_min, 0.0, params.delta_min), -params.side_d / 2)
    assert isinstance(layout.xs, tuple) and layout.feed_x == -params.side_d / 2


def test_output_check_attributes():
    params = SystemParams()
    users = (UserPosition(2.0, 1.0), UserPosition(-2.0, 0.3))
    sol = bisection_solve(params, users, QosTargets(), AlgoConfig())
    sol.layout.validate(params)
    assert issubclass(pinchopt.LayoutError, Exception)
    assert isinstance(pinchopt.noma.RATE_TOL, float)
    r = sol.rates
    assert r.r1 + r.r2 == r.sum_rate and isinstance(sol.feasible_found, bool)
    assert isinstance(r.r2_to_1, float)
