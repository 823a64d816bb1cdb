"""The benchmark's per-layer tracer still finds every function it traces.

``benchmarks/layertrace.py`` wraps crraport functions by name; installing
it raises if any traced name is gone from crraport, which would break
every ``--trace 1`` benchmark run.
"""

import importlib.util
from pathlib import Path

import crraport
import crraport.crra

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_every_traced_name_and_remove_restores(worked_market):
    layertrace = _layertrace()
    originals = {
        name: getattr(crraport, name)
        for name in ("power_solution", "gamma_min", "objective_value", "efficient_constants")
    }
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert crraport.power_solution is not originals["power_solution"]
        crraport.power_solution(3.0, worked_market)
    finally:
        tracer.remove()
    assert tracer.calls["crra.power_solution"] == 1
    assert tracer.calls["frontier.efficient_constants"] == 1
    for name, original in originals.items():
        assert getattr(crraport, name) is original
    assert crraport.crra.efficient_constants is originals["efficient_constants"]
