"""The benchmark tracer (benchmarks/tracer.py) wraps package functions by
module attribute; these tests fail when a refactor moves one of them."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("saew_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves(tracer):
    assert tracer.WRAPS
    for module_name, path, _group in tracer.WRAPS:
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls_name in classes:
            owner = owner.__dict__[cls_name]
        assert attr in owner.__dict__, f"{module_name}.{path}"


def test_patched_module_attributes_exist():
    import saew.harness
    import saew.losses

    assert "build_environment" in saew.harness.__dict__
    assert isinstance(saew.losses._HOLDOUT_SIZE, int)


def test_install_and_restore_round_trip(tracer):
    import saew.harness

    originals = dict(vars(saew.harness))
    t = tracer.Tracer()
    t.install()
    try:
        assert saew.harness.true_excess_risk is not originals[
            "true_excess_risk"]
    finally:
        t.restore()
    assert saew.harness.true_excess_risk is originals["true_excess_risk"]
    assert saew.harness.build_environment is originals["build_environment"]
