"""The benchmark tracer wraps orbitsep functions by module and name; a
refactor that renames or moves one would turn its per-layer metrics absent
without failing anything else.  perfbench/tracing.py is loaded by path and
only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import orbitsep.exponents
import orbitsep.hermite

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves(tracing):
    missing = []
    for module_name, func_name in tracing.SPANS:
        module = importlib.import_module(f"orbitsep.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"orbitsep.{module_name}.{func_name}")
    assert not missing


def test_one_hermite_normal_form_for_both_layers():
    assert orbitsep.hermite.hermite_normal_form is orbitsep.exponents.hermite_normal_form
