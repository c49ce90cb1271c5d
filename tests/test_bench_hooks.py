"""The benchmark tracer's hook targets all exist in the library.

``bench/tracer.py`` wraps lamp names by module and attribute path; a
target that is renamed or no longer imported reads as zero calls and
fails the benchmark smoke run. This catches it in the unit suite.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize(
    "module, path", [(module, path) for module, path, _name, _mode in tracer.HOOKS]
)
def test_hook_target_resolves(module, path):
    assert tracer._target(module, path) is not None
