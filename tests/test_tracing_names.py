"""The benchmark's span recorder wraps qfunc functions by name.

`perfbench/tracing.py` looks each name up in its qfunc module when
`perfbench/run.py --trace 1` installs it, so a renamed or deleted function
breaks the traced run.  This test names the break before the benchmark
does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_names():
    tracing = _tracing_module()
    for table in (tracing.TRACED, tracing.ENTRY_POINTS):
        for layer, names in table.items():
            for name in names:
                yield layer, name


@pytest.mark.parametrize("layer,name", list(_wrapped_names()))
def test_traced_name_exists(layer, name):
    module = importlib.import_module(f"qfunc.{layer}")
    assert callable(getattr(module, name, None)), f"qfunc.{layer}.{name} is gone"
