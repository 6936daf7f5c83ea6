"""Every boundary the benchmark tracer wraps must exist in skewlab.

``perfbench/tracing.py`` reports a boundary it cannot resolve as missing and
reads its metrics as 0, so a rename in skewlab would silently zero a layer of
the benchmark.  This resolves each boundary the way ``Tracer.install`` does,
without installing any wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BOUNDARIES = _load_tracing().BOUNDARIES


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_resolves(name):
    modname, attrs, _ = BOUNDARIES[name]
    module = importlib.import_module(modname)
    for attr in attrs:
        owner, _, leaf = attr.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        assert callable(getattr(target, leaf, None)), f"{modname}.{attr} is missing"
