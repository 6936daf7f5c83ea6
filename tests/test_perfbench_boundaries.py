"""The benchmark's use of skewlab must keep working.

``perfbench/tracing.py`` reports a boundary it cannot resolve as missing and
reads its metrics as 0, so a rename in skewlab would silently zero a layer of
the benchmark.  This resolves each boundary the way ``Tracer.install`` does,
without installing any wrapper, and runs the set-up of every workload in
``perfbench/workloads.py``, which builds its inputs through the public API.
It also checks the two destructions whose translations ``workloads.py`` pins
against a run of each, so that a change to ``destroy_trivial_class`` cannot
leave the benchmark's destroyed systems behind unnoticed.
"""

import importlib

import pytest

from systems import DESTROYED, tracing, workloads

BOUNDARIES = tracing.BOUNDARIES
WORKLOADS = workloads.WORKLOADS


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_resolves(name):
    modname, attrs, _ = BOUNDARIES[name]
    module = importlib.import_module(modname)
    for attr in attrs:
        owner, _, leaf = attr.rpartition(".")
        target = getattr(module, owner, None) if owner else module
        assert callable(getattr(target, leaf, None)), f"{modname}.{attr} is missing"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup(name, tmp_path):
    assert WORKLOADS[name].setup(1, tmp_path) is not None


@pytest.mark.parametrize("name, epsilon, params", [
    (name.upper(), epsilon, params) for name, (_, epsilon, params) in DESTROYED.items()])
def test_destroyed_specs_match_destroy(destroy, name, epsilon, params):
    res = destroy(epsilon, params)
    spec = getattr(workloads, name)
    assert res.draws_used == (1, 1)

    def hexes(*values):
        return [float(x).hex() for v in values for x in v]

    assert hexes(res.v1, res.v2, *(b.fiber_center for b in res.bumps), res.region.half[:1]) \
        == hexes(spec.v1, spec.v2, *spec.fiber_centers, (spec.region_half,))
