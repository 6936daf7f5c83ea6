"""The suite's named systems: where their constants come from.

``perfbench/workloads.py`` pins the cat map, the default quad's arguments,
the horizontal system and the translations that ``destroy_trivial_class``
drew for FINE and STRONG.  This module loads it, and ``perfbench/tracing.py``,
once; ``conftest.py`` builds each named system once per session from them.
A new named system goes here, with its fixture in ``conftest.py``, so that no
test file restates it.
"""

import importlib.util
import sys
from pathlib import Path

from skewlab.perturbation import FIBER_ANCHOR, DestroyParams, _mount

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

# FINE and STRONG by the names their parameter ids use: the pinned spec and
# the destroy_trivial_class(id_sp, quad, epsilon, params) call that drew it.
# FINE is c04's classification system; STRONG is c05's, c06's and c09's.
DESTROYED = {
    "fine": (workloads.FINE, 0.03, DestroyParams()),
    "strong": (workloads.STRONG, 0.12, DestroyParams(v_frac=0.9, fiber_anchor2=(0.0, 0.0))),
}


def destroy_bump(quad, i=1, v=(0.03, 0.012), fiber_center=FIBER_ANCHOR):
    """A bump translation by v with destroy's geometry, mounted by destroy's
    own ``_mount``: its base bump at the quad's w_i, its fiber bump at
    fiber_center."""
    return _mount(quad, i, v, fiber_center)
