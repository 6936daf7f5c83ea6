"""Session fixtures: the suite's named systems, each built once (see systems.py)."""

import functools

import pytest

import skewlab as sl

from systems import DESTROYED, workloads


@pytest.fixture(scope="session")
def cat():
    return sl.make_anosov(workloads.CAT)


@pytest.fixture(scope="session")
def quad(cat):
    """The default quad, the one the default config and the benchmark build."""
    return sl.build_quad(cat, *workloads.QUAD_ARGS)


@pytest.fixture(scope="session")
def id_sp(cat):
    """A x id: fiber coordinates frozen, nothing ergodic about the fibers."""
    return sl.SkewProduct(base=cat, family=sl.ConstantFamily(sl.IdentityMap()))


@pytest.fixture(scope="session")
def horiz_sp(cat, quad):
    """Horizontal-translation family: bumps on p-orbit points, amplitudes (a, 0),
    so the loop holonomies sample them."""
    return workloads.horizontal_system(cat, quad)


@pytest.fixture(scope="session")
def broad_rot_sp(cat):
    """Rotation family with a bump field covering most of the torus: every
    orbit step contributes, so the Cauchy increments form a genuine
    geometric sequence."""
    bump = sl.fiber.FieldBump(center=sl.wrap((0.5, 0.5)), profile=sl.BumpProfile(0.05, 0.49),
                              amplitude=(0.17, 0.09))
    return sl.SkewProduct(base=cat,
                          family=sl.RotationFamily(sl.VectorField((0.0, 0.0), (bump,))))


@pytest.fixture(scope="session")
def destroyed_systems(id_sp, quad):
    """FINE and STRONG by name, rebuilt from their pinned translations."""
    return {name: workloads.destroyed_system(id_sp, quad, spec)
            for name, (spec, _, _) in DESTROYED.items()}


@pytest.fixture(scope="session")
def destroy(id_sp, quad):
    """destroy_trivial_class(id_sp, quad, epsilon, params), run once per
    session for each (epsilon, params)."""
    return functools.cache(lambda epsilon, params:
                           sl.destroy_trivial_class(id_sp, quad, epsilon, params))


@pytest.fixture(scope="session")
def destroyed_fine(destroy):
    """FINE's destruction, |v| = 0.015: the classification battery system."""
    return destroy(*DESTROYED["fine"][1:])


@pytest.fixture(scope="session")
def destroyed_strong(destroy):
    """STRONG's destruction, |v| ~ 0.05 and antipodal fiber supports: discs of
    radius 0.46 about (1/2, 1/2) and (0, 0).  They do not cover the fiber
    torus: (1/2, 0) and (0, 1/2) lie 1/2 from both centres, and a fiber point
    outside both supports is fixed by every g_x."""
    return destroy(*DESTROYED["strong"][1:])
