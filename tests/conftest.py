"""Shared fixtures.

The expensive objects are the discretizations of the unit sphere and their
factorized Gram matrices; they are built once per session and shared.  The
ball, its boundary sphere, and its closed complement are all discretized by
the same sphere nodes under the Newtonian kernel, so the three views share
one Gram matrix through reinterpret_region.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

import rieszlab as rl
from rieszlab.core import _assemble_distinct

ORIGIN = np.zeros(3)


def gram_over(spec, nodes, radius=None):
    """Gram over distinct nodes whose every diagonal entry is the Python float
    radius ** exponent; the radius defaults to half the minimum
    nearest-neighbor spacing.  A fixed test matrix, not a Region's rule."""
    nodes = np.asarray(nodes, dtype=float)
    if radius is None:
        radius = 0.5 * float(cKDTree(nodes).query(nodes, k=2)[0][:, 1].min())
    return _assemble_distinct(spec, nodes, radius ** spec.exponent)


@pytest.fixture(scope="session")
def spec():
    return rl.KernelSpec(2.0, 3)


@pytest.fixture(scope="session")
def ball500(spec):
    return rl.ball_region(ORIGIN, 1.0, 500, spec)


@pytest.fixture(scope="session")
def ball2000(spec):
    return rl.ball_region(ORIGIN, 1.0, 2000, spec)


@pytest.fixture(scope="session")
def ball8000(spec):
    return rl.ball_region(ORIGIN, 1.0, 8000, spec)


@pytest.fixture(scope="session")
def complement500(ball500):
    return rl.reinterpret_region(ball500, rl.BallComplement(ORIGIN, 1.0))


@pytest.fixture(scope="session")
def complement2000(ball2000):
    return rl.reinterpret_region(ball2000, rl.BallComplement(ORIGIN, 1.0))


@pytest.fixture(scope="session")
def complement8000(ball8000):
    return rl.reinterpret_region(ball8000, rl.BallComplement(ORIGIN, 1.0))


@pytest.fixture(scope="session")
def gk2000(spec, complement2000):
    return rl.GreenKernel(spec, complement2000)
