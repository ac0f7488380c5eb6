import math
import warnings

import numpy as np
import pytest
from hypothesis import settings

from anisograph import (
    EllipticIntegrand,
    HalfDomain,
    build_mesh,
    compute_geometry,
    solve,
)
from anisograph.boundary_data import evaluate_data_spec

# derandomized: every run, in CI too, draws the same examples
settings.register_profile("numerics", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("numerics")

warnings.filterwarnings("ignore", message="no vertices within radius")
warnings.filterwarnings("ignore", message="radius .* leaves the truncated domain")

# the reference curved scenario: Euclidean integrand, corner-compatible sine data
CURVED_DATA_SPEC = {
    "type": "sine",
    "amplitude": 0.25,
    "kx": 2.0,
    "ky": math.pi,
    "phase": math.pi / 2,
}


def solve_capillary_flat(theta: float, resolution: float):
    """Exact-flat capillary fixture: data is the wall-compatible affine."""
    integrand = EllipticIntegrand.capillary(theta, dim=3)
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=resolution))
    data = mesh.vertices @ np.array([-1.0 / math.tan(theta), 0.0])
    u, report = solve(integrand, mesh, data)
    assert report.converged
    return integrand, mesh, u, report


def solve_curved(resolution: float, integrand=None, extra_affine=None):
    """Reference curved solve (optionally with an affine part added)."""
    integrand = integrand or EllipticIntegrand.euclidean(3)
    mesh = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=resolution))
    data = evaluate_data_spec(CURVED_DATA_SPEC, mesh.vertices)
    if extra_affine is not None:
        data = data + mesh.vertices @ np.asarray(extra_affine)
    u, report = solve(integrand, mesh, data)
    assert report.converged
    return integrand, mesh, u, report


@pytest.fixture(scope="session")
def capillary_flat():
    integrand, mesh, u, report = solve_capillary_flat(math.pi / 3, 1 / 32)
    return integrand, mesh, u, compute_geometry(integrand, u)


@pytest.fixture(scope="session")
def curved_32():
    integrand, mesh, u, report = solve_curved(1 / 32)
    return integrand, mesh, u, compute_geometry(integrand, u)


@pytest.fixture(scope="session")
def curved_64():
    integrand, mesh, u, report = solve_curved(1 / 64)
    return integrand, mesh, u, compute_geometry(integrand, u)


@pytest.fixture(scope="session")
def flat_horizontal():
    """u = 0 on a larger box (room for graph-ball probes)."""
    from anisograph import GraphFunction

    integrand = EllipticIntegrand.euclidean(3)
    mesh = build_mesh(HalfDomain(2, depth=2.0, width=1.0, resolution=1 / 32))
    u = GraphFunction(mesh, np.zeros(mesh.num_vertices))
    return integrand, mesh, u, compute_geometry(integrand, u)
