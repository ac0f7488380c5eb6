import json
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
from anisograph.cli import bundled_scenario_path, scenario_from_dict

# derandomized: every run, in CI too, draws the same examples
settings.register_profile("numerics", deadline=None, max_examples=25, derandomize=True)
settings.load_profile("numerics")

warnings.filterwarnings("ignore", message="no vertices within radius")
warnings.filterwarnings("ignore", message="radius .* leaves the truncated domain")


def bundled(name: str) -> dict:
    """A bundled scenario's JSON, as a fresh dict."""
    return json.loads(bundled_scenario_path(name).read_text())


# the reference curved scenario: Euclidean integrand, corner-compatible sine data
REFERENCE = bundled("euclidean_freebdry_sine")
CURVED_DATA_SPEC = REFERENCE["dirichlet"]


def hard_case(resolution=None):
    """The integrand, mesh and Dirichlet data of the bundled corner-incompatible run
    (``capillary_hard``: theta = 0.5 on the reference sine data), at ``resolution`` if given."""
    raw = bundled("capillary_hard")
    if resolution is not None:
        raw["domain"]["resolution"] = resolution
    sc = scenario_from_dict(raw, solve_only=True)
    mesh = build_mesh(sc.domain)
    return sc.integrand, mesh, evaluate_data_spec(sc.dirichlet, mesh.vertices)


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
    mesh = build_mesh(HalfDomain(**{**REFERENCE["domain"], "resolution": resolution}))
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
