"""Every check's verdict is invariant under the symmetries of the problem.

The paper's hypotheses do not change under the capillary reflection (u solves
at theta with data g exactly when -u solves at pi - theta with data -g) or
under a vertical shift of the data, so no check's status may change under
them, and no residual beyond rounding.  The solve itself is reflected to rounding,
also where it eliminates the corner problems first.
"""

import math

import numpy as np
import pytest

from anisograph import EllipticIntegrand, solve
from anisograph.cli import _CHECKS, run_scenario, scenario_from_dict
from conftest import bundled, hard_case

BASE = bundled("capillary_theta_sweep")
THETA = BASE["integrand"]["theta"]
SHIFT = 0.37


def scenario(theta=THETA, sign=1.0, shift=0.0, resolution=1 / 32):
    """``capillary_theta_sweep``'s data (flat profile plus sine) times ``sign``, plus
    ``shift``, at ``theta``, with every check; the Liouville bump is signed alike, and its
    ``beta`` lies between the growths from below and from above."""
    flat, sine = BASE["dirichlet"]["terms"]
    terms = [flat, {**sine, "amplitude": sign * sine["amplitude"]},
             {"type": "affine", "b": shift}]
    checks = [name for name in _CHECKS if name != "liouville"]
    checks.append({"name": "liouville", "bump_height": sign * 1.0, "sizes": [4.0, 8.0],
                   "beta": 0.1})
    raw = {**BASE, "integrand": {**BASE["integrand"], "theta": theta},
           "domain": {**BASE["domain"], "resolution": resolution},
           "dirichlet": {"type": "sum", "terms": terms}, "checks": checks}
    return scenario_from_dict(raw)


def numbers(metadata: dict) -> dict:
    """The numeric metadata of a report, less the base point, which moves with the graph."""
    return {k: v for k, v in metadata.items()
            if k != "base_point" and isinstance(v, (int, float)) and not isinstance(v, bool)}


def assert_same_verdicts(a, b):
    assert [r.check_name for r in a] == [r.check_name for r in b]
    for ra, rb in zip(a, b):
        assert ra.status == rb.status, ra.check_name
        # a residual at the rounding floor (the identity checks' 1e-16) compares absolutely
        assert rb.worst_residual == pytest.approx(ra.worst_residual, rel=1e-6, abs=1e-14), \
            ra.check_name
        if ra.status == "informational":  # its findings are its metadata
            assert numbers(rb.metadata) == pytest.approx(numbers(ra.metadata), rel=1e-6,
                                                         abs=1e-14), ra.check_name


@pytest.fixture(scope="module")
def original():
    return run_scenario(scenario())


def test_capillary_reflection(original):
    reflected = run_scenario(scenario(math.pi - THETA, sign=-1.0))
    assert reflected.solve_report.level_iterations == original.solve_report.level_iterations
    assert np.abs(reflected.solution.values + original.solution.values).max() <= 1e-14
    assert len(original.reports) == len(_CHECKS)
    assert_same_verdicts(original.reports, reflected.reports)
    # the Liouville hypothesis bounds the growth on either side, which the reflection swaps
    before, after = original.reports[-1].metadata, reflected.reports[-1].metadata
    assert after["observed_beta"] == pytest.approx(before["observed_beta"], rel=1e-6)
    assert after["hypothesis_ok"] == before["hypothesis_ok"]


def test_vertical_shift(original):
    shifted = run_scenario(scenario(shift=SHIFT))
    assert np.abs(shifted.solution.values - SHIFT - original.solution.values).max() <= 1e-12
    assert_same_verdicts(original.reports, shifted.reports)


def test_capillary_reflection_with_corner_elimination():
    # corner-incompatible data at 1/64: every warm level has its corners eliminated first
    integrand, mesh, data = hard_case()
    u, rep = solve(integrand, mesh, data)
    reflected, rep_reflected = solve(EllipticIntegrand.capillary(math.pi - integrand.theta, 3),
                                     mesh, -data)
    assert rep.converged and rep_reflected.converged
    assert rep.level_iterations == rep_reflected.level_iterations == [7, 4, 4]
    assert np.abs(reflected.values + u.values).max() <= 1e-14
