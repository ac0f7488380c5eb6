"""Every check's verdict is invariant under the symmetries of the problem.

The paper's hypotheses do not change under the capillary reflection (u solves
at theta with data g exactly when -u solves at pi - theta with data -g), under
a vertical shift of the data, or under a rescaled integrand, so no check's
status may change under them, and no residual beyond rounding.
"""

import json
import math

import numpy as np
import pytest

from anisograph import GraphFunction, build_mesh, compute_geometry
from anisograph.boundary_data import evaluate_data_spec
from anisograph.cli import (_CHECKS, _run_check, bundled_scenario_path, run_scenario,
                            scenario_from_dict)
from anisograph.domain import Tag

BASE = json.loads(bundled_scenario_path("capillary_theta_sweep").read_text())
THETA = BASE["integrand"]["theta"]
SHIFT = 0.37


def scenario(theta=THETA, sign=1.0, shift=0.0, resolution=1 / 32):
    """``capillary_theta_sweep``'s data (flat profile plus sine) times ``sign``, plus
    ``shift``, at ``theta``, with every check; the Liouville bump is signed alike."""
    flat, sine = BASE["dirichlet"]["terms"]
    terms = [flat, {**sine, "amplitude": sign * sine["amplitude"]},
             {"type": "affine", "b": shift}]
    checks = [name for name in _CHECKS if name != "liouville"]
    checks.append({"name": "liouville", "bump_height": sign * 1.0, "sizes": [4.0, 8.0]})
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


def test_vertical_shift(original):
    shifted = run_scenario(scenario(shift=SHIFT))
    assert np.abs(shifted.solution.values - SHIFT - original.solution.values).max() <= 1e-12
    assert_same_verdicts(original.reports, shifted.reports)


@pytest.mark.filterwarnings("ignore:radius .* leaves the truncated domain")
def test_scale_leaves_the_verdicts_of_a_non_solution():
    # the unsolved start (zero off the Dirichlet boundary) fails the same checks at every
    # scale: with tolerances coef * h, judging the scaled integrand passed it at 1e-12
    raw = json.loads(bundled_scenario_path("euclidean_freebdry_sine").read_text())
    verdicts = []
    for scale in (1.0, 1e-6, 1e-12):
        sc = scenario_from_dict({**raw, "integrand": {**raw["integrand"], "scale": scale},
                                 "domain": {**raw["domain"], "resolution": 1 / 16}})
        mesh = build_mesh(sc.domain)
        data = evaluate_data_spec(sc.dirichlet, mesh.vertices)
        start = np.where(mesh.vertex_tags == Tag.DIRICHLET, data, 0.0)
        geom = compute_geometry(sc.integrand, GraphFunction(mesh, start))
        verdicts.append([_run_check(check, geom) for check in sc.checks])
    failed = {r.check_name for r in verdicts[0] if r.status == "fail"}
    assert {"first_variation", "subharmonicity"} <= failed
    for reports in verdicts[1:]:
        assert_same_verdicts(verdicts[0], reports)


def test_free_bc_residual_is_relative_to_the_scale():
    raw = json.loads(bundled_scenario_path("euclidean_freebdry_sine").read_text())
    reports = [run_scenario(scenario_from_dict(
        {**raw, "integrand": {**raw["integrand"], "scale": scale}, "checks": [],
         "domain": {**raw["domain"], "resolution": 1 / 16}}), solve_only=True).solve_report
        for scale in (1.0, 1e-6)]
    assert reports[1].free_bc_residual == pytest.approx(reports[0].free_bc_residual, rel=1e-6)
