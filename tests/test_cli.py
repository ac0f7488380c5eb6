import copy
import csv
import inspect
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from functools import reduce, wraps
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisograph import HalfDomain, build_mesh, cli, solver, verify
from anisograph.boundary_data import evaluate_data_spec
from anisograph.cli import (
    ConfigError,
    bundled_scenario_path,
    load_scenario,
    main,
    run,
    run_scenario,
    scenario_from_dict,
    sweep,
)
from reference import write_geometry_csv, write_solution_csv


def minimal_scenario(**overrides):
    base = {
        "name": "mini",
        "integrand": {"kind": "capillary", "theta": math.pi / 3, "dim": 3},
        "domain": {"n": 2, "depth": 1.0, "width": 0.5, "resolution": 1 / 8},
        "dirichlet": {"type": "flat_profile"},
        "solver": {"tol_residual": 1e-10},
        "checks": [{"name": "wall_condition"}],
        "seed": 0,
    }
    base.update(overrides)
    return base


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# -- boundary data specs ------------------------------------------------------


def test_data_spec_affine_and_sum():
    pts = np.array([[0.0, 0.0], [1.0, -0.5]])
    spec = {"type": "sum", "terms": [
        {"type": "affine", "a": [2.0, 1.0], "b": 0.5},
        {"type": "bump", "center": [0.0, 0.0], "radius": 0.5, "height": 1.0},
    ]}
    vals = evaluate_data_spec(spec, pts)
    assert vals[0] == pytest.approx(0.5 + 1.0)
    assert vals[1] == pytest.approx(2.0 - 0.5 + 0.5)  # bump vanishes at distance > radius


def test_data_spec_bump_compact_support():
    pts = np.array([[0.49, 0.0], [0.51, 0.0], [1.0, 1.0]])
    vals = evaluate_data_spec({"type": "bump", "center": [0.0, 0.0],
                               "radius": 0.5, "height": 2.0}, pts)
    assert vals[0] > 0.0
    assert vals[1] == 0.0
    assert vals[2] == 0.0


def test_data_spec_table_nearest():
    pts = np.array([[0.1, 0.0], [0.9, 0.0]])
    spec = {"type": "table", "points": [[0.0, 0.0, 5.0], [1.0, 0.0, -3.0]]}
    np.testing.assert_allclose(evaluate_data_spec(spec, pts), [5.0, -3.0])


def test_data_spec_errors():
    pts = np.zeros((2, 2))
    with pytest.raises(ValueError):
        evaluate_data_spec({"type": "nope"}, pts)
    with pytest.raises(ValueError):
        evaluate_data_spec({"type": "affine", "a": [1.0]}, pts)
    with pytest.raises(ValueError):
        evaluate_data_spec({"type": "bump", "radius": -1.0}, pts)


def test_data_spec_sine_takes_every_transverse_axis():
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, 3))
    spec = {"type": "sine", "amplitude": 0.3, "kx": 2.0, "ky": 1.5, "phase": 0.4}
    expect = (0.3 * np.sin(2.0 * pts[:, 0] + 0.4) * np.cos(1.5 * pts[:, 1])
              * np.cos(1.5 * pts[:, 2]))
    assert np.array_equal(evaluate_data_spec(spec, pts), expect)
    assert np.array_equal(evaluate_data_spec(spec, pts[:, :1]), 0.3 * np.sin(2.0 * pts[:, 0] + 0.4))


# -- scenario parsing ------------------------------------------------------------


def test_scenario_roundtrip(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario())
    sc = load_scenario(path)
    assert sc.integrand.kind == "capillary"
    assert sc.domain.width == 0.5
    assert sc.checks[0]["name"] == "wall_condition"


def test_scenario_rejects_bad_theta():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal_scenario(
            integrand={"kind": "capillary", "theta": 4.0, "dim": 3}))


def test_scenario_rejects_unknown_check():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal_scenario(checks=[{"name": "definitely_not_a_check"}]))


def test_scenario_rejects_dim_mismatch():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal_scenario(
            integrand={"kind": "euclidean", "dim": 2}))


def test_scenario_rejects_non_spd_matrix():
    with pytest.raises(ConfigError):
        scenario_from_dict(minimal_scenario(
            integrand={"kind": "ellipsoid", "dim": 3,
                       "matrix": [[1, 2, 0], [2, 1, 0], [0, 0, 1]]}))


# the n = 3 flat-profile scenario of CI's console-script step; its checks take their defaults
THREE_D_FLAT = {
    "name": "capillary_flat_3d",
    "integrand": {"kind": "capillary", "theta": 1.0471975511965976, "dim": 4},
    "domain": {"n": 3, "depth": 1.0, "width": 0.5, "resolution": 0.125},
    "dirichlet": {"type": "flat_profile"},
    "solver": {"tol_residual": 1e-12},
    "checks": [name for name in cli._CHECKS if name != "liouville"],
}


def test_3d_flat_profile_is_reproduced_and_every_check_runs():
    sc = scenario_from_dict({**THREE_D_FLAT, "domain": {**THREE_D_FLAT["domain"],
                                                         "resolution": 1 / 16}})
    result = run_scenario(sc)
    mesh = result.solution.mesh
    assert mesh.divisions == (16, 16, 16)
    flat = sc.integrand.flat_slope() * mesh.vertices[:, 0]
    assert np.abs(result.solution.values - flat).max() <= 1e-10
    assert result.exit_code == 0
    reports = {rep.check_name: rep for rep in result.reports}
    assert len(reports) == len(cli._CHECKS) - 1
    assert reports["wall_condition"].worst_residual <= 1e-10  # the wall angle
    assert reports["wall_principal_direction"].status == "pass"
    assert reports["functional_inequalities"].metadata["sobolev_ratio_max"] > 0.0
    assert reports["gradient_estimate"].metadata["n_records"] > 0


def test_3d_verify_console_run_exits_0(tmp_path):
    path = write_scenario(tmp_path, THREE_D_FLAT)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_3d_defaults_and_point_lengths():
    sc = scenario_from_dict({**THREE_D_FLAT,
                             "checks": ["mean_value", {"name": "liouville", "sizes": [1.0, 2.0]}]})
    mean_value, liouville = sc.checks
    assert mean_value["x0"] == [0.25, 0.0, 0.0]
    assert liouville["slope"] == [sc.integrand.flat_slope(), 0.0, 0.0]
    for check, key in (({"name": "liouville", "sizes": [1.0, 2.0], "slope": [0.5, 0.0]}, "slope"),
                       ({"name": "mean_value", "x0": [0.4, 0.0]}, "x0")):
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({**THREE_D_FLAT, "checks": [check]})
    # the Liouville domains are 3d too: the default sizes would need a 4 GiB band
    with pytest.raises(ConfigError, match="check 'liouville': .* GiB Newton band"):
        scenario_from_dict({**THREE_D_FLAT, "checks": ["liouville"]})
    rep = run_scenario(sc).reports[1]
    assert rep.status == "pass" and rep.metadata["monotone"]


def test_1d_liouville_solves_on_intervals():
    # a 1d minimal graph with the free wall is the flat profile: no deviation at any size
    raw = {"integrand": {"kind": "capillary", "theta": 1.2, "dim": 2},
           "domain": {"n": 1, "depth": 1.0, "resolution": 1 / 16}, "checks": ["liouville"]}
    sc = scenario_from_dict(raw)
    assert sc.checks[0]["slope"] == [sc.integrand.flat_slope()]
    rep = run_scenario(sc).reports[0]
    assert rep.status == "pass" and max(rep.metadata["deviations"]) <= 1e-12


def test_3d_pnorm_is_a_config_error():
    # sphere sampling covers R^2 and R^3 only, so a pnorm in R^4 has no sampled bounds
    with pytest.raises(ConfigError, match="sphere sampling"):
        scenario_from_dict({**THREE_D_FLAT, "integrand": {"kind": "pnorm", "dim": 4}})


BUNDLED = ["capillary_flat", "capillary_theta_sweep", "euclidean_freebdry_sine", "liouville_bump"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    assert load_scenario(bundled_scenario_path(name)).checks


ACCEPTED_KEYS = {
    "boundary_tangency": {"coef"},
    "wall_condition": {"coef"},
    "interior_minimality": {"coef"},
    "wall_principal_direction": {"coef"},
    "subharmonicity": {"coef"},
    "first_variation": {"coef", "margin"},
    "area_element_identity": set(),
    "area_growth": {"x0", "radii", "slope_tol"},
    "mean_value": {"x0", "r"},
    "functional_inequalities": {"bank_size"},
    "gradient_estimate": {"x0_list", "r_list"},
    "liouville": {"beta", "sizes", "slope", "bump_height", "bump_radius", "resolution",
                  "tol_flat"},
}


def test_check_table_matches_its_probes():
    keys = {}
    for name, probe in cli._CHECKS.items():
        assert probe in verify.__all__, name
        params = inspect.signature(getattr(verify, probe)).parameters
        for param in params:  # every probe parameter is a key, derived, or the geometry
            assert param in cli._KEYS or param in cli._DERIVED or param == "geom", (name, param)
        keys[name] = {k for k in params if k in cli._KEYS}
        # a check reads the geometry iff its probe takes it
        assert cli._reads_geometry(name) == ("geom" in params), name
    assert keys == ACCEPTED_KEYS


def test_a_wrapped_probe_keeps_its_keys_and_runs(monkeypatch):
    calls = []
    original = verify.check_first_variation

    @wraps(original)
    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "check_first_variation", spy)
    with pytest.raises(ConfigError, match="'cof'"):
        scenario_from_dict(minimal_scenario(checks=[{"name": "first_variation", "cof": 0.1}]))
    sc = scenario_from_dict(minimal_scenario(checks=[{"name": "first_variation",
                                                      "margin": 0.2}]))
    result = run_scenario(sc)
    assert calls == [{"margin": 0.2}]
    assert result.reports[0].metadata["margin"] == 0.2


def test_a_probe_wrapped_without_its_signature_keeps_its_keys_and_geometry(monkeypatch):
    # the wrapper's own signature is (*a, **k): the probe's parameters were read at import
    calls = []
    probe = verify.check_first_variation

    def wrapper(*a, **k):
        calls.append(k)
        return probe(*a, **k)

    monkeypatch.setattr(verify, "check_first_variation", lambda *a, **k: wrapper(*a, **k))
    sc = scenario_from_dict(minimal_scenario(checks=[{"name": "first_variation",
                                                      "margin": 0.2}]))
    result = run_scenario(sc)
    assert calls == [{"margin": 0.2}]
    assert result.geometry is not None and result.reports[0].metadata["margin"] == 0.2


def sine_scenario_with(check, resolution=1 / 8):
    """``euclidean_freebdry_sine`` at a coarse resolution with one check."""
    raw = json.loads(bundled_scenario_path("euclidean_freebdry_sine").read_text())
    raw["domain"]["resolution"] = resolution
    raw["checks"] = [check]
    return raw


@pytest.fixture
def no_mesh(monkeypatch):
    """Make building a mesh fail, so a test proves it exits before any solve."""
    def build_mesh(domain):
        raise AssertionError("a mesh was built")
    monkeypatch.setattr(cli, "build_mesh", build_mesh)
    monkeypatch.setattr(verify, "build_mesh", build_mesh)


@pytest.mark.parametrize("check, key", [
    ({"name": "liouville", "sizes": [4.0]}, "sizes"),
    ({"name": "area_growth", "radii": [-0.1, 0.2, 0.3]}, "radii"),
    ({"name": "mean_value", "r": 0}, "r"),
    ({"name": "wall_condition", "coef": "x"}, "coef"),
    ({"name": "functional_inequalities", "bank_size": 0}, "bank_size"),
    ({"name": "mean_value", "x0": [0.4]}, "x0"),
    ({"name": "gradient_estimate", "r_list": [-0.1]}, "r_list"),
    ({"name": "liouville", "sizes": [1.0, 2.0], "resolution": 1.0}, "resolution"),
    ({"name": "area_growth", "radii": "abc"}, "radii"),
    ({"name": "wall_condition", "cof": 0.1}, "cof"),
    ({"name": "first_variation", "margin": True}, "margin"),
    ({"name": "liouville", "beta": -1.0}, "beta"),
    ({"name": "liouville", "slope": [0.5]}, "slope"),
    ({"name": "gradient_estimate", "x0_list": [[0.1, 0.0, 0.0]]}, "x0_list"),
    ({"name": "liouville", "tol_flat": -0.05}, "tol_flat"),
])
def test_bad_check_parameter_exits_2_before_any_solve(tmp_path, capsys, no_mesh, check, key):
    path = write_scenario(tmp_path, sine_scenario_with(check))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: check {check['name']!r}: ")
    assert key in err
    assert not out.exists()


def test_sweep_with_bad_check_parameter_exits_2(tmp_path, capsys, no_mesh):
    path = write_scenario(tmp_path, sine_scenario_with({"name": "mean_value", "r": -1.0}))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--axis", "resolution", "--values", "0.25,0.125",
            "--out", str(out)]
    assert main(argv) == 2
    assert "config error: check 'mean_value': 'r'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_null_check_parameter_takes_the_default():
    sc = scenario_from_dict(minimal_scenario(checks=[{"name": "wall_condition", "coef": None}]))
    assert sc.checks == ({"name": "wall_condition"},)


@pytest.mark.parametrize("command, resolution", [
    ("solve", 2.0), ("verify", 2.0), ("verify", 0.5),
])
def test_too_coarse_mesh_exits_2_before_any_solve(tmp_path, capsys, no_mesh, command,
                                                  resolution):
    path = write_scenario(tmp_path, sine_scenario_with("wall_condition", resolution))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert f"resolution {resolution} too coarse" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edits, section", [
    ({"domain.resolution": 1e-5}, "domain"),
    ({"domain.resolution": 1 / 1024}, "domain"),
    ({"domain.depth": 1e300, "domain.resolution": 1e-10}, "domain"),  # cells overflow a float
    ({"checks": [{"name": "liouville", "sizes": [4.0, 8.0, 1000.0]}]}, "check 'liouville'"),
    ({"integrand.dim": 2, "domain": {"n": 1, "depth": 1.0, "resolution": 1e-9},
      "dirichlet": {"type": "table", "points": [[1.0, 0.3]]}}, "domain"),  # a 16 GB band
], ids=["1e-5", "1_1024", "overflow", "liouville", "1d_1e-9"])
def test_too_fine_mesh_exits_2_before_any_solve(tmp_path, capsys, no_mesh, edits, section):
    path = write_scenario(tmp_path, edited(sine_scenario_with("wall_condition"), edits))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {section}: resolution ") and "too fine" in err
    assert not out.exists()


def test_band_limit_admits_the_reference_box_at_1_512():
    raw = sine_scenario_with("wall_condition", 1 / 512)
    assert scenario_from_dict(raw).domain.divisions() == (512, 512)


def test_band_limit_admits_an_interval_of_17000_cells():
    # its band has two rows, 272 KB: the limit must not charge it the 2d half-bandwidth
    raw = minimal_scenario(integrand={"kind": "euclidean", "dim": 2},
                           domain={"n": 1, "depth": 1.0, "resolution": 1 / 17000},
                           dirichlet={"type": "table", "points": [[1.0, 0.3]]})
    assert scenario_from_dict(raw).domain.divisions() == (17000,)


def test_solve_accepts_two_by_two_mesh(tmp_path):
    path = write_scenario(tmp_path, sine_scenario_with("wall_condition", 0.5))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "solution.csv").is_file()


@pytest.mark.parametrize("values", ["0.25,0.5", "0.25,2.0"])
def test_sweep_with_too_coarse_mesh_exits_2(tmp_path, capsys, no_mesh, values):
    path = write_scenario(tmp_path, sine_scenario_with("wall_condition"))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--axis", "resolution", "--values", values,
            "--out", str(out)]
    assert main(argv) == 2
    assert "too coarse" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def edited(raw, edits):
    """``raw`` with each ``"a.b"`` path of ``edits`` set to its value."""
    for path, value in edits.items():
        *parents, key = path.split(".")
        reduce(operator.getitem, parents, raw)[key] = value
    return raw


SINE = {"type": "sine", "amplitude": 0.25, "kx": 2.0, "ky": math.pi, "phase": math.pi / 2}


@pytest.mark.parametrize("edits, key", [
    pytest.param({"solver.max_iters": 5}, "'max_iters'", id="unknown-solver-key"),
    pytest.param({"domian": {"n": 2}}, "'domian'", id="unknown-top-level-key"),
    pytest.param({"integrand.thetaa": 1.0}, "'thetaa'", id="unknown-integrand-key"),
    pytest.param({"integrand.dim": 3.5}, "'dim'", id="fractional-dim"),
    pytest.param({"domain.n": 2.7}, "'n'", id="fractional-n"),
    pytest.param({"seed": "3"}, "'seed'", id="string-seed"),
    pytest.param({"dirichlet.bb": 1}, "'bb'", id="unknown-flat-profile-key"),
    pytest.param({"solver.max_iter": 1.5}, "'max_iter'", id="fractional-max-iter"),
    pytest.param({"solver.linear_solver_tol": -1}, "linear_solver_tol", id="negative-lin-tol"),
    pytest.param({"solver.ls_decrease": 2.0}, "ls_decrease", id="ls-decrease-above-1"),
    pytest.param({"solver.tol_residual": math.nan}, "'tol_residual'", id="nan-tol-residual"),
    pytest.param({"dirichlet": {"type": "affine", "slope": [0.5, 0.0]}}, "'slope'",
                 id="misspelt-affine-slope"),
    pytest.param({"dirichlet": {**SINE, "amplitude": math.nan}}, "'amplitude'",
                 id="nan-sine-amplitude"),
    pytest.param({"integrand": {"kind": "pnorm", "p": 20, "eps": 1e-12, "dim": 3},
                  "dirichlet": {**SINE, "amplitude": 3.0}, "domain.resolution": 0.25},
                 "not uniformly elliptic", id="non-elliptic-pnorm"),
    # the dim is checked before the sphere is sampled, which works only in dim 2 and 3
    pytest.param({"integrand": {"kind": "pnorm", "dim": 4}}, "integrand dim 4 does not match",
                 id="pnorm-dim-4"),
    # |cot(theta)| > 1e3 leaves the flat-slope bisection's bracket
    pytest.param({"integrand.theta": 1e-4}, "dirichlet: flat-slope bracket",
                 id="flat-profile-bracket"),
    pytest.param({"integrand.theta": 1e-4, "dirichlet": {"type": "affine"},
                  "checks": [{"name": "liouville", "sizes": [2.0, 4.0], "resolution": 0.5}]},
                 "check 'liouville': flat-slope bracket", id="liouville-slope-bracket"),
    # finite parameters whose data overflow a float on the box
    pytest.param({"dirichlet": {"type": "affine", "a": [1e308, 0]}, "domain.depth": 2},
                 "dirichlet: the data overflow a float", id="overflowing-affine"),
    pytest.param({"dirichlet": {"type": "sum", "terms": [{**SINE, "amplitude": 1e308}] * 2}},
                 "dirichlet: the data overflow a float", id="overflowing-sine-sum"),
    pytest.param({"checks": [{"name": "liouville", "slope": [1e308, 0]}]},
                 "check 'liouville': 'slope' and 'bump_height' overflow a float",
                 id="overflowing-liouville-slope"),
])
def test_malformed_scenario_exits_2_before_any_mesh(tmp_path, capsys, no_mesh, edits, key):
    raw = json.loads(bundled_scenario_path("capillary_flat").read_text())
    raw["domain"]["resolution"] = 1 / 8
    path = write_scenario(tmp_path, edited(raw, edits))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


# -- contract fuzzer: any input ends with a documented exit code --------------------


FUZZ_BASES = [
    minimal_scenario(checks=["wall_condition", {"name": "mean_value", "x0": [0.4, 0.0]}]),
    minimal_scenario(integrand={"kind": "ellipsoid", "matrix": [2, 0, 0, 0, 1, 0, 0, 0, 1]},
                     dirichlet={"type": "sum", "terms": [SINE, {"type": "bump", "center": [0.5, 0],
                                                                "radius": 0.3}]},
                     checks=[{"name": "area_growth", "radii": [0.2, 0.3]}]),
    minimal_scenario(integrand={"kind": "pnorm", "p": 3.0, "eps": 0.01},
                     domain={"n": 1, "depth": 1.0, "resolution": 0.125},
                     dirichlet={"type": "table", "points": [[1.0, 0.3]]}, checks=[]),
]
# fresh copies: a mutation may later add a key to an empty object drawn here
BAD_VALUES = st.sampled_from(["x", [], {}, True, None, math.nan, math.inf, -math.inf,
                              10 ** 400, -1]).map(copy.deepcopy)


def json_paths(node, path=()):
    """The path of every value inside a JSON value, its own (the empty path) included."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from json_paths(child, path + (key,))


@st.composite
def mutated_scenarios(draw):
    """A bundled-style scenario at h >= 1/8 with one to three values replaced by a wrong type,
    NaN, an infinity or a negative, or with keys deleted or unknown keys added."""
    raw = json.loads(json.dumps(draw(st.sampled_from(FUZZ_BASES))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(json_paths(raw))))
        node = reduce(operator.getitem, path, raw)
        parent = reduce(operator.getitem, path[:-1], raw) if path else None
        action = draw(st.sampled_from(["replace", "negate", "delete", "add"]))
        if action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["extra", "max_iters", "thetaa", "tpye"]))] = 1.0
        elif action == "delete" and path:
            del parent[path[-1]]
        elif action == "negate" and path and type(node) in (int, float):
            parent[path[-1]] = -node
        elif path:
            parent[path[-1]] = draw(BAD_VALUES)
        else:
            raw = draw(BAD_VALUES)
    return raw


@settings(max_examples=150)
@given(raw=mutated_scenarios(), command=st.sampled_from(["solve", "verify"]))
def test_mutated_scenarios_end_with_a_documented_exit_code(raw, command):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        path = write_scenario(Path(tmp), raw)
        assert main([command, "--config", str(path), "--out", str(Path(tmp) / "out")]) in range(4)


# -- run pipeline -----------------------------------------------------------------


def test_run_bundled_capillary_flat(tmp_path):
    rc = run(bundled_scenario_path("capillary_flat"), tmp_path)
    assert rc == 0
    for name in ("solution.csv", "geometry.csv", "geometry_wall.csv",
                 "report.jsonl", "summary.csv", "solve_report.json", "run.log"):
        assert (tmp_path / name).exists(), name
    reports = [json.loads(line) for line in (tmp_path / "report.jsonl").open()]
    for rep in reports:
        if rep["tolerance"] is not None:
            assert rep["status"] == "pass"


def test_run_exit_2_on_malformed_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(bad, tmp_path / "out") == 2


def test_run_exit_2_on_invalid_theta(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario(
        integrand={"kind": "capillary", "theta": 4.0, "dim": 3}))
    assert run(path, tmp_path / "out") == 2


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_malformed_dirichlet_spec_exits_2(tmp_path, command, capsys):
    path = write_scenario(tmp_path, minimal_scenario(
        dirichlet={"type": "bump", "center": [0.0, 0.0], "radius": -1.0}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: dirichlet 'bump': 'radius' must be a finite number > 0" in err


@pytest.mark.parametrize("command", ["verify", "sweep"])
@pytest.mark.parametrize("blocker", ["file", "parent_file"])
def test_unusable_out_exits_2_before_any_solve(tmp_path, capsys, monkeypatch, command,
                                               blocker):
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")
    monkeypatch.setattr(cli, "solve", solve)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" if blocker == "file" else tmp_path / "file" / "out"
    argv = [command, "--config", str(bundled_scenario_path("liouville_bump")),
            "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "resolution", "--values", "0.125,0.0625"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: cannot create output directory {out}: ")
    assert (tmp_path / "file").read_text() == ""


def test_run_exit_3_on_nonconvergence(tmp_path):
    payload = minimal_scenario(
        dirichlet={"type": "sine", "amplitude": 0.4, "kx": 3.0, "ky": math.pi,
                   "phase": math.pi / 2},
        solver={"tol_residual": 1e-12, "max_iter": 1},
    )
    path = write_scenario(tmp_path, payload)
    assert run(path, tmp_path / "out") == 3


def pnorm_reproducer(p, eps, amplitude):
    """``euclidean_freebdry_sine`` at h = 1/16 with no checks and a pnorm integrand."""
    raw = json.loads(bundled_scenario_path("euclidean_freebdry_sine").read_text())
    raw.update(integrand={"kind": "pnorm", "p": p, "eps": eps, "dim": 3}, checks=[])
    raw["domain"]["resolution"] = 1 / 16
    raw["dirichlet"]["amplitude"] = amplitude
    return raw


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("p, eps, amplitude, reason", [
    (1.05, 1e-9, 2.0, "linear solve missed its tolerance"),
], ids=["p1.05"])
def test_failed_linear_solve_exits_3(tmp_path, capsys, command, p, eps, amplitude, reason):
    path = write_scenario(tmp_path, pnorm_reproducer(p, eps, amplitude))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    assert (out / "solution.csv").is_file()
    payload = json.loads((out / "solve_report.json").read_text())
    assert payload["converged"] is False and reason in payload["failure"]
    assert reason in (out / "run.log").read_text()
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_numpy_without_lapack_exits_3(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(solver, "_lapack", None)
    path = write_scenario(tmp_path, sine_scenario_with("wall_condition"))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 3
    payload = json.loads((out / "solve_report.json").read_text())
    assert payload["converged"] is False and payload["failure"] == solver._NO_LAPACK
    err = capsys.readouterr().err
    assert solver._NO_LAPACK in err and "Traceback" not in err


def test_the_runtime_does_not_import_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, anisograph.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"


def test_verify_does_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma on the first plain np.unique, at about 13 ms
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, anisograph.cli as cli; "
            f"assert cli.main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
            "print('numpy.ma' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-c", code, str(bundled_scenario_path("euclidean_freebdry_sine")),
         str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "False"


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_non_elliptic_integrand_exits_2(tmp_path, capsys, no_mesh, command):
    # p > 2 with eps = 1e-12: the tangential Hessian of F vanishes to rounding
    # where a coordinate of z does, so the sampled minimum is not positive
    path = write_scenario(tmp_path, pnorm_reproducer(20, 1e-12, 3.0))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert "config error: integrand 'pnorm': not uniformly elliptic" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("p, eps", [(1.05, 1e-9), (3.0, 1e-2)])
def test_elliptic_pnorm_loads(p, eps):
    assert scenario_from_dict(pnorm_reproducer(p, eps, 2.0)).integrand.p == p


def test_run_exit_1_on_failed_check(tmp_path):
    payload = minimal_scenario(
        dirichlet={"type": "sum", "terms": [
            {"type": "flat_profile"},
            {"type": "sine", "amplitude": 0.2, "kx": 2.0, "ky": math.pi,
             "phase": math.pi / 2}]},
        checks=[{"name": "boundary_tangency", "coef": 1e-12}],  # unmeetable tolerance
    )
    path = write_scenario(tmp_path, payload)
    assert run(path, tmp_path / "out") == 1
    rows = list(csv.DictReader((tmp_path / "out" / "summary.csv").open()))
    assert rows[0]["status"] == "fail"


def test_solve_subcommand(tmp_path):
    rc = main(["solve", "--config", str(bundled_scenario_path("capillary_flat")),
               "--out", str(tmp_path)])
    assert rc == 0
    # solve computes no geometry and runs no checks
    written = {p.name for p in tmp_path.iterdir()} - {"run.log"}
    assert written == {"solution.csv", "solve_report.json"}
    payload = json.loads((tmp_path / "solve_report.json").read_text())
    assert payload["converged"] is True and payload["failure"] == ""


def test_full_precision_output(tmp_path):
    rc = main(["solve", "--config", str(bundled_scenario_path("capillary_flat")),
               "--out", str(tmp_path)])
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "solution.csv").open()))
    slope = -1.0 / math.tan(math.pi / 3)
    for row in rows[:50]:
        expect = slope * float(row["x1"])
        assert abs(float(row["u"]) - expect) < 1e-9


ALL_CHECKS = [
    "boundary_tangency", "wall_condition", "interior_minimality", "wall_principal_direction",
    "first_variation", "area_element_identity", "subharmonicity", "area_growth", "mean_value",
    "functional_inequalities", "gradient_estimate", "liouville",
]


def test_run_scenario_runs_every_check_in_order():
    assert set(ALL_CHECKS) == set(cli._CHECKS)
    checks = [{"name": name} for name in ALL_CHECKS]
    checks[-1].update(sizes=[2.0, 4.0], resolution=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_scenario(scenario_from_dict(minimal_scenario(checks=checks)))
    assert result.geometry is not None
    names = [rep.check_name for rep in result.reports]
    assert names == ALL_CHECKS[:-1] + ["liouville_flatness"]
    assert result.reports[-1].metadata["sizes"] == [2.0, 4.0]


# -- sweeps ------------------------------------------------------------------------


def test_sweep_theta_rows(tmp_path):
    payload = minimal_scenario(checks=[{"name": "wall_condition"}])
    path = write_scenario(tmp_path, payload)
    values = [math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    rc = sweep(path, "theta", values, tmp_path / "out")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert len(rows) == 4
    assert [float(r["theta"]) for r in rows] == pytest.approx(values)
    assert all(r["wall_condition_status"] == "pass" for r in rows)


def test_sweep_resolution_includes_rates(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario(
        dirichlet={"type": "sum", "terms": [
            {"type": "flat_profile"},
            {"type": "sine", "amplitude": 0.2, "kx": 2.0, "ky": math.pi,
             "phase": math.pi / 2}]},
        checks=[{"name": "wall_condition"}, {"name": "boundary_tangency"}],
    ))
    rc = sweep(path, "resolution", [1 / 8, 1 / 16, 1 / 32], tmp_path / "out")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert len(rows) == 3
    assert rows[0]["wall_condition_rate"] == ""
    assert float(rows[2]["wall_condition_rate"]) > 0.5


def test_sweep_domain_size_realizes_growth(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario(
        integrand={"kind": "euclidean", "dim": 3},
        dirichlet={"type": "affine", "a": [0.0, 0.0], "b": 0.0},
        domain={"n": 2, "depth": 4.0, "width": 4.0, "resolution": 0.5},
        checks=[],
    ))
    rc = sweep(path, "domain_size", [4.0, 8.0], tmp_path / "out")
    assert rc == 0
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert [float(r["domain_size"]) for r in rows] == [4.0, 8.0]


def test_sweep_unknown_axis_exit_2(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario())
    assert sweep(path, "wavelength", [1.0], tmp_path / "out") == 2


def test_sweep_theta_on_non_capillary_exit_2(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario(
        integrand={"kind": "euclidean", "dim": 3},
        dirichlet={"type": "affine", "a": [0.0, 0.0], "b": 0.0}))
    assert sweep(path, "theta", [1.0], tmp_path / "out") == 2


def test_sweep_malformed_dirichlet_spec_exits_2(tmp_path, capsys):
    raw = json.loads(bundled_scenario_path("capillary_theta_sweep").read_text())
    raw["domain"]["resolution"] = 1 / 8
    raw["dirichlet"] = {"type": "bump", "radius": -1}
    path = write_scenario(tmp_path, raw)
    assert sweep(path, "theta", [0.8, 1.2], tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "config error: dirichlet 'bump': 'radius' must be a finite number > 0" in err


def test_sweep_respects_thread_cap(tmp_path, monkeypatch):
    monkeypatch.setenv("ANISO_THREADS", "1")
    path = write_scenario(tmp_path, minimal_scenario())
    assert sweep(path, "theta", [0.8, 1.2], tmp_path / "out") == 0
    monkeypatch.setenv("ANISO_THREADS", "not-a-number")
    assert sweep(path, "theta", [0.8], tmp_path / "out2") == 2


def test_main_sweep_value_parsing(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario())
    for values, message in (("abc", "sweep values must be numbers"),
                            (",", "empty sweep value list")):
        rc = main(["sweep", "--config", str(path), "--axis", "theta",
                   "--values", values, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"config error: {message}\n"


def test_sweep_resolution_zero_residual_leaves_rate_empty(tmp_path):
    # interior_minimality is exactly 0.0 at h = 1/4, so no rate can be taken from it
    rc = main(["sweep", "--config", str(bundled_scenario_path("capillary_flat")),
               "--axis", "resolution", "--values", "0.25,0.125", "--out", str(tmp_path)])
    rows = list(csv.DictReader((tmp_path / "sweep.csv").open()))
    assert float(rows[0]["interior_minimality_residual"]) == 0.0
    assert rows[1]["interior_minimality_rate"] == ""
    # the area-growth slope at h = 1/4 is off its tolerance: the sweep reports that row
    assert rows[0]["area_growth_status"] == "fail"
    assert rc == 1


def test_sweep_warnings_stay_inside(tmp_path, monkeypatch):
    monkeypatch.setenv("ANISO_THREADS", "2")
    path = write_scenario(tmp_path, minimal_scenario(checks=[
        {"name": "gradient_estimate", "x0_list": [[0.0, 0.0], [0.5, 0.0]],
         "r_list": [0.25, 0.6, 0.8, 1.0]}]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two workers often
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = sweep(path, "theta", [0.5 + 0.15 * k for k in range(14)], tmp_path / "out")
    finally:
        sys.setswitchinterval(interval)
    assert rc == 0
    assert [str(w.message) for w in caught] == []


def test_sweep_logs_the_workers_warnings(tmp_path):
    # r = 0.6 at the origin leaves the width-0.5 box, so gradient_estimate skips it
    path = write_scenario(tmp_path, minimal_scenario(checks=[
        {"name": "gradient_estimate", "x0_list": [[0.0, 0.0]], "r_list": [0.25, 0.6]}]))
    values = [0.9, 0.7]
    assert sweep(path, "theta", values, tmp_path / "out") == 0
    lines = [line.split(" ", 1)[1] for line in
             (tmp_path / "out" / "run.log").read_text().splitlines()]
    skipped = "warning: radius 0.6 at [0.0, 0.0] leaves the truncated domain; skipped"
    assert lines == [skipped, skipped, "theta=0.90000000000000002 exit=0",
                     "theta=0.69999999999999996 exit=0"]


@pytest.mark.parametrize("overrides, code", [
    ({"checks": [{"name": "boundary_tangency", "coef": 1e-12}]}, 1),  # unmeetable tolerance
    ({"solver": {"max_iter": 1}}, 3),
])
def test_sweep_exit_code_is_worst_row(tmp_path, overrides, code):
    path = write_scenario(tmp_path, minimal_scenario(
        dirichlet={"type": "sum", "terms": [
            {"type": "flat_profile"},
            {"type": "sine", "amplitude": 0.2, "kx": 2.0, "ky": math.pi,
             "phase": math.pi / 2}]},
        **overrides,
    ))
    assert sweep(path, "theta", [0.8, 1.2], tmp_path / "out") == code
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert [float(r["theta"]) for r in rows] == [0.8, 1.2]


def test_sweep_leaves_cells_of_unconverged_rows_empty(tmp_path):
    path = write_scenario(tmp_path, minimal_scenario(
        dirichlet={"type": "sum", "terms": [
            {"type": "flat_profile"},
            {"type": "sine", "amplitude": 0.2, "kx": 2.0, "ky": math.pi,
             "phase": math.pi / 2}]},
        solver={"max_iter": 5},
        checks=[{"name": "wall_condition"}, {"name": "gradient_estimate"}],
    ))
    assert sweep(path, "resolution", [0.25, 0.125, 0.0625], tmp_path / "out") == 3
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert [r["converged"] for r in rows] == ["True", "False", "False"]
    cells = [f"{name}_{col}" for name in ("wall_condition", "gradient_estimate")
             for col in ("residual", "status", "rate")] + ["gradient_c1", "gradient_c2"]
    assert rows[0]["wall_condition_status"] and rows[0]["gradient_c1"]
    for row in rows[1:]:
        assert [row[k] for k in cells] == [""] * len(cells)


def test_sweep_row_with_failed_linear_solve_reports_3(tmp_path):
    path = write_scenario(tmp_path, pnorm_reproducer(1.05, 1e-9, 2.0))
    assert sweep(path, "resolution", [0.25, 0.125, 0.0625], tmp_path / "out") == 3
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert [float(r["resolution"]) for r in rows] == [0.25, 0.125, 0.0625]
    assert [r["converged"] for r in rows] == ["True", "True", "False"]


@pytest.mark.parametrize("payload, axis", [
    ({"name": "x", "integrand": {"kind": "euclidean", "dim": 3}}, "resolution"),
    ([1, 2], "resolution"),
    ([1, 2], "theta"),
])
def test_sweep_malformed_scenario_exits_2(tmp_path, capsys, payload, axis):
    path = write_scenario(tmp_path, payload)
    argv = ["sweep", "--config", str(path), "--axis", axis, "--values", "0.5",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# -- report writers -------------------------------------------------------------


WRITER_DOMAINS = {
    "1d": HalfDomain(1, depth=1.0, resolution=1 / 7),
    "2d_dx_ne_dy": HalfDomain(2, depth=1.0, width=0.6, resolution=1 / 4),
    "2d_1.3x0.55": HalfDomain(2, depth=1.3, width=0.55, resolution=1 / 40),
    # 41 x 50 vertices: more than one block of rows
    "2d_dx_ne_dy_large": HalfDomain(2, depth=1.0, width=0.61, resolution=1 / 40),
}


@pytest.mark.parametrize("name", [*sorted(WRITER_DOMAINS),
                                  *(f"{name}_solve_only" for name in sorted(WRITER_DOMAINS))])
def test_table_writers_match_csv_writer(tmp_path, name):
    solve_only = name.endswith("_solve_only")  # no geometry: solution.csv alone
    mesh = build_mesh(WRITER_DOMAINS[name.removesuffix("_solve_only")])
    rng = np.random.default_rng(11)
    special = np.array([-0.0, 0.0, 1e300, -1.7976931348623157e308, 5e-324, -1e-310,
                        1.0 / 3.0, np.inf, -123456789.0])

    def column(size, shift):
        col = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        k = min(size, special.size)
        col[:k] = np.roll(special, shift)[:k]
        return col

    nv, nw = mesh.num_vertices, mesh.wall_cells.size
    h_sq = column(nv, 4)
    h_sq[1::3] = np.nan
    geom = SimpleNamespace(
        vertex_W=column(nv, 1), vertex_Wf=column(nv, 2), mean_curvature_aniso=column(nv, 3),
        h_sq=h_sq, wall_nuF_e1=column(nw, 5),
        wall_muF_e1=column(nw, 6), wall_measure=column(nw, 7))
    u = column(nv, 0)
    u[3::4] = np.nan
    result = SimpleNamespace(solution=SimpleNamespace(mesh=mesh, values=u),
                             geometry=None if solve_only else geom)
    out_dir, ref_dir = tmp_path / "out", tmp_path / "ref"
    out_dir.mkdir()
    ref_dir.mkdir()
    cli._write_csvs(out_dir, result)
    write_solution_csv(ref_dir / "solution.csv", result)
    if solve_only:
        assert [p.name for p in out_dir.iterdir()] == ["solution.csv"]
    else:
        write_geometry_csv(ref_dir / "geometry.csv", ref_dir / "geometry_wall.csv", result)
        text = (out_dir / "geometry.csv").read_text()
        assert all(token in text for token in (",nan,", ",-0,", ",inf", "e+300", "e-324"))
    for out in ref_dir.iterdir():
        assert (out_dir / out.name).read_bytes() == out.read_bytes(), out.name
    text = (out_dir / "solution.csv").read_bytes()
    assert b",-0\r\n" in text and b",nan\r\n" in text
