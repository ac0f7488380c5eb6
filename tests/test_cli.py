import copy
import csv
import inspect
import json
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from functools import reduce, wraps
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from anisograph import HalfDomain, boundary_data, build_mesh, cli, integrand, solver, verify
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
from conftest import CURVED_DATA_SPEC, bundled
from reference import formatter_mismatches, write_geometry_csv, write_solution_csv


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_data_spec_table_is_the_broadcast_nearest_row(n):
    rng = np.random.default_rng(n)
    # coordinates on a coarse lattice, so that many points are equally near two rows
    pts = rng.integers(-4, 5, size=(300, n)) / 4.0
    rows = np.column_stack([rng.integers(-4, 5, size=(40, n)) / 2.0, rng.normal(size=40)])
    rows[7, :n] = rows[3, :n]  # a repeated location: the first row wins
    d2 = ((pts[:, None, :] - rows[None, :, :n]) ** 2).sum(axis=2)
    assert (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1).max() > 1  # ties occur
    expect = rows[np.argmin(d2, axis=1), n]
    got = evaluate_data_spec({"type": "table", "points": rows.tolist()}, pts)
    assert np.array_equal(got, expect)


def test_data_spec_table_memory_is_linear_in_the_vertices():
    import tracemalloc

    pts = build_mesh(HalfDomain(2, depth=1.0, width=0.5, resolution=1 / 64)).vertices
    rows = np.random.default_rng(0).uniform(-0.5, 1.0, size=(1000, 3)).tolist()
    tracemalloc.start()
    try:
        evaluate_data_spec({"type": "table", "points": rows}, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (vertices, rows, n) difference array alone would take 4225 * 1000 * 2 * 8 B = 64 MiB
    assert peak < 8 * 2 ** 20


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


# the bundled n = 3 flat-profile scenario: every check but liouville, each at its defaults
THREE_D_FLAT = bundled("capillary_flat_3d")


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
    assert THREE_D_FLAT["checks"] == [name for name in cli._CHECKS if name != "liouville"]
    path = bundled_scenario_path("capillary_flat_3d")
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_3d_defaults_and_point_lengths():
    sc = scenario_from_dict({**THREE_D_FLAT,
                             "checks": ["mean_value", {"name": "liouville", "sizes": [1.0, 2.0]}]})
    # a parsed check holds the keys it sets and the scenario's own settings, no defaults
    mean_value, liouville = sc.checks
    assert mean_value == {"name": "mean_value"}
    assert liouville == {"name": "liouville", "sizes": [1.0, 2.0], "integrand": sc.integrand,
                         "config": sc.solver}
    with pytest.raises(ConfigError, match="check 'mean_value': 'x0'"):
        scenario_from_dict({**THREE_D_FLAT, "checks": [{"name": "mean_value", "x0": [0.4, 0.0]}]})
    # the Liouville domains are 3d too: the default sizes would need a 4 GiB band
    with pytest.raises(ConfigError, match="check 'liouville': .* GiB Newton band"):
        scenario_from_dict({**THREE_D_FLAT, "checks": ["liouville"]})
    mean_value, liouville = run_scenario(sc).reports
    # the probe's default point is the 3d probe point [0.25 depth, 0, 0]
    assert mean_value.metadata["base_point"][:3] == [0.25, 0.0, 0.0]
    assert liouville.status == "pass" and liouville.metadata["monotone"]


def test_1d_liouville_solves_on_intervals():
    # a 1d minimal graph with the free wall is the flat profile: no deviation at any size
    raw = bundled("capillary_interval")
    sc = scenario_from_dict({**raw, "checks": ["liouville"]})
    rep = run_scenario(sc).reports[0]
    assert rep.status == "pass" and max(rep.metadata["deviations"]) <= 1e-12
    # the scenario adds only its integrand and solver settings to the probe's defaults
    probe = verify.liouville_probe(sc.integrand, config=sc.solver)
    assert probe.to_json_dict() == rep.to_json_dict()


def test_3d_pnorm_is_a_config_error():
    # sphere sampling covers R^2 and R^3 only, so a pnorm in R^4 has no sampled bounds
    with pytest.raises(ConfigError, match="sphere sampling"):
        scenario_from_dict({**THREE_D_FLAT, "integrand": {"kind": "pnorm", "dim": 4}})


BUNDLED = ["capillary_flat", "capillary_theta_sweep", "euclidean_freebdry_sine", "liouville_bump"]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_load(name):
    assert load_scenario(bundled_scenario_path(name)).checks


def test_every_bundled_scenario_loads_and_the_readme_lists_it():
    paths = sorted(bundled_scenario_path("capillary_flat").parent.glob("*.json"))
    for path in paths:
        load_scenario(path)
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("Bundled scenarios live"))
    items = takewhile(lambda line: line, lines[lines.index("", start) + 1:])
    assert [re.match(r"\* `(\w+)` - ", line)[1] for line in items] == [p.stem for p in paths]


# no key sets a pass bar: those are the fields of ``verify.CheckDefaults``
ACCEPTED_KEYS = {
    "boundary_tangency": set(),
    "wall_condition": set(),
    "interior_minimality": set(),
    "wall_principal_direction": set(),
    "subharmonicity": set(),
    "first_variation": set(),
    "area_element_identity": set(),
    "area_growth": {"x0", "radii"},
    "mean_value": {"x0", "r"},
    "functional_inequalities": set(),
    "gradient_estimate": {"x0_list", "r_list"},
    "liouville": {"beta", "sizes", "bump_height", "resolution"},
}


def test_check_table_matches_its_probes():
    # the scenario supplies only what it owns; every other default is the probe's
    assert set(cli._DERIVED) == {"seed", "integrand", "config"}
    keys = {}
    for name, probe in cli._CHECKS.items():
        assert probe in verify.__all__, name
        params = inspect.signature(getattr(verify, probe)).parameters
        for param in params:  # every probe parameter is a key, derived, or the geometry
            assert param in cli._KEYS or param in cli._DERIVED or param == "geom", (name, param)
            if param in cli._KEYS:  # so a check that leaves a key unset runs the probe's default
                assert params[param].default is not inspect.Parameter.empty, (name, param)
        keys[name] = {k for k in params if k in cli._KEYS}
        # a check reads the geometry iff its probe takes it
        assert cli._reads_geometry(name) == ("geom" in params), name
    assert keys == ACCEPTED_KEYS


def test_a_wrapped_probe_keeps_its_keys_and_runs(monkeypatch):
    calls = []
    original = verify.mean_value_probe

    @wraps(original)
    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(verify, "mean_value_probe", spy)
    with pytest.raises(ConfigError, match="'radius'"):
        scenario_from_dict(minimal_scenario(checks=[{"name": "mean_value", "radius": 0.3}]))
    sc = scenario_from_dict(minimal_scenario(checks=[{"name": "mean_value", "r": 0.3}]))
    result = run_scenario(sc)
    assert calls == [{"r": 0.3}]  # the probe takes its default x0 itself
    assert result.reports[0].metadata["r"] == 0.3
    assert result.reports[0].metadata["base_point"][:2] == [0.25, 0.0]


def test_a_probe_wrapped_without_its_signature_keeps_its_keys_and_geometry(monkeypatch):
    # the wrapper's own signature is (*a, **k): the probe's parameters were read at import
    calls = []
    probe = verify.mean_value_probe

    def wrapper(*a, **k):
        calls.append(k)
        return probe(*a, **k)

    monkeypatch.setattr(verify, "mean_value_probe", lambda *a, **k: wrapper(*a, **k))
    sc = scenario_from_dict(minimal_scenario(checks=[{"name": "mean_value", "r": 0.3}]))
    result = run_scenario(sc)
    assert calls == [{"r": 0.3}]
    assert result.geometry is not None and result.reports[0].metadata["r"] == 0.3
    assert result.reports[0].metadata["base_point"][:2] == [0.25, 0.0]


def test_python_probes_take_the_scenario_defaults():
    # a check named with no keys and its probe called with no arguments are the same run
    sc = scenario_from_dict(minimal_scenario(checks=["area_growth", "mean_value",
                                                     "gradient_estimate"]))
    result = run_scenario(sc)
    geom = result.geometry
    probes = [verify.area_growth_check(geom), verify.mean_value_probe(geom),
              verify.gradient_estimate_probe(geom)]
    assert [rep.to_json_dict() for rep in probes] == [
        rep.to_json_dict() for rep in result.reports]
    assert probes[2].metadata["n_records"] > 0


def sine_scenario_with(check, resolution=1 / 8):
    """``euclidean_freebdry_sine`` at a coarse resolution with one check."""
    raw = bundled("euclidean_freebdry_sine")
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
    ({"name": "wall_condition", "coef": 1e-12}, "coef"),
    ({"name": "functional_inequalities", "bank_size": 0}, "bank_size"),
    ({"name": "mean_value", "x0": [0.4]}, "x0"),
    ({"name": "gradient_estimate", "r_list": [-0.1]}, "r_list"),
    ({"name": "liouville", "sizes": [1.0, 2.0], "resolution": 1.0}, "resolution"),
    ({"name": "area_growth", "radii": "abc"}, "radii"),
    ({"name": "wall_condition", "cof": 0.1}, "cof"),
    ({"name": "first_variation", "margin": 0.2}, "margin"),
    ({"name": "liouville", "beta": -1.0}, "beta"),
    ({"name": "liouville", "slope": [0.5]}, "slope"),
    ({"name": "gradient_estimate", "x0_list": [[0.1, 0.0, 0.0]]}, "x0_list"),
    ({"name": "liouville", "tol_flat": 0.5}, "tol_flat"),
    ({"name": "area_growth", "slope_tol": 1.0}, "slope_tol"),
    ({"name": "liouville", "sizes": [2.0, 2.0], "resolution": 0.5}, "sizes"),
    ({"name": "functional_inequalities", "bank_size": 60}, "bank_size"),
    # the Liouville data are always the flat profile plus a bump of radius 1
    ({"name": "liouville", "bump_radius": 1.0}, "bump_radius"),
])
def test_bad_check_parameter_exits_2_before_any_solve(tmp_path, capsys, no_mesh, check, key):
    path = write_scenario(tmp_path, sine_scenario_with(check))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: check {check['name']!r}: ")
    assert key in err
    if key not in cli._KEYS:  # a pass bar's name is no key, like a misspelt one
        assert f"unknown key {key!r}" in err
    assert not out.exists()


def test_sweep_with_bad_check_parameter_exits_2(tmp_path, capsys, no_mesh):
    path = write_scenario(tmp_path, sine_scenario_with({"name": "mean_value", "r": -1.0}))
    out = tmp_path / "out"
    argv = ["sweep", "--config", str(path), "--axis", "resolution", "--values", "0.25,0.125",
            "--out", str(out)]
    assert main(argv) == 2
    assert "config error: check 'mean_value': 'r'" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["verify", "sweep"])
def test_a_repeated_check_name_exits_2_before_any_solve(tmp_path, capsys, no_mesh, command):
    # a sweep keys its columns by check name: the r = 0.2 report would be silently lost
    raw = sine_scenario_with({"name": "mean_value", "r": 0.2})
    raw["checks"] += ["wall_condition", {"name": "mean_value", "r": 0.4}]
    path = write_scenario(tmp_path, raw)
    out = tmp_path / "out"
    argv = [command, "--config", str(path), "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "resolution", "--values", "0.125,0.0625"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: check 'mean_value': named more than once; a name may appear once\n")
    assert not out.exists()


def test_null_check_parameter_takes_the_default():
    sc = scenario_from_dict(minimal_scenario(checks=[{"name": "liouville", "beta": None}]))
    assert "beta" not in sc.checks[0]  # so the probe's own default applies
    assert sc.checks[0]["name"] == "liouville"


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


SINE = CURVED_DATA_SPEC  # the reference scenario's data


@pytest.mark.parametrize("edits, key", [
    pytest.param({"solver.max_iters": 5}, "'max_iters'", id="unknown-solver-key"),
    pytest.param({"domian": {"n": 2}}, "'domian'", id="unknown-top-level-key"),
    pytest.param({"integrand.thetaa": 1.0}, "'thetaa'", id="unknown-integrand-key"),
    pytest.param({"integrand.dim": 3.5}, "'dim'", id="fractional-dim"),
    pytest.param({"domain.n": 2.7}, "'n'", id="fractional-n"),
    pytest.param({"seed": "3"}, "'seed'", id="string-seed"),
    pytest.param({"dirichlet.bb": 1}, "'bb'", id="unknown-flat-profile-key"),
    pytest.param({"solver.max_iter": 1.5}, "'max_iter'", id="fractional-max-iter"),
    # F and cF have the same minimal graphs, and the line search and the linear solve use
    # fixed constants: none of them is a setting
    pytest.param({"integrand.scale": 2.0}, "unknown key 'scale'", id="integrand-scale"),
    pytest.param({"integrand.normalized": True}, "unknown key 'normalized'",
                 id="integrand-normalized"),
    pytest.param({"solver.ls_shrink": 0.5}, "unknown key 'ls_shrink'", id="solver-ls-shrink"),
    pytest.param({"solver.ls_decrease": 1e-4}, "unknown key 'ls_decrease'",
                 id="solver-ls-decrease"),
    pytest.param({"solver.linear_solver_tol": 1e-8}, "unknown key 'linear_solver_tol'",
                 id="solver-linear-solver-tol"),
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
    # with a matching dim, the sampler's limit is named, not ellipticity
    pytest.param({"integrand": {"kind": "pnorm", "dim": 4}, "domain.n": 3},
                 "integrand 'pnorm': sphere sampling is implemented for dim in {2, 3}, not dim 4",
                 id="pnorm-dim-4-n-3"),
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
    # the flat profile's slope -cot(pi / 3) times R = 8e307, plus the bump, overflows
    pytest.param({"checks": [{"name": "liouville", "sizes": [4e307, 8e307],
                              "bump_height": 1.7e308, "resolution": 2e307}]},
                 "check 'liouville': the data overflow a float", id="overflowing-liouville-slope"),
])
def test_malformed_scenario_exits_2_before_any_mesh(tmp_path, capsys, no_mesh, edits, key):
    raw = bundled("capillary_flat")
    raw["domain"]["resolution"] = 1 / 8
    path = write_scenario(tmp_path, edited(raw, edits))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


def readme_names(text: str) -> set:
    """The backquoted names of a README cell or sentence, less those in parentheses."""
    while re.search(r"\([^()]*\)", text):
        text = re.sub(r"\([^()]*\)", "", text)
    return set(re.findall(r"`([^`]*)`", text))


def readme_table(lines: list, header: str) -> list:
    """The cells of the README table under ``header``, row by row."""
    rows = takewhile(lambda line: line.startswith("|"), lines[lines.index(header) + 2:])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def test_readme_scenario_tables_name_exactly_the_parsed_keys():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    sections, section = {}, None
    for name, key, *_ in readme_table(lines, "| Section | Key | Default | Range |"):
        section = name or section
        sections.setdefault(section, set()).update(readme_names(key))
    assert sections == {"top level": set(cli._SCENARIO), "`domain`": set(cli._DOMAIN),
                        "`solver`": set(cli._SOLVER)}
    data = {kind.strip("`"): readme_names(keys) for kind, keys, _ in
            readme_table(lines, "| Dirichlet `type` | Keys (default) | Data |")}
    assert data == {kind: set(keys) for kind, keys in boundary_data._SPECS.items()}
    start = next(i for i, line in enumerate(lines) if line.startswith("Integrands: every `kind`"))
    sentence = " ".join(lines[start:lines.index("", start)])
    assert readme_names(sentence) == set(integrand._SHARED_KEYS)
    rows = readme_table(lines, "| Check | Keys (default) | Verdict |")
    checks = {name.strip("`"): readme_names(keys) for name, keys, *_ in rows}
    assert checks == {name: {k for k in params if k in cli._KEYS}
                      for name, params in cli._PARAMS.items()}
    # a default the table gives as a number or a list of them is the probe's own; one read
    # off the domain (the probe point, L) is None in the probe's signature
    for name, keys, *_ in rows:
        params = cli._PARAMS[name.strip("`")]
        for key, default in re.findall(r"`(\w+)` \(([^()]*)\)", keys):
            literal = re.fullmatch(r"`?([-\d., \[\]]+)`?", default)
            expect = params[key].default
            assert (json.loads(literal[1]) if literal else None) == (
                list(expect) if isinstance(expect, tuple) else expect), (name, key)


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


def test_run_exit_2_on_malformed_json(tmp_path, capsys):
    # not JSON, not UTF-8, and nested past the parser's recursion limit
    bad = tmp_path / "bad.json"
    for content in [b"{not json", b"\xff\xfe{}", b"[" * 200_000]:
        bad.write_bytes(content)
        assert run(bad, tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("config error: invalid JSON: ")
    argv = ["sweep", "--config", str(bad), "--axis", "theta", "--values", "0.5",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: invalid JSON: ")
    assert not (tmp_path / "out").exists()


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



@pytest.mark.parametrize("command, blocked", [
    ("verify", "solution.csv"), ("verify", "run.log"), ("sweep", "sweep.csv"),
    ("sweep", "run.log"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, command, blocked):
    # an output file that is a directory: a message and the config-error code, not a
    # traceback and the failed-check code
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    argv = [command, "--config", str(bundled_scenario_path("capillary_flat")),
            "--out", str(out)]
    if command == "sweep":
        argv += ["--axis", "theta", "--values", "1.0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and blocked in err

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
    raw = bundled("euclidean_freebdry_sine")
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


def test_verify_imports_neither_numpy_ma_nor_numpy_random(tmp_path):
    # numpy imports numpy.ma on the first plain np.unique, at about 13 ms, and numpy.random
    # (with hashlib and secrets) on the first default_rng, at about 6 MiB; the writers'
    # powers of ten come from Python integers, not fractions or decimal; the solver keys
    # the last finest level on raw bytes, since hashlib maps OpenSSL; a 1/32 solve after
    # the 1/16 verify resumes from that level; a fresh interpreter, since this one has
    # imported all of them
    raw = bundled("euclidean_freebdry_sine")
    raw["domain"]["resolution"] = 1 / 16
    assert "functional_inequalities" in raw["checks"]
    src = Path(__file__).resolve().parents[1] / "src"
    finer = copy.deepcopy(raw)
    finer["domain"]["resolution"] = 1 / 32
    code = ("import sys, anisograph.cli as cli; "
            f"assert cli.main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0; "
            f"assert cli.main(['solve', '--config', sys.argv[3], '--out', sys.argv[4]]) == 0; "
            "print(sorted({'numpy.ma', 'numpy.random', 'hashlib', 'secrets', 'fractions',"
            " 'decimal'} & set(sys.modules)))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(write_scenario(tmp_path, raw)), str(tmp_path / "out"),
         str(write_scenario(tmp_path, finer, "finer.json")), str(tmp_path / "finer")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"


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


def test_run_exit_1_on_failed_check(tmp_path, monkeypatch):
    # an unmeetable tolerance, read when the probe runs
    monkeypatch.setattr(verify, "DEFAULTS",
                        replace(verify.DEFAULTS, boundary_tangency_coef=1e-12))
    payload = minimal_scenario(
        dirichlet={"type": "sum", "terms": [
            {"type": "flat_profile"},
            {"type": "sine", "amplitude": 0.2, "kx": 2.0, "ky": math.pi,
             "phase": math.pi / 2}]},
        checks=["boundary_tangency"],
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
    raw = bundled("capillary_theta_sweep")
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


def test_resolution_sweep_bytes_do_not_depend_on_the_threads(tmp_path, monkeypatch):
    # the README's refinement sweep: each finer row can resume from the last solve's finest
    # level, and the pool's completion order decides which rows do; the bytes stay the same
    path = bundled_scenario_path("euclidean_freebdry_sine")
    written = []
    for threads in ("1", "2"):
        monkeypatch.setenv("ANISO_THREADS", threads)
        solver._finest = None
        assert sweep(path, "resolution", [0.03125, 0.015625, 0.0078125],
                     tmp_path / threads) == 0
        written.append((tmp_path / threads / "sweep.csv").read_bytes())
    assert written[0] == written[1]


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
    # balls past the box hold the whole graph: the fitted area exponent is 0, not n = 2
    ({"checks": [{"name": "area_growth", "radii": [4.0, 5.0, 6.0]}]}, 1),
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


def test_sweep_rate_after_an_unconverged_row_is_empty(tmp_path):
    # a rate compares a row with the one before it, not with the last row that had a report
    path = write_scenario(tmp_path, minimal_scenario(
        dirichlet={"type": "sum", "terms": [
            {"type": "flat_profile"},
            {"type": "sine", "amplitude": 0.2, "kx": 2.0, "ky": math.pi,
             "phase": math.pi / 2}]},
        solver={"max_iter": 5},
        checks=[{"name": "wall_condition"}],
    ))
    assert sweep(path, "resolution", [0.25, 0.125, 0.25], tmp_path / "out") == 3
    rows = list(csv.DictReader((tmp_path / "out" / "sweep.csv").open()))
    assert [r["converged"] for r in rows] == ["True", "False", "True"]
    assert rows[2]["wall_condition_residual"] == rows[0]["wall_condition_residual"] != ""
    assert [r["wall_condition_rate"] for r in rows] == ["", "", ""]


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


def test_block_formatter_matches_percent_format():
    rng = np.random.default_rng(2026)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    # every power of ten and the 8 doubles on either side of it
    near = (powers.view(np.int64)[:, None] + np.arange(-8, 9)).view(np.float64)
    # exact ties at the 17th digit: m 10^k / 2^(k+1) = N + 1/2 for odd m, X = 16 - k
    odd = [range(-(-2 * 10 ** 16 // 5 ** k) | 1, 2 * 10 ** 17 // 5 ** k, 2) for k in range(25)]
    ties = np.array([m / 2 ** (k + 1) for k, ms in enumerate(odd)
                     for m in ms[::max(1, len(ms) // 20)] if m < 2 ** 53])
    # where 10^k is a double (X >= -6) the product is exact and decides the tie; below,
    # the few ties (X = -7, -8) are too close to 1/2 to certify and fall back
    exact = ties >= 1e-6
    assert exact.sum() > 50 and cli._decimal(ties[exact])[2].all()
    assert 0 < (~exact).sum() and not cli._decimal(ties[~exact])[2].any()
    # a log10 one off next to a power of ten is corrected, not left to '%.17g'
    fast = near[(near >= 1e-280) & (near <= 1e280)]
    assert cli._decimal(fast)[2].mean() >= 0.999
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1e-310,
                        2.2250738585072014e-308, np.nextafter(2.2250738585072014e-308, 0),
                        1.7976931348623157e308, 1e-280, 1e280, 1e-5, 9.999999999999999e-5,
                        1e16, 1e17, 99999999999999999.0, 0.5, 100.0, 1 / 3])
    subnormal = rng.integers(1, 2 ** 52, 1000).view(np.float64)
    bits = rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64).view(np.float64)
    for values in (near, ties, special, subnormal, bits):
        for signed in (values, -values):
            assert formatter_mismatches(signed) == []
    # a formatter that left every value to '%.17g' would pass the above
    normal = rng.standard_normal(10 ** 5) * 10.0 ** rng.integers(-20, 21, 10 ** 5)
    assert cli._decimal(normal)[2].mean() >= 0.99


WRITER_DOMAINS = {
    "1d": HalfDomain(1, depth=1.0, resolution=1 / 7),
    "2d_dx_ne_dy": HalfDomain(2, depth=1.0, width=0.6, resolution=1 / 4),
    "2d_1.3x0.55": HalfDomain(2, depth=1.3, width=0.55, resolution=1 / 40),
    # d + 1 by round(1.22 d) + 1 vertices: more than one block of rows
    "2d_dx_ne_dy_large": HalfDomain(
        2, depth=1.0, width=0.61, resolution=1 / math.ceil(math.sqrt(cli._BLOCK_ROWS / 1.22))),
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
    assert nv > cli._BLOCK_ROWS or not name.startswith("2d_dx_ne_dy_large")
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
