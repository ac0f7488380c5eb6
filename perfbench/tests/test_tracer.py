"""Self-tests of the benchmark's tracer, workload generator and correctness gate.

The traced runs use the workloads' scenarios on meshes 4x coarser than the
benchmark's, so the suite takes a few seconds.
"""

from __future__ import annotations

import csv
import json
import types
from pathlib import Path

import pytest

import gate
import record_fingerprints
import tracer as tracing
import workloads
from anisograph import cli, geometry, solver, verify
from anisograph.integrand import EllipticIntegrand

ROOT = Path(__file__).resolve().parents[2]
COARSE = 4.0
# spans every workload must produce, plus those of the workloads that use geometry
STABLE_SPANS = {"cli.main", "solver.solve", "domain.build_mesh"}
USES_GEOMETRY = {"verify_curved_fine", "sweep_theta"}


def _coarse_inputs(workload: str, tmp_path: Path, seed: int = 0) -> list[str]:
    """The workload's scenario files with meshes ``COARSE`` times coarser."""
    raws = workloads.scenarios(workload, seed, ROOT)
    for raw in raws:
        raw["domain"]["resolution"] *= COARSE
    return workloads.write_inputs(workload, raws, tmp_path / "in")


def _traced_run(workload: str, tmp_path: Path, seed: int = 0):
    configs = _coarse_inputs(workload, tmp_path, seed)
    ops = workloads.operations(workload, configs, tmp_path / "out")
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        main = tracer.wrap("cli.main", cli.main)
        codes = [main(list(op.argv)) for op in ops]
    finally:
        tracer.uninstall()
    return tracer, ops, codes


def _patched_names() -> dict:
    """A sample of the names the tracer replaces, one per kind of owner."""
    return {
        "cli.solve": cli.solve,
        "cli.run_scenario": cli.run_scenario,
        "geometry.vertex_stencils": geometry.vertex_stencils,
        "solver.spsolve": solver.spsolve,
        "verify.check_wall_condition": verify.check_wall_condition,
        "EllipticIntegrand.eval_f": EllipticIntegrand.__dict__["eval_f"],
    }


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_stable_spans_fire_and_originals_return(workload, tmp_path):
    originals = _patched_names()
    tracer, _, codes = _traced_run(workload, tmp_path)

    assert codes == [0] * len(codes)
    fired = {s.name for s in tracer.spans}
    required = set(STABLE_SPANS)
    if workload in USES_GEOMETRY:
        required |= {"cli.run_scenario", "geometry.compute_geometry"}
    assert required <= fired

    assert tracer.restored()
    assert all(obj is originals[name] for name, obj in _patched_names().items())


def test_sweep_spans_group_by_variant_and_thread(tmp_path):
    tracer, _, _ = _traced_run("sweep_theta", tmp_path)
    variants = [s for s in tracer.spans if s.name == "cli.run_scenario"]
    assert len(variants) == len(workloads.SWEEP_THETAS)
    assert {s.group for s in variants} == {s.id for s in variants}
    by_group = {s.id: s.thread for s in variants}
    solves = [s for s in tracer.spans if s.name == "solver.solve"]
    assert all(s.group in by_group and s.thread == by_group[s.group] for s in solves)
    metrics, _ = tracing.summarize(tracer.spans, workers=2)
    assert 0.0 < metrics["cli.sweep_parallel_eff"] <= 1.0


def test_summary_counts_match_the_reports(tmp_path):
    tracer, ops, _ = _traced_run("solve_capillary_hard", tmp_path)
    metrics, absent = tracing.summarize(tracer.spans, workers=None)
    reports = [json.loads((Path(op.out) / "solve_report.json").read_text()) for op in ops]
    assert metrics["solver.newton_iters"] == sum(r["iterations"] for r in reports)
    assert metrics["solver.spsolve_calls"] == metrics["solver.newton_iters"]
    assert metrics["solver.energy_evals"] >= metrics["solver.newton_iters"] + len(reports)
    assert 0.0 < metrics["solver.self_s"] < metrics["solver.solve_s"] <= metrics["cli.main_s"]
    # geometry and the checks never run on a plain solve: absent, reported as 0
    assert "geometry.compute_geometry" in absent
    assert metrics["geometry.compute_s"] == 0 and metrics["verify.total_s"] == 0
    # no sweep, so no parallel efficiency to report
    assert "cli.sweep_parallel_eff" not in metrics


def test_optional_names_are_skipped_not_errors():
    tracer = tracing.Tracer()
    present = lambda: 1  # noqa: E731
    owner = types.SimpleNamespace(present=present)
    tracer.patch(owner, "vertex_stencils", "domain.vertex_stencils")
    tracer.patch(owner, "present", "x.present")
    assert not hasattr(owner, "vertex_stencils") and owner.present is not present
    assert owner.present() == 1 and [s.name for s in tracer.spans] == ["x.present"]
    metrics, absent = tracing.summarize(tracer.spans, workers=None)
    assert "domain.vertex_stencils" in absent and metrics["domain.vertex_stencils_s"] == 0
    tracer.uninstall()
    assert tracer.restored() and owner.present is present


def test_failing_call_still_closes_its_span():
    tracer = tracing.Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap("cli.main", boom)()
    assert [s.name for s in tracer.spans] == ["cli.main"]
    assert tracer._stack() == []


# -- seeded inputs ---------------------------------------------------------------


def _bundled(name):
    return json.loads((ROOT / workloads.SCENARIOS / f"{name}.json").read_text())


def test_seed_zero_reproduces_bundled_data():
    (verify_raw,) = workloads.scenarios("verify_curved_fine", 0, ROOT)
    bundled = _bundled("euclidean_freebdry_sine")
    bundled["domain"]["resolution"] = 1 / 128
    assert verify_raw == bundled

    (sweep_raw,) = workloads.scenarios("sweep_theta", 0, ROOT)
    bundled = _bundled("capillary_theta_sweep")
    bundled["domain"]["resolution"] = 1 / 64
    assert sweep_raw == bundled

    reference = _bundled("euclidean_freebdry_sine")
    for raw in workloads.scenarios("solve_capillary_hard", 0, ROOT):
        for key in ("dirichlet", "solver", "seed"):
            assert raw[key] == reference[key]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seeds_change_only_the_seed_field(workload):
    base = workloads.scenarios(workload, 0, ROOT)
    other = workloads.scenarios(workload, 7, ROOT)
    for a, b in zip(base, other):
        assert b["seed"] == a["seed"] + 7
        assert {k: v for k, v in a.items() if k != "seed"} == {k: v for k, v in b.items() if k != "seed"}


# -- correctness gate --------------------------------------------------------------


@pytest.fixture
def verify_outputs(tmp_path):
    """A coarse verify run, with fingerprints taken in process."""
    configs = _coarse_inputs("verify_curved_fine", tmp_path)
    (op,) = workloads.operations("verify_curved_fine", configs, tmp_path / "out")
    assert cli.main(list(op.argv)) == 0
    raw = json.loads(Path(op.config).read_text())
    fingerprints = {
        "tolerances": record_fingerprints.TOLERANCES,
        "verify_curved_fine": [record_fingerprints._fingerprint(raw)],
    }
    return op, fingerprints


def test_gate_passes_untouched_outputs(verify_outputs):
    op, fingerprints = verify_outputs
    assert gate.judge("verify_curved_fine", [op], [0], fingerprints) == [[]]


def test_gate_counts_corrupted_summary_status(verify_outputs):
    op, fingerprints = verify_outputs
    path = Path(op.out) / "summary.csv"
    rows = list(csv.reader(path.read_text().splitlines()))
    rows[2][1] = "fail"
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    (problems,) = gate.judge("verify_curved_fine", [op], [0], fingerprints)
    assert any("status 'fail'" in p for p in problems)


def test_gate_counts_wrong_exit_code_and_moved_residual(verify_outputs):
    op, fingerprints = verify_outputs
    check = fingerprints["verify_curved_fine"][0]["checks"]["wall_condition"]
    check["residual"] += 1e-2 * check["tolerance"]
    (problems,) = gate.judge("verify_curved_fine", [op], [1], fingerprints)
    assert "exit code 1" in problems
    assert any(p.startswith("wall_condition: residual") for p in problems)


def test_gate_tolerates_trailing_digit_changes(verify_outputs):
    op, fingerprints = verify_outputs
    entry = fingerprints["verify_curved_fine"][0]
    entry["energy"] *= 1 + 1e-12
    for check in entry["checks"].values():
        if check["tolerance"] is not None:
            check["residual"] = check["residual"] * (1 + 1e-12) + 4e-16
    assert gate.judge("verify_curved_fine", [op], [0], fingerprints) == [[]]


def _sweep_fixture(tmp_path, converged):
    out = tmp_path / "sweep"
    out.mkdir()
    with open(out / "sweep.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["theta", "h", "converged", "iterations", "wall_condition_residual",
                    "wall_condition_status"])
        for i, flag in enumerate(converged):
            w.writerow([0.5 + i, 0.25, flag, 7, "0.001", "pass"])
    op = workloads.Operation("sweep", (), str(out), "")
    rows = [{"theta": 0.5 + i,
             "checks": {"wall_condition": {"status": "pass", "residual": 0.001, "tolerance": 0.01}}}
            for i in range(len(converged))]
    return op, {"tolerances": record_fingerprints.TOLERANCES, "sweep_theta": [rows]}


def test_gate_counts_each_non_converged_sweep_row(tmp_path):
    op, fingerprints = _sweep_fixture(tmp_path, [True, False, True])
    problems = gate.judge("sweep_theta", [op], [0], fingerprints)
    assert [bool(p) for p in problems] == [False, True, False]
    # a sweep that exits non-zero fails every variant
    assert all(gate.judge("sweep_theta", [op], [2], fingerprints))

