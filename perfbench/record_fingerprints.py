"""Write fingerprints.json: seed-0 outputs the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/record_fingerprints.py

Run from the repository root, only when a change is meant to move the
fingerprinted numbers; say so in CHANGES.md.  The values are taken in
process through ``cli.run_scenario``, so the gate also confirms that the
files the CLI writes carry the same numbers.
"""

from __future__ import annotations

import json
from pathlib import Path

from anisograph import cli

import gate
import workloads

TOLERANCES = {
    "energy_rel": 1e-9,    # of the fingerprinted final energy
    # of the check's own tolerance (of the residual when it has none); rounding-level
    # residuals such as area_element_identity's 2e-16 against 1e-12 may move by ulps
    "residual_rel": 1e-3,
}


def _fingerprint(raw: dict, with_energy: bool = True) -> dict:
    result = cli.run_scenario(cli.scenario_from_dict(raw))
    entry = {
        "checks": {
            r.check_name: {"status": r.status, "residual": r.worst_residual, "tolerance": r.tolerance}
            for r in result.reports
        }
    }
    if with_energy:
        entry["energy"] = result.solve_report.energy_trace[-1]
    return entry


def record(root: Path) -> dict:
    out = {"tolerances": TOLERANCES}
    for workload in workloads.WORKLOADS:
        raws = workloads.scenarios(workload, 0, root)
        if workload == "sweep_theta":
            (raw,) = raws
            rows = []
            for theta in workloads.SWEEP_THETAS:
                raw["integrand"]["theta"] = theta
                rows.append({"theta": theta, **_fingerprint(raw, with_energy=False)})
            out[workload] = [rows]
        else:
            out[workload] = [_fingerprint(raw) for raw in raws]
    return out


if __name__ == "__main__":
    fingerprints = record(Path.cwd())
    with open(gate.FINGERPRINTS, "w") as fh:
        json.dump(fingerprints, fh, indent=1)
        fh.write("\n")
