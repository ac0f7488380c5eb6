"""Correctness gate: reads a run's output files, never just its exit code.

``aniso sweep`` exits 0 even when rows fail, so every operation is judged
from what it wrote:

* ``solve_report.json``: ``converged`` and ``final_residual_norm`` at or
  below the scenario's ``tol_residual`` (verify and solve runs);
* ``summary.csv``: each check's status (verify runs);
* ``sweep.csv``: the ``converged`` flag and every ``*_status`` of each row.

Outputs are also matched against ``fingerprints.json``: the final energy
and each check's ``worst_residual``, the latter relative to the check's own
tolerance, so changes of the 1e-12 class in trailing digits still pass.
On the hard capillary solve ``free_bc_residual`` must equal cos(theta): the
boundary data is corner-incompatible on purpose, which pins it there.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional

from workloads import HARD_THETA, Operation

FINGERPRINTS = Path(__file__).with_name("fingerprints.json")


def load_fingerprints() -> dict:
    with open(FINGERPRINTS) as fh:
        return json.load(fh)


def _close(value: float, ref: float, allowed: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= allowed


def _match_checks(found: dict, expected: dict, rel: float) -> list[str]:
    """Compare ``{check: (status, residual)}`` against fingerprinted checks."""
    problems = []
    if set(found) != set(expected):
        problems.append(f"checks {sorted(found)} != expected {sorted(expected)}")
    for name, ref in expected.items():
        if name not in found:
            continue
        status, residual = found[name]
        if status != ref["status"]:
            problems.append(f"{name}: status {status!r}, expected {ref['status']!r}")
        scale = ref["tolerance"] if ref["tolerance"] is not None else abs(ref["residual"])
        if not _close(residual, ref["residual"], rel * scale):
            problems.append(f"{name}: residual {residual!r} != fingerprint {ref['residual']!r}")
    return problems


def _solve_report(op: Operation, expected: dict, tol: dict) -> list[str]:
    with open(Path(op.out) / "solve_report.json") as fh:
        report = json.load(fh)
    with open(op.config) as fh:
        tol_residual = float(json.load(fh).get("solver", {}).get("tol_residual", 1e-10))
    problems = []
    if report["converged"] is not True:
        problems.append("solve did not converge")
    if not report["final_residual_norm"] <= tol_residual:
        problems.append(f"final residual {report['final_residual_norm']!r} > {tol_residual!r}")
    energy = report["energy_trace"][-1]
    if not _close(energy, expected["energy"], tol["energy_rel"] * abs(expected["energy"])):
        problems.append(f"energy {energy!r} != fingerprint {expected['energy']!r}")
    if op.kind == "solve":
        pinned = math.cos(HARD_THETA)
        if not _close(report["free_bc_residual"], pinned, tol["residual_rel"] * pinned):
            problems.append(f"free_bc_residual {report['free_bc_residual']!r} != cos(theta)")
    return problems


def _summary(op: Operation, expected: dict, tol: dict) -> list[str]:
    with open(Path(op.out) / "summary.csv", newline="") as fh:
        found = {row["check"]: (row["status"], float(row["residual"])) for row in csv.DictReader(fh)}
    return _match_checks(found, expected["checks"], tol["residual_rel"])


def _sweep_rows(op: Operation, expected: list, tol: dict) -> list[list[str]]:
    """Problems of each sweep row (one operation per variant)."""
    with open(Path(op.out) / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for i, ref in enumerate(expected):
        if i >= len(rows):
            out.append(["row missing"])
            continue
        row = rows[i]
        problems = [] if row["converged"] == "True" else [f"converged={row['converged']}"]
        found = {
            key[: -len("_status")]: (row[key], float(row[key[: -len("_status")] + "_residual"] or "nan"))
            for key in row
            if key.endswith("_status")
        }
        problems += _match_checks(found, ref["checks"], tol["residual_rel"])
        out.append(problems)
    if len(rows) > len(expected):
        out[-1] = out[-1] + [f"{len(rows)} rows, expected {len(expected)}"]
    return out


def judge(workload: str, ops: list[Operation], exit_codes: list[Optional[int]],
          fingerprints: dict) -> list[list[str]]:
    """Problems of each operation of one run; an empty list means it passed.

    ``exit_codes[i]`` is ``None`` when the operation never ran.
    """
    tol = fingerprints["tolerances"]
    expected = fingerprints[workload]
    results = []
    for op, rc, ref in zip(ops, exit_codes, expected):
        if op.kind == "sweep":
            if rc != 0:
                results += [[f"exit code {rc}"]] * len(ref)
                continue
            try:
                results += _sweep_rows(op, ref, tol)
            except (OSError, KeyError, ValueError) as exc:
                results += [[f"unreadable sweep.csv: {exc!r}"]] * len(ref)
            continue
        problems = [] if rc == 0 else [f"exit code {rc}"]
        try:
            problems += _solve_report(op, ref, tol)
            if op.kind == "verify":
                problems += _summary(op, ref, tol)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        results.append(problems)
    return results
