"""The benchmark's workloads and the seeded scenario files they run.

Each workload is a list of ``aniso`` invocations (operations) over scenario
files written here from the bundled scenarios.  Seed 0 reproduces the
bundled data exactly.  Any other seed changes only the scenario ``seed``
field, which drives the ``functional_inequalities`` test-function bank; mesh
sizes, integrands, boundary data, sweep values and check lists stay fixed.
README.md says why the boundary data and the sweep's theta values are not
varied: small changes to them flip the Newton solve between 6 and 50
iterations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

SCENARIOS = Path("src/anisograph/scenarios")

SWEEP_THETAS = (0.6, 1.0, 1.4, 1.8, 2.2, 2.6)
HARD_THETA = 0.5


@dataclass(frozen=True)
class Operation:
    """One ``aniso`` call: its kind, argv and where it writes."""

    kind: str  # "verify", "solve" or "sweep"
    argv: tuple
    out: str
    config: str


# workload name -> the ``aniso`` command it runs
WORKLOADS = {
    "verify_curved_fine": "verify",
    "solve_capillary_hard": "solve",
    "sweep_theta": "sweep",
}


def _bundled(root: Path, name: str) -> dict:
    with open(root / SCENARIOS / f"{name}.json") as fh:
        return json.load(fh)


def _write(raw: dict, path: Path) -> str:
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1)
    return str(path)


def scenarios(workload: str, seed: int, root: Path) -> list[dict]:
    """The scenario dicts of a workload at ``seed``."""
    if workload == "verify_curved_fine":
        raw = _bundled(root, "euclidean_freebdry_sine")
        raw["domain"]["resolution"] = 1 / 128
        out = [raw]
    elif workload == "solve_capillary_hard":
        out = []
        for divisions in (64, 128):
            raw = _bundled(root, "euclidean_freebdry_sine")
            raw["name"] = f"capillary_hard_h{divisions}"
            raw["integrand"] = {"kind": "capillary", "theta": HARD_THETA, "dim": 3}
            raw["domain"]["resolution"] = 1 / divisions
            raw["checks"] = []
            out.append(raw)
    elif workload == "sweep_theta":
        raw = _bundled(root, "capillary_theta_sweep")
        raw["domain"]["resolution"] = 1 / 64
        out = [raw]
    else:
        raise KeyError(f"unknown workload {workload!r}")
    for raw in out:
        raw["seed"] = int(raw.get("seed", 0)) + seed
    return out


def write_inputs(workload: str, raws: list[dict], inputs: Path) -> list[str]:
    """Write scenario dicts into ``inputs``; return their paths."""
    inputs.mkdir(parents=True, exist_ok=True)
    return [_write(raw, inputs / f"{workload}_{i}.json") for i, raw in enumerate(raws)]


def operations(workload: str, configs: list[str], out_root: Path) -> list[Operation]:
    """The ``aniso`` calls of one run, each writing into its own directory under ``out_root``."""
    kind = WORKLOADS[workload]
    ops = []
    for i, config in enumerate(configs):
        out = str(out_root / f"op{i}")
        argv = (kind, "--config", config, "--out", out)
        if kind == "sweep":
            argv += ("--axis", "theta", "--values", ",".join(repr(t) for t in SWEEP_THETAS))
        ops.append(Operation(kind, argv, out, config))
    return ops
