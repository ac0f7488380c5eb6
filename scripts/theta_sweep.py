#!/usr/bin/env python3
"""Contact-angle sweep: fit the gradient-bound constants across angles.

For each capillary angle, solves the bundled ``capillary_theta_sweep``
scenario (wall-compatible affine profile plus a fixed curved perturbation)
at that angle, collects (log|Du|, oscillation/radius) records at the probe
points and radii of its ``gradient_estimate`` check, and fits the smallest
constants (c1, c2) with log|Du| <= c1 + c2 * osc/r over the pooled records.
Also reports per-angle fits and the held-out satisfaction fraction.

Usage:
    python scripts/theta_sweep.py --resolution 32 --out theta_records.csv
"""

import argparse
import csv
import json
import math
import sys
import warnings

import anisograph.verify as V
from anisograph.cli import _apply_axis, bundled_scenario_path, run_scenario, scenario_from_dict

THETAS = (math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4)


def records_for(raw: dict, probes: dict, theta: float, resolution: float):
    varied = _apply_axis(_apply_axis(raw, "theta", theta), "resolution", resolution)
    result = run_scenario(scenario_from_dict({**varied, "checks": []}))
    if result.exit_code:
        raise RuntimeError(f"solve failed at theta={theta}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return V.gradient_estimate_records(result.geometry, probes["x0_list"], probes["r_list"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--resolution", type=int, default=32, help="cells across")
    ap.add_argument("--out", default="theta_records.csv")
    args = ap.parse_args(argv)

    raw = json.loads(bundled_scenario_path("capillary_theta_sweep").read_text())
    probes = next(c for c in scenario_from_dict(raw).checks if c["name"] == "gradient_estimate")
    pooled = []
    rows = []
    for theta in THETAS:
        recs = records_for(raw, probes, theta, 1.0 / args.resolution)
        c1, c2 = V.fit_gradient_constants(recs)
        print(f"theta={theta:.4f}: {len(recs)} records, per-angle c1={c1:.5f} c2={c2:.5f}")
        for rec in recs:
            rows.append({"theta": theta, "x1": rec.x0[0], "x2": rec.x0[1],
                         "r": rec.r, "lhs": rec.lhs, "osc_over_r": rec.osc_over_r})
        pooled.extend(recs)

    c1, c2 = V.fit_gradient_constants(pooled)
    held = V.holdout_satisfaction(V.fit_gradient_constants(pooled[::2]), pooled[1::2])
    print(f"pooled fit: c1={c1:.6f} c2={c2:.6f} (holdout satisfaction {held:.3f})")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
