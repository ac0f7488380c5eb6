"""Named boundary-data functions evaluated from small JSON-able specs:

  affine        <a, x> + b
  sine          amplitude * sin(kx x1 + phase) * cos(ky x2) ... cos(ky xn)
  bump          height * cos(pi d / (2 radius))^2 at a distance d < radius from center
  table         the value of the row [coords..., value] nearest to x
  sum           the sum of its terms
  flat_profile  the integrand's wall-compatible affine profile a1 * x1 + b

``parse_data_spec`` checks a spec against its type's keys and fills in the
defaults; a scenario's loader and ``evaluate_data_spec`` share it, and the
loader refuses data whose ``data_bound`` on the box overflows a float.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from .schema import ConfigError, _any, _list, _named, _point, _positive, _real, _section, _variant

__all__ = ["data_bound", "evaluate_data_spec", "parse_data_spec"]


def _nonempty(value, n) -> list:
    if not isinstance(value, list) or not value:
        raise ValueError(f"must be a nonempty list, got {value!r}")
    return value


_SPECS = {
    "affine": {"a": _point, "b": _real},
    "sine": {"amplitude": _real, "kx": _real, "ky": _real, "phase": _real},
    "bump": {"center": _point, "radius": _positive, "height": _real},
    "table": {"points": lambda value, n: _list(_nonempty(value, n), n,
                                               item=partial(_list, length=n + 1))},
    "sum": {"terms": _nonempty},
    "flat_profile": {"b": _real},
}


def _defaults(n: int) -> dict:
    return {"affine": {"a": [0.0] * n, "b": 0.0},
            "sine": {"amplitude": 1.0, "kx": 1.0, "ky": 0.0, "phase": 0.0},
            "bump": {"center": [0.0] * n, "radius": 1.0, "height": 1.0},
            "table": {}, "sum": {}, "flat_profile": {"b": 0.0}}


def parse_data_spec(spec, n: int, flat_slope: Optional[Callable[[], float]] = None) -> dict:
    """``spec`` in n dimensions, parsed, with its defaults filled in and each ``flat_profile``
    made affine with slope ``flat_slope()`` along x1; a malformed spec is a ConfigError."""
    kind, table = _variant(spec, "type", _SPECS, "dirichlet")
    where = f"dirichlet {kind!r}"
    defaults = _defaults(n)[kind]
    values = {**defaults, **_section(spec, {"type": _any, **table}, where, n,
                                     required=table.keys() - defaults.keys())}
    if kind == "sum":
        values["terms"] = [parse_data_spec(term, n, flat_slope) for term in values["terms"]]
    elif kind == "flat_profile":
        if flat_slope is None:
            raise ConfigError(f"{where} needs an integrand")
        with _named("dirichlet:"):
            values = {"type": "affine", "a": [flat_slope()] + [0.0] * (n - 1), "b": values["b"]}
    return values


def data_bound(spec: dict, half) -> float:
    """An upper bound of |data| on the box ``{x_1 >= 0, |x_k| <= half[k]}`` of a parsed spec;
    infinite where the bound overflows a float."""
    kind = spec["type"]
    if kind == "affine":
        return abs(spec["b"]) + sum(abs(a) * h for a, h in zip(spec["a"], half))
    if kind == "sum":
        return sum(data_bound(term, half) for term in spec["terms"])
    if kind == "table":
        return max(abs(row[-1]) for row in spec["points"])
    return abs(spec["amplitude" if kind == "sine" else "height"])


def evaluate_data_spec(spec: dict, points: np.ndarray) -> np.ndarray:
    """Evaluate a Dirichlet-data spec at points (npts, n).  The spec is parsed as a scenario's,
    so it must be JSON-typed (lists, ints, floats; no numpy); a malformed one is a ConfigError."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2d array")
    n = pts.shape[1]
    spec = parse_data_spec(spec, n)
    kind = spec["type"]
    if kind == "affine":
        return pts @ np.asarray(spec["a"]) + spec["b"]
    if kind == "sine":
        out = spec["amplitude"] * np.sin(spec["kx"] * pts[:, 0] + spec["phase"])
        for k in range(1, n):  # every transverse axis
            out = out * np.cos(spec["ky"] * pts[:, k])
        return out
    if kind == "bump":
        d = np.linalg.norm(pts - np.asarray(spec["center"]), axis=1)
        out = np.zeros(pts.shape[0])
        inside = d < spec["radius"]
        out[inside] = spec["height"] * np.cos(0.5 * np.pi * d[inside] / spec["radius"]) ** 2
        return out
    if kind == "table":
        rows = np.asarray(spec["points"])
        locs, vals = rows[:, :n], rows[:, n]
        d2 = ((pts[:, None, :] - locs[None, :, :]) ** 2).sum(axis=2)
        return vals[np.argmin(d2, axis=1)]
    out = np.zeros(pts.shape[0])
    for term in spec["terms"]:
        out = out + evaluate_data_spec(term, pts)
    return out
