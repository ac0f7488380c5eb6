"""Uniformly elliptic surface-energy integrands and their graph Lagrangians.

An integrand ``F`` is a positive, one-homogeneous ``C^2`` function on
``R^d \\ {0}`` whose unit ball is uniformly convex.  Minimizing the surface
energy of a graph ``x -> (x, u(x))`` reduces to minimizing the convex bulk
Lagrangian ``f(y) = F(-y, 1)`` of the gradient, so every integrand here
exposes both the ambient calculus (``eval_F``/``grad_F``/``hess_F``) and the
pulled-back one (``eval_f``/``grad_f``/``hess_f``).  Each also takes its
points already checked and normed, by ``points`` for ``F``/``DF``/``D2F`` and
by ``lift`` for ``F``/``Df``/``D2f`` (``f`` is ``F`` on the lift), so several
quantities at the same points share one lift and one pass of norms.

Built-in families:

* ``capillary``  -- ``|z| - c * z_1`` with ``c = cos(theta)``; absorbs a
  constant contact angle against the wall ``{x_1 = 0}`` into a free-boundary
  problem.
* ``euclidean``  -- the Euclidean norm (isotropic area): the capillary form
  with ``c = 0``.
* ``ellipsoid``  -- ``sqrt(z^T A z)`` for SPD ``A``.
* ``pnorm``      -- a regularized p-norm, smoothed so it stays ``C^2`` on
  coordinate hyperplanes.

Every method takes points of any leading shape (last axis ``dim``, or
``dim - 1`` for gradients) and returns values of that leading shape; the zero
vector is rejected.  All derivative formulas are analytic.  Instances are
immutable and safe to share across threads; every method is a pure function of
its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .schema import (ConfigError, _any, _instance, _integer, _list, _named, _positive, _real,
                     _section, _variant)

__all__ = [
    "EllipticIntegrand",
    "IntegrandBounds",
    "sphere_points",
]

_GOLDEN_FRAC = (math.sqrt(5.0) - 1.0) / 2.0
# Sphere samples for kinds with no closed-form sphere range.
_SPHERE_SAMPLES = 2 ** 14


@dataclass(frozen=True)
class IntegrandBounds:
    """Sampled range of F on the unit sphere and of its tangential Hessian.

    ``f_min``/``f_max`` bound the sphere values of F (and of ``|DF|``, which
    shares the same exact range); ``hess_min``/``hess_max`` are the extreme
    Rayleigh quotients of the Hessian over directions tangent to the sphere.
    Estimates are inner approximations: more samples can only move ``f_min``
    down and ``f_max`` up, never the reverse.
    """

    f_min: float
    f_max: float
    hess_min: float
    hess_max: float

    def __post_init__(self) -> None:
        if not (0.0 < self.f_min <= self.f_max):
            raise ValueError("need 0 < f_min <= f_max")
        if not (0.0 < self.hess_min <= self.hess_max):
            raise ValueError("need 0 < hess_min <= hess_max")


def _van_der_corput(k: np.ndarray) -> np.ndarray:
    """Base-2 van der Corput sequence, vectorized over integer indices."""
    k = np.asarray(k, dtype=np.int64).copy()
    out = np.zeros(k.shape, dtype=float)
    base = 0.5
    while k.any():
        out += base * (k & 1)
        k >>= 1
        base *= 0.5
    return out


def sphere_points(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere in R^dim.

    The sequence is nested: the first ``m`` points of ``sphere_points(d, n)``
    equal ``sphere_points(d, m)`` for ``m <= n``, so sampled extrema refine
    monotonically with the sample count.  ``dim`` must be 2 or 3.
    """
    if count < 1:
        raise ValueError("count must be positive")
    k = np.arange(count)
    azimuth = 2.0 * np.pi * ((k * _GOLDEN_FRAC) % 1.0)
    if dim == 2:
        return np.stack([np.cos(azimuth), np.sin(azimuth)], axis=1)
    if dim == 3:
        z = 1.0 - 2.0 * _van_der_corput(k)
        rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=1)
    raise ValueError("sphere sampling is implemented for dim in {2, 3}")


def _as_points(z: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``z`` as float points of any leading shape (last axis ``dim``) and their norms;
    the zero vector is rejected.  A nonzero point whose squares all underflow is normed
    after dividing it by its largest entry."""
    pts = np.asarray(z, dtype=float)
    if pts.shape[-1] != dim:
        raise ValueError(f"expected last axis {dim}, got shape {pts.shape}")
    # the squares summed in axis order: np.linalg.norm(pts, axis=-1)'s bits, at a fraction
    # of its cost
    sq = pts[..., 0] * pts[..., 0]
    for k in range(1, dim):
        sq += pts[..., k] * pts[..., k]
    norms = np.sqrt(sq)
    if np.any(norms == 0.0):  # the zero vector, or squares that all underflow
        norms = np.array(norms)  # writable, 0-d for one point
        zero = norms == 0.0
        big = np.abs(pts[zero]).max(axis=-1)
        if np.any(big == 0.0):
            raise ValueError("integrand is undefined at the zero vector")
        norms[zero] = big * np.sqrt(np.sum((pts[zero] / big[:, None]) ** 2, axis=-1))
    return pts, norms


@dataclass(frozen=True, eq=False)
class EllipticIntegrand:
    """One of the built-in uniformly elliptic integrands, times a scale.

    Use the constructors :meth:`euclidean`, :meth:`capillary`,
    :meth:`ellipsoid`, :meth:`pnorm` rather than instantiating directly.
    ``scale`` multiplies all values and derivatives; ``normalized`` is a flag of
    the descriptor, carried through to ``to_descriptor``, that records whether
    ``scale`` was chosen so that the sphere minimum of F equals one.
    """

    kind: str
    dim: int
    theta: Optional[float] = None
    matrix: Optional[np.ndarray] = None
    p: Optional[float] = None
    eps: Optional[float] = None
    scale: float = 1.0
    normalized: bool = False

    # -- constructors ------------------------------------------------------

    @staticmethod
    def euclidean(dim: int = 3) -> "EllipticIntegrand":
        _check_dim(dim)
        return EllipticIntegrand(kind="euclidean", dim=dim)

    @staticmethod
    def capillary(theta: float, dim: int = 3) -> "EllipticIntegrand":
        _check_dim(dim)
        if not (0.0 < theta < math.pi):
            raise ValueError("capillary angle must lie strictly inside (0, pi)")
        return EllipticIntegrand(kind="capillary", dim=dim, theta=float(theta))

    @staticmethod
    def ellipsoid(matrix: np.ndarray) -> "EllipticIntegrand":
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("ellipsoid matrix must be square")
        _check_dim(a.shape[0])
        if not np.allclose(a, a.T, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ValueError("ellipsoid matrix must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("ellipsoid matrix must be positive definite") from exc
        a = 0.5 * (a + a.T)
        a.setflags(write=False)
        return EllipticIntegrand(kind="ellipsoid", dim=a.shape[0], matrix=a)

    @staticmethod
    def pnorm(p: float = 3.0, dim: int = 3, eps: float = 1e-2) -> "EllipticIntegrand":
        _check_dim(dim)
        if not p > 1.0:
            raise ValueError("pnorm exponent must exceed 1")
        if not eps > 0.0:
            raise ValueError("pnorm regularization must be positive")
        return EllipticIntegrand(kind="pnorm", dim=dim, p=float(p), eps=float(eps))

    # -- ambient calculus ---------------------------------------------------

    @property
    def _tilt(self) -> float:
        """``c`` of the capillary form ``|z| - c z_1``; the Euclidean norm has ``c = 0``."""
        return 0.0 if self.theta is None else math.cos(self.theta)

    def points(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``z`` (last axis = dim) as float points and their norms, the argument of ``F``,
        ``DF`` and ``D2F``; rejects zero vectors."""
        return _as_points(z, self.dim)

    def eval_F(self, z: np.ndarray) -> np.ndarray:
        """Value of F at ``z`` (last axis = dim); rejects zero vectors."""
        return self.F(self.points(z))

    def grad_F(self, z: np.ndarray) -> np.ndarray:
        """Ambient gradient of F; zero-homogeneous in ``z``."""
        return self.DF(self.points(z))

    def hess_F(self, z: np.ndarray) -> np.ndarray:
        """Ambient Hessian of F; annihilates ``z`` and scales like 1/|z|."""
        return self.D2F(self.points(z))

    def F(self, points: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``eval_F`` on ``points(z)``."""
        pts, norms = points
        if self.kind == "ellipsoid":
            # z^T A z term by term, row-major: einsum's order for a batch but not for a point
            vals = np.sqrt(sum(pts[..., i] * self.matrix[i, j] * pts[..., j]
                               for i, j in np.ndindex(self.matrix.shape)))
        elif self.kind == "pnorm":
            # the root of an array even for a point: numpy's scalar power rounds differently
            big_g = np.sum(self._pnorm_s(pts) ** (self.p / 2.0), axis=-1, keepdims=True)
            vals = (big_g ** (1.0 / self.p))[..., 0]
        else:
            vals = norms - self._tilt * pts[..., 0]
        return self.scale * vals

    def DF(self, points: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``grad_F`` on ``points(z)``."""
        return self._grad_block(points, self.dim)

    def _grad_block(self, points: tuple[np.ndarray, np.ndarray], k: int) -> np.ndarray:
        """Leading ``k`` entries of the ambient gradient at ``points``."""
        pts, norms = points
        if self.kind == "ellipsoid":
            az = pts @ self.matrix
            vals = np.sqrt(np.einsum("...i,...i->...", pts, az))
            g = az[..., :k] / vals[..., None]
        elif self.kind == "pnorm":
            *_, big_g, h = self._pnorm_terms(pts)
            g = big_g[..., None] ** (1.0 / self.p - 1.0) * h[..., :k]
        else:  # entry by entry, as _hess_block
            g = np.empty(norms.shape + (k,))
            for i in range(k):
                np.divide(pts[..., i], norms, out=g[..., i])
            g[..., 0] -= self._tilt
        return self.scale * g

    def D2F(self, points: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``hess_F`` on ``points(z)``."""
        return self._hess_block(points, self.dim)

    def _hess_block(self, points: tuple[np.ndarray, np.ndarray], k: int) -> np.ndarray:
        """Leading ``k x k`` block of the ambient Hessian at ``points``."""
        pts, norms = points
        if self.kind == "ellipsoid":
            az = pts @ self.matrix
            vals = np.sqrt(np.einsum("...i,...i->...", pts, az))
            az = az[..., :k]
            hess = self.matrix[:k, :k] / vals[..., None, None] - np.einsum(
                "...i,...j->...ij", az, az
            ) / vals[..., None, None] ** 3
        elif self.kind == "pnorm":
            hess = self._pnorm_hess(pts)[..., :k, :k]
        else:  # the capillary form: the tilt is linear
            # (delta_ij - z_i z_j / |z|^2) / |z| entry by entry: each operation then runs
            # along the points, not along an axis of length k
            unit = [pts[..., i] / norms for i in range(k)]
            hess = np.empty(norms.shape + (k, k))
            for i, j in np.ndindex(k, k):
                entry = hess[..., i, j]
                np.multiply(unit[i], unit[j], out=entry)
                np.subtract(float(i == j), entry, out=entry)
                np.divide(entry, norms, out=entry)
        hess *= self.scale
        return hess

    def _pnorm_s(self, pts: np.ndarray) -> np.ndarray:
        """``s_i = z_i^2 + eps^2 |z|^2``; the pnorm kind's F is ``(sum_i s_i^(p/2))^(1/p)``."""
        return pts * pts + (self.eps * self.eps) * np.einsum("...i,...i->...", pts, pts)[..., None]

    def _pnorm_terms(self, pts: np.ndarray) -> tuple[np.ndarray, ...]:
        """``s``, ``s^(p/2 - 1)``, its sum ``t``, ``G = sum_i s_i^(p/2)`` and ``h`` of the pnorm
        kind, whose gradient is ``G^(1/p - 1) h``."""
        e2 = self.eps * self.eps
        s = self._pnorm_s(pts)
        sp1 = s ** (self.p / 2.0 - 1.0)
        t = np.sum(sp1, axis=-1)
        return s, sp1, t, np.sum(s ** (self.p / 2.0), axis=-1), pts * (sp1 + e2 * t[..., None])

    def _pnorm_hess(self, pts: np.ndarray) -> np.ndarray:
        p, e2 = self.p, self.eps * self.eps
        s, sp1, t, big_g, h = self._pnorm_terms(pts)
        sp2 = s ** (p / 2.0 - 2.0)
        u = np.sum(sp2, axis=-1)
        eye = np.eye(self.dim)
        zz = np.einsum("...i,...j->...ij", pts, pts)
        k = np.zeros(pts.shape[:-1] + (self.dim, self.dim))
        k[..., np.arange(self.dim), np.arange(self.dim)] = sp1 + e2 * t[..., None]
        k += (p - 2.0) * (
            eye * (pts * pts * sp2)[..., None, :]
            + e2 * zz * (sp2[..., :, None] + sp2[..., None, :])
            + (e2 * e2) * zz * u[..., None, None]
        )
        return (1.0 - p) * big_g[..., None, None] ** (1.0 / p - 2.0) * np.einsum(
            "...i,...j->...ij", h, h
        ) + big_g[..., None, None] ** (1.0 / p - 1.0) * k

    # -- graph Lagrangian f(y) = F(-y, 1) ------------------------------------

    def lift(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The points ``(-y, 1)`` of graph gradients ``y`` and their norms: the argument of
        ``F`` (``f`` there), ``Df`` and ``D2f``, so one lift serves all three."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.dim - 1:
            raise ValueError(f"expected gradient dimension {self.dim - 1}")
        z = np.empty(y.shape[:-1] + (self.dim,))
        for i in range(self.dim - 1):  # entry by entry, as _hess_block
            np.negative(y[..., i], out=z[..., i])
        z[..., -1] = 1.0
        return self.points(z)

    def eval_f(self, y: np.ndarray) -> np.ndarray:
        """Graph Lagrangian ``f(y) = F(-y, 1)``."""
        return self.F(self.lift(y))

    def grad_f(self, y: np.ndarray) -> np.ndarray:
        """Gradient of the graph Lagrangian: ``Df(y)_i = -d_i F(-y, 1)``."""
        return self.Df(self.lift(y))

    def hess_f(self, y: np.ndarray) -> np.ndarray:
        """Hessian of the graph Lagrangian (SPD for bounded gradients)."""
        return self.D2f(self.lift(y))

    def Df(self, lifted: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``grad_f`` on ``lift(y)``."""
        return -self._grad_block(lifted, self.dim - 1)

    def D2f(self, lifted: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """``hess_f`` on ``lift(y)``."""
        return self._hess_block(lifted, self.dim - 1)

    # -- sphere bounds -------------------------------------------------------

    def estimate_bounds(self, n_samples: int) -> IntegrandBounds:
        """Sampled sphere range of F and of its tangential Hessian.

        Both the values of F and the norms of its gradient are folded into
        the range (their exact sphere ranges coincide, and this keeps the
        reported interval consistent with every sampled point).
        """
        if n_samples < 100:
            raise ValueError("need at least 100 sphere samples")
        pts = sphere_points(self.dim, n_samples)
        points = self.points(pts)
        vals = self.F(points)
        gnorm = np.linalg.norm(self.DF(points), axis=-1)
        f_min = float(min(vals.min(), gnorm.min()))
        f_max = float(max(vals.max(), gnorm.max()))
        hess = self.D2F(points)
        if self.dim == 2:
            tang = np.stack([-pts[:, 1], pts[:, 0]], axis=1)
            rq = np.einsum("ki,kij,kj->k", tang, hess, tang)
            hess_min, hess_max = float(rq.min()), float(rq.max())
        else:
            t1 = np.cross(pts, np.where(np.abs(pts[:, :1]) < 0.9, [[1.0, 0, 0]], [[0, 1.0, 0]]))
            t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
            t2 = np.cross(pts, t1)
            a11 = np.einsum("ki,kij,kj->k", t1, hess, t1)
            a22 = np.einsum("ki,kij,kj->k", t2, hess, t2)
            a12 = np.einsum("ki,kij,kj->k", t1, hess, t2)
            half = 0.5 * (a11 + a22)
            disc = np.sqrt(np.maximum(0.0, (0.5 * (a11 - a22)) ** 2 + a12 * a12))
            hess_min, hess_max = float((half - disc).min()), float((half + disc).max())
        return IntegrandBounds(f_min, f_max, hess_min, hess_max)

    def analytic_sphere_range(self) -> Optional[tuple[float, float]]:
        """Exact sphere range of F when it has a closed form, else None."""
        if self.kind == "ellipsoid":
            eig = np.linalg.eigvalsh(self.matrix)
            lo, hi = math.sqrt(float(eig[0])), math.sqrt(float(eig[-1]))
        elif self.kind == "pnorm":
            return None
        else:
            c = abs(self._tilt)
            lo, hi = 1.0 - c, 1.0 + c
        return self.scale * lo, self.scale * hi

    def sphere_range(self) -> tuple[float, float]:
        rng = self.analytic_sphere_range()
        if rng is not None:
            return rng
        b = self.estimate_bounds(_SPHERE_SAMPLES)
        return b.f_min, b.f_max

    def flat_slope(self) -> float:
        """Wall-compatible affine slope: the a1 with d/da1 f(a1, 0, ...) = 0.

        The graph a1 * x1 then satisfies both the bulk equation and the
        natural wall condition exactly (for the capillary family this is
        -cot(theta)).  Found by bisection on [-1e3, 1e3] of the strictly
        increasing derivative of the convex profile.
        """
        nres = self.dim - 1

        def dfda(a: float) -> float:
            y = np.zeros(nres)
            y[0] = a
            return float(self.grad_f(y)[0])

        lo, hi = -1e3, 1e3
        if dfda(lo) > 0.0 or dfda(hi) < 0.0:
            raise ValueError("flat-slope bracket does not straddle the minimizer")
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):  # the rounding floor: the bracket stays put from here on
                break
            if dfda(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- JSON descriptor ------------------------------------------------------

    def to_descriptor(self) -> dict:
        out: dict = {"kind": self.kind, "dim": self.dim}
        for key in _KINDS[self.kind][1]:  # the kind's own parameters
            value = getattr(self, key)
            out[key] = value.ravel().tolist() if isinstance(value, np.ndarray) else value
        if self.scale != 1.0:
            out["scale"] = self.scale
        if self.normalized:
            out["normalized"] = True
        return out

    @staticmethod
    def from_descriptor(desc: dict, dim: Optional[int] = None) -> "EllipticIntegrand":
        """Parse a JSON descriptor; a malformed one, one whose dim is not ``dim`` (if given) or
        one not uniformly elliptic as sampled (checked last) is a ConfigError."""
        kind, (make, keys, required) = _variant(desc, "kind", _KINDS, "integrand")
        where = f"integrand {kind!r}"
        integrand = _section(desc, {**_SHARED_KEYS, **keys}, where, required=required,
                             make=partial(_from_keys, make))
        if dim not in (None, integrand.dim):
            raise ConfigError(f"integrand dim {integrand.dim} does not match domain n+1={dim}")
        with _named(f"{where}: not uniformly elliptic:"):
            integrand.sphere_range()  # samples F and its Hessian where no closed form exists
        return integrand


def _from_keys(make, kind: str, **params) -> EllipticIntegrand:
    shared = {key: params.pop(key) for key in ("scale", "normalized") if key in params}
    return replace(make(**params), **shared)


def _ellipsoid(matrix: np.ndarray, dim: int = 3) -> EllipticIntegrand:
    """An ellipsoid from its rows, or from its dim * dim entries row-major."""
    return EllipticIntegrand.ellipsoid(matrix.reshape(dim, dim) if matrix.ndim == 1 else matrix)


def _matrix(value, n=None) -> np.ndarray:
    nested = isinstance(value, list) and any(isinstance(row, list) for row in value)
    return np.array(_list(value, n, item=_list if nested else _real))


# descriptor keys of every kind; then kind -> (constructor, the parsers of its own keys,
# the keys it requires)
_SHARED_KEYS = {"kind": _any, "dim": _integer, "scale": _positive,
                "normalized": partial(_instance, of=bool)}
_KINDS = {
    "euclidean": (EllipticIntegrand.euclidean, {}, ()),
    "capillary": (EllipticIntegrand.capillary, {"theta": _real}, ("theta",)),
    "ellipsoid": (_ellipsoid, {"matrix": _matrix}, ("matrix",)),
    "pnorm": (EllipticIntegrand.pnorm, {"p": _real, "eps": _real}, ()),
}


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError("ambient dimension must be at least 2")
