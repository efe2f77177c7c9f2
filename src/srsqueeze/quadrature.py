"""Deterministic numerical-integration oracles.

Three geometries: 1D line integrals over q (Gauss-Hermite with affine
recentering), 2D integrals over the complex u0-plane with measure
du0 dubar0 / pi = dx dy / pi (tensor Gauss-Hermite), and Gaussian-weighted
integrals over the z-plane.  Integrands are called once per rule with the
flat array of its nodes.

Error estimates come from order doubling: the rule is evaluated at the
requested order and at twice that order, and the difference is the quoted
estimate.  Identical specs produce bit-identical reports:
node ordering is fixed and accumulation uses exact (fsum) or
extended-precision summation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import OutOfDomain, QuadratureNotConverged

# numpy's hermgauss returns all-zero weights at order 371 and NaN weights
# from 372 on, which would turn every rule silently into 0 or NaN
_MAX_ORDER = 370


class QuadKind(enum.Enum):
    GAUSS_HERMITE = "gauss-hermite"
    TENSOR_GAUSS_HERMITE_2D = "tensor-gauss-hermite-2d"


@dataclass(frozen=True)
class QuadratureSpec:
    """Rule selection: kind, base order, affine frame.

    center/scale recenter the rule on the integrand's Gaussian peak; for 1D
    rules only the first component of each pair is used.  Every rule is also
    evaluated at twice the order, so the order is at most
    _MAX_ORDER // 2 = 185.
    """

    kind: QuadKind
    order_or_nodes: int = 40
    center: tuple[float, float] = (0.0, 0.0)
    scale: tuple[float, float] = (1.0, 1.0)
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.order_or_nodes < 2:
            raise OutOfDomain(f"order_or_nodes must be >= 2, got {self.order_or_nodes}")
        if 2 * self.order_or_nodes > _MAX_ORDER:
            raise OutOfDomain(f"Gauss-Hermite order must be <= {_MAX_ORDER // 2} "
                              f"(doubled for the error estimate), "
                              f"got {self.order_or_nodes}")
        if not self.rel_tol > 0:
            raise OutOfDomain(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass(frozen=True)
class QuadratureReport:
    value: complex
    est_error: float
    nodes_used: int
    converged: bool


@lru_cache(maxsize=64)
def _gh_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and total weights w_i e^{x_i^2} for plain integrals."""
    if order > _MAX_ORDER:
        raise OutOfDomain(f"Gauss-Hermite order {order} exceeds limit {_MAX_ORDER}")
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w * np.exp(x * x)


def _fsum_complex(vals: np.ndarray) -> complex:
    # fsum rounds the exact sum once, so summing Python floats from
    # tolist() gives the same bits as numpy scalars, in half the time
    return complex(math.fsum(vals.real.tolist()),
                   math.fsum(vals.imag.tolist()))


def _sum_nodes(contribs: np.ndarray) -> np.ndarray | complex:
    """Deterministic compensated reduction over the leading (node) axis."""
    if contribs.ndim == 1:
        return _fsum_complex(contribs)
    acc = np.add.reduce(contribs.astype(np.clongdouble), axis=0)
    return np.asarray(acc, dtype=complex)


def _finish(value, est_error: float, nodes: int, rel_tol: float,
            check: bool, what: str) -> QuadratureReport:
    mag = abs(value) if np.isscalar(value) or isinstance(value, complex) \
        else float(np.max(np.abs(value)))
    converged = bool(est_error <= rel_tol * max(mag, 1e-300))
    report = QuadratureReport(value=value, est_error=est_error,
                              nodes_used=nodes, converged=converged)
    if check and not converged:
        raise QuadratureNotConverged(
            f"{what}: error estimate {est_error:.3e} exceeds "
            f"rel_tol {rel_tol:.1e} * |value| {mag:.3e}", report)
    return report


def _line_gh(f, order: int, center: float, scale: float) -> complex:
    x, tw = _gh_rule(order)
    q = center + scale * x
    vals = np.asarray(f(q), dtype=complex)
    return scale * _fsum_complex(vals * tw)


def integrate_line(f, spec: QuadratureSpec, check: bool = True) -> QuadratureReport:
    """Integral of f over the real line; f must accept an array of q values.

    Gauss-Hermite with affine recentering.  The caller asserts that f has
    Gaussian tails.
    """
    if spec.kind != QuadKind.GAUSS_HERMITE:
        raise OutOfDomain(f"unsupported line-integral kind {spec.kind}")
    n = spec.order_or_nodes
    coarse = _line_gh(f, n, spec.center[0], spec.scale[0])
    fine = _line_gh(f, 2 * n, spec.center[0], spec.scale[0])
    return _finish(fine, abs(fine - coarse), 3 * n, spec.rel_tol,
                   check, "line integral")


def _plane_nodes(order: int, spec: QuadratureSpec):
    return _frame_nodes(order, *spec.scale, *spec.center)


def _frame_nodes(order: int, sx, sy, cx: float = 0.0, cy: float = 0.0):
    """Tensor rule nodes u and total weights tw on the frame scale (sx, sy), centre (cx, cy).

    sx and sy are floats, or arrays of one scale per frame; arrays give u
    and tw a leading frame axis, and each frame's row is bit-identical to
    its own call, since every node takes the same elementwise operations.
    """
    x, twx = _gh_rule(order)
    sx, sy = (np.asarray(s, dtype=float)[..., None, None] for s in (sx, sy))
    u = (cx + sx * x[:, None]) + 1j * (cy + sy * x[None, :])
    tw = (twx[:, None] * twx[None, :]) * (sx * sy / math.pi)
    return u.reshape(*u.shape[:-2], -1), tw.reshape(*tw.shape[:-2], -1)


def _plane_gh(f, order: int, spec: QuadratureSpec):
    u, tw = _plane_nodes(order, spec)
    vals = np.asarray(f(u), dtype=complex)
    shape = (tw.size,) + (1,) * (vals.ndim - 1)
    return _sum_nodes(vals * tw.reshape(shape))


def integrate_plane(f, spec: QuadratureSpec, check: bool = True) -> QuadratureReport:
    """Integral of f(u0) with measure du0 dubar0 / pi over the complex plane.

    f maps a flat array of points to their values, stacked along the first
    axis.  Matrix-valued integrands converge elementwise.
    """
    if spec.kind != QuadKind.TENSOR_GAUSS_HERMITE_2D:
        raise OutOfDomain(f"unsupported plane-integral kind {spec.kind}")
    n = spec.order_or_nodes
    coarse = _plane_gh(f, n, spec)
    fine = _plane_gh(f, 2 * n, spec)
    diff = fine - coarse
    est = abs(diff) if isinstance(diff, complex) else float(np.max(np.abs(diff)))
    return _finish(fine, est, n * n + 4 * n * n, spec.rel_tol,
                   check, "plane integral")


def mu_gaussian(z: np.ndarray | complex, sigma: float) -> np.ndarray | complex:
    """Normalized z-plane measure density mu(z) = e^{-|z|^2/sigma^2}/sigma^2."""
    return np.exp(-np.abs(z) ** 2 / sigma**2) / sigma**2


def integrate_z(f, spec: QuadratureSpec, sigma: float = 0.5,
                check: bool = True) -> QuadratureReport:
    """Integral of mu(z) f(z) with measure dz dzbar / pi.

    f maps a flat array of z values as in integrate_plane.  mu is the
    Gaussian mu_gaussian(z, sigma), normalized so that f = 1 integrates
    to 1; that normalization is verified with the same rule first, and
    QuadratureNotConverged is raised, with check or not, if it fails.
    """
    if spec.kind != QuadKind.TENSOR_GAUSS_HERMITE_2D:
        raise OutOfDomain(f"unsupported z-integral kind {spec.kind}")
    norm = _plane_gh(lambda zs: mu_gaussian(zs, sigma), spec.order_or_nodes, spec)
    miss = abs(norm - 1.0)
    if miss > max(1e-8, 10 * spec.rel_tol):
        raise QuadratureNotConverged(
            f"measure normalization integrates to {norm}, expected 1; "
            f"widen the rule (scale {spec.scale}, order {spec.order_or_nodes})",
            QuadratureReport(norm, miss, spec.order_or_nodes ** 2, False))

    def weighted(zs):
        vals = np.asarray(f(zs), dtype=complex)
        mu = mu_gaussian(zs, sigma)
        return vals * mu.reshape((zs.size,) + (1,) * (vals.ndim - 1))

    return integrate_plane(weighted, spec, check=check)
