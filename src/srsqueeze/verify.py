"""Identity-verification suite: every closed form against its oracle.

Each registered check computes a worst-case deviation ("measured") over a
parameter grid and compares it to a fixed numeric bound.  Checks never
abort the suite: exceptions become failed results.  The suite also carries
mutation canaries, deliberately corrupted formulas that a healthy oracle
network must flag; a canary passes when the corruption is detected.

The standard grid covers uncorrelated (theta = 0, pi) and correlated
squeeze phases at small and strong squeezing, with displacements up to
|u0| = 2.

This module holds the registry, the checks and the reports.  The oracles
the checks share (Fock overlaps, the line rule for <psi2|psi1>, the exact
frame rule for plane sums) live in oracles; resolution_of_identity and
mu_weighted_identity return single results for the CLI and the benchmark.
"""

from __future__ import annotations

import cmath
import fnmatch
import functools
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import bch, fock, kernels, oracles, wavefn
from . import quadrature as quadmod
from .params import (
    Constants,
    Labels,
    OutOfDomain,
    derived_angles,
    labels_to_moments,
    lambda0,
    moments_to_labels,
    squeezed_frame_label,
)

STANDARD_U0 = (0j, 1 + 0j, 1 + 1j, 2j, -1.5 + 0.5j)
STANDARD_R = (0.0, 0.25, 0.7, 1.2)
STANDARD_THETA = (0.0, math.pi / 3, math.pi / 2, math.pi)

DEFAULT_BOUNDS = {
    "params.roundtrip": 1e-12,
    "params.saturation_identity": 1e-12,
    "params.bound_band": 1e-12,
    "params.rho_identity": 1e-12,
    "params.angle_identity": 1e-12,
    "params.theta_branch": 1e-12,
    "params.lambda0_forms": 1e-12,
    "bch.f_symmetry": 1e-12,
    "bch.f_matrix_log": 1e-10,
    "bch.phi_psi_inverse": 1e-12,
    "bch.disentangle_gamma": 1e-14,
    "bch.su11_defining_rep": 1e-12,
    "fock.ladder_commutator": 1e-12,
    "fock.heisenberg_commutator": 1e-12,
    "fock.bogoliubov_closure": 1e-12,
    "fock.coherent_column": 1e-13,
    "fock.displacement_vs_exp": 1e-10,
    "fock.unitarity": 1e-10,
    "fock.squeeze_factored_vs_exp": 1e-9,
    "fock.squeeze_dual_order": 1e-9,
    "fock.squeeze_truncation_decay": 0.0,
    "fock.annihilation": 1e-9,
    "fock.displaced_coherence": 1e-8,
    "fock.state_recurrence_vs_dense": 1e-13,
    "fock.operator_shift": 1e-10,
    "fock.invariant_combination": 1e-10,
    "verify.defining_residual": 1e-7,
    "verify.nonsaturating_probe": 1.0,
    "verify.srur_positivity": 1e-10,
    "verify.srur_saturating": 1e-8,
    "verify.srur_fock_one": 1e-10,
    "verify.moment_agreement": 1e-10,
    "verify.resolution_identity": 1e-5,
    "verify.mu_weighted_identity": 1e-4,
    "verify.convergence_monotonic": 1e-12,
    "wavefn.normalization": 1e-10,
    "wavefn.phase_anchor": 1e-10,
    "wavefn.three_forms": 1e-12,
    "wavefn.fock_synthesis": 1.0,
    "wavefn.log_consistency": 1e-12,
    "kernels.hermitian_symmetry": 1e-13,
    "kernels.cauchy_schwarz": 1e-12,
    "kernels.coherent_special": 1e-12,
    "kernels.squeezed_special": 1e-12,
    "kernels.oracle_triangle": 1e-8,
    "kernels.matrix_element_vs_fock": 1e-10,
    "kernels.displacement_composition": 1e-10,
    "kernels.compose_coherent": 1e-8,
    "kernels.compose_squeezed": 1e-6,
    "kernels.diagonal_kernel_reconstruction": 1e-8,
    "kernels.variable_change": 1e-12,
    "kernels.jacobian_unit": 1e-14,
    "quadrature.determinism": 0.0,
    "quadrature.polynomial_exactness": 1e-13,
    "quadrature.plane_exactness": 1e-13,
    "canary.g2_sign_flip": 1.0,
    "canary.thetabar_branch": 1.0,
    "canary.missing_center_phase": 1.0,
    "canary.swapped_rho": 1.0,
    "canary.dropped_prefactor": 1.0,
    "canary.unnormalized_vacuum": 1.0,
}

_CANARY_THRESHOLD = 1e-3

# the Philox seed of the random states and polynomials some checks draw
_SEED = 20240817

# width of the Gaussian z-measure in mu_weighted_identity
_MU_SIGMA = 0.5

# the params.* checks' own arithmetic leaves the float range past these
# hbar and ell0 (about 1e154 and 1e-154), so VerifyConfig refuses them
# rather than let them read as failed checks
_CONSTANT_RANGE = (1e-150, 1e150)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    params: dict
    measured: float
    bound: float
    passed: bool
    runtime_ms: float


@dataclass
class VerifyConfig:
    """Knobs for the suite; bounds override DEFAULT_BOUNDS per result id."""

    constants: Constants = field(default_factory=Constants)
    fock_dim: int = 128
    scan_dim: int = 256
    dim_check: int = 16
    mu_outer_order: int = 10
    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        lo, hi = _CONSTANT_RANGE
        for name in ("hbar", "ell0"):
            val = getattr(self.constants, name)
            if not lo <= val <= hi:
                raise OutOfDomain(f"verify needs {name} in [{lo:g}, {hi:g}], "
                                  f"got {val!r}")
        for rid, val in self.bounds.items():
            if rid not in DEFAULT_BOUNDS or not 0 <= val < math.inf:
                raise OutOfDomain(f"a bound needs a result id and a finite "
                                  f"value >= 0, got {rid}={val!r}")

    def bound(self, check_id: str) -> float:
        return float(self.bounds.get(check_id, DEFAULT_BOUNDS[check_id]))


def standard_labels():
    """The standard verification grid as Labels objects."""
    out = []
    for u0 in STANDARD_U0:
        for r in STANDARD_R:
            for theta in STANDARD_THETA:
                if r == 0 and theta != 0.0:
                    continue
                out.append(Labels(u0=u0, r=r, theta=theta))
    return out


_REGISTRY: list = []
# the result ids each registered check reports, keyed by its check_id
_RESULT_IDS: dict = {}


def register(check_id: str, *result_ids: str):
    """Register a check under check_id, reporting result_ids (default: check_id)."""
    def deco(fn):
        _REGISTRY.append((check_id, fn))
        _RESULT_IDS[check_id] = result_ids or (check_id,)
        return fn

    return deco


def _result(cfg, check_id, measured, params=None):
    b = cfg.bound(check_id)
    return CheckResult(check_id=check_id, params=params or {},
                       measured=float(measured), bound=float(b),
                       passed=bool(measured <= b), runtime_ms=0.0)


def _worst(cfg, check_id, devs, params=None):
    """The check's result at the largest deviation of (deviation, where) pairs.

    A deviation is a float or an array whose np.max counts.  A NaN counts
    as the largest and ends the scan.  Ties keep the first point, measured
    is floored at 0, and params gain worst_at = repr(where) of the largest
    deviation, negative or not.
    """
    top, where = -math.inf, None
    for dev, at in devs:
        d = float(np.max(dev))
        del dev  # free an array deviation before the next one is built
        if math.isnan(d):
            top, where = d, at
            break
        if d > top:
            top, where = d, at
    return _result(cfg, check_id, 0.0 if top < 0 else top,
                   {"worst_at": repr(where), **(params or {})})


def register_grid(check_id: str, **params):
    """Register a generator of (deviation, where) pairs, reduced by _worst.

    The registered check, which the decorator returns, yields the one
    result _worst(cfg, check_id, gen(cfg), params).
    """
    def deco(gen):
        @functools.wraps(gen)
        def check(cfg):
            return [_worst(cfg, check_id, gen(cfg), params)]

        return register(check_id)(check)

    return deco


def _canary(cfg, check_id, detected_difference, params=None):
    """Canary convention: measured = threshold/difference, pass iff <= 1."""
    measured = _CANARY_THRESHOLD / max(float(detected_difference), 1e-300)
    p = dict(params or {})
    p["detected_difference"] = float(detected_difference)
    p["detection_threshold"] = _CANARY_THRESHOLD
    return _result(cfg, check_id, measured, p)


def _angle_dist(a: float, b: float) -> float:
    return abs(cmath.exp(1j * a) - cmath.exp(1j * b))


# ----------------------------------------------------------------- params


@register_grid("params.roundtrip")
def _check_roundtrip(cfg):
    c = cfg.constants
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        back = moments_to_labels(m, c)
        yield (abs(back.u0 - lab.u0), abs(back.r - lab.r),
               _angle_dist(back.theta, lab.theta) if lab.r > 0 else 0.0), lab


@register_grid("params.saturation_identity")
def _check_saturation(cfg):
    c = cfg.constants
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        target = 0.25 * c.hbar**2 * (
            1.0 + math.sin(lab.theta) ** 2 * math.sinh(2 * lab.r) ** 2)
        yield abs(m.dq**2 * m.dp**2 - target) / target, lab


@register_grid("params.bound_band")
def _check_band(cfg):
    c = cfg.constants
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        lo, hi = math.exp(-lab.r) / math.sqrt(2), math.exp(lab.r) / math.sqrt(2)
        for val in (m.dq / c.ell0, c.ell0 * m.dp / c.hbar):
            yield (lo - val, val - hi), lab


@register_grid("params.rho_identity")
def _check_rho(cfg):
    c = cfg.constants
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        ang = derived_angles(lab, m, c)
        yield abs(ang.rho_plus**2 - ang.rho_minus**2 - 1.0), lab


@register_grid("params.angle_identity")
def _check_angle_identity(cfg):
    c = cfg.constants
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        ang = derived_angles(lab, m, c)
        ch2 = math.cosh(2 * lab.r)
        sh2 = math.sinh(2 * lab.r)
        rhs = 1.0 / math.sqrt(ch2**2 - (math.cos(lab.theta) * sh2) ** 2)
        lhs = math.cos(ang.thetabar_plus - ang.thetabar_minus)
        yield abs(lhs - rhs), lab


@register_grid("params.theta_branch")
def _check_theta_branch(cfg):
    # e^{i theta} = -e^{i(theta_minus - theta_plus)}
    c = cfg.constants
    for lab in standard_labels():
        if lab.r == 0:
            continue
        m = labels_to_moments(lab, c)
        ang = derived_angles(lab, m, c)
        lhs = cmath.exp(1j * lab.theta)
        rhs = -cmath.exp(1j * (ang.theta_minus - ang.theta_plus))
        yield abs(lhs - rhs), lab


@register_grid("params.lambda0_forms")
def _check_lambda0(cfg):
    c = cfg.constants
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        lam = lambda0(m, c)
        phi = math.atan(m.corr / c.hbar)
        alt = -1j * (m.dq / m.dp) * cmath.exp(1j * phi)
        yield abs(lam - alt) / abs(lam), lab


# -------------------------------------------------------------------- bch


@register_grid("bch.f_symmetry")
def _check_f_symmetry(cfg):
    pts = [-2.0, -0.7, 0.0, 1.3, 2.0, -2 + 2j, 2 + 2j, -2 - 2j, 0.5 - 1j]
    for u in pts:
        for v in pts:
            yield abs(bch.f_uv(u, v) - bch.f_uv(v, u)), (u, v)


@register_grid("bch.f_matrix_log")
def _check_f_matrix_log(cfg):
    """e^A e^B = exp(A + B + f(u,v) [A,B]) for small 2x2 / 3x3 pairs.

    This is log(e^A e^B) = A + B + f(u,v) [A,B] in exponential form: every
    pair is small, and near I the exponential is one to one.
    """
    expm = oracles._expm
    k0 = np.diag([0.5, -0.5]).astype(complex)
    kp = np.array([[0, 1], [0, 0]], dtype=complex)
    km = np.array([[0, 0], [-1, 0]], dtype=complex)
    cases = []
    # [a kp, g k0] = -g (a kp): u = -g, v = 0; [g k0, a km] = -g (a km)
    for a, g in ((0.3, 0.4), (0.2j, -0.35), (0.25 + 0.1j, 0.3)):
        cases.append((a * kp, g * k0, -g, 0.0))
        cases.append((g * k0, a * km, 0.0, -g))
    # log-split middle factor: both u and v nonzero, c = 0
    for alpha in (0.3, 0.25j, 0.2 + 0.2j):
        aa = abs(alpha)
        for s in (1.0, -1.0):
            gs = math.log1p(s * aa)
            gms = math.log1p(-s * aa)
            at = (s / aa) * gs * alpha * kp + gs * k0
            bt = (s / aa) * gms * np.conj(alpha) * km + gms * k0
            cases.append((at, bt, -gms, -gs))
    # central commutator: 3x3 nilpotent pair, u = v = 0, f = 1/2
    e12 = np.zeros((3, 3), complex); e12[0, 1] = 1
    e23 = np.zeros((3, 3), complex); e23[1, 2] = 1
    cases.append((0.4 * e12, 0.3 * e23, 0.0, 0.0))
    for amat, bmat, u, v in cases:
        lhs = expm(amat) @ expm(bmat)
        comm = amat @ bmat - bmat @ amat
        rhs = expm(amat + bmat + bch.f_uv(u, v) * comm)
        yield np.abs(lhs - rhs), (u, v)


@register_grid("bch.phi_psi_inverse")
def _check_phi_psi(cfg):
    pts = [0.1, 0.5, 1.0, 2.5, math.e, 0.5 + 1j, 2 - 1j, 1e-3 + 1e-4j, 1 + 1e-9]
    for x in pts:
        yield abs(bch.phi(-cmath.log(x)) * bch.psi(x) - 1.0), x


@register_grid("bch.disentangle_gamma")
def _check_gamma(cfg):
    for r in (0.0, 0.25, 0.7, 1.2, 2.0):
        for th in STANDARD_THETA:
            z = r * cmath.exp(1j * th)
            d = bch.disentangle_squeeze(z)
            yield abs(d.gamma - math.log1p(-abs(d.alpha) ** 2)), z


@register_grid("bch.su11_defining_rep")
def _check_su11_rep(cfg):
    """Both factor orders against exp(z K+ - conj(z) K-) in the 2x2 rep."""
    expm = oracles._expm
    k0 = np.diag([0.5, -0.5]).astype(complex)
    kp = np.array([[0, 1], [0, 0]], dtype=complex)
    km = np.array([[0, 0], [-1, 0]], dtype=complex)
    for r in (0.25, 0.7, 1.0, 1.2):
        for th in STANDARD_THETA:
            z = r * cmath.exp(1j * th)
            d = bch.disentangle_squeeze(z)
            target = expm(z * kp - np.conj(z) * km)
            fwd = expm(d.alpha * kp) @ expm(d.gamma * k0) \
                @ expm(-np.conj(d.alpha) * km)
            rev = expm(-np.conj(d.alpha) * km) @ expm(-d.gamma * k0) \
                @ expm(d.alpha * kp)
            yield np.abs(fwd - target), z
            yield np.abs(rev - target), z


# ------------------------------------------------------------------- fock


@register("fock.ladder_commutator")
def _check_ladder(cfg):
    n = cfg.fock_dim
    a, adag = fock.ladder(n)
    comm = a @ adag - adag @ a
    dev = float(np.max(np.abs(comm[:n - 1, :n - 1] - np.eye(n - 1))))
    return [_result(cfg, "fock.ladder_commutator", dev)]


@register("fock.heisenberg_commutator")
def _check_heisenberg(cfg):
    c, n = cfg.constants, cfg.fock_dim
    q = fock.position(n, c)
    p = fock.momentum(n, c)
    comm = q @ p - p @ q
    dev = float(np.max(np.abs(comm[:n - 1, :n - 1]
                              - 1j * c.hbar * np.eye(n - 1))))
    return [_result(cfg, "fock.heisenberg_commutator", dev)]


def _built_once(build, keys, dim: int) -> dict:
    """build(key, dim) for each distinct key, by key: one build per operator."""
    return {key: build(key, dim) for key in dict.fromkeys(keys)}


def _adjoint_commutator(az: np.ndarray) -> np.ndarray:
    """[az, az^dag], from the parity blocks of az when it has only those.

    az = a(z) couples only levels of opposite parity, so with
    E = az[0::2, 1::2] and O = az[1::2, 0::2] the commutator's even block
    is E E^dag - O^dag O and its odd block O O^dag - E^dag E, a quarter of
    the multiply-adds of the dense products.  Any entry of az between
    levels of equal parity, a NaN included, keeps the dense products.
    """
    halves = fock._parity_blocks(az, opposite=True)
    if halves is None:
        return az @ az.conj().T - az.conj().T @ az
    e, o = halves
    comm = np.zeros_like(az)
    comm[0::2, 0::2] = e @ e.conj().T - o.conj().T @ o
    comm[1::2, 1::2] = o @ o.conj().T - e.conj().T @ e
    return comm


@register_grid("fock.bogoliubov_closure")
def _check_bogoliubov(cfg):
    n = cfg.fock_dim
    zs = dict.fromkeys(lab.z for lab in standard_labels())
    azs = _built_once(fock.squeezed_annihilator, zs, n)
    for z in zs:
        comm = _adjoint_commutator(azs[z])
        yield np.abs(comm[:n - 2, :n - 2] - np.eye(n - 2)), z


@register_grid("fock.coherent_column")
def _check_coherent_column(cfg):
    n = cfg.fock_dim
    for u0 in STANDARD_U0:
        col = fock.displacement(u0, n, 1)[:, 0]
        if u0 == 0:
            ref = np.zeros(n, complex)
            ref[0] = 1.0
        else:
            k = np.arange(n)
            ref = np.exp(-0.5 * abs(u0) ** 2 + k * np.log(complex(u0))
                         - 0.5 * fock._lgfact(n - 1))
        yield np.abs(col - ref), u0


@register_grid("fock.displacement_vs_exp")
def _check_displacement_vs_exp(cfg):
    # displacement is truncation-exact, so both sides are built at the
    # block they compare
    b = cfg.fock_dim // 2
    for u0 in STANDARD_U0:
        diff = fock.displacement(u0, b) - fock.displacement_exp(u0, b)
        yield fock.top_block_norm(diff, b), u0


@register_grid("fock.unitarity")
def _check_unitarity(cfg):
    """Isometry on blocks whose columns have converged inside the box."""
    n = cfg.fock_dim
    k = n // 4
    for u0 in STANDARD_U0:
        d = fock.displacement(u0, n, k)
        yield np.abs(d.conj().T @ d - np.eye(k)), ("displacement", u0)
    for r in (0.25, 0.7):
        z = r * cmath.exp(1j * math.pi / 3)
        # squeezing |k> spreads to ~ k e^{2r}; keep columns well inside
        k = max(2, int(n / (2 * math.exp(2 * r))))
        s = fock.squeeze_factored(z, n, k)
        yield np.abs(s.conj().T @ s - np.eye(k)), ("squeeze", z)


@register("fock.squeeze_factored_vs_exp")
def _check_squeeze_vs_exp(cfg):
    """Factored squeeze against the exponential on the upper-left N/2 block.

    The normal-order product is truncation-exact, so both sides are built
    at the block size.  The exponential is diagonalized once per r; each
    theta follows from the exact number rotation
    S(r e^{i theta}) = e^{i theta N/2} S(r) e^{-i theta N/2}.
    """
    b = cfg.fock_dim // 2
    levels = np.arange(b)

    def devs():
        for r in (0.25, 0.7, 1.0):
            base = fock.squeeze_exp(r, b)
            for th in (0.0, math.pi / 3, math.pi):
                z = r * cmath.exp(1j * th)
                rot = np.exp(0.5j * th * levels)
                exact = (rot[:, None] * base) * rot.conj()
                yield fock.top_block_norm(fock.squeeze_factored(z, b) - exact,
                                          b), z

    return [_worst(cfg, "fock.squeeze_factored_vs_exp", devs(), {"block": b})]


@register_grid("fock.squeeze_dual_order")
def _check_squeeze_dual(cfg):
    """Reversed factor order in Fock space, inside its convergence region.

    The anti-normal factor order is an asymptotic rearrangement on the
    number basis: its entry sums only settle within the truncation for
    small r and low levels (the leading magnitudes grow like e^{c(r) n}
    before the alternating tail takes over).  The Fock comparison therefore
    stays at r <= 0.4 on a 16x16 block; the identity for every r is
    checked exactly in the defining representation
    (bch.su11_defining_rep).  The reversed product is not truncation-exact,
    so its block sums over the full dimension, from the first 16 columns
    of each factor; the exponential is built only at 16.
    """
    n = cfg.fock_dim
    block = 16
    for r in (0.2, 0.3, 0.4):
        for th in (0.0, math.pi / 3):
            z = r * cmath.exp(1j * th)
            diff = fock.squeeze_factored_reversed(z, n, block) \
                - fock.squeeze_exp(z, block)
            yield fock.top_block_norm(diff, block), z


@register("fock.squeeze_truncation_decay")
def _check_squeeze_decay(cfg):
    """Same-dimension Taylor exponential vs factored on a fixed block.

    The factored entries are truncation-exact, so this difference is the
    truncation error of exponentiating the cut generator; on a fixed
    24x24 block it must fall as N grows.  Being exact, the factored block
    is built once per r, at the block size.
    """
    block = 24
    errs = {}
    for r in (0.4, 0.6):
        z = r * cmath.exp(1j * math.pi / 3)
        exact = fock.squeeze_factored(z, block)
        errs[r] = []
        for n in (48, 96):
            a, adag = fock.ladder(n)
            gen = 0.5 * (z * adag @ adag - np.conj(z) * a @ a)
            diff = exact - oracles._expm(gen)[:block, :block]
            errs[r].append(fock.top_block_norm(diff, block))
    return [_worst(cfg, "fock.squeeze_truncation_decay",
                   ((e96 - e48, r) for r, (e48, e96) in errs.items()),
                   {"errors_at_N48_N96": {f"r={r}": e for r, e in errs.items()}})]


@register_grid("fock.annihilation")
def _check_annihilation(cfg):
    n = cfg.fock_dim
    zs = dict.fromkeys(lab.z for lab in standard_labels())
    azs = _built_once(fock.squeezed_annihilator, zs, n)
    for z in zs:
        res = azs[z] @ fock._squeezed_vacuum_column(z, n)
        yield float(np.linalg.norm(res[:n // 2])), z


@register_grid("fock.displaced_coherence")
def _check_displaced_coherence(cfg):
    n = cfg.fock_dim
    labs = standard_labels()
    azs = _built_once(fock.squeezed_annihilator, (lab.z for lab in labs), n)
    for lab, amps in zip(labs, oracles._state_rows(labs, n)):
        az = azs[lab.z]
        u0z = squeezed_frame_label(lab.u0, lab.z)
        res = az @ amps - u0z * amps
        yield float(np.linalg.norm(res[:n // 2])), lab


@register_grid("fock.state_recurrence_vs_dense", fock_dim=128)
def _check_state_recurrence(cfg):
    """Recurrence amplitudes against the dense product D(u0) S(z)|0>.

    The dense product is truncated at N, so only the upper half block is
    compared.  Corner labels only: u0 = 0 and the largest |u0| (2j), each
    at r = 0 and at the largest r with every theta.
    """
    n = 128
    labs = [lab for lab in standard_labels()
            if lab.u0 in (0j, 2j) and lab.r in (0.0, 1.2)]
    ds = _built_once(fock.displacement, (lab.u0 for lab in labs), n)
    for lab, amps in zip(labs, oracles._state_rows(labs, n)):
        dense = ds[lab.u0] @ fock._squeezed_vacuum_column(lab.z, n)
        yield np.abs(amps[:n // 2] - dense[:n // 2]), lab


@register_grid("fock.operator_shift")
def _check_operator_shift(cfg):
    """D Q D^dag = Q - q0 on the upper-left N/4 block.

    The block reads only the first N/4 rows of D = D(u0), and
    D(u0)^T = D(-conj u0), so those rows are the transposed first N/4
    columns of D(-conj u0).
    """
    c, n = cfg.constants, cfg.fock_dim
    k = n // 4
    q = fock.position(n, c)
    for u0 in STANDARD_U0:
        rows = fock.displacement(-complex(u0).conjugate(), n, k).T
        q0 = math.sqrt(2.0) * c.ell0 * complex(u0).real
        shifted = rows @ q @ rows.conj().T
        yield fock.top_block_norm(shifted - (q[:k, :k] - q0 * np.eye(k)),
                                  k), u0


@register_grid("fock.invariant_combination")
def _check_invariant_combination(cfg):
    n = cfg.fock_dim
    a, adag = fock.ladder(n)
    labs = [lab for lab in standard_labels() if lab.u0 != 0]
    azs = _built_once(fock.squeezed_annihilator, (lab.z for lab in labs), n)
    for lab in labs:
        az = azs[lab.z]
        u0z = squeezed_frame_label(lab.u0, lab.z)
        lhs = u0z * az.conj().T - np.conj(u0z) * az
        rhs = lab.u0 * adag - np.conj(lab.u0) * a
        yield fock.top_block_norm(lhs - rhs, n - 2), lab


# ----------------------------------------------------- saturation scanning


@register("verify.saturation_scan", "verify.defining_residual",
          "verify.srur_saturating", "verify.moment_agreement",
          "verify.nonsaturating_probe")
def _check_saturation_scan(cfg: VerifyConfig):
    """Residuals, SR slack, round-trips and moment agreement on the grid."""
    c, n = cfg.constants, cfg.scan_dim
    labs = standard_labels()
    states = oracles._state_rows(labs, n)
    one = fock.basis_state(n, 1)
    recs = fock.sr_ur_check(states, c)
    rec1, = fock.sr_ur_check([one], c)
    ms = [labels_to_moments(lab, c) for lab in labs]
    residuals = [fock.defining_residual(st, m, c)
                 for st, m in zip(states, ms)]
    gaps = []
    for rec, m in zip(recs, ms):
        me = rec.as_moments()
        gaps.append((abs(me.q0 - m.q0), abs(me.p0 - m.p0), abs(me.dq - m.dq),
                     abs(me.dp - m.dp), abs(me.corr - m.corr)))
    probe_res = fock.defining_residual(one, rec1.as_moments(), c)
    return [
        _worst(cfg, "verify.defining_residual", zip(residuals, labs),
               {"fock_dim": n}),
        _worst(cfg, "verify.srur_saturating",
               ((abs(rec.slack), lab) for rec, lab in zip(recs, labs))),
        _worst(cfg, "verify.moment_agreement", zip(gaps, labs)),
        # expected-fail fixture: |1> must NOT look saturating
        _result(cfg, "verify.nonsaturating_probe",
                0.1 / max(probe_res, 1e-300),
                {"probe_residual": probe_res,
                 "slack_minus_2hbar2": rec1.slack - 2 * c.hbar**2}),
    ]


@register("verify.srur_positivity", "verify.srur_positivity",
          "verify.srur_fock_one")
def _check_srur_positivity(cfg):
    c, n = cfg.constants, 48
    rng = np.random.Generator(np.random.Philox(_SEED))
    states = []
    for _ in range(100):
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        states.append(amps)
    *recs, rec1 = fock.sr_ur_check(states + [fock.basis_state(n, 1)], c)
    return [
        _worst(cfg, "verify.srur_positivity",
               ((-rec.slack, k) for k, rec in enumerate(recs))),
        _result(cfg, "verify.srur_fock_one",
                abs(rec1.slack - 2 * c.hbar**2)),
    ]


# --------------------------------------------------- overcompleteness


def resolution_of_identity(z: complex, dim_check: int, cfg: VerifyConfig,
                           order: int | None = None) -> CheckResult:
    """Max deviation of the integrated projector from the identity block.

    The frame rule of oracles._plane_states at order n (default dim_check)
    is exact for the block once n >= dim_check, so the sum is measured
    against the identity at order n + 1, and the largest entry of its
    difference from the sum at order n is the quadrature error estimate:
    both are rounding when n >= dim_check.  Raises OutOfDomain for a
    dim_check below 1, an order outside 2..185 and a |z| past
    oracles._FRAME_MAX_R.
    """
    if dim_check < 1:
        raise OutOfDomain(f"dim_check must be >= 1, got {dim_check}")
    n = max(2, dim_check) if order is None else order
    if not 2 <= n <= oracles._FRAME_MAX_ORDER:
        raise OutOfDomain(
            f"order must be in 2..{oracles._FRAME_MAX_ORDER}, got {n}")
    coarse, fine = (oracles._identity_sums([z], m, dim_check)[0]
                    for m in (n, n + 1))
    est = float(np.max(np.abs(fine - coarse)))
    dev = float(np.max(np.abs(fine - np.eye(dim_check))))
    return _result(cfg, "verify.resolution_identity", dev,
                   {"z": repr(z), "dim_check": dim_check, "order": n,
                    "quad_est_error": est})


@register("verify.resolution_identity")
def _check_roi(cfg):
    zs = (0.0, 0.5, 0.8 * cmath.exp(1j * math.pi / 3), 12 * cmath.exp(0.7j))
    out = [resolution_of_identity(z, cfg.dim_check, cfg) for z in zs]
    return [_worst(cfg, "verify.resolution_identity",
                   ((r.measured, z) for r, z in zip(out, zs)),
                   {"per_z": {r.params["z"]: r.measured for r in out}})]


def mu_weighted_identity(cfg: VerifyConfig) -> CheckResult:
    """Double integral over (u0, z) against the identity block.

    The inner plane sums use the exact frame rule of order dim_check, so
    the outer z-rule only has to integrate the normalized measure.  params
    carry the (m, n) entry of the largest deviation (worst_at) and the
    states built (nodes): the distinct radii of the outer rules' z times
    the inner half-rule nodes, since oracles._identity_sums builds one
    frame sum per radius.
    """
    dim_check = cfg.dim_check
    order = max(2, dim_check)
    spec = quadmod.QuadratureSpec(
        quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D, cfg.mu_outer_order,
        scale=(_MU_SIGMA, _MU_SIGMA), rel_tol=1e-2)
    radii = []

    def sums(zs):
        radii.append(oracles._radii(zs)[0].size)
        return oracles._identity_sums(zs, order, dim_check)

    report = quadmod.integrate_z(sums, spec, sigma=_MU_SIGMA, check=False)
    err = np.abs(report.value - np.eye(dim_check))
    worst = np.unravel_index(np.argmax(err), err.shape)
    return _result(cfg, "verify.mu_weighted_identity", float(err[worst]),
                   {"sigma": _MU_SIGMA, "outer_order": cfg.mu_outer_order,
                    "quad_est_error": report.est_error,
                    "worst_at": repr(tuple(map(int, worst))),
                    "nodes": sum(radii) * ((order * order + 1) // 2)})


@register("verify.mu_weighted_identity")
def _check_mu(cfg):
    return [mu_weighted_identity(cfg)]


@register("verify.convergence_monotonic")
def _check_convergence(cfg):
    """Truncation-limited measures may not grow when N doubles."""
    c = cfg.constants
    labs = [Labels(u0=1 + 1j, r=0.7, theta=math.pi / 3),
            Labels(u0=2j, r=1.2, theta=math.pi)]
    ms = [labels_to_moments(lab, c) for lab in labs]
    # an amplitude is the same at any N: N = 64 takes 64 levels of each row
    rows = oracles._state_rows(labs, 128)
    res = [[fock.defining_residual(row[:n], m, c)
            for row, m in zip(rows, ms)] for n in (64, 128)]
    detail = {repr(lab): [r64, r128] for lab, r64, r128 in zip(labs, *res)}
    return [_worst(cfg, "verify.convergence_monotonic",
                   ((r128 - r64, lab) for lab, r64, r128 in zip(labs, *res)),
                   {"residuals_N64_N128": detail})]


# ----------------------------------------------------------------- wavefn


@register_grid("wavefn.normalization")
def _check_wavefn_norm(cfg):
    for lab in standard_labels():
        rep = oracles.quad_overlap(lab.z, lab.u0, lab.z, lab.u0, cfg.constants)
        yield abs(rep.value - 1.0), lab


@register_grid("wavefn.phase_anchor")
def _check_phase_anchor(cfg):
    # r = 0 gives z = 0 at every theta: each distinct z is integrated once
    radii = {Labels(r=r, theta=th).z: r
             for r in STANDARD_R for th in STANDARD_THETA}
    for z, r in radii.items():
        val = oracles.quad_overlap(0, 0, z, 0, cfg.constants).value
        yield (abs(val - math.cosh(r) ** -0.5), abs(val.imag)), z


@register_grid("wavefn.three_forms")
def _check_three_forms(cfg):
    c = cfg.constants
    qs = np.linspace(-6.0, 6.0, 129)
    for lab in standard_labels():
        p = wavefn.WavefnParams.from_labels(lab, c)
        base = wavefn.psi(qs, p)
        for form in ("angle", "sqrt"):
            yield np.abs(wavefn.psi_form(qs, p, form) - base), (form, lab)


def _synthesis_ratios(labs, c: Constants, amps: np.ndarray, qs: np.ndarray):
    """Worst Hermite-synthesis defect of each N-level state over its budget.

    amps holds, one row per label, the state's first 2N amplitudes; the
    first N of every row are synthesized on one Hermite table.  The budget
    is 8 sqrt(dropped mass) + 1e-11, where the dropped mass is
    sum_{m >= N} |c_m|^2, read from the levels past N.  (1 - norm^2 of the
    truncated state cancels to rounding noise and cannot be used.)
    """
    n = amps.shape[1] // 2
    synth = wavefn.synthesize(qs, amps[:, :n], c)
    for lab, row, tail in zip(labs, synth, amps[:, n:]):
        diff = row - wavefn.psi(qs, wavefn.WavefnParams.from_labels(lab, c))
        missing = float(np.sum(np.abs(tail) ** 2))
        yield float(np.max(np.abs(diff))) / (8.0 * math.sqrt(missing) + 1e-11)


@register_grid("wavefn.fock_synthesis")
def _check_synthesis(cfg):
    """Hermite synthesis against a per-state truncation budget.

    The pointwise defect is bounded by the amplitude mass the truncation
    discarded; measured is the worst ratio of defect to that budget.
    """
    qs = np.linspace(-6.0, 6.0, 129)
    labs = standard_labels()
    amps = oracles._state_rows(labs, 2 * cfg.fock_dim)
    yield from zip(_synthesis_ratios(labs, cfg.constants, amps, qs), labs)


@register_grid("wavefn.log_consistency")
def _check_log_psi(cfg):
    c = cfg.constants
    qs = np.linspace(-8.0, 8.0, 65)
    for lab in standard_labels():
        p = wavefn.WavefnParams.from_labels(lab, c)
        lp = wavefn.log_psi(qs, p)
        direct = wavefn.psi_form(qs, p, "angle")
        mask = np.abs(direct) > 1e-250
        yield np.abs(np.exp(lp[mask]) - direct[mask]), lab


# ---------------------------------------------------------------- kernels


_PAIR_LABELS = tuple(zip(
    (0.0, 0.25, 0.7 * cmath.exp(1j * math.pi / 3), 1.0j,
     1.2 * cmath.exp(1j * 2.5)),
    (0j, 1.0, 1 + 1j, -1.5 + 0.5j, 2j)))
# (z2, u2, z1, u1) for every ordered pair of the (z, u) labels: the two
# states themselves, and the two with their displacements swapped
_PAIR_GRID = tuple(pair for z2, u2 in _PAIR_LABELS for z1, u1 in _PAIR_LABELS
                   for pair in ((z2, u1, z1, u2), (z2, u2, z1, u1)))


@register_grid("kernels.hermitian_symmetry")
def _check_hermitian(cfg):
    for pair in _PAIR_GRID:
        z2, u2, z1, u1 = pair
        o12 = kernels.squeezed_overlap(z2, u2, z1, u1).value
        o21 = kernels.squeezed_overlap(z1, u1, z2, u2).value
        yield abs(o12 - np.conj(o21)), pair


@register_grid("kernels.cauchy_schwarz")
def _check_cauchy_schwarz(cfg):
    for pair in _PAIR_GRID:
        z2, u2, z1, u1 = pair
        mod = kernels.squeezed_overlap(z2, u2, z1, u1).modulus
        yield mod - 1.0, pair
        if (z2, u2) != (z1, u1) and abs(complex(z2) - complex(z1)) \
                + abs(complex(u2) - complex(u1)) > 0.1:
            if mod > 1 - 1e-6:
                yield mod, pair


@register_grid("kernels.coherent_special")
def _check_coherent_special(cfg):
    for u2 in STANDARD_U0:
        for u1 in STANDARD_U0:
            res = kernels.coherent_overlap(u2, u1)
            modulus = math.exp(-0.5 * abs(complex(u2) - complex(u1)) ** 2)
            direct = cmath.exp(-0.5 * abs(complex(u2)) ** 2
                               - 0.5 * abs(complex(u1)) ** 2
                               + np.conj(complex(u2)) * complex(u1))
            yield (abs(res.modulus - modulus), abs(res.value - direct)), (u2, u1)


@register_grid("kernels.squeezed_special")
def _check_squeezed_special(cfg):
    for r2 in (0.0, 0.5, 1.0):
        for r1 in (0.0, 0.7):
            for th in (0.0, math.pi / 2):
                z2 = r2 * cmath.exp(1j * th)
                z1 = complex(r1)
                res = kernels.squeezed_overlap(z2, 0, z1, 0)
                zeta2 = cmath.exp(1j * th) * math.tanh(r2) if r2 else 0j
                zeta1 = math.tanh(r1)
                expected = (math.cosh(r2) * math.cosh(r1)) ** -0.5 \
                    * (1 - np.conj(zeta2) * zeta1) ** -0.5
                yield abs(res.value - expected), (z2, z1)
    # vacuum-squeezed special value (cosh r)^{-1/2}
    for r in STANDARD_R:
        res = kernels.squeezed_overlap(0, 0, r, 0)
        yield abs(res.value - math.cosh(r) ** -0.5), (0, r)


@register_grid("kernels.oracle_triangle", pairs=len(_PAIR_GRID))
def _check_oracle_triangle(cfg):
    c = cfg.constants
    via_focks = oracles.fock_overlaps(_PAIR_GRID, 192)
    for pair, (via_fock, _) in zip(_PAIR_GRID, via_focks):
        closed = kernels.squeezed_overlap(*pair).value
        via_quad = oracles.quad_overlap(*pair, c).value
        yield (abs(closed - via_fock), abs(closed - via_quad),
               abs(via_fock - via_quad)), pair


@register_grid("kernels.matrix_element_vs_fock")
def _check_matrix_element(cfg):
    dim = 192
    cases = [(0.4j, 1 + 0.5j, -0.2), (0.3, 0.5 - 1j, 0.5j),
             (-0.6j, 2.0, 0.55), (0.0, 1 + 1j, 0.0)]
    for zeta2, u, zeta1 in cases:
        # <0| exp(conj(zeta2) a^2/2) is the conjugate of exp(zeta2
        # a^dag^2/2)|0>, the first column of its lower factor
        left = fock._exp_adag2_lower(zeta2 / 2.0, dim, cols=1)[:, 0].conj()
        right = fock._exp_adag2_lower(zeta1 / 2.0 + 0j, dim, cols=1)[:, 0]
        val_f = left @ fock.displacement(u, dim) @ right
        val_c = kernels.general_matrix_element(zeta2, u, zeta1)
        yield abs(val_f - val_c), (zeta2, u, zeta1)


@register_grid("kernels.displacement_composition")
def _check_disp_composition(cfg):
    # the upper-left N/2 block of D(u2)^dag D(u1) sums over all N levels
    # but reads only the first N/2 columns of each factor
    n = cfg.fock_dim
    b = n // 2
    for u2, u1 in ((1.0, 1j), (1 + 1j, -0.5 + 0.2j), (0.0, 1.5)):
        comp = kernels.displacement_composition(u2, u1)
        lhs = fock.displacement(u2, n, b).conj().T \
            @ fock.displacement(u1, n, b)
        rhs = comp.phase * fock.displacement(comp.shifted, b)
        yield fock.top_block_norm(lhs - rhs, b), (u2, u1)


@register("kernels.compose", "kernels.compose_coherent",
          "kernels.compose_squeezed")
def _check_compose(cfg):
    coh = abs(kernels.reproducing_compose(0.0, 1 + 0.5j, 0.0, -0.3j, 0.0)
              - kernels.coherent_overlap(1 + 0.5j, -0.3j).value)
    sq = abs(kernels.reproducing_compose(0.4, 0.5, 0.2j, -0.3 + 0.2j, 0.3)
             - kernels.squeezed_overlap(0.4, 0.5, 0.2j, -0.3 + 0.2j).value)
    return [
        _result(cfg, "kernels.compose_coherent", coh),
        _result(cfg, "kernels.compose_squeezed", sq),
    ]


@register_grid("kernels.diagonal_kernel_reconstruction")
def _check_diag_kernel(cfg):
    """Each quadrature observable as its kernel-weighted projector integral.

    The kernels are polynomials of degree <= 2 in the label, so the frame
    rule of order block + 1 integrates the block exactly.
    """
    c = cfg.constants
    dim, block = 32, 8
    for z in (0.0, 0.4):
        z = complex(z)
        az = fock.squeezed_annihilator(z, dim)
        us, tw, psi = oracles._plane_states([z], block + 1, block)
        wz = squeezed_frame_label(cmath.exp(0.5j * cmath.phase(z)) * us, z)
        for name in ("I", "N", "Q", "P", "Q2", "P2", "QP"):
            op = kernels.quadrature_observable(name, z, c)
            kern = kernels.diagonal_kernel(op, z)
            rec = oracles._lab_block(
                oracles._projector(psi, kern.evaluate(wz) * tw), [z])[0]
            direct = op.to_matrix(az)
            yield np.abs(rec - direct[:block, :block]), (name, z)


@register("kernels.variable_change", "kernels.variable_change",
          "kernels.jacobian_unit")
def _check_variable_change(cfg):
    """Mixed second derivative re-expressed across the frame change."""
    rng = np.random.Generator(np.random.Philox(_SEED + 1))
    rows = []
    for r, th in ((0.4, 0.0), (0.8, math.pi / 3), (1.1, math.pi / 2)):
        ch, sh = math.cosh(r), math.sinh(r)
        s = cmath.exp(1j * th) * sh
        coeffs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        poly = kernels.PolySymbol(coeffs)
        # to the squeezed frame: w = ch u - s ubar, wbar = -conj(s) u + ch ubar
        in_frame = poly.substitute_linear(ch, s, np.conj(s), ch)
        lhs = in_frame.derivative(1, 1).substitute_linear(
            ch, -s, -np.conj(s), ch)
        half = cmath.exp(1j * th) * math.sinh(2 * r) / 2.0
        d_uu = poly.derivative(2, 0)
        d_bb = poly.derivative(0, 2)
        d_ub = poly.derivative(1, 1)
        rhs = d_uu * half + d_bb * np.conj(half) \
            + d_ub * math.cosh(2 * r)
        scale = float(np.max(np.abs(rhs.coeffs))) + 1.0
        det = ch * ch - (s * np.conj(s)).real
        rows.append((lhs.max_abs_diff(rhs) / scale, abs(abs(det) - 1.0),
                     (r, th)))
    return [
        _worst(cfg, "kernels.variable_change", ((d, at) for d, _, at in rows)),
        _worst(cfg, "kernels.jacobian_unit", ((j, at) for _, j, at in rows)),
    ]


# ------------------------------------------------------------- quadrature


@register("quadrature.determinism")
def _check_quad_determinism(cfg):
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                  24, rel_tol=1e-8)

    def f(u):
        return np.exp(-np.abs(u) ** 2 + 0.3 * u)

    r1 = quadmod.integrate_plane(f, spec, check=False)
    r2 = quadmod.integrate_plane(f, spec, check=False)
    identical = r1.value == r2.value and r1.est_error == r2.est_error
    return [_result(cfg, "quadrature.determinism",
                    0.0 if identical else 1.0)]


@register("quadrature.polynomial_exactness")
def _check_quad_exactness(cfg):
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.GAUSS_HERMITE, 12,
                                  rel_tol=1e-12)

    def poly_gauss(q):
        return (q**4 - 2 * q**2 + 0.5) * np.exp(-q * q)

    rep = quadmod.integrate_line(poly_gauss, spec, check=False)
    exact = math.sqrt(math.pi) * (3.0 / 4.0 - 2.0 / 2.0 + 0.5)
    return [_result(cfg, "quadrature.polynomial_exactness",
                    max(abs(rep.value - exact), rep.est_error))]


@register("quadrature.plane_exactness")
def _check_plane_exactness(cfg):
    """The order-32 plane rule against the exact integral 2 of e^{-|u|^2}(1 + |u|^2)."""
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                  32, rel_tol=1e-8)

    def f(u):
        return np.exp(-np.abs(u) ** 2) * (1.0 + u * np.conj(u))

    rep = quadmod.integrate_plane(f, spec, check=False)
    return [_result(cfg, "quadrature.plane_exactness",
                    max(abs(rep.value - 2.0), rep.est_error))]


# ---------------------------------------------------------------- canaries


@register("canary.g2_sign_flip")
def _canary_g2(cfg):
    z2, u2, z1, u1 = 0.5 * cmath.exp(1j * math.pi / 4), 1.0, 0.3, -1j
    logpre, sym, gre, gim = kernels._overlap_exponent(z2, complex(u2), z1, complex(u1))
    # corrupt: flip the sign of the Gaussian quadratic form
    corrupt = cmath.exp(logpre) * cmath.exp(complex(0.0, sym)) \
        / cmath.exp(complex(gre, gim))
    oracle, _ = oracles.fock_overlaps([(z2, u2, z1, u1)], 160)[0]
    return [_canary(cfg, "canary.g2_sign_flip", abs(corrupt - oracle))]


@register("canary.thetabar_branch")
def _canary_thetabar(cfg):
    lab = Labels(u0=0, r=0.7, theta=1.1)
    # corrupt: the other half-angle branch flips the sign of the prefactor
    corrupt = -oracles.quad_overlap(0, 0, lab.z, 0, cfg.constants).value
    expected = math.cosh(lab.r) ** -0.5
    return [_canary(cfg, "canary.thetabar_branch", abs(corrupt - expected))]


@register("canary.missing_center_phase")
def _canary_center_phase(cfg):
    c = cfg.constants
    lab = Labels(u0=1 + 1j, r=0.4, theta=0.9)
    p = wavefn.WavefnParams.from_labels(lab, c)
    qs = np.linspace(-4, 5, 65)
    corrupt = wavefn.psi(qs, p) * cmath.exp(0.5j * p.moments.q0
                                            * p.moments.p0 / c.hbar)
    synth = wavefn.synthesize(qs, oracles._state_rows([lab], cfg.fock_dim)[0],
                              c)
    return [_canary(cfg, "canary.missing_center_phase",
                    float(np.max(np.abs(corrupt - synth))))]


@register("canary.swapped_rho")
def _canary_swapped_rho(cfg):
    c = cfg.constants
    lab = Labels(u0=0.5, r=0.8, theta=2.0)
    m = labels_to_moments(lab, c)
    ang = derived_angles(lab, m, c)
    # corrupt reconstruction: use rho_plus where sinh r belongs
    r_corrupt = math.asinh(ang.rho_plus)
    lab_corrupt = Labels(u0=lab.u0, r=r_corrupt, theta=lab.theta)
    m_corrupt = labels_to_moments(lab_corrupt, c)
    diff = max(abs(m_corrupt.dq - m.dq), abs(m_corrupt.dp - m.dp),
               abs(m_corrupt.corr - m.corr))
    return [_canary(cfg, "canary.swapped_rho", diff)]


@register("canary.dropped_prefactor")
def _canary_dropped_prefactor(cfg):
    z2, u2, z1, u1 = 0.6, 0.5, 0.4j, -0.5 + 1j
    good = kernels.squeezed_overlap(z2, u2, z1, u1)
    zeta2 = math.tanh(0.6)
    zeta1 = 1j * math.tanh(0.4)
    corrupt = good.value * cmath.sqrt(1 - np.conj(zeta2) * zeta1)
    oracle, _ = oracles.fock_overlaps([(z2, u2, z1, u1)], 160)[0]
    return [_canary(cfg, "canary.dropped_prefactor", abs(corrupt - oracle))]


@register("canary.unnormalized_vacuum")
def _canary_unnormalized_vacuum(cfg):
    """A c_0 without its (cosh r)^{-1/2}, seen by the exact frame rule.

    The rule holds the identity to rounding, so a normalization defect of
    the amplitudes must show in the same projector sum.
    """
    z, dim = 0.8 * cmath.exp(1j * math.pi / 3), cfg.dim_check
    # corrupt: every amplitude scaled by (cosh r)^{1/2}, the projector sum
    # by cosh r
    corrupt = math.cosh(abs(z)) * oracles._identity_sums([z], dim, dim)[0]
    return [_canary(cfg, "canary.unnormalized_vacuum",
                    float(np.max(np.abs(corrupt - np.eye(dim)))))]


# ------------------------------------------------------------------ suite


def run_suite(cfg: VerifyConfig | None = None,
              only: list[str] | None = None) -> list[CheckResult]:
    """Execute registered checks (optionally filtered by glob patterns).

    A check runs when a pattern matches its check_id or one of the result
    ids it reports; a pattern that matches no id raises OutOfDomain before
    any check runs.  A check that raises reports one failed result per
    result id; the suite always runs to completion.  Results are sorted by
    check_id.
    """
    cfg = cfg or VerifyConfig()
    names = [n for cid, rids in _RESULT_IDS.items() for n in (cid, *rids)]
    if unmatched := [p for p in only or () if not fnmatch.filter(names, p)]:
        raise OutOfDomain(f"no check or result matches {', '.join(unmatched)}")
    results: list[CheckResult] = []
    for check_id, fn in _REGISTRY:
        ids = _RESULT_IDS[check_id]
        if only and not any(fnmatch.filter((check_id, *ids), p) for p in only):
            continue
        t0 = time.perf_counter()
        try:
            partial = fn(cfg)
        except Exception as exc:  # noqa: BLE001 - report, never abort
            partial = [_result(cfg, rid, math.inf, {"error": repr(exc)})
                       for rid in ids]
        dt = 1e3 * (time.perf_counter() - t0)
        results += [replace(res, runtime_ms=dt / len(partial))
                    for res in partial]
    return sorted(results, key=lambda r: r.check_id)


def report_json(results: list[CheckResult]) -> str:
    rows = [{"check_id": r.check_id, "params": _jsonable(r.params),
             "measured": r.measured, "bound": r.bound, "passed": r.passed,
             "runtime_ms": r.runtime_ms} for r in results]
    return json.dumps(rows, indent=2, sort_keys=False)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return repr(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def report_table(results: list[CheckResult]) -> str:
    lines = [f"{'check':44s} {'measured':>12s} {'bound':>10s} {'status':>7s}"]
    for r in results:
        lines.append(f"{r.check_id:44s} {r.measured:12.3e} {r.bound:10.1e} "
                     f"{'PASS' if r.passed else 'FAIL':>7s}")
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} checks passed")
    return "\n".join(lines)
