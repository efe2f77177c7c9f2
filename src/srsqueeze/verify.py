"""Identity-verification suite: every closed form against its oracle.

Each registered check computes a worst-case deviation ("measured") over a
parameter grid and compares it to a fixed numeric bound.  Checks never
abort the suite: exceptions become failed results.  The suite also carries
mutation canaries, deliberately corrupted formulas that a healthy oracle
network must flag; a canary passes when the corruption is detected.

The standard grid covers uncorrelated (theta = 0, pi) and correlated
squeeze phases at small and strong squeezing, with displacements up to
|u0| = 2.
"""

from __future__ import annotations

import cmath
import fnmatch
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bch, fock, kernels, wavefn
from . import quadrature as quadmod
from .params import (
    Constants,
    Labels,
    derived_angles,
    labels_to_moments,
    lambda0,
    moments_to_labels,
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
    "quadrature.monte_carlo_agreement": 1.0,
    "canary.g2_sign_flip": 1.0,
    "canary.thetabar_branch": 1.0,
    "canary.missing_center_phase": 1.0,
    "canary.swapped_rho": 1.0,
    "canary.dropped_prefactor": 1.0,
}

_CANARY_THRESHOLD = 1e-3


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
    """Knobs for the suite; bounds may be overridden per check id."""

    constants: Constants = field(default_factory=Constants)
    fock_dim: int = 128
    scan_dim: int = 256
    dim_check: int = 16
    mu_sigma: float = 0.5
    mu_outer_order: int = 10
    seed: int = 20240817
    bounds: dict = field(default_factory=dict)

    def bound(self, check_id: str) -> float:
        if check_id in self.bounds:
            return float(self.bounds[check_id])
        return DEFAULT_BOUNDS[check_id]


def standard_labels(rmax: float = None, umax: float = None):
    """The standard verification grid as Labels objects."""
    out = []
    for u0 in STANDARD_U0:
        if umax is not None and abs(u0) > umax:
            continue
        for r in STANDARD_R:
            if rmax is not None and r > rmax:
                continue
            for theta in STANDARD_THETA:
                if r == 0 and theta != 0.0:
                    continue
                out.append(Labels(u0=u0, r=r, theta=theta))
    return out


def _state_rows(labels, dim: int) -> np.ndarray:
    """First dim amplitudes of D(u0) S(z)|0> per label, from one recurrence call.

    Row k is label k's state, contiguous, so that BLAS products see the
    same vector as for a state built alone.
    """
    amps = fock.saturating_state_batch([lab.u0 for lab in labels],
                                       [lab.z for lab in labels], dim)
    return np.ascontiguousarray(amps.T)


_REGISTRY: list = []


def register(check_id: str):
    def deco(fn):
        _REGISTRY.append((check_id, fn))
        return fn

    return deco


def _result(cfg, check_id, measured, params=None):
    b = cfg.bound(check_id)
    return CheckResult(check_id=check_id, params=params or {},
                       measured=float(measured), bound=float(b),
                       passed=bool(measured <= b), runtime_ms=0.0)


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


@register("params.roundtrip")
def _check_roundtrip(cfg):
    c = cfg.constants
    worst, wpt = 0.0, None
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        back = moments_to_labels(m, c)
        err = max(abs(back.u0 - lab.u0), abs(back.r - lab.r),
                  _angle_dist(back.theta, lab.theta) if lab.r > 0 else 0.0)
        if err > worst:
            worst, wpt = err, lab
    return [_result(cfg, "params.roundtrip", worst, {"worst_at": repr(wpt)})]


@register("params.saturation_identity")
def _check_saturation(cfg):
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        target = 0.25 * c.hbar**2 * (
            1.0 + math.sin(lab.theta) ** 2 * math.sinh(2 * lab.r) ** 2)
        worst = max(worst, abs(m.dq**2 * m.dp**2 - target) / target)
    return [_result(cfg, "params.saturation_identity", worst)]


@register("params.bound_band")
def _check_band(cfg):
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        lo, hi = math.exp(-lab.r) / math.sqrt(2), math.exp(lab.r) / math.sqrt(2)
        for val in (m.dq / c.ell0, c.ell0 * m.dp / c.hbar):
            worst = max(worst, lo - val, val - hi)
    return [_result(cfg, "params.bound_band", worst)]


@register("params.rho_identity")
def _check_rho(cfg):
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        ang = derived_angles(lab, m, c)
        worst = max(worst, abs(ang.rho_plus**2 - ang.rho_minus**2 - 1.0))
    return [_result(cfg, "params.rho_identity", worst)]


@register("params.angle_identity")
def _check_angle_identity(cfg):
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        ang = derived_angles(lab, m, c)
        ch2 = math.cosh(2 * lab.r)
        sh2 = math.sinh(2 * lab.r)
        rhs = 1.0 / math.sqrt(ch2**2 - (math.cos(lab.theta) * sh2) ** 2)
        lhs = math.cos(ang.thetabar_plus - ang.thetabar_minus)
        worst = max(worst, abs(lhs - rhs))
    return [_result(cfg, "params.angle_identity", worst)]


@register("params.theta_branch")
def _check_theta_branch(cfg):
    # e^{i theta} = -e^{i(theta_minus - theta_plus)}
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels():
        if lab.r == 0:
            continue
        m = labels_to_moments(lab, c)
        ang = derived_angles(lab, m, c)
        lhs = cmath.exp(1j * lab.theta)
        rhs = -cmath.exp(1j * (ang.theta_minus - ang.theta_plus))
        worst = max(worst, abs(lhs - rhs))
    return [_result(cfg, "params.theta_branch", worst)]


@register("params.lambda0_forms")
def _check_lambda0(cfg):
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels():
        m = labels_to_moments(lab, c)
        lam = lambda0(m, c)
        phi = math.atan(m.corr / c.hbar)
        alt = -1j * (m.dq / m.dp) * cmath.exp(1j * phi)
        worst = max(worst, abs(lam - alt) / abs(lam))
    return [_result(cfg, "params.lambda0_forms", worst)]


# -------------------------------------------------------------------- bch


@register("bch.f_symmetry")
def _check_f_symmetry(cfg):
    pts = [-2.0, -0.7, 0.0, 1.3, 2.0, -2 + 2j, 2 + 2j, -2 - 2j, 0.5 - 1j]
    worst = 0.0
    for u in pts:
        for v in pts:
            worst = max(worst, abs(bch.f_uv(u, v) - bch.f_uv(v, u)))
    return [_result(cfg, "bch.f_symmetry", worst)]


@register("bch.f_matrix_log")
def _check_f_matrix_log(cfg):
    """log(e^A e^B) = A + B + f(u,v) [A,B] for small 2x2 / 3x3 pairs."""
    from scipy.linalg import expm, logm

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
    worst = 0.0
    for amat, bmat, u, v in cases:
        lhs = logm(expm(amat) @ expm(bmat))
        comm = amat @ bmat - bmat @ amat
        rhs = amat + bmat + bch.f_uv(u, v) * comm
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return [_result(cfg, "bch.f_matrix_log", worst)]


@register("bch.phi_psi_inverse")
def _check_phi_psi(cfg):
    pts = [0.1, 0.5, 1.0, 2.5, math.e, 0.5 + 1j, 2 - 1j, 1e-3 + 1e-4j, 1 + 1e-9]
    worst = 0.0
    for x in pts:
        worst = max(worst, abs(bch.phi(-cmath.log(x)) * bch.psi(x) - 1.0))
    return [_result(cfg, "bch.phi_psi_inverse", worst)]


@register("bch.disentangle_gamma")
def _check_gamma(cfg):
    worst = 0.0
    for r in (0.0, 0.25, 0.7, 1.2, 2.0):
        for th in STANDARD_THETA:
            d = bch.disentangle_squeeze(r * cmath.exp(1j * th))
            worst = max(worst, abs(d.gamma - math.log1p(-abs(d.alpha) ** 2)))
    return [_result(cfg, "bch.disentangle_gamma", worst)]


@register("bch.su11_defining_rep")
def _check_su11_rep(cfg):
    """Both factor orders against exp(z K+ - conj(z) K-) in the 2x2 rep."""
    from scipy.linalg import expm

    k0 = np.diag([0.5, -0.5]).astype(complex)
    kp = np.array([[0, 1], [0, 0]], dtype=complex)
    km = np.array([[0, 0], [-1, 0]], dtype=complex)
    worst = 0.0
    for r in (0.25, 0.7, 1.0, 1.2):
        for th in STANDARD_THETA:
            z = r * cmath.exp(1j * th)
            d = bch.disentangle_squeeze(z)
            target = expm(z * kp - np.conj(z) * km)
            fwd = expm(d.alpha * kp) @ expm(d.gamma * k0) \
                @ expm(-np.conj(d.alpha) * km)
            rev = expm(-np.conj(d.alpha) * km) @ expm(-d.gamma * k0) \
                @ expm(d.alpha * kp)
            worst = max(worst, float(np.max(np.abs(fwd - target))),
                        float(np.max(np.abs(rev - target))))
    return [_result(cfg, "bch.su11_defining_rep", worst)]


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


@register("fock.bogoliubov_closure")
def _check_bogoliubov(cfg):
    n = cfg.fock_dim
    worst = 0.0
    for r in STANDARD_R:
        for th in STANDARD_THETA:
            az = fock.squeezed_annihilator(r * cmath.exp(1j * th), n)
            comm = az @ az.conj().T - az.conj().T @ az
            worst = max(worst, float(np.max(np.abs(
                comm[:n - 2, :n - 2] - np.eye(n - 2)))))
    return [_result(cfg, "fock.bogoliubov_closure", worst)]


@register("fock.coherent_column")
def _check_coherent_column(cfg):
    n = cfg.fock_dim
    worst = 0.0
    for u0 in STANDARD_U0:
        col = fock.displacement(u0, n)[:, 0]
        if u0 == 0:
            ref = np.zeros(n, complex)
            ref[0] = 1.0
        else:
            k = np.arange(n)
            ref = np.exp(-0.5 * abs(u0) ** 2 + k * np.log(complex(u0))
                         - 0.5 * fock._lgfact(n - 1))
        worst = max(worst, float(np.max(np.abs(col - ref))))
    return [_result(cfg, "fock.coherent_column", worst)]


@register("fock.displacement_vs_exp")
def _check_displacement_vs_exp(cfg):
    n = cfg.fock_dim
    worst = 0.0
    for u0 in STANDARD_U0:
        diff = fock.displacement(u0, n) - fock.displacement_exp(u0, n)
        worst = max(worst, fock.top_block_norm(diff, n // 2))
    return [_result(cfg, "fock.displacement_vs_exp", worst)]


@register("fock.unitarity")
def _check_unitarity(cfg):
    """Isometry on blocks whose columns have converged inside the box."""
    n = cfg.fock_dim
    worst = 0.0
    for u0 in STANDARD_U0:
        d = fock.displacement(u0, n)
        k = n // 4
        gram = d.conj().T @ d
        worst = max(worst, float(np.max(np.abs(gram[:k, :k] - np.eye(k)))))
    for r in (0.25, 0.7):
        s = fock.squeeze_factored(r * cmath.exp(1j * math.pi / 3), n)
        # squeezing |k> spreads to ~ k e^{2r}; keep columns well inside
        k = max(2, int(n / (2 * math.exp(2 * r))))
        gram = s.conj().T @ s
        worst = max(worst, float(np.max(np.abs(gram[:k, :k] - np.eye(k)))))
    return [_result(cfg, "fock.unitarity", worst)]


@register("fock.squeeze_factored_vs_exp")
def _check_squeeze_vs_exp(cfg):
    n = cfg.fock_dim
    worst, wpt = 0.0, None
    for r in (0.25, 0.7, 1.0):
        for th in (0.0, math.pi / 3, math.pi):
            z = r * cmath.exp(1j * th)
            diff = fock.squeeze_factored(z, n) - fock.squeeze_exp(z, n)
            d = fock.top_block_norm(diff, n // 2)
            if d > worst:
                worst, wpt = d, z
    return [_result(cfg, "fock.squeeze_factored_vs_exp", worst,
                    {"worst_at_z": repr(wpt), "block": n // 2})]


@register("fock.squeeze_dual_order")
def _check_squeeze_dual(cfg):
    """Reversed factor order in Fock space, inside its convergence region.

    The anti-normal factor order is an asymptotic rearrangement on the
    number basis: its entry sums only settle within the truncation for
    small r and low levels (the leading magnitudes grow like e^{c(r) n}
    before the alternating tail takes over).  The Fock comparison therefore
    stays at r <= 0.4 on a 16x16 block; the identity for every r is
    checked exactly in the defining representation
    (bch.su11_defining_rep).
    """
    n = cfg.fock_dim
    worst = 0.0
    for r in (0.2, 0.3, 0.4):
        for th in (0.0, math.pi / 3):
            z = r * cmath.exp(1j * th)
            diff = fock.squeeze_factored_reversed(z, n) \
                - fock.squeeze_exp(z, n)
            worst = max(worst, fock.top_block_norm(diff, 16))
    return [_result(cfg, "fock.squeeze_dual_order", worst)]


@register("fock.squeeze_truncation_decay")
def _check_squeeze_decay(cfg):
    """Same-dimension Pade exponential vs factored on a fixed block.

    The factored entries are truncation-exact, so this difference is the
    truncation error of exponentiating the cut generator; on a fixed
    24x24 block it must fall as N grows.
    """
    from scipy.linalg import expm

    worst = 0.0
    meas = {}
    block = 24
    for r in (0.4, 0.6):
        z = r * cmath.exp(1j * math.pi / 3)
        errs = []
        for n in (48, 96):
            a, adag = fock.ladder(n)
            gen = 0.5 * (z * adag @ adag - np.conj(z) * a @ a)
            diff = fock.squeeze_factored(z, n) - expm(gen)
            errs.append(fock.top_block_norm(diff, block))
        meas[f"r={r}"] = errs
        worst = max(worst, errs[1] - errs[0])
    return [_result(cfg, "fock.squeeze_truncation_decay", worst,
                    {"errors_at_N48_N96": meas})]


@register("fock.annihilation")
def _check_annihilation(cfg):
    n = cfg.fock_dim
    worst = 0.0
    for r in STANDARD_R:
        for th in STANDARD_THETA:
            z = r * cmath.exp(1j * th)
            v = fock._squeezed_vacuum_column(z, n)
            res = fock.squeezed_annihilator(z, n) @ v
            worst = max(worst, float(np.linalg.norm(res[:n // 2])))
    return [_result(cfg, "fock.annihilation", worst)]


@register("fock.displaced_coherence")
def _check_displaced_coherence(cfg):
    from .params import squeezed_frame_label

    n = cfg.fock_dim
    labs = standard_labels()
    worst = 0.0
    for lab, amps in zip(labs, _state_rows(labs, n)):
        az = fock.squeezed_annihilator(lab.z, n)
        u0z = squeezed_frame_label(lab.u0, lab.z)
        res = az @ amps - u0z * amps
        worst = max(worst, float(np.linalg.norm(res[:n // 2])))
    return [_result(cfg, "fock.displaced_coherence", worst)]


@register("fock.state_recurrence_vs_dense")
def _check_state_recurrence(cfg):
    """Recurrence amplitudes against the dense product D(u0) S(z)|0>.

    The dense product is truncated at N, so only the upper half block is
    compared.  Corner labels only: u0 = 0 and the largest |u0| (2j), each
    at r = 0 and at the largest r with every theta.
    """
    n = 128
    labs = [lab for lab in standard_labels()
            if lab.u0 in (0j, 2j) and lab.r in (0.0, 1.2)]
    worst, wpt = 0.0, None
    for lab, amps in zip(labs, _state_rows(labs, n)):
        dense = fock.displacement(lab.u0, n) \
            @ fock._squeezed_vacuum_column(lab.z, n)
        d = float(np.max(np.abs(amps[:n // 2] - dense[:n // 2])))
        if d > worst:
            worst, wpt = d, lab
    return [_result(cfg, "fock.state_recurrence_vs_dense", worst,
                    {"worst_at": repr(wpt), "fock_dim": n})]


@register("fock.operator_shift")
def _check_operator_shift(cfg):
    c, n = cfg.constants, cfg.fock_dim
    q = fock.position(n, c)
    worst = 0.0
    for u0 in STANDARD_U0:
        d = fock.displacement(u0, n)
        q0 = math.sqrt(2.0) * c.ell0 * complex(u0).real
        shifted = d @ q @ d.conj().T
        worst = max(worst, fock.top_block_norm(
            shifted - (q - q0 * np.eye(n)), n // 4))
    return [_result(cfg, "fock.operator_shift", worst)]


@register("fock.invariant_combination")
def _check_invariant_combination(cfg):
    from .params import squeezed_frame_label

    n = cfg.fock_dim
    a, adag = fock.ladder(n)
    worst = 0.0
    for lab in standard_labels():
        if lab.u0 == 0:
            continue
        az = fock.squeezed_annihilator(lab.z, n)
        u0z = squeezed_frame_label(lab.u0, lab.z)
        lhs = u0z * az.conj().T - np.conj(u0z) * az
        rhs = lab.u0 * adag - np.conj(lab.u0) * a
        worst = max(worst, fock.top_block_norm(lhs - rhs, n - 2))
    return [_result(cfg, "fock.invariant_combination", worst)]


# ----------------------------------------------------- saturation scanning


def saturation_scan(cfg: VerifyConfig):
    """Residuals, SR slack, round-trips and moment agreement on the grid."""
    c, n = cfg.constants, cfg.scan_dim
    q = fock.position(n, c)
    p = fock.momentum(n, c)
    labs = standard_labels()
    states = [fock.FockVector.from_amps(row) for row in _state_rows(labs, n)]
    one = fock.basis_state(n, 1)
    *recs, rec1 = fock.sr_ur_check(q, p, states + [one])
    worst = {"residual": (0.0, None), "slack": (0.0, None),
             "moments": (0.0, None)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        for lab, st, rec in zip(labs, states, recs):
            m = labels_to_moments(lab, c)
            res = fock.defining_residual(q, p, st, m, c)
            me = fock.expectations(q, p, st)
            dm = max(abs(me.q0 - m.q0), abs(me.p0 - m.p0),
                     abs(me.dq - m.dq), abs(me.dp - m.dp),
                     abs(me.corr - m.corr))
            for key, val in (("residual", res), ("slack", abs(rec.slack)),
                             ("moments", dm)):
                if val > worst[key][0]:
                    worst[key] = (val, lab)
    m1 = fock.expectations(q, p, one)
    probe_res = fock.defining_residual(q, p, one, m1, c)
    out = [
        _result(cfg, "verify.defining_residual", worst["residual"][0],
                {"worst_at": repr(worst["residual"][1]), "fock_dim": n}),
        _result(cfg, "verify.srur_saturating", worst["slack"][0],
                {"worst_at": repr(worst["slack"][1])}),
        _result(cfg, "verify.moment_agreement", worst["moments"][0],
                {"worst_at": repr(worst["moments"][1])}),
        # expected-fail fixture: |1> must NOT look saturating
        _result(cfg, "verify.nonsaturating_probe",
                0.1 / max(probe_res, 1e-300),
                {"probe_residual": probe_res,
                 "slack_minus_2hbar2": rec1.slack - 2 * c.hbar**2}),
    ]
    return out


@register("verify.saturation_scan")
def _check_saturation_scan(cfg):
    return saturation_scan(cfg)


@register("verify.srur_positivity")
def _check_srur_positivity(cfg):
    c, n = cfg.constants, 48
    q = fock.position(n, c)
    p = fock.momentum(n, c)
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    states = []
    for _ in range(100):
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps /= np.linalg.norm(amps)
        states.append(fock.FockVector.from_amps(amps))
    *recs, rec1 = fock.sr_ur_check(q, p, states + [fock.basis_state(n, 1)])
    worst = max(0.0, *(-rec.slack for rec in recs))
    return [
        _result(cfg, "verify.srur_positivity", worst),
        _result(cfg, "verify.srur_fock_one",
                abs(rec1.slack - 2 * c.hbar**2)),
    ]


# --------------------------------------------------- overcompleteness


# Every state amplitude needs |u0|^2 at its node (fock._state_amplitudes).
# The nodes of a Gauss-Hermite rule of order m lie inside sqrt(2m + 1), so
# up to this |z| (about 351.3) the squared modulus of every node of a plane
# rule of scale 1.3 e^r stays a finite float, at any order the rules support.
_ROI_MAX_R = (0.5 * math.log(np.finfo(float).max)
              - math.log(1.3 * math.sqrt(2 * quadmod._MAX_ORDER + 1)))


def _roi_spec(z: complex, order: int | None = None,
              rel_tol: float = 1e-3) -> quadmod.QuadratureSpec:
    r = abs(complex(z))
    if r > _ROI_MAX_R:
        raise quadmod.BadSpec(
            f"|z| = {r:g} is past {_ROI_MAX_R:.1f}, where the squared modulus "
            f"of the plane rule's outer nodes overflows")
    if order is None:
        order = min(72, 40 + math.ceil(16 * r))
    return quadmod.QuadratureSpec(
        quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D, order,
        scale=(1.3 * math.exp(r), 1.3 * math.exp(-r)), rel_tol=rel_tol)


def _plane_states(spec: quadmod.QuadratureSpec, order: int, z: complex,
                  dim: int):
    """The plane rule of spec at order, rotated into the squeeze axes of z.

    Returns the nodes us, their total weights tw and the (dim, nodes)
    amplitudes psi[:, i] = <m|D(us[i]) S(z)|0>.  A fixed-z projector sum
    sum_i w_i |psi_i><psi_i| is then the one product (psi * w) @ psi^dagger.
    """
    z = complex(z)
    rot = cmath.exp(0.5j * cmath.phase(z)) if z != 0 else 1.0
    u, tw = quadmod._plane_nodes(order, spec)
    us = rot * u
    return us, tw, fock.saturating_state_batch(us, z, dim)


def resolution_of_identity(z: complex, dim_check: int, cfg: VerifyConfig,
                           order: int | None = None) -> CheckResult:
    """Max deviation of the integrated projector from the identity block.

    The projector sum is taken at the rule's order n and at 2n; the fine
    sum is measured against the identity, and the largest entry of
    fine - coarse is the quadrature error estimate.
    """
    t0 = time.perf_counter()
    spec = _roi_spec(z, order)
    n = spec.order_or_nodes
    sums = []
    for m in (n, 2 * n):
        _, tw, psi = _plane_states(spec, m, z, dim_check)
        sums.append((psi * tw) @ psi.conj().T)
    coarse, fine = sums
    est = float(np.max(np.abs(fine - coarse)))
    dev = float(np.max(np.abs(fine - np.eye(dim_check))))
    bound = cfg.bound("verify.resolution_identity")
    return CheckResult(
        check_id="verify.resolution_identity",
        params={"z": repr(z), "dim_check": dim_check, "order": n,
                "quad_est_error": est},
        measured=dev, bound=bound, passed=dev <= bound,
        runtime_ms=1e3 * (time.perf_counter() - t0))


@register("verify.resolution_identity")
def _check_roi(cfg):
    out = [resolution_of_identity(z, cfg.dim_check, cfg)
           for z in (0.0, 0.5, 0.8 * cmath.exp(1j * math.pi / 3))]
    agg = max(out, key=lambda r: r.measured)
    return [CheckResult(check_id="verify.resolution_identity",
                        params={"per_z": {r.params["z"]: r.measured for r in out}},
                        measured=agg.measured, bound=agg.bound,
                        passed=all(r.passed for r in out), runtime_ms=0.0)]


def mu_weighted_identity(cfg: VerifyConfig) -> CheckResult:
    """Double integral over (u0, z) against the identity block."""
    dim_check = cfg.dim_check

    def inner(zs):
        out = np.empty((zs.size, dim_check, dim_check), dtype=complex)
        for i, z in enumerate(zs):
            order = min(112, 2 * (24 + math.ceil(16 * abs(z))))
            _, tw, psi = _plane_states(_roi_spec(z, order), order, z, dim_check)
            out[i] = (psi * tw) @ psi.conj().T
        return out

    spec = quadmod.QuadratureSpec(
        quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D, cfg.mu_outer_order,
        scale=(cfg.mu_sigma, cfg.mu_sigma), rel_tol=1e-2)
    report = quadmod.integrate_z(inner, spec, sigma=cfg.mu_sigma, check=False)
    dev = float(np.max(np.abs(report.value - np.eye(dim_check))))
    return _result(cfg, "verify.mu_weighted_identity", dev,
                   {"sigma": cfg.mu_sigma, "outer_order": cfg.mu_outer_order,
                    "quad_est_error": report.est_error})


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
    res = []
    for n in (64, 128):
        q, p = fock.position(n, c), fock.momentum(n, c)
        res.append([fock.defining_residual(q, p, fock.FockVector.from_amps(row),
                                           m, c)
                    for row, m in zip(_state_rows(labs, n), ms)])
    detail = {repr(lab): [r64, r128] for lab, r64, r128 in zip(labs, *res)}
    worst = max(0.0, *(r128 - r64 for r64, r128 in zip(*res)))
    return [_result(cfg, "verify.convergence_monotonic", worst,
                    {"residuals_N64_N128": detail})]


# ----------------------------------------------------------------- wavefn


@register("wavefn.normalization")
def _check_wavefn_norm(cfg):
    c = cfg.constants
    worst = 0.0
    for lab in standard_labels(rmax=1.2):
        p = wavefn.WavefnParams.from_labels(lab, c)
        spec = quadmod.QuadratureSpec(
            quadmod.QuadKind.GAUSS_HERMITE, 96,
            center=(p.moments.q0, 0.0), scale=(3.0 * p.moments.dq, 1.0),
            rel_tol=1e-9)
        rep = quadmod.integrate_line(
            lambda q: np.abs(wavefn.psi(q, p)) ** 2, spec, check=False)
        worst = max(worst, abs(rep.value - 1.0))
    return [_result(cfg, "wavefn.normalization", worst)]


@register("wavefn.phase_anchor")
def _check_phase_anchor(cfg):
    c = cfg.constants
    vac = wavefn.WavefnParams.from_labels(Labels(), c)
    worst = 0.0
    for r in STANDARD_R:
        for th in STANDARD_THETA:
            lab = Labels(u0=0, r=r, theta=th)
            p = wavefn.WavefnParams.from_labels(lab, c)
            # the product with the vacuum is never wider than ~ell0
            spec = quadmod.QuadratureSpec(
                quadmod.QuadKind.GAUSS_HERMITE, 96,
                scale=(1.6 * c.ell0, 1.0), rel_tol=1e-9)
            rep = quadmod.integrate_line(
                lambda q: np.conj(wavefn.psi(q, vac)) * wavefn.psi(q, p),
                spec, check=False)
            expected = math.cosh(r) ** -0.5
            worst = max(worst, abs(rep.value - expected),
                        abs(rep.value.imag))
    return [_result(cfg, "wavefn.phase_anchor", worst)]


@register("wavefn.three_forms")
def _check_three_forms(cfg):
    c = cfg.constants
    qs = np.linspace(-6.0, 6.0, 129)
    worst = 0.0
    for lab in standard_labels():
        p = wavefn.WavefnParams.from_labels(lab, c)
        vals = [wavefn.psi_form(qs, p, f) for f in ("angle", "sqrt")]
        base = wavefn.psi(qs, p)
        for v in vals:
            worst = max(worst, float(np.max(np.abs(v - base))))
    return [_result(cfg, "wavefn.three_forms", worst)]


def synthesis_ratio(lab: Labels, c: Constants, amps: np.ndarray,
                    qs: np.ndarray) -> float:
    """Worst Hermite-synthesis defect of the N-level state over its budget.

    amps are the state's first 2N amplitudes.  The budget is 8 sqrt(dropped
    mass) + 1e-11, where the dropped mass is sum_{m >= N} |c_m|^2, read from
    the levels past N.  (1 - norm^2 of the truncated state cancels to
    rounding noise and cannot be used.)
    """
    n = amps.size // 2
    p = wavefn.WavefnParams.from_labels(lab, c)
    diff = wavefn.synthesize(qs, amps[:n], c) - wavefn.psi(qs, p)
    missing = float(np.sum(np.abs(amps[n:]) ** 2))
    return float(np.max(np.abs(diff))) / (8.0 * math.sqrt(missing) + 1e-11)


@register("wavefn.fock_synthesis")
def _check_synthesis(cfg):
    """Hermite synthesis against a per-state truncation budget.

    The pointwise defect is bounded by the amplitude mass the truncation
    discarded; measured is the worst ratio of defect to that budget.
    """
    qs = np.linspace(-6.0, 6.0, 129)
    labs = standard_labels(rmax=1.2)
    worst, wpt = 0.0, None
    for lab, amps in zip(labs, _state_rows(labs, 2 * cfg.fock_dim)):
        ratio = synthesis_ratio(lab, cfg.constants, amps, qs)
        if ratio > worst:
            worst, wpt = ratio, lab
    return [_result(cfg, "wavefn.fock_synthesis", worst,
                    {"worst_at": repr(wpt)})]


@register("wavefn.log_consistency")
def _check_log_psi(cfg):
    c = cfg.constants
    qs = np.linspace(-8.0, 8.0, 65)
    worst = 0.0
    for lab in standard_labels():
        p = wavefn.WavefnParams.from_labels(lab, c)
        lp = wavefn.log_psi(qs, p)
        direct = wavefn.psi_form(qs, p, "angle")
        mask = np.abs(direct) > 1e-250
        worst = max(worst, float(np.max(np.abs(np.exp(lp[mask]) - direct[mask]))))
    return [_result(cfg, "wavefn.log_consistency", worst)]


# ---------------------------------------------------------------- kernels


_PAIR_GRID = None


def _pair_grid():
    global _PAIR_GRID
    if _PAIR_GRID is None:
        zs = [0.0, 0.25, 0.7 * cmath.exp(1j * math.pi / 3),
              1.0j, 1.2 * cmath.exp(1j * 2.5)]
        us = [0j, 1.0, 1 + 1j, -1.5 + 0.5j, 2j]
        pairs = []
        for i, (z2, u2) in enumerate(zip(zs, us)):
            for j, (z1, u1) in enumerate(zip(zs, us)):
                pairs.append((zs[i], us[j], zs[j], us[i]))
                pairs.append((zs[i], us[i], zs[j], us[j]))
        _PAIR_GRID = pairs
    return _PAIR_GRID


@register("kernels.hermitian_symmetry")
def _check_hermitian(cfg):
    worst = 0.0
    for z2, u2, z1, u1 in _pair_grid():
        o12 = kernels.squeezed_overlap(z2, u2, z1, u1).value
        o21 = kernels.squeezed_overlap(z1, u1, z2, u2).value
        worst = max(worst, abs(o12 - np.conj(o21)))
    return [_result(cfg, "kernels.hermitian_symmetry", worst)]


@register("kernels.cauchy_schwarz")
def _check_cauchy_schwarz(cfg):
    worst = 0.0
    for z2, u2, z1, u1 in _pair_grid():
        mod = kernels.squeezed_overlap(z2, u2, z1, u1).modulus
        worst = max(worst, mod - 1.0)
        if (z2, u2) != (z1, u1) and abs(complex(z2) - complex(z1)) \
                + abs(complex(u2) - complex(u1)) > 0.1:
            if mod > 1 - 1e-6:
                worst = max(worst, mod)
    return [_result(cfg, "kernels.cauchy_schwarz", worst)]


@register("kernels.coherent_special")
def _check_coherent_special(cfg):
    worst = 0.0
    for u2 in STANDARD_U0:
        for u1 in STANDARD_U0:
            res = kernels.coherent_overlap(u2, u1)
            worst = max(worst, abs(res.modulus
                                   - math.exp(-0.5 * abs(complex(u2) - complex(u1)) ** 2)))
            direct = cmath.exp(-0.5 * abs(complex(u2)) ** 2
                               - 0.5 * abs(complex(u1)) ** 2
                               + np.conj(complex(u2)) * complex(u1))
            worst = max(worst, abs(res.value - direct))
    return [_result(cfg, "kernels.coherent_special", worst)]


@register("kernels.squeezed_special")
def _check_squeezed_special(cfg):
    worst = 0.0
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
                worst = max(worst, abs(res.value - expected))
    # vacuum-squeezed special value (cosh r)^{-1/2}
    for r in STANDARD_R:
        res = kernels.squeezed_overlap(0, 0, r, 0)
        worst = max(worst, abs(res.value - math.cosh(r) ** -0.5))
    return [_result(cfg, "kernels.squeezed_special", worst)]


def fock_overlaps(pairs, dim: int) -> list[complex]:
    """<state(u2, z2)|state(u1, z1)> on dim Fock levels, per (z2, u2, z1, u1).

    All the states come from one recurrence call; the value is exact up to
    the mass the truncation drops, which the caller's dim must make small.
    """
    fock._check_dim(dim)
    labs = [Labels.from_z(u, z) for z2, u2, z1, u1 in pairs
            for z, u in ((z2, u2), (z1, u1))]
    rows = _state_rows(labs, dim)
    return [complex(np.vdot(rows[k], rows[k + 1]))
            for k in range(0, len(rows), 2)]


def quad_overlap(z2, u2, z1, u1, c: Constants = Constants(),
                 check: bool = False) -> quadmod.QuadratureReport:
    """<state(u2, z2)|state(u1, z1)> as the line integral of conj(psi2) psi1.

    |conj(psi2) psi1| is a Gaussian with the precision-weighted center of
    the two states and variance width^2 = 2/(1/dq2^2 + 1/dq1^2), so a
    Gauss-Hermite rule of scale sqrt(2) width carries it exactly as its
    weight; the order grows with the e^{i q (p1 - p2)/hbar} oscillation the
    rule must resolve, and stays within the finite Gauss-Hermite orders.
    With check, an error estimate above 1e-6 |value| raises
    QuadratureNotConverged.
    """
    p2 = wavefn.WavefnParams.from_labels(Labels.from_z(u2, z2), c)
    p1 = wavefn.WavefnParams.from_labels(Labels.from_z(u1, z1), c)
    w2, w1 = 1.0 / p2.moments.dq**2, 1.0 / p1.moments.dq**2
    center = (w2 * p2.moments.q0 + w1 * p1.moments.q0) / (w2 + w1)
    width = math.sqrt(2.0 / (w2 + w1))
    dp = abs(p2.moments.p0 - p1.moments.p0) / c.hbar
    order = min(quadmod._MAX_ORDER // 2, 96 + int((2.0 * width * dp) ** 2))
    spec = quadmod.QuadratureSpec(
        quadmod.QuadKind.GAUSS_HERMITE, order, center=(center, 0.0),
        scale=(math.sqrt(2.0) * width, 1.0), rel_tol=1e-6)
    return quadmod.integrate_line(
        lambda q: np.conj(wavefn.psi(q, p2)) * wavefn.psi(q, p1),
        spec, check=check)


@register("kernels.oracle_triangle")
def _check_oracle_triangle(cfg):
    c = cfg.constants
    worst, wpt = 0.0, None
    npairs = 0
    pairs = _pair_grid()
    for (z2, u2, z1, u1), via_fock in zip(pairs, fock_overlaps(pairs, 192)):
        closed = kernels.squeezed_overlap(z2, u2, z1, u1).value
        via_quad = quad_overlap(z2, u2, z1, u1, c).value
        err = max(abs(closed - via_fock), abs(closed - via_quad),
                  abs(via_fock - via_quad))
        npairs += 1
        if err > worst:
            worst, wpt = err, (z2, u2, z1, u1)
    return [_result(cfg, "kernels.oracle_triangle", worst,
                    {"pairs": npairs, "worst_at": repr(wpt)})]


@register("kernels.matrix_element_vs_fock")
def _check_matrix_element(cfg):
    dim = 192
    worst = 0.0
    cases = [(0.4j, 1 + 0.5j, -0.2), (0.3, 0.5 - 1j, 0.5j),
             (-0.6j, 2.0, 0.55), (0.0, 1 + 1j, 0.0)]
    for zeta2, u, zeta1 in cases:
        left = fock._exp_adag2_lower(zeta2 / 2.0, dim).conj().T
        right = fock._exp_adag2_lower(zeta1 / 2.0 + 0j, dim)
        val_f = (left @ fock.displacement(u, dim) @ right)[0, 0]
        val_c = kernels.general_matrix_element(zeta2, u, zeta1)
        worst = max(worst, abs(val_f - val_c))
    return [_result(cfg, "kernels.matrix_element_vs_fock", worst)]


@register("kernels.displacement_composition")
def _check_disp_composition(cfg):
    n = cfg.fock_dim
    worst = 0.0
    for u2, u1 in ((1.0, 1j), (1 + 1j, -0.5 + 0.2j), (0.0, 1.5)):
        comp = kernels.displacement_composition(u2, u1)
        lhs = fock.displacement(u2, n).conj().T @ fock.displacement(u1, n)
        rhs = comp.phase * fock.displacement(comp.shifted, n)
        worst = max(worst, fock.top_block_norm(lhs - rhs, n // 2))
    return [_result(cfg, "kernels.displacement_composition", worst)]


@register("kernels.compose")
def _check_compose(cfg):
    coh = abs(kernels.reproducing_compose(0.0, 1 + 0.5j, 0.0, -0.3j, 0.0)
              - kernels.coherent_overlap(1 + 0.5j, -0.3j).value)
    sq = abs(kernels.reproducing_compose(0.4, 0.5, 0.2j, -0.3 + 0.2j, 0.3)
             - kernels.squeezed_overlap(0.4, 0.5, 0.2j, -0.3 + 0.2j).value)
    return [
        _result(cfg, "kernels.compose_coherent", coh),
        _result(cfg, "kernels.compose_squeezed", sq),
    ]


@register("kernels.diagonal_kernel_reconstruction")
def _check_diag_kernel(cfg):
    from .params import squeezed_frame_label

    c = cfg.constants
    dim, block = 32, 8
    worst, wpt = 0.0, None
    for z in (0.0, 0.4):
        z = complex(z)
        az = fock.squeezed_annihilator(z, dim)
        us, tw, psi = _plane_states(_roi_spec(z, order=96), 96, z, dim)
        wz = np.array([squeezed_frame_label(uu, z) for uu in us])
        for name in ("I", "N", "Q", "P", "Q2", "P2", "QP"):
            op = kernels.quadrature_observable(name, z, c)
            kern = kernels.diagonal_kernel(op, z)
            weights = kern.evaluate(wz) * tw
            rec = (psi * weights) @ psi.conj().T
            direct = op.to_matrix(az)
            err = float(np.max(np.abs(rec[:block, :block]
                                      - direct[:block, :block])))
            if err > worst:
                worst, wpt = err, (name, z)
    return [_result(cfg, "kernels.diagonal_kernel_reconstruction", worst,
                    {"worst_at": repr(wpt)})]


@register("kernels.variable_change")
def _check_variable_change(cfg):
    """Mixed second derivative re-expressed across the frame change."""
    rng = np.random.Generator(np.random.Philox(cfg.seed + 1))
    worst = 0.0
    jac_worst = 0.0
    for r, th in ((0.4, 0.0), (0.8, math.pi / 3), (1.1, math.pi / 2)):
        ch, sh = math.cosh(r), math.sinh(r)
        s = cmath.exp(1j * th) * sh
        coeffs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        poly = kernels.PolySymbol(coeffs)
        # to the squeezed frame: w = ch u - s ubar, wbar = -conj(s) u + ch ubar
        in_frame = poly.substitute_linear(ch, s, np.conj(s), ch)
        lhs = in_frame.mixed_derivative().substitute_linear(
            ch, -s, -np.conj(s), ch)
        half = cmath.exp(1j * th) * math.sinh(2 * r) / 2.0
        d_uu = poly_second(poly, "uu")
        d_bb = poly_second(poly, "bb")
        d_ub = poly.mixed_derivative()
        rhs = d_uu * half + d_bb * np.conj(half) \
            + d_ub * math.cosh(2 * r)
        scale = float(np.max(np.abs(rhs.coeffs))) + 1.0
        worst = max(worst, lhs.max_abs_diff(rhs) / scale)
        det = ch * ch - (s * np.conj(s)).real
        jac_worst = max(jac_worst, abs(abs(det) - 1.0))
    return [
        _result(cfg, "kernels.variable_change", worst),
        _result(cfg, "kernels.jacobian_unit", jac_worst),
    ]


def poly_second(poly: kernels.PolySymbol, which: str) -> kernels.PolySymbol:
    """d^2/dw^2 ("uu") or d^2/dwbar^2 ("bb") of a PolySymbol."""
    a = poly.coeffs
    if which == "uu":
        if a.shape[0] < 3:
            return kernels.PolySymbol(np.zeros((1, 1)))
        j = np.arange(2, a.shape[0])[:, None]
        return kernels.PolySymbol(a[2:, :] * j * (j - 1))
    if a.shape[1] < 3:
        return kernels.PolySymbol(np.zeros((1, 1)))
    k = np.arange(2, a.shape[1])[None, :]
    return kernels.PolySymbol(a[:, 2:] * k * (k - 1))


# ------------------------------------------------------------- quadrature


@register("quadrature.determinism")
def _check_quad_determinism(cfg):
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                  24, rel_tol=1e-8)

    def f(u):
        return np.exp(-np.abs(u) ** 2 + 0.3 * u)

    r1 = quadmod.integrate_plane(f, spec, check=False)
    r2 = quadmod.integrate_plane(f, spec, check=False)
    mspec = quadmod.QuadratureSpec(quadmod.QuadKind.MONTE_CARLO, 4096,
                                   rel_tol=1.0, seed=cfg.seed)
    m1 = quadmod.integrate_plane(f, mspec, check=False)
    m2 = quadmod.integrate_plane(f, mspec, check=False)
    identical = (r1.value == r2.value and r1.est_error == r2.est_error
                 and m1.value == m2.value)
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


@register("quadrature.monte_carlo_agreement")
def _check_quad_mc(cfg):
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                  32, rel_tol=1e-8)
    mspec = quadmod.QuadratureSpec(quadmod.QuadKind.MONTE_CARLO, 200_000,
                                   rel_tol=1.0, seed=cfg.seed)

    def f(u):
        return np.exp(-np.abs(u) ** 2) * (1.0 + u * np.conj(u))

    gh = quadmod.integrate_plane(f, spec, check=False)
    mc = quadmod.integrate_plane(f, mspec, check=False)
    # agreement within 5 standard errors of the MC estimate
    return [_result(cfg, "quadrature.monte_carlo_agreement",
                    abs(mc.value - gh.value) / (5.0 * mc.est_error))]


# ---------------------------------------------------------------- canaries


@register("canary.g2_sign_flip")
def _canary_g2(cfg):
    z2, u2, z1, u1 = 0.5 * cmath.exp(1j * math.pi / 4), 1.0, 0.3, -1j
    good = kernels.squeezed_overlap(z2, u2, z1, u1)
    # corrupt: flip the sign of the Gaussian quadratic form
    corrupt = good.parts.prefactor * good.parts.symplectic_phase \
        / good.parts.gaussian
    oracle = fock_overlaps([(z2, u2, z1, u1)], 160)[0]
    return [_canary(cfg, "canary.g2_sign_flip", abs(corrupt - oracle))]


@register("canary.thetabar_branch")
def _canary_thetabar(cfg):
    c = cfg.constants
    lab = Labels(u0=0, r=0.7, theta=1.1)
    p = wavefn.WavefnParams.from_labels(lab, c)
    vac = wavefn.WavefnParams.from_labels(Labels(), c)
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.GAUSS_HERMITE, 96,
                                  scale=(3.0, 1.0), rel_tol=1e-8)
    # corrupt: the other half-angle branch flips the sign of the prefactor
    rep = quadmod.integrate_line(
        lambda q: np.conj(wavefn.psi(q, vac)) * (-wavefn.psi(q, p)),
        spec, check=False)
    expected = math.cosh(lab.r) ** -0.5
    return [_canary(cfg, "canary.thetabar_branch", abs(rep.value - expected))]


@register("canary.missing_center_phase")
def _canary_center_phase(cfg):
    c = cfg.constants
    lab = Labels(u0=1 + 1j, r=0.4, theta=0.9)
    p = wavefn.WavefnParams.from_labels(lab, c)
    qs = np.linspace(-4, 5, 65)
    corrupt = wavefn.psi(qs, p) * cmath.exp(0.5j * p.moments.q0
                                            * p.moments.p0 / c.hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fock.TruncationWarning)
        st = fock.saturating_state(lab, cfg.fock_dim)
    synth = wavefn.synthesize(qs, st.amps, c)
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
    oracle = fock_overlaps([(z2, u2, z1, u1)], 160)[0]
    return [_canary(cfg, "canary.dropped_prefactor", abs(corrupt - oracle))]


# ------------------------------------------------------------------ suite


def run_suite(cfg: VerifyConfig | None = None,
              only: list[str] | None = None) -> list[CheckResult]:
    """Execute registered checks (optionally filtered by glob patterns).

    Exceptions inside a check become failed results; the suite always runs
    to completion.  Results are sorted by check_id.
    """
    cfg = cfg or VerifyConfig()
    results: list[CheckResult] = []
    for check_id, fn in _REGISTRY:
        if only and not any(fnmatch.fnmatch(check_id, pat) for pat in only):
            continue
        t0 = time.perf_counter()
        try:
            partial = fn(cfg)
        except Exception as exc:  # noqa: BLE001 - report, never abort
            partial = [CheckResult(check_id=check_id,
                                   params={"error": repr(exc)},
                                   measured=math.inf, bound=0.0,
                                   passed=False, runtime_ms=0.0)]
        dt = 1e3 * (time.perf_counter() - t0)
        for res in partial:
            results.append(CheckResult(
                check_id=res.check_id, params=res.params,
                measured=res.measured, bound=res.bound, passed=res.passed,
                runtime_ms=res.runtime_ms or dt / len(partial)))
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
