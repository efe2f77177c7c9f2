"""Independent oracles for the closed forms: Fock states, line and plane rules.

The verification checks and the CLI's overlap oracles share these.  The
overlap <psi2|psi1> is taken two ways, neither through kernels, the closed
form it checks: on truncated Fock states (fock_overlaps) and as the line
integral of conj(psi2) psi1 (quad_overlap), the one line rule the checks
use.  Plane sums over the labels of squeezed states use the exact frame
rule (_plane_states, _projector, _identity_sums), and the matrix
exponentials of the small-matrix checks use _expm.  This module imports
nothing from kernels or verify.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import fock, wavefn
from . import quadrature as quadmod
from .params import Constants, Labels, OutOfDomain, squeeze_axes


def _state_rows(labels, dim: int) -> np.ndarray:
    """First dim amplitudes of D(u0) S(z)|0> per label, from one recurrence call.

    Row k is label k's state, contiguous, so that BLAS products see the
    same vector as for a state built alone.
    """
    amps = fock.saturating_state_batch([lab.u0 for lab in labels],
                                       [lab.z for lab in labels], dim)
    return np.ascontiguousarray(amps.T)


def fock_overlaps(pairs, dim: int) -> list[tuple[complex, float]]:
    """<state(u2, z2)|state(u1, z1)> on dim Fock levels, per (z2, u2, z1, u1).

    All the states come from one recurrence call; the value is exact up to
    the mass the truncation drops, which the caller's dim must make small.
    Each value comes with the larger fock.tail_mass of its two states, which
    reads how much was dropped.
    """
    fock._check_dim(dim)
    labs = [Labels.from_z(u, z) for z2, u2, z1, u1 in pairs
            for z, u in ((z2, u2), (z1, u1))]
    rows = _state_rows(labs, dim)
    tails = fock.tail_mass(rows)
    return [(complex(np.vdot(rows[k], rows[k + 1])),
             float(max(tails[k], tails[k + 1])))
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
    QuadratureNotConverged.  Raises OutOfDomain where a state's 1/dq^2
    is not finite.  For two equal states psi is evaluated once.
    """
    p2 = wavefn.WavefnParams.from_labels(Labels.from_z(u2, z2), c)
    p1 = wavefn.WavefnParams.from_labels(Labels.from_z(u1, z1), c)
    var2, var1 = p2.moments.dq**2, p1.moments.dq**2
    # a subnormal dq^2 passes > 0, yet its reciprocal overflows
    if not min(var2, var1) > 0 or math.isinf(1.0 / min(var2, var1)):
        raise OutOfDomain("1/dq^2 overflows at these labels")
    w2, w1 = 1.0 / var2, 1.0 / var1
    center = (w2 * p2.moments.q0 + w1 * p1.moments.q0) / (w2 + w1)
    width = math.sqrt(2.0 / (w2 + w1))
    dp = abs(p2.moments.p0 - p1.moments.p0) / c.hbar
    order = min(quadmod._MAX_ORDER // 2, 96 + int((2.0 * width * dp) ** 2))
    spec = quadmod.QuadratureSpec(
        quadmod.QuadKind.GAUSS_HERMITE, order, center=(center, 0.0),
        scale=(math.sqrt(2.0) * width, 1.0), rel_tol=1e-6)

    def integrand(q):
        v1 = wavefn.psi(q, p1)
        return np.conj(v1 if p2 == p1 else wavefn.psi(q, p2)) * v1

    return quadmod.integrate_line(integrand, spec, check=check)


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring of an 18-term Taylor sum (Higham, 2008, ch. 10).

    m/2^s has 1-norm <= 1/2, so the terms past the 18th add under 1e-22;
    the sum stops at its first exactly zero term, as for a nilpotent m.
    """
    m = np.asarray(m, dtype=complex)
    norm, s = np.abs(m).sum(axis=0).max(initial=0.0), 0
    while norm > 2.0 ** (s - 1):
        s += 1
    a = m / 2.0 ** s
    term = out = np.eye(len(m), dtype=complex)
    for k in range(1, 19):
        term = term @ a / k
        if not term.any():
            break
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


# The frame rule scales its x nodes by (1 - tanh r)^{-1/2}; past this |z|
# (about 354.5) 1 - tanh r = 2e^{-2r}/(1 + e^{-2r}) is no longer a normal
# float, and the width leaves the float range with it.
_FRAME_MAX_R = 0.5 * math.log(2.0 / np.finfo(float).tiny)

# resolution_of_identity compares its order with the next one; like every
# Gauss-Hermite spec it takes orders up to 185.
_FRAME_MAX_ORDER = quadmod._MAX_ORDER // 2

# _identity_sums builds the frame sums of at most this many radii from one
# recurrence call: 2048 nodes at order 16.  mu_weighted_identity at the
# default outer order 10 has 15 + 55 radii; blocks of 16 take 10 ms and
# peak at 6.3 MB (tracemalloc, 1 BLAS thread), one call over all 55 of the
# fine rule 19 ms and 7.3 MB.
_Z_BLOCK = 16


def _plane_states(zs, order: int, dim: int):
    """The Gauss-Hermite rule of order on the squeeze-frame widths of each z in zs.

    In the frame of z = r e^{i theta} a label is x + iy = e^{-i theta/2} u,
    and each projector entry <m|u, z><u, z|n> is exp(-x^2(1 - t)
    - y^2(1 + t)) (t = tanh r) times a polynomial of degree <= m + n in x
    and in y (fock.saturating_state_batch).  The tensor rule on the widths
    s_x = (1 - t)^{-1/2} and s_y = (1 + t)^{-1/2}, weighted s_x s_y/pi,
    therefore integrates every entry with m + n <= 2 order - 1 exactly: the
    whole dim x dim block once order >= dim.

    Returns, with one leading row per z, the frame nodes us = x + iy and
    their total weights tw, each (len(zs), size), and the amplitudes
    psi[k, :, i] = <m|us[k, i], |zs[k]|> at the real squeeze |zs[k]| of the
    first (size + 1)//2 nodes, a (len(zs), dim, (size + 1)//2) array, all
    from one recurrence call that broadcasts each row's squeeze |zs[k]|
    over that row's nodes; _lab_block turns sums over them into the lab
    basis.  The centred rule is antisymmetric, us[k, size-1-i] = -us[k, i]
    and tw[k, size-1-i] = tw[k, i] exactly, and |-u, z> = (-1)^N |u, z>
    exactly in the two-photon recurrence, so _projector(psi, w) gives every
    fixed-z projector sum sum_i w_i |psi_i><psi_i| from these columns.
    Raises OutOfDomain, before any amplitude is built, if any |z| is past
    _FRAME_MAX_R.
    """
    rs = [abs(complex(z)) for z in np.ravel(zs)]
    if max(rs) > _FRAME_MAX_R:
        raise OutOfDomain(
            f"|z| = {max(rs):g} is past {_FRAME_MAX_R:.1f}, where 1 - tanh|z| "
            f"and the frame rule's width (1 - tanh|z|)^(-1/2) leave the float "
            f"range")
    widths = [(omt ** -0.5, opt ** -0.5)
              for _, omt, opt, _ in map(squeeze_axes, rs)]
    us, tw = quadmod._frame_nodes(order, *zip(*widths))
    half = (us.shape[1] + 1) // 2
    psi = fock.saturating_state_batch(us[:, :half], np.array(rs)[:, None],
                                      dim)
    return us, tw, psi.reshape(dim, len(rs), half).transpose(1, 0, 2)


def _lab_block(blocks: np.ndarray, zs) -> np.ndarray:
    """D_k blocks[k] D_k^dagger, D_k = diag(e^{i m theta_k/2}): frame sums in the lab basis.

    <m|u, z> = e^{i m theta/2} <m|e^{-i theta/2} u, |z|> for z = r e^{i theta};
    blocks holds one dim x dim sum per z of zs.
    """
    theta = np.array([cmath.phase(complex(z)) for z in np.ravel(zs)])
    if not theta.any():
        return blocks
    d = np.exp(np.multiply.outer(0.5j * theta, np.arange(blocks.shape[-1])))
    return (d[:, :, None] * blocks) * d.conj()[:, None, :]


def _projector(psi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w[k, i] |psi_i><psi_i| over all nodes of a _plane_states rule, per z.

    psi[k] holds the first (size+1)//2 nodes of the k-th z and w[k] one
    weight per node.  Node i and its partner size-1-i = -u_i add w_i +
    w_partner to the entries whose levels have equal parity and w_i -
    w_partner to the others.  An odd rule's centre u = 0 is its own partner
    and has only even levels.  Each parity block is one stacked product
    (psi[:, p::2] f) @ psi[:, q::2]^dagger, and a block whose folded
    weights are all zero is skipped.
    """
    nz, dim, half = psi.shape
    partner = w[:, ::-1][:, :half]
    folds = (w[:, :half] + partner, w[:, :half] - partner)
    if w.shape[1] % 2:
        folds[0][:, -1] = w[:, half - 1]
        folds[1][:, -1] = 0.0
    out = np.zeros((nz, dim, dim), dtype=complex)
    for q in (0, 1):
        right = psi[:, q::2].conj().transpose(0, 2, 1)
        for p in (0, 1):
            f = folds[(p + q) % 2]
            if f.any():
                out[:, p::2, q::2] = (psi[:, p::2] * f[:, None]) @ right
    return out


def _radii(zs):
    """The distinct radii |z| of zs, sorted, and the index of each z's radius.

    |z| is abs(complex(z)), the radius _plane_states builds its rule at;
    np.abs can differ from it in the last bit.
    """
    return np.unique([abs(complex(z)) for z in np.ravel(zs)],
                     return_inverse=True)


def _identity_sums(zs, order: int, dim: int) -> np.ndarray:
    """sum_i w_i |u_i, z><u_i, z| over the frame rule of order, in the lab basis.

    One dim x dim sum per z of zs, each the identity block to rounding once
    order >= dim.  The frame sum depends on z only through |z| until
    _lab_block turns it by z's phase, so one sum is built per distinct
    radius, _Z_BLOCK radii from each _plane_states batch; each z's sum is
    bit-identical to its own call.
    """
    zs = np.ravel(zs)
    rs, inverse = _radii(zs)
    sums = np.empty((rs.size, dim, dim), dtype=complex)
    for k in range(0, rs.size, _Z_BLOCK):
        _, tw, psi = _plane_states(rs[k:k + _Z_BLOCK], order, dim)
        sums[k:k + _Z_BLOCK] = _projector(psi, tw)
    return _lab_block(sums[inverse], zs)
