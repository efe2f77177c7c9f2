"""Truncated Fock-space oracle: dense operator matrices and state vectors.

Everything here is a brute-force check on the closed forms elsewhere in the
package.  Operators are plain complex N x N arrays on the basis
{|0>, ..., |N-1>} (rows index the bra <m|, columns the ket |n>): ladder
matrices for the reference mode, displacement and squeeze operators built
both by matrix exponential (slow, generic) and by their normal-ordered
factorizations (fast, exact triangular/diagonal entries).  States are
plain complex amplitude arrays, one state per 1-D array or one per row of a
2-D block; tail_mass reads their weight in the top levels.  The saturating
states |state(u0, z)> = D(u0) S(z) |0> come from one two-photon recurrence,
saturating_state_batch, in O(N) per state (the dense product D(u0) S(z)|0>
is kept only as its oracle in verify), and sr_ur_check reads each state's
second moments and Schrodinger-Robertson slack.

All identities on a truncated space hold only on an upper-left block; the
callers assert on blocks whose columns have converged well inside the box,
where truncation backflow is exponentially suppressed for the
Gaussian-type states used here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .params import (Constants, Moments, OutOfDomain, lambda0, squeeze_axes,
                     squeeze_zeta)

_TAIL_WINDOW = 8


def tail_mass(amps: np.ndarray) -> float | np.ndarray:
    """Probability weight in the top 8 levels, the last axis of amps.

    A float for one state, one value per row for a (k, dim) block of
    states.  It bounds how much the truncation can corrupt identities
    involving the state.
    """
    tail = np.sum(np.abs(np.asarray(amps)[..., -_TAIL_WINDOW:]) ** 2, axis=-1)
    return float(tail) if np.ndim(tail) == 0 else tail


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise OutOfDomain(f"Fock dimension must be >= 2, got {dim}")


def _lgfact(n: int) -> np.ndarray:
    """ln(k!) for k = 0..n, from math.lgamma."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices: a[n-1, n] = sqrt(n)."""
    _check_dim(dim)
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    return a, a.conj().T.copy()


def position(dim: int, c: Constants = Constants()) -> np.ndarray:
    """Q = ell0 (a + a^dag)/sqrt(2)."""
    a, adag = ladder(dim)
    return c.ell0 * (a + adag) / math.sqrt(2.0)


def momentum(dim: int, c: Constants = Constants()) -> np.ndarray:
    """P = -i hbar (a - a^dag)/(ell0 sqrt(2))."""
    a, adag = ladder(dim)
    return -1j * c.hbar * (a - adag) / (c.ell0 * math.sqrt(2.0))


def basis_state(dim: int, n: int) -> np.ndarray:
    _check_dim(dim)
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return amps


def _exp_adag2_lower(half: complex, dim: int, dtype=complex,
                     cols: int | None = None) -> np.ndarray:
    """exp(half a^dag^2): entries [n+2k, n] = half^k sqrt((n+2k)!/n!)/k!.

    Built by the multiplicative recurrence along k so each entry carries
    only O(sqrt(k)) rounding steps; with dtype=np.clongdouble the entries
    are accurate enough that the huge cancelling sums in the factored
    squeeze product still leave ~1e-12 in the result.  Each column's
    recurrence runs alone, so cols < dim builds the first cols columns,
    a dim x cols array, bit for bit those of the full build; and each
    entry is the same at any dim it fits in.
    """
    cols = dim if cols is None else cols
    out = np.eye(dim, cols, dtype=dtype)
    if half == 0:
        return out
    real_t = np.longdouble if dtype == np.clongdouble else float
    vals = np.ones(cols, dtype=dtype)  # vals[n] at current k
    hh = dtype(half)
    # [n + 2k, n] is entry 2k cols + n (cols + 1) of the flattened output
    flat = out.reshape(-1)
    for kk in range(1, (dim - 1) // 2 + 1):
        n = np.arange(min(cols, dim - 2 * kk))
        step = np.sqrt(((n + 2 * kk - 1) * (n + 2 * kk)).astype(real_t))
        vals = vals[:n.size] * hh * step / real_t(kk)
        flat[2 * kk * cols::cols + 1][:n.size] = vals
    return out


def _real_gauge(offdiag: np.ndarray,
                keep: int) -> tuple[np.ndarray, np.ndarray]:
    """|offdiag| and the first keep entries of the gauge that makes it real.

    H, Hermitian tridiagonal with a zero diagonal and offdiag below it, is
    gauge * R * conj(gauge) for the real symmetric R with |offdiag| below
    the diagonal, so a block of exp(-i H) is that of exp(-i R), regauged.
    """
    absoff = np.abs(offdiag)
    phase = np.divide(offdiag, absoff, out=np.ones(offdiag.shape, complex),
                      where=absoff > 0)
    return absoff, np.concatenate(([1.0 + 0j], np.cumprod(phase[:keep - 1])))


def _exp_neg_i_tridiag(offdiag: np.ndarray, keep: int) -> np.ndarray:
    """Upper-left keep x keep block of exp(-i H), H as for _real_gauge.

    np.linalg.eigh of the whole of R, as a dense matrix, gives a
    machine-accurate unitary; only its first keep rows are rebuilt, as two
    real products because the eigenvectors are real.
    """
    absoff, gauge = _real_gauge(offdiag, keep)
    w, v = np.linalg.eigh(np.diag(absoff, -1))
    rows = v[:keep]
    core = (rows * np.cos(w)) @ rows.T - 1j * ((rows * np.sin(w)) @ rows.T)
    return (gauge[:, None] * core) * gauge.conj()[None, :]


def _exp_neg_i_chebyshev(offdiag: np.ndarray, keep: int) -> np.ndarray:
    """The block of _exp_neg_i_tridiag as a Chebyshev sum, with no LAPACK call.

    R has its spectrum in [-rho, rho], rho = 2 max |offdiag|, and
    exp(-i rho x) = sum_k c_k T_k(x) with c_k = (2 - [k = 0]) (-i)^k J_k(rho)
    (Jacobi-Anger), read off an FFT of exp(-i rho cos t) and cut once
    |c_k| < 1e-17, a little past k = rho.  T_k(R / rho) on the first keep
    unit vectors follows the three-term recurrence through the two
    diagonals of R.  Its rounding grows like rho eps, so it suits narrow
    spectra.  It makes no LAPACK call and so starts no BLAS thread: at 2
    BLAS threads on a busy 2-core machine, a dense eigh of 32 to 113 levels
    took 16-230 ms after a pause, against under 2 ms at 1 thread.
    """
    absoff, gauge = _real_gauge(offdiag, keep)
    rho = 2.0 * absoff.max()
    if rho == 0:
        return np.eye(keep, dtype=complex)
    npts = 4 * math.ceil(rho) + 64
    t = 2 * np.pi * np.arange(npts) / npts
    c = np.fft.fft(np.exp(-1j * rho * np.cos(t)))[:npts // 2] * (2.0 / npts)
    c[0] /= 2
    g = (2.0 / rho) * absoff[:, None]
    # c_k is real at even k and imaginary at odd k: they sum apart
    parts = [c[0].real * np.eye(keep), np.zeros((keep, keep))]
    n = absoff.size + 1
    prev, cur = np.zeros((n, keep)), np.eye(n, keep)
    for k in range(1, np.flatnonzero(np.abs(c) >= 1e-17)[-1] + 1):
        # T_k = 2 (R / rho) T_{k-1} - T_{k-2} (T_1 = (R / rho) T_0),
        # which vanishes below row keep + k
        m = min(n, keep + k)
        p, q = prev[:m], cur[:m]
        f = g[:m - 1] if k > 1 else 0.5 * g[:m - 1]
        p *= -1.0
        p[1:] += f * q[:-1]
        p[:-1] += f * q[1:]
        prev, cur = cur, prev
        parts[k % 2] += (c[k].imag if k % 2 else c[k].real) * cur[:keep]
    core = parts[0] + 1j * parts[1]
    return (gauge[:, None] * core) * gauge.conj()[None, :]


def _displacement_inner_dim(u0: complex, dim: int) -> int:
    mag = abs(u0)
    return dim + math.ceil(4.0 * mag * math.sqrt(dim) + mag * mag) + 32


def _squeeze_inner_dim(z: complex, dim: int) -> int:
    r = abs(z)
    return math.ceil(dim * (math.cosh(2 * r) + 1.5 * math.sinh(2 * r))) + 32


def displacement(u0: complex, dim: int,
                 cols: int | None = None) -> np.ndarray:
    """D(u0) = e^{-|u0|^2/2} e^{u0 a^dag} e^{-conj(u0) a} in closed form.

    The normal-ordered product collapses, entry by entry, to a single finite
    sum: an associated Laguerre polynomial in |u0|^2 times a log-scaled
    prefactor.  Evaluating that sum through the Laguerre recurrence (one
    sweep over the degree, vectorized across orders) avoids the huge
    cancelling intermediates the raw triangular-matrix product produces at
    large (m, n); entry (m, n) reads order |m - n| at degree min(m, n).
    Unitary on the upper-left block where columns have converged within
    the truncation.  Each entry is the same at any dim it fits in, so
    displacement(u0, b) is displacement(u0, dim)[:b, :b] bit for bit; with
    cols the recurrence stops at degree cols - 1 and the dim x cols result
    is displacement(u0, dim)[:, :cols] bit for bit.
    """
    _check_dim(dim)
    cols = dim if cols is None else cols
    u0 = complex(u0)
    if u0 == 0:
        return np.eye(dim, cols, dtype=complex)
    x = abs(u0) ** 2
    # lag[n, k] = L_n^{(k)}(x) for all orders k at once; the recurrence's
    # coefficients at degree n are alpha[n] and beta[n]
    kvec = np.arange(dim, dtype=float)
    nvec = np.arange(cols)[:, None]
    alpha = 2 * nvec + 1 + kvec - x
    beta = nvec + kvec
    lag = np.empty((cols, dim))
    lag[0] = 1.0
    if cols > 1:
        lag[1] = alpha[0]
    for n in range(1, cols - 1):
        lag[n + 1] = (alpha[n] * lag[n] - beta[n] * lag[n - 1]) / (n + 1)
    lg = _lgfact(dim - 1)
    levels = np.arange(dim)
    diff = levels[:, None] - levels[None, :cols]
    order = np.abs(diff)
    degree = np.minimum(levels[:, None], levels[None, :cols])
    mag = np.exp(-0.5 * x + order * math.log(abs(u0))
                 + 0.5 * (lg[degree] - lg[degree + order])) \
        * lag[degree, order]
    # <m|D|n> carries phase^(m-n) below the diagonal, (-conj phase)^(n-m) above
    phase = u0 / abs(u0)
    powers = [(-np.conj(phase))**k for k in range(dim - 1, 0, -1)] \
        + [phase**k for k in range(dim)]
    return np.array(powers)[diff + dim - 1] * mag


def displacement_exp(u0: complex, dim: int) -> np.ndarray:
    """Oracle path: matrix exponential of u0 a^dag - conj(u0) a.

    Evaluated as a Chebyshev sum in the (tridiagonal, anti-Hermitian)
    generator on an enlarged space so that every returned entry has
    converged; only the returned dim x dim block is built.  The spectrum
    lies within +-2 |u0| sqrt(inner), so the sum keeps to rounding.
    """
    _check_dim(dim)
    u0 = complex(u0)
    inner = _displacement_inner_dim(u0, dim)
    # i (u0 a^dag - conj(u0) a) is Hermitian tridiagonal
    off = 1j * u0 * np.sqrt(np.arange(1, inner, dtype=float))
    return _exp_neg_i_chebyshev(off, dim)


def squeeze_exp(z: complex, dim: int) -> np.ndarray:
    """Oracle path: matrix exponential of (z a^dag^2 - conj(z) a^2)/2.

    The generator splits over even/odd parity into Hermitian tridiagonal
    blocks; each is diagonalized exactly on an enlarged space (so the
    returned block is free of truncation backflow), and only its levels
    below dim are rebuilt, straight into the dim x dim result.
    """
    _check_dim(dim)
    z = complex(z)
    if z == 0:
        return np.eye(dim, dtype=complex)
    inner = _squeeze_inner_dim(z, dim)
    out = np.zeros((dim, dim), dtype=complex)
    n = np.arange(inner, dtype=float)
    coupling = 0.5j * z * np.sqrt((n + 1) * (n + 2))  # i G at [n+2, n]
    for parity in (0, 1):
        levels = np.arange(parity, inner, 2)
        out[parity::2, parity::2] = _exp_neg_i_tridiag(
            coupling[levels[:-1]], (dim - parity + 1) // 2)
    return out


def _squeeze_frame(z: complex) -> tuple[float, complex, complex]:
    """(cosh r, e^{i theta} sinh r, zeta = e^{i theta} tanh r) of z = r e^{i theta}.

    The Bogoliubov coefficients of the squeezed mode a(z) = cosh(r) a -
    e^{i theta} sinh(r) a^dag and their ratio zeta, from which the Fock
    oracles build a(z) and S(z)|0>.  The closed forms read cosh(r) x -
    e^{i theta} sinh(r) conj(x) from params.squeezed_components instead,
    which does not cancel.
    """
    z = complex(z)
    r = abs(z)
    if r == 0:
        return 1.0, 0j, 0j
    ph = z / r
    return math.cosh(r), ph * math.sinh(r), squeeze_zeta(r, ph)


def _squeezed_vacuum_column(z: complex, dim: int) -> np.ndarray:
    """S(z)|0> amplitudes: (cosh r)^{-1/2} (zeta/2)^k sqrt((2k)!)/k! at level 2k."""
    ch, _, zeta = _squeeze_frame(z)
    v = np.zeros(dim, dtype=complex)
    if zeta == 0:
        v[0] = 1.0
        return v
    lg = _lgfact(dim - 1)
    kmax = (dim - 1) // 2
    k = np.arange(kmax + 1)
    logs = k * np.log(zeta / 2.0) + 0.5 * lg[2 * k] - lg[k]
    v[2 * k] = np.exp(logs - 0.5 * math.log(ch))
    return v


def _squeeze_product(z: complex, dim: int, reverse: bool,
                     keep: int | None = None) -> np.ndarray:
    """exp(zeta a^dag^2/2), e^{+-gamma K0} and exp(-conj(zeta) a^2/2), multiplied.

    gamma = ln(1 - |zeta|^2) = -2 ln cosh r; the normal order
    (lower @ mid @ upper) uses +gamma, the reversed order
    (upper @ mid @ lower) -gamma.  Every factor couples only levels of equal
    parity, so the product is formed as one even and one odd block.
    Factors and products run in extended precision.  With keep, only the
    first keep columns of each lower factor are built.  They fix the
    product's first keep columns in the normal order, whose upper factor
    is triangular, and its upper-left keep x keep block in the reversed
    order, which is what is returned.  Each entry is a sum over the same
    terms in the same order as in the full build, so its bits are too.
    """
    _check_dim(dim)
    keep = dim if keep is None else keep
    z = complex(z)
    r = abs(z)
    if r == 0:
        return np.eye(keep if reverse else dim, keep, dtype=complex)
    zeta = squeeze_zeta(r, z / r)
    ld = np.clongdouble
    # the levels that the middle factor spans: the upper factor's first
    # keep columns have no entry below row keep
    inner = dim if reverse else keep
    lower = _exp_adag2_lower(ld(zeta / 2.0), dim, ld, keep)
    # exp(-conj(zeta) a^2/2) = exp(-zeta a^dag^2/2)^dagger
    upper = _exp_adag2_lower(ld(-zeta / 2.0), inner, ld, keep).conj().T
    # ln cosh r = r + ln(1 + e^{-2r}) - ln 2 does not cancel at large r,
    # where 1 - tanh^2 r does
    rl = np.longdouble(r)
    gamma = -2 * (rl + np.log1p(np.exp(-2 * rl)) - np.log(np.longdouble(2)))
    if reverse:
        gamma = -gamma
    mid = np.exp(gamma * (np.arange(inner) + 0.5) / 2.0)
    out = np.zeros((keep if reverse else dim, keep), dtype=complex)
    for parity in (0, 1):
        lo, md, up = (lower[parity::2, parity::2], mid[parity::2],
                      upper[parity::2, parity::2])
        out[parity::2, parity::2] = (up * md[None, :]) @ lo if reverse \
            else (lo * md[None, :]) @ up
    return out


def squeeze_factored(z: complex, dim: int,
                     cols: int | None = None) -> np.ndarray:
    """S(z) as exp(zeta a^dag^2/2) exp(ln(1-|zeta|^2)(a^dag a + 1/2)/2) exp(-conj(zeta) a^2/2).

    zeta = e^{i theta} tanh r.  Every entry with (m, n) < dim is
    truncation-exact (the left factor only lowers, the right only raises,
    so each sum stops at min(m, n)): squeeze_factored(z, b) is
    squeeze_factored(z, dim)[:b, :b] bit for bit, and with cols the
    dim x cols result is squeeze_factored(z, dim)[:, :cols] bit for bit,
    built from the first cols columns of each factor.  But each entry is
    a sum whose terms grow with the levels and cancel.  The products run
    in extended precision, which converges only on a fixed upper-left
    block whatever dim is: against squeeze_exp the entries with m, n < 64
    agree to about 3e-11 for r <= 1.2, and at r = 0.25 those below about
    125 to 1e-9.  Past that block they are cancellation noise, about 1e17
    at [255, 255] for dim = 256 and r = 1, where a unitary's entries are
    at most 1.  The checks build only what they read: the comparison with
    squeeze_exp builds it at dim = 64, the block it compares, the
    truncation-decay check at the 24 x 24 block it compares, and the
    unitarity check builds the columns whose Gram it forms.
    """
    return _squeeze_product(z, dim, reverse=False, keep=cols)


def squeeze_factored_reversed(z: complex, dim: int,
                              keep: int | None = None) -> np.ndarray:
    """Dual-order factorization exp(-conj(zeta) a^2/2) e^{-gamma K0} exp(zeta a^dag^2/2).

    Equal to squeeze_factored(z, dim) as an operator identity; on the number
    basis it converges only at small r and low levels (see verify's
    fock.squeeze_dual_order check).  It is not truncation-exact: each entry
    sums over all dim levels.  With keep, only the upper-left keep x keep
    block is returned, squeeze_factored_reversed(z, dim)[:keep, :keep] bit
    for bit, from the first keep columns of each factor; the dual-order
    check builds its 16 x 16 block so at dim = 128.
    """
    return _squeeze_product(z, dim, reverse=True, keep=keep)


def squeezed_annihilator(z: complex, dim: int) -> np.ndarray:
    """a(z) = cosh(r) a - e^{i theta} sinh(r) a^dag (Bogoliubov transform).

    Its two off-diagonals are written straight into a zeroed array.
    """
    _check_dim(dim)
    ch, s, _ = _squeeze_frame(z)
    root = np.sqrt(np.arange(1, dim, dtype=float))
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    flat[1::dim + 1] = ch * root
    flat[dim::dim + 1] = -s * root
    return out


def _half_turn(z: complex) -> tuple:
    """(cos(theta/2), sin(theta/2)) of z = r e^{i theta}, theta in (-pi, pi].

    In extended precision from z itself: a rotation by the rounded theta
    would move a label u by |u| eps theta.
    """
    a, b = np.longdouble(z.real), np.longdouble(z.imag)
    rho = np.hypot(a, b)
    if a >= 0:
        c = np.sqrt((rho + a) / (2 * rho))
        return c, b / (2 * rho * c)
    s = np.copysign(np.sqrt((rho - a) / (2 * rho)), b)
    return b / (2 * rho * s), s


def _frame_params(z):
    """(tanh r, 1 - tanh r, 1 + tanh r, ln cosh r, cos(theta/2), sin(theta/2), theta).

    Of z = r e^{i theta}, or of each z in an array, for which each parameter
    is an array of z's shape, evaluated once per distinct z.  theta is 0 on
    the real axis's non-negative half, -0.0 and a -0.0 imaginary part
    included.
    """
    if np.ndim(z) == 0:
        z = complex(z)
        if z.imag == 0 and z.real >= 0:
            return (*squeeze_axes(z.real), 1.0, 0.0, 0.0)
        return (*squeeze_axes(abs(z)), *_half_turn(z),
                math.atan2(z.imag, z.real))
    zs = np.asarray(z, dtype=complex)
    # distinct by bit pattern: == merges -x + 0j with -x - 0j, whose theta
    # are pi and -pi
    index = {}
    take = [index.setdefault(key, len(index))
            for key in np.ascontiguousarray(zs).view("V16").ravel().tolist()]
    cols = zip(*map(_frame_params, np.frombuffer(b"".join(index), complex)))
    return tuple(np.asarray(col)[take].reshape(zs.shape) for col in cols)


def _frame_start(us, t, omt, opt, log_ch, c, s, theta):
    """beta and c_0 of the recurrence for the labels x + iy = e^{-i theta/2} us."""
    x, y = us.real, us.imag
    if np.any(theta != 0):
        # the exponent of c_0 reaches t |u|^2/2, so rounding x and y to
        # doubles would cost t |u|^2 eps in it; rotated and summed in
        # extended precision, only the rounding of t and of the sum is left
        x, y = x.astype(np.longdouble), y.astype(np.longdouble)
        x, y = x * c + y * s, y * c - x * s
    bx, by = x * omt, y * opt
    beta = bx.astype(float, copy=False) + 1j * by.astype(float, copy=False)
    log_c0 = -0.5 * (x * bx + y * by) - 0.5 * log_ch
    phase = (t * x) * y
    return beta, np.exp(log_c0.astype(float, copy=False)
                        - 1j * phase.astype(float, copy=False))


def saturating_state_batch(
    u0s: np.ndarray,
    z: complex | np.ndarray,
    dim: int = 128,
) -> np.ndarray:
    """Amplitudes <m|D(u0) S(z)|0>, m < dim, for many u0: the two-photon recurrence.

    u0s is an array of labels of any shape, and z any array of squeezes
    that broadcasts to it: one squeeze for every node (a quadrature over
    the u0 plane), one per node (many labelled states at once), or, for
    (k, n) nodes, a (k, 1) array of one squeeze per row (the plane rules of
    k squeezes in one call, as oracles._plane_states builds them).  Each
    node's amplitudes are bit-identical in every layout.

    With z = r e^{i theta}, S(z) = R S(r) R^dag and D(u) = R D(x + iy) R^dag
    for R = e^{i theta N/2} and x + iy = e^{-i theta/2} u, so row m is
    e^{i m theta/2} times the amplitude at real squeeze r and label x + iy.
    There, with t = tanh r and beta = x(1 - t) + iy(1 + t) (Yuen 1976):
        c_0     = (cosh r)^{-1/2} exp(-(x^2(1 - t) + y^2(1 + t))/2 - i t x y)
        c_{m+1} = (beta c_m + sqrt(m) t c_{m-1}) / sqrt(m+1).
    This is the lab-frame c_0 = (cosh r)^{-1/2} exp(-|u|^2/2 + zeta conj(u)^2/2)
    with its phase, but nothing in it cancels: the real exponent is
    -(x Re beta + y Im beta)/2, a sum of two terms <= 0.
    The amplitudes are exact for every m < dim (no truncation enters), and
    the forward sweep is stable: the wanted solution is the dominant one.
    |c_0| <= 1, so far nodes underflow to zeros, never to NaN.

    Returns a (dim, u0s.size) array, one column per node of u0s.ravel(),
    O(dim) per node; its columns are strided, so a caller that hands states
    to BLAS products takes the rows of np.ascontiguousarray(amps.T).
    """
    if dim < 1:
        raise OutOfDomain(f"row count must be >= 1, got {dim}")
    us = np.atleast_1d(np.asarray(u0s, dtype=complex))
    zshape = np.shape(z)
    if len(zshape) > us.ndim or any(
            n not in (1, m) for n, m in zip(zshape[::-1], us.shape[::-1])):
        raise OutOfDomain(f"squeezes of shape {zshape} do not broadcast "
                          f"to displacements of shape {us.shape}")
    params = _frame_params(z)
    t, theta = params[0], params[-1]
    out = np.empty((dim, *us.shape), dtype=complex)
    turned = np.broadcast_to(theta != 0, us.shape)
    if turned.all() or not turned.any():
        beta, out[0] = _frame_start(us, *params)
    else:
        # nodes at real z take the double path, as each does alone
        beta = np.empty(us.shape, dtype=complex)
        for sel in (turned, ~turned):
            beta[sel], out[0][sel] = _frame_start(
                us[sel], *(np.broadcast_to(p, us.shape)[sel] for p in params))
    if dim > 1:
        out[1] = beta * out[0]
    for m in range(1, dim - 1):
        out[m + 1] = (beta * out[m] + math.sqrt(m) * t * out[m - 1]) \
            / math.sqrt(m + 1)
    if turned.any():
        # one row of phases per squeeze, broadcast over its nodes
        levels = np.arange(dim).reshape(dim, *(1,) * us.ndim)
        out *= np.exp(0.5j * (levels * theta))
    return out.reshape(dim, us.size)


def defining_residual(
    q: np.ndarray,
    p: np.ndarray,
    psi: np.ndarray,
    m: Moments,
    c: Constants = Constants(),
) -> float:
    """Norm of [(Q - q0) - lambda0 (P - p0)] |psi>.

    q and p are the Q and P matrices at psi.size for the constants c.
    Zero (up to truncation) exactly when the state saturates the SR bound
    with the given moments.
    """
    lam = lambda0(m, c)
    qpsi = q @ psi - m.q0 * psi
    ppsi = p @ psi - m.p0 * psi
    return float(np.linalg.norm(qpsi - lam * ppsi))


@dataclass(frozen=True)
class SecondMoments:
    """<A>, <B>, Var A, Var B and <Abar Bbar> (Abar = A - <A>) of one state."""

    a0: float
    b0: float
    var_a: float
    var_b: float
    cross: complex

    @property
    def slack(self) -> float:
        """Var A Var B - <(-i)[A,B]>^2/4 - <{Abar,Bbar}>^2/4, the SR slack.

        <Abar Bbar> = (<{Abar,Bbar}> + i<(-i)[A,B]>)/2, so the slack is
        Cauchy-Schwarz on Abar|psi> and Bbar|psi>: >= 0 for every state,
        and zero exactly on the states that saturate the SR relation.
        """
        return self.var_a * self.var_b - 0.25 * (2.0 * self.cross.imag) ** 2 \
            - 0.25 * (2.0 * self.cross.real) ** 2

    def as_moments(self) -> Moments:
        """The state's Moments, reading A as Q and B as P."""
        return Moments(q0=self.a0, p0=self.b0, dq=math.sqrt(self.var_a),
                       dp=math.sqrt(self.var_b), corr=2.0 * self.cross.real)


def _second_moments(A: np.ndarray, B: np.ndarray,
                    psi: np.ndarray) -> SecondMoments:
    nrm2 = float(np.vdot(psi, psi).real)
    apsi = A @ psi
    bpsi = B @ psi
    a0 = float(np.vdot(psi, apsi).real) / nrm2
    b0 = float(np.vdot(psi, bpsi).real) / nrm2
    abar = apsi - a0 * psi
    bbar = bpsi - b0 * psi
    return SecondMoments(a0=a0, b0=b0,
                         var_a=float(np.vdot(abar, abar).real) / nrm2,
                         var_b=float(np.vdot(bbar, bbar).real) / nrm2,
                         cross=complex(np.vdot(abar, bbar)) / nrm2)


def sr_ur_check(
    A: np.ndarray,
    B: np.ndarray,
    states: Iterable[np.ndarray],
) -> list[SecondMoments]:
    """Second moments of A and B, and with them the SR slack, per state.

    states are amplitude vectors: a sequence of them, or the rows of a 2-D
    block.  Raises OutOfDomain unless A and B are Hermitian to 1e-12 times
    max(1, largest entry); the test runs once for all states.
    """
    for name, op in (("A", A), ("B", B)):
        dev = np.max(np.abs(op - op.conj().T))
        if dev > 1e-12 * max(1.0, float(np.max(np.abs(op)))):
            raise OutOfDomain(f"operator {name} deviates from Hermitian by {dev:.3e}")
    return [_second_moments(A, B, psi) for psi in states]


def _parity_blocks(mat: np.ndarray, opposite: bool):
    """The two parity blocks of mat if its other two are exactly zero, else None.

    An operator that couples only levels of equal parity (every squeeze)
    is, up to a permutation, the direct sum of mat[0::2, 0::2] and
    mat[1::2, 1::2]; one that couples only levels of opposite parity (a,
    a^dag, a(z)) is made of mat[0::2, 1::2] and mat[1::2, 0::2].  With
    opposite false or true, those two blocks are returned when the other
    two hold no nonzero entry; the test is exact, so a NaN or a stray
    entry there gives None.
    """
    even, odd = mat[0::2], mat[1::2]
    p = int(opposite)
    if even[:, 1 - p::2].any() or odd[:, p::2].any():
        return None
    return even[:, p::2], odd[:, 1 - p::2]


def top_block_norm(mat: np.ndarray, k: int) -> float:
    """Spectral norm of the upper-left k x k block.

    When the block couples only levels of equal parity (every squeeze) or
    only levels of opposite parity (the ladder, a(z)), it is a direct sum
    of its two parity blocks up to a permutation, and its norm is the
    larger of theirs: two SVDs of about k/2 x k/2 in place of one of
    k x k, equal to the dense norm to a few ulp.  Any other block, one
    with a NaN or a stray entry in a quarter that should be zero
    included, takes the dense SVD.  A block that holds a NaN reads NaN,
    where numpy's SVD would raise.
    """
    block = mat[:k, :k]
    halves = None
    if k > 1:
        halves = _parity_blocks(block, opposite=False) \
            or _parity_blocks(block, opposite=True)
    if halves is None:
        return _spectral_norm(block)
    # np.maximum, not max, so that a NaN norm is not dropped
    return float(np.maximum(*(_spectral_norm(h) for h in halves)))


def _spectral_norm(mat: np.ndarray) -> float:
    """np.linalg.norm(mat, 2), or NaN or inf where the SVD fails on a
    non-finite mat."""
    try:
        return float(np.linalg.norm(mat, 2))
    except np.linalg.LinAlgError:
        # the largest modulus: NaN if any entry is, else inf if any is
        top = float(np.max(np.abs(mat)))
        if math.isfinite(top):
            raise
        return top
