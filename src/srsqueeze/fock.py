"""Truncated Fock-space oracle: dense operator matrices and state vectors.

Everything here is a brute-force check on the closed forms elsewhere in the
package.  Operators are plain complex N x N arrays on the basis
{|0>, ..., |N-1>} (rows index the bra <m|, columns the ket |n>): ladder
matrices for the reference mode, displacement and squeeze operators built
both by matrix exponential (slow, generic) and by their normal-ordered
factorizations (fast, exact triangular/diagonal entries).  States are
FockVector amplitudes carrying their top-level tail mass; the saturating
state |state(u0, z)> = D(u0) S(z) |0> comes from the two-photon recurrence
in O(N) (the dense product D(u0) S(z)|0> is kept only as its oracle in
verify).

All identities on a truncated space hold only on an upper-left block; the
callers assert on blocks whose columns have converged well inside the box,
where truncation backflow is exponentially suppressed for the
Gaussian-type states used here.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .params import (Constants, Labels, Moments, lambda0, squeeze_frame,
                     squeeze_zeta)

DEFAULT_TAIL_BOUND = 1e-10

_TAIL_WINDOW = 8


class BadDim(ValueError):
    """Fock truncation dimension too small."""


class NotHermitian(ValueError):
    """Operator expected to be Hermitian is not, beyond tolerance."""


class TruncationWarning(UserWarning):
    """State has non-negligible weight in the top Fock levels."""


@dataclass(frozen=True, eq=False)
class FockVector:
    """Complex amplitude vector with a tail-mass convergence diagnostic.

    tail_mass is the probability weight in the top 8 levels; it bounds how
    much the truncation can corrupt identities involving this state.
    """

    dim: int
    amps: np.ndarray
    tail_mass: float

    @classmethod
    def from_amps(cls, amps: np.ndarray) -> "FockVector":
        amps = np.asarray(amps, dtype=complex)
        tail = float(np.sum(np.abs(amps[-_TAIL_WINDOW:]) ** 2))
        return cls(dim=amps.shape[0], amps=amps, tail_mass=tail)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise BadDim(f"Fock dimension must be >= 2, got {dim}")


def _lgfact(n: int) -> np.ndarray:
    """ln(k!) for k = 0..n."""
    from scipy.special import gammaln

    return gammaln(np.arange(n + 1, dtype=float) + 1.0)


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


def su11_generators(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K0 = (a^dag a + 1/2)/2, K+ = a^dag^2/2, K- = a^2/2."""
    a, adag = ladder(dim)
    k0 = np.diag((np.arange(dim) + 0.5) / 2.0).astype(complex)
    return k0, adag @ adag / 2.0, a @ a / 2.0


def basis_state(dim: int, n: int) -> FockVector:
    _check_dim(dim)
    amps = np.zeros(dim, dtype=complex)
    amps[n] = 1.0
    return FockVector.from_amps(amps)


def _exp_adag2_lower(half: complex, dim: int, dtype=complex) -> np.ndarray:
    """exp(half a^dag^2): entries [n+2k, n] = half^k sqrt((n+2k)!/n!)/k!.

    Built by the multiplicative recurrence along k so each entry carries
    only O(sqrt(k)) rounding steps; with dtype=np.clongdouble the entries
    are accurate enough that the huge cancelling sums in the factored
    squeeze product still leave ~1e-12 in the result.
    """
    out = np.eye(dim, dtype=dtype)
    if half == 0:
        return out
    real_t = np.longdouble if dtype == np.clongdouble else float
    vals = np.ones(dim, dtype=dtype)  # vals[n] at current k
    hh = dtype(half)
    for kk in range(1, (dim - 1) // 2 + 1):
        n = np.arange(dim - 2 * kk)
        step = np.sqrt(((n + 2 * kk - 1) * (n + 2 * kk)).astype(real_t))
        vals = vals[:dim - 2 * kk] * hh * step / real_t(kk)
        out[n + 2 * kk, n] = vals
    return out


def _exp_neg_i_tridiag(diag: np.ndarray, offdiag: np.ndarray,
                       keep: int) -> np.ndarray:
    """Upper-left keep x keep block of exp(-i H), H Hermitian tridiagonal.

    A diagonal gauge makes the complex off-diagonal real, then the real
    symmetric tridiagonal eigenproblem of the whole of H gives a
    machine-accurate unitary; only its first keep rows are rebuilt, as two
    real products because the eigenvectors are real.
    """
    from scipy.linalg import eigh_tridiagonal

    absoff = np.abs(offdiag)
    phase = np.divide(offdiag, absoff, out=np.ones(offdiag.shape, complex),
                      where=absoff > 0)
    gauge = np.concatenate(([1.0 + 0j], np.cumprod(phase[:keep - 1])))
    w, v = eigh_tridiagonal(diag.real, absoff)
    rows = v[:keep]
    core = (rows * np.cos(w)) @ rows.T - 1j * ((rows * np.sin(w)) @ rows.T)
    return (gauge[:, None] * core) * gauge.conj()[None, :]


def _displacement_inner_dim(u0: complex, dim: int) -> int:
    mag = abs(u0)
    return dim + math.ceil(4.0 * mag * math.sqrt(dim) + mag * mag) + 32


def _squeeze_inner_dim(z: complex, dim: int) -> int:
    r = abs(z)
    return math.ceil(dim * (math.cosh(2 * r) + 1.5 * math.sinh(2 * r))) + 32


def displacement(u0: complex, dim: int) -> np.ndarray:
    """D(u0) = e^{-|u0|^2/2} e^{u0 a^dag} e^{-conj(u0) a} in closed form.

    The normal-ordered product collapses, entry by entry, to a single finite
    sum: an associated Laguerre polynomial in |u0|^2 times a log-scaled
    prefactor.  Evaluating that sum through the Laguerre recurrence (one
    sweep per diagonal, vectorized across diagonals) avoids the huge
    cancelling intermediates the raw triangular-matrix product produces at
    large (m, n).  Unitary on the upper-left block where columns have
    converged within the truncation.
    """
    _check_dim(dim)
    u0 = complex(u0)
    if u0 == 0:
        return np.eye(dim, dtype=complex)
    x = abs(u0) ** 2
    # laguerre[k, n] = L_n^{(k)}(x) for all diagonals k at once
    lag = np.zeros((dim, dim))
    kvec = np.arange(dim, dtype=float)
    lag[:, 0] = 1.0
    if dim > 1:
        lag[:, 1] = 1.0 + kvec - x
    for n in range(1, dim - 1):
        lag[:, n + 1] = ((2 * n + 1 + kvec - x) * lag[:, n]
                         - (n + kvec) * lag[:, n - 1]) / (n + 1)
    lg = _lgfact(dim - 1)
    phase = u0 / abs(u0)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        n = np.arange(dim - k)
        mag = np.exp(-0.5 * x + k * math.log(abs(u0))
                     + 0.5 * (lg[n] - lg[n + k])) * lag[k, :dim - k]
        out[n + k, n] = phase**k * mag
        if k:
            out[n, n + k] = (-np.conj(phase))**k * mag
    return out


def displacement_exp(u0: complex, dim: int, inner_dim: int | None = None) -> np.ndarray:
    """Oracle path: matrix exponential of u0 a^dag - conj(u0) a.

    Evaluated by eigendecomposition of the (tridiagonal, anti-Hermitian)
    generator on an enlarged space so that every returned entry has
    converged; only the returned dim x dim block is rebuilt.
    """
    _check_dim(dim)
    u0 = complex(u0)
    inner = inner_dim or _displacement_inner_dim(u0, dim)
    # i (u0 a^dag - conj(u0) a) is Hermitian tridiagonal
    off = 1j * u0 * np.sqrt(np.arange(1, inner, dtype=float))
    return _exp_neg_i_tridiag(np.zeros(inner), off, dim)


def squeeze_exp(z: complex, dim: int, inner_dim: int | None = None) -> np.ndarray:
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
    inner = inner_dim or _squeeze_inner_dim(z, dim)
    out = np.zeros((dim, dim), dtype=complex)
    n = np.arange(inner, dtype=float)
    coupling = 0.5j * z * np.sqrt((n + 1) * (n + 2))  # i G at [n+2, n]
    for parity in (0, 1):
        levels = np.arange(parity, inner, 2)
        out[parity::2, parity::2] = _exp_neg_i_tridiag(
            np.zeros(levels.size), coupling[levels[:-1]],
            (dim - parity + 1) // 2)
    return out


def _squeezed_vacuum_column(z: complex, dim: int) -> np.ndarray:
    """S(z)|0> amplitudes: (cosh r)^{-1/2} (zeta/2)^k sqrt((2k)!)/k! at level 2k."""
    ch, _, zeta = squeeze_frame(z)
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


def _squeeze_product(z: complex, dim: int, reverse: bool) -> np.ndarray:
    """exp(zeta a^dag^2/2), e^{+-gamma K0} and exp(-conj(zeta) a^2/2), multiplied.

    gamma = ln(1 - |zeta|^2) = -2 ln cosh r; the normal order
    (lower @ mid @ upper) uses +gamma, the reversed order
    (upper @ mid @ lower) -gamma.  Every factor couples only levels of equal
    parity, so the product is formed as one even and one odd block.
    Factors and products run in extended precision.
    """
    _check_dim(dim)
    z = complex(z)
    r = abs(z)
    if r == 0:
        return np.eye(dim, dtype=complex)
    zeta = squeeze_zeta(r, z / r)
    ld = np.clongdouble
    lower = _exp_adag2_lower(ld(zeta / 2.0), dim, dtype=ld)
    # exp(-conj(zeta) a^2/2) = exp(-zeta a^dag^2/2)^dagger
    upper = _exp_adag2_lower(ld(-zeta / 2.0), dim, dtype=ld).conj().T
    # ln cosh r = r + ln(1 + e^{-2r}) - ln 2 does not cancel at large r,
    # where 1 - tanh^2 r does
    rl = np.longdouble(r)
    gamma = -2 * (rl + np.log1p(np.exp(-2 * rl)) - np.log(np.longdouble(2)))
    if reverse:
        gamma = -gamma
    mid = np.exp(gamma * (np.arange(dim) + 0.5) / 2.0)
    out = np.zeros((dim, dim), dtype=complex)
    for parity in (0, 1):
        lo, md, up = (lower[parity::2, parity::2], mid[parity::2],
                      upper[parity::2, parity::2])
        out[parity::2, parity::2] = (up * md[None, :]) @ lo if reverse \
            else (lo * md[None, :]) @ up
    return out


def squeeze_factored(z: complex, dim: int) -> np.ndarray:
    """S(z) as exp(zeta a^dag^2/2) exp(ln(1-|zeta|^2)(a^dag a + 1/2)/2) exp(-conj(zeta) a^2/2).

    zeta = e^{i theta} tanh r.  In exact arithmetic every entry with
    (m, n) < dim is truncation-exact (the left factor only lowers, the right
    only raises), but each is a sum whose terms grow with the levels and
    cancel.  The products run in extended precision, which converges only
    on a fixed upper-left block whatever dim is: against squeeze_exp the
    entries with m, n < 64 agree to about 3e-11 for r <= 1.2, and at r = 0.25
    those below about 125 to 1e-9.  Past that block they are cancellation noise,
    about 1e17 at [255, 255] for dim = 256 and r = 1, where a unitary's
    entries are at most 1.  The checks read only blocks inside it (at most
    the upper-left 64 x 64 at dim = 128).
    """
    return _squeeze_product(z, dim, reverse=False)


def squeeze_factored_reversed(z: complex, dim: int) -> np.ndarray:
    """Dual-order factorization exp(-conj(zeta) a^2/2) e^{-gamma K0} exp(zeta a^dag^2/2).

    Equal to squeeze_factored(z, dim) as an operator identity; on the number
    basis it converges only at small r and low levels (see verify's
    fock.squeeze_dual_order check).
    """
    return _squeeze_product(z, dim, reverse=True)


def squeezed_annihilator(z: complex, dim: int) -> np.ndarray:
    """a(z) = cosh(r) a - e^{i theta} sinh(r) a^dag (Bogoliubov transform)."""
    a, adag = ladder(dim)
    ch, s, _ = squeeze_frame(z)
    return ch * a - s * adag


def _state_amplitudes(us, z, dim: int) -> np.ndarray:
    """<m|D(u) S(z)|0> for m < dim, one column per u, by the two-photon recurrence.

    With zeta = e^{i theta} tanh r and beta = u - zeta conj(u) (Yuen 1976):
        c_0     = (cosh r)^{-1/2} exp(-|u|^2/2 + zeta conj(u)^2/2)
        c_{m+1} = (beta c_m + sqrt(m) zeta c_{m-1}) / sqrt(m+1).
    z is one squeeze for every u, or an array of one squeeze per u; each
    node's amplitudes are bit-identical either way.
    The amplitudes are exact for every m < dim (no truncation enters), and
    the forward sweep is stable: the wanted solution is the dominant one.
    |c_0| <= 1, so far nodes underflow to zeros, never to NaN.
    """
    us = np.asarray(us, dtype=complex).ravel()
    if np.ndim(z) == 0:
        ch, _, zeta = squeeze_frame(z)
        log_ch = math.log(ch)
    else:
        zs = np.asarray(z, dtype=complex).ravel()
        if zs.size != us.size:
            raise ValueError(f"{zs.size} squeezes for {us.size} displacements")
        frames = [squeeze_frame(zz) for zz in zs]
        zeta = np.array([f[2] for f in frames], dtype=complex)
        log_ch = np.array([math.log(f[0]) for f in frames])
    ubar = np.conj(us)
    beta = us - zeta * ubar
    out = np.empty((dim, us.size), dtype=complex)
    out[0] = np.exp(-0.5 * (us * ubar).real + 0.5 * zeta * ubar * ubar
                    - 0.5 * log_ch)
    if dim > 1:
        out[1] = beta * out[0]
    for m in range(1, dim - 1):
        out[m + 1] = (beta * out[m] + math.sqrt(m) * zeta * out[m - 1]) \
            / math.sqrt(m + 1)
    return out


def saturating_state(
    labels: Labels,
    dim: int = 128,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> FockVector:
    """|state> = D(u0) S(z) |0>, its first dim amplitudes.

    Warns with TruncationWarning when the top-level weight exceeds
    tail_bound; identities checked against this state are then unreliable.
    """
    _check_dim(dim)
    state = FockVector.from_amps(
        _state_amplitudes(labels.u0, labels.z, dim)[:, 0])
    if state.tail_mass > tail_bound:
        warnings.warn(
            f"tail mass {state.tail_mass:.3e} exceeds {tail_bound:.3e} "
            f"at dim={dim}; increase the truncation",
            TruncationWarning,
            stacklevel=2,
        )
    return state


def saturating_state_batch(
    u0s: np.ndarray,
    z: complex | np.ndarray,
    dim: int = 128,
) -> np.ndarray:
    """Amplitudes <m|D(u0) S(z)|0>, m < dim, for many u0.

    z is one squeeze for every node (a quadrature over the u0 plane) or an
    array of one squeeze per node, as long as u0s (many labelled states at
    once).  Returns a (dim, len(u0s)) array from the same recurrence as
    saturating_state, O(dim) per node; its columns are strided, so a caller
    that hands states to BLAS products takes the rows of
    np.ascontiguousarray(amps.T).
    """
    if dim < 1:
        raise BadDim(f"row count must be >= 1, got {dim}")
    return _state_amplitudes(u0s, z, dim)


def expectations(q: np.ndarray, p: np.ndarray, state: FockVector) -> Moments:
    """Moments of a state from the quadratic forms of the Q and P matrices.

    q and p are position(state.dim, c) and momentum(state.dim, c), built
    once by a caller that evaluates many states.
    """
    if state.tail_mass > DEFAULT_TAIL_BOUND:
        warnings.warn(
            f"computing moments of a state with tail mass {state.tail_mass:.3e}",
            TruncationWarning,
            stacklevel=2,
        )
    psi = state.amps
    nrm2 = float(np.vdot(psi, psi).real)
    qpsi = q @ psi
    ppsi = p @ psi
    q0 = float(np.vdot(psi, qpsi).real) / nrm2
    p0 = float(np.vdot(psi, ppsi).real) / nrm2
    qbar = qpsi - q0 * psi
    pbar = ppsi - p0 * psi
    dq2 = float(np.vdot(qbar, qbar).real) / nrm2
    dp2 = float(np.vdot(pbar, pbar).real) / nrm2
    corr = 2.0 * float(np.vdot(qbar, pbar).real) / nrm2
    return Moments(q0=q0, p0=p0, dq=math.sqrt(dq2), dp=math.sqrt(dp2), corr=corr)


def defining_residual(
    q: np.ndarray,
    p: np.ndarray,
    state: FockVector,
    m: Moments,
    c: Constants = Constants(),
) -> float:
    """Norm of [(Q - q0) - lambda0 (P - p0)] |state>.

    q and p are the Q and P matrices at state.dim for the constants c.
    Zero (up to truncation) exactly when the state saturates the SR bound
    with the given moments.
    """
    lam = lambda0(m, c)
    psi = state.amps
    qpsi = q @ psi - m.q0 * psi
    ppsi = p @ psi - m.p0 * psi
    return float(np.linalg.norm(qpsi - lam * ppsi))


@dataclass(frozen=True)
class SrUrResult:
    """Both sides of the Schrodinger-Robertson inequality for one state."""

    lhs: float
    rhs_comm: float
    rhs_anticomm: float
    slack: float
    lambda0: complex


def sr_ur_check(
    A: np.ndarray,
    B: np.ndarray,
    states: Sequence[FockVector],
    herm_tol: float = 1e-12,
) -> list[SrUrResult]:
    """Evaluate (dA)^2 (dB)^2 >= <(-i)[A,B]>^2/4 + <{Abar,Bbar}>^2/4 per state.

    Raises NotHermitian unless A and B are Hermitian to herm_tol; the test
    runs once for all states.  Each returned slack is lhs - rhs and is >= 0
    for every normalized state, vanishing exactly on saturating states.
    """
    for name, op in (("A", A), ("B", B)):
        dev = np.max(np.abs(op - op.conj().T))
        if dev > herm_tol * max(1.0, float(np.max(np.abs(op)))):
            raise NotHermitian(f"operator {name} deviates from Hermitian by {dev:.3e}")
    return [_sr_ur_one(A, B, state.amps) for state in states]


def _sr_ur_one(A: np.ndarray, B: np.ndarray, psi: np.ndarray) -> SrUrResult:
    nrm2 = float(np.vdot(psi, psi).real)
    apsi = A @ psi
    bpsi = B @ psi
    a0 = float(np.vdot(psi, apsi).real) / nrm2
    b0 = float(np.vdot(psi, bpsi).real) / nrm2
    abar = apsi - a0 * psi
    bbar = bpsi - b0 * psi
    var_a = float(np.vdot(abar, abar).real) / nrm2
    var_b = float(np.vdot(bbar, bbar).real) / nrm2
    cross = complex(np.vdot(abar, bbar)) / nrm2  # <Abar Bbar>
    comm = 2.0 * cross.imag       # <(-i)[A, B]>
    anti = 2.0 * cross.real       # <{Abar, Bbar}>
    lhs = var_a * var_b
    rhs_comm = 0.25 * comm**2
    rhs_anticomm = 0.25 * anti**2
    lam = (0.5 * anti - 0.5j * comm) / var_b
    return SrUrResult(lhs=lhs, rhs_comm=rhs_comm, rhs_anticomm=rhs_anticomm,
                      slack=lhs - rhs_comm - rhs_anticomm, lambda0=lam)


def top_block_norm(mat: np.ndarray, k: int) -> float:
    """Spectral norm of the upper-left k x k block."""
    return float(np.linalg.norm(mat[:k, :k], 2))
