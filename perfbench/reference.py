"""Closed forms evaluated in mpmath, apart from the package under test.

Every function here takes the exact binary64 inputs that the program
received and returns the mathematically exact value to about 40 digits, so
any difference from the program is the program's own rounding or
cancellation.  Formulas are written from the physics (moments of
D(u0) S(z)|0>, the Gaussian wavefunction, the Gaussian overlap integral),
not transcribed from the package's code paths.

``tolerance`` turns a reference into an acceptance band: a backward-stable
evaluation in binary64 has forward error at most about
eps * (|f| + sum_i |x_i df/dx_i|), the mixed condition number of f at the
inputs x; the band is ULP_FACTOR times that.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 40

EPS = 2.0 ** -52
ULP_FACTOR = 64
_STEP = mp.mpf(10) ** -22


def _digits(r) -> int:
    """Working digits for squeeze r: cosh r - sinh r cancels about 0.87 r digits."""
    return mp.mp.dps + int(mp.ceil(abs(r))) + 10


def _c(z) -> mp.mpc:
    return mp.mpc(z.real, z.imag) if isinstance(z, complex) else mp.mpc(z)


def moments(u0: complex, r: float, theta: float, hbar=1.0, ell0=1.0) -> dict:
    """Centers, spreads and correlation of D(u0) S(r e^{i theta})|0>.

    S^dag a S = cosh r a + e^{i theta} sinh r a^dag, so with
    B = cosh r + e^{-i theta} sinh r and C = cosh r - e^{i theta} sinh r:
    dq^2 = ell0^2 |B|^2 / 2, dp^2 = (hbar/ell0)^2 |C|^2 / 2 and the
    symmetrised covariance is corr = hbar sin(theta) sinh 2r.
    """
    u0, r, th = _c(u0), mp.mpf(r), mp.mpf(theta)
    with mp.workdps(_digits(r)):
        ch, sh = mp.cosh(r), mp.sinh(r)
        b = ch + mp.expj(-th) * sh
        c = ch - mp.expj(th) * sh
        out = {
            "q0": mp.sqrt(2) * ell0 * u0.real,
            "p0": mp.sqrt(2) * hbar * u0.imag / ell0,
            "dq": ell0 * abs(b) / mp.sqrt(2),
            "dp": (hbar / ell0) * abs(c) / mp.sqrt(2),
            "corr": hbar * mp.sin(th) * mp.sinh(2 * r),
        }
    return {k: +v for k, v in out.items()}


def angles(u0: complex, r: float, theta: float) -> dict:
    """Derived angles of the state (hbar = ell0 = 1).

    phi = atan(corr/hbar); thetabar_pm = arg(cosh r +- e^{i theta} sinh r);
    theta_pm are the phases of sy +- e^{i phi} sx with (sx, sy) the spreads.
    """
    r_, th = mp.mpf(r), mp.mpf(theta)
    with mp.workdps(_digits(r_)):
        m = moments(u0, r, theta)
        phi = mp.atan(m["corr"])
        sx, sy = m["dq"], m["dp"]
        e = mp.expj(th)
        out = {
            "phi": phi,
            "rho_plus": mp.cosh(r_),
            "rho_minus": mp.sinh(r_),
            "theta_plus": mp.arg(sy + mp.expj(phi) * sx),
            "theta_minus": mp.arg(sy - mp.expj(phi) * sx),
            "thetabar_plus": mp.arg(mp.cosh(r_) + e * mp.sinh(r_)),
            "thetabar_minus": mp.arg(mp.cosh(r_) - e * mp.sinh(r_)),
        }
    return {k: +v for k, v in out.items()}


def labels_from_moments(q0, p0, dq, dp, corr, hbar=1.0, ell0=1.0) -> dict:
    """Exact inverse: sinh 2r e^{i theta} = (dq/ell0)^2 - (ell0 dp/hbar)^2 + i corr/hbar."""
    q0, p0, dq, dp, corr = (mp.mpf(v) for v in (q0, p0, dq, dp, corr))
    x = (dq / ell0) ** 2
    y = (ell0 * dp / hbar) ** 2
    w = mp.mpc(x - y, corr / hbar)
    return {"u0_re": q0 / ell0 / mp.sqrt(2), "u0_im": ell0 * p0 / hbar / mp.sqrt(2),
            "r": mp.asinh(abs(w)) / 2, "theta": mp.arg(w) if w != 0 else mp.mpf(0)}


def disentangle(z: complex) -> dict:
    """alpha = e^{i theta} tanh r and gamma = ln(1 - |alpha|^2) = -2 ln cosh r."""
    z = _c(z)
    r = abs(z)
    if r == 0:
        return {"alpha": mp.mpc(0), "gamma": mp.mpf(0)}
    return {"alpha": z / r * mp.tanh(r), "gamma": -2 * mp.log(mp.cosh(r))}


def _gauss(u0: complex, r: float, theta: float):
    """psi(q) = exp(-a q^2 + b q + c) with complex a, b, c (hbar = ell0 = 1).

    psi = pi^{-1/4} (cosh r + e^{i theta} sinh r)^{-1/2}
          exp(-w (q - q0)^2 / 2 + i p0 q - i q0 p0 / 2),
    w = (cosh r - e^{i theta} sinh r) / (cosh r + e^{i theta} sinh r); the
    square root is principal, which is continuous because the real part of
    cosh r + e^{i theta} sinh r is positive.
    """
    u0, r, th = _c(u0), mp.mpf(r), mp.mpf(theta)
    ch, sh, e = mp.cosh(r), mp.sinh(r), mp.expj(th)
    q0, p0 = mp.sqrt(2) * u0.real, mp.sqrt(2) * u0.imag
    w = (ch - e * sh) / (ch + e * sh)
    a = w / 2
    b = w * q0 + 1j * p0
    c = (-w * q0 ** 2 / 2 - 1j * q0 * p0 / 2
         - mp.log(mp.pi) / 4 - mp.log(ch + e * sh) / 2)
    return a, b, c


def psi(q: float, u0: complex, r: float, theta: float) -> mp.mpc:
    with mp.workdps(_digits(r)):
        a, b, c = _gauss(u0, r, theta)
        q = mp.mpf(q)
        out = mp.exp(-a * q * q + b * q + c)
    return +out


def overlap(z2: complex, u2: complex, z1: complex, u1: complex) -> mp.mpc:
    """<u2, z2|u1, z1> as the Gaussian integral of conj(psi2) psi1 over q."""
    z2, z1 = _c(z2), _c(z1)
    with mp.workdps(_digits(max(abs(z2), abs(z1)))):
        a2, b2, c2 = _gauss(u2, abs(z2), mp.arg(z2) if z2 != 0 else 0)
        a1, b1, c1 = _gauss(u1, abs(z1), mp.arg(z1) if z1 != 0 else 0)
        big_a = mp.conj(a2) + a1
        big_b = mp.conj(b2) + b1
        out = mp.sqrt(mp.pi / big_a) * mp.exp(big_b ** 2 / (4 * big_a)
                                              + mp.conj(c2) + c1)
    return +out


def q2_symbol(z: complex) -> dict:
    """Diagonal-kernel symbol of Q^2 (ell0 = 1) in the squeezed frame of z.

    With b = a(z) the squeezed annihilator, Q = (A b + conj(A) b^dag)/sqrt(2)
    and A = cosh r + e^{-i theta} sinh r.  The diagonal expectation of the
    normal-ordered Q^2 is (A^2 w^2 + conj(A)^2 wbar^2 + 2|A|^2 w wbar + |A|^2)/2,
    and e^{-d_w d_wbar} turns w wbar into w wbar - 1.  Returns
    {(power_w, power_wbar): coefficient}.
    """
    z = _c(z)
    r = abs(z)
    th = mp.arg(z) if r != 0 else mp.mpf(0)
    big_a = mp.cosh(r) + mp.expj(-th) * mp.sinh(r)
    a2 = abs(big_a) ** 2
    return {(2, 0): big_a ** 2 / 2, (0, 2): mp.conj(big_a) ** 2 / 2,
            (1, 1): a2, (0, 0): -a2 / 2}


def gradient(f, args) -> list:
    """Partial derivatives of f at the real inputs args (central differences)."""
    out = []
    for i, x in enumerate(args):
        hi = list(args)
        lo = list(args)
        h = _STEP * max(1, abs(x))
        hi[i] = mp.mpf(x) + h
        lo[i] = mp.mpf(x) - h
        out.append((f(*hi) - f(*lo)) / (2 * h))
    return out


def tolerance(f, args, value=None) -> float:
    """ULP_FACTOR * eps * (|f| + sum_i |x_i df/dx_i|) at the real inputs args."""
    if value is None:
        value = f(*args)
    cond = abs(value) + sum(abs(mp.mpf(x) * d) for x, d in zip(args, gradient(f, args)))
    return float(ULP_FACTOR * EPS * cond)
