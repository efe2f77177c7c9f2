"""Closed-form Baker-Campbell-Hausdorff machinery for the squeeze operator.

When two operators close as [A, B] = uA + vB + c (with c central), the BCH
series sums to log(e^A e^B) = A + B + f(u, v) [A, B] for an elementary
symmetric function f.  Applied twice inside the SU(1,1) algebra generated by
K0 = (a^dag a + 1/2)/2, K+ = a^dag^2/2, K- = a^2/2, this disentangles the
squeeze operator into the product

    exp(z K+ - conj(z) K-)
        = exp(alpha K+) exp(gamma K0) exp(-conj(alpha) K-)

with alpha = e^{i theta} tanh r and gamma = ln(1 - |alpha|^2).

The scalar functions here have removable singularities (Phi at 0, Psi at 1,
f on u=v, u=0, v=0); each switches to a series evaluation near those sets so
that the result stays accurate to ~1e-15 everywhere.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .params import OutOfDomain, squeeze_axes, squeeze_zeta

_DIAG_SWITCH = 3e-3
_SERIES_SWITCH = 1e-4


@dataclass(frozen=True)
class DisentangledSqueeze:
    """Factors of exp(z K+ - conj(z) K-) in normal-ordered form.

    alpha multiplies K+ on the left, gamma multiplies K0 in the middle and
    -conj(alpha) multiplies K- on the right; gamma = ln(1 - |alpha|^2).
    """

    alpha: complex
    gamma: float


def phi(x: complex) -> complex:
    """Phi(x) = (e^x - 1)/x, the entire function with Phi(0) = 1."""
    x = complex(x)
    if abs(x) < _SERIES_SWITCH:
        # sum x^n/(n+1)!; four terms already give ~1e-18 relative here
        return 1.0 + x * (1.0 / 2 + x * (1.0 / 6 + x * (1.0 / 24 + x / 120.0)))
    return (cmath.exp(x) - 1.0) / x


def psi(x: complex) -> complex:
    """Psi(x) = x ln(x)/(x - 1) on the principal branch, with Psi(1) = 1.

    Raises OutOfDomain on the cut (-inf, 0].  Satisfies
    Phi(-ln x) Psi(x) = 1.
    """
    x = complex(x)
    if x.imag == 0.0 and x.real <= 0.0:
        raise OutOfDomain(f"psi is undefined on the branch cut (-inf, 0], got {x}")
    w = x - 1.0
    if abs(w) < 1e-3:
        # Psi(1+w) = (1+w) sum_{n>=0} (-w)^n/(n+1)
        s = 0j
        term = 1.0 + 0j
        for n in range(14):
            s += term / (n + 1)
            term *= -w
        return (1.0 + w) * s
    return x * cmath.log(x) / w


def _phi_minus_deriv(v: complex, k: int) -> complex:
    """Phi(v) - Phi^(k)(v) = sum_n v^n k / (n! (n+1) (n+k+1))."""
    s = 0j
    term = 1.0 + 0j  # v^n / n!
    for n in range(250):
        inc = term * k / ((n + 1) * (n + k + 1))
        s += inc
        if abs(inc) < 1e-18 * max(1.0, abs(s)) and n > abs(v):
            break
        term *= v / (n + 1)
    return s


def f_uv(u: complex, v: complex) -> complex:
    """BCH coefficient f(u, v) of [A, B] when [A, B] = uA + vB + c.

    Closed form [u e^u (e^v - 1) - v e^v (e^u - 1)] / [u v (e^u - e^v)],
    evaluated through the equivalent, cancellation-free rewriting

        f(u, v) = (e^{u-v} Phi(v) - Phi(u)) / ((u - v) Phi(u - v)),

    with a series in d = u - v near the diagonal.  Symmetric in (u, v);
    f(0, 0) = 1/2 exactly.
    """
    u, v = complex(u), complex(v)
    d = u - v
    scale = max(1.0, abs(u), abs(v))
    if abs(d) >= _DIAG_SWITCH * scale:
        return (cmath.exp(d) * phi(v) - phi(u)) / (d * phi(d))
    # near the diagonal: expand e^d Phi(v) - Phi(v + d) in powers of d
    s = 0j
    dpow = 1.0 + 0j  # d^{k-1}
    kfac = 1.0
    for k in range(1, 13):
        kfac *= k
        s += _phi_minus_deriv(v, k) * dpow / kfac
        dpow *= d
    return s / phi(d)


def disentangle_squeeze(z: complex) -> DisentangledSqueeze:
    """Normal-ordered factorization parameters of exp(z K+ - conj(z) K-)."""
    z = complex(z)
    r = abs(z)
    if r == 0.0:
        return DisentangledSqueeze(alpha=0j, gamma=0.0)
    # gamma = ln(1 - tanh^2 r) = -2 ln cosh r
    return DisentangledSqueeze(alpha=squeeze_zeta(r, z / r),
                               gamma=-2.0 * squeeze_axes(r)[3])
