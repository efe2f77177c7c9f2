"""Closed-form overlap kernels and diagonal-kernel representations.

The overlap of two saturating states factors into a prefactor
(cosh r2 cosh r1)^{-1/2} (1 - conj(zeta2) zeta1)^{-1/2}, a symplectic phase
e^{-(u2 conj(u1) - conj(u2) u1)/2}, and a Gaussian in the label difference.
One private core, _overlap_exponent, gives the logarithms of all three; the
scalar squeezed_overlap (math/cmath) and the vectorized overlap_values
both exponentiate its sum, so moduli never overflow and phases stay
coherent.  The prefactor is written free of cancellation:

    cosh r2 cosh r1 (1 - conj(zeta2) zeta1)
        = cosh(r2 - r1) - 2i sin(D/2) e^{iD/2} sinh r2 sinh r1,
    D = theta1 - theta2,

whose real part is a sum of non-negative terms, so the principal
square-root branch is continuous on the whole domain and the self-overlap
is exactly 1 however large r is.  The Gaussian is evaluated in each
state's squeeze axes, where it has no cancellation either.

Diagonal kernels: a normal-ordered polynomial in the squeezed-frame mode
has diagonal expectation sum c[j,k] wbar^j w^k with w = u0(z); applying
e^{-d_w d_wbar} (a finite sum on polynomials) yields the scalar symbol that
reproduces the operator as a weighted integral of state projectors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import (TWO_PI, Constants, OutOfDomain, squeeze_ellipse,
                     squeezed_frame_label)
from . import quadrature as quadmod


@dataclass(frozen=True)
class OverlapResult:
    """Overlap value with its modulus and phase."""

    value: complex
    modulus: float
    phase: float


def _overlap_exponent(z2: complex, u2, z1: complex, u1):
    """log <state(u2, z2)|state(u1, z1)> as (log prefactor, Im sym, Re gauss, Im gauss).

    The symplectic phase is i Im sym = i (Re u2 Im u1 - Im u2 Re u1); the
    Gaussian is -G/4 with G/2 = conj(ch2 d - s2 conj(d)) (ch1 d - s1 conj(d)) / P,
    d = u2 - u1, ch = cosh r, s = e^{i theta} sinh r and P the prefactor form
    of the module docstring.  Each factor is taken in its state's squeeze
    axes, ch d - s conj(d) = e^{i theta/2} (e^{-r} Re w + i e^{r} Im w) with
    w = e^{-i theta/2} d, which has no cancellation.  u2, u1 may be scalars
    or numpy arrays; what depends on them is real arithmetic, so both give
    the same bits (numpy rounds complex products differently from Python),
    and swapping the two states conjugates the result exactly.
    """
    z2, z1 = complex(z2), complex(z1)
    r2, r1 = abs(z2), abs(z1)
    t2, t1 = cmath.phase(z2), cmath.phase(z1)
    # D/2, with D reduced to [-pi, pi]: theta = pi and -pi label one state
    half = 0.5 * math.remainder(t1 - t2, TWO_PI)
    sn = math.sin(half)
    # 2 sin(D/2) sinh r2 sinh r1, symmetric in the two states
    cross = 2.0 * sn * (math.sinh(r2) * math.sinh(r1)) if sn else 0.0
    den = complex(math.cosh(r2 - r1) + sn * cross, -math.cos(half) * cross)
    # -conj(e^{i t2/2}) e^{i t1/2} / (2P)
    kappa = -0.5 * (cmath.exp(0.5j * (t1 - t2)) / den)
    a2, b2, c2, e2 = squeeze_ellipse(r2, t2)
    a1, b1, c1, e1 = squeeze_ellipse(r1, t1)
    d = u2 - u1
    dx, dy = d.real, d.imag
    # (e^{-r} Re w, e^{r} Im w) of each state, then conj(.)_2 (.)_1: the
    # form of params.squeezed_components, inlined because two calls of it
    # add about 6% to a scalar squeezed_overlap
    p2, q2 = a2 * dx + b2 * dy, c2 * dy - e2 * dx
    p1, q1 = a1 * dx + b1 * dy, c1 * dy - e1 * dx
    nr, ni = p2 * p1 + q2 * q1, p2 * q1 - q2 * p1
    return (-0.5 * cmath.log(den), u2.real * u1.imag - u2.imag * u1.real,
            kappa.real * nr - kappa.imag * ni, kappa.real * ni + kappa.imag * nr)


def coherent_overlap(u2: complex, u1: complex) -> OverlapResult:
    """<state(u2, 0)|state(u1, 0)> = e^{-(u2 conj(u1) - conj(u2) u1)/2} e^{-|u2-u1|^2/2}."""
    return squeezed_overlap(0j, u2, 0j, u1)


def squeezed_overlap(z2: complex, u2: complex,
                     z1: complex, u1: complex) -> OverlapResult:
    """General overlap <state(u2, z2)|state(u1, z1)>.

    value = (cosh r2 cosh r1)^{-1/2} (1 - conj(zeta2) zeta1)^{-1/2}
            e^{-(u2 conj(u1) - conj(u2) u1)/2} e^{-G/4}
    with the quadratic form
        G/2 = conj(d - zeta2 conj(d)) (d - zeta1 conj(d)) / (1 - conj(zeta2) zeta1),
        d = u2 - u1.  Raises OutOfDomain where the exponent overflows.
    """
    logpre, sym, gre, gim = _overlap_exponent(z2, complex(u2), z1, complex(u1))
    value = cmath.exp(logpre + complex(0.0, sym) + complex(gre, gim))
    if cmath.isnan(value):
        raise OutOfDomain("the overlap exponent overflows at these labels")
    return OverlapResult(value=value, modulus=abs(value), phase=cmath.phase(value))


def overlap_values(z2: complex, u2, z1: complex, u1) -> np.ndarray:
    """Vectorized squeezed_overlap values over arrays of labels u2, u1."""
    u2 = np.asarray(u2, dtype=complex)
    u1 = np.asarray(u1, dtype=complex)
    logpre, sym, gre, gim = _overlap_exponent(z2, u2, z1, u1)
    # summed in the order cmath.exp(logpre + sym + gauss) sums them
    out = np.empty(np.shape(gre), dtype=complex)
    out.real = logpre.real + gre
    out.imag = (logpre.imag + sym) + gim
    return np.exp(out, out=out)


def general_matrix_element(zeta2: complex, u: complex, zeta1: complex) -> complex:
    """<0| e^{conj(zeta2) a^2/2} D(u) e^{zeta1 a^dag^2/2} |0>.

    Equals (1 - conj(zeta2) zeta1)^{-1/2}
    exp(-conj(u - zeta2 conj(u)) (u - zeta1 conj(u)) / (2 (1 - conj(zeta2) zeta1))).
    """
    zeta2, zeta1, u = complex(zeta2), complex(zeta1), complex(u)
    if abs(zeta2) >= 1 or abs(zeta1) >= 1:
        raise OutOfDomain(
            f"matrix element requires |zeta| < 1, got |{zeta2}|, |{zeta1}|")
    den = 1.0 - zeta2.conjugate() * zeta1
    expo = -(u - zeta2 * u.conjugate()).conjugate() * (u - zeta1 * u.conjugate()) \
        / (2.0 * den)
    return cmath.exp(-0.5 * cmath.log(den) + expo)


@dataclass(frozen=True)
class CompositionResult:
    phase: complex
    shifted: complex


def displacement_composition(u2: complex, u1: complex) -> CompositionResult:
    """D^dag(u2) D(u1) = phase * D(shifted), with unit-modulus phase."""
    u2, u1 = complex(u2), complex(u1)
    return CompositionResult(
        phase=cmath.exp(-0.5 * (u2 * u1.conjugate() - u2.conjugate() * u1)),
        shifted=u1 - u2,
    )


def reproducing_compose(z2: complex, u2: complex, z1: complex, u1: complex,
                        z3: complex) -> complex:
    """Compose two kernels through the fixed-z3 resolution of identity.

    Integrates K(2;3) K(3;1) over the intermediate label u3 with measure
    du3 dubar3 / pi; by overcompleteness at fixed z3 the result equals the
    direct overlap K(2;1).  Raises QuadratureNotConverged when the
    order-doubled estimates disagree.
    """
    mid = 0.5 * (complex(u2) + complex(u1))
    width = math.exp(max(abs(complex(z2)), abs(complex(z1)), abs(complex(z3))))
    spec = quadmod.QuadratureSpec(
        quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D, 60,
        center=(mid.real, mid.imag), scale=(width, width), rel_tol=1e-7)

    def kernel_product(u3):
        return overlap_values(z2, u2, z3, u3) * overlap_values(z3, u3, z1, u1)

    report = quadmod.integrate_plane(kernel_product, spec)
    return report.value


def _padded_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a + b of two coefficient tables, each zero-padded to the larger shape."""
    out = np.zeros((max(a.shape[0], b.shape[0]),
                    max(a.shape[1], b.shape[1])), dtype=complex)
    out[:a.shape[0], :a.shape[1]] += a
    out[:b.shape[0], :b.shape[1]] += b
    return out


class PolySymbol:
    """Complex polynomial in (w, wbar) with w = u0(z), as a dense table.

    coeffs[j, k] multiplies w^j wbar^k.  Used for diagonal expectation
    values and kernels of polynomial observables; degrees stay single-digit.
    """

    def __init__(self, coeffs):
        arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        self.coeffs = arr

    def trim(self) -> "PolySymbol":
        arr = self.coeffs
        while arr.shape[0] > 1 and not np.any(arr[-1]):
            arr = arr[:-1]
        while arr.shape[1] > 1 and not np.any(arr[:, -1]):
            arr = arr[:, :-1]
        return PolySymbol(arr)

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        return PolySymbol(_padded_sum(self.coeffs, other.coeffs))

    def __mul__(self, other):
        if np.isscalar(other):
            return PolySymbol(self.coeffs * other)
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1,
                        a.shape[1] + b.shape[1] - 1), dtype=complex)
        for (j, k), val in np.ndenumerate(b):
            out[j:j + a.shape[0], k:k + a.shape[1]] += val * a
        return PolySymbol(out)

    __rmul__ = __mul__

    def derivative(self, dw: int, dwbar: int) -> "PolySymbol":
        """d_w^dw d_wbar^dwbar, one falling factor at a time (w's first)."""
        a = self.coeffs
        if a.shape[0] <= dw or a.shape[1] <= dwbar:
            return PolySymbol(np.zeros((1, 1)))
        out = a[dw:, dwbar:]
        j = np.arange(dw, a.shape[0])[:, None]
        k = np.arange(dwbar, a.shape[1])[None, :]
        for i in range(dw):
            out = out * (j - i)
        for i in range(dwbar):
            out = out * (k - i)
        return PolySymbol(out)

    def heat_transform(self) -> "PolySymbol":
        """e^{-d_w d_wbar} as the finite sum over polynomial degree."""
        out = PolySymbol(self.coeffs.copy())
        term = PolySymbol(self.coeffs.copy())
        sign = 1.0
        fact = 1.0
        for m in range(1, max(self.coeffs.shape)):
            term = term.derivative(1, 1)
            if not np.any(term.coeffs):
                break
            sign = -sign
            fact *= m
            out = out + term * (sign / fact)
        return out.trim()

    def evaluate(self, w):
        w = np.asarray(w, dtype=complex)
        wbar = np.conj(w)
        out = np.zeros_like(w)
        for j in range(self.coeffs.shape[0]):
            for k in range(self.coeffs.shape[1]):
                cjk = self.coeffs[j, k]
                if cjk != 0:
                    out = out + cjk * w**j * wbar**k
        return out

    def substitute_linear(self, a: complex, b: complex,
                          cc: complex, d: complex) -> "PolySymbol":
        """Coefficients after w -> a w' + b wbar', wbar -> cc w' + d wbar'."""
        one = PolySymbol(np.ones((1, 1)))
        wnew = PolySymbol(np.array([[0, 0], [1, 0]], dtype=complex)) * a \
            + PolySymbol(np.array([[0, 1], [0, 0]], dtype=complex)) * b
        wbnew = PolySymbol(np.array([[0, 0], [1, 0]], dtype=complex)) * cc \
            + PolySymbol(np.array([[0, 1], [0, 0]], dtype=complex)) * d
        out = PolySymbol(np.zeros((1, 1)))
        for j in range(self.coeffs.shape[0]):
            for k in range(self.coeffs.shape[1]):
                cjk = self.coeffs[j, k]
                if cjk == 0:
                    continue
                term = one * cjk
                for _ in range(j):
                    term = term * wnew
                for _ in range(k):
                    term = term * wbnew
                out = out + term
        return out.trim()

    def max_abs_diff(self, other: "PolySymbol") -> float:
        diff = self + other * (-1.0)
        return float(np.max(np.abs(diff.coeffs)))


class NormalOrderedOp:
    """Operator polynomial sum c[j,k] A^dag^j A^k for one abstract mode.

    Products re-normal-order through
        A^k A^dag^j = sum_i i! C(k,i) C(j,i) A^dag^{j-i} A^{k-i}.
    """

    def __init__(self, coeffs):
        self.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))

    @classmethod
    def identity(cls) -> "NormalOrderedOp":
        return cls(np.ones((1, 1)))

    @classmethod
    def linear(cls, c_adag: complex, c_a: complex) -> "NormalOrderedOp":
        arr = np.zeros((2, 2), dtype=complex)
        arr[1, 0] = c_adag
        arr[0, 1] = c_a
        return cls(arr)

    def __add__(self, other: "NormalOrderedOp") -> "NormalOrderedOp":
        return NormalOrderedOp(_padded_sum(self.coeffs, other.coeffs))

    def __mul__(self, other: "NormalOrderedOp") -> "NormalOrderedOp":
        a, b = self.coeffs, other.coeffs
        jmax = a.shape[0] + b.shape[0] - 1
        kmax = a.shape[1] + b.shape[1] - 1
        out = np.zeros((jmax, kmax), dtype=complex)
        for j1 in range(a.shape[0]):
            for k1 in range(a.shape[1]):
                c1 = a[j1, k1]
                if c1 == 0:
                    continue
                for j2 in range(b.shape[0]):
                    for k2 in range(b.shape[1]):
                        c2 = b[j2, k2]
                        if c2 == 0:
                            continue
                        for i in range(min(k1, j2) + 1):
                            w = (math.factorial(i) * math.comb(k1, i)
                                 * math.comb(j2, i))
                            out[j1 + j2 - i, k1 + k2 - i] += c1 * c2 * w
        return NormalOrderedOp(out)

    def to_matrix(self, a_entries: np.ndarray) -> np.ndarray:
        """Dense matrix given the mode's annihilator matrix."""
        dim = a_entries.shape[0]
        adag = a_entries.conj().T
        out = np.zeros((dim, dim), dtype=complex)
        apow = [np.eye(dim, dtype=complex)]
        dpow = [np.eye(dim, dtype=complex)]
        for _ in range(self.coeffs.shape[1] - 1):
            apow.append(apow[-1] @ a_entries)
        for _ in range(self.coeffs.shape[0] - 1):
            dpow.append(dpow[-1] @ adag)
        for j in range(self.coeffs.shape[0]):
            for k in range(self.coeffs.shape[1]):
                if self.coeffs[j, k] != 0:
                    out += self.coeffs[j, k] * (dpow[j] @ apow[k])
        return out

    def diagonal_symbol(self) -> PolySymbol:
        """<state| . |state> for the mode's eigenstate: A^dag^j A^k -> wbar^j w^k."""
        return PolySymbol(self.coeffs.T.copy()).trim()


def quadrature_observable(name: str, z: complex,
                          c: Constants = Constants()) -> NormalOrderedOp:
    """Q, P and their quadratics, normal-ordered in the z-frame mode a(z).

    Uses the inverse Bogoliubov relations
        Q/ell0      = [(ch + conj(s)) a(z) + (ch + s) a(z)^dag]/sqrt(2),
        ell0 P/hbar = i[(ch - s) a(z)^dag - (ch - conj(s)) a(z)]/sqrt(2),
    with ch = cosh r, s = e^{i theta} sinh r.  ch - s and ch + s are the
    squeezed-frame labels of 1 and, times -i, of i, which squeezed_frame_label
    evaluates without the cancellation of ch - s along the squeezed axis.
    Raises OutOfDomain where a coefficient overflows.
    """
    ch_m_s = squeezed_frame_label(1.0, z)
    ch_p_s = -1j * squeezed_frame_label(1j, z)
    sq2 = math.sqrt(2.0)
    q_op = NormalOrderedOp.linear(ch_p_s * c.ell0 / sq2,
                                  ch_p_s.conjugate() * c.ell0 / sq2)
    p_op = NormalOrderedOp.linear(1j * ch_m_s * c.hbar / (c.ell0 * sq2),
                                  -1j * ch_m_s.conjugate() * c.hbar / (c.ell0 * sq2))
    table = {
        "I": lambda: NormalOrderedOp.identity(),
        "N": lambda: NormalOrderedOp(np.array([[0, 0], [0, 1]], dtype=complex)),
        "Q": lambda: q_op,
        "P": lambda: p_op,
        "Q2": lambda: q_op * q_op,
        "P2": lambda: p_op * p_op,
        "QP": lambda: q_op * p_op + p_op * q_op,
    }
    if name not in table:
        raise OutOfDomain(f"unknown observable {name!r}; choose from {sorted(table)}")
    with np.errstate(over="ignore", invalid="ignore"):
        op = table[name]()
    if not np.all(np.isfinite(op.coeffs)):
        raise OutOfDomain(f"the coefficients of {name} overflow at these constants")
    return op


def diagonal_kernel(op: NormalOrderedOp, z: complex) -> PolySymbol:
    """Scalar symbol reproducing op as an integral of state projectors.

    op is normal-ordered in the z-frame mode; its diagonal expectation is a
    polynomial in (w, wbar) = (u0(z), conj(u0(z))), and the kernel is
    e^{-d_w d_wbar} applied to it, a finite sum for polynomials.
    """
    return op.diagonal_symbol().heat_transform()
