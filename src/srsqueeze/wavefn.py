"""Configuration-space wavefunctions of the saturating states.

The wavefunction is a Gaussian fixed by the state's moments, with a fully
fixed phase: the squeeze contributes e^{-i thetabar_plus/2} (the phase of
(cosh r + e^{i theta} sinh r)^{-1/2} on its continuous branch) and the
displacement contributes e^{-i q0 p0/(2 hbar)} e^{i q p0/hbar}.

psi reads its width and chirp from the moments alone, as the textbook
Gaussian (2 pi dq^2)^{-1/4} exp(-(1 - i corr/hbar) (q - q0)^2 / (4 dq^2)),
so it inherits their accuracy at any squeezing.  The equivalent lab-frame
closed forms, written in cosh and sinh of r and 2r, are kept in psi_form as
independent oracles for the equivalence checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .params import Constants, Labels, Moments, OutOfDomain, labels_to_moments, thetabar

# exp(t) rounds to 0 below this t: half the smallest subnormal, 2^-1075
_LOG_UNDERFLOW = -1075 * math.log(2.0)


@dataclass(frozen=True)
class WavefnParams:
    """Labels and moments of one state, with the squeeze phase thetabar_plus."""

    labels: Labels
    moments: Moments
    thetabar_plus: float
    constants: Constants

    @classmethod
    def from_labels(cls, labels: Labels, c: Constants = Constants()) -> "WavefnParams":
        """Raises OutOfDomain where the displacement phase q0 p0 / hbar overflows."""
        m = labels_to_moments(labels, c)
        if not math.isfinite(m.q0 * m.p0 / c.hbar):
            raise OutOfDomain("q0 p0 / hbar overflows at these labels")
        return cls(labels=labels, moments=m,
                   thetabar_plus=thetabar(labels.r, labels.theta)[0], constants=c)


def log_psi(q, p: WavefnParams):
    """Log-amplitude log(psi(q)); stable where psi itself underflows.

    Vectorized over q.  exp(log_psi) reproduces psi wherever |psi| is
    representable.  Where x = (q - q0)/dq is so far out that x^2 leaves
    the float range, the real part is -inf and psi is 0: |psi| underflows
    there at any width.  Where the phase (the chirp corr x^2/(4 hbar) or
    q p0/hbar) leaves the float range, the point is taken as psi = 0,
    with phase 0, if its real part is below exp's underflow threshold;
    otherwise the phase is lost and OutOfDomain is raised.
    """
    q = np.asarray(q, dtype=float)
    c, m = p.constants, p.moments
    logpre = (-0.25 * math.log(2.0 * math.pi) - 0.5 * math.log(m.dq)
              - 0.5j * p.thetabar_plus - 0.5j * m.q0 * m.p0 / c.hbar)

    def terms():
        x = (q - m.q0) / m.dq
        gauss = 0.25 * complex(1.0, -m.corr / c.hbar) * x * x
        return x, logpre + 1j * q * m.p0 / c.hbar - gauss

    # a floating-point exception marks a term that left the float range;
    # only then are the points sorted into psi = 0 or OutOfDomain.  A 0-d q
    # is computed in scalar arithmetic, partly Python's, which raises none,
    # so its one value is checked instead
    try:
        with np.errstate(over="raise", invalid="raise"):
            out = terms()[1]
        if q.ndim or math.isfinite(out.imag):
            return out
    except FloatingPointError:
        pass
    with np.errstate(over="ignore", invalid="ignore"):
        x, out = terms()
        # the real part alone, free of the phase terms' inf and NaN
        re = logpre.real - 0.25 * x * x
    finite = np.isfinite(out.imag)
    if np.any(~finite & (re >= _LOG_UNDERFLOW)):
        raise OutOfDomain("the phase of psi leaves the float range where "
                          "|psi| does not underflow")
    return np.where(finite, out, re)[()]


def psi(q, p: WavefnParams):
    """Wavefunction <q|state> with the fully fixed phase convention."""
    return np.exp(log_psi(q, p))


def psi_form(q, p: WavefnParams, form: str):
    """Equivalent closed forms of psi, for cross-checking only.

    form = "angle":   modulus-phase prefactor, exponent (1 - i sin(theta)
                      sinh 2r)/(cosh 2r + cos(theta) sinh 2r);
    form = "sqrt":    principal complex square root of
                      (cosh r + e^{i theta} sinh r) as the prefactor, the
                      exponent from the Bogoliubov coefficient ratio.

    psi itself is the same Gaussian written in the moments.
    """
    q = np.asarray(q, dtype=float)
    c, lab, m = p.constants, p.labels, p.moments
    ch, sh = math.cosh(lab.r), math.sinh(lab.r)
    ch2, sh2 = math.cosh(2 * lab.r), math.sinh(2 * lab.r)
    x2 = ch2 + math.cos(lab.theta) * sh2
    common = (cmath.exp(-0.5j * m.q0 * m.p0 / c.hbar)
              * np.exp(1j * q * m.p0 / c.hbar) / (math.pi * c.ell0**2) ** 0.25)
    dq2 = ((q - m.q0) / c.ell0) ** 2
    if form == "angle":
        pre = x2 ** -0.25 * cmath.exp(-0.5j * p.thetabar_plus)
        expo = -0.5 * (1 - 1j * math.sin(lab.theta) * sh2) / x2 * dq2
    elif form == "sqrt":
        ph = cmath.exp(1j * lab.theta)
        pre = 1.0 / cmath.sqrt(ch + ph * sh)
        expo = -0.5 * (ch - ph * sh) / (ch + ph * sh) * dq2
    else:
        raise OutOfDomain(f"unknown form {form!r}")
    return common * pre * np.exp(expo)


def hermite_functions(nmax: int, x: np.ndarray) -> np.ndarray:
    """Normalized Hermite functions h_0..h_nmax at positions x.

    h_n(x) = H_n(x) e^{-x^2/2} / sqrt(2^n n! sqrt(pi)), evaluated by the
    renormalized upward recurrence
        h_n = sqrt(2/n) x h_{n-1} - sqrt((n-1)/n) h_{n-2},
    which keeps every intermediate O(1) even for n in the hundreds.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((nmax + 1,) + x.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, nmax + 1):
        out[n] = math.sqrt(2.0 / n) * x * out[n - 1] \
            - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def synthesize(q, amps: np.ndarray, c: Constants = Constants()):
    """Position wavefunction from Fock amplitudes: sum_n amps[n] <q|n>.

    <q|n> = h_n(q/ell0)/sqrt(ell0).  This is the truncation-controlled
    oracle for the closed-form psi.  amps is one state's amplitudes or a
    stack of states along its last axis, such as the (S, N) rows of S
    states; the result has q's shape, after the stack's leading axes.  One
    Hermite table serves the whole stack, which is how the
    wavefn.fock_synthesis check builds its 65 states.  Each state's terms
    are summed over n on their own, in a fixed order at each point, so the
    bits depend neither on the BLAS thread count, as a matrix product's
    do, nor on the stack.
    """
    q = np.asarray(q, dtype=float)
    amps = np.asarray(amps)
    h = hermite_functions(amps.shape[-1] - 1, q / c.ell0)
    sums = [(np.reshape(st, (-1, *(1,) * q.ndim)) * h).sum(axis=0)
            for st in amps.reshape(-1, amps.shape[-1])]
    return np.reshape(sums, amps.shape[:-1] + q.shape) / math.sqrt(c.ell0)
