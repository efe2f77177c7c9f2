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
    there at any width.
    """
    q = np.asarray(q, dtype=float)
    c, m = p.constants, p.moments
    logpre = (-0.25 * math.log(2.0 * math.pi) - 0.5 * math.log(m.dq)
              - 0.5j * p.thetabar_plus - 0.5j * m.q0 * m.p0 / c.hbar)
    x = (q - m.q0) / m.dq
    # an overflow here is the far tail's inf, not a fault; an invalid
    # result (NaN) still warns
    with np.errstate(over="ignore"):
        gauss = 0.25 * complex(1.0, -m.corr / c.hbar) * x * x
    return logpre + 1j * q * m.p0 / c.hbar - gauss


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
    oracle for the closed-form psi.
    """
    q = np.asarray(q, dtype=float)
    h = hermite_functions(len(amps) - 1, q / c.ell0)
    return np.tensordot(amps, h, axes=(0, 0)) / math.sqrt(c.ell0)
