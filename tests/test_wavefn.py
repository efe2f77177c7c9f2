import cmath
import math

import mpmath
import numpy as np
import pytest

from srsqueeze import fock, wavefn
from srsqueeze import quadrature as quad
from srsqueeze.params import Constants, Labels, OutOfDomain

C = Constants()

LABEL_GRID = [
    Labels(u0=u0, r=r, theta=th)
    for u0 in (0j, 1 + 1j, -1.5 + 0.5j)
    for r in (0.0, 0.7, 1.2)
    for th in (0.0, math.pi / 3, math.pi)
    if not (r == 0 and th != 0.0)
]


def test_vacuum_value_at_origin():
    p = wavefn.WavefnParams.from_labels(Labels(), C)
    assert complex(wavefn.psi(0.0, p)) == pytest.approx(math.pi ** -0.25,
                                                        rel=1e-14)


def test_vacuum_with_units():
    c = Constants(hbar=2.0, ell0=0.5)
    p = wavefn.WavefnParams.from_labels(Labels(), c)
    expected = (math.pi * c.ell0**2) ** -0.25
    assert complex(wavefn.psi(0.0, p)) == pytest.approx(expected, rel=1e-14)


def test_coherent_wavefunction_closed_form():
    # unsqueezed: Gaussian of width ell0/sqrt(2) with the two phase factors
    u0 = 1 - 0.7j
    lab = Labels(u0=u0)
    p = wavefn.WavefnParams.from_labels(lab, C)
    m = p.moments
    qs = np.linspace(-4, 4, 41)
    expected = (math.pi ** -0.25 * cmath.exp(-0.5j * m.q0 * m.p0)
                * np.exp(1j * qs * m.p0) * np.exp(-0.5 * (qs - m.q0) ** 2))
    assert np.max(np.abs(wavefn.psi(qs, p) - expected)) < 1e-14


def test_fock_synthesis_pointwise():
    lab = Labels(u0=0.5 - 0.3j, r=1.0, theta=2.0)
    st = fock.saturating_state_batch(lab.u0, lab.z, 160)[:, 0]
    p = wavefn.WavefnParams.from_labels(lab, C)
    qs = np.linspace(-6, 6, 121)
    diff = wavefn.synthesize(qs, st, C) - wavefn.psi(qs, p)
    assert np.max(np.abs(diff)) < 1e-10


@pytest.mark.parametrize("lab", LABEL_GRID)
def test_three_forms_agree(lab):
    p = wavefn.WavefnParams.from_labels(lab, C)
    qs = np.linspace(-6, 6, 129)
    base = wavefn.psi(qs, p)
    for form in ("angle", "sqrt"):
        assert np.max(np.abs(wavefn.psi_form(qs, p, form) - base)) < 1e-12


def test_unknown_form_rejected():
    p = wavefn.WavefnParams.from_labels(Labels(), C)
    for form in ("bogus", "ratio"):  # "ratio" was psi's own code path
        with pytest.raises(OutOfDomain):
            wavefn.psi_form(0.0, p, form)


def test_log_psi_trivials():
    p = wavefn.WavefnParams.from_labels(Labels(), C)
    assert complex(wavefn.log_psi(0.0, p)) == pytest.approx(
        math.log(math.pi ** -0.25), rel=1e-14)


@pytest.mark.parametrize("lab", LABEL_GRID)
def test_log_psi_decay_rate_positive(lab):
    p = wavefn.WavefnParams.from_labels(lab, C)
    ch, sh = math.cosh(lab.r), math.sinh(lab.r)
    lam = (ch - cmath.exp(1j * lab.theta) * sh) \
        / (ch + cmath.exp(1j * lab.theta) * sh)
    assert lam.real > 0  # normalizability
    q1, q2 = p.moments.q0 + 3.0, p.moments.q0 + 4.0
    lp1, lp2 = wavefn.log_psi(q1, p), wavefn.log_psi(q2, p)
    assert lp2.real < lp1.real


def test_log_psi_frozen_large_q():
    # 40-digit evaluation at q = 40 for (u0, z) = (0.5-0.3i, e^{2i})
    lab = Labels(u0=0.5 - 0.3j, r=1.0, theta=2.0)
    p = wavefn.WavefnParams.from_labels(lab, C)
    lp = complex(wavefn.log_psi(40.0, p))
    assert lp.real == pytest.approx(-343.1451138052101279182, abs=1e-10)
    assert lp.imag == pytest.approx(1112.826353655842669678, abs=1e-10)


def test_exp_log_psi_matches_psi():
    lab = Labels(u0=1 + 1j, r=0.9, theta=2.4)
    p = wavefn.WavefnParams.from_labels(lab, C)
    qs = np.linspace(-8, 8, 65)
    direct = wavefn.psi_form(qs, p, "angle")
    mask = np.abs(direct) > 1e-250
    assert np.max(np.abs(np.exp(wavefn.log_psi(qs[mask], p)) - direct[mask])) \
        < 1e-12


def test_log_psi_finite_where_psi_underflows():
    lab = Labels(u0=0.0, r=0.0, theta=0.0)
    p = wavefn.WavefnParams.from_labels(lab, C)
    lp = complex(wavefn.log_psi(60.0, p))
    assert np.isfinite(lp.real)
    assert lp.real < -1500  # |psi| ~ e^{-1800}, far below float range


def test_log_psi_phase_overflow():
    # at z = 300i the chirp corr x^2/(4 hbar) leaves the float range at
    # q = 1e160 while the real log, -x^2/4 ~ -2.7e59, does not; psi is 0
    # there whatever its phase, so the phase is set to 0
    p = wavefn.WavefnParams.from_labels(Labels(r=300.0, theta=math.pi / 2), C)
    q = np.array([1e160, 0.0])
    lp = wavefn.log_psi(q, p)
    assert lp[0].imag == 0.0 and -3e59 < lp[0].real < -2e59
    assert lp[1] == wavefn.log_psi(0.0, p)
    assert np.array_equal(wavefn.psi(q, p), np.exp(lp))
    assert wavefn.psi(1e160, p) == 0
    # near the peak the phase q p0 / hbar overflows: no value to return
    p = wavefn.WavefnParams.from_labels(Labels(u0=1e200j, r=300.0), C)
    with pytest.raises(OutOfDomain, match="phase of psi"):
        wavefn.log_psi([1e130, 1e131], p)


def test_phase_anchor_through_quadrature():
    # integral of conj(psi_vac) psi_z reproduces (cosh r)^{-1/2} with zero
    # imaginary part: the squeeze phase convention is forced by this
    vac = wavefn.WavefnParams.from_labels(Labels(), C)
    for r, th in ((0.5, 0.9), (0.7, 1.1), (1.2, math.pi / 2)):
        p = wavefn.WavefnParams.from_labels(Labels(u0=0, r=r, theta=th), C)
        spec = quad.QuadratureSpec(quad.QuadKind.GAUSS_HERMITE, 96,
                                   scale=(1.6, 1.0), rel_tol=1e-8)
        rep = quad.integrate_line(
            lambda q: np.conj(wavefn.psi(q, vac)) * wavefn.psi(q, p), spec)
        assert abs(rep.value.imag) < 1e-10
        assert rep.value.real == pytest.approx(math.cosh(r) ** -0.5,
                                               abs=1e-10)


@pytest.mark.parametrize("lab", LABEL_GRID)
def test_normalization(lab):
    p = wavefn.WavefnParams.from_labels(lab, C)
    spec = quad.QuadratureSpec(
        quad.QuadKind.GAUSS_HERMITE, 96, center=(p.moments.q0, 0.0),
        scale=(3.0 * p.moments.dq, 1.0), rel_tol=1e-8)
    rep = quad.integrate_line(lambda q: np.abs(wavefn.psi(q, p)) ** 2, spec)
    assert rep.value == pytest.approx(1.0, abs=1e-10)


def _mp_abs_psi(q, x0, r, theta):
    """|psi(q)| of D(u0) S(r e^{i theta})|0> (hbar = ell0 = 1) in mpmath.

    |psi|^2 = pi^{-1/2} |B|^{-1} exp(-(q - q0)^2 Re(w)) with q0 = sqrt(2) x0,
    x0 = Re u0, B = cosh r + e^{i theta} sinh r and
    w = (cosh r - e^{i theta} sinh r)/B; at r = 40 the cancellation in w
    costs 35 digits, so callers work at 80.
    """
    rr, th = mpmath.mpf(r), mpmath.mpf(theta)
    ch, e_sh = mpmath.cosh(rr), mpmath.expj(th) * mpmath.sinh(rr)
    b = ch + e_sh
    w = (ch - e_sh) / b
    d = mpmath.mpf(q) - mpmath.sqrt(2) * x0
    return (mpmath.pi ** -0.25 * abs(b) ** -0.5
            * mpmath.exp(-mpmath.re(w) * d * d / 2))


@pytest.mark.parametrize("r", [1.6e-8, 1e-4, 2.0, 4.0, 8.0, 12.0, 18.0, 40.0])
@pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 2, 2.0, math.pi])
def test_abs_psi_vs_mpmath(r, theta):
    # |psi| at q0 + k dq (k = 0, 1, 2), relative to 8 ulp of 1 + |ln|psi||
    # (psi is the exp of its log, whose own rounding is eps |ln|psi||) plus
    # the mixed condition of ln|psi| in (q, Re u0, r, theta).  Compared in
    # modulus: the phase there is about sin(theta) sinh(2r) k^2/4 rad, whose
    # rounding is of that size times eps.  The lab-frame exponent lost
    # 8.7e-11 at r = 8 and 0.10 at r = 18, theta = 0.3.
    x0 = 0.5
    p = wavefn.WavefnParams.from_labels(Labels(u0=x0 + 0.5j, r=r, theta=theta), C)
    for k in range(3):
        q = p.moments.q0 + k * p.moments.dq
        got = abs(complex(wavefn.psi(q, p)))
        args = (q, x0, r, theta)
        with mpmath.workdps(80):
            want = _mp_abs_psi(*args)
            cond = 1 + abs(mpmath.log(want))
            for i, x in enumerate(args):
                def ln_abs(v, i=i):
                    return mpmath.log(_mp_abs_psi(*args[:i], v, *args[i + 1:]))

                cond += abs(x * mpmath.diff(ln_abs, x))
        assert abs(got - want) <= 8 * 2.0**-53 * cond * want


def test_hermite_functions_recurrence():
    xs = np.linspace(-8, 8, 33)
    h = wavefn.hermite_functions(60, xs)
    # orthonormality sampled: compare against scipy's Hermite polynomial
    from numpy.polynomial.hermite import hermval

    n = 7
    coef = np.zeros(n + 1)
    coef[n] = 1.0
    ref = hermval(xs, coef) * np.exp(-xs * xs / 2) \
        / math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    assert np.max(np.abs(h[n] - ref)) < 1e-12
    # high orders stay finite and O(1)
    assert np.max(np.abs(h[60])) < 1.0


@pytest.mark.parametrize("q", [np.linspace(-6.0, 6.0, 129),
                               np.linspace(-2.0, 3.0, 12).reshape(3, 4),
                               np.array(0.37), 1.5, np.array([-0.8])])
def test_synthesize_stack_rows_are_per_state_calls(q):
    labs = [Labels(u0=1 + 1j, r=0.7, theta=math.pi / 3),
            Labels(u0=-1.5 + 0.5j, r=1.2, theta=math.pi),
            Labels(u0=0j, r=0.0, theta=0.0)]
    amps = fock.saturating_state_batch([lab.u0 for lab in labs],
                                       [lab.z for lab in labs], 96).T
    c = Constants(hbar=1.7, ell0=0.6)
    stack = wavefn.synthesize(q, amps, c)
    assert stack.shape == (len(labs), *np.shape(q))
    for row, st in zip(stack, amps):
        assert np.array_equal(row, wavefn.synthesize(q, st, c))
