import math

import mpmath
import numpy as np
import pytest

from srsqueeze.params import (
    Constants,
    DerivedAngles,
    Labels,
    Moments,
    NotSaturated,
    OutOfDomain,
    derived_angles,
    labels_to_moments,
    lambda0,
    moments_to_labels,
    saturation_defect,
    squeezed_frame_label,
    thetabar,
    wrap_angle,
)

C = Constants()

GRID = [
    Labels(u0=u0, r=r, theta=th)
    for u0 in (0j, 1 + 0j, 1 + 1j, 2j, -1.5 + 0.5j)
    for r in (0.0, 0.25, 0.7, 1.2)
    for th in (0.0, math.pi / 3, math.pi / 2, math.pi)
    if not (r == 0 and th != 0.0)
]


def test_constants_validation():
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(OutOfDomain):
            Constants(hbar=bad)
        with pytest.raises(OutOfDomain):
            Constants(ell0=bad)
    assert Constants(hbar=1e-300, ell0=1e300).hbar == 1e-300


def test_labels_canonicalization():
    lab = Labels(u0=1j, r=0.5, theta=3 * math.pi)
    assert lab.theta == pytest.approx(math.pi)
    assert Labels(u0=0, r=0.0, theta=2.3).theta == 0.0
    with pytest.raises(OutOfDomain):
        Labels(u0=0, r=-0.1)
    assert Labels.from_z(1j, 0.5j).theta == pytest.approx(math.pi / 2)


def test_wrap_angle_interval():
    for t in np.linspace(-9, 9, 61):
        w = wrap_angle(t)
        assert -math.pi < w <= math.pi
        assert abs(np.exp(1j * w) - np.exp(1j * t)) < 1e-12


def test_vacuum_moments():
    m = labels_to_moments(Labels(), C)
    assert m.q0 == 0 and m.p0 == 0
    assert m.dq == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert m.dp == pytest.approx(1 / math.sqrt(2), rel=1e-15)
    assert m.corr == 0


def test_vacuum_moments_with_units():
    c = Constants(hbar=2.0, ell0=0.5)
    m = labels_to_moments(Labels(), c)
    assert m.dq == pytest.approx(0.5 / math.sqrt(2), rel=1e-15)
    assert m.dp == pytest.approx(2.0 / (0.5 * math.sqrt(2)), rel=1e-15)


def test_centers_from_u0():
    u0 = (1 + 1j) / math.sqrt(2)
    m = labels_to_moments(Labels(u0=u0), C)
    assert m.q0 == pytest.approx(1.0, rel=1e-15)
    assert m.p0 == pytest.approx(1.0, rel=1e-15)
    c = Constants(hbar=3.0, ell0=2.0)
    m = labels_to_moments(Labels(u0=u0), c)
    assert m.q0 == pytest.approx(c.ell0)
    assert m.p0 == pytest.approx(c.hbar / c.ell0)


def test_correlated_point_against_fock_expectations():
    # corr/hbar = sinh(1) at r=0.5, theta=pi/2; dq = dp ell0^2/hbar there
    from srsqueeze import fock

    lab = Labels(u0=0, r=0.5, theta=math.pi / 2)
    m = labels_to_moments(lab, C)
    assert m.corr == pytest.approx(math.sinh(1.0), rel=1e-14)
    assert m.dq == pytest.approx(m.dp, rel=1e-14)
    st = fock.saturating_state_batch(lab.u0, lab.z, 128)[:, 0]
    rec, = fock.sr_ur_check([st], C)
    me = rec.as_moments()
    assert me.corr == pytest.approx(m.corr, abs=1e-12)
    assert me.dq == pytest.approx(m.dq, abs=1e-13)
    assert me.dp == pytest.approx(m.dp, abs=1e-13)


@pytest.mark.parametrize("lab", GRID)
def test_roundtrip(lab):
    m = labels_to_moments(lab, C)
    back = moments_to_labels(m, C)
    assert abs(back.u0 - lab.u0) <= 1e-12
    assert abs(back.r - lab.r) <= 1e-12
    if lab.r > 0:
        assert abs(np.exp(1j * back.theta) - np.exp(1j * lab.theta)) <= 1e-12


def test_roundtrip_random_labels():
    rng = np.random.default_rng(42)
    c = Constants(hbar=0.8, ell0=1.9)
    for _ in range(200):
        lab = Labels(u0=complex(*rng.normal(scale=1.5, size=2)),
                     r=float(rng.uniform(0, 1.5)),
                     theta=float(rng.uniform(-math.pi, math.pi)))
        back = moments_to_labels(labels_to_moments(lab, c), c)
        assert abs(back.u0 - lab.u0) <= 1e-12
        assert abs(back.r - lab.r) <= 1e-12
        if lab.r > 1e-12:
            assert abs(np.exp(1j * back.theta)
                       - np.exp(1j * lab.theta)) <= 1e-11


@pytest.mark.parametrize("lab", GRID)
def test_saturation_identity(lab):
    m = labels_to_moments(lab, C)
    target = 0.25 * (1 + math.sin(lab.theta) ** 2 * math.sinh(2 * lab.r) ** 2)
    assert m.dq**2 * m.dp**2 == pytest.approx(target, rel=1e-12)
    assert saturation_defect(m, C) <= 1e-12


@pytest.mark.parametrize("lab", GRID)
def test_uncertainty_band(lab):
    m = labels_to_moments(lab, C)
    lo, hi = math.exp(-lab.r) / math.sqrt(2), math.exp(lab.r) / math.sqrt(2)
    assert lo - 1e-12 <= m.dq <= hi + 1e-12
    assert lo - 1e-12 <= m.dp <= hi + 1e-12


def test_inverse_map_vacuum():
    lab = moments_to_labels(
        Moments(q0=0, p0=0, dq=1 / math.sqrt(2), dp=1 / math.sqrt(2), corr=0), C)
    assert lab.u0 == 0 and lab.r == 0 and lab.theta == 0


@pytest.mark.parametrize("r", (0.3, 0.9))
def test_inverse_map_squeeze_branches(r):
    er, emr = math.exp(r) / math.sqrt(2), math.exp(-r) / math.sqrt(2)
    lab = moments_to_labels(Moments(q0=0, p0=0, dq=er, dp=emr, corr=0), C)
    assert lab.theta == pytest.approx(0.0, abs=1e-14)
    assert lab.r == pytest.approx(r, rel=1e-13)
    lab = moments_to_labels(Moments(q0=0, p0=0, dq=emr, dp=er, corr=0), C)
    assert lab.theta == pytest.approx(math.pi)
    assert lab.r == pytest.approx(r, rel=1e-13)


def test_not_saturated_raises():
    with pytest.raises(NotSaturated):
        moments_to_labels(Moments(q0=0, p0=0, dq=0.9, dp=0.9, corr=0.5), C)
    # loosening the tolerance lets mildly noisy moments through
    m = labels_to_moments(Labels(u0=1, r=0.4, theta=1.0), C)
    noisy = Moments(q0=m.q0, p0=m.p0, dq=m.dq * (1 + 3e-8), dp=m.dp,
                    corr=m.corr)
    with pytest.raises(NotSaturated):
        moments_to_labels(noisy, C)
    moments_to_labels(noisy, C, rel_tol=1e-6)


def test_saturation_tolerance_must_be_positive():
    # a NaN tolerance would pass any defect, a negative one none
    m = labels_to_moments(Labels(u0=1, r=0.4, theta=1.0), C)
    for bad in (math.nan, -1.0, 0.0):
        with pytest.raises(OutOfDomain):
            moments_to_labels(m, C, rel_tol=bad)


def test_moments_validation():
    with pytest.raises(OutOfDomain):
        Moments(q0=0, p0=0, dq=0.0, dp=1.0, corr=0)


def test_derived_angles_unsqueezed():
    lab = Labels(u0=0.3 + 0.1j)
    ang = derived_angles(lab, labels_to_moments(lab, C), C)
    assert ang.rho_plus == pytest.approx(1.0, abs=1e-14)
    # rho_minus is a square root of a cancelling difference; its square is
    # the well-conditioned quantity
    assert ang.rho_minus**2 == pytest.approx(0.0, abs=1e-14)
    assert ang.rho_minus < 1e-7
    assert ang.thetabar_plus == 0.0
    assert ang.thetabar_minus == 0.0


def test_derived_angles_real_squeeze():
    lab = Labels(u0=0, r=0.8, theta=0.0)
    ang = derived_angles(lab, labels_to_moments(lab, C), C)
    assert math.sin(ang.thetabar_plus) == pytest.approx(0.0, abs=1e-15)
    assert math.sin(ang.thetabar_minus) == pytest.approx(0.0, abs=1e-15)
    assert math.cos(ang.thetabar_plus) == pytest.approx(1.0, rel=1e-15)


def test_derived_angles_frozen_point():
    # independently evaluated at 40 digits for r=1, theta=pi/3
    lab = Labels(u0=0, r=1.0, theta=math.pi / 3)
    m = labels_to_moments(lab, C)
    ang = derived_angles(lab, m, C)
    assert ang.phi == pytest.approx(1.262568419811810039611, abs=1e-14)
    assert ang.rho_plus == pytest.approx(1.543080634815243778478, rel=1e-14)
    assert ang.rho_minus == pytest.approx(1.175201193643801456882, rel=1e-14)
    assert ang.theta_plus == pytest.approx(0.8169470743480000589738, abs=1e-14)
    assert ang.theta_minus == pytest.approx(-1.277448028045195433335, abs=1e-14)
    assert ang.thetabar_plus == pytest.approx(0.4456213454638099806375, abs=1e-14)
    assert ang.thetabar_minus == pytest.approx(-0.8169470743480000589738, abs=1e-14)
    assert m.dq == pytest.approx(1.669674503459752307928, rel=1e-14)
    assert m.dp == pytest.approx(0.9871082734837455701428, rel=1e-14)
    assert m.corr == pytest.approx(3.140953249175508260951, rel=1e-14)


@pytest.mark.parametrize("r", [0.0, 1.6e-8, 1e-4, 1e-2, 1.2, 8.0])
@pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi / 2, math.pi, -2.0])
def test_rho_minus_vs_mpmath(r, theta):
    # rho_minus = sinh r, judged in 4 ulp of its condition with respect to
    # the moments it reads: rho = sqrt(((sx - sy)^2 + sqrt(1 + t^2) - 1)/2)
    # on saturating moments, whose partials in sx and sy are bounded by
    # 1/sqrt(2) (their limit at r = 0)
    lab = Labels(u0=0.5 + 0.5j, r=r, theta=theta)
    got = derived_angles(lab, labels_to_moments(lab, C), C).rho_minus
    with mpmath.workdps(60):
        rr, th = mpmath.mpf(r), mpmath.mpf(theta)
        ch, sh = mpmath.cosh(rr), mpmath.sinh(rr)
        sx = abs(ch + mpmath.expj(-th) * sh) / mpmath.sqrt(2)
        sy = abs(ch - mpmath.expj(th) * sh) / mpmath.sqrt(2)
        t = mpmath.sin(th) * mpmath.sinh(2 * rr)
        if sh == 0:
            cond = (sx + sy) / mpmath.sqrt(2)
        else:
            cond = (sh + (sx + sy) * abs(sx - sy) / (2 * sh)
                    + t * t / (4 * sh * mpmath.sqrt(1 + t * t)))
        assert abs(got - sh) <= 4 * 2.0**-52 * cond


@pytest.mark.parametrize("r", [2.0, 8.0, 12.0, 18.0, 40.0])
@pytest.mark.parametrize("theta", [0.0, 1e-3, math.pi / 3, math.pi / 2, 2.0,
                                   math.pi, -math.pi / 2, -3.0])
def test_thetabar_vs_mpmath(r, theta):
    # both real parts are positive sums, so each phase is a few ulp of pi/2
    # from its value at the float labels, where cosh r -+ cos(theta) sinh r
    # used to cancel to 0 (r = 12, theta = 0) or below (r = 18, 40)
    got = thetabar(r, theta)
    with mpmath.workdps(60):
        rr, th = mpmath.mpf(r), mpmath.mpf(theta)
        want = [mpmath.arg(mpmath.cosh(rr) + sgn * mpmath.expj(th)
                           * mpmath.sinh(rr)) for sgn in (1, -1)]
        for g, w in zip(got, want):
            assert abs(g - w) <= 4 * 2.0**-53 * math.pi / 2


SLICE_R = [1.6e-8, 1e-4, 2.0, 4.0, 8.0, 12.0, 18.0, 40.0]
SLICE_THETA = [0.0, math.pi / 3, math.pi / 2, 2.0, math.pi, -3.0]


def _mp_moments(r, theta):
    """(dq, dp, corr) of S(r e^{i theta})|0> (hbar = ell0 = 1) in mpmath.

    From the Bogoliubov coefficients of S^dag a S: dq = |cosh r + e^{-i theta}
    sinh r|/sqrt(2) and dp = |cosh r - e^{i theta} sinh r|/sqrt(2); at r = 40
    their cancellation costs 35 digits, so callers work at 80.
    """
    rr, th = mpmath.mpf(r), mpmath.mpf(theta)
    ch, sh = mpmath.cosh(rr), mpmath.sinh(rr)
    return (abs(ch + mpmath.expj(-th) * sh) / mpmath.sqrt(2),
            abs(ch - mpmath.expj(th) * sh) / mpmath.sqrt(2),
            mpmath.sin(th) * mpmath.sinh(2 * rr))


def _mp_theta_minus(sx, sy, t):
    return mpmath.arg(sy - mpmath.expj(mpmath.atan(t)) * sx)


@pytest.mark.parametrize("r", SLICE_R)
@pytest.mark.parametrize("theta", SLICE_THETA)
def test_moments_vs_mpmath(r, theta):
    # the spreads are norms of two products of correctly rounded exp, cos and
    # sin values: sums of positive terms, with condition 1 in those values,
    # so a few ulp relative at any r; corr is one product.  The lab-frame
    # cosh 2r -+ cos(theta) sinh 2r lost dp at r = 8 (8.6e-11 relative) and
    # rounded it to 0 at r = 40.
    m = labels_to_moments(Labels(u0=0.5 + 0.5j, r=r, theta=theta), C)
    with mpmath.workdps(80):
        want = _mp_moments(r, theta)
    for got, w in zip((m.dq, m.dp, m.corr), want):
        assert abs(got - w) <= 8 * 2.0**-53 * abs(w)


@pytest.mark.parametrize("r", SLICE_R)
@pytest.mark.parametrize("theta", SLICE_THETA)
def test_theta_minus_vs_mpmath(r, theta):
    # theta_minus = arg(sy - e^{i phi} sx) reads only the moments, so it is
    # judged at the moments it received: within 8 ulp of its mixed condition
    # in the labels (r, theta), with one ulp of 1 rad as the floor of an
    # angle.  (The moments' own rounding, tested above, shifts the exact
    # value by up to about eps/r at small r, where sy - sx is of order r.)
    # sy - cos(phi) sx used to lose 3.6e-9 at r = 1.6e-8, theta = pi/2.
    lab = Labels(u0=0.5 + 0.5j, r=r, theta=theta)
    m = labels_to_moments(lab, C)
    got = derived_angles(lab, m, C).theta_minus

    def exact(rr, th):
        return _mp_theta_minus(*_mp_moments(rr, th))

    with mpmath.workdps(80):
        want = _mp_theta_minus(mpmath.mpf(m.dq), mpmath.mpf(m.dp),
                               mpmath.mpf(m.corr))
        cond = (abs(want) + abs(r * mpmath.diff(lambda x: exact(x, theta), r))
                + abs(theta * mpmath.diff(lambda x: exact(r, x), theta)))
        err = abs(got - want)
        err = min(err, abs(err - 2 * mpmath.pi))
    assert err <= 8 * 2.0**-53 * (1 + cond)


@pytest.mark.parametrize("lab", GRID)
def test_rho_and_angle_identities(lab):
    m = labels_to_moments(lab, C)
    ang = derived_angles(lab, m, C)
    assert ang.rho_plus**2 - ang.rho_minus**2 == pytest.approx(1.0, abs=1e-12)
    assert math.tan(ang.phi) == pytest.approx(m.corr, abs=1e-12)
    ch2, sh2 = math.cosh(2 * lab.r), math.sinh(2 * lab.r)
    rhs = 1.0 / math.sqrt(ch2**2 - (math.cos(lab.theta) * sh2) ** 2)
    assert math.cos(ang.thetabar_plus - ang.thetabar_minus) == \
        pytest.approx(rhs, abs=1e-12)


def test_lambda0_uncorrelated():
    m = labels_to_moments(Labels(u0=0, r=0.6, theta=0.0), C)
    lam = lambda0(m, C)
    assert lam.real == 0.0
    assert lam == pytest.approx(-0.5j / m.dp**2, rel=1e-15)


def test_lambda0_vacuum():
    c = Constants(hbar=1.7, ell0=0.8)
    lam = lambda0(labels_to_moments(Labels(), c), c)
    assert lam == pytest.approx(-1j * c.ell0**2 / c.hbar, rel=1e-14)


def test_lambda0_frozen_point_and_forms():
    lab = Labels(u0=0, r=0.5, theta=math.pi / 2)
    m = labels_to_moments(lab, C)
    lam = lambda0(m, C)
    assert lam == pytest.approx(0.7615941559557648881 - 0.6480542736638853996j,
                                rel=1e-14)
    phi = math.atan(m.corr)
    assert lam == pytest.approx(-1j * (m.dq / m.dp) * np.exp(1j * phi),
                                rel=1e-12)


def test_squeezed_frame_label():
    assert squeezed_frame_label(1 + 2j, 0) == 1 + 2j
    z = 0.7 * np.exp(1j * 1.1)
    u0 = 0.5 - 0.25j
    zeta = np.exp(1j * 1.1) * math.tanh(0.7)
    expected = math.cosh(0.7) * (u0 - zeta * np.conj(u0))
    assert squeezed_frame_label(u0, z) == pytest.approx(expected, rel=1e-14)


FRAME_R = [8.0, 12.0, 20.0, 40.0]
FRAME_X = [1.0, 1j, 0.3 - 0.8j]


def _mp_frame(x, z):
    """cosh(r) x - e^{i theta} sinh(r) conj(x) at the float z, in mpmath.

    Returns the value and its condition: the sum over the inputs Re x,
    Im x, r = |z| and theta = arg z of |input| |d value / d input|.
    """
    zm = mpmath.mpc(z.real, z.imag)
    r = abs(zm)
    e = zm / r
    xm = mpmath.mpc(x.real, x.imag)
    ch, sh = mpmath.cosh(r), mpmath.sinh(r)
    value = ch * xm - e * sh * mpmath.conj(xm)
    cond = (abs(xm.real) * abs(ch - e * sh) + abs(xm.imag) * abs(ch + e * sh)
            + r * abs(sh * xm - e * ch * mpmath.conj(xm))
            + abs(mpmath.arg(zm)) * sh * abs(xm))
    return value, cond


@pytest.mark.parametrize("r", FRAME_R)
@pytest.mark.parametrize("theta", SLICE_THETA)
@pytest.mark.parametrize("x", FRAME_X)
def test_squeezed_frame_label_vs_mpmath(r, theta, x):
    # judged within 8 ulp of its condition in (Re x, Im x, r, theta).
    # cosh(r) (x - zeta conj(x)) cancelled along the squeezed axis: at x = 1,
    # theta = 0 it was off by 2.0e-10 relative at r = 8 and 3.2e-7 at
    # r = 12, and it returned exactly 0 for e^{-20} at r = 20
    z = complex(r) if theta == 0.0 else r * complex(math.cos(theta),
                                                    math.sin(theta))
    got = squeezed_frame_label(x, z)
    with mpmath.workdps(80):
        want, cond = _mp_frame(x, z)
        err = abs(mpmath.mpc(got.real, got.imag) - want)
    assert err <= 8 * 2.0**-53 * cond


def test_squeezed_frame_label_maps_arrays_elementwise():
    z = 12.0 * complex(math.cos(0.4), math.sin(0.4))
    u0 = np.array([1.0, 1j, 0.3 - 0.8j])
    got = squeezed_frame_label(u0, z)
    # numpy may round the complex products differently from Python
    want = [squeezed_frame_label(complex(u), z) for u in u0]
    assert got.tolist() == pytest.approx(want, rel=4 * 2.0**-53, abs=0)


def test_one_error_class_per_exit_code():
    # exit 2 OutOfDomain, exit 1 NotSaturated, exit 3 QuadratureNotConverged,
    # all three defined in params, which loads no numpy
    import importlib

    import srsqueeze
    from srsqueeze import quadrature
    from srsqueeze.params import QuadratureNotConverged

    assert quadrature.QuadratureNotConverged is QuadratureNotConverged
    assert srsqueeze.QuadratureNotConverged is QuadratureNotConverged
    found = set()
    for name in ("params", "bch", "fock", "kernels", "quadrature", "wavefn",
                 "verify", "cli"):
        module = importlib.import_module(f"srsqueeze.{name}")
        found |= {obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and not issubclass(obj, Warning)
                  and obj.__module__.startswith("srsqueeze")}
    assert found == {OutOfDomain, NotSaturated, QuadratureNotConverged}


def test_closed_forms_return_only_fields_a_caller_reads():
    from dataclasses import fields

    from srsqueeze.kernels import OverlapResult
    from srsqueeze.wavefn import WavefnParams

    def names(cls):
        return [f.name for f in fields(cls)]

    assert names(OverlapResult) == ["value", "modulus", "phase"]
    assert names(WavefnParams) == ["labels", "moments", "thetabar_plus",
                                   "constants"]
    assert names(DerivedAngles) == ["phi", "rho_plus", "rho_minus",
                                    "theta_plus", "theta_minus",
                                    "thetabar_plus", "thetabar_minus"]
