"""Bidirectional parametrization between physical moments and (u0, z) labels.

A state saturating the Schrodinger-Robertson bound for (Q, P) is fixed by two
complex labels: a displacement ``u0`` and a squeeze ``z = r e^{i theta}``.
This module maps labels to the physical expectation data (centers,
uncertainties, correlation), inverts that map, and exposes the angular
quantities (phi, rho_pm, theta_pm, thetabar_pm) that the closed-form
wavefunctions and overlap kernels are written in.

Conventions: theta always lives in (-pi, pi]; at r = 0 it is stored as 0
(the squeeze phase is physically irrelevant there).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi

SQRT2 = math.sqrt(2.0)


class OutOfDomain(ValueError):
    """An input outside the domain the package accepts.

    Labels, constants, options or rule sizes that no closed form or oracle
    is defined at, or at which its exponents leave the float range.  The
    CLI maps it to exit code 2.
    """


class NotSaturated(ValueError):
    """Moments violate dq^2 dp^2 = (hbar^2 + corr^2)/4 beyond tolerance.

    Such moments do not label any state that saturates the
    Schrodinger-Robertson uncertainty relation.  The CLI maps it to exit
    code 1.
    """


class QuadratureNotConverged(RuntimeError):
    """A quadrature rule's estimate misses its tolerance: order-doubled
    estimates that disagree, or a z-plane measure that fails its
    normalization.  report is the rule's quadrature.QuadratureReport.  The
    CLI maps it to exit code 3.
    """

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


def wrap_angle(theta: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi]."""
    t = math.fmod(theta, TWO_PI)
    if t <= -math.pi:
        t += TWO_PI
    elif t > math.pi:
        t -= TWO_PI
    return t


@dataclass(frozen=True)
class Constants:
    """Physical constants: the action scale hbar and the intrinsic scale ell0.

    ell0 carries the units of Q, so P carries units of hbar/ell0.  The
    dimensionless defaults hbar = ell0 = 1 are what the test suite uses.
    """

    hbar: float = 1.0
    ell0: float = 1.0

    def __post_init__(self):
        if not 0 < self.hbar < math.inf:
            raise OutOfDomain(f"hbar must be finite and positive, got {self.hbar}")
        if not 0 < self.ell0 < math.inf:
            raise OutOfDomain(f"ell0 must be finite and positive, got {self.ell0}")


@dataclass(frozen=True)
class Labels:
    """State labels (u0, z) with z stored in polar form (r, theta).

    theta is normalized into (-pi, pi] on construction, and forced to 0
    when r vanishes so that equal states compare equal.
    """

    u0: complex = 0j
    r: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if not self.r >= 0:
            raise OutOfDomain(f"squeeze magnitude r must be >= 0, got {self.r}")
        theta = wrap_angle(self.theta) if self.r > 0 else 0.0
        object.__setattr__(self, "u0", complex(self.u0))
        object.__setattr__(self, "theta", theta)

    @classmethod
    def from_z(cls, u0: complex, z: complex) -> "Labels":
        return cls(u0=u0, r=abs(z), theta=cmath.phase(z) if z != 0 else 0.0)

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class Moments:
    """Expectation data of a state: centers, spreads and (Q,P) correlation.

    corr is the anticommutator expectation <{Q - q0, P - p0}> and carries
    action units.  For a saturating state dq^2 dp^2 = (hbar^2 + corr^2)/4.
    """

    q0: float
    p0: float
    dq: float
    dp: float
    corr: float

    def __post_init__(self):
        if not self.dq > 0:
            raise OutOfDomain(f"dq must be positive, got {self.dq}")
        if not self.dp > 0:
            raise OutOfDomain(f"dp must be positive, got {self.dp}")


@dataclass(frozen=True)
class DerivedAngles:
    """Angular repackaging of the moments used by wavefunctions and kernels.

    rho_plus = cosh r and rho_minus = sinh r; theta = theta_minus -
    theta_plus +- pi resolves the squeeze phase; thetabar_pm fix the phase
    of (cosh r +- e^{i theta} sinh r).
    """

    phi: float
    rho_plus: float
    rho_minus: float
    theta_plus: float
    theta_minus: float
    thetabar_plus: float
    thetabar_minus: float


def saturation_defect(m: Moments, c: Constants = Constants()) -> float:
    """Relative defect of dq^2 dp^2 against (hbar^2 + corr^2)/4.

    Raises OutOfDomain where that target underflows to 0.
    """
    target = 0.25 * (c.hbar**2 + m.corr**2)
    if not target > 0:
        raise OutOfDomain("(hbar^2 + corr^2)/4 underflows to 0 at these constants")
    return abs(m.dq**2 * m.dp**2 - target) / target


def labels_to_moments(labels: Labels, c: Constants = Constants()) -> Moments:
    """Moments of the saturating state labelled by (u0, z).

    The centers are linear in u0; the spreads and the correlation depend
    only on z = r e^{i theta}:

        (dq/ell0)^2      = (cosh 2r + cos(theta) sinh 2r) / 2
        (ell0 dp/hbar)^2 = (cosh 2r - cos(theta) sinh 2r) / 2
        corr             = hbar sin(theta) sinh 2r

    The spreads are read in the squeeze axes (squeeze_ellipse), where both
    are sums of positive terms, dq/ell0 = |(e^{r} cos(theta/2), e^{-r}
    sin(theta/2))|/sqrt(2) and ell0 dp/hbar = |(e^{-r} cos(theta/2), e^{r}
    sin(theta/2))|/sqrt(2), so neither cancels at any r or theta.
    """
    u0 = labels.u0
    q0 = SQRT2 * c.ell0 * u0.real
    p0 = SQRT2 * c.hbar * u0.imag / c.ell0
    mc, ms, pc, ps = squeeze_ellipse(labels.r, labels.theta)
    dq = c.ell0 * math.hypot(pc, ms) / SQRT2
    dp = (c.hbar / c.ell0) * math.hypot(mc, ps) / SQRT2
    corr = c.hbar * math.sin(labels.theta) * math.sinh(2 * labels.r)
    return Moments(q0=q0, p0=p0, dq=dq, dp=dp, corr=corr)


def moments_to_labels(
    m: Moments,
    c: Constants = Constants(),
    rel_tol: float = 1e-9,
) -> Labels:
    """Invert labels_to_moments.

    Raises NotSaturated when the saturation constraint is violated by more
    than rel_tol (relative), since only saturating moments label a state.
    The squeeze phase is recovered on the canonical branch (-pi, pi]; when
    sinh r is below 1e-14 the state is unsqueezed and theta is set to 0.
    Raises OutOfDomain unless rel_tol > 0.
    """
    if not rel_tol > 0:
        raise OutOfDomain(f"rel_tol must be positive, got {rel_tol}")
    defect = saturation_defect(m, c)
    if defect > rel_tol:
        raise NotSaturated(
            f"dq^2 dp^2 deviates from (hbar^2 + corr^2)/4 by relative {defect:.3e} "
            f"(tolerance {rel_tol:.3e})"
        )
    u0 = (m.q0 / c.ell0 + 1j * c.ell0 * m.p0 / c.hbar) / SQRT2
    x = (m.dq / c.ell0) ** 2
    y = (c.ell0 * m.dp / c.hbar) ** 2
    # cos(theta) sinh 2r = x - y and sin(theta) sinh 2r = corr/hbar fix
    # both the magnitude and the branch of the squeeze phase.
    t = m.corr / c.hbar
    sh2 = math.hypot(x - y, t)
    r = 0.5 * math.asinh(sh2)
    if math.sinh(r) < 1e-14:
        return Labels(u0=u0, r=0.0, theta=0.0)
    theta = math.atan2(t, x - y)
    return Labels(u0=u0, r=r, theta=wrap_angle(theta))


def derived_angles(
    labels: Labels,
    m: Moments,
    c: Constants = Constants(),
) -> DerivedAngles:
    """All angular quantities of a consistent (labels, moments) pair."""
    t = m.corr / c.hbar
    phi = math.atan(t)
    sx = m.dq / c.ell0
    sy = c.ell0 * m.dp / c.hbar
    s2 = sy**2 + sx**2
    rho_plus = math.sqrt(0.5 * (s2 + 1.0))
    if s2 >= 2.0:
        rho_minus = math.sqrt(0.5 * (s2 - 1.0))
    else:
        # s2 - 1 cancels at small r.  Saturating moments have 2 sx sy =
        # sqrt(1 + t^2), so s2 - 1 = (sx - sy)^2 + t^2/(1 + sqrt(1 + t^2)).
        # (Past s2 = 2 the direct form loses at most one bit, while this one
        # would carry the rounding of a small sy against a large sx.)
        rho_minus = math.sqrt(0.5 * ((sx - sy) ** 2
                                     + t * t / (1.0 + math.hypot(1.0, t))))
    cphi, sphi = math.cos(phi), math.sin(phi)
    theta_plus = math.atan2(sphi * sx, sy + cphi * sx)
    if rho_minus > 1e-14:
        # sy - cos(phi) sx = (sy - sx) + 2 sin^2(phi/2) sx: at small r both
        # sx and sy are near 1/sqrt(2) and cos(phi) near 1, so the direct
        # difference cancels
        theta_minus = math.atan2(-sphi * sx,
                                 (sy - sx) + 2.0 * math.sin(0.5 * phi) ** 2 * sx)
    else:
        theta_minus = 0.0
    tb_plus, tb_minus = thetabar(labels.r, labels.theta)
    return DerivedAngles(
        phi=phi,
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        theta_plus=wrap_angle(theta_plus),
        theta_minus=wrap_angle(theta_minus),
        thetabar_plus=wrap_angle(tb_plus),
        thetabar_minus=wrap_angle(tb_minus),
    )


def lambda0(m: Moments, c: Constants = Constants()) -> complex:
    """Complex eigenvalue lambda0 of the saturation condition.

    lambda0 = (corr/2 - i hbar/2) / dp^2, equivalently
    -lambda0 = i (dq/dp) e^{i phi} with tan(phi) = corr/hbar.
    """
    return (0.5 * m.corr - 0.5j * c.hbar) / m.dp**2


def squeeze_zeta(r: float, ph: complex) -> complex:
    """zeta = e^{i theta} tanh r from r and the unit phase ph = e^{i theta}.

    For callers that read zeta alone; fock._squeeze_frame gives it with the
    Bogoliubov coefficients.
    """
    return ph * math.tanh(r)


def squeeze_axes(r: float) -> tuple[float, float, float, float]:
    """(tanh r, 1 - tanh r, 1 + tanh r, ln cosh r), none of them cancelling.

    With q = e^{-2r}: 1 - tanh r = 2q/(1 + q), 1 + tanh r = 2/(1 + q) and
    ln cosh r = r + ln(1 + q) - ln 2, or ln(1 + 2 sinh^2(r/2)) for r <= 1,
    where the other form would cancel.  Each is accurate to a few ulps while
    1 - tanh r is a normal float, up to r of about 354.5; cosh r itself
    overflows from r of about 710.
    """
    q = math.exp(-2.0 * r)
    if r <= 1.0:
        ln_cosh = math.log1p(2.0 * math.sinh(0.5 * r) ** 2)
    else:
        ln_cosh = r + math.log1p(q) - math.log(2.0)
    return math.tanh(r), 2.0 * q / (1.0 + q), 2.0 / (1.0 + q), ln_cosh


def squeeze_ellipse(r: float, theta: float) -> tuple[float, float, float, float]:
    """e^{-r} and e^{r} times (cos, sin)(theta/2): the squeeze axes of z = r e^{i theta}.

    Returns (e^{-r} cos, e^{-r} sin, e^{r} cos, e^{r} sin) of theta/2.
    labels_to_moments reads the spreads, and the overlap kernel each state's
    Gaussian factor, from these without cancellation at any r or theta.
    """
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    em, ep = math.exp(-r), math.exp(r)
    return em * c, em * s, ep * c, ep * s


def squeezed_components(r: float, theta: float, x):
    """(e^{-r} Re w, e^{r} Im w) with w = e^{-i theta/2} x.

    cosh(r) x - e^{i theta} sinh(r) conj(x) = e^{i theta/2} (e^{-r} Re w +
    i e^{r} Im w): the squeezed-frame image of x, written in the squeeze
    axes of squeeze_ellipse, so that no term cancels at any r.  x may be a
    complex scalar or a NumPy array.
    """
    mc, ms, pc, ps = squeeze_ellipse(r, theta)
    xr, xi = x.real, x.imag
    return mc * xr + ms * xi, pc * xi - ps * xr


def thetabar(r: float, theta: float) -> tuple[float, float]:
    """(thetabar_plus, thetabar_minus): the phases of cosh r +- e^{i theta} sinh r.

    atan2 needs no normalization, and the real parts are written without
    cancellation: cosh r + cos(theta) sinh r = e^{-r} + 2 cos^2(theta/2) sinh r
    and cosh r - cos(theta) sinh r = e^{-r} + 2 sin^2(theta/2) sinh r, both
    positive, so each phase lies in (-pi/2, pi/2).
    """
    shr, emr = math.sinh(r), math.exp(-r)
    im = math.sin(theta) * shr
    return (math.atan2(im, emr + 2.0 * math.cos(0.5 * theta) ** 2 * shr),
            math.atan2(-im, emr + 2.0 * math.sin(0.5 * theta) ** 2 * shr))


def squeezed_frame_label(u0: complex, z: complex) -> complex:
    """Displacement label seen from the squeezed frame.

    u0(z) = cosh(r) (u0 - zeta conj(u0)) with zeta = e^{i theta} tanh r;
    it is the eigenvalue of the squeezed annihilator on the state (u0, z).
    It is evaluated in the squeeze axes (squeezed_components), accurate
    along the squeezed axis too, where cosh(r) u0 - e^{i theta} sinh(r)
    conj(u0) would cancel.  u0 may also be a NumPy array of labels, mapped
    elementwise with one z.
    """
    z = complex(z)
    theta = cmath.phase(z)
    p, q = squeezed_components(abs(z), theta, u0)
    return cmath.exp(0.5j * theta) * (p + 1j * q)
