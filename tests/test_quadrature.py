import math

import numpy as np
import pytest

from srsqueeze import kernels, quadrature as quad
from srsqueeze import wavefn
from srsqueeze.params import Constants, Labels, OutOfDomain

C = Constants()


def gh_spec(order, **kw):
    return quad.QuadratureSpec(quad.QuadKind.GAUSS_HERMITE, order, **kw)


def plane_spec(order, **kw):
    return quad.QuadratureSpec(quad.QuadKind.TENSOR_GAUSS_HERMITE_2D, order,
                               **kw)


def test_spec_validation():
    with pytest.raises(OutOfDomain):
        quad.QuadratureSpec(quad.QuadKind.GAUSS_HERMITE, 1)
    with pytest.raises(OutOfDomain):
        quad.QuadratureSpec(quad.QuadKind.GAUSS_HERMITE, 8, rel_tol=0.0)
    # the Gauss-Hermite kinds also run the rule at twice the order
    for kind in (quad.QuadKind.GAUSS_HERMITE,
                 quad.QuadKind.TENSOR_GAUSS_HERMITE_2D):
        with pytest.raises(OutOfDomain):
            quad.QuadratureSpec(kind, 186)
    with pytest.raises(OutOfDomain):
        quad._gh_rule(371)


def test_highest_order_stays_finite():
    # the doubled rule runs at order 370, one below where numpy's hermgauss
    # weights break down
    rep = quad.integrate_line(
        lambda q: np.exp(-q * q) / math.sqrt(math.pi), gh_spec(185),
        check=False)
    assert rep.value == pytest.approx(1.0, abs=1e-13)
    assert rep.est_error < 1e-13


def test_normalized_gaussian_line():
    rep = quad.integrate_line(
        lambda q: np.exp(-q * q) / math.sqrt(math.pi), gh_spec(24))
    assert rep.value == pytest.approx(1.0, abs=1e-13)
    assert rep.converged


def test_line_recentering():
    # Gaussian centered far from the origin needs the affine frame
    rep = quad.integrate_line(
        lambda q: np.exp(-((q - 6.0) ** 2)) / math.sqrt(math.pi),
        gh_spec(32, center=(6.0, 0.0)))
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_vacuum_squeeze_overlap_trivial():
    vac = wavefn.WavefnParams.from_labels(Labels(), C)
    rep = quad.integrate_line(
        lambda q: np.conj(wavefn.psi(q, vac)) * wavefn.psi(q, vac),
        gh_spec(40))
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_overlap_phase_resolution_matches_kernel():
    lab = Labels(u0=0, r=0.7, theta=1.1)
    p = wavefn.WavefnParams.from_labels(lab, C)
    vac = wavefn.WavefnParams.from_labels(Labels(), C)
    rep = quad.integrate_line(
        lambda q: np.conj(wavefn.psi(q, vac)) * wavefn.psi(q, p),
        gh_spec(96, scale=(1.6, 1.0)))
    closed = kernels.squeezed_overlap(0, 0, lab.z, 0).value
    assert rep.value == pytest.approx(closed, abs=1e-11)


def test_plane_gaussian_moments():
    rep = quad.integrate_plane(lambda u: np.exp(-np.abs(u) ** 2),
                               plane_spec(24))
    assert rep.value == pytest.approx(1.0, abs=1e-13)
    rep = quad.integrate_plane(
        lambda u: np.abs(u) ** 2 * np.exp(-np.abs(u) ** 2), plane_spec(24))
    assert rep.value == pytest.approx(1.0, abs=1e-12)


def test_plane_matrix_valued():
    def fb(us):
        out = np.empty((us.size, 2, 2), dtype=complex)
        g = np.exp(-np.abs(us) ** 2)
        out[:, 0, 0] = g
        out[:, 0, 1] = g * us
        out[:, 1, 0] = g * np.conj(us)
        out[:, 1, 1] = g * np.abs(us) ** 2
        return out

    rep = quad.integrate_plane(fb, plane_spec(20))
    assert rep.value[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.value[0, 1]) < 1e-13
    assert rep.value[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_not_converged_raises_with_report():
    with pytest.raises(quad.QuadratureNotConverged) as info:
        quad.integrate_line(lambda q: np.exp(-q * q) * np.cos(25 * q),
                            gh_spec(4, rel_tol=1e-12))
    assert info.value.report.nodes_used == 12
    assert not info.value.report.converged


def test_polynomial_exactness_zero_estimate():
    # degree <= 2*order-2 integrands are exact, so doubling sees no change
    rep = quad.integrate_line(
        lambda q: (q**6 - q**2 + 2.0) * np.exp(-q * q), gh_spec(12))
    exact = math.sqrt(math.pi) * (15.0 / 8.0 - 0.5 + 2.0)
    assert rep.value == pytest.approx(exact, rel=1e-14)
    assert rep.est_error < 1e-13


def test_determinism_bit_identical():
    spec = plane_spec(20, scale=(1.3, 0.8), rel_tol=1e-6)

    def f(u):
        return np.exp(-np.abs(u) ** 2 + 0.2j * u.real)

    r1 = quad.integrate_plane(f, spec)
    r2 = quad.integrate_plane(f, spec)
    assert r1.value == r2.value
    assert r1.est_error == r2.est_error
    assert r1.nodes_used == r2.nodes_used


def test_z_measure_normalization_and_moment():
    spec = plane_spec(32, scale=(0.5, 0.5), rel_tol=1e-8)
    rep = quad.integrate_z(lambda z: np.ones_like(z), spec, sigma=0.5)
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    rep = quad.integrate_z(lambda z: np.abs(z) ** 2, spec, sigma=0.5)
    assert rep.value == pytest.approx(0.25, abs=1e-12)


def test_bad_measure():
    # a rule far too narrow for the measure fails its self-normalization
    spec = plane_spec(4, scale=(0.01, 0.01), rel_tol=1e-8)
    for check in (True, False):
        with pytest.raises(quad.QuadratureNotConverged) as exc:
            quad.integrate_z(lambda z: np.ones_like(z), spec, sigma=0.5,
                             check=check)
        rep = exc.value.report
        assert not rep.converged and rep.nodes_used == 16
        assert rep.est_error == abs(rep.value - 1.0) > 1e-8


@pytest.mark.parametrize("order", [1, 2, 7, 16, 41])
def test_frame_nodes_stack_each_frame_bit_for_bit(order):
    # a stack of frames gives every frame the nodes and weights of its own
    # rule, and a single frame those of the tensor product written out
    sx = np.array([1.0, 0.37, 4.1e3, 2.0 ** 0.5])
    sy = np.array([1.0, 2.6, 0.707, 1e-3])
    us, tw = quad._frame_nodes(order, sx, sy)
    assert us.shape == tw.shape == (sx.size, order * order)
    x, twx = quad._gh_rule(order)
    for k in range(sx.size):
        spec = quad.QuadratureSpec(quad.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                   center=(0.25, -1.5), scale=(sx[k], sy[k]))
        u1, tw1 = quad._plane_nodes(order, spec)
        want_u = ((0.25 + float(sx[k]) * x)[:, None]
                  + 1j * (-1.5 + float(sy[k]) * x)[None, :]).ravel()
        want_tw = (twx[:, None] * twx[None, :]).ravel() \
            * (float(sx[k]) * float(sy[k]) / math.pi)
        assert np.array_equal(u1, want_u) and np.array_equal(tw1, want_tw)
        assert np.array_equal(tw[k], tw1)
        u0, _ = quad._plane_nodes(order, quad.QuadratureSpec(
            quad.QuadKind.TENSOR_GAUSS_HERMITE_2D, scale=(sx[k], sy[k])))
        assert np.array_equal(us[k], u0)
