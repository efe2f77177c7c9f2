import cmath
import math

import numpy as np
import pytest

from srsqueeze import fock, kernels, wavefn
from srsqueeze import quadrature as quad
from srsqueeze.params import (Constants, Labels, OutOfDomain,
                              squeezed_frame_label)

C = Constants()


def fock_overlap(z2, u2, z1, u1, dim=160):
    s2 = fock.saturating_state_batch(u2, z2, dim)[:, 0]
    s1 = fock.saturating_state_batch(u1, z1, dim)[:, 0]
    return complex(np.vdot(s2, s1))


def test_coherent_overlap_trivials():
    assert kernels.coherent_overlap(0.7 + 1j, 0.7 + 1j).value == \
        pytest.approx(1.0, rel=1e-14)
    u = 1.2 - 0.4j
    res = kernels.coherent_overlap(0.0, u)
    assert res.modulus == pytest.approx(math.exp(-0.5 * abs(u) ** 2),
                                        rel=1e-14)


def test_coherent_overlap_vs_fock():
    u2, u1 = 1 + 1j, 2 - 1j
    res = kernels.coherent_overlap(u2, u1)
    assert res.value == pytest.approx(fock_overlap(0, u2, 0, u1, 128),
                                      abs=1e-13)


def test_overlap_modulus_at_most_one():
    res = kernels.squeezed_overlap(0.5j, 1 + 0.2j, 0.3, -1j)
    assert res.modulus <= 1 + 1e-12


def test_squeezed_overlap_normalization():
    z, u = 0.8 * cmath.exp(1j * 0.6), -0.3 + 1j
    assert kernels.squeezed_overlap(z, u, z, u).value == \
        pytest.approx(1.0, rel=1e-14)


def test_squeezed_overlap_centerless_form():
    for r2, r1, th in ((0.5, 0.3, 0.0), (1.0, 0.7, math.pi / 2)):
        z2 = r2 * cmath.exp(1j * th)
        res = kernels.squeezed_overlap(z2, 0, r1, 0)
        zeta2 = cmath.exp(1j * th) * math.tanh(r2)
        zeta1 = math.tanh(r1)
        expected = (math.cosh(r2) * math.cosh(r1)) ** -0.5 \
            * (1 - np.conj(zeta2) * zeta1) ** -0.5
        assert res.value == pytest.approx(expected, rel=1e-13)
    # squeezed vacuum against the plain vacuum
    assert kernels.squeezed_overlap(0, 0, 1.1, 0).value == \
        pytest.approx(math.cosh(1.1) ** -0.5, rel=1e-13)


def test_squeezed_overlap_two_oracles():
    z2, u2 = 0.5 * cmath.exp(1j * math.pi / 4), 1.0
    z1, u1 = 0.3 * cmath.exp(-1j * math.pi / 3), -1j
    closed = kernels.squeezed_overlap(z2, u2, z1, u1).value
    assert closed == pytest.approx(fock_overlap(z2, u2, z1, u1, 192),
                                   abs=1e-12)
    p2 = wavefn.WavefnParams.from_labels(Labels.from_z(u2, z2), C)
    p1 = wavefn.WavefnParams.from_labels(Labels.from_z(u1, z1), C)
    spec = quad.QuadratureSpec(quad.QuadKind.GAUSS_HERMITE, 128,
                               center=(0.5, 0.0), scale=(2.0, 1.0),
                               rel_tol=1e-8)
    rep = quad.integrate_line(
        lambda q: np.conj(wavefn.psi(q, p2)) * wavefn.psi(q, p1), spec)
    assert closed == pytest.approx(rep.value, abs=1e-10)


def test_hermitian_symmetry_and_bound():
    pairs = [(0.5j, 1.0, 0.3, -1j), (0.8, 2j, 0.2j, 1 + 1j)]
    for z2, u2, z1, u1 in pairs:
        o12 = kernels.squeezed_overlap(z2, u2, z1, u1).value
        o21 = kernels.squeezed_overlap(z1, u1, z2, u2).value
        assert o12 == pytest.approx(np.conj(o21), abs=1e-13)
        assert abs(o12) < 1.0


def test_overlap_values_vectorized():
    us = np.array([0.3, 1 + 1j, -2j])
    vals = kernels.overlap_values(0.5, 1.0, 0.2j, us)
    for i, u in enumerate(us):
        assert vals[i] == pytest.approx(
            kernels.squeezed_overlap(0.5, 1.0, 0.2j, u).value, rel=1e-14)


def _mp_overlap(z2, u2, z1, u1):
    """The overlap at 60 digits, from the float labels as given."""
    import mpmath as mp

    with mp.workdps(60):
        def frame(z):
            z = mp.mpc(z)
            r = abs(z)
            return mp.cosh(r), (z / r if r else 0) * mp.sinh(r)

        (ch2, s2), (ch1, s1) = frame(z2), frame(z1)
        u2, u1 = mp.mpc(u2), mp.mpc(u1)
        pre = ch2 * ch1 - mp.conj(s2) * s1
        d = u2 - u1
        ghalf = mp.conj(ch2 * d - s2 * mp.conj(d)) * (ch1 * d - s1 * mp.conj(d)) / pre
        sym = -(u2 * mp.conj(u1) - mp.conj(u2) * u1) / 2
        return complex(mp.exp(-mp.log(pre) / 2 + sym - ghalf / 2))


@pytest.mark.parametrize("r", [2.0, 8.0, 19.0, 40.0])
def test_overlap_large_squeezing_vs_mpmath(r):
    """The prefactor form holds its precision where 1 - conj(zeta2) zeta1 cancels."""
    pairs = [
        (cmath.rect(r, 1.0), 0.5 + 0.5j, cmath.rect(r, 1.0), 0.5 + 0.5j),
        (r, 0j, cmath.rect(r, 0.3), 0j),            # squeeze phases apart
        (r, 0.3j, cmath.rect(r, 2.5), 0.2 + 0j),
        (cmath.rect(r, 1.0), 0.5 + 0j, cmath.rect(r / 2, -2.0), 1j),
        (cmath.rect(r, 2.0), 0j, 0j, 0j),           # against the vacuum
        (r, 0j, r, 0.3 + 0j),                       # along the squeezed axis
        (complex(-r, 0.0), 0j, complex(-r, -0.0), 0j),  # theta = pi and -pi
    ]
    eps = np.finfo(float).eps
    for z2, u2, z1, u1 in pairs:
        got = kernels.squeezed_overlap(z2, u2, z1, u1).value
        want = _mp_overlap(z2, u2, z1, u1)
        assert abs(got - want) <= 16 * eps * abs(want), (z2, u2, z1, u1)
    z = cmath.rect(r, 1.0)
    assert kernels.squeezed_overlap(z, 0.5 + 0.5j, z, 0.5 + 0.5j).value == 1.0


@pytest.mark.parametrize("r", [2.0, 8.0, 19.0])
def test_overlap_long_axis_vs_mpmath(r):
    """Displacements along the anti-squeezed axis e^{i theta/2}.

    ch d - s conj(d) is e^{-r} |d| there; formed from ch d and s conj(d) it
    lost 6% of the overlap at r = 19.  (At r = 40 the rounding of d itself
    moves the state off the axis by more than its squeezed width.)
    """
    eps = np.finfo(float).eps
    for theta in (0.0, 0.3, 2.0):
        z = cmath.rect(r, theta)
        for mag in (0.1, 1.0):
            u1 = mag * cmath.exp(0.5j * theta)
            got = kernels.squeezed_overlap(z, 0j, z, u1).value
            want = _mp_overlap(z, 0j, z, u1)
            assert abs(got - want) <= 64 * eps * abs(want), (z, u1)


def test_overlap_overflow_is_an_error():
    # cosh r2 cosh r1 overflows past r of about 355: an error, never a NaN
    with pytest.raises(OutOfDomain):
        kernels.squeezed_overlap(400.0, 2.0, 400j, 1.0)


def test_general_matrix_element_trivials():
    assert kernels.general_matrix_element(0, 0, 0) == 1.0
    with pytest.raises(OutOfDomain):
        kernels.general_matrix_element(1.0, 0.5, 0.2)
    with pytest.raises(OutOfDomain):
        kernels.general_matrix_element(0.2, 0.5, -1.5)


def test_general_matrix_element_reduction_to_overlap():
    # with z2 = 0 the overlap is a displaced matrix element
    z1, u2, u1 = 0.6 * cmath.exp(0.8j), 0.4 - 0.2j, -0.3 + 0.7j
    zeta1 = cmath.exp(0.8j) * math.tanh(0.6)
    lhs = kernels.squeezed_overlap(0, u2, z1, u1).value
    sym = cmath.exp(-0.5 * (u2 * np.conj(u1) - np.conj(u2) * u1))
    rhs = math.cosh(0.6) ** -0.5 * sym \
        * kernels.general_matrix_element(0, u1 - u2, zeta1)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_general_matrix_element_vs_fock():
    zeta2, u, zeta1 = 0.4j, 1 + 0.5j, -0.2
    dim = 192
    left = fock._exp_adag2_lower(zeta2 / 2.0, dim).conj().T
    right = fock._exp_adag2_lower(zeta1 / 2.0, dim)
    oracle = (left @ fock.displacement(u, dim) @ right)[0, 0]
    assert kernels.general_matrix_element(zeta2, u, zeta1) == \
        pytest.approx(oracle, abs=1e-12)


def test_displacement_composition():
    res = kernels.displacement_composition(1 + 1j, 1 + 1j)
    assert res.phase == pytest.approx(1.0) and res.shifted == 0
    res = kernels.displacement_composition(0.0, 0.7j)
    assert res.phase == pytest.approx(1.0) and res.shifted == 0.7j
    res = kernels.displacement_composition(1.0, 1j)
    assert abs(res.phase) == pytest.approx(1.0, rel=1e-14)
    n = 128
    lhs = fock.displacement(1.0, n).conj().T \
        @ fock.displacement(1j, n)
    rhs = res.phase * fock.displacement(res.shifted, n)
    assert fock.top_block_norm(lhs - rhs, 64) < 1e-12


def test_reproducing_compose():
    assert kernels.reproducing_compose(0, 0, 0, 0, 0) == \
        pytest.approx(1.0, abs=1e-10)
    coh = kernels.reproducing_compose(0.0, 1 + 0.5j, 0.0, -0.3j, 0.0)
    assert coh == pytest.approx(kernels.coherent_overlap(1 + 0.5j, -0.3j).value,
                                abs=1e-8)
    sq = kernels.reproducing_compose(0.4, 0.5, 0.2j, -0.3 + 0.2j, 0.3)
    assert sq == pytest.approx(
        kernels.squeezed_overlap(0.4, 0.5, 0.2j, -0.3 + 0.2j).value, abs=1e-6)


def test_reproducing_compose_not_converged():
    # the default rule is too coarse here: error estimate 0.18 against an
    # estimated |value| of 0.199 (the closed form gives 0.227)
    with pytest.raises(quad.QuadratureNotConverged):
        kernels.reproducing_compose(2.0, 0, 2j, 0, 0.0)


def test_poly_symbol_derivative():
    a = np.arange(12.0).reshape(3, 4) + 1j
    p = kernels.PolySymbol(a)
    # d_w^2 of w^j wbar^k is j (j - 1) w^{j-2} wbar^k
    assert np.array_equal(p.derivative(2, 0).coeffs, 2 * a[2:, :])
    j = np.arange(3)[:, None]
    k = np.arange(1, 4)[None, :]
    assert np.array_equal(p.derivative(1, 1).coeffs, a[1:, 1:] * j[1:] * k)
    assert np.array_equal(p.derivative(0, 2).coeffs,
                          a[:, 2:] * np.array([2, 6]))
    assert np.array_equal(p.derivative(3, 0).coeffs, [[0]])


def test_poly_symbol_ops():
    p = kernels.PolySymbol([[0, 0], [0, 1.0]])  # w wbar
    d = p.derivative(1, 1)
    assert d.coeffs[0, 0] == 1.0
    k = p.heat_transform()  # w wbar - 1
    assert k.coeffs[0, 0] == -1.0 and k.coeffs[1, 1] == 1.0
    q = kernels.PolySymbol([[0], [0], [2.0]])  # 2 w^2
    s = (p + q).trim()
    assert s.coeffs[2, 0] == 2.0 and s.coeffs[1, 1] == 1.0
    prod = p * q  # 2 w^3 wbar
    assert prod.coeffs[3, 1] == pytest.approx(2.0)
    val = s.evaluate(np.array([1 + 1j]))
    assert val[0] == pytest.approx((1 + 1j) * (1 - 1j) + 2 * (1 + 1j) ** 2)


def test_poly_symbol_linear_substitution_roundtrip():
    rng = np.random.default_rng(5)
    poly = kernels.PolySymbol(rng.normal(size=(3, 3))
                              + 1j * rng.normal(size=(3, 3)))
    ch, s = math.cosh(0.6), cmath.exp(0.4j) * math.sinh(0.6)
    fwd = poly.substitute_linear(ch, s, np.conj(s), ch)
    back = fwd.substitute_linear(ch, -s, -np.conj(s), ch)
    assert back.max_abs_diff(poly.trim()) < 1e-12


def test_normal_ordered_product():
    # A A^dag = A^dag A + 1
    a_op = kernels.NormalOrderedOp(np.array([[0, 1], [0, 0]], dtype=complex))
    adag_op = kernels.NormalOrderedOp(np.array([[0, 0], [1, 0]], dtype=complex))
    prod = a_op * adag_op
    assert prod.coeffs[0, 0] == pytest.approx(1.0)
    assert prod.coeffs[1, 1] == pytest.approx(1.0)
    a, _ = fock.ladder(24)
    lhs = prod.to_matrix(a)
    rhs = a @ a.conj().T
    assert np.max(np.abs((lhs - rhs)[:22, :22])) < 1e-13


@pytest.mark.parametrize("name", ["Q2", "N"])
def test_normal_ordered_square_matches_dense_square(name):
    # Q2 * Q2 contracts A^2 A^dag^2, where the Wick weight C(j2, i) is 2
    z = 0.4 * cmath.exp(0.7j)
    az = fock.squeezed_annihilator(z, 32)
    op = kernels.quadrature_observable(name, z, C)
    dense = op.to_matrix(az)
    want = (dense @ dense)[:16, :16]
    got = (op * op).to_matrix(az)[:16, :16]
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_quadrature_observable_matches_plain_frame():
    a, _ = fock.ladder(32)
    qm = fock.position(32, C)
    pm = fock.momentum(32, C)
    refs = {"Q": qm, "P": pm, "Q2": qm @ qm, "P2": pm @ pm,
            "QP": qm @ pm + pm @ qm, "N": a.conj().T @ a,
            "I": np.eye(32)}
    for name, ref in refs.items():
        got = kernels.quadrature_observable(name, 0.0, C).to_matrix(a)
        assert np.max(np.abs((got - ref)[:30, :30])) < 1e-12
    with pytest.raises(OutOfDomain):
        kernels.quadrature_observable("X", 0.0, C)


def test_quadrature_observable_squeezed_frame():
    # the frame decomposition reassembles the same Q matrix
    z = 0.7 * cmath.exp(1j * 1.3)
    az = fock.squeezed_annihilator(z, 48)
    got = kernels.quadrature_observable("Q", z, C).to_matrix(az)
    ref = fock.position(48, C)
    assert np.max(np.abs((got - ref)[:46, :46])) < 1e-12


@pytest.mark.parametrize("r", [8.0, 12.0, 20.0, 40.0])
@pytest.mark.parametrize("theta", [0.0, math.pi / 3, 2.0, math.pi, -3.0])
def test_quadrature_observable_coefficients_vs_mpmath(r, theta):
    # the a(z)^dag and a(z) coefficients of Q and P, (ch + s, ch + conj(s))
    # and i (ch - s, -(ch - conj(s))) over sqrt(2), within 8 ulp of their
    # condition in (r, theta).  ch - s cancelled along the squeezed axis:
    # P's was off by 1.7e-10 relative at r = 8, 2.2e-6 at r = 12 and
    # exactly 0 at r = 20
    import mpmath

    z = complex(r) if theta == 0.0 else r * complex(math.cos(theta),
                                                    math.sin(theta))
    with mpmath.workdps(80):
        zm = mpmath.mpc(z.real, z.imag)
        rm = abs(zm)
        e = zm / rm
        ch, sh = mpmath.cosh(rm), mpmath.sinh(rm)
        for name, sign, phase in (("Q", 1, 1), ("P", -1, 1j)):
            coeffs = kernels.quadrature_observable(name, z, C).coeffs
            val = ch + sign * e * sh
            cond = (abs(val) + rm * abs(sh + sign * e * ch)
                    + abs(mpmath.arg(zm)) * sh)
            for got, want in ((coeffs[1, 0], phase * val),
                              (coeffs[0, 1], sign * phase * mpmath.conj(val))):
                err = abs(mpmath.mpc(got.real, got.imag)
                          - want / mpmath.sqrt(2))
                assert err <= 8 * 2.0**-53 * cond, (name, got, want)


def test_diagonal_kernel_identity_and_number():
    ident = kernels.diagonal_kernel(kernels.NormalOrderedOp.identity(), 0.3)
    assert ident.coeffs.shape == (1, 1) and ident.coeffs[0, 0] == 1.0
    num = kernels.NormalOrderedOp(np.array([[0, 0], [0, 1]], dtype=complex))
    kern = kernels.diagonal_kernel(num, 0.5j)
    assert kern.coeffs[0, 0] == -1.0
    assert kern.coeffs[1, 1] == 1.0


def test_diagonal_kernel_has_no_degree_limit():
    # A^dag^5 A^5 has the degree-10 symbol (w wbar)^5, and e^{-d_w d_wbar}
    # maps it to sum_m (-1)^m (5!/(5-m)!)^2/m! (w wbar)^{5-m}
    big = kernels.NormalOrderedOp(np.zeros((6, 6), dtype=complex))
    big.coeffs[5, 5] = 1.0
    kern = kernels.diagonal_kernel(big, 0.0)
    want = np.zeros((6, 6), dtype=complex)
    for m in range(6):
        want[5 - m, 5 - m] = (-1) ** m * (math.factorial(5)
                                          // math.factorial(5 - m)) ** 2 \
            / math.factorial(m)
    assert np.array_equal(kern.coeffs, want)


def test_diagonal_kernel_reconstructs_matrix_elements():
    # integrate kernel * projector over labels and compare on an 8x8 block
    dim, block, z = 32, 8, 0.0
    op = kernels.quadrature_observable("Q2", z, C)
    kern = kernels.diagonal_kernel(op, z)
    spec = quad.QuadratureSpec(quad.QuadKind.TENSOR_GAUSS_HERMITE_2D, 56,
                               scale=(1.3, 1.3), rel_tol=1e-6)
    u, tw = quad._plane_nodes(56, spec)
    psi = fock.saturating_state_batch(u, z, dim)
    wz = np.array([squeezed_frame_label(uu, z) for uu in u])
    rec = (psi * (kern.evaluate(wz) * tw)) @ psi.conj().T
    a, _ = fock.ladder(dim)
    direct = op.to_matrix(a)
    assert np.max(np.abs((rec - direct)[:block, :block])) < 1e-8
