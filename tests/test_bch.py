import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm, logm

from srsqueeze import bch, fock
from srsqueeze.params import OutOfDomain


def test_phi_basics():
    assert bch.phi(0) == 1.0
    assert bch.phi(1) == pytest.approx(math.e - 1, rel=1e-15)
    # 40-digit series value, correctly rounded to double
    assert bch.phi(1e-8) == pytest.approx(1.000000005000000016666667,
                                          rel=1e-16, abs=0)
    assert bch.phi(1e-8j) == pytest.approx(
        complex(0.9999999999999999833, 5.0000000000000000167e-9), rel=1e-15)


def test_phi_series_matches_direct_across_switch():
    for mag in (5e-5, 2e-4):
        for ang in (0.3, 2.0, -1.1):
            x = mag * cmath.exp(1j * ang)
            direct = (cmath.exp(x) - 1.0) / x
            assert bch.phi(x) == pytest.approx(direct, rel=1e-11)


def test_psi_basics():
    assert bch.psi(1.0) == 1.0
    assert bch.psi(math.e) == pytest.approx(math.e / (math.e - 1), rel=1e-15)
    assert bch.psi(0.5) == pytest.approx(math.log(2.0), rel=1e-15)
    assert bch.psi(1 + 1e-12) == pytest.approx(1.0 + 5e-13, rel=1e-14)


def test_psi_branch_cut():
    with pytest.raises(OutOfDomain):
        bch.psi(-0.5)
    with pytest.raises(OutOfDomain):
        bch.psi(0.0)
    bch.psi(-0.5 + 1e-6j)  # off the cut is fine


@pytest.mark.parametrize("x", [0.1, 0.5, 2.5, 0.5 + 1j, 2 - 1j, 1 + 1e-9])
def test_phi_psi_inverse(x):
    assert bch.phi(-cmath.log(x)) * bch.psi(x) == pytest.approx(1.0, abs=1e-12)


def test_f_distinguished_value_exact():
    assert bch.f_uv(0, 0) == 0.5


def test_f_frozen_values():
    # 40-digit evaluations of the closed form / its diagonal limit
    assert bch.f_uv(1, -1) == pytest.approx(0.4621171572600097585023, rel=1e-13)
    assert bch.f_uv(-1, 1) == pytest.approx(0.4621171572600097585023, rel=1e-13)
    assert bch.f_uv(1, 1) == pytest.approx(math.e - 2.0, rel=1e-13)
    assert bch.f_uv(0.5, 0.5) == pytest.approx(0.5948850828005125873964,
                                               rel=1e-13)


@pytest.mark.parametrize("u", [-2.0, -0.7, 0.0, 1.3, 2.0, -2 + 2j, 2 + 2j,
                               -2 - 2j])
@pytest.mark.parametrize("v", [-2.0, 0.0, 0.7, 0.9, 2.0, 2 - 2j])
def test_f_symmetry(u, v):
    assert abs(bch.f_uv(u, v) - bch.f_uv(v, u)) <= 1e-12


def test_f_continuous_across_series_switch():
    # values straddling the diagonal-series threshold agree smoothly
    v = 0.8 - 0.4j
    for eps in (1e-2, 4e-3, 2.9e-3, 1e-3, 1e-5, 1e-8):
        a = bch.f_uv(v + eps, v)
        b = bch.f_uv(v + 1.01 * eps, v)
        assert abs(a - b) < 1e-2 * eps + 1e-13


def test_f_continuous_across_zero_arguments():
    for eps in (1e-6, 1e-9, 0.0):
        val = bch.f_uv(eps, 0.9)
        ref = bch.f_uv(1e-4, 0.9)
        assert abs(val - ref) < 1e-3


def test_f_matrix_bch_su11():
    k0 = np.diag([0.5, -0.5]).astype(complex)
    kp = np.array([[0, 1], [0, 0]], dtype=complex)
    a, g = 0.3 + 0.1j, 0.4
    amat, bmat = a * kp, g * k0
    lhs = logm(expm(amat) @ expm(bmat))
    comm = amat @ bmat - bmat @ amat
    rhs = amat + bmat + bch.f_uv(-g, 0.0) * comm
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_f_matrix_bch_central():
    e12 = np.zeros((3, 3), complex)
    e12[0, 1] = 1
    e23 = np.zeros((3, 3), complex)
    e23[1, 2] = 1
    amat, bmat = 0.4 * e12, 0.3 * e23
    lhs = logm(expm(amat) @ expm(bmat))
    comm = amat @ bmat - bmat @ amat
    rhs = amat + bmat + 0.5 * comm  # f(0,0) = 1/2
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_disentangle_trivial():
    d = bch.disentangle_squeeze(0)
    assert d.alpha == 0 and d.gamma == 0.0


@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_disentangle_real(r):
    d = bch.disentangle_squeeze(r)
    assert d.alpha == pytest.approx(math.tanh(r), rel=1e-15)
    assert d.gamma == pytest.approx(-2 * math.log(math.cosh(r)), rel=1e-14)


@pytest.mark.parametrize("r", [1.6e-8, 1e-4, 1e-2, 0.7, 1.0, 1.5])
def test_disentangle_gamma_small_r_vs_mpmath(r):
    # gamma = -2 ln cosh r ~ -r^2 has condition number about 2 in r, so a
    # stable evaluation is good to a few ulp relative, also at tiny r
    with mpmath.workdps(40):
        exact = float(-2 * mpmath.log(mpmath.cosh(mpmath.mpf(r))))
    gamma = bch.disentangle_squeeze(r).gamma
    assert abs(gamma - exact) <= 4 * np.finfo(float).eps * abs(exact)


@pytest.mark.parametrize("z", [0.4j, 1.0 * cmath.exp(1j * math.pi / 4),
                               2.0 * cmath.exp(-1j * 2.2)])
def test_disentangle_gamma_invariant(z):
    d = bch.disentangle_squeeze(z)
    assert abs(d.alpha) < 1
    assert d.gamma == pytest.approx(math.log1p(-abs(d.alpha) ** 2), abs=1e-14)


def test_disentangle_operator_identity():
    # the factored product equals the exponentiated generator on Fock space
    z = 1.0 * cmath.exp(1j * math.pi / 4)
    dim = 128
    diff = fock.squeeze_factored(z, dim) \
        - fock.squeeze_exp(z, dim)
    assert fock.top_block_norm(diff, dim // 2) < 1e-9


def test_disentangle_defining_representation():
    k0 = np.diag([0.5, -0.5]).astype(complex)
    kp = np.array([[0, 1], [0, 0]], dtype=complex)
    km = np.array([[0, 0], [-1, 0]], dtype=complex)
    for z in (0.3, 1.5j, 2.0 * cmath.exp(1j * 0.7)):
        d = bch.disentangle_squeeze(z)
        target = expm(z * kp - np.conj(z) * km)
        fwd = expm(d.alpha * kp) @ expm(d.gamma * k0) \
            @ expm(-np.conj(d.alpha) * km)
        rev = expm(-np.conj(d.alpha) * km) @ expm(-d.gamma * k0) \
            @ expm(d.alpha * kp)
        assert np.max(np.abs(fwd - target)) < 1e-13
        assert np.max(np.abs(rev - target)) < 1e-13
