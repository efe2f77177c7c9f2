import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from srsqueeze import fock
from srsqueeze.params import (Constants, Labels, labels_to_moments, lambda0,
                              squeeze_zeta)

C = Constants()


def coherent_amps(u0, dim):
    k = np.arange(dim)
    return np.exp(-0.5 * abs(u0) ** 2 + k * np.log(complex(u0))
                  - 0.5 * gammaln(k + 1.0))


def test_ladder_small():
    a, adag = fock.ladder(2)
    assert np.array_equal(a, [[0, 1], [0, 0]])
    assert np.array_equal(adag, a.conj().T)
    a3, ad3 = fock.ladder(3)
    num = ad3 @ a3
    assert np.allclose(np.diag(num), [0, 1, 2])


def test_ladder_commutator():
    a, adag = fock.ladder(64)
    comm = a @ adag - adag @ a
    assert np.max(np.abs(comm[:63, :63] - np.eye(63))) < 1e-13


def test_bad_dim():
    with pytest.raises(fock.BadDim):
        fock.ladder(1)
    with pytest.raises(fock.BadDim):
        fock.displacement(1.0, 0)


def test_position_momentum_commutator():
    c = Constants(hbar=1.3, ell0=0.6)
    q = fock.position(80, c)
    p = fock.momentum(80, c)
    comm = q @ p - p @ q
    assert np.max(np.abs(comm[:79, :79] - 1j * c.hbar * np.eye(79))) < 1e-12


def test_su11_algebra():
    k0, kp, km = fock.su11_generators(48)
    block = slice(0, 40)

    def comm(x, y):
        return x @ y - y @ x

    assert np.max(np.abs((comm(k0, kp) - kp)[block, block])) < 1e-12
    assert np.max(np.abs((comm(k0, km) + km)[block, block])) < 1e-12
    assert np.max(np.abs((comm(km, kp) - 2 * k0)[block, block])) < 1e-12


def test_displacement_identity():
    d = fock.displacement(0.0, 16)
    assert np.array_equal(d, np.eye(16))


def test_displacement_coherent_column():
    u0 = 0.7 - 1.1j
    col = fock.displacement(u0, 96)[:, 0]
    assert np.max(np.abs(col - coherent_amps(u0, 96))) < 1e-14


def test_displacement_vs_exponential_oracle():
    diff = fock.displacement(1 + 1j, 128) \
        - fock.displacement_exp(1 + 1j, 128)
    assert fock.top_block_norm(diff, 64) < 1e-10


def test_displacement_unitary_on_converged_block():
    d = fock.displacement(1 + 1j, 128)
    gram = d.conj().T @ d
    assert np.max(np.abs(gram[:32, :32] - np.eye(32))) < 1e-11


def test_squeeze_exp_identity_and_parity():
    s = fock.squeeze_exp(0.0, 32)
    assert np.array_equal(s, np.eye(32))
    s = fock.squeeze_exp(0.6 * cmath.exp(1j * 0.4), 64)
    col = s[:, 0]
    assert np.max(np.abs(col[1::2])) == 0.0  # odd levels stay empty
    assert col[0] == pytest.approx(math.cosh(0.6) ** -0.5, rel=1e-12)


def test_squeeze_factored_identity():
    s = fock.squeeze_factored(0.0, 24)
    assert np.array_equal(s, np.eye(24))
    s = fock.squeeze_factored_reversed(0.0, 24)
    assert np.array_equal(s, np.eye(24))


def test_squeeze_factored_matches_exponential():
    z = 0.8 * cmath.exp(1j * math.pi / 3)
    diff = fock.squeeze_factored(z, 128) \
        - fock.squeeze_exp(z, 128)
    assert fock.top_block_norm(diff, 64) < 1e-9


def test_squeeze_factored_column_is_squeezed_vacuum():
    z = 0.9 * cmath.exp(-1j * 1.2)
    col = fock.squeeze_factored(z, 96)[:, 0]
    ref = fock._squeezed_vacuum_column(z, 96)
    assert np.max(np.abs(col - ref)) < 1e-14
    # amplitude pattern (zeta/2)^k sqrt((2k)!)/k! / sqrt(cosh r)
    zeta = cmath.exp(-1j * 1.2) * math.tanh(0.9)
    k = 3
    expected = (zeta / 2) ** k * math.sqrt(math.factorial(2 * k)) \
        / math.factorial(k) / math.sqrt(math.cosh(0.9))
    assert ref[6] == pytest.approx(expected, rel=1e-13)


def test_squeeze_dual_order_small_r():
    z = 0.3 * cmath.exp(1j * 0.8)
    diff = fock.squeeze_factored_reversed(z, 128) \
        - fock.squeeze_exp(z, 128)
    assert fock.top_block_norm(diff, 16) < 1e-10


def _unsplit_squeeze_product(z, dim, reverse):
    # the factored product as one dim x dim extended-precision matmul
    r = abs(z)
    zeta = squeeze_zeta(r, z / r)
    ld = np.clongdouble
    lower = fock._exp_adag2_lower(ld(zeta / 2.0), dim, dtype=ld)
    upper = fock._exp_adag2_lower(ld(-zeta / 2.0), dim, dtype=ld).conj().T
    rl = np.longdouble(r)
    gamma = -2 * (rl + np.log1p(np.exp(-2 * rl)) - np.log(np.longdouble(2)))
    if reverse:
        gamma = -gamma
    mid = np.exp(gamma * (np.arange(dim) + 0.5) / 2.0)
    prod = (upper * mid[None, :]) @ lower if reverse \
        else (lower * mid[None, :]) @ upper
    return np.asarray(prod, dtype=complex)


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("reverse", [False, True])
def test_parity_split_product_is_bit_identical(dim, reverse):
    for z in (0.3 * cmath.exp(0.8j), 1.1 * cmath.exp(-2.0j)):
        got = fock._squeeze_product(z, dim, reverse)
        assert np.array_equal(got, _unsplit_squeeze_product(z, dim, reverse))


@pytest.mark.parametrize("r", [12.0, 18.0, 20.0])
def test_squeeze_factored_vacuum_entry_at_large_r(r):
    # 1 - tanh^2 r cancels here: 1.1% off at r = 18, a domain error at 20
    got = fock.squeeze_factored(r, 8)[0, 0]
    assert got.imag == 0.0
    assert got.real == pytest.approx(math.cosh(r) ** -0.5, rel=1e-14)


def test_exponential_oracles_match_dense_expm_block():
    from scipy.linalg import expm

    dim, inner = 24, 80
    a, adag = fock.ladder(inner)
    for z in (0.4 * cmath.exp(0.7j), 0.9 * cmath.exp(-2.5j)):
        gen = 0.5 * (z * adag @ adag - np.conj(z) * a @ a)
        want = expm(gen)[:dim, :dim]
        got = fock.squeeze_exp(z, dim, inner_dim=inner)
        assert np.max(np.abs(got - want)) < 1e-13
    for u0 in (0.6 - 0.3j, 1.5j):
        want = expm(u0 * adag - np.conj(u0) * a)[:dim, :dim]
        got = fock.displacement_exp(u0, dim, inner_dim=inner)
        assert np.max(np.abs(got - want)) < 1e-13


def test_saturating_state_trivials():
    st = fock.saturating_state(Labels(), 32)
    assert st.amps[0] == pytest.approx(1.0)
    assert np.max(np.abs(st.amps[1:])) < 1e-15
    u0 = 0.9 + 0.2j
    st = fock.saturating_state(Labels(u0=u0), 96)
    assert np.max(np.abs(st.amps - coherent_amps(u0, 96))) < 1e-13


def test_saturating_state_annihilation_eigenvalue():
    from srsqueeze.params import squeezed_frame_label

    lab = Labels(u0=1.0, r=0.5, theta=0.0)
    st = fock.saturating_state(lab, 128)
    az = fock.squeezed_annihilator(lab.z, 128)
    u0z = squeezed_frame_label(lab.u0, lab.z)
    res = az @ st.amps - u0z * st.amps
    assert np.linalg.norm(res[:64]) < 1e-12


def test_truncation_warning():
    with pytest.warns(fock.TruncationWarning):
        fock.saturating_state(Labels(u0=3.0, r=0.8, theta=0.0), 24)


def test_batch_matches_single():
    z = 0.8 * cmath.exp(1j * 1.1)
    us = np.array([0.0, 0.3 - 0.2j, 1 + 1j, 2.0])
    batch = fock.saturating_state_batch(us, z, 32)
    assert batch.shape == (32, us.size)
    for i, u in enumerate(us):
        dense = fock.displacement(u, 128) \
            @ fock._squeezed_vacuum_column(z, 128)
        assert np.max(np.abs(batch[:, i] - dense[:32])) < 1e-11


def test_batch_dim_validation():
    with pytest.raises(fock.BadDim):
        fock.saturating_state_batch(np.array([0j]), 0.0, 0)


def test_batch_per_node_squeeze_is_exact():
    # one squeeze per node gives each state the bits it has when built alone,
    # z = 0 labels included
    from srsqueeze.verify import standard_labels

    labs = standard_labels()
    assert any(lab.r == 0 for lab in labs)
    batch = fock.saturating_state_batch([lab.u0 for lab in labs],
                                        np.array([lab.z for lab in labs]), 256)
    assert batch.shape == (256, len(labs))
    for k, lab in enumerate(labs):
        single = fock.saturating_state(lab, 256, tail_bound=math.inf).amps
        assert np.array_equal(batch[:, k], single)


def test_batch_squeeze_count_must_match():
    us = np.array([0j, 1.0, 1j])
    with pytest.raises(ValueError):
        fock.saturating_state_batch(us, np.array([0.3, 0.5j]), 16)
    with pytest.raises(ValueError):
        fock.saturating_state_batch(us, np.zeros(4, complex), 16)


def _mp_amplitudes(u, z, dim):
    """c_m = c_0 (i sqrt(zeta/2))^m H_m(-i beta/sqrt(2 zeta)) / sqrt(m!)."""
    with mpmath.workdps(60):
        u, z = mpmath.mpc(u), mpmath.mpc(z)
        r = abs(z)
        zeta = (z / r) * mpmath.tanh(r)
        beta = u - zeta * mpmath.conj(u)
        c0 = mpmath.exp(-abs(u) ** 2 / 2 + zeta * mpmath.conj(u) ** 2 / 2) \
            / mpmath.sqrt(mpmath.cosh(r))
        s = 1j * mpmath.sqrt(zeta / 2)
        x = -1j * beta / mpmath.sqrt(2 * zeta)
        return [complex(c0 * s**m * mpmath.hermite(m, x)
                        / mpmath.sqrt(mpmath.factorial(m)))
                for m in range(dim)]


@pytest.mark.parametrize("radius", [6.0, 12.0, 30.0])
def test_recurrence_far_nodes_vs_mpmath(radius):
    # far quadrature nodes of the rotated frame, where |beta| is large and
    # the forward recurrence runs far from its turning point
    z = 1.2 * cmath.exp(1j * 1.1)
    rot = cmath.exp(0.55j)
    us = rot * radius * np.exp(1j * np.array([0.0, 0.3, -0.6, math.pi / 4]))
    got = fock.saturating_state_batch(us, z, 16)
    for i, u in enumerate(us):
        want = np.array(_mp_amplitudes(u, z, 16))
        assert np.all(np.abs(want) > 1e-290)
        rel = np.abs(got[:, i] - want) / np.abs(want)
        assert np.max(rel) <= 1e-13


def test_recurrence_underflow_gives_zeros():
    # c_0 underflows far out: first along the squeezed axis, where
    # c_0 = exp(-|u|^2 (1 + tanh r)/2), and at 1e5 even along the other one
    z = 1.2 * cmath.exp(1j * 1.1)
    us = cmath.exp(0.55j) * np.array([30j, 40j, -1e3j, 1e5])
    got = fock.saturating_state_batch(us, z, 16)
    assert np.all(np.isfinite(got))
    assert np.all(got == 0)


def qp(n, c=C):
    return fock.position(n, c), fock.momentum(n, c)


def test_expectations_vacuum_and_coherent():
    st = fock.saturating_state(Labels(), 64)
    m = fock.expectations(*qp(64), st)
    assert m.dq == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert m.dp == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert m.q0 == pytest.approx(0.0, abs=1e-14)
    st = fock.saturating_state(Labels(u0=1 + 0.5j), 96)
    m = fock.expectations(*qp(96), st)
    assert m.dq == pytest.approx(1 / math.sqrt(2), rel=1e-11)
    assert m.dp == pytest.approx(1 / math.sqrt(2), rel=1e-11)
    assert m.q0 == pytest.approx(math.sqrt(2), rel=1e-12)
    assert m.p0 == pytest.approx(math.sqrt(2) * 0.5, rel=1e-12)


def test_defining_residual_saturating_states():
    q, p = qp(256)
    for lab in (Labels(u0=1.0, r=0.5, theta=0.0),
                Labels(u0=1 + 1j, r=0.8, theta=2.0),
                Labels(u0=2j, r=1.0, theta=math.pi)):
        st = fock.saturating_state(lab, 256)
        m = labels_to_moments(lab, C)
        assert fock.defining_residual(q, p, st, m, C) < 1e-8


def test_defining_residual_vacuum():
    st = fock.saturating_state(Labels(), 64)
    m = labels_to_moments(Labels(), C)
    assert fock.defining_residual(*qp(64), st, m, C) < 1e-14


def test_defining_residual_fock_one():
    q, p = qp(128)
    st = fock.basis_state(128, 1)
    m = fock.expectations(q, p, st)
    res = fock.defining_residual(q, p, st, m, C)
    assert res > 0.1
    assert res == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_moments_from_passed_matrices_equal_dense_mat_vecs():
    # the explicit forms that expectations and defining_residual evaluate
    c = Constants(hbar=1.3, ell0=0.6)
    lab = Labels(u0=0.7 - 0.4j, r=0.6, theta=1.1)
    n = 96
    q, p = qp(n, c)
    st = fock.saturating_state(lab, n)
    psi = st.amps
    nrm2 = float(np.vdot(psi, psi).real)
    qpsi, ppsi = q @ psi, p @ psi
    q0 = float(np.vdot(psi, qpsi).real) / nrm2
    p0 = float(np.vdot(psi, ppsi).real) / nrm2
    qbar, pbar = qpsi - q0 * psi, ppsi - p0 * psi
    want = (q0, p0, math.sqrt(float(np.vdot(qbar, qbar).real) / nrm2),
            math.sqrt(float(np.vdot(pbar, pbar).real) / nrm2),
            2.0 * float(np.vdot(qbar, pbar).real) / nrm2)
    got = fock.expectations(q, p, st)
    assert (got.q0, got.p0, got.dq, got.dp, got.corr) == want
    m = labels_to_moments(lab, c)
    lam = lambda0(m, c)
    res = float(np.linalg.norm((qpsi - m.q0 * psi)
                               - lam * (ppsi - m.p0 * psi)))
    assert fock.defining_residual(q, p, st, m, c) == res


def test_sr_ur_vacuum_saturates():
    n = 64
    rec, = fock.sr_ur_check(fock.position(n, C), fock.momentum(n, C),
                            [fock.basis_state(n, 0)])
    assert abs(rec.slack) < 1e-12
    assert rec.lambda0 == pytest.approx(-1j, rel=1e-12)


def test_sr_ur_fock_one():
    n = 64
    rec, = fock.sr_ur_check(fock.position(n, C), fock.momentum(n, C),
                            [fock.basis_state(n, 1)])
    assert rec.lhs == pytest.approx(9.0 / 4.0, rel=1e-13)
    assert rec.rhs_comm == pytest.approx(1.0 / 4.0, rel=1e-13)
    assert rec.rhs_anticomm == pytest.approx(0.0, abs=1e-13)
    assert rec.slack == pytest.approx(2.0, rel=1e-12)


def test_sr_ur_rejects_non_hermitian():
    a, adag = fock.ladder(16)
    with pytest.raises(fock.NotHermitian):
        fock.sr_ur_check(a, fock.position(16, C), [fock.basis_state(16, 0)])


def test_sr_ur_rejects_non_hermitian_with_many_states():
    a, adag = fock.ladder(16)
    q = fock.position(16, C)
    states = [fock.basis_state(16, k) for k in range(3)]
    with pytest.raises(fock.NotHermitian):
        fock.sr_ur_check(a, q, states)
    with pytest.raises(fock.NotHermitian):
        fock.sr_ur_check(q, adag, states)


def test_sr_ur_list_matches_single_states():
    n = 96
    q, p = fock.position(n, C), fock.momentum(n, C)
    states = [fock.saturating_state(lab, n)
              for lab in (Labels(), Labels(u0=1 + 1j, r=0.7, theta=1.0),
                          Labels(u0=-0.5, r=0.25, theta=math.pi))]
    states.append(fock.basis_state(n, 1))
    got = fock.sr_ur_check(q, p, states)
    assert got == [fock.sr_ur_check(q, p, [st])[0] for st in states]


def test_bogoliubov_closure_and_invariant_combination():
    from srsqueeze.params import squeezed_frame_label

    n = 96
    z = 0.7 * cmath.exp(1j * 2.0)
    az = fock.squeezed_annihilator(z, n)
    comm = az @ az.conj().T - az.conj().T @ az
    assert np.max(np.abs(comm[:n - 2, :n - 2] - np.eye(n - 2))) < 1e-12
    a, adag = fock.ladder(n)
    u0 = 1 - 0.5j
    u0z = squeezed_frame_label(u0, z)
    lhs = u0z * az.conj().T - np.conj(u0z) * az
    rhs = u0 * adag - np.conj(u0) * a
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_tail_mass_diagnostic():
    st = fock.saturating_state(Labels(u0=0.5, r=0.3, theta=0.1), 64)
    assert st.tail_mass == pytest.approx(
        float(np.sum(np.abs(st.amps[-8:]) ** 2)))
    assert st.norm == pytest.approx(1.0, abs=1e-12)
