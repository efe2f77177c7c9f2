import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln

from srsqueeze import fock
from srsqueeze.params import (Constants, Labels, OutOfDomain,
                              labels_to_moments, lambda0, squeeze_zeta)

C = Constants()


def state(lab, dim):
    return fock.saturating_state_batch(lab.u0, lab.z, dim)[:, 0]


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
    with pytest.raises(OutOfDomain):
        fock.ladder(1)
    with pytest.raises(OutOfDomain):
        fock.displacement(1.0, 0)


def test_position_momentum_commutator():
    c = Constants(hbar=1.3, ell0=0.6)
    q = fock.position(80, c)
    p = fock.momentum(80, c)
    comm = q @ p - p @ q
    assert np.max(np.abs(comm[:79, :79] - 1j * c.hbar * np.eye(79))) < 1e-12


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


def _diagonal_loop_displacement(u0, dim):
    # the Laguerre closed form filled one diagonal at a time, with the
    # recurrence stored as lag[k, n] = L_n^{(k)}(x)
    u0 = complex(u0)
    x = abs(u0) ** 2
    lag = np.zeros((dim, dim))
    kvec = np.arange(dim, dtype=float)
    lag[:, 0] = 1.0
    lag[:, 1] = 1.0 + kvec - x
    for n in range(1, dim - 1):
        lag[:, n + 1] = ((2 * n + 1 + kvec - x) * lag[:, n]
                         - (n + kvec) * lag[:, n - 1]) / (n + 1)
    lg = fock._lgfact(dim - 1)
    phase = u0 / abs(u0)
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(dim):
        n = np.arange(dim - k)
        mag = np.exp(-0.5 * x + k * math.log(abs(u0))
                     + 0.5 * (lg[n] - lg[n + k])) * lag[k, :dim - k]
        out[n + k, n] = phase**k * mag
        if k:
            out[n, n + k] = (-np.conj(phase))**k * mag
    return out


DISPLACEMENTS = [1e-3, 0.5, 2j, 1 + 1j, -0.5 + 0.2j]


@pytest.mark.parametrize("u0", DISPLACEMENTS)
@pytest.mark.parametrize("dim", [2, 3, 16, 128])
def test_displacement_equals_diagonal_loop(u0, dim):
    assert np.array_equal(fock.displacement(u0, dim),
                          _diagonal_loop_displacement(u0, dim))


@pytest.mark.parametrize("u0", DISPLACEMENTS)
@pytest.mark.parametrize("block", [2, 8, 64])
def test_displacement_block_is_truncation_exact(u0, block):
    assert np.array_equal(fock.displacement(u0, block),
                          fock.displacement(u0, 2 * block)[:block, :block])


@pytest.mark.parametrize("u0", [0.0, 2j, 1 + 1j, -0.5 + 0.2j])
@pytest.mark.parametrize("dim", [64, 128, 192])
@pytest.mark.parametrize("cols", [1, 32, 64, None])
def test_displacement_columns_are_bit_identical(u0, dim, cols):
    # the Laguerre recurrence stops at degree cols - 1
    full = fock.displacement(u0, dim)
    cols = dim if cols is None else cols
    assert np.array_equal(fock.displacement(u0, dim, cols), full[:, :cols])


@pytest.mark.parametrize("r", [0.25, 0.7, 1.0])
@pytest.mark.parametrize("theta", [0.0, math.pi / 3, math.pi])
def test_squeeze_factored_block_is_truncation_exact(r, theta):
    z = r * cmath.exp(1j * theta)
    assert np.array_equal(fock.squeeze_factored(z, 64),
                          fock.squeeze_factored(z, 128)[:64, :64])


@pytest.mark.parametrize("r", [0.2, 0.7, 1.2])
@pytest.mark.parametrize("theta", [math.pi / 3, math.pi, -2.0])
def test_squeeze_exp_phase_is_number_rotation(r, theta):
    # S(r e^{i theta}) = e^{i theta N/2} S(r) e^{-i theta N/2}
    rot = np.exp(0.5j * theta * np.arange(64))
    rotated = (rot[:, None] * fock.squeeze_exp(r, 64)) * rot.conj()
    got = fock.squeeze_exp(r * cmath.exp(1j * theta), 64)
    assert np.max(np.abs(got - rotated)) < 1e-14


@pytest.mark.parametrize("z", [0.2, 0.7 * cmath.exp(1j * math.pi / 3),
                               1.2 * cmath.exp(-2j)])
def test_squeeze_exp_block_is_independent_of_dim(z):
    got = fock.squeeze_exp(z, 64)
    assert np.max(np.abs(got - fock.squeeze_exp(z, 128)[:64, :64])) < 1e-14


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


def _indexed_lower(half, dim, dtype):
    # exp(half a^dag^2) written one sub-diagonal at a time through an index
    # pair
    out = np.eye(dim, dtype=dtype)
    real_t = np.longdouble if dtype == np.clongdouble else float
    vals = np.ones(dim, dtype=dtype)
    for kk in range(1, (dim - 1) // 2 + 1):
        n = np.arange(dim - 2 * kk)
        step = np.sqrt(((n + 2 * kk - 1) * (n + 2 * kk)).astype(real_t))
        vals = vals[:dim - 2 * kk] * dtype(half) * step / real_t(kk)
        out[n + 2 * kk, n] = vals
    return out


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
@pytest.mark.parametrize("dim", [16, 64, 128, 192])
def test_exp_adag2_lower_columns_are_bit_identical(dim, dtype):
    for half in (0.15 + 0.2j, -0.3j, 0.0):
        full = fock._exp_adag2_lower(dtype(half), dim, dtype=dtype)
        assert np.array_equal(full, _indexed_lower(half, dim, dtype))
        for k in (1, 16, dim):
            got = fock._exp_adag2_lower(dtype(half), dim, dtype=dtype, cols=k)
            assert got.shape == (dim, k)
            assert np.array_equal(got, full[:, :k])


@pytest.mark.parametrize("r", [0.2, 0.3, 0.4])
@pytest.mark.parametrize("theta", [0.0, math.pi / 3, -2.0])
def test_reversed_block_is_bit_identical(r, theta):
    z = r * cmath.exp(1j * theta)
    got = fock.squeeze_factored_reversed(z, 128, 16)
    assert got.shape == (16, 16)
    full = _unsplit_squeeze_product(z, 128, True)
    assert np.array_equal(got, full[:16, :16])


@pytest.mark.parametrize("r", [0.25, 0.7, 1.2])
@pytest.mark.parametrize("theta", [math.pi / 3, -2.0, 3.0])
@pytest.mark.parametrize("k", [1, 15, 38])
def test_factored_columns_are_bit_identical(r, theta, k):
    z = r * cmath.exp(1j * theta)
    got = fock.squeeze_factored(z, 128, k)
    assert got.shape == (128, k)
    assert np.array_equal(got, fock.squeeze_factored(z, 128)[:, :k])


@pytest.mark.parametrize("r", [12.0, 18.0, 20.0])
def test_squeeze_factored_vacuum_entry_at_large_r(r):
    # 1 - tanh^2 r cancels here: 1.1% off at r = 18, a domain error at 20
    got = fock.squeeze_factored(r, 8)[0, 0]
    assert got.imag == 0.0
    assert got.real == pytest.approx(math.cosh(r) ** -0.5, rel=1e-14)


def test_exponential_oracles_match_dense_expm_block():
    from scipy.linalg import expm

    # the reference exponentiates on the same enlarged space the oracles
    # diagonalize on
    dim = 24
    for z in (0.4 * cmath.exp(0.7j), 0.9 * cmath.exp(-2.5j)):
        a, adag = fock.ladder(fock._squeeze_inner_dim(z, dim))
        gen = 0.5 * (z * adag @ adag - np.conj(z) * a @ a)
        want = expm(gen)[:dim, :dim]
        assert np.max(np.abs(fock.squeeze_exp(z, dim) - want)) < 1e-13
    for u0 in (0.6 - 0.3j, 1.5j):
        a, adag = fock.ladder(fock._displacement_inner_dim(u0, dim))
        want = expm(u0 * adag - np.conj(u0) * a)[:dim, :dim]
        assert np.max(np.abs(fock.displacement_exp(u0, dim) - want)) < 1e-13


@pytest.mark.parametrize("exp_tridiag", [fock._exp_neg_i_tridiag,
                                         fock._exp_neg_i_chebyshev])
@pytest.mark.parametrize("size", [2, 5, 6, 97, 128])
def test_tridiagonal_exponential_matches_dense_expm(size, exp_tridiag):
    from scipy.linalg import expm

    rng = np.random.default_rng(size)
    off = rng.normal(size=size - 1) + 1j * rng.normal(size=size - 1)
    off[::3] = 0.0  # zero couplings split H into independent blocks
    h = np.diag(off, -1)
    want = expm(-1j * (h + h.conj().T))
    for keep in (1, (size + 1) // 2, size):
        got = exp_tridiag(off, keep)
        assert np.max(np.abs(got - want[:keep, :keep])) < 1e-14
    assert np.array_equal(exp_tridiag(0 * off, size), np.eye(size))


def test_displacement_exp_makes_no_lapack_call(monkeypatch):
    # its Chebyshev sum starts no BLAS thread, which at 2 threads on a busy
    # 2-core machine could wait tens of ms per call of a dense eigh
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("eig", "eigh", "eigvalsh", "svd", "solve", "qr"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for u0 in (1 + 1j, 2j):
        assert fock.displacement_exp(u0, 12).shape == (12, 12)


def test_lgfact_matches_gammaln():
    # each is a few ulp off the exact ln k!: math.lgamma 3.2 ulp at k = 2,
    # gammaln 2.0 ulp at k = 127, against 40-digit mpmath.  So they differ
    # by up to 3 ulp, and 1 ulp is out of reach of even a correctly rounded
    # table
    want = gammaln(np.arange(1025, dtype=float) + 1.0)
    got = fock._lgfact(1024)
    assert got[0] == got[1] == 0.0
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_saturating_state_trivials():
    st = state(Labels(), 32)
    assert st[0] == pytest.approx(1.0)
    assert np.max(np.abs(st[1:])) < 1e-15
    u0 = 0.9 + 0.2j
    st = state(Labels(u0=u0), 96)
    assert np.max(np.abs(st - coherent_amps(u0, 96))) < 1e-13


def test_saturating_state_annihilation_eigenvalue():
    from srsqueeze.params import squeezed_frame_label

    lab = Labels(u0=1.0, r=0.5, theta=0.0)
    st = state(lab, 128)
    az = fock.squeezed_annihilator(lab.z, 128)
    u0z = squeezed_frame_label(lab.u0, lab.z)
    res = az @ st - u0z * st
    assert np.linalg.norm(res[:64]) < 1e-12


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
    with pytest.raises(OutOfDomain):
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
        single = state(lab, 256)
        assert np.array_equal(batch[:, k], single)


@pytest.mark.parametrize("z", [0.0, 0.5, 0.8 * cmath.exp(1j * math.pi / 3),
                               1.1 * cmath.exp(-2j), "per-node"])
def test_batch_negated_nodes_are_exact_parity_images(z):
    # |-u, z> = (-1)^N |u, z> holds bit for bit in the recurrence; the plane
    # projector sums fold each node with its negative on this
    rng = np.random.Generator(np.random.Philox(11))
    us = rng.normal(size=40) * 2 + 1j * rng.normal(size=40) * 2
    if z == "per-node":
        z = 0.9 * rng.random(40) * np.exp(2j * math.pi * rng.random(40))
    dim = 48
    plus = fock.saturating_state_batch(us, z, dim)
    minus = fock.saturating_state_batch(-us, z, dim)
    sign = (-1.0) ** np.arange(dim)
    assert np.array_equal(minus, sign[:, None] * plus)


@pytest.mark.parametrize("r", [0.0, 0.5, 3.0, 300.0])
def test_batch_conjugate_nodes_are_exact_conjugate_images(r):
    # at real z, <m|conj(u), r> = conj(<m|u, r>) bit for bit, and the
    # parity image holds as well: the frame rule's nodes come in (x, +-y)
    # and (+-x, +-y) quadruples
    rng = np.random.Generator(np.random.Philox(12))
    us = rng.normal(size=40) * 3 + 1j * rng.normal(size=40) * 3
    dim = 24
    amps = fock.saturating_state_batch(us, r, dim)
    assert np.all(np.isfinite(amps))
    assert np.array_equal(fock.saturating_state_batch(us.conj(), r, dim),
                          amps.conj())
    sign = (-1.0) ** np.arange(dim)
    assert np.array_equal(fock.saturating_state_batch(-us, r, dim),
                          sign[:, None] * amps)


def test_batch_matches_the_dense_oracle_check():
    from srsqueeze import verify

    res, = verify.run_suite(only=["fock.state_recurrence_vs_dense"])
    assert res.bound == 1e-13
    assert res.passed


def test_batch_squeeze_count_must_match():
    us = np.array([0j, 1.0, 1j])
    with pytest.raises(OutOfDomain):
        fock.saturating_state_batch(us, np.array([0.3, 0.5j]), 16)
    with pytest.raises(OutOfDomain):
        fock.saturating_state_batch(us, np.zeros(4, complex), 16)
    # one squeeze per row of a (k, n) block is a (k, 1) array; a (k,) one
    # aligns with the n columns and fails when k != n, and a (k, 1) one
    # does not widen k nodes into a block
    block = np.tile(us, (2, 1))
    with pytest.raises(OutOfDomain):
        fock.saturating_state_batch(block, np.array([0.3, 0.5j]), 16)
    with pytest.raises(OutOfDomain):
        fock.saturating_state_batch(us, np.array([[0.3], [0.5j]]), 16)


def test_batch_row_squeezes_are_each_row_alone():
    # a (k, 1) array of mixed real and complex squeezes gives each row of a
    # (k, n) block the bits of that row built with its scalar squeeze
    zs = np.array([0.0, 0.4, 0.8 * cmath.exp(1j * math.pi / 3), -2.0,
                   12 * cmath.exp(0.7j), 0.4])
    rng = np.random.Generator(np.random.Philox(13))
    us = rng.normal(size=(zs.size, 7)) + 1j * rng.normal(size=(zs.size, 7))
    dim = 20
    batch = fock.saturating_state_batch(us, zs[:, None], dim)
    assert batch.shape == (dim, us.size)
    rows = batch.reshape(dim, *us.shape)
    for k, z in enumerate(zs):
        assert np.array_equal(rows[:, k],
                              fock.saturating_state_batch(us[k], z, dim))


def test_frame_params_evaluate_each_distinct_squeeze_once(monkeypatch):
    # the 65 standard labels have 13 squeezes; -0.4 + 0j and -0.4 - 0j are
    # equal but distinct, with theta = pi and -pi
    from srsqueeze.verify import standard_labels

    zs = np.array([lab.z for lab in standard_labels()]
                  + [complex(-0.4, 0.0), complex(-0.4, -0.0)])
    singles = [fock._frame_params(z) for z in zs]
    calls = []
    axes = fock.squeeze_axes

    def counted(r):
        calls.append(r)
        return axes(r)

    monkeypatch.setattr(fock, "squeeze_axes", counted)
    cols = fock._frame_params(zs.reshape(-1, 1))
    assert len(calls) == 15
    for col, single in zip(cols, zip(*singles)):
        assert col.shape == (zs.size, 1)
        assert np.array_equal(col.ravel(), single)
        assert np.array_equal(np.signbit(col.ravel()), np.signbit(single))
    assert cols[-1][-2:, 0].tolist() == [math.pi, -math.pi]


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


@pytest.mark.parametrize("z, x", [(12 * cmath.exp(0.7j), 3.0),
                                  (19 * cmath.exp(0.3j), 3.0),
                                  (19 * cmath.exp(-2.0j), 1.5)])
def test_recurrence_moduli_at_large_r_vs_mpmath(z, x):
    # nodes far out on the anti-squeezed axis, where |u| is about e^r and
    # u - zeta conj(u) cancels to O(e^{-r}): the lab-frame recurrence kept a
    # residue of eps |u| there and overflowed.  The extended-precision
    # rotation leaves about |u| 2^-64 in y, which turns the phase by t x dy,
    # so moduli are compared, relative to the largest
    r = abs(z)
    width = math.sqrt((1 + math.exp(-2 * r)) / (2 * math.exp(-2 * r)))
    us = cmath.exp(0.5j * cmath.phase(z)) * np.array(
        [x * width + 0.5j, -x * width + 0.2j, 0.3j])
    got = fock.saturating_state_batch(us, z, 12)
    for i, u in enumerate(us):
        want = np.abs(_mp_amplitudes(u, z, 12))
        assert np.max(want) > 1e-8
        assert np.max(np.abs(np.abs(got[:, i]) - want)) <= 1e-9 * np.max(want)


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


def moments(q, p, st):
    return fock.sr_ur_check(q, p, [st])[0].as_moments()


def test_expectations_vacuum_and_coherent():
    st = state(Labels(), 64)
    m = moments(*qp(64), st)
    assert m.dq == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert m.dp == pytest.approx(1 / math.sqrt(2), rel=1e-12)
    assert m.q0 == pytest.approx(0.0, abs=1e-14)
    st = state(Labels(u0=1 + 0.5j), 96)
    m = moments(*qp(96), st)
    assert m.dq == pytest.approx(1 / math.sqrt(2), rel=1e-11)
    assert m.dp == pytest.approx(1 / math.sqrt(2), rel=1e-11)
    assert m.q0 == pytest.approx(math.sqrt(2), rel=1e-12)
    assert m.p0 == pytest.approx(math.sqrt(2) * 0.5, rel=1e-12)


def test_defining_residual_saturating_states():
    q, p = qp(256)
    for lab in (Labels(u0=1.0, r=0.5, theta=0.0),
                Labels(u0=1 + 1j, r=0.8, theta=2.0),
                Labels(u0=2j, r=1.0, theta=math.pi),
                # off the registered grid: theta = 2.5 at its largest r
                Labels(u0=2.0, r=1.2, theta=2.5)):
        st = state(lab, 256)
        m = labels_to_moments(lab, C)
        assert fock.defining_residual(q, p, st, m, C) < 1e-8


def test_defining_residual_vacuum():
    st = state(Labels(), 64)
    m = labels_to_moments(Labels(), C)
    assert fock.defining_residual(*qp(64), st, m, C) < 1e-14


def test_defining_residual_fock_one():
    q, p = qp(128)
    st = fock.basis_state(128, 1)
    m = moments(q, p, st)
    res = fock.defining_residual(q, p, st, m, C)
    assert res > 0.1
    assert res == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_moments_from_passed_matrices_equal_dense_mat_vecs():
    # the explicit forms that sr_ur_check and defining_residual evaluate
    c = Constants(hbar=1.3, ell0=0.6)
    lab = Labels(u0=0.7 - 0.4j, r=0.6, theta=1.1)
    n = 96
    q, p = qp(n, c)
    psi = state(lab, n)
    nrm2 = float(np.vdot(psi, psi).real)
    qpsi, ppsi = q @ psi, p @ psi
    q0 = float(np.vdot(psi, qpsi).real) / nrm2
    p0 = float(np.vdot(psi, ppsi).real) / nrm2
    qbar, pbar = qpsi - q0 * psi, ppsi - p0 * psi
    want = (q0, p0, math.sqrt(float(np.vdot(qbar, qbar).real) / nrm2),
            math.sqrt(float(np.vdot(pbar, pbar).real) / nrm2),
            2.0 * float(np.vdot(qbar, pbar).real) / nrm2)
    got = moments(q, p, psi)
    assert (got.q0, got.p0, got.dq, got.dp, got.corr) == want
    m = labels_to_moments(lab, c)
    lam = lambda0(m, c)
    res = float(np.linalg.norm((qpsi - m.q0 * psi)
                               - lam * (ppsi - m.p0 * psi)))
    assert fock.defining_residual(q, p, psi, m, c) == res


def test_sr_ur_vacuum_saturates():
    n = 64
    rec, = fock.sr_ur_check(fock.position(n, C), fock.momentum(n, C),
                            [fock.basis_state(n, 0)])
    assert abs(rec.slack) < 1e-12


def test_sr_ur_fock_one():
    n = 64
    rec, = fock.sr_ur_check(fock.position(n, C), fock.momentum(n, C),
                            [fock.basis_state(n, 1)])
    # Var Q Var P = 9/4, <(-i)[Q,P]>^2/4 = 1/4 and <{Qbar,Pbar}> = 0
    assert rec.var_a * rec.var_b == pytest.approx(9.0 / 4.0, rel=1e-13)
    assert rec.cross.imag ** 2 == pytest.approx(1.0 / 4.0, rel=1e-13)
    assert rec.cross.real == pytest.approx(0.0, abs=1e-13)
    assert rec.slack == pytest.approx(2.0, rel=1e-12)


def test_sr_ur_rejects_non_hermitian():
    a, adag = fock.ladder(16)
    with pytest.raises(OutOfDomain):
        fock.sr_ur_check(a, fock.position(16, C), [fock.basis_state(16, 0)])


def test_sr_ur_rejects_non_hermitian_with_many_states():
    a, adag = fock.ladder(16)
    q = fock.position(16, C)
    states = [fock.basis_state(16, k) for k in range(3)]
    with pytest.raises(OutOfDomain):
        fock.sr_ur_check(a, q, states)
    with pytest.raises(OutOfDomain):
        fock.sr_ur_check(q, adag, states)


def test_sr_ur_list_matches_single_states():
    n = 96
    q, p = fock.position(n, C), fock.momentum(n, C)
    states = [state(lab, n)
              for lab in (Labels(), Labels(u0=1 + 1j, r=0.7, theta=1.0),
                          Labels(u0=-0.5, r=0.25, theta=math.pi))]
    states.append(fock.basis_state(n, 1))
    got = fock.sr_ur_check(q, p, states)
    assert got == [fock.sr_ur_check(q, p, [st])[0] for st in states]


def test_sr_ur_moments_are_the_expectations():
    # one second-moment record holds the moments and the SR slack: the
    # slack is Var A Var B - |<Abar Bbar>|^2, Cauchy-Schwarz on Abar|psi>
    # and Bbar|psi>
    n = 96
    q, p = fock.position(n, C), fock.momentum(n, C)
    for st in (state(Labels(u0=0.7 - 0.4j, r=0.6, theta=1.1), n),
               fock.basis_state(n, 1)):
        rec, = fock.sr_ur_check(q, p, [st])
        m = rec.as_moments()
        assert (m.q0, m.p0, m.dq, m.dp, m.corr) == (
            rec.a0, rec.b0, math.sqrt(rec.var_a), math.sqrt(rec.var_b),
            2.0 * rec.cross.real)
        assert rec.slack == pytest.approx(
            rec.var_a * rec.var_b - abs(rec.cross) ** 2, abs=1e-13)
    # a state with no spread in A still has its SR slack
    num = np.diag(np.arange(n, dtype=float))
    rec, = fock.sr_ur_check(num, q, [fock.basis_state(n, 2)])
    assert rec.var_a == 0.0 and rec.slack == 0.0


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


@pytest.mark.parametrize("dim", [2, 3, 96])
@pytest.mark.parametrize("z", [0.0, -0j, 0.7 * cmath.exp(2j), -1.2])
def test_squeezed_annihilator_is_the_bogoliubov_combination(dim, z):
    a, adag = fock.ladder(dim)
    ch, s, _ = fock._squeeze_frame(z)
    assert np.array_equal(fock.squeezed_annihilator(z, dim), ch * a - s * adag)


def _parity_masked(dim, opposite, seed=7):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    levels = np.arange(dim)
    odd = (levels[:, None] + levels[None, :]) % 2 == 1
    return np.where(odd == opposite, mat, 0)


@pytest.mark.parametrize("opposite", [False, True])
@pytest.mark.parametrize("k", [2, 3, 63, 126])
def test_top_block_norm_parity_split_is_the_dense_norm(opposite, k):
    mat = _parity_masked(128, opposite)
    assert fock._parity_blocks(mat[:k, :k], opposite) is not None
    assert fock._parity_blocks(mat[:k, :k], not opposite) is None
    # two SVDs against one: each is accurate to a small multiple of eps
    dense = np.linalg.norm(mat[:k, :k], 2)
    assert abs(fock.top_block_norm(mat, k) - dense) <= 32 * np.spacing(dense)


@pytest.mark.parametrize("opposite", [False, True])
def test_top_block_norm_takes_the_dense_path_off_pattern(opposite):
    mat = _parity_masked(64, opposite)
    # [5, 6] couples levels of opposite parity, [5, 7] levels of equal one
    at = (5, 7) if opposite else (5, 6)
    mat[at] = 1e-3
    assert fock._parity_blocks(mat, False) is None
    assert fock._parity_blocks(mat, True) is None
    assert fock.top_block_norm(mat, 64) == np.linalg.norm(mat, 2)
    # a NaN where a zero belongs reaches the dense SVD, which refuses it;
    # the norm reads NaN, as an entrywise deviation would
    mat[at] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.norm(mat, 2)
    assert math.isnan(fock.top_block_norm(mat, 64))
    # so does a NaN inside one of the parity blocks
    mat = _parity_masked(64, opposite)
    mat[(4, 5) if opposite else (4, 6)] = np.nan
    assert math.isnan(fock.top_block_norm(mat, 64))


def test_tail_mass_of_a_block_is_per_row():
    from srsqueeze.oracles import _state_rows
    from srsqueeze.verify import standard_labels

    rows = _state_rows(standard_labels(), 48)
    tails = fock.tail_mass(rows)
    assert tails.shape == (rows.shape[0],)
    singles = [fock.tail_mass(row) for row in rows]
    assert all(isinstance(t, float) for t in singles)
    assert np.array_equal(tails, singles)


def test_sr_ur_on_a_row_block_matches_one_call_per_row():
    from srsqueeze.oracles import _state_rows
    from srsqueeze.verify import standard_labels

    n = 96
    q, p = fock.position(n, C), fock.momentum(n, C)
    rows = _state_rows(standard_labels(), n)
    assert fock.sr_ur_check(q, p, rows) == [fock.sr_ur_check(q, p, [row])[0]
                                            for row in rows]


def test_tail_mass_diagnostic():
    st = state(Labels(u0=0.5, r=0.3, theta=0.1), 64)
    assert fock.tail_mass(st) == pytest.approx(
        float(np.sum(np.abs(st[-8:]) ** 2)))
    assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)
