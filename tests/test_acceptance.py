"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with measured values and runtimes.
"""

import cmath
import math
import time
import warnings

import numpy as np

from srsqueeze import bch, fock, kernels, verify, wavefn
from srsqueeze import quadrature as quad
from srsqueeze.params import Constants, Labels, labels_to_moments

C = Constants()
CFG = verify.VerifyConfig()


class Criterion:
    """Timer + reporter; asserts the budget and the registered conditions."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.failures = []

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def require(self, name, measured, bound):
        ok = measured <= bound
        if not ok:
            self.failures.append(f"{name}: {measured:.3e} > {bound:.1e}")
        return ok

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            return False
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if not self.failures else "FAIL"
        print(f"ACCEPTANCE {self.number}: {self.label} ... {status} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s)")
        for f in self.failures:
            print(f"    {f}")
        assert not self.failures, "; ".join(self.failures)
        assert elapsed < self.budget, \
            f"runtime {elapsed:.1f}s exceeds budget {self.budget}s"
        return False


def test_criterion_1_parametrization_roundtrip():
    with Criterion(1, "parametrization round-trip and saturation identity",
                   1.0) as crit:
        results = verify.run_suite(CFG, only=["params.roundtrip",
                                               "params.saturation_identity"])
        assert len(results) == 2
        for res in results:
            crit.require(res.check_id, res.measured, 1e-12)


def test_criterion_2_defining_residual():
    with Criterion(2, "defining-equation residual at N=256", 10.0) as crit:
        n = 256
        q, p = fock.position(n, C), fock.momentum(n, C)
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            labs = verify.standard_labels() + [Labels(u0=2.0, r=1.2, theta=2.5)]
            for lab in labs:
                st = fock.saturating_state(lab, n)
                m = labels_to_moments(lab, C)
                worst = max(worst, fock.defining_residual(q, p, st, m, C))
        crit.require("saturating residual", worst, 1e-7)
        one = fock.basis_state(n, 1)
        probe = fock.defining_residual(q, p, one,
                                       fock.expectations(q, p, one), C)
        crit.require("probe must NOT saturate", 0.1 / probe, 1.0)


def test_criterion_3_overlap_oracle_triangle():
    with Criterion(3, "overlap closed form vs Fock vs quadrature", 60.0) as crit:
        res = verify._check_oracle_triangle(CFG)[0]
        assert res.params["pairs"] >= 40
        crit.require(f"pairwise agreement over {res.params['pairs']} pairs",
                     res.measured, 1e-8)


def test_criterion_4_special_values():
    with Criterion(4, "vacuum-squeezed overlap phase and coherent modulus",
                   5.0) as crit:
        vac = wavefn.WavefnParams.from_labels(Labels(), C)
        worst_im, worst_val = 0.0, 0.0
        for r, th in ((0.25, 0.0), (0.7, 1.1), (1.2, math.pi / 2)):
            p = wavefn.WavefnParams.from_labels(Labels(u0=0, r=r, theta=th), C)
            spec = quad.QuadratureSpec(quad.QuadKind.GAUSS_HERMITE, 96,
                                       scale=(1.6, 1.0), rel_tol=1e-8)
            rep = quad.integrate_line(
                lambda q: np.conj(wavefn.psi(q, vac)) * wavefn.psi(q, p),
                spec)
            worst_im = max(worst_im, abs(rep.value.imag))
            worst_val = max(worst_val,
                            abs(rep.value - math.cosh(r) ** -0.5))
        crit.require("imaginary part", worst_im, 1e-10)
        crit.require("modulus value", worst_val, 1e-9)
        worst = 0.0
        for u2, u1 in ((1 + 1j, 2j), (0.0, -1.5 + 0.5j), (2j, 2j)):
            res = kernels.coherent_overlap(u2, u1)
            worst = max(worst, abs(
                res.modulus - math.exp(-0.5 * abs(complex(u2) - complex(u1)) ** 2)))
        crit.require("coherent modulus", worst, 1e-12)


def test_criterion_5_bch_disentangling():
    with Criterion(5, "squeeze disentangling at N=128", 20.0) as crit:
        n = 128
        worst = 0.0
        for r in (0.25, 0.7, 1.0):
            for th in (0.0, math.pi / 3, math.pi):
                z = r * cmath.exp(1j * th)
                diff = fock.squeeze_factored(z, n) \
                    - fock.squeeze_exp(z, n)
                worst = max(worst, fock.top_block_norm(diff, n // 2))
        crit.require("factored vs exponential (top 64)", worst, 1e-9)
        # dual factor order: exact in the defining representation for all r;
        # on Fock space inside the convergence region of the anti-normal
        # ordering (see decisions ledger)
        from scipy.linalg import expm

        k0 = np.diag([0.5, -0.5]).astype(complex)
        kp = np.array([[0, 1], [0, 0]], dtype=complex)
        km = np.array([[0, 0], [-1, 0]], dtype=complex)
        worst_dual = 0.0
        for r in (0.25, 0.7, 1.0):
            for th in (0.0, math.pi / 3, math.pi):
                z = r * cmath.exp(1j * th)
                d = bch.disentangle_squeeze(z)
                target = expm(z * kp - np.conj(z) * km)
                rev = expm(-np.conj(d.alpha) * km) @ expm(-d.gamma * k0) \
                    @ expm(d.alpha * kp)
                worst_dual = max(worst_dual, float(np.max(np.abs(rev - target))))
        for r in (0.2, 0.3, 0.4):
            z = r * cmath.exp(1j * math.pi / 3)
            diff = fock.squeeze_factored_reversed(z, n) \
                - fock.squeeze_exp(z, n)
            worst_dual = max(worst_dual, fock.top_block_norm(diff, 16))
        crit.require("dual-order factorization", worst_dual, 1e-9)
        assert bch.f_uv(0, 0) == 0.5
        worst_sym = 0.0
        for u in (-2.0, 0.0, 1.3, 2 + 2j, -2 - 2j):
            for v in (-2.0, 0.7, 2.0, -2 + 2j):
                worst_sym = max(worst_sym, abs(bch.f_uv(u, v) - bch.f_uv(v, u)))
        crit.require("f symmetry", worst_sym, 1e-12)


def test_criterion_6_resolution_of_identity():
    with Criterion(6, "overcompleteness at fixed z and mu-weighted", 300.0) as crit:
        for z in (0.0, 0.5, 0.8 * cmath.exp(1j * math.pi / 3)):
            res = verify.resolution_of_identity(z, 16, CFG)
            crit.require(f"identity block at z={z:.2f}", res.measured, 1e-5)
        mu = verify.mu_weighted_identity(CFG)
        crit.require("mu-weighted double integral", mu.measured, 1e-4)


def test_criterion_7_diagonal_kernel():
    with Criterion(7, "diagonal-kernel reconstruction", 120.0) as crit:
        res = verify._check_diag_kernel(CFG)[0]
        crit.require("matrix elements on the 8x8 block", res.measured, 1e-8)


def test_criterion_8_wavefunctions():
    with Criterion(8, "wavefunction forms and Fock-Hermite synthesis",
                   30.0) as crit:
        res = {r.check_id: r for r in verify.run_suite(
            CFG, only=["wavefn.three_forms", "wavefn.fock_synthesis"])}
        crit.require("three-form equivalence",
                     res["wavefn.three_forms"].measured, 1e-12)
        crit.require("synthesis within truncation budget",
                     res["wavefn.fock_synthesis"].measured, 1.0)


def test_criterion_9_sr_ur_checker():
    with Criterion(9, "uncertainty-relation checker", 5.0) as crit:
        n = 48
        q, p = fock.position(n, C), fock.momentum(n, C)
        rng = np.random.Generator(np.random.Philox(CFG.seed))
        worst_neg = 0.0
        for _ in range(100):
            amps = rng.normal(size=n) + 1j * rng.normal(size=n)
            amps /= np.linalg.norm(amps)
            rec, = fock.sr_ur_check(q, p, [fock.FockVector.from_amps(amps)])
            worst_neg = max(worst_neg, -rec.slack)
        crit.require("positivity over 100 random states", worst_neg, 1e-10)
        worst_sat = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", fock.TruncationWarning)
            qn, pn = fock.position(192, C), fock.momentum(192, C)
            for lab in verify.standard_labels(rmax=1.0):
                st = fock.saturating_state(lab, 192)
                rec, = fock.sr_ur_check(qn, pn, [st])
                worst_sat = max(worst_sat, abs(rec.slack))
        crit.require("slack on saturating states", worst_sat, 1e-8)
        rec1, = fock.sr_ur_check(q, p, [fock.basis_state(n, 1)])
        crit.require("slack of the n=1 probe vs 2 hbar^2",
                     abs(rec1.slack - 2.0 * C.hbar**2), 1e-10)


def test_criterion_10_mutation_canaries():
    with Criterion(10, "mutation canaries all detected", 60.0) as crit:
        results = verify.run_suite(CFG, only=["canary.*"])
        assert len(results) >= 5
        for r in results:
            crit.require(r.check_id, r.measured, r.bound)
