import ast
import cmath
import copy
import dataclasses
import json
import math
import os
import pathlib
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from srsqueeze import bch, fock, kernels, oracles, verify, wavefn
from srsqueeze import quadrature as quadmod
from srsqueeze.params import (Constants, Labels, OutOfDomain, squeeze_axes,
                              squeezed_frame_label)


@pytest.fixture(scope="module")
def cfg():
    return verify.VerifyConfig()


@pytest.fixture(scope="module")
def full_suite(cfg):
    return verify.run_suite(cfg)


_NAN = float("nan")


@pytest.mark.parametrize("devs,at", [
    ([(_NAN, "a"), (1.0, "b"), (2.0, "c")], "a"),
    ([(1.0, "a"), (_NAN, "b"), (2.0, "c")], "b"),
    ([(1.0, "a"), (2.0, "b"), (_NAN, "c")], "c"),
    ([(1.0, "a"), (np.array([0.5, _NAN]), "b"), (2.0, "c")], "b"),
])
def test_worst_fails_at_the_first_nan(cfg, devs, at):
    seen = []

    def gen():
        for dev, where in devs:
            seen.append(where)
            yield dev, where

    res = verify._worst(cfg, "params.roundtrip", gen(), {"extra": 1})
    assert math.isnan(res.measured) and not res.passed
    assert res.params == {"worst_at": repr(at), "extra": 1}
    # the scan stops at the NaN
    assert seen[-1] == at


def test_worst_keeps_the_first_of_ties(cfg):
    res = verify._worst(cfg, "params.roundtrip",
                        [(1e-13, "a"), (3e-13, "b"), (3e-13, "c"), (2e-13, "d")])
    assert res.measured == 3e-13 and res.passed
    assert res.params["worst_at"] == repr("b")


def test_worst_floors_negative_deviations_at_zero(cfg):
    res = verify._worst(cfg, "params.roundtrip", [(-3.0, "a"), (-1.0, "b")])
    assert res.measured == 0.0 and res.passed
    # worst_at still names the point closest to failing
    assert res.params["worst_at"] == repr("b")


def test_worst_reduces_array_deviations(cfg):
    res = verify._worst(cfg, "params.roundtrip",
                        [(np.array([1e-14, 4e-13]), (0, 1)),
                         (np.array([[2e-13], [3e-13]]), (1, 0))])
    assert res.measured == 4e-13
    assert res.params["worst_at"] == repr((0, 1))
    res = verify._worst(cfg, "params.roundtrip", [(np.array([2e-12]), 0.5)])
    assert res.measured == 2e-12 and not res.passed


def test_worst_of_no_pairs_is_zero(cfg):
    res = verify._worst(cfg, "params.roundtrip", iter(()))
    assert res.measured == 0.0 and res.passed
    assert res.params == {"worst_at": "None"}


def _only_result(cfg, check_id):
    res, = verify.run_suite(cfg, only=[check_id])
    return res


def test_nan_in_f_uv_fails_f_symmetry(cfg, monkeypatch):
    f_uv = bch.f_uv
    bad = (-0.7, 0.5 - 1j)
    monkeypatch.setattr(bch, "f_uv", lambda u, v: _NAN if (u, v) == bad
                        else f_uv(u, v))
    res = _only_result(cfg, "bch.f_symmetry")
    assert math.isnan(res.measured) and not res.passed
    assert res.params["worst_at"] == repr(bad)


def test_nan_in_squeezed_annihilator_fails_bogoliubov_closure(cfg,
                                                              monkeypatch):
    annihilator = fock.squeezed_annihilator
    bad = 0.7 * cmath.exp(1j * math.pi / 3)

    def corrupt(z, n):
        az = annihilator(z, n)
        if z == bad:
            az[3, 5] = _NAN
        return az

    monkeypatch.setattr(fock, "squeezed_annihilator", corrupt)
    res = _only_result(cfg, "fock.bogoliubov_closure")
    assert math.isnan(res.measured) and not res.passed
    assert res.params["worst_at"] == repr(bad)


def test_nan_in_displacement_fails_displacement_vs_exp(cfg, monkeypatch):
    # the block norm of a dense difference reads the NaN, where numpy's
    # SVD alone would raise and leave the check no worst point
    displacement = fock.displacement
    bad = 1 + 1j

    def corrupt(u0, dim, cols=None):
        d = displacement(u0, dim, cols)
        if u0 == bad:
            d[3, 5] = _NAN
        return d

    monkeypatch.setattr(fock, "displacement", corrupt)
    res = _only_result(cfg, "fock.displacement_vs_exp")
    assert math.isnan(res.measured) and not res.passed
    assert res.params["worst_at"] == repr(bad)


def test_nan_in_squeezed_overlap_fails_hermitian_symmetry(cfg, monkeypatch):
    overlap = kernels.squeezed_overlap
    bad = verify._PAIR_GRID[17]

    def corrupt(*pair):
        res = overlap(*pair)
        if pair == bad:
            res = dataclasses.replace(res, value=complex(_NAN, 0.0))
        return res

    monkeypatch.setattr(kernels, "squeezed_overlap", corrupt)
    res = _only_result(cfg, "kernels.hermitian_symmetry")
    assert math.isnan(res.measured) and not res.passed
    # the check also evaluates each pair reversed: the first pair that
    # reads the corrupt value is the worst
    first = next(p for p in verify._PAIR_GRID if bad in (p, p[2:] + p[:2]))
    assert res.params["worst_at"] == repr(first)


def test_params_subset_passes(cfg):
    results = verify.run_suite(cfg, only=["params.*"])
    assert results
    assert all(r.check_id.startswith("params.") for r in results)
    assert all(r.passed for r in results)


def test_bch_and_quadrature_subsets(cfg):
    results = verify.run_suite(cfg, only=["bch.*", "quadrature.*"])
    assert {r.check_id.split(".")[0] for r in results} == {"bch", "quadrature"}
    assert all(r.passed for r in results)


def test_canaries_detect_corruptions(cfg):
    results = verify.run_suite(cfg, only=["canary.*"])
    assert len(results) >= 5
    for r in results:
        assert r.passed, f"{r.check_id} failed to detect its corruption"
        assert r.params["detected_difference"] > r.params["detection_threshold"]


def test_results_sorted_and_schema(cfg):
    results = verify.run_suite(cfg, only=["params.*", "bch.*"])
    ids = [r.check_id for r in results]
    assert ids == sorted(ids)
    payload = json.loads(verify.report_json(results))
    for row in payload:
        assert set(row) == {"check_id", "params", "measured", "bound",
                            "passed", "runtime_ms"}
        assert row["passed"] == (row["measured"] <= row["bound"])


def test_report_table_format(cfg):
    results = verify.run_suite(cfg, only=["params.roundtrip"])
    table = verify.report_table(results)
    assert "params.roundtrip" in table
    assert "PASS" in table
    assert table.strip().endswith("checks passed")


def test_exceptions_become_failures():
    bad = verify.VerifyConfig(fock_dim=-3)  # breaks matrix construction
    results = verify.run_suite(bad, only=["fock.ladder_commutator"])
    assert len(results) == 1
    assert not results[0].passed
    assert math.isinf(results[0].measured)
    assert "error" in results[0].params
    # the failed result reports the check's own bound
    assert results[0].bound == bad.bound(results[0].check_id) == 1e-12


@pytest.mark.parametrize("name,val", [("hbar", 1e154), ("ell0", 1e154),
                                      ("hbar", 1e-154), ("ell0", 1e-154)])
def test_constants_outside_the_checks_range_are_refused(name, val):
    # the params.* checks leave the float range there: refused before any
    # check runs, not reported as failed checks
    with pytest.raises(OutOfDomain, match=name):
        verify.run_suite(verify.VerifyConfig(
            constants=Constants(**{name: val})), only=["params.*"])


def test_truncation_sensitivity_of_scan():
    # shrinking the Fock space inflates the truncation-limited residuals
    small = verify.VerifyConfig(scan_dim=48)
    big = verify.VerifyConfig(scan_dim=256)
    scan = ["verify.saturation_scan"]
    res_small = {r.check_id: r for r in verify.run_suite(small, only=scan)}
    res_big = {r.check_id: r for r in verify.run_suite(big, only=scan)}
    key = "verify.defining_residual"
    assert res_small[key].measured > res_big[key].measured
    assert not res_small[key].passed
    assert res_big[key].passed


def test_synthesis_budget_counts_mass_past_truncation():
    # 1 - |psi|^2 of the truncated state cancels to ~0 here, which made the
    # budget 1e-11 against a 2.5e-11 synthesis defect (ratio 2.48)
    lab = Labels(u0=2j, r=0.7, theta=math.pi)
    qs = np.linspace(-6.0, 6.0, 129)
    amps = fock.saturating_state_batch(lab.u0, lab.z, 256).T
    ratio, = verify._synthesis_ratios([lab], Constants(), amps, qs)
    assert ratio <= 1.0


_BITS_PROBE = """
import sys
from srsqueeze import verify
for r in verify.run_suite(only=sys.argv[1:]):
    print(r.check_id, float(r.measured).hex())
"""


def _bits_at_one_and_two_blas_threads(only):
    """The measured hex of each result that only selects, at 1 and 2 threads."""
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _BITS_PROBE, *only],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_synthesis_bits_do_not_depend_on_the_blas_thread_count():
    # a BLAS product splits its sums across threads; Hermite synthesis sums
    # each point in one fixed order, so the checks that synthesize read the
    # same bits at 1 and at 2 threads
    one, two = _bits_at_one_and_two_blas_threads(
        ["wavefn.*", "canary.missing_center_phase"])
    assert len(one.splitlines()) == 6, one
    assert one == two


def test_fock_oracle_bits_do_not_depend_on_the_blas_thread_count():
    # the Fock oracles' parity blocks and column-restricted builds give
    # BLAS products of many shapes; none splits its sums differently
    one, two = _bits_at_one_and_two_blas_threads(
        ["fock.*", "kernels.displacement_composition",
         "kernels.matrix_element_vs_fock"])
    assert len(one.splitlines()) == 16, one
    assert one == two


def test_bound_overrides():
    cfg = verify.VerifyConfig(bounds={"params.roundtrip": 1e-30})
    results = verify.run_suite(cfg, only=["params.roundtrip"])
    assert not results[0].passed


@pytest.mark.parametrize("bounds", [
    # an unknown id was ignored, inf passed every check, nan and -1 failed
    {"params.rondtrip": 1e-30}, {"params.roundtrip": math.inf},
    {"params.roundtrip": math.nan}, {"params.roundtrip": -1.0},
])
def test_bad_bound_overrides_are_refused(bounds):
    with pytest.raises(OutOfDomain, match="bound"):
        verify.VerifyConfig(bounds=bounds)


def test_bound_override_takes_a_result_id_and_zero():
    # jacobian_unit is a result of the kernels.variable_change check
    cfg = verify.VerifyConfig(bounds={"kernels.jacobian_unit": 0.0,
                                      "params.roundtrip": 1.0})
    assert cfg.bound("kernels.jacobian_unit") == 0.0
    assert cfg.bound("params.roundtrip") == 1.0
    assert cfg.bound("params.saturation_identity") == 1e-12


def test_unmatched_only_pattern_is_refused_before_any_check_runs(monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "_REGISTRY", [
        (cid, lambda c, cid=cid: ran.append(cid)) for cid, _ in verify._REGISTRY])
    with pytest.raises(OutOfDomain, match="fock.unitarty") as info:
        verify.run_suite(only=["params.roundtrip", "fock.unitarty",
                               "nothing.*"])
    assert "nothing.*" in str(info.value)
    assert "params.roundtrip" not in str(info.value)
    assert ran == []


def test_resolution_of_identity_scalar_row(cfg):
    # dim_check = 1: the integral is the Gaussian normalization itself
    res = verify.resolution_of_identity(0.0, 1, cfg)
    assert res.measured < 1e-12
    assert res.passed


def test_resolution_of_identity_blocks(cfg):
    res0 = verify.resolution_of_identity(0.0, 16, cfg)
    assert res0.measured <= 1e-6
    res = verify.resolution_of_identity(0.5, 16, cfg)
    assert res.measured <= 1e-5


def test_resolution_of_identity_peak_memory(cfg):
    # each projector sum folds half-node amplitude batches by parity, so the
    # peak is a few (levels x nodes) batches
    z = 0.8 * cmath.exp(1j * math.pi / 3)
    tracemalloc.start()
    try:
        verify.resolution_of_identity(z, 16, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("order", range(2, 186))
def test_centred_plane_rule_is_exactly_antisymmetric(order):
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D, 2,
                                  scale=(1.3 * math.exp(0.7), 1.3 * math.exp(-0.7)))
    u, tw = quadmod._plane_nodes(order, spec)
    assert np.array_equal(u[::-1], -u)
    assert np.array_equal(tw[::-1], tw)


def _full_sum(us, z, dim, w):
    # the unfolded frame sum over every node, and the sum of the magnitudes
    # of its terms
    full = fock.saturating_state_batch(us, z, dim)
    return ((full * w) @ full.conj().T,
            (np.abs(full) * np.abs(w)) @ np.abs(full).T)


def _assert_fold_matches_full_sum(us, z, psi, w):
    # both sides round the same sum: entrywise within a few eps times the
    # sum of the magnitudes of its terms
    ref, scale = _full_sum(us[0], z, psi.shape[1], w[0])
    eps = np.finfo(float).eps
    assert np.all(np.abs(oracles._projector(psi, w)[0] - ref)
                  <= 16 * eps * scale)


@pytest.mark.parametrize("order", [2, 7, 8, 41, 48])
@pytest.mark.parametrize("dim", [1, 2, 16, 32])
@pytest.mark.parametrize("z", [0.0, 0.4, 0.8 * cmath.exp(1j * math.pi / 3)])
def test_projector_fold_matches_full_sum(order, dim, z):
    us, tw, psi = oracles._plane_states([z], order, dim)
    assert psi.shape == (1, dim, (us.shape[1] + 1) // 2)
    _assert_fold_matches_full_sum(us, abs(z), psi, tw)
    # diagonal-kernel weights of Q are odd in u, so the opposite-parity
    # fold carries them
    q_op = kernels.quadrature_observable("Q", z, Constants())
    kern = kernels.diagonal_kernel(q_op, z)
    lab = cmath.exp(0.5j * cmath.phase(z)) * us
    w = kern.evaluate(squeezed_frame_label(lab, z)) * tw
    assert np.max(np.abs(w + w[:, ::-1])) <= 1e-12 * np.max(np.abs(w))
    _assert_fold_matches_full_sum(us, abs(z), psi, w)


# mixed squeezes, 0.4 twice; tiled three times the list spans two blocks
_MIXED_Z = [0.0, 0.4, 0.8 * cmath.exp(1j * math.pi / 3),
            12 * cmath.exp(0.7j), -2.0, 0.4]
# one radius at four phases
_RADIUS_04 = [0.4, -0.4, 0.4j, 0.4 * cmath.exp(1j * math.pi / 3)]


def _outer_nodes(order):
    # the z nodes of mu_weighted_identity's outer rule at order
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                  order, scale=(0.5, 0.5))
    return list(quadmod._plane_nodes(order, spec)[0])


@pytest.mark.parametrize("dim", [1, 4, 16])
def test_identity_sums_of_a_block_match_each_z_alone(dim):
    near = 3 * _MIXED_Z + _RADIUS_04
    zs = near + _outer_nodes(4) + _outer_nodes(8)
    assert len({abs(complex(z)) for z in zs}) > oracles._Z_BLOCK
    order = max(2, dim)
    sums = oracles._identity_sums(zs, order, dim)
    assert sums.shape == (len(zs), dim, dim)
    # z that share a radius share its frame sum, so each z's sum keeps the
    # bits of its own call
    for z, got in zip(zs, sums):
        assert np.array_equal(got, oracles._identity_sums([z], order, dim)[0])
    eps = np.finfo(float).eps
    for z, got in zip(near, sums):
        us, tw, _ = oracles._plane_states([z], order, dim)
        ref, scale = _full_sum(us[0], abs(z), dim, tw[0])
        # the unfolded frame sum, rotated to the lab basis
        d = np.exp(0.5j * cmath.phase(z) * np.arange(dim))
        ref = d[:, None] * ref * d.conj()
        assert np.all(np.abs(got - ref) <= 16 * eps * scale)


def test_plane_states_of_a_block_are_each_z_alone():
    # the nodes, weights and amplitudes of a block are those of its z alone,
    # bit for bit
    us, tw, psi = oracles._plane_states(_MIXED_Z, 5, 6)
    for k, z in enumerate(_MIXED_Z):
        r = abs(z)
        _, omt, opt, _ = squeeze_axes(r)
        frame = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D,
                                       scale=(omt ** -0.5, opt ** -0.5))
        u1, tw1 = quadmod._plane_nodes(5, frame)
        assert np.array_equal(us[k], u1) and np.array_equal(tw[k], tw1)
        assert np.array_equal(psi[k], fock.saturating_state_batch(
            u1[:(u1.size + 1) // 2], r, 6))


def _count_calls(monkeypatch, module, name):
    """Record the arguments of each call to module.name, as (args, kwargs)."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("z", [0.0, 0.8 * cmath.exp(1j * math.pi / 3),
                               20 * cmath.exp(0.7j), 300 * cmath.exp(0.3j),
                               350 * cmath.exp(0.7j), -2.0])
def test_frame_rule_is_exact_at_order_dim(z):
    for dim in (1, 4, 16):
        assert np.max(np.abs(oracles._identity_sums([z], dim, dim)[0]
                             - np.eye(dim))) <= 1e-13


def test_frame_rule_below_order_dim_is_not_exact():
    # order 3 integrates only the entries with m + n <= 5
    s = oracles._identity_sums([1.2], 3, 16)[0]
    assert np.max(np.abs(s[:3, :3] - np.eye(3))) <= 1e-13
    assert np.max(np.abs(s - np.eye(16))) > 0.1


def test_frame_rule_refuses_widths_past_the_float_range(monkeypatch):
    assert oracles._FRAME_MAX_R == pytest.approx(354.5, abs=0.1)
    oracles._plane_states([oracles._FRAME_MAX_R], 2, 2)
    calls = _count_calls(monkeypatch, fock, "saturating_state_batch")
    # one z past the limit refuses its whole block before any amplitude
    far = 1.001 * oracles._FRAME_MAX_R * cmath.exp(0.3j)
    for zs in ([1.001 * oracles._FRAME_MAX_R], [0.4, far, 0.0]):
        with pytest.raises(OutOfDomain):
            oracles._plane_states(zs, 2, 2)
        with pytest.raises(OutOfDomain):
            oracles._identity_sums(zs, 2, 2)
    assert calls == []


@pytest.mark.parametrize("outer", [4, 10])
def test_mu_weighted_identity_holds_to_rounding(outer):
    res = verify.mu_weighted_identity(verify.VerifyConfig(mu_outer_order=outer))
    assert res.measured <= 1e-12


def test_mu_weighted_identity_builds_one_state_batch_per_block(monkeypatch):
    # outer order 4 evaluates 16 + 64 z; one batch each would be 80 calls
    calls = _count_calls(monkeypatch, fock, "saturating_state_batch")
    res = verify.mu_weighted_identity(verify.VerifyConfig(mu_outer_order=4))
    assert len(calls) <= 5
    assert res.passed


def test_mu_weighted_identity_builds_each_radius_once(monkeypatch):
    # the 16 + 64 z of outer order 4 have 3 + 10 radii, each with the 128
    # half-rule nodes of the order-16 frame rule; one build per z would be
    # 80 x 128
    assert [len({abs(complex(z)) for z in _outer_nodes(m)})
            for m in (4, 8)] == [3, 10]
    calls = _count_calls(monkeypatch, fock, "saturating_state_batch")
    res = verify.mu_weighted_identity(verify.VerifyConfig(mu_outer_order=4))
    assert sum(np.size(args[0]) for args, _ in calls) == 13 * 128
    assert res.params["nodes"] == 13 * 128


def test_fock_synthesis_builds_one_hermite_table(monkeypatch, cfg):
    calls = _count_calls(monkeypatch, wavefn, "hermite_functions")
    res, = verify.run_suite(cfg, only=["wavefn.fock_synthesis"])
    assert res.passed
    assert len(calls) == 1


@pytest.mark.parametrize("check_id", ["fock.invariant_combination",
                                      "fock.displaced_coherence",
                                      "fock.bogoliubov_closure",
                                      "fock.annihilation"])
def test_annihilator_checks_build_one_per_squeeze(monkeypatch, cfg,
                                                   check_id):
    # 13 distinct squeezes among the 65 standard labels (52 with u0 != 0),
    # and among the 16 (r, theta) of the grid, whose 4 at r = 0 are one
    calls = _count_calls(monkeypatch, fock, "squeezed_annihilator")
    res, = verify.run_suite(cfg, only=[check_id])
    assert res.passed
    assert len(calls) == 13
    assert len({args[0] for args, _ in calls}) == 13


def _displacement_shape(args, kwargs):
    # the (dim, cols) that displacement(u0, dim, cols) builds
    dim = args[1]
    cols = kwargs.get("cols", args[2] if len(args) > 2 else None)
    return dim, dim if cols is None else cols


@pytest.mark.parametrize("check_id,shapes", [
    # column 0 of each of the five standard u0
    ("fock.coherent_column", [(128, 1)] * 5),
    # the 32 columns whose Gram is compared
    ("fock.unitarity", [(128, 32)] * 5),
    # 64 columns of D(u2) and of D(u1), and the 64 x 64 right side
    ("kernels.displacement_composition", [(128, 64), (128, 64), (64, 64)] * 3),
    # the 32 rows of D(u0) that the 32 x 32 block reads
    ("fock.operator_shift", [(128, 32)] * 5),
    # both sides at the 64 x 64 block they compare
    ("fock.displacement_vs_exp", [(64, 64)] * 5),
])
def test_displacement_checks_build_only_what_they_read(monkeypatch, cfg,
                                                       check_id, shapes):
    calls = _count_calls(monkeypatch, fock, "displacement")
    res, = verify.run_suite(cfg, only=[check_id])
    assert res.passed
    assert [_displacement_shape(*call) for call in calls] == shapes


def _lower_columns(args, kwargs):
    # the column count _exp_adag2_lower(half, dim, dtype, cols) builds
    cols = kwargs.get("cols", args[3] if len(args) > 3 else None)
    return args[1] if cols is None else cols


def test_squeeze_dual_order_builds_sixteen_columns(monkeypatch, cfg):
    calls = _count_calls(monkeypatch, fock, "_exp_adag2_lower")
    res, = verify.run_suite(cfg, only=["fock.squeeze_dual_order"])
    assert res.passed
    # two factors for each of the six squeezes
    assert len(calls) == 12
    assert max(_lower_columns(*call) for call in calls) == 16


def test_build_counts_repeat_across_runs(monkeypatch, cfg):
    # nothing built in one run is kept for the next
    only = ["wavefn.fock_synthesis", "fock.invariant_combination",
            "fock.displaced_coherence", "fock.squeeze_dual_order",
            "fock.unitarity", "fock.squeeze_truncation_decay",
            "kernels.matrix_element_vs_fock"]
    counted = [_count_calls(monkeypatch, wavefn, "hermite_functions"),
               _count_calls(monkeypatch, fock, "squeezed_annihilator"),
               _count_calls(monkeypatch, fock, "_exp_adag2_lower")]
    counts = []
    for _ in range(2):
        assert all(r.passed for r in verify.run_suite(cfg, only=only))
        counts.append([len(calls) for calls in counted])
        for calls in counted:
            calls.clear()
    # lower factors: 2 per squeeze of the dual order (6), of unitarity (2)
    # and of the decay check (2), and 2 per matrix element (4)
    assert counts[0] == counts[1] == [1, 26, 28]


def test_mu_weighted_identity_peak_memory():
    # 3 + 10 radii, one state batch for each outer rule: about 1.3 MB
    cfg = verify.VerifyConfig(mu_outer_order=4)
    verify.mu_weighted_identity(cfg)
    tracemalloc.start()
    try:
        verify.mu_weighted_identity(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20


def test_mu_weighted_identity_reports_worst_entry_and_nodes():
    cfg = verify.VerifyConfig(mu_outer_order=4)
    res = verify.mu_weighted_identity(cfg)
    m, n = ast.literal_eval(res.params["worst_at"])
    assert 0 <= m < cfg.dim_check and 0 <= n < cfg.dim_check
    # 3 + 10 radii of the 16 + 64 outer z, half of the 16 x 16 inner rule
    # each
    assert res.params["nodes"] == 13 * 128
    assert {"sigma", "outer_order", "quad_est_error"} <= set(res.params)


def test_unnormalized_vacuum_canary_is_flagged(cfg):
    res, = verify.run_suite(cfg, only=["canary.unnormalized_vacuum"])
    assert res.passed
    assert res.params["detected_difference"] > 0.3


def test_phase_anchor_reads_rounding(cfg):
    # a hand-sized 96-node rule read 1.96e-11 here: its own error
    res, = verify.run_suite(cfg, only=["wavefn.phase_anchor"])
    assert res.measured <= 1e-14


def _imported_names(path):
    """Every name an import statement anywhere in the module at path binds."""
    tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules |= {f"{base}.{alias.name}" for alias in node.names}
    return modules


def test_oracles_import_neither_kernels_nor_verify():
    # an oracle that reached kernels would share the closed form it checks
    modules = _imported_names(oracles.__file__)
    parts = {part for name in modules for part in name.split(".")}
    assert "fock" in parts and "wavefn" in parts, modules
    assert parts.isdisjoint({"kernels", "verify"}), modules


def test_no_module_imports_scipy():
    # numpy is the package's one dependency; scipy is a test reference
    paths = sorted(pathlib.Path(verify.__file__).parent.glob("*.py"))
    assert paths and "numpy" in _imported_names(fock.__file__)
    for path in paths:
        modules = _imported_names(path)
        assert not any(name.split(".")[0] == "scipy" for name in modules), \
            (path.name, modules)


def _cut_squeeze_generator(r, dim):
    z = r * cmath.exp(1j * math.pi / 3)
    a, adag = fock.ladder(dim)
    return 0.5 * (z * adag @ adag - np.conj(z) * a @ a)


_KP = np.array([[0, 1], [0, 0]], dtype=complex)
_E12, _E23 = np.diag([1.0, 0.0], 1), np.diag([0.0, 1.0], 1)


@pytest.mark.parametrize("m,tol", [
    (0.7 * _KP, 1e-15), (-0.6j * _KP.T, 1e-15), (0.4 * _E12, 1e-15),
    (0.4 * _E12 + 0.3 * _E23 + 0.06 * np.eye(3, k=2), 1e-15),
    (np.zeros((3, 3)), 0.0),
    (_cut_squeeze_generator(0.4, 96), 1e-13),
    (_cut_squeeze_generator(0.6, 96), 1e-13),
])
def test_taylor_expm_matches_scipy(m, tol):
    from scipy.linalg import expm

    assert np.max(np.abs(oracles._expm(m) - expm(m))) <= tol


def test_mu_weighted_identity_narrow_measure():
    # the double integral of mu_weighted_identity at sigma = 0.3
    dim = verify.VerifyConfig().dim_check
    spec = quadmod.QuadratureSpec(quadmod.QuadKind.TENSOR_GAUSS_HERMITE_2D, 8,
                                  scale=(0.3, 0.3), rel_tol=1e-2)
    report = quadmod.integrate_z(
        lambda zs: oracles._identity_sums(zs, dim, dim), spec, sigma=0.3,
        check=False)
    measured = float(np.max(np.abs(report.value - np.eye(dim))))
    assert measured <= 1e-4


def test_suite_with_physical_units():
    # nothing in the identities may silently assume hbar = ell0 = 1
    from srsqueeze.params import Constants

    ucfg = verify.VerifyConfig(constants=Constants(hbar=1.7, ell0=0.6))
    results = verify.run_suite(
        ucfg, only=["params.*", "wavefn.phase_anchor", "wavefn.three_forms",
                    "kernels.squeezed_special", "fock.heisenberg_commutator"])
    assert results and all(r.passed for r in results)


def test_no_registered_check_is_skipped(cfg):
    # every registered id matching the filter must yield a result, even when
    # the check body raises (exceptions become failures, never skips)
    patterns = ["params.*", "bch.*", "canary.*"]
    results = verify.run_suite(cfg, only=patterns)
    import fnmatch

    wanted = {cid for cid, _ in verify._REGISTRY
              if any(fnmatch.fnmatch(cid, p) for p in patterns)}
    got = {r.check_id for r in results}
    assert wanted <= got


def test_full_suite_reports_one_result_per_documented_bound(full_suite):
    # perfbench/checks.py holds a whole run to DEFAULT_BOUNDS and expects
    # exactly one result per key
    results = full_suite
    assert sorted(r.check_id for r in results) == sorted(verify.DEFAULT_BOUNDS)
    assert all(r.passed for r in results)


_REFERENCE = pathlib.Path(__file__).parent / "data" / "verify_reference.json"


def _rounding_platform():
    """What the last bits of a result depend on.

    numpy's version, the architecture, and the SIMD features that numpy
    and its BLAS choose their kernels by.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    features = sorted(k for k, on in __cpu_features__.items() if on)
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": " ".join(features)}


def _reference_report(results):
    """The header and one row per result that verify_reference.json holds."""
    return {
        "header": {
            "config": dataclasses.asdict(verify.VerifyConfig()),
            **_rounding_platform(),
            "python": platform.python_version(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "results": [{"id": r.check_id, "measured": float(r.measured).hex(),
                     "bound": r.bound, "passed": r.passed,
                     "worst_at": r.params.get("worst_at")} for r in results],
    }


def _reference_mismatches(reference, report, exact):
    """One line per result that moved from reference to report.

    exact compares every row to the bit; otherwise a row must keep its
    bound and verdict and stay within that bound.
    """
    before = {row["id"]: row for row in reference["results"]}
    after = {row["id"]: row for row in report["results"]}
    lines = [f"{rid}: only in the {'reference' if rid in before else 'report'}"
             for rid in sorted(before.keys() ^ after.keys())]
    for rid in sorted(before.keys() & after.keys()):
        old, new = before[rid], after[rid]
        measured = float.fromhex(new["measured"])
        same = old == new if exact else (
            old["bound"] == new["bound"] and old["passed"] == new["passed"]
            and measured <= new["bound"])
        if not same:
            ratio = (measured / new["bound"] if new["bound"]
                     else 0.0 if measured == 0 else math.inf)
            moved_at = ("" if old["worst_at"] == new["worst_at"] else
                        f", worst_at {old['worst_at']} -> {new['worst_at']}")
            lines.append(f"{rid}: {old['measured']} -> {new['measured']}, "
                         f"measured/bound {ratio:.3g}{moved_at}")
    return lines


def test_full_suite_matches_the_reference_report(full_suite):
    # "same numbers": a change that moves a check value updates
    # tests/data/verify_reference.json, which running this module as a
    # script rewrites.  The values are bit-identical at 1 and 2 BLAS
    # threads, but may round differently under another numpy, on another
    # architecture or with other SIMD kernels
    reference = json.loads(_REFERENCE.read_text(encoding="utf-8"))
    here = _rounding_platform()
    differ = [f"{key} {here[key]!r} is not the reference's "
              f"{reference['header'].get(key)!r}"
              for key in here if here[key] != reference["header"].get(key)]
    why = ("compared bit for bit" if not differ else
           "compared within each bound: " + "; ".join(differ))
    moved = _reference_mismatches(reference, _reference_report(full_suite),
                                  exact=not differ)
    assert not moved, "\n".join([f"results moved ({why}):", *moved])


def test_a_one_ulp_change_fails_the_reference_comparison(full_suite):
    # positive control: one ulp on any one result names that result
    report = _reference_report(full_suite)
    for k, row in enumerate(report["results"]):
        changed = copy.deepcopy(report)
        changed["results"][k]["measured"] = math.nextafter(
            float.fromhex(row["measured"]), math.inf).hex()
        moved = _reference_mismatches(report, changed, exact=True)
        assert [line.split(":")[0] for line in moved] == [row["id"]], moved


# results that evaluate one point, so have no worst point to report
_SINGLE_EVALUATION = {
    "canary.dropped_prefactor", "canary.g2_sign_flip",
    "canary.missing_center_phase", "canary.swapped_rho",
    "canary.thetabar_branch", "canary.unnormalized_vacuum",
    "fock.ladder_commutator", "fock.heisenberg_commutator",
    "kernels.compose_coherent", "kernels.compose_squeezed",
    "quadrature.determinism", "quadrature.plane_exactness",
    "quadrature.polynomial_exactness",
    "verify.nonsaturating_probe", "verify.srur_fock_one",
}


def test_every_grid_result_reports_its_worst_point(full_suite):
    # a grid check reduced by hand would drop a NaN and carry no worst_at
    assert _SINGLE_EVALUATION <= set(verify.DEFAULT_BOUNDS)
    missing = sorted(r.check_id for r in full_suite
                     if "worst_at" not in r.params)
    assert missing == sorted(_SINGLE_EVALUATION)


def test_declared_result_ids_are_the_documented_bounds():
    declared = [rid for cid, _ in verify._REGISTRY
                for rid in verify._RESULT_IDS[cid]]
    assert len(declared) == len(set(declared))
    assert set(declared) == set(verify.DEFAULT_BOUNDS)


def test_raising_check_fails_each_declared_result():
    # a result id selects its check; a check that raises fails every result
    # it would have reported
    bad = verify.VerifyConfig(scan_dim=-3)
    results = verify.run_suite(bad, only=["verify.moment_agreement"])
    assert [r.check_id for r in results] == sorted(
        verify._RESULT_IDS["verify.saturation_scan"])
    assert all(not r.passed and "error" in r.params for r in results)
    assert all(r.bound == bad.bound(r.check_id) > 0 for r in results)


def test_registry_ids_unique():
    ids = [cid for cid, _ in verify._REGISTRY]
    assert len(ids) == len(set(ids))


def test_standard_grid_shape():
    labs = verify.standard_labels()
    assert len(labs) == 5 * (1 + 3 * 4)
    # the overlap oracle triangle compares at least 40 pairs
    assert len(verify._PAIR_GRID) >= 40


if __name__ == "__main__":
    # rewrite the reference report from a fresh run of the whole suite
    _REFERENCE.parent.mkdir(exist_ok=True)
    _REFERENCE.write_text(
        json.dumps(_reference_report(verify.run_suite()), indent=1) + "\n",
        encoding="utf-8")
