import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

from srsqueeze import fock, verify
from srsqueeze.params import Constants, Labels


@pytest.fixture(scope="module")
def cfg():
    return verify.VerifyConfig()


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


def test_truncation_sensitivity_of_scan():
    # shrinking the Fock space inflates the truncation-limited residuals
    small = verify.VerifyConfig(scan_dim=48)
    big = verify.VerifyConfig(scan_dim=256)
    res_small = {r.check_id: r for r in verify.saturation_scan(small)}
    res_big = {r.check_id: r for r in verify.saturation_scan(big)}
    key = "verify.defining_residual"
    assert res_small[key].measured > res_big[key].measured
    assert not res_small[key].passed
    assert res_big[key].passed


def test_synthesis_budget_counts_mass_past_truncation():
    # 1 - |psi|^2 of the truncated state cancels to ~0 here, which made the
    # budget 1e-11 against a 2.5e-11 synthesis defect (ratio 2.48)
    lab = Labels(u0=2j, r=0.7, theta=math.pi)
    qs = np.linspace(-6.0, 6.0, 129)
    amps = fock.saturating_state(lab, 256, tail_bound=math.inf).amps
    assert verify.synthesis_ratio(lab, Constants(), amps, qs) <= 1.0


def test_bound_overrides():
    cfg = verify.VerifyConfig(bounds={"params.roundtrip": 1e-30})
    results = verify.run_suite(cfg, only=["params.roundtrip"])
    assert not results[0].passed


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
    # each projector sum is one (psi * w) @ psi^dagger product, so the peak
    # is a few (levels x nodes) amplitude batches, about 9 MB here
    z = 0.8 * cmath.exp(1j * math.pi / 3)
    tracemalloc.start()
    try:
        verify.resolution_of_identity(z, 16, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_mu_weighted_identity_narrow_measure():
    cfg = verify.VerifyConfig(mu_sigma=0.3, mu_outer_order=8)
    res = verify.mu_weighted_identity(cfg)
    assert res.measured <= 1e-4
    assert res.params["sigma"] == 0.3


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


def test_registry_ids_unique():
    ids = [cid for cid, _ in verify._REGISTRY]
    assert len(ids) == len(set(ids))


def test_standard_grid_shape():
    labs = verify.standard_labels()
    assert len(labs) == 5 * (1 + 3 * 4)
    assert len(verify.standard_labels(rmax=0.5)) < len(labs)
    assert all(abs(l.u0) <= 1.5 for l in verify.standard_labels(umax=1.5))
