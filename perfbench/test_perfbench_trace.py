"""The per-layer figures of a traced run are per op, whatever the run length.

Two traced runs of the same small verification pass, one with one traced
round and one with four, must report the same counts per op exactly and
times per op of the same size; a total over the run would be four times
larger in the longer one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench_trace.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

IDS = ["verify.mu_weighted_identity", "verify.resolution_identity",
       "fock.displacement_vs_exp"]
COUNTS = ("fock.state_batch.nodes", "fock.dense.mb_computed", "quadrature.nodes",
          "quadrature.used_node_share")
TIMES = ("trace.op_s", "fock.self_s", "verify.self_s", "fock.state_batch.self_s",
         "verify.check_s.verify.mu_weighted_identity")


def traced_metrics(min_rounds: int) -> dict:
    from srsqueeze import verify

    cfg = verify.VerifyConfig(fock_dim=24, scan_dim=24, dim_check=4, mu_outer_order=2)
    pairs = [(lambda: verify.run_suite(cfg, only=IDS),
              lambda results: [[r.check_id, r.measured, r.bound, r.passed]
                               for r in results])]
    tracer = tracing.Tracer()
    res = worker.run_loop(pairs, 0.0, tracer, min_rounds)
    assert res["rounds"] == min_rounds
    res["trace"] = tracer.summary()
    return run.layer_metrics("suite-rest", {"ops": [{}]}, res)


@pytest.fixture(scope="module")
def short_and_long():
    return traced_metrics(2), traced_metrics(8)


def test_counts_per_op_do_not_grow_with_run_length(short_and_long):
    short, long_ = short_and_long
    for name in COUNTS:
        assert short[name][0] > 0, name
        assert long_[name][0] == short[name][0], name


def test_times_per_op_do_not_grow_with_run_length(short_and_long):
    short, long_ = short_and_long
    for name in TIMES:
        ratio = long_[name][0] / short[name][0]
        assert 0.4 < ratio < 2.5, (name, ratio)


def test_layer_self_times_account_for_the_op(short_and_long):
    for m in short_and_long:
        layers = sum(m[f"{layer}.self_s"][0] for layer in tracing.LAYERS)
        assert m["trace.unattributed_s"][0] >= 0
        assert layers + m["trace.unattributed_s"][0] == pytest.approx(m["trace.op_s"][0])
