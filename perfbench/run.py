"""Benchmark of srsqueeze: four closed-loop workloads over its API and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With --trace 0 it prints the
end-to-end metrics (set-up time, median op latency, throughput, peak
memory); with --trace 1 it alternates untraced and traced rounds and prints
the per-layer metrics.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the full record,
with the environment, goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 7      # set-ups timed per run, spread before and after the loop
P90_MIN_OPS = 100      # a 90th percentile needs ten samples beyond it
TIMEOUT_S = 170
CHECKED_IDS = ("verify.mu_weighted_identity", "fock.squeeze_factored_vs_exp",
               "verify.saturation_scan", "verify.resolution_identity",
               "kernels.oracle_triangle", "wavefn.fock_synthesis",
               "fock.displaced_coherence", "fock.squeeze_dual_order",
               "kernels.diagonal_kernel_reconstruction",
               "kernels.variable_change")
FOCK_DENSE_TIMED = ("displacement", "displacement_exp", "squeeze_exp",
                    "squeeze_factored", "saturating_state")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _wait(proc: subprocess.Popen, what: str):
    try:
        proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{what} did not finish within {TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}")


# ---------------------------------------------------------------- running


def spawn_worker(workload: str, job_path: str, env: dict, setup_only=False,
                 trace=False) -> float:
    """Start a worker, return seconds from spawn to READY, wait for its end."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--job", job_path]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        _wait(proc, f"worker for {workload}")
    if line.strip() != "READY":
        raise BenchError(f"worker for {workload} did not report READY")
    return ready


def cold_call(argv, env) -> float:
    """Seconds for one `srsqueeze` CLI process: the set-up of cli-oneshot."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "srsqueeze.cli", *argv], env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"srsqueeze {argv[0]} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"srsqueeze {argv[0]} exited with {proc.returncode}")
    return time.perf_counter() - t0


def run_worker(workload, job, env, trace=False):
    """Set-up samples around one measuring worker; returns (set-up times, result).

    Without tracing, SETUP_SAMPLES set-ups are timed, half before the
    measuring worker and the rest after it, so that they spread over the
    run; the measuring worker's own set-up is one of them, except on
    cli-oneshot, whose set-up is a cold CLI call.
    """
    with open(job["path"], "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    if workload == "cli-oneshot":
        def sample():
            return cold_call(job["inputs"]["ops"][0]["argv"], env)
    else:
        def sample():
            return spawn_worker(workload, job["path"], env, setup_only=True)
    n = 0 if trace else SETUP_SAMPLES
    times = [sample() for _ in range(n // 2)]
    ready = spawn_worker(workload, job["path"], env, trace=trace)
    if n and workload != "cli-oneshot":
        times.append(ready)
    times += [sample() for _ in range(n - len(times))]
    with open(job["out"], encoding="utf-8") as fh:
        return times, json.load(fh)


# ---------------------------------------------------------------- metrics


def tally(workload: str, inp: dict, res: dict) -> dict:
    """attempted/failed/correct from the checked first round and later rounds."""
    verdicts = checks.check(workload, inp, res["outputs"])
    n, rounds = res["round_len"], res["rounds"]
    bad = {i for i, v in enumerate(verdicts) if v is not None}
    drifted = {tuple(m) for m in res["mismatch"] if m[1] not in bad}
    unexpected = bad - set(inp["known_fault"])
    return {"attempted": rounds * n, "failed": rounds * len(bad) + len(drifted),
            "correct": not unexpected and not drifted,
            "reasons": {str(i): verdicts[i] for i in sorted(bad)},
            "drifted": sorted(drifted), "ok_ops": [i for i in range(n) if i not in bad]}


def op_latencies(res: dict, tl: dict) -> list:
    """For each op of a round that succeeded, its latencies (s) in the sampled rounds."""
    drifted = set(map(tuple, tl["drifted"]))
    cols = []
    for i in tl["ok_ops"]:
        cols.append([row[i] / 1e9 for rnd, row in zip(res["sample_rounds"], res["sample_ns"])
                     if (rnd, i) not in drifted])
    return cols


def e2e_metrics(setup_times, res, tl) -> tuple[dict, dict]:
    """The JSON-line metrics, and op_s.p90 where a run has enough ops."""
    lat = sorted(t for col in op_latencies(res, tl) for t in col)
    if not lat:
        raise BenchError("no operation succeeded")
    ok_ops = res["rounds"] * len(tl["ok_ops"]) - len(tl["drifted"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s.p50": (statistics.median(lat), "s"),
        "ops_per_s": (ok_ops / res["elapsed_s"], "1/s"),
        "peak_rss_mb": (res["peak_rss_kb"] / 1024.0, "MB"),
    }
    extra = {}
    if len(lat) >= P90_MIN_OPS:
        extra["op_s.p90"] = (statistics.quantiles(lat, n=10)[-1], "s")
    return metrics, extra


def _stat(summary, name, field):
    st = summary["stats"].get(name)
    return st[field] / 1e9 if st else 0.0


def _layer_self(summary, layer) -> float:
    return sum(v[2] for k, v in summary["stats"].items()
               if k.split(".", 1)[0] == layer) / 1e9


def layer_metrics(workload, inp, res) -> dict:
    """Per-layer metrics of the traced (odd) rounds, each per traced op.

    Every time, count and byte total is divided by the number of traced ops,
    so the figures do not grow with the number of rounds that fit in a run.
    The tracing overhead compares the traced and untraced rounds.
    """
    if workload == "cli-oneshot":
        probes = res["trace"]
        summary = tracing.merge(p["trace"] for p in probes)
        import_total = sum(p["import_s"] for p in probes)
    else:
        probes = []
        summary = res["trace"]
        import_total = 0.0
    untraced_ns, traced_ns = res["parity_ns"]
    untraced_rounds, traced_rounds = res["parity_rounds"]
    ops = traced_rounds * res["round_len"]
    layer_s = {layer: _layer_self(summary, layer) / ops for layer in tracing.LAYERS}
    counts = {k: v / ops for k, v in summary["counts"].items()}
    op_s = traced_ns / 1e9 / ops

    def per(total, count, scale):
        return total / count * scale if count else 0.0

    m = {
        "trace.op_s": (op_s, "s"),
        "trace.unattributed_s": (op_s - sum(layer_s.values()) - import_total / ops, "s"),
        "trace.overhead_share": (per(traced_ns, traced_rounds, 1)
                                 / per(untraced_ns, untraced_rounds, 1) - 1.0, "ratio"),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (layer_s[layer], "s")
    nodes = counts["fock.state_batch.nodes"]
    batch_s = _stat(summary, "fock.saturating_state_batch", 2) / ops
    m["fock.state_batch.self_s"] = (batch_s, "s")
    m["fock.state_batch.nodes"] = (nodes, "count")
    m["fock.state_batch.ns_per_node"] = (per(batch_s, nodes, 1e9), "ns")
    m["fock.dense.self_s"] = (sum(_stat(summary, f"fock.{n}", 2)
                                  for n in tracing.DENSE) / ops, "s")
    m["fock.dense.mb_computed"] = (counts["fock.dense.bytes"] / 1e6, "MB")
    for name in FOCK_DENSE_TIMED:
        m[f"fock.{name}.s"] = (_stat(summary, f"fock.{name}", 1) / ops, "s")
    m["quadrature.nodes"] = (counts["quadrature.nodes"], "count")
    m["quadrature.used_node_share"] = (
        per(counts["quadrature.used_nodes"], counts["quadrature.nodes"], 1), "ratio")
    for cid in CHECKED_IDS:
        # a registered check, or the public function of that name called directly
        m[f"verify.check_s.{cid}"] = ((_stat(summary, f"verify.check.{cid}", 1)
                                       or _stat(summary, cid, 1)) / ops, "s")
    m["verify.worst_margin"] = (worst_margin(workload, inp, res["outputs"]), "ratio")
    st = summary["stats"].get("kernels.squeezed_overlap")
    m["kernels.squeezed_overlap.ns_per_call"] = (
        per(st[1], st[0], 1) if st else 0.0, "ns")
    m["kernels.overlap_values.ns_per_point"] = (
        per(_stat(summary, "kernels.overlap_values", 1) / ops,
            counts["kernels.overlap_values.points"], 1e9), "ns")
    m["wavefn.psi.ns_per_point"] = (
        per(_stat(summary, "wavefn.psi", 1) / ops, counts["wavefn.psi.points"], 1e9), "ns")
    for layer in ("params", "bch"):
        calls, incl = summary["top"].get(layer, (0, 0))
        m[f"{layer}.us_per_call"] = (per(incl / 1e9, calls, 1e6), "us")

    def med(key):
        return statistics.median(p[key] for p in probes) if probes else 0.0
    m["cli.import_s"] = (med("import_s"), "s")
    m["cli.main_s"] = (med("main_s"), "s")
    m["cli.modules_loaded"] = (med("modules_loaded"), "count")
    return m


def worst_margin(workload, inp, outputs) -> float:
    if workload in ("overcomplete", "suite-rest"):
        return checks.worst_margin(outputs[0]) if isinstance(outputs[0], list) else 0.0
    if workload == "cli-oneshot":
        rows = []
        for op, out in zip(inp["ops"], outputs):
            if op["kind"] == "verify":
                rows += checks.verify_table(out["stdout"])
            elif op["kind"] == "resolve-identity" and out["rc"] == 0:
                row = json.loads(out["stdout"])
                rows.append([op["kind"], row["measured"], row["bound"], row["passed"]])
        return checks.worst_margin(rows)
    return 0.0


def bare_interpreter_s(env, samples=5) -> float:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=TIMEOUT_S)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------------- main


def environment(env, seed) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--env"],
                         env=env, capture_output=True, text=True, check=True,
                         timeout=TIMEOUT_S)
    info = json.loads(out.stdout)
    info["git_sha"] = None
    if os.path.isdir(".git"):  # a plain source checkout has none
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
        if sha.returncode == 0:
            info["git_sha"] = sha.stdout.strip()
    info["seed"] = seed
    return info


def run_one(workload, seed, seconds, trace, env, out_dir) -> dict:
    inp = inputs.make(workload, seed)
    stem = os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}")
    job = {"inputs": inp, "seconds": seconds, "path": stem + ".job.json",
           "out": stem + ".worker.json"}
    setup_times, res = run_worker(workload, job, env, trace=trace)
    tl = tally(workload, inp, res)
    if not trace:
        metrics, extra = e2e_metrics(setup_times, res, tl)
    else:
        metrics = layer_metrics(workload, inp, res)
        metrics["cli.interp_s"] = (bare_interpreter_s(env), "s")
        extra = {}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "environment": environment(env, seed),
              "correct": tl["correct"], "attempted": tl["attempted"],
              "failed": tl["failed"], "failure_reasons": tl["reasons"],
              "drifted_ops": tl["drifted"], "rounds": res["rounds"],
              "setup_samples_s": setup_times,
              "sampled_rounds": res["sample_rounds"][:64],
              "sampled_op_latency_s": [[t / 1e9 for t in row]
                                       for row in res["sample_ns"][:64]],
              "round_len": res["round_len"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}}
    with open(stem + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for path in (job["path"], job["out"]):
        if os.path.exists(path):
            os.remove(path)
    return record


def report(record) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{record['rounds']} rounds x {record['round_len']} ops  "
          f"trace {record['trace']}")
    for name, m in {**record["metrics"], **record["extra"]}.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {record['attempted']}  failed {record['failed']}  "
          f"correct {record['correct']}")
    for pos, why in record["failure_reasons"].items():
        print(f"    op {pos}: {why[:160]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*inputs.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for the result records")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "srsqueeze", "__init__.py")):
        print("error: run from the root of a srsqueeze checkout "
              "(src/srsqueeze not found)", file=sys.stderr)
        return 2
    env = child_env()
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   env=env, check=True, timeout=TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_one(w, args.seed, args.seconds, bool(args.trace), env, out_dir)
                   for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        r = records[0]
        metrics = r["metrics"]
    else:
        r = {"correct": all(x["correct"] for x in records),
             "attempted": sum(x["attempted"] for x in records),
             "failed": sum(x["failed"] for x in records)}
        metrics = {f"{x['workload']}/{k}": v for x in records
                   for k, v in x["metrics"].items()}
    print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
