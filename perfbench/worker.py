"""One benchmark process: set up, signal READY, then run the closed loop.

    python3 perfbench/worker.py --workload W --job JOB.json [--setup-only] [--trace]
    python3 perfbench/worker.py --env

Set-up is the package imports plus a warm-up call that pays the first-use
costs of the workload's operations; the parent times it from spawn to the
READY line.  The job file (written by run.py) holds the round of inputs,
the run length and where to write the result.  Only set-up comes before
READY: the job is read afterwards, so input handling is not set-up time.

The loop issues one operation at a time and runs whole rounds until the
run length has passed.  On cli-oneshot an operation is one `srsqueeze` CLI
process, so this process's children are those calls and nothing else.
The outputs of the first round go to the parent for checking; every later
round must reproduce them exactly, and each operation that does not is
reported.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 170


def setup(workload: str):
    """Import what the workload uses and pay its first-use costs."""
    if workload == "cli-oneshot":
        return  # each op starts cold; run.py times a cold call as set-up
    if workload in ("overcomplete", "suite-rest"):
        from srsqueeze import verify
        if workload == "overcomplete":
            # a tiny overcompleteness integral: same code path, few nodes
            verify.mu_weighted_identity(verify.VerifyConfig(
                fock_dim=16, dim_check=2, mu_outer_order=2))
        else:
            # the lazy scipy.signal import inside kernels.PolySymbol
            verify.run_suite(only=["kernels.variable_change"])
        return
    from srsqueeze import bch, kernels, params, wavefn
    lab = params.Labels(u0=0.5 + 0.5j, r=0.5, theta=1.0)
    m = params.labels_to_moments(lab)
    params.moments_to_labels(m)
    params.derived_angles(lab, m)
    bch.disentangle_squeeze(lab.z)
    kernels.squeezed_overlap(lab.z, lab.u0, 0.3, 0.1j)
    kernels.overlap_values(lab.z, [0.1, 0.2], 0.3, [0.0, 1j])
    wavefn.psi([0.0, 0.5], wavefn.WavefnParams.from_labels(lab))


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _pairs(values) -> list:
    return [[v.real, v.imag] for v in values]


def api_ops(ops):
    """(callable, extractor) for each api-mix request; inputs built untimed."""
    import numpy as np
    from srsqueeze import bch, kernels, params, wavefn

    out = []
    for op in ops:
        kind = op["kind"]
        if kind == "moments":
            lab = params.Labels(u0=_c(op["u0"]), r=op["r"], theta=op["theta"])

            def fn(lab=lab):
                m = params.labels_to_moments(lab)
                return m, params.derived_angles(lab, m), params.moments_to_labels(m)

            def ex(res):
                m, a, back = res
                return [m.q0, m.p0, m.dq, m.dp, m.corr, a.phi, a.rho_plus,
                        a.rho_minus, a.theta_plus, a.theta_minus,
                        a.thetabar_plus, a.thetabar_minus, back.u0.real,
                        back.u0.imag, back.r, back.theta]
        elif kind == "large-moments":
            lab = params.Labels(u0=_c(op["u0"]), r=op["r"], theta=op["theta"])

            def fn(lab=lab):
                m = params.labels_to_moments(lab)
                return m, params.moments_to_labels(m)

            def ex(res):
                m, back = res
                return [m.q0, m.p0, m.dq, m.dp, m.corr, back.u0.real,
                        back.u0.imag, back.r, back.theta]
        elif kind == "large-overlap":
            def fn(z=complex(cmath.rect(op["r"], op["theta"])), u=_c(op["u0"])):
                return kernels.squeezed_overlap(z, u, z, u)

            def ex(k):
                return [k.value.real, k.value.imag]
        elif kind == "labels":
            m = params.Moments(*op["moments"])

            def fn(m=m):
                return params.moments_to_labels(m)

            def ex(lab):
                return [lab.u0.real, lab.u0.imag, lab.r, lab.theta]
        elif kind == "bch":
            def fn(z=_c(op["z"])):
                return bch.disentangle_squeeze(z)

            def ex(d):
                return [d.alpha.real, d.alpha.imag, d.gamma]
        elif kind == "overlap":
            def fn(a=(_c(op["z2"]), _c(op["u2"]), _c(op["z1"]), _c(op["u1"]))):
                return kernels.squeezed_overlap(*a)

            def ex(k):
                return [k.value.real, k.value.imag]
        elif kind == "overlap_values":
            u2 = np.array([complex(*p) for p in op["u2"]])
            u1 = np.array([complex(*p) for p in op["u1"]])

            def fn(z2=_c(op["z2"]), z1=_c(op["z1"]), u2=u2, u1=u1):
                return kernels.overlap_values(z2, u2, z1, u1)

            def ex(vals, idx=op["sample"]):
                return _pairs(complex(vals[i]) for i in idx)
        elif kind == "psi":
            lab = params.Labels(u0=_c(op["u0"]), r=op["r"], theta=op["theta"])
            q = np.array(op["q"])

            def fn(lab=lab, q=q):
                return wavefn.psi(q, wavefn.WavefnParams.from_labels(lab))

            def ex(vals, idx=op["sample"]):
                return _pairs(complex(vals[i]) for i in idx)
        else:
            raise ValueError(f"unknown api-mix request {kind!r}")
        out.append((fn, ex))
    return out


def suite_ops(workload, ops):
    from srsqueeze import verify

    def ex(results):
        return [[r.check_id, r.measured, r.bound, r.passed] for r in results]

    if workload == "overcomplete":
        cfg = verify.VerifyConfig(mu_outer_order=ops[0]["mu_outer_order"])
        return [(lambda: [verify.mu_weighted_identity(cfg)], ex)]
    only = ops[0]["only"]
    return [(lambda: verify.run_suite(verify.VerifyConfig(), only=only), ex)]


class CliProbes:
    """The tracer of cli-oneshot, with the interface of tracing.Tracer.

    While installed, each CLI call runs through cli_probe.py, which times
    the import and main() inside the child and traces the call there.
    """

    recording = False

    def __init__(self, stem: str):
        self.stem = stem
        self.active = False
        self.paths = []

    def install(self):
        self.active = True

    def uninstall(self):
        self.active = False

    def begin_op(self, op_id: int):
        pass

    def end_op(self):
        pass

    def command(self, argv) -> list:
        if not self.active:
            return [sys.executable, "-m", "srsqueeze.cli", *argv]
        path = f"{self.stem}.probe{len(self.paths)}.json"
        self.paths.append(path)
        return [sys.executable, os.path.join(HERE, "cli_probe.py"), path, *argv]

    def summary(self) -> list:
        probes = []
        for path in self.paths:
            with open(path, encoding="utf-8") as fh:
                probes.append(json.load(fh))
            os.remove(path)
        return probes


def cli_ops(ops, probes: CliProbes):
    """One sequential `srsqueeze` process per request; output is exit code and text."""
    def call(argv):
        proc = subprocess.run(probes.command(argv), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        return {"rc": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    return [(functools.partial(call, op["argv"]), lambda out: out) for op in ops]


class RoundSample:
    """Per-op latencies of at most ``cap`` rounds, spread evenly over the run.

    Every ``stride``-th round is kept; when the buffer fills, every other
    kept round is dropped and the stride doubles.  The buffer is allocated
    and touched before the loop, so the benchmark's own memory is the same
    whatever the run length and peak RSS follows the program.
    """

    def __init__(self, round_len: int, cap: int = 512):
        import numpy as np

        self.rows = np.empty((cap, round_len), dtype=np.int64)
        self.index = np.empty(cap, dtype=np.int64)
        self.rows.fill(0)
        self.index.fill(0)
        self.kept = 0
        self.stride = 1

    def wants(self, rnd: int) -> bool:
        return rnd % self.stride == 0

    def add(self, rnd: int, row):
        if self.kept == len(self.index):
            half = self.kept // 2
            self.rows[:half] = self.rows[0:self.kept:2]
            self.index[:half] = self.index[0:self.kept:2]
            self.kept, self.stride = half, 2 * self.stride
            if not self.wants(rnd):
                return
        self.rows[self.kept] = row
        self.index[self.kept] = rnd
        self.kept += 1


def run_loop(pairs, seconds, tracer=None, min_rounds=1):
    """Closed loop over whole rounds; returns latencies and first-round outputs.

    With a tracer, odd rounds run traced and even rounds untraced, so that
    the tracing overhead is measured on interleaved rounds and a change in
    machine speed does not enter it.
    """
    sample = RoundSample(len(pairs))
    row = [0] * len(pairs)
    parity_ns, parity_rounds = [0, 0], [0, 0]
    first, mismatch = [], []
    now = time.perf_counter_ns
    rounds = 0
    if tracer is not None:
        min_rounds = max(min_rounds, 2)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
            tracer.recording = rounds < 4  # raw spans of the first two traced rounds
        for i, (fn, ex) in enumerate(pairs):
            if traced:
                tracer.begin_op(rounds * len(pairs) + i)
            t0 = now()
            try:
                res, err = fn(), None
            except Exception as exc:  # noqa: BLE001 - a failed op is a result
                res, err = None, f"{type(exc).__name__}: {exc}"
            t1 = now()
            if traced:
                tracer.end_op()
            row[i] = t1 - t0
            out = {"error": err} if err else ex(res)
            if rounds == 0:
                first.append(out)
            elif out != first[i]:
                mismatch.append([rounds, i])
        if traced:
            tracer.uninstall()
        parity_ns[rounds % 2] += sum(row)
        parity_rounds[rounds % 2] += 1
        if sample.wants(rounds):
            sample.add(rounds, row)
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= min_rounds:
            break
    return {"sample_ns": sample.rows[:sample.kept],
            "sample_rounds": sample.index[:sample.kept],
            "parity_ns": parity_ns, "parity_rounds": parity_rounds,
            "rounds": rounds, "round_len": len(pairs),
            "elapsed_s": time.perf_counter() - start, "outputs": first,
            "mismatch": mismatch}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--job")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()
    if args.env:
        print(json.dumps(environment()))
        return 0
    setup(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    with open(args.job, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if args.workload == "cli-oneshot":
        probes = CliProbes(job["out"])
        pairs = cli_ops(job["inputs"]["ops"], probes)
        tracer = probes if args.trace else None
    elif args.workload == "api-mix":
        pairs = api_ops(job["inputs"]["ops"])
    else:
        pairs = suite_ops(args.workload, job["inputs"]["ops"])
    if args.trace and tracer is None:
        import tracing
        tracer = tracing.Tracer()
    result = run_loop(pairs, job["seconds"], tracer)
    # read before the result is converted for output, which takes memory
    # that grows with the rounds kept; the CLI calls are the only children
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    result["sample_ns"] = result["sample_ns"].tolist()
    result["sample_rounds"] = result["sample_rounds"].tolist()
    if tracer is not None:
        result["trace"] = tracer.summary()
        if not isinstance(tracer, CliProbes):
            tracer.write_raw(job["out"] + ".spans.jsonl")
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
