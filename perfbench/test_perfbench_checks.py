"""Each output check accepts exact values and rejects a corrupted output.

Exact outputs are built from the mpmath references, rounded to binary64;
each test then corrupts one output the way a real fault would (a flipped
phase, a moment off by 1e-8 relative, a bound exceeded) and expects that
operation, and only it, to be rejected.

    python3 -m pytest -q perfbench/test_perfbench_checks.py
"""

import cmath
import copy
import json
import os
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402

ROOT = os.path.dirname(HERE)
BOUNDS = checks.documented_bounds(ROOT)


def _f(x) -> float:
    return float(mp.re(x))


def _pair(x) -> list:
    return [float(mp.re(x)), float(mp.im(x))]


def exact_api_output(op: dict):
    kind = op["kind"]
    if kind in ("moments", "large-moments"):
        u0 = complex(*op["u0"])
        m = ref.moments(u0, op["r"], op["theta"])
        mom = [_f(m[k]) for k in checks.MOMENTS]
        back = ref.labels_from_moments(*mom)
        labels = [_f(back[k]) for k in checks.LABELS]
        if kind == "moments":
            a = ref.angles(u0, op["r"], op["theta"])
            return mom + [_f(a[k]) for k in checks.ANGLES] + labels
        return mom + labels
    if kind == "large-overlap":
        z, u0 = cmath.rect(op["r"], op["theta"]), complex(*op["u0"])
        return _pair(ref.overlap(z, u0, z, u0))
    if kind == "labels":
        back = ref.labels_from_moments(*op["moments"])
        return [_f(back[k]) for k in checks.LABELS]
    if kind == "bch":
        d = ref.disentangle(complex(*op["z"]))
        return _pair(d["alpha"]) + [_f(d["gamma"])]
    if kind == "overlap":
        return _pair(ref.overlap(*(complex(*op[k]) for k in ("z2", "u2", "z1", "u1"))))
    if kind == "overlap_values":
        z2, z1 = complex(*op["z2"]), complex(*op["z1"])
        return [_pair(ref.overlap(z2, complex(*op["u2"][i]), z1, complex(*op["u1"][i])))
                for i in op["sample"]]
    if kind == "psi":
        return [_pair(ref.psi(op["q"][i], complex(*op["u0"]), op["r"], op["theta"]))
                for i in op["sample"]]
    raise ValueError(kind)


@pytest.fixture(scope="module")
def api():
    inp = inputs.make("api-mix", 3)
    small = [op for op in inp["ops"] if op["kind"] not in ("overlap_values", "psi")
             or len(op["q" if op["kind"] == "psi" else "u2"]) <= 100]
    inp = {"ops": small, "known_fault": []}
    for i, op in enumerate(small):  # renumber the symmetric pairs
        if "swap_of" in op:
            op["swap_of"] = i - 6
    return inp, [exact_api_output(op) for op in small]


def _first(inp, kind):
    return next(i for i, op in enumerate(inp["ops"]) if op["kind"] == kind)


def _rejected(inp, outputs) -> list:
    return [i for i, v in enumerate(checks.check_api_mix(inp, outputs)) if v]


def test_api_exact_outputs_pass(api):
    inp, outputs = api
    assert _rejected(inp, outputs) == []


@pytest.mark.parametrize("kind,corrupt", [
    ("moments", lambda o: o[:3] + [o[3] * (1 + 1e-8)] + o[4:]),       # dp
    ("moments", lambda o: o[:7] + [o[7] + 1e-8] + o[8:]),             # rho_minus
    ("moments", lambda o: o[:10] + [-o[10]] + o[11:]),                # thetabar_plus sign
    ("moments", lambda o: o[:14] + [o[14] * (1 + 1e-8)] + o[15:]),    # round-trip r
    ("labels", lambda o: o[:2] + [o[2] * (1 + 1e-8)] + o[3:]),
    ("bch", lambda o: [o[0], -o[1], o[2]]),                           # alpha conjugated
    ("bch", lambda o: o[:2] + [o[2] * (1 + 1e-8)]),
    ("overlap", lambda o: [o[0], -o[1]]),                             # phase flipped
    ("overlap_values", lambda o: [o[0][:1] + [-o[0][1]]] + o[1:]),
    ("psi", lambda o: o[:-1] + [[o[-1][0] * (1 + 1e-8), o[-1][1]]]),
    ("large-moments", lambda o: {"error": "ValueError: dp must be positive, got 0.0"}),
    ("large-moments", lambda o: o[:3] + [o[3] * (1 + 1e-10)] + o[4:]),
    ("large-overlap", lambda o: [1.022, 0.0]),                        # |K(a, a)| > 1
])
def test_api_corruption_rejected(api, kind, corrupt):
    inp, outputs = api
    i = _first(inp, kind)
    one = {"ops": [inp["ops"][i]], "known_fault": []}
    assert _rejected(one, [outputs[i]]) == []
    assert _rejected(one, [corrupt(copy.deepcopy(outputs[i]))]) == [0]


def test_api_hermitian_symmetry(api):
    """A swapped pair whose values are each within band but not conjugate."""
    inp, outputs = api
    j = next(i for i, op in enumerate(inp["ops"]) if "swap_of" in op)
    i = inp["ops"][j]["swap_of"]
    pair = {"ops": [inp["ops"][i], {**inp["ops"][j], "swap_of": 0}]}
    args = [complex(*inp["ops"][i][k]) for k in ("z2", "u2", "z1", "u1")]
    tol = checks._overlap_tol(*args, ref.overlap(*args))
    bad = [[outputs[i][0] + 0.6 * tol, outputs[i][1]],
           [outputs[j][0] - 0.6 * tol, outputs[j][1]]]
    verdicts = checks.check_api_mix(pair, bad)
    assert verdicts[0] is None
    assert "Hermitian" in (verdicts[1] or "")


def _suite_rows(ids):
    return [[cid, 0.5 * checks.DOCSTRING_BOUNDS.get(cid, BOUNDS[cid]),
             checks.DOCSTRING_BOUNDS.get(cid, BOUNDS[cid]), True] for cid in sorted(ids)]


@pytest.mark.parametrize("workload", ["overcomplete", "suite-rest"])
def test_suite_checks(workload):
    mu = "verify.mu_weighted_identity"
    ids = {mu} if workload == "overcomplete" else set(BOUNDS) - {mu}
    rows = _suite_rows(ids)
    assert checks.check_suite(workload, [rows], BOUNDS) == [None]
    over = copy.deepcopy(rows)
    over[0][1] = 2 * over[0][2]                       # measured above its bound
    loose = copy.deepcopy(rows)
    loose[0][2] *= 10                                 # bound loosened
    failing = copy.deepcopy(rows)
    failing[0][3] = False
    for bad in (over, loose, failing, rows[1:] if len(rows) > 1 else []):
        assert checks.check_suite(workload, [bad], BOUNDS)[0] is not None
    assert checks.check_suite(workload, [{"error": "boom"}], BOUNDS)[0] == "boom"


def _ok(payload) -> dict:
    text = payload if isinstance(payload, str) else json.dumps(payload)
    return {"rc": 0, "stdout": text, "stderr": ""}


def exact_cli_output(op: dict) -> dict:
    kind = op["kind"]
    if kind == "moments":
        u0, z = complex(*op["u0"]), mp.mpc(*op["z"])
        vals = {**ref.moments(u0, abs(z), mp.arg(z)), **ref.angles(u0, abs(z), mp.arg(z))}
        row = {k: _f(vals[k]) for k in checks.MOMENTS}
        row.update(phi=_f(vals["phi"]), theta_bar_plus=_f(vals["thetabar_plus"]),
                   theta_bar_minus=_f(vals["thetabar_minus"]))
        return _ok(row)
    if kind == "from-moments":
        lab = ref.labels_from_moments(*op["moments"])
        return _ok({k: _f(lab[k]) for k in checks.LABELS})
    if kind == "overlap":
        k = complex(*_pair(ref.overlap(*(complex(*op[x]) for x in ("z2", "u2", "z1", "u1")))))
        return _ok({"value_re": k.real, "value_im": k.imag, "modulus": abs(k),
                    "phase": cmath.phase(k), "oracle_re": k.real, "oracle_im": k.imag,
                    "abs_diff": 0.0})
    if kind == "wavefn":
        argv = dict(a.split("=", 1) for a in op["argv"][1:])
        lo, hi = float(argv["--qmin"]), float(argv["--qmax"])
        z = mp.mpc(*op["z"])
        lines = ["# header", "# header", "q,re_psi,im_psi,abs2"]
        for j in range(65):
            q = lo + (hi - lo) * j / 64
            v = complex(*_pair(ref.psi(q, complex(*op["u0"]), abs(z), mp.arg(z))))
            lines.append(f"{q!r},{v.real!r},{v.imag!r},{abs(v) ** 2!r}")
        return _ok("\n".join(lines) + "\n")
    if kind == "kernel":
        sym = ref.q2_symbol(complex(*op["z"]))
        return _ok([{"power_w": j, "power_wbar": k, "coeff_re": _f(v),
                     "coeff_im": float(mp.im(v))} for (j, k), v in sorted(sym.items())])
    if kind == "resolve-identity":
        return _ok({"measured": 1e-12, "bound": BOUNDS["verify.resolution_identity"],
                    "passed": True, "quad_est_error": 1e-13, "dim_check": 16})
    if kind == "verify":
        ids = sorted(k for k in BOUNDS if k.startswith("params."))
        lines = ["check measured bound status"]
        lines += [f"{cid:44s} {1e-15:12.3e} {BOUNDS[cid]:10.1e} {'PASS':>7s}" for cid in ids]
        lines.append(f"{len(ids)}/{len(ids)} checks passed")
        return _ok("\n".join(lines) + "\n")
    raise ValueError(kind)


def _edit_json(out, **changes):
    row = json.loads(out["stdout"])
    row.update(changes)
    return _ok(row)


@pytest.fixture(scope="module")
def cli():
    inp = inputs.make("cli-oneshot", 4)
    return inp, [exact_cli_output(op) for op in inp["ops"]]


def test_cli_exact_outputs_pass(cli):
    inp, outputs = cli
    assert checks.check_cli(inp, outputs, BOUNDS) == [None] * len(outputs)


def _cli_corruptions():
    def scale(key, f):
        return lambda o: _edit_json(o, **{key: json.loads(o["stdout"])[key] * f})
    return [
        ("moments", scale("dq", 1 + 1e-8)),
        ("moments", lambda o: {**o, "rc": 1}),
        ("from-moments", scale("theta", -1)),
        ("overlap", lambda o: _edit_json(o, value_im=-json.loads(o["stdout"])["value_im"])),
        ("overlap", lambda o: _edit_json(o, abs_diff=1e-3)),
        ("overlap", lambda o: _edit_json(o, oracle_re=json.loads(o["stdout"])["oracle_re"] + 1e-6,
                                         abs_diff=1e-6)),
        ("wavefn", lambda o: _flip_wavefn(o)),
        ("kernel", lambda o: _ok([{**r, "coeff_im": -r["coeff_im"]}
                                  for r in json.loads(o["stdout"])])),
        ("resolve-identity", lambda o: _edit_json(o, measured=1e-4)),
        ("verify", lambda o: _ok(o["stdout"].replace("PASS", "FAIL", 1))),
    ]


def _flip_wavefn(out):
    lines = out["stdout"].splitlines()
    q, re_, im_, abs2 = lines[10].split(",")
    lines[10] = ",".join([q, re_, repr(-float(im_)), abs2])   # phase flipped
    return _ok("\n".join(lines) + "\n")


@pytest.mark.parametrize("kind,corrupt", _cli_corruptions())
def test_cli_corruption_rejected(cli, kind, corrupt):
    inp, outputs = cli
    i = next(j for j, op in enumerate(inp["ops"]) if op["kind"] == kind)
    verdict = checks.check_cli({"ops": [inp["ops"][i]]}, [corrupt(outputs[i])], BOUNDS)
    assert verdict[0] is not None


def test_known_fault_slice_is_seed_independent():
    a, b = inputs.make("api-mix", 1), inputs.make("api-mix", 2)
    assert a["known_fault"] == b["known_fault"]
    assert [a["ops"][i] for i in a["known_fault"]] == [b["ops"][i] for i in b["known_fault"]]
    assert len(a["ops"]) == len(b["ops"])
