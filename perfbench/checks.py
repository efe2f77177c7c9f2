"""Checks of the program's outputs, made apart from the program.

``check(workload, inputs, outputs)`` returns, for each operation of a round,
None when its output is accepted or a one-line reason when it is not.
Closed forms are compared with reference.py (mpmath) inside the
condition-scaled band of ``reference.tolerance``; verification results are
held to the bounds documented in the package's DEFAULT_BOUNDS table, which
is read from the source text without importing the package.
"""

from __future__ import annotations

import ast
import cmath
import json
import math
import os

import mpmath as mp

import reference as ref

EPS = ref.EPS
MOMENTS = ("q0", "p0", "dq", "dp", "corr")
ANGLES = ("phi", "rho_plus", "rho_minus", "theta_plus", "theta_minus",
          "thetabar_plus", "thetabar_minus")
LABELS = ("u0_re", "u0_im", "r", "theta")
WRAPPED = {"phi", "theta_plus", "theta_minus", "thetabar_plus",
           "thetabar_minus", "theta"}


# Checks whose docstring documents a different bound from the table: the
# Hermite synthesis reports defect / truncation budget, held to 1.
DOCSTRING_BOUNDS = {"wavefn.fock_synthesis": 1.0}


class Reject(Exception):
    """An output that fails a check; the message says which and by how much."""


def documented_bounds(root: str = ".") -> dict:
    """DEFAULT_BOUNDS from src/srsqueeze/verify.py, parsed, not imported."""
    path = os.path.join(root, "src", "srsqueeze", "verify.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "DEFAULT_BOUNDS"):
            return ast.literal_eval(node.value)
    raise RuntimeError(f"no DEFAULT_BOUNDS table in {path}")


def _diff(got, want, angle=False) -> float:
    if angle:  # distance on the circle, so that -pi and pi agree
        return abs(cmath.exp(1j * got) - complex(mp.expj(want)))
    return abs(complex(got) - complex(want))


def _expect(name, got, want, tol, angle=False):
    d = _diff(got, want, angle)
    if not d <= tol:
        raise Reject(f"{name}: got {got!r}, want {float(mp.re(want))!r}"
                     f"{'' if mp.im(want) == 0 else f'{float(mp.im(want)):+}j'}, "
                     f"|diff| {d:.3g} > tol {tol:.3g}")


# ------------------------------------------------------------ closed forms


def _moments(got: dict, u0: complex, r: float, theta: float) -> dict:
    """Forward moments; returns each one's tolerance for later properties."""
    want = ref.moments(u0, r, theta)
    tols = {}
    for k in MOMENTS:
        def f(x, y, rr, t, k=k):
            return ref.moments(mp.mpc(x, y), rr, t)[k]
        tols[k] = ref.tolerance(f, (u0.real, u0.imag, r, theta), want[k])
        _expect(k, got[k], want[k], tols[k])
    return tols


def _saturation(got: dict, tols: dict):
    """dq^2 dp^2 = (hbar^2 + corr^2)/4, within what the moment bands allow."""
    target = 0.25 * (1.0 + got["corr"] ** 2)
    defect = abs(got["dq"] ** 2 * got["dp"] ** 2 - target) / target
    tol = (2 * tols["dq"] / got["dq"] + 2 * tols["dp"] / got["dp"]
           + 2 * abs(got["corr"]) * tols["corr"] / (1.0 + got["corr"] ** 2)
           + 8 * EPS)
    if not defect <= tol:
        raise Reject(f"saturation identity: relative defect {defect:.3g} > {tol:.3g}")


def _inverse(got: dict, m: list) -> dict:
    """moments -> labels against the exact inverse at the same moments."""
    want = ref.labels_from_moments(*m)
    tols = {}
    for k in LABELS:
        def f(*mm, k=k):
            return ref.labels_from_moments(*mm)[k]
        tols[k] = ref.tolerance(f, m, want[k])
        if k == "theta" and want["r"] == 0:
            continue
        _expect(k, got[k], want[k], tols[k], angle=k in WRAPPED)
    return tols


def _roundtrip(back: dict, u0: complex, r: float, theta: float, m: list,
               inv_tols: dict, fwd_tols: dict):
    """labels -> moments -> labels returns the labels, within the bands."""
    start = {"u0_re": u0.real, "u0_im": u0.imag, "r": r, "theta": theta}
    for k in LABELS:
        def f(*mm, k=k):
            return ref.labels_from_moments(*mm)[k]
        grad = ref.gradient(f, m)
        tol = inv_tols[k] + sum(float(abs(g)) * fwd_tols[j]
                                for g, j in zip(grad, MOMENTS))
        _expect(f"roundtrip {k}", back[k], start[k], tol, angle=k in WRAPPED)


def _overlap_tol(z2, u2, z1, u1, want):
    def f(a, b, c, d, e, g, h, i):
        return ref.overlap(mp.mpc(a, b), mp.mpc(c, d), mp.mpc(e, g), mp.mpc(h, i))
    args = (z2.real, z2.imag, u2.real, u2.imag, z1.real, z1.imag, u1.real, u1.imag)
    return ref.tolerance(f, args, want)


def _overlap(name, got: complex, z2, u2, z1, u1) -> float:
    """Overlap against the Gaussian integral; |K| <= 1 (Cauchy-Schwarz)."""
    want = ref.overlap(z2, u2, z1, u1)
    tol = _overlap_tol(z2, u2, z1, u1, want)
    _expect(name, got, want, tol)
    if not abs(got) <= 1.0 + tol:
        raise Reject(f"{name}: |K| = {abs(got)!r} exceeds 1")
    return tol


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _api_op(op: dict, out, tols: list, outs: list):
    """Checks one request; returns the overlap band for a later symmetry check."""
    if isinstance(out, dict):
        raise Reject(out["error"])
    kind = op["kind"]
    if kind in ("moments", "large-moments"):
        u0, r, theta = _c(op["u0"]), op["r"], op["theta"]
        got = dict(zip(MOMENTS, out[:5]))
        fwd = _moments(got, u0, r, theta)
        _saturation(got, fwd)
        back = dict(zip(LABELS, out[-4:]))
        inv = _inverse(back, out[:5])
        _roundtrip(back, u0, r, theta, out[:5], inv, fwd)
        if kind == "moments":
            want = ref.angles(u0, r, theta)
            for k, g in zip(ANGLES, out[5:12]):
                def f(x, y, rr, t, k=k):
                    return ref.angles(mp.mpc(x, y), rr, t)[k]
                _expect(k, g, want[k],
                        ref.tolerance(f, (u0.real, u0.imag, r, theta), want[k]),
                        angle=k in WRAPPED)
    elif kind == "large-overlap":
        z, u0 = cmath.rect(op["r"], op["theta"]), _c(op["u0"])
        _overlap("self-overlap K(a, a)", _c(out), z, u0, z, u0)
    elif kind == "labels":
        _inverse(dict(zip(LABELS, out)), op["moments"])
    elif kind == "bch":
        z = _c(op["z"])
        want = ref.disentangle(z)
        for k, g in (("alpha", _c(out[:2])), ("gamma", out[2])):
            def f(x, y, k=k):
                return ref.disentangle(mp.mpc(x, y))[k]
            _expect(k, g, want[k], ref.tolerance(f, (z.real, z.imag), want[k]))
    elif kind == "overlap":
        args = (_c(op["z2"]), _c(op["u2"]), _c(op["z1"]), _c(op["u1"]))
        tol = _overlap("overlap", _c(out), *args)
        if "swap_of" in op:
            # Hermitian symmetry K(b, a) = conj K(a, b), to within one band:
            # tighter than the two reference checks together allow.
            j = op["swap_of"]
            d = abs(_c(out) - _c(outs[j]).conjugate())
            if not d <= max(tol, tols[j]):
                raise Reject(f"Hermitian symmetry with op {j}: |diff| {d:.3g}")
        return tol
    elif kind == "overlap_values":
        z2, z1 = _c(op["z2"]), _c(op["z1"])
        for i, g in zip(op["sample"], out):
            _overlap(f"overlap_values[{i}]", _c(g), z2, _c(op["u2"][i]),
                     z1, _c(op["u1"][i]))
    elif kind == "psi":
        u0, r, theta = _c(op["u0"]), op["r"], op["theta"]

        def f(q, x, y, rr, t):
            return ref.psi(q, mp.mpc(x, y), rr, t)
        for i, g in zip(op["sample"], out):
            q = op["q"][i]
            want = ref.psi(q, u0, r, theta)
            _expect(f"psi[{i}]", _c(g), want,
                    ref.tolerance(f, (q, u0.real, u0.imag, r, theta), want))
    else:
        raise ValueError(f"unknown api-mix request {kind!r}")
    return 0.0


def check_api_mix(inputs: dict, outputs: list) -> list:
    verdicts, tols = [], []
    for op, out in zip(inputs["ops"], outputs):
        try:
            tols.append(_api_op(op, out, tols, outputs))
            verdicts.append(None)
        except Reject as exc:
            tols.append(0.0)
            verdicts.append(f"{op['kind']}: {exc}")
    return verdicts


# ------------------------------------------------------ verification suite


def _results(results: list, bounds: dict, expected: set):
    """Every documented check present once per id, inside its bound."""
    seen = set()
    for check_id, measured, bound, passed in results:
        seen.add(check_id)
        if check_id not in bounds:
            raise Reject(f"{check_id}: no documented bound")
        documented = DOCSTRING_BOUNDS.get(check_id, bounds[check_id])
        if bound != documented:
            raise Reject(f"{check_id}: bound {bound!r} is not the documented "
                         f"{documented!r}")
        if not (math.isfinite(measured) and measured <= bound):
            raise Reject(f"{check_id}: measured {measured!r} > bound {bound!r}")
        if passed is not True:
            raise Reject(f"{check_id}: reported as failing")
    if seen != expected:
        missing = sorted(expected - seen)[:3]
        extra = sorted(seen - expected)[:3]
        raise Reject(f"result ids differ: missing {missing}, unexpected {extra}")


def check_suite(workload: str, outputs: list, bounds: dict) -> list:
    ids = set(bounds)
    mu = "verify.mu_weighted_identity"
    expected = {mu} if workload == "overcomplete" else ids - {mu}
    try:
        if isinstance(outputs[0], dict):
            raise Reject(outputs[0]["error"])
        _results(outputs[0], bounds, expected)
        return [None]
    except Reject as exc:
        return [str(exc)]


def worst_margin(outputs) -> float:
    """Largest measured/bound over verification results with a bound > 0."""
    worst = 0.0
    for check_id, measured, bound, _ in outputs:
        if bound > 0:
            worst = max(worst, measured / bound)
    return worst


# ------------------------------------------------------------------- CLI


def _json(out: dict):
    if out["rc"] != 0:
        raise Reject(f"exit {out['rc']}: {out['stderr'].strip()[-200:]}")
    return json.loads(out["stdout"])


def verify_table(stdout: str) -> list:
    """Rows (check_id, measured, bound, passed) of `srsqueeze verify`."""
    rows = []
    for line in stdout.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4 and parts[3] in ("PASS", "FAIL"):
            rows.append([parts[0], float(parts[1]), float(parts[2]),
                         parts[3] == "PASS"])
    return rows


def _cli_op(op: dict, out: dict, bounds: dict):
    kind = op["kind"]
    if kind == "moments":
        row = _json(out)
        u0, z = _c(op["u0"]), _c(op["z"])
        mz = mp.mpc(z.real, z.imag)
        want = {**ref.moments(u0, abs(mz), mp.arg(mz)),
                **ref.angles(u0, abs(mz), mp.arg(mz))}
        for key, k in (*((m, m) for m in MOMENTS), ("phi", "phi"),
                       ("theta_bar_plus", "thetabar_plus"),
                       ("theta_bar_minus", "thetabar_minus")):
            def f(x, y, zr, zi, k=k):
                w = mp.mpc(zr, zi)
                vals = {**ref.moments(mp.mpc(x, y), abs(w), mp.arg(w)),
                        **ref.angles(mp.mpc(x, y), abs(w), mp.arg(w))}
                return vals[k]
            _expect(key, row[key], want[k],
                    ref.tolerance(f, (u0.real, u0.imag, z.real, z.imag), want[k]),
                    angle=k in WRAPPED)
    elif kind == "from-moments":
        _inverse(_json(out), op["moments"])
    elif kind == "overlap":
        row = _json(out)
        got = complex(row["value_re"], row["value_im"])
        _overlap("overlap", got, _c(op["z2"]), _c(op["u2"]), _c(op["z1"]),
                 _c(op["u1"]))
        oracle = complex(row["oracle_re"], row["oracle_im"])
        if abs(abs(got - oracle) - row["abs_diff"]) > 4 * EPS:
            raise Reject("abs_diff is not |value - oracle|")
        bound = bounds["kernels.oracle_triangle"]
        if not row["abs_diff"] <= bound:
            raise Reject(f"oracle disagrees: abs_diff {row['abs_diff']!r} > {bound!r}")
        if abs(row["modulus"] - abs(got)) > 4 * EPS or \
                abs(cmath.exp(1j * row["phase"]) - got / abs(got)) > 8 * EPS:
            raise Reject("modulus/phase do not match the value")
    elif kind == "wavefn":
        if out["rc"] != 0:
            raise Reject(f"exit {out['rc']}")
        lines = out["stdout"].splitlines()
        rows = [ln.split(",") for ln in lines[3:] if ln]
        if lines[2] != "q,re_psi,im_psi,abs2" or len(rows) != 65:
            raise Reject("CSV header or row count is wrong")
        u0, z = _c(op["u0"]), _c(op["z"])
        mz = mp.mpc(z.real, z.imag)

        def f(q, x, y, zr, zi):
            w = mp.mpc(zr, zi)
            return ref.psi(q, mp.mpc(x, y), abs(w), mp.arg(w))
        for q, re_, im_, abs2 in rows:
            q, got = float(q), complex(float(re_), float(im_))
            want = ref.psi(q, u0, abs(mz), mp.arg(mz))
            tol = ref.tolerance(f, (q, u0.real, u0.imag, z.real, z.imag), want)
            _expect(f"psi({q!r})", got, want, tol)
            if abs(float(abs2) - abs(got) ** 2) > 4 * EPS * abs(got) ** 2:
                raise Reject(f"abs2 at q={q!r} is not |psi|^2")
    elif kind == "kernel":
        rows = _json(out)
        z = _c(op["z"])
        want = ref.q2_symbol(z)
        got = {(r_["power_w"], r_["power_wbar"]): complex(r_["coeff_re"], r_["coeff_im"])
               for r_ in rows}
        if set(got) != set(want):
            raise Reject(f"symbol terms {sorted(got)} != {sorted(want)}")
        for key, w in want.items():
            def f(x, y, key=key):
                return ref.q2_symbol(mp.mpc(x, y))[key]
            _expect(f"coeff{key}", got[key], w, ref.tolerance(f, (z.real, z.imag), w))
    elif kind == "resolve-identity":
        row = _json(out)
        bound = bounds["verify.resolution_identity"]
        if row["bound"] != bound or not row["measured"] <= bound \
                or row["passed"] is not True or not row["quad_est_error"] <= 0.1:
            raise Reject(f"resolution of identity: {row}")
    elif kind == "verify":
        if out["rc"] != 0:
            raise Reject(f"exit {out['rc']}")
        rows = verify_table(out["stdout"])
        _results(rows, bounds, {k for k in bounds if k.startswith("params.")})
        if not out["stdout"].rstrip().endswith(f"{len(rows)}/{len(rows)} checks passed"):
            raise Reject("summary line is missing or reports failures")
    else:
        raise ValueError(f"unknown cli request {kind!r}")


def check_cli(inputs: dict, outputs: list, bounds: dict) -> list:
    verdicts = []
    for op, out in zip(inputs["ops"], outputs):
        try:
            _cli_op(op, out, bounds)
            verdicts.append(None)
        except (Reject, ValueError, KeyError, IndexError) as exc:
            verdicts.append(f"{op['kind']}: {type(exc).__name__}: {exc}")
    return verdicts


def check(workload: str, inputs: dict, outputs: list, root: str = ".") -> list:
    if workload == "api-mix":
        return check_api_mix(inputs, outputs)
    bounds = documented_bounds(root)
    if workload == "cli-oneshot":
        return check_cli(inputs, outputs, bounds)
    return check_suite(workload, outputs, bounds)
