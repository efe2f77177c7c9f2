"""Command-line front end with deterministic, machine-readable output.

Subcommands: moments, overlap, wavefn, verify, kernel, resolve-identity.
Complex labels are accepted as Cartesian "a+bi" or polar "r@theta".
Output formats: json (fixed field names, full round-trip float precision),
csv (RFC-4180 quoting), table (human).

Exit codes: 0 success; 1 a failed check or NotSaturated moments; 2 a
usage error, params.OutOfDomain or a math OverflowError; 3 numeric
non-convergence, params.QuadratureNotConverged.

Each subcommand imports the numerical layers it uses when it runs, so
moments, which needs only params, starts without loading numpy.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

from .params import (
    Constants,
    Labels,
    Moments,
    NotSaturated,
    OutOfDomain,
    QuadratureNotConverged,
    derived_angles,
    labels_to_moments,
    moments_to_labels,
)

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


def parse_complex(text: str) -> complex:
    """Accept Cartesian 'a+bi' (or with j) and polar 'r@theta' literals."""
    s = text.strip().replace(" ", "")
    if not s:
        raise OutOfDomain("empty complex literal")
    try:
        if "@" in s:
            rpart, thpart = s.split("@", 1)
            val = float(rpart) * cmath.exp(1j * float(thpart))
        else:
            val = complex(s.replace("i", "j"))
    except ValueError as exc:
        raise OutOfDomain(f"malformed complex literal {text!r}: {exc}") from exc
    if not cmath.isfinite(val):
        raise OutOfDomain(f"non-finite complex literal {text!r}")
    return val


def parse_keyvals(text: str) -> dict:
    """Parse 'k1=v1,k2=v2' float assignments."""
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise OutOfDomain(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise OutOfDomain(f"bad numeric value in {part!r}") from exc
        if not math.isfinite(out[key.strip()]):
            raise OutOfDomain(f"non-finite value in {part!r}")
    return out


def emit(rows: list[dict], fmt: str, stream) -> None:
    """Write result rows in the selected format, preserving key order."""
    if fmt == "json":
        payload = rows[0] if len(rows) == 1 else rows
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    elif fmt == "csv":
        writer = csv.DictWriter(stream, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})
    else:
        for row in rows:
            for key, val in row.items():
                stream.write(f"{key:>18s}: {val}\n")
            stream.write("\n")


def _constants(args) -> Constants:
    return Constants(hbar=args.hbar, ell0=args.ell0)


def cmd_moments(args) -> int:
    c = _constants(args)
    if args.from_moments:
        vals = parse_keyvals(args.from_moments)
        try:
            m = Moments(q0=vals.get("q0", 0.0), p0=vals.get("p0", 0.0),
                        dq=vals["dq"], dp=vals["dp"],
                        corr=vals.get("corr", 0.0))
        except KeyError as exc:
            raise OutOfDomain(f"--from-moments needs dq and dp ({exc} missing)")
        try:
            lab = moments_to_labels(m, c, rel_tol=args.saturation_tol)
        except NotSaturated as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILURE
        row = {"u0_re": lab.u0.real, "u0_im": lab.u0.imag,
               "r": lab.r, "theta": lab.theta}
        emit([row], args.format, sys.stdout)
        return EXIT_OK
    lab = Labels.from_z(parse_complex(args.u0), parse_complex(args.z))
    m = labels_to_moments(lab, c)
    ang = derived_angles(lab, m, c)
    row = {"q0": m.q0, "p0": m.p0, "dq": m.dq, "dp": m.dp, "corr": m.corr,
           "phi": ang.phi, "theta_bar_plus": ang.thetabar_plus,
           "theta_bar_minus": ang.thetabar_minus}
    emit([row], args.format, sys.stdout)
    return EXIT_OK


def cmd_overlap(args) -> int:
    from . import kernels

    c = _constants(args)
    z2, u2 = parse_complex(args.z2), parse_complex(args.u2)
    z1, u1 = parse_complex(args.z1), parse_complex(args.u1)
    res = kernels.squeezed_overlap(z2, u2, z1, u1)
    row = {"value_re": res.value.real, "value_im": res.value.imag,
           "modulus": res.modulus, "phase": res.phase}
    if args.oracle != "none":
        from . import verify

        if args.oracle == "fock":
            oracle, tail = verify.fock_overlaps([(z2, u2, z1, u1)],
                                                args.fock_dim)[0]
            extra = {"tail_mass": tail}
        else:
            oracle = verify.quad_overlap(z2, u2, z1, u1, c, check=True).value
            extra = {}
        row.update(oracle_re=oracle.real, oracle_im=oracle.imag,
                   abs_diff=abs(res.value - oracle), **extra)
    emit([row], args.format, sys.stdout)
    return EXIT_OK


def cmd_wavefn(args) -> int:
    import numpy as np

    from . import wavefn

    c = _constants(args)
    if not (math.isfinite(args.qmin) and math.isfinite(args.qmax)
            and args.samples >= 0):
        raise OutOfDomain(f"--qmin and --qmax must be finite and --samples "
                          f">= 0, got {args.qmin}, {args.qmax}, {args.samples}")
    lab = Labels.from_z(parse_complex(args.u0), parse_complex(args.z))
    p = wavefn.WavefnParams.from_labels(lab, c)
    qs = np.linspace(args.qmin, args.qmax, args.samples)
    vals = wavefn.psi(qs, p)
    out = io.StringIO()
    out.write(f"# u0={lab.u0!r} z={lab.z!r} hbar={c.hbar!r} ell0={c.ell0!r}\n")
    out.write(f"# q0={p.moments.q0!r} p0={p.moments.p0!r} "
              f"dq={p.moments.dq!r} dp={p.moments.dp!r} "
              f"corr={p.moments.corr!r}\n")
    writer = csv.writer(out)
    writer.writerow(["q", "re_psi", "im_psi", "abs2"])
    for q, v in zip(qs, vals):
        writer.writerow([repr(float(q)), repr(float(v.real)),
                         repr(float(v.imag)), repr(float(abs(v) ** 2))])
    text = out.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error writing {args.out}: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILURE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    cfg = verify.VerifyConfig(
        constants=_constants(args), fock_dim=args.fock_dim,
        scan_dim=args.scan_dim, dim_check=args.dim_check, seed=args.seed)
    if args.bound:
        for spec in args.bound:
            name, _, val = spec.partition("=")
            try:
                cfg.bounds[name] = float(val)
            except ValueError:
                raise OutOfDomain(f"--bound expects id=value, got {spec!r}")
    results = verify.run_suite(cfg, only=args.only or None)
    if not results:
        print("error: no checks matched the --only filter", file=sys.stderr)
        return EXIT_USAGE
    print(verify.report_table(results))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(verify.report_json(results))
            fh.write("\n")
    failing = [r.check_id for r in results if not r.passed]
    if failing:
        print("failing checks: " + ", ".join(failing), file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


def cmd_kernel(args) -> int:
    from . import kernels

    c = _constants(args)
    z = parse_complex(args.z)
    op = kernels.quadrature_observable(args.op, z, c)
    sym = kernels.diagonal_kernel(op, z, max_degree=args.max_degree)
    rows = []
    for j in range(sym.coeffs.shape[0]):
        for k in range(sym.coeffs.shape[1]):
            val = sym.coeffs[j, k]
            if val != 0:
                rows.append({"power_w": j, "power_wbar": k,
                             "coeff_re": val.real, "coeff_im": val.imag})
    if not rows:
        rows = [{"power_w": 0, "power_wbar": 0, "coeff_re": 0.0,
                 "coeff_im": 0.0}]
    emit(rows, args.format, sys.stdout)
    return EXIT_OK


def cmd_resolve_identity(args) -> int:
    from . import verify

    res = verify.resolution_of_identity(parse_complex(args.z),
                                        args.dim_check, verify.VerifyConfig(),
                                        order=args.order)
    row = {"z": args.z, "dim_check": args.dim_check,
           "order": res.params["order"], "measured": res.measured,
           "bound": res.bound, "passed": res.passed,
           "quad_est_error": res.params["quad_est_error"]}
    emit([row], args.format, sys.stdout)
    if res.params["quad_est_error"] > 0.1:
        return EXIT_NOT_CONVERGED
    return EXIT_OK if res.passed else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="srsqueeze",
        description="Squeezed-state numerics: parametrizations, overlaps, "
                    "wavefunctions and the identity-verification suite.")
    top.add_argument("--config", help="JSON file with default option values")
    sub = top.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads; any other is an
    # unrecognized argument (exit 2)
    def output(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")

    def constants(p):
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--ell0", type=float, default=1.0)

    def fock_dim(p):
        p.add_argument("--fock-dim", dest="fock_dim", type=int, default=128)

    p = sub.add_parser("moments",
                       help="moments and derived angles of a labelled state")
    constants(p)
    output(p)
    p.add_argument("--u0", default="0")
    p.add_argument("--z", default="0")
    p.add_argument("--from-moments", dest="from_moments",
                   help="inverse map from 'dq=..,dp=..[,corr=..,q0=..,p0=..]'")
    p.add_argument("--saturation-tol", dest="saturation_tol", type=float,
                   default=1e-9)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("overlap", help="closed-form overlap of two states")
    constants(p)
    output(p)
    fock_dim(p)
    p.add_argument("--z2", default="0")
    p.add_argument("--u2", default="0")
    p.add_argument("--z1", default="0")
    p.add_argument("--u1", default="0")
    p.add_argument("--oracle", choices=("fock", "quad", "none"),
                   default="none")
    p.set_defaults(fn=cmd_overlap)

    p = sub.add_parser("wavefn", help="sample the wavefunction on a q-grid")
    constants(p)
    p.add_argument("--u0", default="0")
    p.add_argument("--z", default="0")
    p.add_argument("--qmin", type=float, default=-4.0)
    p.add_argument("--qmax", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=129)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(fn=cmd_wavefn)

    p = sub.add_parser("verify", help="run the identity-verification suite")
    constants(p)
    fock_dim(p)
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--scan-dim", dest="scan_dim", type=int, default=256)
    p.add_argument("--dim-check", dest="dim_check", type=int, default=16)
    p.add_argument("--only", action="append",
                   help="glob pattern on check or result ids (repeatable)")
    p.add_argument("--bound", action="append",
                   help="override a bound: check_id=value (repeatable)")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kernel",
                       help="diagonal kernel of a quadrature observable")
    constants(p)
    output(p)
    p.add_argument("--op", default="N",
                   choices=("I", "N", "Q", "P", "Q2", "P2", "QP"))
    p.add_argument("--z", default="0")
    p.add_argument("--max-degree", dest="max_degree", type=int, default=8)
    p.set_defaults(fn=cmd_kernel)

    p = sub.add_parser("resolve-identity",
                       help="overcompleteness check at fixed z")
    output(p)
    p.add_argument("--z", default="0")
    p.add_argument("--dim-check", dest="dim_check", type=int, default=16)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=cmd_resolve_identity)
    return top


def _apply_config_file(parser, argv):
    """Config-file values become parser defaults; CLI flags still win."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        path = argv[idx + 1]
    except IndexError:
        parser.error("--config requires a path")
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    flat = []
    for key, val in values.items():
        flat.extend([f"--{key.replace('_', '-')}", str(val)])
    rest = argv[:idx] + argv[idx + 2:]
    if not rest:
        return rest
    # insert config values right after the subcommand name
    return [rest[0]] + flat + rest[1:]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(parser, argv)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OutOfDomain, OverflowError) as exc:
        # an OverflowError is a math function leaving the float range
        what = "" if isinstance(exc, OutOfDomain) else "outside the float range: "
        print(f"usage error: {what}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuadratureNotConverged as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


if __name__ == "__main__":
    sys.exit(main())
