"""Command-line front end with deterministic, machine-readable output.

Subcommands: moments, overlap, wavefn, verify, kernel, resolve-identity.
Complex labels are accepted as Cartesian "a+bi" or polar "r@theta".
Output formats: json (fixed field names, full round-trip float precision),
csv (RFC-4180 quoting), table (human).

Exit codes, mapped in main alone: 0 success; 1 a failed check, NotSaturated
moments or an unwritable --out file; 2 a usage error, params.OutOfDomain or
a math OverflowError; 3 non-convergence, params.QuadratureNotConverged.

Each subcommand imports the numerical layers it uses when it runs, so
moments, which needs only params, starts without loading numpy, and
overlap --oracle loads oracles, not the check suite in verify.
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


def parse_keyvals(text: str, option: str) -> dict:
    """Parse 'k1=v1,k2=v2' finite float assignments given to option."""
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise OutOfDomain(f"{option} expects key=value, got {part!r}")
        key, val = part.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise OutOfDomain(f"{option}: bad number in {part!r}") from exc
        if not math.isfinite(out[key.strip()]):
            raise OutOfDomain(f"{option}: non-finite value in {part!r}")
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


def _write_out(path: str, text: str) -> None:
    """Write an --out file; an OSError names the path, for main to report."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = path
        raise


def cmd_moments(args) -> int:
    c = _constants(args)
    if args.from_moments:
        vals = parse_keyvals(args.from_moments, "--from-moments")
        try:
            m = Moments(q0=vals.get("q0", 0.0), p0=vals.get("p0", 0.0),
                        dq=vals["dq"], dp=vals["dp"],
                        corr=vals.get("corr", 0.0))
        except KeyError as exc:
            raise OutOfDomain(f"--from-moments needs dq and dp ({exc} missing)")
        lab = moments_to_labels(m, c, rel_tol=args.saturation_tol)
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
        from . import oracles

        if args.oracle == "fock":
            oracle, tail = oracles.fock_overlaps([(z2, u2, z1, u1)],
                                                 args.fock_dim)[0]
            extra = {"tail_mass": tail}
        else:
            oracle = oracles.quad_overlap(z2, u2, z1, u1, c, check=True).value
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
    if args.out:
        _write_out(args.out, out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    cfg = verify.VerifyConfig(
        constants=_constants(args), fock_dim=args.fock_dim,
        scan_dim=args.scan_dim, dim_check=args.dim_check,
        bounds=parse_keyvals(",".join(args.bound or ()), "--bound"))
    results = verify.run_suite(cfg, only=args.only)
    print(verify.report_table(results))
    if args.out:
        _write_out(args.out, verify.report_json(results) + "\n")
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
    sym = kernels.diagonal_kernel(op, z)
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
    if row["quad_est_error"] > 0.1:
        raise QuadratureNotConverged(f"resolve-identity: error estimate "
                                     f"{row['quad_est_error']:.3e} > 0.1", None)
    return EXIT_OK if res.passed else EXIT_CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    # without abbreviations each option, and each --config key, has one name
    top = argparse.ArgumentParser(
        prog="srsqueeze", allow_abbrev=False,
        description="Squeezed-state numerics: parametrizations, overlaps, "
                    "wavefunctions and the identity-verification suite.",
        epilog="--config PATH or --config=PATH, before or after the "
               "subcommand: JSON option defaults; explicit flags win.")
    sub = top.add_subparsers(dest="command", required=True)

    # each subcommand takes only the options it reads, those of its groups
    # included; any other is an unrecognized argument (exit 2)
    def command(name, fn, help, *groups):
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for group in groups:
            group(p)
        return p

    def output(p):
        p.add_argument("--format", choices=("json", "csv", "table"),
                       default="json")

    def constants(p):
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--ell0", type=float, default=1.0)

    def fock_dim(p):
        p.add_argument("--fock-dim", type=int, default=128)

    p = command("moments", cmd_moments,
                "moments and derived angles of a labelled state",
                constants, output)
    p.add_argument("--u0", default="0")
    p.add_argument("--z", default="0")
    p.add_argument("--from-moments",
                   help="inverse map from 'dq=..,dp=..[,corr=..,q0=..,p0=..]'")
    p.add_argument("--saturation-tol", type=float, default=1e-9)

    p = command("overlap", cmd_overlap, "closed-form overlap of two states",
                constants, output, fock_dim)
    p.add_argument("--z2", default="0")
    p.add_argument("--u2", default="0")
    p.add_argument("--z1", default="0")
    p.add_argument("--u1", default="0")
    p.add_argument("--oracle", choices=("fock", "quad", "none"),
                   default="none")

    p = command("wavefn", cmd_wavefn, "sample the wavefunction on a q-grid",
                constants)
    p.add_argument("--u0", default="0")
    p.add_argument("--z", default="0")
    p.add_argument("--qmin", type=float, default=-4.0)
    p.add_argument("--qmax", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=129)
    p.add_argument("--out", help="CSV output path (default: stdout)")

    p = command("verify", cmd_verify, "run the identity-verification suite",
                constants, fock_dim)
    p.add_argument("--scan-dim", type=int, default=256)
    p.add_argument("--dim-check", type=int, default=16)
    p.add_argument("--only", action="append",
                   help="glob pattern on check or result ids (repeatable)")
    p.add_argument("--bound", action="append",
                   help="override a bound: result_id=value (repeatable)")
    p.add_argument("--out", help="write the JSON report here")

    p = command("kernel", cmd_kernel,
                "diagonal kernel of a quadrature observable", constants, output)
    p.add_argument("--op", default="N",
                   choices=("I", "N", "Q", "P", "Q2", "P2", "QP"))
    p.add_argument("--z", default="0")

    p = command("resolve-identity", cmd_resolve_identity,
                "overcompleteness check at fixed z", output)
    p.add_argument("--z", default="0")
    p.add_argument("--dim-check", type=int, default=16)
    p.add_argument("--order", type=int, default=None)
    return top


def _apply_config_file(parser, argv):
    """Config-file values become options right after the subcommand name,
    so explicit flags, which follow them, still win."""
    flags = [arg.partition("=")[0] for arg in argv]
    if "--config" not in flags:
        return argv
    idx = flags.index("--config")
    argv = argv[:idx] + argv[idx].split("=", 1) + argv[idx + 1:]
    if idx + 1 == len(argv):
        parser.error("--config requires a path")
    path, rest = argv[idx + 1], argv[:idx] + argv[idx + 2:]
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path}: {exc}")
    if not isinstance(values, dict):
        parser.error(f"config {path} must hold a JSON object")
    for key, val in values.items():
        if not isinstance(val, (str, int, float)):
            parser.error(f"config {path}: {key!r} must be a string or a number")
    flat = [f"--{key.replace('_', '-')}={val}" for key, val in values.items()]
    return rest[:1] + flat + rest[1:]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config_file(parser, argv)
    # the top parser's one option is -h; argparse would read the value of
    # any other option given before the subcommand as the subcommand name
    first = argv[0] if argv else ""
    if first.startswith("-") and first not in ("-h", "--help", "--"):
        parser.error(f"unrecognized arguments: {first}")
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OutOfDomain, OverflowError) as exc:
        # an OverflowError is a math function leaving the float range
        what = "" if isinstance(exc, OutOfDomain) else "outside the float range: "
        print(f"usage error: {what}{exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's message names the size it could not allocate
        print(f"usage error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NotSaturated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except QuadratureNotConverged as exc:
        print(f"numeric non-convergence: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except OSError as exc:
        # _write_out names its path; a closed stdout pipe, say, names none
        if exc.filename is None:
            raise
        print(f"error writing {exc.filename}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
