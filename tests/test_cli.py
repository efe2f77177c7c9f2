import argparse
import csv
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from srsqueeze import cli
from srsqueeze.params import OutOfDomain


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_complex_forms():
    assert cli.parse_complex("1+2i") == 1 + 2j
    assert cli.parse_complex("-1.5+0.5i") == -1.5 + 0.5j
    assert cli.parse_complex("2i") == 2j
    assert cli.parse_complex("3") == 3 + 0j
    polar = cli.parse_complex("0.5@1.5708")
    assert abs(polar) == pytest.approx(0.5)
    assert np.angle(polar) == pytest.approx(1.5708)
    with pytest.raises(OutOfDomain):
        cli.parse_complex("nope")
    with pytest.raises(OutOfDomain):
        cli.parse_complex("1@@2")


def test_moments_vacuum_json(capsys):
    code, out, _ = run_cli(capsys, "moments", "--u0", "0", "--z", "0")
    assert code == 0
    row = json.loads(out)
    assert list(row) == ["q0", "p0", "dq", "dp", "corr", "phi",
                         "theta_bar_plus", "theta_bar_minus"]
    assert row["dq"] == pytest.approx(1 / math.sqrt(2))
    assert row["corr"] == 0.0


def test_moments_polar_correlated(capsys):
    code, out, _ = run_cli(capsys, "moments", "--z", "0.5@1.5707963267948966")
    assert code == 0
    row = json.loads(out)
    assert row["corr"] == pytest.approx(math.sinh(1.0), rel=1e-12)


def test_moments_inverse_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "moments", "--u0", "1+1i", "--z", "0.4@0.9")
    vals = json.loads(out)
    spec = (f"q0={vals['q0']!r},p0={vals['p0']!r},dq={vals['dq']!r},"
            f"dp={vals['dp']!r},corr={vals['corr']!r}")
    code, out, _ = run_cli(capsys, "moments", "--from-moments", spec)
    assert code == 0
    row = json.loads(out)
    assert row["u0_re"] == pytest.approx(1.0, abs=1e-10)
    assert row["u0_im"] == pytest.approx(1.0, abs=1e-10)
    assert row["r"] == pytest.approx(0.4, abs=1e-10)
    assert row["theta"] == pytest.approx(0.9, abs=1e-10)


def test_moments_inverse_not_saturated(capsys):
    code, _, err = run_cli(capsys, "moments", "--from-moments",
                           "dq=0.9,dp=0.9,corr=0.5")
    assert code == 1
    assert "saturation" in err or "deviates" in err


def test_usage_error_on_bad_literal(capsys):
    code, _, err = run_cli(capsys, "moments", "--u0", "zzz")
    assert code == 2
    assert "malformed" in err


@pytest.mark.parametrize("argv", [
    ("--u0", "nan", "--z", "0.5"),
    ("--u0", "1", "--z", "400"),
    ("--from-moments", "dq=-1,dp=1"),
    ("--from-moments", "dq=inf,dp=1"),
    ("--from-moments", "dq=1,dp=0"),
])
def test_moments_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "moments", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


# one command of each subcommand that takes --hbar and --ell0
_CONSTANTS_ARGV = (
    ("moments", "--u0", "1+1i", "--z", "0.5@1"),
    ("wavefn", "--u0", "1+1i", "--z", "0.5@1", "--samples", "5"),
    ("overlap", "--z2", "0.5@1", "--u2", "1+1i", "--z1", "0.3"),
    ("kernel", "--op", "QP", "--z", "0.4"),
    ("verify", "--only", "params.roundtrip"),
)


@pytest.mark.parametrize("argv", [
    # sinh 2r overflows in the correlation
    ("wavefn", "--u0", "0", "--z", "400"),
    ("overlap", "--z2", "0", "--u2", "0", "--z1", "400", "--u1", "0",
     "--oracle", "quad"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "4", "--order", "1"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "4", "--order", "200"),
    ("resolve-identity", "--z", "400", "--dim-check", "4"),
    ("resolve-identity", "--z", "800", "--dim-check", "4"),
    # just past the |z| where 1 - tanh|z| stops being a normal float
    ("resolve-identity", "--z", "355@0.7", "--dim-check", "4"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "0"),
    ("overlap", "--oracle", "fock", "--fock-dim", "0"),
    ("overlap", "--oracle", "fock", "--fock-dim", "1"),
    ("overlap", "--z2", "400", "--u2", "2", "--z1", "400@1.5708", "--u1", "1"),
    # constants that are not finite and > 0, on every subcommand taking them
    *(base + (flag, val) for base in _CONSTANTS_ARGV
      for flag, val in (("--hbar", "0"), ("--hbar", "-1"), ("--hbar", "nan"),
                        ("--ell0", "nan"))),
    ("moments", "--u0", "1+1i", "--z", "0.5@1", "--hbar", "inf"),
    # a NaN tolerance passes any defect, a negative one none
    ("moments", "--from-moments", "dq=1,dp=1", "--saturation-tol", "nan"),
    ("moments", "--from-moments", "dq=1,dp=1", "--saturation-tol", "-1"),
    ("wavefn", "--samples", "-1"),
    ("wavefn", "--qmin", "nan"),
    ("wavefn", "--qmax", "inf"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "-5"),
    # dq^2 underflows to 0 in the line rule's width
    ("overlap", "--ell0", "1e-200", "--oracle", "quad"),
    # dq^2 is subnormal, and 1/dq^2 overflows
    ("overlap", "--oracle", "quad", "--ell0", "1e-160"),
    ("overlap", "--oracle", "quad", "--ell0", "1e-155"),
    # the saturation target (hbar^2 + corr^2)/4 underflows to 0
    ("moments", "--from-moments", "dq=1,dp=0.5", "--hbar", "1e-300"),
    ("moments", "--from-moments", "dq=1,dp=0.5", "--hbar", "1e-200"),
    # the displacement phase q0 p0 / hbar overflows
    ("wavefn", "--u0=-1e200+1e200i"),
    ("wavefn", "--u0=1e300+1e300i"),
    # a quadratic observable's coefficients overflow
    ("kernel", "--op", "Q2", "--z", "0.4", "--ell0", "1e160"),
    ("kernel", "--op", "P2", "--z", "0.4", "--ell0", "1e-160"),
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("argv,code", [
    # sinh 2r in the correlation overflows between these two
    (("moments", "--u0", "1", "--z", "355.2"), 0),
    (("moments", "--u0", "1", "--z", "355.3"), 2),
    # past the frame rule's limit of about 354.5
    (("resolve-identity", "--z", "354.6", "--dim-check", "4"), 2),
    # the self-overlap never overflows; a displaced pair's exponent does
    (("overlap", "--z2", "400", "--u2", "0", "--z1", "400", "--u1", "0"), 0),
    (("overlap", "--z2", "400", "--u2", "1", "--z1", "400@1.5", "--u1", "0"),
     2),
    (("overlap", "--z2", "800", "--u2", "1", "--z1", "800@1.5", "--u1", "0"),
     2),
    # 1/dq^2 is still finite, q0 p0 / hbar is, and the mixed QP product is
    (("overlap", "--oracle", "quad", "--ell0", "1.5e-154"), 0),
    (("wavefn", "--u0=1e150+1e150i"), 0),
    (("kernel", "--op", "QP", "--z", "0.4", "--ell0", "1e160"), 0),
    # verify takes hbar and ell0 in [1e-150, 1e150]; its params.* checks
    # leave the float range at 1e154 and at 1e-154 to 1e-158
    *((("verify", "--only", "params.*", f"--{name}", val), code)
      for name in ("hbar", "ell0")
      for val, code in (("1e150", 0), ("1.0000000000000002e150", 2),
                        ("1e-150", 0), ("9.999999999999999e-151", 2))),
])
def test_domain_edges(capsys, argv, code):
    got, out, err = run_cli(capsys, *argv)
    assert got == code, err
    assert (out == "") == (code == 2)


def test_moments_large_squeezing(capsys):
    # dp = e^{-40}/sqrt(2), which cosh 80 - sinh 80 used to round to 0
    code, out, err = run_cli(capsys, "moments", "--u0", "1", "--z", "40")
    assert code == 0, err
    row = json.loads(out)
    assert row["dq"] == pytest.approx(math.exp(40) / math.sqrt(2), rel=1e-15)
    assert row["dp"] == pytest.approx(math.exp(-40) / math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("z", ["18@0.3", "20@3.141592653589793"])
def test_wavefn_large_squeezing(capsys, z):
    # |psi(q0 + k dq)|^2 = e^{-k^2/2} |psi(q0)|^2 at k = 0, 1, 2: at 18@0.3
    # the lab-frame exponent gave |psi|^2 4.5% and 19% high at k = 1 and 2,
    # and at 20@pi its width cancelled to 0
    _, out, _ = run_cli(capsys, "moments", "--u0", "0", "--z", z)
    dq = json.loads(out)["dq"]
    code, out, err = run_cli(capsys, "wavefn", "--u0", "0", "--z", z,
                             "--qmin", "0", "--qmax", repr(2 * dq),
                             "--samples", "3")
    assert code == 0, err
    rows = list(csv.DictReader(
        [l for l in out.splitlines() if not l.startswith("#")]))
    abs2 = [float(r["abs2"]) for r in rows]
    peak = 1.0 / math.sqrt(2 * math.pi * dq * dq)
    assert abs2 == pytest.approx([peak, peak * math.exp(-0.5),
                                  peak * math.exp(-2.0)], rel=1e-13, abs=0)


@pytest.mark.parametrize("argv,abs2", [
    (("--u0=1e200",), [0.0, 0.0, 0.0]),
    (("--ell0", "1e-155"), [0.0, 1e155 / math.sqrt(math.pi), 0.0]),
    (("--qmin", "1e308"), [0.0, 0.0, math.exp(-16) / math.sqrt(math.pi)]),
])
def test_wavefn_far_tail_underflows_without_warning(capsys, argv, abs2):
    # ((q - q0)/dq)^2 overflows at the rows that read 0: |psi| underflows
    # there at any width.  The peak at ell0 = 1e-155 is exp(2 Re log psi)
    # with Re log psi near 178, so it keeps about 178 eps
    code, out, err = run_cli(capsys, "wavefn", *argv, "--samples", "3")
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(
        [l for l in out.splitlines() if not l.startswith("#")]))
    assert [float(r["abs2"]) for r in rows] == pytest.approx(abs2, rel=1e-12,
                                                             abs=0)


def _wavefn_rows(out):
    return list(csv.DictReader(
        [l for l in out.splitlines() if not l.startswith("#")]))


@pytest.mark.parametrize("argv,abs2", [
    # x = (q - q0)/dq overflows, and -0.0 * inf in the chirp was NaN
    (("--qmin", "1e308", "--ell0", "1e-155"), [0.0, 0.0, 0.0]),
    # q p0 / hbar overflows, and the division by hbar turned 0 + inf i
    # into NaN
    (("--qmin", "1e308", "--u0=3j"),
     [0.0, 0.0, math.exp(-16) / math.sqrt(math.pi)]),
    # the chirp corr x^2 / (4 hbar) overflows while -x^2/4 stays finite
    (("--z", "300j", "--qmin", "1e160"),
     [0.0, 0.0, 1 / (math.sqrt(2 * math.pi) * 9.712131976206279e129)]),
])
def test_wavefn_phase_overflow_where_psi_underflows(capsys, argv, abs2):
    # each row was nan with an invalid-value warning: psi is 0 there
    # whatever its phase, since its real log is below exp's underflow
    code, out, err = run_cli(capsys, "wavefn", *argv, "--samples", "3")
    assert (code, err) == (0, "")
    rows = _wavefn_rows(out)
    assert all(math.isfinite(float(r[k])) for r in rows
               for k in ("re_psi", "im_psi", "abs2"))
    assert [float(r["abs2"]) for r in rows] == pytest.approx(abs2, rel=1e-12,
                                                             abs=0)


@pytest.mark.parametrize("argv", [
    # |psi| is near its peak at q ~ dq = e^{300}/sqrt(2), where q p0 / hbar
    # overflows
    ("--z", "300", "--u0=1e200j", "--qmin", "1e130", "--qmax", "1e131"),
    # 1/hbar overflows in the phase q p0 / hbar
    ("--hbar", "1e-310",),
])
def test_wavefn_lost_phase_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "wavefn", *argv, "--samples", "3")
    assert (code, out) == (2, "")
    assert "phase of psi" in err


def test_overlap_identical_states(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--z2", "0.5@0.7", "--u2", "1+1i",
                           "--z1", "0.5@0.7", "--u1", "1+1i")
    assert code == 0
    row = json.loads(out)
    assert row["modulus"] == pytest.approx(1.0, rel=1e-13)


def test_overlap_centerless_value(capsys):
    code, out, _ = run_cli(capsys, "overlap", "--z2", "0", "--u2", "0",
                           "--z1", "0.8", "--u1", "0")
    row = json.loads(out)
    assert row["value_re"] == pytest.approx(math.cosh(0.8) ** -0.5, rel=1e-12)
    assert row["value_im"] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("oracle", ["fock", "quad"])
def test_overlap_oracle_agreement(capsys, oracle):
    code, out, _ = run_cli(capsys, "overlap", "--z2", "0.5@0.785", "--u2", "1",
                           "--z1", "0.3@-1.047", "--u1=-1i",
                           "--oracle", oracle)
    assert code == 0
    row = json.loads(out)
    assert row["abs_diff"] <= 1e-8
    # only the Fock oracle drops levels, and it says how much weight its
    # states hold in their top ones
    assert ("tail_mass" in row) == (oracle == "fock")
    assert row.get("tail_mass", 0.0) < 1e-30


def test_overlap_fock_oracle_reports_tail_mass(capsys):
    # 8 levels hold 0.459 of each state, so the oracle reads 0.459 against
    # the closed form's 1; tail_mass shows it, and the exit code stays 0
    code, out, _ = run_cli(capsys, "overlap", "--z2", "1.5", "--u2", "3",
                           "--z1", "1.5", "--u1", "3", "--oracle", "fock",
                           "--fock-dim", "8")
    assert code == 0
    row = json.loads(out)
    assert list(row)[-1] == "tail_mass"
    assert row["value_re"] == pytest.approx(1.0, rel=1e-14)
    assert row["oracle_re"] == pytest.approx(0.459, abs=5e-4)
    assert row["tail_mass"] == pytest.approx(0.459, abs=5e-4)


def test_overlap_quad_oracle_chirped_pair(capsys):
    # theta near pi/2 and a momentum offset: the fixed 160-node rule scaled
    # to the position spreads alone stopped short of rel_tol here (exit 3)
    code, out, err = run_cli(
        capsys, "overlap", "--z2=5.788354512206021e-17+0.9453100299998496i",
        "--u2=-1.663218999432103+1.7300964515910233i",
        "--z1=-0.8116188163818729-0.6289971026626632i",
        "--u1=-0.011912317889045659-0.011929218822101033i", "--oracle=quad")
    assert code == 0, err
    assert json.loads(out)["abs_diff"] <= 1e-8


@pytest.mark.parametrize("r", ["19", "20", "40"])
def test_overlap_large_squeezing_self_overlap(capsys, r):
    code, out, err = run_cli(capsys, "overlap", "--z2", r, "--u2", "0.5",
                             "--z1", r, "--u1", "0.5")
    assert code == 0, err
    row = json.loads(out)
    assert (row["value_re"], row["value_im"], row["modulus"]) == (1.0, 0.0, 1.0)


def test_wavefn_vacuum_csv(capsys, tmp_path):
    path = tmp_path / "wf.csv"
    code, out, _ = run_cli(capsys, "wavefn", "--u0", "0", "--z", "0",
                           "--qmin", "-4", "--qmax", "4",
                           "--samples", "129", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    rows = list(csv.DictReader([l for l in lines if not l.startswith("#")]))
    assert len(rows) == 129
    assert [c for c in rows[0]] == ["q", "re_psi", "im_psi", "abs2"]
    qs = np.array([float(r["q"]) for r in rows])
    re = np.array([float(r["re_psi"]) for r in rows])
    im = np.array([float(r["im_psi"]) for r in rows])
    assert np.max(np.abs(im)) < 1e-15
    assert np.max(np.abs(re - re[::-1])) < 1e-15  # symmetric Gaussian
    assert re[64] == pytest.approx(math.pi ** -0.25, rel=1e-12)
    assert qs[0] == -4.0 and qs[-1] == 4.0


def test_wavefn_coherent_peak(capsys):
    code, out, _ = run_cli(capsys, "wavefn", "--u0", "1", "--z", "0",
                           "--qmin", "-2", "--qmax", "5", "--samples", "281")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(body))
    abs2 = np.array([float(r["abs2"]) for r in rows])
    qs = np.array([float(r["q"]) for r in rows])
    assert qs[np.argmax(abs2)] == pytest.approx(math.sqrt(2.0), abs=0.03)


def test_wavefn_squeezed_width(capsys):
    # second moment of the sampled density reproduces dq
    code, out, _ = run_cli(capsys, "wavefn", "--u0", "0", "--z", "1@1.5708",
                           "--qmin", "-8", "--qmax", "8", "--samples", "401")
    body = [l for l in out.splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(body))
    qs = np.array([float(r["q"]) for r in rows])
    abs2 = np.array([float(r["abs2"]) for r in rows])
    dq = math.sqrt(np.trapezoid(qs**2 * abs2, qs) / np.trapezoid(abs2, qs))
    expected = math.sqrt(0.5 * math.cosh(2.0))
    assert dq == pytest.approx(expected, rel=1e-3)


def test_byte_identical_reruns(capsys):
    args = ("overlap", "--z2", "0.4@0.3", "--u2", "1+1i", "--z1", "0.2",
            "--u1", "0.5", "--oracle", "fock")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_json_floats_roundtrip(capsys):
    _, out, _ = run_cli(capsys, "moments", "--u0", "0.1+0.7i", "--z", "0.9@2")
    row = json.loads(out)
    from srsqueeze.params import Constants, Labels, labels_to_moments

    m = labels_to_moments(Labels.from_z(0.1 + 0.7j, 0.9 * np.exp(2j)),
                          Constants())
    assert row["dq"] == m.dq  # exact round-trip through the JSON text


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "moments", "--u0", "1", "--z", "0",
                           "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert float(rows[0]["q0"]) == pytest.approx(math.sqrt(2.0))


def test_kernel_csv_prints_plain_numbers(capsys):
    # the coefficients are numpy scalars, whose repr names their type
    argv = ("kernel", "--op", "P", "--z", "0.4")
    _, out, _ = run_cli(capsys, *argv)
    want = [(r["coeff_re"], r["coeff_im"]) for r in json.loads(out)]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [(float(r["coeff_re"]), float(r["coeff_im"])) for r in rows] == want


def test_kernel_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--op", "N", "--z", "0.4")
    assert code == 0
    rows = json.loads(out)
    table = {(r["power_w"], r["power_wbar"]): r["coeff_re"] for r in rows}
    assert table[(0, 0)] == -1.0
    assert table[(1, 1)] == 1.0


def test_kernel_at_large_squeezing(capsys):
    # P = i e^{-r} (a(z)^dag - a(z))/sqrt(2) at theta = 0; the cancelling
    # cosh r - sinh r rounded it, and so the symbol, to 0 at r = 20
    code, out, err = run_cli(capsys, "kernel", "--op", "P2", "--z", "20")
    assert code == 0, err
    table = {(r["power_w"], r["power_wbar"]): r["coeff_re"]
             for r in json.loads(out)}
    e = math.exp(-40)
    assert table == pytest.approx({(0, 0): -e / 2, (0, 2): -e / 2,
                                   (1, 1): e, (2, 0): -e / 2},
                                  rel=1e-14, abs=0)


def test_verify_subset(capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "params.*")
    assert code == 0
    assert "params.roundtrip" in out


def test_verify_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--only", "params.roundtrip",
                           "--out", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload[0]["check_id"] == "params.roundtrip"


def test_verify_truncation_failure_exit_code(capsys):
    code, out, err = run_cli(capsys, "verify", "--only",
                             "verify.saturation_scan", "--scan-dim", "48")
    assert code == 1
    assert "verify.defining_residual" in err


def test_verify_bound_override(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "params.roundtrip",
                           "--bound", "params.roundtrip=1e-30")
    assert code == 1
    assert "params.roundtrip" in err


def test_verify_bound_override_reaches_synthesis(capsys):
    code, out, err = run_cli(capsys, "verify", "--only", "wavefn.fock_synthesis",
                             "--bound", "wavefn.fock_synthesis=0.01")
    assert code == 1
    assert "wavefn.fock_synthesis" in err
    assert "1.0e-02" in out


def test_verify_only_a_result_id(capsys):
    # jacobian_unit is reported by the kernels.variable_change check
    code, out, _ = run_cli(capsys, "verify", "--only", "kernels.jacobian_unit")
    assert code == 0
    assert any(line.startswith("kernels.jacobian_unit ")
               and line.endswith("PASS") for line in out.splitlines())


def test_verify_bad_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nothing.matches")
    assert code == 2


def test_verify_bad_bound_value(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "params.roundtrip",
                           "--bound", "params.roundtrip=abc")
    assert code == 2
    assert "bound" in err


def test_resolve_identity(capsys):
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", "0",
                           "--dim-check", "4", "--order", "24")
    assert code == 0
    row = json.loads(out)
    assert row["measured"] < 1e-8
    assert row["passed"] is True


def test_resolve_identity_highest_order(capsys):
    # the highest order accepted: the sums at orders 185 and 186 are
    # compared, and 185 is the top of the range every Gauss-Hermite spec
    # takes
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", "0.5",
                           "--dim-check", "4", "--order", "185")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_resolve_identity_unconverged_exit(capsys):
    # a hopelessly low order cannot resolve the z=1.2 geometry
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", "1.2",
                           "--dim-check", "16", "--order", "3")
    assert code == cli.EXIT_NOT_CONVERGED


@pytest.mark.parametrize("z", ["12@0.7", "19@0.3", "20@0.7", "300@0.3", "350@0.7"])
def test_resolve_identity_passes_at_large_r(capsys, z):
    # the frame rule and recurrence keep every amplitude finite and exact;
    # a RuntimeWarning would fail the test
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", z,
                           "--dim-check", "4")
    assert code == 0
    row = json.loads(out)
    assert row["passed"] is True
    assert row["order"] == 4


def test_config_file_defaults(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"hbar": 2.0}))
    _, out, _ = run_cli(capsys, "moments", "--config", str(cfgfile))
    row = json.loads(out)
    assert row["dp"] == pytest.approx(2.0 / math.sqrt(2.0))
    # explicit flag wins over the config file
    _, out, _ = run_cli(capsys, "moments", "--config", str(cfgfile),
                        "--hbar", "1.0")
    row = json.loads(out)
    assert row["dp"] == pytest.approx(1.0 / math.sqrt(2.0))


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as info:
        cli.main(["overlap", "--badflag"])
    assert info.value.code == 2


# a working call of each subcommand
_BASE_ARGV = {
    "moments": ["moments"],
    "overlap": ["overlap"],
    "wavefn": ["wavefn", "--samples", "9"],
    "kernel": ["kernel"],
    "verify": ["verify", "--only", "params.roundtrip"],
    "resolve-identity": ["resolve-identity", "--z", "0.5", "--dim-check", "4"],
}


def _subcommand_options():
    """Each subcommand's option strings, read from the parser."""
    top = cli.build_parser()
    sub, = (a for a in top._actions
            if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions
                   for opt in action.option_strings} - {"-h", "--help"}
            for name, parser in sub.choices.items()}


_OPTIONS = _subcommand_options()
# options that no subcommand takes any more
_DELETED = ("--seed", "--max-degree")
# every pair of a subcommand and an option another subcommand takes and
# this one does not, or a deleted one
_UNREAD = [(command, flag) for command, opts in _OPTIONS.items()
           for flag in sorted(set().union(*_OPTIONS.values()) - opts)
           + list(_DELETED)]


def test_base_argv_covers_every_subcommand():
    assert set(_BASE_ARGV) == set(_OPTIONS)
    # the options a subcommand never reads include these
    assert {("resolve-identity", "--hbar"), ("wavefn", "--format"),
            ("verify", "--format"), ("moments", "--fock-dim")} <= set(_UNREAD)


@pytest.mark.parametrize("command", sorted(_BASE_ARGV))
def test_base_command_runs(capsys, command):
    assert run_cli(capsys, *_BASE_ARGV[command])[0] == 0


@pytest.mark.parametrize("command,flag", _UNREAD,
                         ids=[f"{cmd}{flag}" for cmd, flag in _UNREAD])
def test_subcommand_rejects_options_it_does_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        cli.main(_BASE_ARGV[command] + [flag, "1"])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_key_a_subcommand_does_not_read_is_usage_error(capsys,
                                                              tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"scan_dim": 48}))
    assert run_cli(capsys, "verify", "--only", "params.roundtrip",
                   "--config", str(cfgfile))[0] == 0
    with pytest.raises(SystemExit) as info:
        cli.main(["moments", "--config", str(cfgfile)])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--config", "{cfg}", "moments"],
    ["--config={cfg}", "moments"],
    ["moments", "--config", "{cfg}"],
    ["moments", "--config={cfg}"],
])
def test_config_file_both_spellings_either_side(capsys, tmp_path, argv):
    # --config=PATH before the subcommand was dropped by argparse, after it
    # exited 2
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"hbar": 2.0}))
    code, out, err = run_cli(capsys, *(a.format(cfg=cfgfile) for a in argv))
    assert code == 0, err
    assert json.loads(out)["dp"] == pytest.approx(2.0 / math.sqrt(2.0))


@pytest.mark.parametrize("argv", [
    # abbreviations of --config, --fock-dim, --from-moments and
    # --saturation-tol each ran as the full option
    ["--conf", "{cfg}", "moments"],
    ["overlap", "--fock", "8", "--oracle", "fock"],
    ["moments", "--from", "dq=1,dp=0.5", "--sat", "1e-3"],
    ["moments", "--from-moments", "dq=1,dp=0.5", "--saturation", "1e-3"],
])
def test_options_take_no_abbreviation(capsys, tmp_path, argv):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"hbar": 2.0}))
    with pytest.raises(SystemExit) as info:
        cli.main([a.format(cfg=cfgfile) for a in argv])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [
    ["--hbar", "2", "moments"],
    ["--conf", "{cfg}", "moments"],
])
def test_option_before_the_subcommand_names_itself(capsys, tmp_path, argv):
    # argparse took the option's value for the subcommand name and reported
    # "invalid choice: '2'"
    cfgfile = tmp_path / "h.json"
    cfgfile.write_text(json.dumps({"hbar": 2.0}))
    with pytest.raises(SystemExit) as info:
        cli.main([a.format(cfg=cfgfile) for a in argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[0]}" in err
    assert "invalid choice" not in err


def test_config_key_takes_no_abbreviation(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"fock": 8}))
    with pytest.raises(SystemExit) as info:
        cli.main(["overlap", "--oracle", "fock", "--config", str(cfgfile)])
    assert info.value.code == 2
    assert "unrecognized arguments: --fock=8" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload,key", [
    # an AttributeError traceback
    (["moments"], [1, 2], None),
    # ran as --only "['params.roundtrip']"
    (["verify"], {"only": ["params.roundtrip"]}, "only"),
    # ran as --u0 None
    (["moments"], {"u0": None}, "u0"),
    (["moments"], {"hbar": 2.0, "z": {"r": 1}}, "z"),
])
def test_config_file_holds_an_object_of_scalars(capsys, tmp_path, command,
                                                payload, key):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(payload))
    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--config", str(cfgfile)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert str(cfgfile) in err
    assert key is None or repr(key) in err
    assert "Traceback" not in err


def test_config_value_may_start_with_a_minus(capsys, tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"u0": "-1i"}))
    code, out, err = run_cli(capsys, "moments", "--config", str(cfgfile))
    assert code == 0, err
    assert json.loads(out)["p0"] == pytest.approx(-math.sqrt(2.0))


@pytest.mark.parametrize("argv", [
    ["verify", "--only", "params.roundtrip"],
    ["wavefn", "--samples", "9"],
])
def test_unwritable_out_file_exits_1(capsys, tmp_path, argv):
    # verify's report writer had no handler and ended in a traceback
    path = tmp_path / "missing" / "out"
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1
    assert err.startswith(f"error writing {path}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("spec", [
    # an unknown id was ignored, inf passed the check, nan and -1 failed it
    "params.rondtrip=1e-30", "params.roundtrip=inf", "params.roundtrip=nan",
    "params.roundtrip=-1",
])
def test_verify_bound_is_checked(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--only", "params.roundtrip",
                             "--bound", spec)
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")


def test_verify_every_only_pattern_must_match(capsys):
    # the first pattern matched, so the typo ran nothing and exited 0
    code, out, err = run_cli(capsys, "verify", "--only", "params.roundtrip",
                             "--only", "fock.unitarty")
    assert (code, out) == (2, "")
    assert err.startswith("usage error:")
    assert "fock.unitarty" in err
    assert "params.roundtrip" not in err


def test_resolve_identity_unconverged_says_why(capsys):
    # the row is printed, and the exit 3 came with an empty stderr
    code, out, err = run_cli(capsys, "resolve-identity", "--z", "0.5",
                             "--dim-check", "16", "--order", "2")
    assert code == cli.EXIT_NOT_CONVERGED
    assert json.loads(out)["order"] == 2
    assert err.startswith("numeric non-convergence: resolve-identity")


def _readme_commands():
    """The srsqueeze lines of the README's Command line block."""
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines()
            if line.startswith("srsqueeze ")]


def test_readme_command_block_is_found():
    assert len(_readme_commands()) >= 7


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_commands_exit_0(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *shlex.split(line)[1:])
    assert code == 0, err


_NO_SCIPY_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    from srsqueeze import cli

    def scipy_loaded():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    commands = [
        ["moments", "--u0=1+0.5i", "--z=0.3@0.4"],
        ["moments", "--from-moments=dq=1,dp=0.5"],
        ["overlap", "--z2=0.5@0.785", "--u2=1", "--z1=0.3@-1.047",
         "--u1=-1i", "--oracle=fock"],
        ["overlap", "--z2=0.5@0.785", "--u2=1", "--z1=0.3@-1.047",
         "--u1=-1i", "--oracle=quad"],
        ["wavefn", "--u0=1", "--z=0.4", "--samples=9"],
        ["kernel", "--op=Q2", "--z=0.4"],
        ["resolve-identity", "--z=0.5", "--dim-check=4"],
        ["verify", "--only=params.*"],
    ]
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        assert code == 0, (argv, code)
        if argv[0] == "overlap":
            # the overlap oracles come without the check suite
            assert "srsqueeze.oracles" in sys.modules, argv
            assert "srsqueeze.verify" not in sys.modules, argv
    assert scipy_loaded() == [], scipy_loaded()
    # resolve-identity and verify load the check suite; the checks that
    # once called scipy (gammaln through fock.displacement, eigh_tridiagonal,
    # expm and logm) run on numpy alone too
    assert "srsqueeze.verify" in sys.modules
    from srsqueeze import verify
    ids = ["bch.f_matrix_log", "bch.su11_defining_rep",
           "fock.displacement_vs_exp", "fock.squeeze_factored_vs_exp",
           "fock.squeeze_truncation_decay"]
    results = verify.run_suite(only=ids)
    assert sorted(r.check_id for r in results) == ids, results
    assert all(r.passed for r in results), results
    assert scipy_loaded() == [], scipy_loaded()
    # positive control: the probe sees scipy once it is imported
    import scipy.linalg
    assert "scipy.linalg" in scipy_loaded(), scipy_loaded()
""")


_NO_NUMPY_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    from srsqueeze import cli

    def loaded():
        return sorted(m for m in sys.modules
                      if m.split(".")[0] in ("numpy", "srsqueeze"))

    commands = [
        (["moments", "--u0=1+0.5i", "--z=0.3@0.4"], 0),
        (["moments", "--from-moments=dq=1,dp=0.5"], 0),
        (["moments", "--from-moments=dq=1,dp=1"], 1),
        (["moments", "--z=355.3"], 2),
    ]
    for argv, want in commands:
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code == want, (argv, code)
    assert loaded() == ["srsqueeze", "srsqueeze.cli", "srsqueeze.params"], \\
        loaded()
    # positive control: the probe does see numpy once a command loads it
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["wavefn", "--samples=3"]) == 0
    assert "numpy" in loaded(), loaded()
""")


def test_moments_command_does_not_import_numpy():
    # moments is params' pure math/cmath code; the CLI imports each
    # numerical layer inside the subcommand that uses it, so moments, its
    # inverse and their errors (exit 1 and 2) start without numpy
    proc = subprocess.run([sys.executable, "-c", _NO_NUMPY_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_oneshot_commands_do_not_import_scipy():
    # numpy is the package's one dependency: every one-shot command and
    # every check runs without scipy, which serves the tests as a reference
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_RLIMIT_PROBE = textwrap.dedent("""
    import resource, sys
    # 3 GB of address space: the sizes below ask for far more
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
    from srsqueeze import cli
    sys.exit(cli.main(sys.argv[1:]))
""")


@pytest.mark.parametrize("argv,size", [
    (["wavefn", "--samples", "2000000000"], "14.9 GiB"),
    (["overlap", "--oracle", "fock", "--fock-dim", "2000000000"], "59.6 GiB"),
])
def test_allocation_failure_is_usage_error(argv, size):
    # run only under the child's own address-space limit, so a failed
    # allocation cannot load the machine
    proc = subprocess.run([sys.executable, "-c", _RLIMIT_PROBE, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error: out of memory:"), proc.stderr
    assert size in proc.stderr and "Traceback" not in proc.stderr, proc.stderr
