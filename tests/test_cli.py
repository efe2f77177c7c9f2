import csv
import io
import json
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from srsqueeze import cli


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
    with pytest.raises(cli.UsageError):
        cli.parse_complex("nope")
    with pytest.raises(cli.UsageError):
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
    ("--u0", "1", "--z", "40"),
    ("--u0", "1", "--z", "400"),
    ("--from-moments", "dq=-1,dp=1"),
    ("--from-moments", "dq=inf,dp=1"),
])
def test_moments_bad_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, "moments", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


@pytest.mark.parametrize("argv", [
    ("wavefn", "--u0", "0", "--z", "40"),
    ("overlap", "--z2", "0", "--u2", "0", "--z1", "40", "--u1", "0",
     "--oracle", "quad"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "4", "--order", "1"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "4", "--order", "200"),
    ("resolve-identity", "--z", "400", "--dim-check", "4"),
    ("resolve-identity", "--z", "800", "--dim-check", "4"),
    ("resolve-identity", "--z", "0.5", "--dim-check", "0"),
    ("overlap", "--oracle", "fock", "--fock-dim", "0"),
    ("overlap", "--oracle", "fock", "--fock-dim", "1"),
    ("overlap", "--z2", "400", "--u2", "2", "--z1", "400@1.5708", "--u1", "1"),
])
def test_out_of_range_input_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


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


def test_kernel_subcommand(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--op", "N", "--z", "0.4")
    assert code == 0
    rows = json.loads(out)
    table = {(r["power_w"], r["power_wbar"]): r["coeff_re"] for r in rows}
    assert table[(0, 0)] == -1.0
    assert table[(1, 1)] == 1.0


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


def test_verify_bad_filter(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nothing.matches")
    assert code == 2


def test_verify_bad_bound_value(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "params.roundtrip",
                           "--bound", "params.roundtrip=abc")
    assert code == 2
    assert "bound" in err


def test_kernel_degree_limit_exit(capsys):
    code, _, err = run_cli(capsys, "kernel", "--op", "Q2", "--z", "0",
                           "--max-degree", "1")
    assert code == 2
    assert "degree" in err


def test_resolve_identity(capsys):
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", "0",
                           "--dim-check", "4", "--order", "24")
    assert code == 0
    row = json.loads(out)
    assert row["measured"] < 1e-8
    assert row["passed"] is True


def test_resolve_identity_highest_order(capsys):
    # the order-doubled rule runs at 370, the highest the rules support
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", "0.5",
                           "--dim-check", "4", "--order", "185")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_resolve_identity_unconverged_exit(capsys):
    # a hopelessly low order cannot resolve the z=1.2 geometry
    code, out, _ = run_cli(capsys, "resolve-identity", "--z", "1.2",
                           "--dim-check", "16", "--order", "3")
    assert code == cli.EXIT_NOT_CONVERGED


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


@pytest.mark.parametrize("flag", [("--hbar", "2"), ("--ell0", "2"),
                                  ("--seed", "3"), ("--fock-dim", "64")])
def test_resolve_identity_rejects_options_it_does_not_read(capsys, flag):
    argv = ["resolve-identity", "--z", "0.5", "--dim-check", "4"]
    assert run_cli(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as info:
        cli.main(argv + list(flag))
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_NO_SCIPY_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    from srsqueeze import cli, verify

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
    assert scipy_loaded() == [], scipy_loaded()
    # positive control: the probe does see scipy once an oracle loads it
    results = verify.run_suite(
        only=["bch.f_matrix_log", "fock.squeeze_factored_vs_exp"])
    assert sorted(r.check_id for r in results) == [
        "bch.f_matrix_log", "fock.squeeze_factored_vs_exp"], results
    assert all(r.passed for r in results), results
    assert "scipy.linalg" in scipy_loaded(), scipy_loaded()
""")


def test_oneshot_commands_do_not_import_scipy():
    # scipy serves only the oracles; the closed forms and every one-shot
    # command below run on numpy alone, so a process saves scipy's import
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
