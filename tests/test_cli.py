"""Command-line surface: resolution order, manifests, determinism, formats."""

import contextlib
import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gwimm.cli import main
from gwimm.laws import LawParams
from gwimm.limits import THEOREMS

try:
    import tomllib
except ModuleNotFoundError:           # Python 3.10
    tomllib = pytest.importorskip("tomli")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_validate_report(capsys):
    rc, out, _ = run(["validate"], capsys)
    assert rc == 0
    assert "regime: R1" in out
    assert "sigma: 2.0" in out
    assert "valid: yes" in out


def test_validate_rejects_bad_params(capsys):
    rc, _, err = run(["validate", "--kappa1", "0.9"], capsys)
    assert rc == 2
    assert "gwimm: error:" in err


def test_validate_rejects_infinite_kappa2(capsys):
    rc, out, err = run(["validate", "--kappa2", "inf"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gwimm: error: kappa2=inf")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "regime"])
def test_underflowing_kappa1_nu_is_rejected(command, capsys):
    # kappa1*nu = 0 in float64 used to divide by zero in classify_regime
    rc, out, err = run([command, "--kappa1", "5e-324", "--nu", "0.5"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gwimm: error: kappa1=5e-324")
    assert err.count("\n") == 1


# the closed unit interval: 0, subnormals, the smallest normal float, 1
CLOSED_UNIT = st.floats(min_value=0.0, max_value=1.0)


# tiny run sizes, so every subcommand runs quickly anywhere in the box
SIZE_ARGS = {
    "validate": [], "regime": [], "pmf": [],
    "simulate": ["--horizon", "3", "--cap", "1000"],
    "survival": ["--horizon", "2", "--reps", "64", "--M", "16",
                 "--cap", "1000"],
    "limits": ["--n-grid", "20,40", "--s-grid", "0.5,1"],
}


@settings(max_examples=250, deadline=None)
@given(command=st.sampled_from(sorted(SIZE_ARGS)),
       model=st.sampled_from(["z", "stopped", "gated"]),
       theorem=st.sampled_from(THEOREMS),
       nmax=st.sampled_from([1, 10, 1000]),
       nu=CLOSED_UNIT, theta=CLOSED_UNIT, delta=CLOSED_UNIT,
       kappa0=CLOSED_UNIT, frac=CLOSED_UNIT,
       kappa2=st.floats(min_value=0.0, max_value=1e300))
@example(command="validate", model="stopped", theorem="balanced_strong",
         nmax=1, nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, frac=5e-324,
         kappa2=1.0)
@example(command="regime", model="stopped", theorem="balanced_strong",
         nmax=1000, nu=0.5, theta=1.0, delta=1.0, kappa0=1.0, frac=5e-324,
         kappa2=1.0)
# a Sibuya draw far in the tail used to overflow math.exp
@example(command="simulate", model="stopped", theorem="balanced_strong",
         nmax=1000, nu=1.0, theta=1.0, delta=0.001, kappa0=1.0, frac=1.0,
         kappa2=1.0)
# kappa2**(1/theta) used to overflow the immigration mixture's scale
@example(command="simulate", model="z", theorem="balanced_strong", nmax=1,
         nu=1.0, theta=0.5, delta=1.0, kappa0=1.0, frac=1.0,
         kappa2=1.3407807929942597e+154)
# 1 - delta rounds to 1: the Sibuya tail walk used to divide by zero
@example(command="simulate", model="z", theorem="balanced_strong", nmax=1,
         nu=1.0, theta=1.0, delta=1.1754943508222875e-38, kappa0=1.0,
         frac=1.0, kappa2=1.0)
# Poisson immigration past numpy's limit used to raise at theta = 1
@example(command="simulate", model="stopped", theorem="balanced_strong",
         nmax=1, nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0,
         kappa2=1e19)
# an UNCOVERED law has no tail constant for the balanced_weak K5 fit
@example(command="limits", model="z", theorem="balanced_weak", nmax=1,
         nu=4.935555771785777e-87, theta=1.0, delta=4.143994986111037e-137,
         kappa0=1.0, frac=0.5, kappa2=5e-324)
# sigma = 1024 and 9988: (1 + s)^sigma used to overflow before gamma_k^(0)
# scaled it down, and at 9988 the weight itself is beyond float64
@example(command="limits", model="stopped", theorem="gamma_balanced", nmax=1,
         nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0, kappa2=512.0)
@example(command="limits", model="stopped", theorem="gamma_balanced", nmax=1,
         nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0, kappa2=4994.0)
# sigma = kappa2/(kappa1*nu) overflows to inf, and inf * log1p(0) is nan
@example(command="limits", model="stopped", theorem="gamma_balanced", nmax=1,
         nu=1.0, theta=1.0, delta=1.0, kappa0=1.0,
         frac=4.450147717014403e-308, kappa2=1e300)
# kappa2 * S_k beyond float64: the cast to float64 used to warn, and the
# gamma weight read -inf + inf = nan
@example(command="limits", model="stopped", theorem="balanced_strong",
         nmax=1, nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0,
         kappa2=1.7e308)
@example(command="limits", model="stopped", theorem="unstopped_balanced",
         nmax=1, nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0,
         kappa2=1.7e308)
@example(command="limits", model="stopped", theorem="gamma_balanced",
         nmax=1, nu=1.0, theta=1.0, delta=1.0, kappa0=1.0, frac=1.0,
         kappa2=1.7e308)
def test_no_traceback_over_the_box(command, model, theorem, nmax, nu, theta,
                                   delta, kappa0, frac, kappa2):
    # kappa1 = frac/(1+nu) spans (0, 1/(1+nu)]; inadmissible corners
    # must end in exit 2 with one line, never in an exception
    argv = [command, "--nmax", str(nmax), "--model", model,
            "--theorem", theorem, *SIZE_ARGS[command]]
    for key, val in (("nu", nu), ("theta", theta), ("delta", delta),
                     ("kappa0", kappa0), ("kappa1", frac / (1.0 + nu)),
                     ("kappa2", kappa2)):
        argv += ["--" + key, repr(val)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 2), argv
    if rc == 2:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())


def test_pmf_offspring_rows(tmp_path, capsys):
    out = tmp_path / "pmf.csv"
    rc, _, _ = run(["pmf", "--law", "offspring", "--nmax", "4",
                    "--out", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# truncation_mass=0.0"
    assert lines[1] == "k,p"
    assert lines[2] == "0,0.5"
    assert lines[3] == "1,0.0"
    assert lines[4] == "2,0.5"
    manifest = (tmp_path / "pmf.csv.manifest").read_text()
    assert "command=pmf" in manifest
    assert "law=offspring" in manifest


@pytest.mark.parametrize("law", ["offspring", "immigration", "initial"])
def test_pmf_beyond_the_address_space_exits_2(law, capsys):
    # 7 PiB of float64: no machine can map it, so nothing is allocated
    rc, out, err = run(["pmf", "--law", law, "--nmax", str(10 ** 15)],
                       capsys)
    assert rc == 2 and out == ""
    assert err.startswith("gwimm: error: ") and err.count("\n") == 1


def test_manifest_reproduces_run_byte_identically(tmp_path, capsys):
    a = tmp_path / "a.csv"
    rc, _, _ = run(["survival", "--horizon", "5", "--reps", "2000",
                    "--seed", "3", "--threads", "2", "--M", "256",
                    "--out", str(a)], capsys)
    assert rc == 0
    b = tmp_path / "b.csv"
    rc, _, _ = run(["survival", "--config", str(a) + ".manifest",
                    "--out", str(b)], capsys)
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_come_from_the_options_alone(tmp_path, capsys,
                                             monkeypatch):
    # the environment supplies no thread count: without --threads the
    # manifest records the default, 1
    monkeypatch.setenv("GWI_THREADS", "3")
    out = tmp_path / "v.txt"
    rc, _, _ = run(["validate", "--out", str(out)], capsys)
    assert rc == 0
    manifest = (tmp_path / "v.txt.manifest").read_text().splitlines()
    assert "threads=1" in manifest


def test_config_file_and_cli_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\nkappa2=0.25\nkappa1=0.5\n")
    rc, out, _ = run(["validate", "--config", str(cfgfile)], capsys)
    assert rc == 0
    assert "regime: R3" in out                    # file value used
    rc, out, _ = run(["validate", "--config", str(cfgfile),
                      "--kappa2", "1.0"], capsys)
    assert "regime: R1" in out                    # command line wins


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("kappa9=0.25\n")
    rc, _, err = run(["validate", "--config", str(cfgfile)], capsys)
    assert rc == 2
    assert "kappa9" in err


def test_simulate_csv(tmp_path, capsys):
    out = tmp_path / "path.csv"
    rc, _, _ = run(["simulate", "--horizon", "8", "--seed", "1",
                    "--out", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# life=")
    assert lines[1].startswith("# censoring=")
    assert lines[2] == "n,value"
    rows = [l.split(",") for l in lines[3:]]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    life = lines[0].split("=", 1)[1]
    if life != "none":
        assert int(rows[int(life)][1]) == 0


def test_survival_table_consistency(tmp_path, capsys):
    out = tmp_path / "u.csv"
    rc, _, _ = run(["survival", "--horizon", "10", "--reps", "20000",
                    "--M", "256", "--seed", "2", "--out", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == ["# model=stopped", "# given=X_0>0"]
    lines = [ln for ln in lines if not ln.startswith("#")]
    assert lines[0] == "n,u_renewal,dp_lower,dp_upper,u_mc,mc_se,censored"
    for ln in lines[1:]:
        n, ur, lo, hi, umc, se, cens = ln.split(",")
        assert float(lo) - 1e-9 <= float(ur) <= float(hi) + 1e-9
        assert abs(float(umc) - float(ur)) < 5.0 * max(float(se), 1e-12)


@pytest.mark.parametrize("extra", [["--kappa0", "0.5"],
                                   ["--model", "gated"],
                                   ["--model", "z", "--kappa0", "0.3"]])
def test_survival_columns_measure_one_quantity(extra, capsys):
    # every column is P(X_n > 0 | X_0 > 0) under the chosen model: the
    # Monte Carlo lies within 5 se of the DP bracket, and the exact curve
    # of that model inside it
    rc, out, _ = run(["survival", "--horizon", "3", "--reps", "20000",
                      "--M", "256", *extra], capsys)
    assert rc == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,u_renewal,dp_lower,dp_upper,u_mc,mc_se,censored"
    for ln in lines[1:]:
        n, ur, lo, hi, umc, se, _ = (float(x) for x in ln.split(","))
        slack = 5.0 * se + 1e-9
        assert float(lo) - slack <= umc <= float(hi) + slack, ln
        assert lo - 1e-9 <= ur <= hi + 1e-9


@pytest.mark.parametrize("params", [
    LawParams(1.0, 1.0, 1.0, 1.0, 0.5, 0.25),
    LawParams(0.95, 1.0, 0.9, 0.5, 0.5, 0.3)], ids=["r3", "frac"])
@pytest.mark.parametrize("model", ["z", "gated"])
def test_survival_exact_column_inside_dp_bracket(model, params, capsys):
    # the exact column of z and gated is finite and inside the DP
    # bracket, padded by the roundoff allowance
    law = [f"--{f.name}={getattr(params, f.name)!r}"
           for f in dataclasses.fields(params)]
    rc, out, _ = run(["survival", "--horizon", "6", "--reps", "200",
                      "--M", "1024", "--model", model, *law], capsys)
    assert rc == 0
    rows = [ln.split(",") for ln in out.splitlines()
            if not ln.startswith("#")][1:]
    assert len(rows) == 7
    for _, ur, lo, hi, *_ in rows:
        ur, lo, hi = float(ur), float(lo), float(hi)
        assert math.isfinite(ur) and lo - 1e-9 <= ur <= hi + 1e-9


def test_simulate_far_sibuya_tail_exits_0(capsys):
    # the initial draw's tail walk used to overflow math.exp here
    rc, out, err = run(["simulate", "--delta", "0.001", "--horizon", "3",
                        "--seed", "1"], capsys)
    assert rc == 0 and "Error" not in err
    assert out.splitlines()[:3] == ["# life=none", "# censoring=cap",
                                    "n,value"]


def test_regime_fit_appears_above_length_threshold(capsys):
    rc, out, _ = run(["regime", "--kappa2", "0.25", "--nmax", "2000"],
                     capsys)
    assert rc == 0
    assert "regime: R3" in out
    assert "fitted_alpha:" in out
    rc, out, _ = run(["regime", "--kappa2", "0.25", "--nmax", "100"], capsys)
    assert "fitted_alpha:" not in out


def test_limits_table(capsys):
    rc, out, _ = run(["limits", "--theorem", "balanced_strong",
                      "--s-grid", "0.5,1", "--n-grid", "200,400"], capsys)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "# theorem=balanced_strong"
    assert lines[1] == "# monotone=yes"
    assert lines[2] == "n,s,computed,limit,deviation"
    assert len(lines) == 7
    limit_05 = float(lines[3].split(",")[3])
    assert limit_05 == pytest.approx((1.5) ** -2.0, rel=1e-12)


# each theorem id: flags that put the default law in its regime, and
# flags that put it outside
REGIME_FLAGS = {
    "heavy_immigration": (["--theta", "0.5"], []),
    "unstopped_heavy_immigration": (["--theta", "0.5"], []),
    "gamma_heavy_immigration": (["--theta", "0.5"], []),
    "balanced_strong": ([], ["--theta", "0.5"]),
    "unstopped_balanced": ([], ["--theta", "0.5"]),
    "gamma_balanced": ([], ["--theta", "0.5"]),
    "balanced_weak": (["--kappa2", "0.25"], []),
}


@pytest.mark.parametrize("theorem", THEOREMS)
@pytest.mark.parametrize("grid, want", [
    ([], "gwimm: error: needs theta"),
    (["--s-grid", "nan,1"], "gwimm: error: grids need finite s >= 0 and n"),
    (["--n-grid", "0,10"], "gwimm: error: grids need finite s >= 0 and n"),
    (["--n-grid", "1,99999999999999999999"],
     "gwimm: error: grids need finite s >= 0 and n")])
def test_limits_bad_input_exits_2_with_one_line(theorem, grid, want,
                                                capsys):
    # the wrong regime with the default grids, or a bad grid on the right
    # regime
    right, wrong = REGIME_FLAGS[theorem]
    rc, out, err = run(["limits", "--theorem", theorem,
                        *(right if grid else wrong), *grid], capsys)
    assert rc == 2 and out == ""
    assert err.startswith(want) and err.count("\n") == 1


def test_format_conversion(capsys):
    rc, out, _ = run(["validate", "--format", "csv"], capsys)
    assert rc == 0
    assert "regime,R1" in out.splitlines()
    rc, out, _ = run(["pmf", "--nmax", "2", "--format", "report"], capsys)
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert all("," not in r for r in rows)


def test_verify_passes_and_is_thread_invariant(tmp_path, capsys):
    f1 = tmp_path / "v1.txt"
    f2 = tmp_path / "v2.txt"
    assert main(["verify", "--seed", "1", "--threads", "1",
                 "--out", str(f1)]) == 0
    assert main(["verify", "--seed", "1", "--threads", "2",
                 "--out", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()
    text = f1.read_text()
    assert "result: PASS" in text
    assert "FAIL" not in text.replace("result: PASS", "")


def test_verify_pins_the_exact_z_and_gated_curves(capsys):
    # one line per chain: the exact curve inside the DP brackets
    lines = set()
    for threads in (1, 2, 3):
        rc, out, _ = run(["verify", "--seed", "0", "--threads",
                          str(threads)], capsys)
        assert rc == 0
        lines.add(tuple(line for line in out.splitlines()
                        if line.startswith("dp_bracket_contains_exact_")))
    (pins,) = lines
    assert [p.split(":")[0] for p in pins] == [
        "dp_bracket_contains_exact_z", "dp_bracket_contains_exact_gated"]
    assert all(": PASS (" in p for p in pins)


@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=-2 ** 64, max_value=2 ** 64))
@example(seed=0)
def test_verify_over_seeds_and_threads(seed):
    # rc 0 or 2 (then one stderr line), never a traceback, and the same
    # stdout for 1, 2 and 3 threads; a run takes about 0.5 s
    outs = set()
    for threads in (1, 2, 3):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["verify", "--seed", str(seed),
                       "--threads", str(threads)])
        assert rc in (0, 2), (seed, threads, out.getvalue())
        if rc == 2:
            assert err.getvalue().count("\n") == 1, err.getvalue()
        outs.add((rc, out.getvalue()))
    assert len(outs) == 1


def _run_launcher(launcher, argv):
    """Run `launcher` (a list of python arguments) with src importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *launcher, *argv], env=env,
                          capture_output=True, text=True)


def test_console_entry_point():
    # run the `gwimm` target declared in [project.scripts] the way an
    # installed console script does: sys.exit(<func>())
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gwimm"]
    module, func = target.split(":")
    shim = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = _run_launcher(["-c", shim], ["validate", "--kappa2", "0.5"])
    assert proc.returncode == 0
    assert "regime: R2" in proc.stdout
    assert "command=validate" in proc.stderr    # manifest echo on stderr


def test_module_entry_point():
    proc = _run_launcher(["-m", "gwimm"], ["validate", "--kappa2", "0.5"])
    assert proc.returncode == 0
    assert "regime: R2" in proc.stdout


@pytest.mark.parametrize("command,line", [
    ("verify", "seed = none"),
    ("survival", "threads = none"),
    ("survival", "M = none"),
    ("validate", "kappa1 = none"),
    ("validate", "format = xml"),
    ("pmf", "law = bogus"),
    ("survival", "model = unstopped"),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, line):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(line + "\n")
    rc, out, err = run([command, "--config", str(cfgfile)], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gwimm: error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config, want", [
    (["validate"], "seed 3\n", "gwimm: error: bad config line: 'seed 3'\n"),
    (["limits", "--s-grid", ","], None,
     "gwimm: error: empty grid spec ','\n"),
])
def test_bad_config_line_and_empty_grid_exit_2(tmp_path, capsys, argv,
                                                config, want):
    # a config line with no '=', and a grid with no value
    if config is not None:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(config)
        argv = [*argv, "--config", str(cfgfile)]
    rc, out, err = run(argv, capsys)
    assert (rc, out, err) == (2, "", want)


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_bad_threads_exits_2(capsys, threads):
    rc, out, err = run(["survival", "--threads", threads, "--horizon", "2",
                        "--M", "256", "--reps", "10"], capsys)
    assert rc == 2
    assert out == ""
    assert err == "gwimm: error: threads must be >= 1\n"


@pytest.mark.parametrize("command", ["survival", "simulate"])
@pytest.mark.parametrize("cap", ["0", "9223372036854775807"])
def test_bad_cap_exits_2(capsys, command, cap):
    rc, out, err = run([command, "--cap", cap, "--horizon", "2",
                        "--M", "256", "--reps", "10"], capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("gwimm: error: cap=")
    assert err.count("\n") == 1
