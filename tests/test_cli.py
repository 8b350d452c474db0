import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmtrace
from cmtrace import cli
from cmtrace.cli import build_parser, main

SRC = str(Path(cmtrace.__file__).resolve().parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_ap_both(capsys):
    code, out, err = run(capsys, "ap", "--D", "2", "--p", "13")
    assert code == 0 and err == ""
    assert "ap_naive(D=2, p=13) = 4" in out
    assert "ap_fast(D=2, p=13) = 4" in out
    assert "match: True" in out


def test_ap_single_method(capsys):
    code, out, _ = run(capsys, "ap", "--D", "-21", "--p", "5", "--method", "fast")
    assert code == 0
    assert "ap_fast" in out and "ap_naive" not in out and "match" not in out


def test_density_both(capsys):
    code, out, _ = run(capsys, "density", "--D", "-21", "--r", "1")
    assert code == 0
    assert "formula:  d_plus=11/42  d_minus=11/42" in out
    assert "oracle:   d_plus=11/42  d_minus=11/42" in out
    assert "agree: True" in out
    assert "(total 42)" in out


def test_ap_disagreement_exits_1(capsys, monkeypatch):
    # an explicit check, so it holds under python -O too
    monkeypatch.setattr("cmtrace.cli.ap_naive", lambda D, p: 6)
    code, out, err = run(capsys, "ap", "--D", "2", "--p", "13")
    assert code == 1
    assert "match: False" in out
    assert err.startswith("error: ")


def test_density_disagreement_exits_1(capsys, monkeypatch):
    from fractions import Fraction

    from cmtrace.density import ClassCounts, DensityPair

    wrong = (DensityPair(Fraction(1, 2), Fraction(0)), ClassCounts(21, 21, 0, 0))
    monkeypatch.setattr("cmtrace.cli.density_oracle", lambda D, r, x_max: wrong)
    code, out, err = run(capsys, "density", "--D", "-21", "--r", "1")
    assert code == 1
    assert "agree: False" in out
    assert err.startswith("error: ")


def test_density_formula_only(capsys):
    code, out, _ = run(capsys, "density", "--D", "5", "--r", "3", "--mode", "formula")
    assert code == 0
    assert "d_plus=0  d_minus=1/3" in out and "oracle" not in out


def test_sweep_stdout_json(capsys):
    code, out, _ = run(capsys, "sweep", "--D", "1", "--r", "1", "--N", "100")
    assert code == 0
    data = json.loads(out)
    assert data["n_primes"] == 3 and data["n_plus"] == 3
    assert data["predicted_plus"] == "1"


def test_sweep_to_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.json"
    code, out, _ = run(
        capsys, "sweep", "--D", "2", "--r", "2", "--N", "200", "--out", str(out_path)
    )
    assert code == 0
    assert f"wrote {out_path}" in out
    assert "n_primes=5" in out
    data = json.loads(out_path.read_text(encoding="utf-8"))
    assert data["D"] == 2 and data["n_plus"] == 5


def test_sweep_csv_format(capsys):
    code, out, _ = run(capsys, "sweep", "--D", "1", "--r", "1", "--N", "100",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("D,r,N,n_primes")
    assert lines[1].startswith("1,1,100,3")


def test_hl_output(capsys):
    code, out, _ = run(capsys, "hl", "--a", "1", "--b", "0", "--c", "1",
                       "--bound", "100000", "--count-to", "1000000")
    assert code == 0
    assert "hl_delta(1,0,1; bound=100000) = 1.37" in out
    assert "hl_count <= 1000000: " in out
    assert "ratio = " in out


def test_hl_rejected_count_prints_nothing(capsys, monkeypatch):
    # the count comes first: past 2^64 it exits 2 before any Euler product
    calls = []
    monkeypatch.setattr(cli, "hl_delta", lambda *args: calls.append(args))
    code, out, err = run(capsys, "hl", "--a", "1000000000000", "--b", "1", "--c", "1",
                         "--count-to", "1000000000000000000000")
    assert code == 2 and out == "" and calls == []
    assert err.startswith("error: hl_count: ")
    monkeypatch.undo()
    # a bad bound that comes with a valid count is rejected after the count
    code, out, err = run(capsys, "hl", "--a", "1", "--b", "0", "--c", "1",
                         "--bound", "2", "--count-to", "100")
    assert code == 2 and out == "" and "hl_delta: prime_bound must be at least 3, got 2" in err
    # sqrt(n) of the estimate is a float, so n stops at the largest float
    code, out, err = run(capsys, "hl", "--a", "1", "--b", str(10**400), "--c", "1",
                         "--count-to", str(10**399))
    assert code == 2 and out == "" and err.startswith("error: hl: --count-to must be at most ")


def test_density_rejected_oracle_prints_nothing(capsys):
    # the formula line waits for the oracle, which finds no representative at x_max = 0
    code, out, err = run(capsys, "density", "--D", "-21", "--r", "1", "--xmax", "0",
                         "--mode", "both")
    assert code == 2 and out == ""
    assert "no prime representative" in err


def test_zero_scan(capsys):
    code, out, _ = run(capsys, "zero-scan", "--dmax", "8", "--rmax", "4")
    assert code == 0
    # (5, 1) loses its -2r side via the prime-cofactor row
    assert any("D=5" in line and "r=1" in line and "-2r" in line
               for line in out.splitlines())
    # (2, 4) vanishes on both sides with no published row
    assert any("D=2" in line and "r=4" in line and "formula only" in line
               for line in out.splitlines())
    assert "vanishing pairs" in out


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == 7
    assert all(ln.startswith("PASS") for ln in lines)
    assert "-- selftest ok" in out


def test_selftest_times_each_check_on_stderr(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    *verdicts, last = out.splitlines()
    assert len(verdicts) == 7 and last == "-- selftest ok"
    labels = [re.fullmatch(r"PASS  (.*?)(  \(.*\))?", ln)[1] for ln in verdicts]
    *timings, numpy_line = err.splitlines()
    assert [re.fullmatch(r"time  \d+\.\d ms  (.*)", ln)[1] for ln in timings] == labels
    assert numpy_line == "numpy loaded: True"  # ap_naive counts points with numpy


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("cmtrace ")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["ap", "--D", "1"])
    assert ei.value.code == 2


def test_parser_builds_once():
    ap = build_parser()
    ns = ap.parse_args(["density", "--D", "3", "--r", "2", "--mode", "formula"])
    assert ns.D == 3 and ns.r == 2 and ns.fn is not None


# each subcommand's integer flags, drawn from small ranges so that a run is short
_SMALL = {
    "ap": {"D": (-60, 60), "p": (-10, 10**4)},
    "density": {"D": (-60, 60), "r": (-60, 60), "xmax": (-10, 1000)},
    "sweep": {"D": (-60, 60), "r": (-60, 60), "N": (-10, 10**6)},
    "hl": {"a": (-60, 60), "b": (-60, 60), "c": (-60, 60), "bound": (-10, 10**4),
           "count-to": (-10, 10**6)},
    "zero-scan": {"dmax": (-5, 60), "rmax": (-5, 12)},
}
_CHOICES = {"ap": ("--method", ("naive", "fast", "both")),
            "density": ("--mode", ("formula", "oracle", "both"))}
# values far past every cap, put in at most one flag of a draw
HUGE = (2**63, -(2**63), 10**20)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_SMALL)))
    values = {flag: draw(st.integers(lo, hi)) for flag, (lo, hi) in _SMALL[command].items()}
    huge = draw(st.sampled_from((None, *values)))
    if huge is not None:
        values[huge] = draw(st.sampled_from(HUGE))
    argv = [command, *(x for flag, v in values.items() for x in (f"--{flag}", str(v)))]
    if command in _CHOICES:
        flag, choices = _CHOICES[command]
        argv += [flag, draw(st.sampled_from(choices))]
    return argv


@settings(deadline=None, max_examples=150)
@given(argv=_argvs())
def test_cli_integer_arguments_exit_0_or_2(argv):
    # a bad request exits 2 (PreconditionError or argparse), never 1 or a traceback
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code)


def test_scalar_routes_never_load_numpy():
    # numpy is imported by the first array call, so the package, the CLI and
    # every scalar route run without it; a fresh interpreter shows what loads
    code = """
import contextlib, io, sys
import cmtrace
from cmtrace import cli
from cmtrace.arith import progression_set

cmtrace.ap_fast(3, 13)
cmtrace.density_formula(-21, 1)
cmtrace.density_oracle(-21, 1)
cmtrace.sigma_sums(-21, 1)
cmtrace.is_zero_pair(5, 3)
cmtrace.hl_count((1, 0, 1), 10**6)
cmtrace.quartic_class_of(-21, 13)
cmtrace.quartic_value_of(-21, 13)
cmtrace.ap_binomial_residue(13)
progression_set(-21, 1)
try:
    cmtrace.hl_delta((1, 0, 1), 10**10)
except cmtrace.PreconditionError:
    pass
try:
    cmtrace.sweep((10**9 + 7) * (10**9 + 9), 1, 100)
except cmtrace.PreconditionError:
    pass
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
    assert cli.main(["density", "--D", "-21", "--r", "1"]) == 0
    assert cli.main(["zero-scan", "--dmax", "5", "--rmax", "5"]) == 0
    assert cli.main(["ap", "--D", "3", "--p", "13", "--method", "fast"]) == 0
    assert cli.main(["sweep", "--D", "1000000016000000063", "--r", "1", "--N", "1000000"]) == 2
assert "numpy" not in sys.modules, "a scalar route loaded numpy"
assert cmtrace.sweep(-21, 1, 10**8).n_primes == 840
assert "numpy" in sys.modules
"""
    subprocess.run(
        [sys.executable, "-c", code], timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_closed_stdout_pipe_exits_141_quietly():
    # 122 kB of output, more than a pipe holds, so the CLI writes after the close
    proc = subprocess.Popen(
        [sys.executable, "-m", "cmtrace.cli", "zero-scan", "--dmax", "300", "--rmax", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.readline().startswith(b"D=")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""
