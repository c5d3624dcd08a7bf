"""Tests for the command-line front end: exit codes, config handling,
output formats and determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pairboson import cli, errors, solver
from pairboson.errors import BracketFailure, InfeasiblePoint, PairBosonError

DATA = Path(__file__).parent / "data"
FAST = ["--dim", "3"]
# the solver entry points the CLI binds: every solve and spectrum point
# takes variational_limit, every scan row variational_row, and
# eta_continuation is never called
ENTRY_POINTS = ("eta_continuation", "variational_limit", "variational_row")
# u > 0 in dim 2: the slice that ran the eta continuation until its eta = 0
# inner solve moved to the gap coordinate
DIM2 = ["--u", "0.5", "--dim", "2"]


def run_main(argv):
    return cli.main(argv)


def run_proc(argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "pairboson.cli"] + argv,
                          capture_output=True, text=True, env=env)


class TestConfig:
    def test_unknown_key_fails_closed(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("beta = 1.0\nbogus_knob = 3\n")
        code = run_main(["solve", "--config", str(cfgfile)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bogus_knob" in err and "2" in err  # line diagnostic

    def test_malformed_line_reports_position(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("# comment\nbeta 1.0\n")
        assert run_main(["solve", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
        assert ":2:" in capsys.readouterr().err

    def test_tolerance_key_is_gone(self, tmp_path, capsys):
        # the radial tolerance is a constant: an old `tol` fails closed
        assert run_main(["solve", "--tol", "1e-10"]) == cli.EXIT_CONFIG
        assert "unrecognized arguments: --tol" in capsys.readouterr().err
        cfgfile = tmp_path / "old.ini"
        cfgfile.write_text("beta = 1.0\ntol = 1e-10\n")
        assert run_main(["solve", "--config", str(cfgfile)]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {cfgfile}:2:1: unknown key 'tol'\n"

    def test_cli_overrides_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "ok.ini"
        cfgfile.write_text("u = 1.0\nv = 0.5\n")  # invalid pair
        # override on the command line makes it valid
        code = run_main(["solve", "--config", str(cfgfile), "--u", "0.0",
                         "--v", "1.0", "--beta", "1", "--mu", "-0.5"]
                        + FAST)
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"

    def test_rejects_u_geq_v(self, capsys):
        assert run_main(["solve", "--u", "1.0", "--v", "0.5"]) == 1
        assert "requires v - u > 0" in capsys.readouterr().err

    def test_rejects_beta_zero(self):
        assert run_main(["solve", "--beta", "0"]) == 1

    def test_scan_rejects_beta_zero_before_solving(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            pytest.fail("scan solved a point before checking beta")

        for name in ENTRY_POINTS:
            monkeypatch.setattr(cli, name, fail)
        assert run_main(["scan", "--beta", "1,0"]) == 1
        assert capsys.readouterr().err == \
            "config error: beta must be positive\n"

    @pytest.mark.parametrize("profile", ["cauchy:2", "gaussian:-1",
                                         "power:1:2", "power:0:5",
                                         "power:-1:4.5"])
    def test_rejects_bad_profile(self, profile, capsys):
        assert run_main(["solve", "--profile", profile]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_scan_rejects_bad_schedule_before_solving(self, monkeypatch,
                                                      capsys, tmp_path):
        # every point solves at eta = 0: an eta schedule is rejected, on
        # the command line and in a config file, before any point is solved
        def fail(*args, **kwargs):
            pytest.fail("scan solved a point before checking its keys")

        for name in ENTRY_POINTS:
            monkeypatch.setattr(cli, name, fail)
        assert run_main(["scan", "--eta0", "0.01", "--eta-floor", "0.1"]) \
            == cli.EXIT_CONFIG
        assert "unrecognized arguments: --eta0 0.01\n" in \
            capsys.readouterr().err
        cfgfile = tmp_path / "schedule.ini"
        cfgfile.write_text("eta_floor = 0.1\neta_factor = 0.5\n")
        assert run_main(["scan", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {cfgfile}:2:1: scan takes no key 'eta_factor'\n"

    def test_rejects_bad_mu_range(self):
        assert run_main(["scan", "--mu-range", "1:2"]) == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--beta", "nan", "--dim", "1"],
        ["solve", "--beta", "inf"],
        ["solve", "--mu", "nan"],
        ["solve", "--u=-inf"],
        ["solve", "--v", "inf"],
        ["solve", "--mass", "nan"],
        ["spectrum", "--k-max", "inf"],
        ["oracle", "--eta0", "inf"],
        ["solve", "--profile", "gaussian:nan"],
        ["solve", "--profile", "power:inf:2"],
        ["solve", "--profile", "power:1:nan"],
        ["scan", "--beta", "1,nan"],
        ["scan", "--mu-range", "nan:1:3"],
        ["scan", "--mu-range", "0:inf:3"],
        ["oracle", "--eta0", "nan"],
    ])
    def test_rejects_non_finite(self, argv, capsys):
        assert run_main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")

    def test_rejects_bad_beta_list(self, capsys):
        assert run_main(["scan", "--beta", "1,x"]) == 1
        assert capsys.readouterr().err == \
            "config error: invalid number for beta: '1,x'\n"

    def test_rejects_bad_format_before_solving(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            pytest.fail("scan solved a point before checking --format")

        for name in ENTRY_POINTS:
            monkeypatch.setattr(cli, name, fail)
        assert run_main(["scan", "--format", "xml"]) == 1
        assert "unknown format 'xml'" in capsys.readouterr().err


# The keys each command does not take; every other key of `cli._KEYS` is
# one of its flags and config-file keys.  Only the oracle reads eta0, and
# no command eta_factor; solve and scan accept eta_floor unread.
UNREAD = {
    "solve": ("mu_range", "format", "k_max", "k_count", "n_max", "eta0",
              "eta_factor"),
    "scan": ("k_max", "k_count", "n_max", "eta0", "eta_factor"),
    "spectrum": ("mu_range", "format", "n_max", "eta0", "eta_floor",
                 "eta_factor"),
    "oracle": ("mu_range", "eta_floor", "eta_factor", "format",
               "k_max", "k_count"),
}
REJECTED = [(cmd, key) for cmd, keys in UNREAD.items() for key in keys]
ACCEPTED = [(cmd, key) for cmd in UNREAD for key in cli._KEYS
            if key not in UNREAD[cmd]]


def _flag(key):
    return "--" + key.replace("_", "-")


class TestCommandKeys:
    def test_slot_counts(self):
        assert len(REJECTED) == 24 and len(ACCEPTED) == 40

    @pytest.mark.parametrize("command, key", REJECTED)
    def test_rejects_another_commands_flag(self, command, key, capsys):
        assert run_main([command, _flag(key), "1"]) == cli.EXIT_CONFIG
        assert "unrecognized arguments: " + _flag(key) in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command, key", REJECTED)
    def test_rejects_another_commands_file_key(self, command, key, tmp_path,
                                               capsys):
        cfgfile = tmp_path / "other.ini"
        cfgfile.write_text(f"beta = 1.0\n{key} = 1\n")
        assert run_main([command, "--config", str(cfgfile)]) == \
            cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (f"config error: {cfgfile}:2:1: {command} "
                                f"takes no key '{key}'\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, key", ACCEPTED)
    def test_accepts_its_own_keys(self, command, key, tmp_path):
        parser = cli.build_parser()
        assert getattr(parser.parse_args([command, _flag(key), "7"]),
                       key) == "7"
        cfgfile = tmp_path / "own.ini"
        cfgfile.write_text(f"{key} = 7\n")
        args = parser.parse_args([command, "--config", str(cfgfile)])
        assert cli._merge_config(args)[key] == "7"

    def test_parser_is_built_once(self):
        # every main call parses with the one parser
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("line, col, message", [
        ("   n_max = 3", 4, "solve takes no key 'n_max'"),
        ("\t  bogus-knob = 3", 4, "unknown key 'bogus_knob'"),
        ("  mu =", 3, "empty value for 'mu'"),
    ])
    def test_indented_key_column(self, line, col, message, tmp_path,
                                 capsys):
        cfgfile = tmp_path / "indented.ini"
        cfgfile.write_text(f"beta = 1.0\n{line}\n")
        assert run_main(["solve", "--config", str(cfgfile)]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"config error: {cfgfile}:2:{col}: {message}\n"


def _raising(exc):
    def entry_point(*args, **kwargs):
        raise exc("injected")
    return entry_point


def _failing_row(exc):
    # variational_row: every point of the row fails with exc
    def entry_point(model, tps):
        return [exc("injected") for _ in tps]
    return entry_point


def _inject(monkeypatch, name, exc):
    """Make the entry point `name` fail with exc (a scan row at each of its
    points) and the other ones fail the test, so a point that takes the
    wrong branch shows."""
    def wrong_branch(*args, **kwargs):
        pytest.fail(f"the point did not take {name}")

    failing = _failing_row if name == "variational_row" else _raising
    for other in ENTRY_POINTS:
        monkeypatch.setattr(cli, other,
                            failing(exc) if other == name else wrong_branch)


# Runs the seed-0 ops of one benchmark workload, then scan_example.ini at
# each PBH_THREADS of `scan_threads`, in one interpreter, and prints the
# scipy modules it loaded.
_SCIPY_FREE_SCRIPT = """
import contextlib, io, os, sys
sys.path.insert(0, {perfbench!r})
import workloads
from pairboson import cli
argvs = [op["argv"] for op in workloads.make_ops({workload!r}, 0)]
for threads in {scan_threads!r}:
    os.environ["PBH_THREADS"] = threads
    argvs.append(["scan", "--config", {config!r}])
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _scipy_loaded(workload, scan_threads=()):
    script = _SCIPY_FREE_SCRIPT.format(
        perfbench=str(Path(__file__).resolve().parents[1] / "perfbench"),
        workload=workload, scan_threads=scan_threads,
        config=str(DATA / "scan_example.ini"))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_solve_path_imports_no_scipy():
    # scipy's import is most of a fresh process's wall time; only the
    # tests load it
    assert _scipy_loaded("solve_mix", ("1", "2")) == "[]\n"


def test_oracle_imports_no_scipy():
    # the four seed-0 oracle_desk ops: the oracle runs on numpy alone
    assert _scipy_loaded("oracle_desk") == "[]\n"


class TestExitCodes:
    # every point takes the eta = 0 solve: u > 0 in dim 2 and the default
    # point (dim 3, u = 0.5) alike
    @pytest.mark.parametrize("argv, name", [
        pytest.param(["solve"] + DIM2, "variational_limit", id="solve"),
        pytest.param(["solve"], "variational_limit", id="solve-eta0"),
        pytest.param(["spectrum"], "variational_limit", id="spectrum"),
    ])
    @pytest.mark.parametrize("exc, code, label", [
        (InfeasiblePoint, cli.EXIT_INFEASIBLE, "infeasible"),
        (BracketFailure, cli.EXIT_NO_CONVERGENCE, "non-convergence"),
    ])
    def test_solver_error(self, argv, name, exc, code, label, monkeypatch,
                          capsys):
        _inject(monkeypatch, name, exc)
        assert run_main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == f"{label}: injected\n"
        assert captured.out == ""

    def _scan_errors(self, name, argv, monkeypatch, capsys):
        _inject(monkeypatch, name, BracketFailure)
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--mu-range=-0.5:-0.4:2"] + argv) == \
            cli.EXIT_NO_CONVERGENCE
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == \
            ["error:BracketFailure"] * 2

    def test_scan_of_errors_only(self, monkeypatch, capsys):
        # dim 3 and u >= 0: the eta = 0 solve of the row
        self._scan_errors("variational_row", ["--u=0.5"], monkeypatch,
                          capsys)

    def test_scan_of_errors_only_repulsive(self, monkeypatch, capsys):
        # u < 0 takes the eta = 0 solve too
        self._scan_errors("variational_row", ["--u=-0.5"], monkeypatch,
                          capsys)

    def test_scan_of_errors_only_continued(self, monkeypatch, capsys):
        # u > 0 in dim 2, which once took the continuation
        self._scan_errors("variational_row", DIM2, monkeypatch, capsys)

    @pytest.mark.parametrize("flag, message", [
        ("--mu=1e155", "the solve left the floating-point range"),
    ])
    def test_overflow_is_non_convergence(self, flag, message, capsys):
        # a float past the float range in the eta = 0 solve of u > 0 in
        # dim 2, which runs on the gap coordinate: at --mu=1e155 in the
        # outer bracket's q_max
        assert run_main(["solve", flag] + DIM2) == cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.err == f"non-convergence: {message}\n"
        assert captured.out == ""

    def test_dim_2_at_beta_1e_300_overflows_the_pressure_row(self, capsys):
        # the q = 0 gap is sigma* = 1.5e299, where the closed-form pressure
        # row passes the float range: the point exits 3 as an overflow
        assert run_main(["solve", "--beta=1e-300"] + DIM2) == \
            cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.err == ("non-convergence: the solve left the "
                                "floating-point range\n")
        assert captured.out == ""

    def test_dim_2_at_beta_1e_150_solves(self, capsys):
        # the continuation left the float range here in its source term
        # eta^2/sigma~^3; at eta = 0 the gap solve reaches the q = 0
        # minimum at sigma* = rho_bar = 1.5e149 and checks its residuals
        assert run_main(["solve", "--beta=1e-150"] + DIM2) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert (doc["status"], doc["phase"], doc["q_bar"]) == \
            ("converged", "normal", 0.0)
        assert doc["gap"] == pytest.approx(1.5462467037785917e149, rel=1e-12)
        assert abs(doc["residuals"]["el1"]) <= 1e-10 * doc["rho_bar"]

    def test_dim_1_gap_underflow(self, capsys):
        # u > 0 in dim 1 takes the eta = 0 gap solve: at beta = 1e-150 the
        # q = 0 minimum is found (rho_bar = 6.3e99), but at the outer
        # bracket's q_max = 2.5e100 the density slope stays positive down
        # to the least float gap, so sigma* underflows where dim 1 has no
        # asymptote to carry it
        assert run_main(["solve", "--beta=1e-150", "--u", "0.5",
                         "--dim", "1"]) == cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.err == \
            "non-convergence: gap solve left the float range\n"
        assert captured.out == ""

    def test_repulsive_source_overflow(self):
        # u < 0 at beta = 1e-150: the source term eta^2/sigma~^3 leaves the
        # float range on the continuation, which the CLI no longer runs here
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import ThermoPoint
        model = Model(dim=3, mass=0.5, u=-0.5, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        with cli._quiet_overflow(), pytest.raises(
                errors.ContinuationDiverged,
                match="the solve left the floating-point range"):
            solver.eta_continuation(model, ThermoPoint(1e-150, -0.5),
                                    floor=0.01)

    def test_non_stationary_optimum_is_non_convergence(self, capsys):
        # at beta = 1e-150 the eta = 0 inner solve ends at rho_bar = 1.6e152,
        # where the density equation's residual el1 is rho_bar itself
        assert run_main(["solve", "--beta=1e-150"]) == cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "non-convergence: the optimum is not stationary: el1 = ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "--beta=1e-150"],
        ["solve", "--beta=1e-150", "--u=-0.5"],
        ["scan", "--beta=1e-150", "--mu=-0.2"],
    ])
    def test_expected_overflows_warn_nothing(self, argv, monkeypatch,
                                             capsys):
        # numpy overflows on the way to these results (the tail bound at
        # R ~ 1e75, E^3 in the kernel); stderr holds the diagnostic alone
        monkeypatch.setenv("PBH_THREADS", "1")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            run_main(argv)
        assert [str(w.message) for w in seen] == []
        assert capsys.readouterr().err.count("\n") == (argv[0] == "solve")

    def test_scan_workers_warn_nothing(self):
        proc = run_proc(["scan", "--beta=1e-150", "--mu-range=-0.2:-0.1:2"],
                        {"PBH_THREADS": "2"})
        assert proc.returncode == cli.EXIT_OK
        assert proc.stderr == ""

    def test_division_by_zero_warns_nothing(self):
        # this dim-2, u < 0 point failed in the radial quadrature, whose
        # kernel divided by E = 0 on the way, and then ended on sigma = 0
        # as a boundary minimum although its minimum is interior.  The gap
        # solve finds sigma* = 1.8e-23 on the closed-form rows, where
        # the residuals check; stderr stays empty
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import ThermoPoint
        proc = run_proc(["solve", "--dim", "2", "--u=-0.5", "--beta", "8",
                         "--mu", "0.5", "--v", "1", "--mass", "0.5",
                         "--profile", "gaussian:1"])
        assert proc.returncode == cli.EXIT_OK
        assert proc.stderr == ""
        doc = json.loads(proc.stdout)
        assert (doc["status"], doc["phase"]) == ("converged", "normal")
        assert doc["gap"] == pytest.approx(1.8488e-23, rel=1e-4)
        assert all(abs(doc["residuals"][k]) <= 1e-10 for k in ("el1", "el2"))
        p_mf = solver.mf_pressure(
            Model(dim=2, mass=0.5, u=-0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0)), ThermoPoint(8.0, 0.5))
        assert abs(doc["pressure"] - p_mf) <= 1e-14

    def test_scan_keeps_the_rows_beside_an_overflow(self, monkeypatch,
                                                    capsys):
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--beta", "1e-300,2",
                         "--mu-range=-0.2:0.4:2"]) == cli.EXIT_OK
        rows = [row.split(",") for row in
                capsys.readouterr().out.strip().split("\n")[1:]]
        assert [row[-1] for row in rows] == \
            ["error:ContinuationDiverged"] * 2 + ["normal", "condensed"]
        assert all(math.isfinite(float(x)) for row in rows[2:]
                   for x in row[:-1])

    def test_an_overflowing_point_fails_alone_in_its_row(self, monkeypatch,
                                                         capsys):
        # at mu = 1e155 the search's floats leave the float range (as in
        # test_overflow_is_non_convergence): the OverflowError ends that
        # point of the row alone, as ContinuationDiverged, and the row's
        # other point reads as a scan of its own
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import ThermoPoint
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--mu-range=0.2:1e155:2"] + DIM2) == \
            cli.EXIT_OK
        header, row, failed = capsys.readouterr().out.splitlines()
        assert failed.endswith(",error:ContinuationDiverged")
        assert run_main(["scan", "--mu=0.2"] + DIM2) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [header, row]
        model = Model(dim=2, mass=0.5, u=0.5, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        _, error = solver.variational_row(
            model, [ThermoPoint(1.0, 0.2), ThermoPoint(1.0, 1e155)])
        assert isinstance(error.__cause__, OverflowError)

    def test_every_error_has_a_row(self):
        classes = [obj for obj in vars(errors).values()
                   if isinstance(obj, type) and issubclass(obj, PairBosonError)
                   and obj is not PairBosonError]
        assert len(classes) >= 10
        unlisted = [cls.__name__ for cls in classes
                    if not any(issubclass(cls, row[0])
                               for row in cli._EXIT_TABLE)]
        assert unlisted == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [["--mass", "1e-308"],
                                      ["--v", "1e308", "--u", "0.5"]])
    def test_oracle_eigen_failure(self, argv, capsys):
        # the overflowing instance leaves inf/NaN entries to eigensolve;
        # numpy warns of none of them
        assert run_main(["oracle", "--n-max", "3"] + argv) == \
            cli.EXIT_NO_CONVERGENCE
        captured = capsys.readouterr()
        assert captured.err == ("non-convergence: matrix to diagonalize "
                                "has non-finite entries\n")
        assert captured.out == ""


# the top-level keys of every solve document, in order
SOLVE_KEYS = ("pressure", "q_bar", "rho_bar", "m0", "gap", "phase",
              "residuals", "status")


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def _limit(status, monkeypatch, pressure=0.1, gap=0.1):
    """A VariationalLimit whose eta = 0 solve ended with the given status;
    its Euler-Lagrange residuals read as 0."""
    from pairboson.pressure import OrderPoint
    monkeypatch.setattr(solver, "el_residuals", lambda *args: (0.0, 0.0))
    result = solver.SolveResult(
        q_bar=0.0, rho_bar=0.5, pressure=pressure, rho0=0.0, gap=gap,
        eta=0.0, status=status,
        residual_at=(None, None, OrderPoint(0.0, 0.5, 0.0, gap)))
    return solver.VariationalLimit(p_limit=pressure, q_limit=0.0,
                                   rho_limit=0.5, m0=0.0, gap_limit=gap,
                                   result=result)


class TestSolve:
    # the document is the eta = 0 solve's, in one shape: its status, and
    # its residuals unless it is a boundary minimum
    @pytest.mark.parametrize("status, residual", [
        ("boundary_minimum", None),
        ("converged", 0.0),
    ])
    def test_boundary_residuals_are_null(self, status, residual,
                                         monkeypatch, capsys):
        limit = _limit(status, monkeypatch)
        monkeypatch.setattr(cli, "variational_limit", lambda *args: limit)
        assert run_main(["solve"] + DIM2) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == list(SOLVE_KEYS)
        assert doc["status"] == status
        assert doc["residuals"] == {"el1": residual, "el2": residual}

    def test_non_finite_values_are_null(self, monkeypatch, capsys):
        limit = _limit("converged", monkeypatch, pressure=float("nan"),
                       gap=float("inf"))
        monkeypatch.setattr(cli, "variational_limit", lambda *args: limit)
        assert run_main(["solve"] + DIM2) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=_no_constant)
        assert doc["pressure"] is None and doc["gap"] is None
        assert doc["q_bar"] == 0.0

    def test_smoke_json(self, capsys):
        # u > 0 in dim 2 on the eta = 0 path: the one document shape, no
        # condensate (Hohenberg-Mermin-Wagner) and a checked interior
        # optimum
        code = run_main(["solve", "--beta", "1", "--mu", "-0.5", "--v",
                         "1.0"] + DIM2)
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == list(SOLVE_KEYS)
        assert doc["phase"] == "normal" and doc["status"] == "converged"
        assert doc["m0"] == 0.0 and doc["gap"] > 0.0
        assert abs(doc["residuals"]["el1"]) <= 1e-10

    def test_dim_2_point_near_the_boundary_solves(self, capsys):
        # a point whose continued inner solves once probed the diverging
        # density row just inside sigma = 0 and exited 3; at eta = 0 the
        # gap solve finds its interior minima, so m0 = 0
        argv = ["solve", "--dim", "2", "--profile", "gaussian:0.314",
                "--v", "1.319", "--u", "1.098", "--mass", "0.984",
                "--beta", "1.100", "--mu", "0.736"]
        assert run_main(argv) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for key in ("pressure", "q_bar", "rho_bar"):
            assert doc[key] is not None and math.isfinite(doc[key]), key
        assert doc["m0"] == 0.0 and doc["phase"] != "condensed"

    @pytest.mark.parametrize("mu, status, phase", [
        ("-0.3", "converged", "normal"),
        ("0.4", "boundary_minimum", "condensed"),
    ])
    def test_eta_zero_document(self, mu, status, phase, capsys):
        # dim 3, u = 0.5: the eta = 0 solve, whose status is
        # boundary_minimum exactly when m0 is the KKT multiplier
        assert run_main(["solve", "--beta", "2", "--mu", mu]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == list(SOLVE_KEYS)
        assert (doc["status"], doc["phase"]) == (status, phase)
        if status == "boundary_minimum":
            assert doc["m0"] > 0.1
            assert doc["residuals"] == {"el1": None, "el2": None}
            assert doc["gap"] == 0.0  # f(0) = |h(0)| on sigma = 0
        else:
            assert doc["m0"] == 0.0
            assert abs(doc["residuals"]["el1"]) <= 1e-10
            assert abs(doc["residuals"]["el2"]) <= 1e-10

    @pytest.mark.parametrize("argv, taken", [
        (["--u", "0.5"], "variational_limit"),
        (["--u", "0"], "variational_limit"),
        (["--u", "0.5", "--dim", "2"], "variational_limit"),
        (["--u", "0.5", "--dim", "1"], "variational_limit"),
        (["--u=-0.5"], "variational_limit"),
        (["--u", "0", "--dim", "2"], "variational_limit"),
        (["--u=-0.5", "--dim", "1"], "variational_limit"),
    ])
    def test_dispatch(self, argv, taken, monkeypatch, capsys):
        # solve takes the eta = 0 solve at every point, u > 0 in dim 2
        # included, and never calls the continuation
        def wrong_branch(*args, **kwargs):
            pytest.fail(f"solve {argv} did not take {taken}")

        calls = []
        original = getattr(cli, taken)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name in ENTRY_POINTS:
            monkeypatch.setattr(cli, name,
                                counted if name == taken else wrong_branch)
        assert run_main(["solve"] + argv) == cli.EXIT_OK
        assert len(calls) == 1
        assert list(json.loads(capsys.readouterr().out)) == list(SOLVE_KEYS)

    def test_power_profile_boundary_point(self, capsys, monkeypatch):
        # at the eta = 0 boundary minimum foff = habs = 10.4, where f - h
        # once rounded to 0 at r ~ 1e-8 and the quadrature failed with a NaN
        # error; the continuation gives p = 3.2271893620207024
        argv = ["--dim", "3", "--v", "1", "--mass", "0.5", "--beta", "2",
                "--mu", "0.8", "--u", "0.9", "--profile", "power:1:4"]
        assert run_main(["solve"] + argv) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "boundary_minimum"
        assert doc["phase"] == "condensed"
        assert abs(doc["pressure"] - 3.2271893620207024) <= 1e-9
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan"] + argv) == cli.EXIT_OK
        header, row = capsys.readouterr().out.strip().split("\n")
        got = dict(zip(header.split(","), row.split(",")))
        for key in ("pressure", "q_bar", "rho_bar", "m0", "gap"):
            assert float(got[key]) == doc[key]

    def test_gaussian_in_dim_9(self, capsys):
        # the profile's own decay bounds the norms in every dimension
        code = run_main(["solve", "--dim", "9"])
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"
        assert math.isfinite(doc["pressure"])

    def test_escaped_window_does_not_strand_the_search(self, capsys):
        # this point's continued solves once exited 3 after 7358 panels,
        # when a warm-start window escaped into a full-bracket search that
        # probed a density the radial quadrature could not integrate; at
        # eta = 0 it solves on the gap coordinate
        code = run_main(["solve", "--dim", "2", "--v", "0.673",
                         "--u", "0.466", "--profile", "gaussian:0.807",
                         "--mass", "1.243", "--beta", "3.058",
                         "--mu", "-0.676"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["phase"] == "normal"

    def test_delta_dim_1_continuation_reaches_the_limit(self, capsys):
        # a warm-start window once followed the large-q branch (q_bar ~ 0.7)
        # down the eta schedule until it fell below the small-q one; the
        # jump to q_bar = 0.0014 at eta = 0.003125 then read as diverging
        # iterates (exit 3).  The full-bracket search extrapolates to the
        # eta = 0 sup-inf, which solve now takes in dim 1.
        from pairboson.model import Model, delta_profile
        from pairboson.pressure import ThermoPoint
        assert run_main(["solve", "--dim", "1", "--profile", "delta",
                         "--u", "0.5", "--mu", "0.5", "--beta", "2"]) == \
            cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["phase"] == "normal"
        m = Model(dim=1, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=delta_profile())
        tp = ThermoPoint(beta=2.0, mu=0.5)
        lim = solver.variational_limit(m, tp)
        cont = solver.eta_continuation(m, tp)
        assert doc["pressure"] == lim.p_limit
        assert abs(cont.p_limit - lim.p_limit) <= 1e-10
        assert solver.classify_phase(m, tp, cont) == "normal"

    def test_dim_1_pair_residual_floor(self, capsys):
        # d2_mu = 2.7e6 at this optimum, so a root in rho left el1 with the
        # floor of its tolerance on rho_bar (el2 = (v/u) el1 = -2.22e-9,
        # which needed a slack); the gap solve carries sigma* itself, and
        # both residuals meet the plain bound _EL_TOL max(1, rho_bar or
        # q_bar)
        assert run_main(["solve", "--dim", "1", "--u", "0.9", "--beta", "8",
                         "--mu", "0.8"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"
        residuals = doc["residuals"]
        assert abs(residuals["el1"]) <= solver._EL_TOL * max(1.0,
                                                             doc["rho_bar"])
        assert abs(residuals["el2"]) <= solver._EL_TOL * max(1.0,
                                                             doc["q_bar"])

    @pytest.mark.parametrize("beta, mu", [("8", "0.5"), ("4", "0.8")])
    def test_dim_2_repulsive_low_temperature(self, beta, mu, capsys):
        # both exited 3 while the q = 0 rows were integrated: the interior
        # minimizer's sigma (about 1e-23 at the first point) lies far below
        # rho's resolution, where the density row ln(1/sigma) defeated the
        # quadrature.  The gap solve finds that sigma on the closed-form
        # rows, at rho = mu/v to rounding, with m0 = 0
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import ThermoPoint
        assert run_main(["solve", "--dim", "2", "--u=-0.5", "--beta", beta,
                         "--mu", mu, "--v", "1", "--mass", "0.5",
                         "--profile", "gaussian:1"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        m = Model(dim=2, mass=0.5, u=-0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        p_mf = solver.mf_pressure(m, ThermoPoint(float(beta), float(mu)))
        assert doc["pressure"] == pytest.approx(p_mf, rel=1e-14, abs=0.0)
        assert doc["m0"] == 0.0 and doc["q_bar"] == 0.0
        assert (doc["phase"], doc["status"]) == ("normal", "converged")
        assert 0.0 < doc["gap"] < 1e-16

    def test_out_file(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_main(["solve", "--beta", "1", "--mu", "-0.5",
                         "--u", "0.2", "--v", "1.0", "--out", str(out)]
                        + FAST)
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["phase"] == "normal"


class TestScan:
    def test_one_point_matches_solve(self, tmp_path):
        # scan and solve both take this point (dim 3, u > 0) from the
        # eta = 0 solve: the row equals the solve document exactly, and each
        # value lies within the continuation's own error estimate
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import ThermoPoint
        from pairboson.solver import eta_continuation, variational_limit
        args = ["--beta", "2", "--mu", "1.0", "--u", "0.5", "--v", "1.0",
                "--dim", "3"]
        out_solve = tmp_path / "solve.json"
        out_scan = tmp_path / "scan.csv"
        assert run_main(["solve", "--out", str(out_solve)] + args) == 0
        assert run_main(["scan", "--out", str(out_scan)] + args) == 0
        doc = json.loads(out_solve.read_text())
        header, row = out_scan.read_text().strip().split("\n")
        got = dict(zip(header.split(","), row.split(",")))
        m = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        tp = ThermoPoint(beta=2.0, mu=1.0)
        lim = variational_limit(m, tp)
        cont = eta_continuation(m, tp, floor=1e-4)
        for key, err, want, limit in (
                ("pressure", "p", lim.p_limit, cont.p_limit),
                ("q_bar", "q", lim.q_limit, cont.q_limit),
                ("rho_bar", "rho", lim.rho_limit, cont.rho_limit),
                ("m0", "m0", lim.m0, cont.m0),
                ("gap", "gap", lim.gap_limit, cont.gap_limit)):
            assert float(got[key]) == doc[key] == want
            assert abs(want - limit) <= cont.error_estimates[err]
        assert got["phase"] == doc["phase"] == "condensed"

    # (scan flags, u): the seed-0 scan_line grid, across the pairing
    # transition, and scan_example.ini; both at dim 3, m = 0.5, v = 1 and
    # gaussian:1
    AGREEMENT_GRIDS = {
        "scan_line": (["--beta", "2.0", "--mu-range=-0.2:0.4:4",
                       "--u", "0.5"], 0.5),
        "scan_example": (["--config", str(DATA / "scan_example.ini")], 0.0),
    }

    @pytest.mark.parametrize("grid", AGREEMENT_GRIDS)
    def test_rows_agree_with_solves(self, grid, monkeypatch, capsys):
        # a row's points share their quadrature meshes, so a scan row may
        # differ from a solve of its point alone: by at most
        # 1e-10 max(1, |p|) in p and 1e-8 in q_bar and m0, in the same phase
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import ThermoPoint
        from pairboson.solver import classify_phase, variational_limit
        argv, u = self.AGREEMENT_GRIDS[grid]
        model = Model(dim=3, mass=0.5, u=u, v=1.0,
                      lambda_profile=gaussian_profile(1.0))
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan"] + argv) == cli.EXIT_OK
        header, *rows = capsys.readouterr().out.strip().split("\n")
        assert len(rows) >= 4
        for row in rows:
            got = dict(zip(header.split(","), row.split(",")))
            tp = ThermoPoint(float(got["beta"]), float(got["mu"]))
            lim = variational_limit(model, tp)
            assert got["phase"] == classify_phase(model, tp, lim), row
            p = lim.p_limit
            assert abs(float(got["pressure"]) - p) <= 1e-10 * max(1.0, abs(p))
            assert abs(float(got["q_bar"]) - lim.q_limit) <= 1e-8, row
            assert abs(float(got["m0"]) - lim.m0) <= 1e-8, row

    def test_boundary_rows_report_gap_zero(self, monkeypatch, capsys):
        # the condensed rows are eta = 0 boundary minima, where
        # f(0) = |h(0)| and E(0) = 0; at mu = 0.4 sqrt(f^2 - h^2) a few
        # ulps off sigma = 0 once printed 5.3e-9
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--beta", "2", "--mu-range=-0.2:0.4:4",
                         "--u", "0.5", "--dim", "3"]) == cli.EXIT_OK
        rows = [row.split(",") for row in
                capsys.readouterr().out.strip().split("\n")[1:]]
        assert [(row[-1], float(row[-2]) > 0) for row in rows] == \
            [("normal", True)] * 2 + [("condensed", False)] * 2
        assert [row[-2] for row in rows[2:]] == ["0.0", "0.0"]

    def test_phase_flip_at_critical_mu(self, tmp_path):
        # u = 0: the normal -> mf_condensed flip happens at mu = v rho_c
        from pairboson.model import Model, gaussian_profile
        from pairboson.solver import critical_density
        m = Model(dim=3, mass=0.5, u=0.0, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        beta = 2.0
        mu_c = m.v * critical_density(m, beta)
        out = tmp_path / "scan.csv"
        lo, hi, n = mu_c - 0.02, mu_c + 0.02, 5
        assert run_main(["scan", "--beta", "2.0",
                         "--mu-range", f"{lo}:{hi}:{n}",
                         "--u", "0", "--v", "1.0", "--dim", "3",
                         "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")[1:]
        phases = [r.split(",")[-1] for r in rows]
        mus = [float(r.split(",")[1]) for r in rows]
        flip = next(i for i in range(1, n) if phases[i] != phases[i - 1])
        assert phases[:flip] == ["normal"] * flip
        assert phases[flip:] == ["mf_condensed"] * (n - flip)
        assert mus[flip - 1] <= mu_c <= mus[flip] + (mus[1] - mus[0])

    def test_deterministic_across_thread_counts(self, tmp_path):
        cfg = str(DATA / "scan_example.ini")
        outputs = []
        for threads in ("1", "3"):
            out = tmp_path / f"scan_{threads}.csv"
            proc = run_proc(["scan", "--config", cfg, "--out", str(out)],
                            {"PBH_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_deterministic_with_pairing(self, tmp_path, monkeypatch, capsys):
        # u > 0, so every point runs the full sup-inf solve
        args = ["--beta", "2", "--u", "0.5", "--v", "1.0", "--dim", "3"]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"scan_{threads}.csv"
            proc = run_proc(["scan", "--mu-range=0.2:0.5:3", "--out",
                             str(out)] + args, {"PBH_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        header, *rows = outputs[0].decode().strip().split("\n")
        assert len(rows) == 3
        monkeypatch.setenv("PBH_THREADS", "1")
        for row in rows:
            mu = row.split(",")[1]
            assert run_main(["scan", "--mu", mu] + args) == 0
            assert capsys.readouterr().out == f"{header}\n{row}\n"

    def test_json_errors_are_null(self, monkeypatch, capsys):
        _inject(monkeypatch, "variational_row", BracketFailure)
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--format", "json"]) == \
            cli.EXIT_NO_CONVERGENCE
        row, = json.loads(capsys.readouterr().out,
                          parse_constant=_no_constant)
        assert row["phase"] == "error:BracketFailure"
        assert row["pressure"] is None and row["gap"] is None

    def test_json_format(self, capsys):
        code = run_main(["scan", "--beta", "1", "--mu", "-0.5", "--u", "0",
                         "--v", "1.0", "--format", "json"] + FAST)
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["phase"] == "normal"


# Three beta rows of three points across the pairing transition: 2
# workers do not divide them, and 7 workers are capped at 3.
FAN_BETAS = (1.5, 2.0, 2.5)
FAN_GRID = ["scan", "--beta", "1.5,2,2.5", "--mu-range=-0.2:0.4:3", "--u",
            "0.5", "--dim", "3"]
FAN_MUS = cli._parse_mu_list({"mu_range": "-0.2:0.4:3"})
FAN_PHASES = ["normal", "condensed", "condensed"] * 3


def _assert_no_child_left():
    # every helper a scan forked has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_at(monkeypatch, fail):
    """Make each scan row call fail(tp) first at each of its points.  A
    point where fail raises a PairBosonError takes that error as its
    outcome, and the row's other points are solved as a row without it;
    any other exception propagates."""
    real = cli.variational_row

    def row(model, tps):
        errors = {}
        for tp in tps:
            try:
                fail(tp)
            except PairBosonError as exc:
                errors[tp] = exc
        limits = iter(real(model, [tp for tp in tps if tp not in errors]))
        return [errors[tp] if tp in errors else next(limits) for tp in tps]

    monkeypatch.setattr(cli, "variational_row", row)


class TestScanFanOut:
    """The parent solves the beta rows tasks[0::W] and forks W - 1
    helpers, helper w solving the rows tasks[w::W]; a row is solved whole
    wherever it is."""

    def _scan(self, threads, monkeypatch, capsys, argv=FAN_GRID):
        monkeypatch.setenv("PBH_THREADS", str(threads))
        code = run_main(argv)
        _assert_no_child_left()
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_do_not_depend_on_workers(self, fmt, monkeypatch, capsys):
        argv = FAN_GRID + ["--format", fmt]
        outputs = [self._scan(threads, monkeypatch, capsys, argv)
                   for threads in (1, 2, 3, 7)]
        assert outputs[0][0] == cli.EXIT_OK
        assert outputs[1:] == outputs[:1] * 3

    def test_helper_error_rows_keep_their_places(self, monkeypatch, capsys):
        # with 2 workers the beta = 2 row is the helper's, the beta = 1.5
        # and 2.5 rows the parent's
        def fail(tp):
            if (tp.beta, tp.mu) in ((2.0, FAN_MUS[1]), (2.5, FAN_MUS[2])):
                raise BracketFailure("injected")

        _fail_at(monkeypatch, fail)
        code, text = self._scan(2, monkeypatch, capsys)
        assert code == cli.EXIT_OK
        phases = list(FAN_PHASES)
        phases[4] = phases[8] = "error:BracketFailure"
        assert [row.split(",")[-1] for row in text.splitlines()[1:]] == \
            phases
        assert self._scan(1, monkeypatch, capsys) == (code, text)

    def test_a_failing_point_leaves_the_other_rows(self, monkeypatch,
                                                   capsys):
        # a point that fails in the beta = 2 row leaves the other beta
        # rows byte for byte; the row's other points keep their phases
        code, plain = self._scan(2, monkeypatch, capsys)
        assert code == cli.EXIT_OK

        def fail(tp):
            if (tp.beta, tp.mu) == (2.0, FAN_MUS[1]):
                raise BracketFailure("injected")

        _fail_at(monkeypatch, fail)
        code, text = self._scan(2, monkeypatch, capsys)
        assert code == cli.EXIT_OK
        plain, text = plain.splitlines(), text.splitlines()
        assert [line for i, line in enumerate(text) if not 4 <= i <= 6] == \
            [line for i, line in enumerate(plain) if not 4 <= i <= 6]
        assert [line.split(",")[-1] for line in text[4:7]] == \
            ["normal", "error:BracketFailure", "condensed"]

    @pytest.mark.parametrize("where", [0, 1, 2], ids=["parent", "helper-1",
                                                      "helper-2"])
    def test_other_errors_propagate(self, where, monkeypatch, capsys):
        # with 3 workers the row beta[where] is solved by the parent (0)
        # or a helper
        def fail(tp):
            if (tp.beta, tp.mu) == (FAN_BETAS[where], FAN_MUS[1]):
                raise ValueError(f"injected at {tp.mu!r}")

        _fail_at(monkeypatch, fail)
        monkeypatch.setenv("PBH_THREADS", "3")
        with pytest.raises(ValueError, match="injected at"):
            run_main(FAN_GRID)
        _assert_no_child_left()
        assert capsys.readouterr().out == ""

    def test_helper_that_dies_is_named(self, monkeypatch):
        parent = os.getpid()

        def fail(tp):
            if tp.beta == FAN_BETAS[1]:
                assert os.getpid() != parent, "beta[1] is the helper's"
                os._exit(3)

        _fail_at(monkeypatch, fail)
        monkeypatch.setenv("PBH_THREADS", "2")
        with pytest.raises(RuntimeError, match="exited with status 3"):
            run_main(FAN_GRID)
        _assert_no_child_left()

    def test_without_fork_the_parent_solves_alone(self, monkeypatch, capsys):
        serial = self._scan(1, monkeypatch, capsys)
        monkeypatch.delattr(os, "fork")
        assert cli._worker_count(5) == 1
        assert self._scan(2, monkeypatch, capsys) == serial

    def test_one_beta_forks_nothing(self, monkeypatch, capsys):
        # a scan of one beta is one row, solved by the parent at any W
        def no_fork():
            pytest.fail("a one-beta scan forked a helper")

        serial = self._scan(1, monkeypatch, capsys, FAN_GRID[:2] + ["2"]
                            + FAN_GRID[3:])
        monkeypatch.setattr(os, "fork", no_fork)
        assert self._scan(7, monkeypatch, capsys, FAN_GRID[:2] + ["2"]
                          + FAN_GRID[3:]) == serial


class TestSpectrum:
    def test_q_zero_spectrum_equals_f(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run_main(["spectrum", "--beta", "1", "--mu", "-0.5",
                         "--u", "0.2", "--v", "1.0", "--k-count", "5",
                         "--k-max", "2.0", "--out", str(out)] + FAST)
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,e_excit"
        doc_rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        # q_limit = 0 here, so E(k) = eps(k) - mu + v rho
        rho = doc_rows[0][1] - 0.5  # E(0) = -mu + v rho with mu = -0.5
        for k, e in doc_rows:
            assert e == pytest.approx(k * k + 0.5 + rho, abs=1e-10)


class TestOracleCommand:
    ARGS = ["oracle", "--beta", "1", "--mu", "-0.4", "--u", "0.5",
            "--v", "1.0", "--dim", "1", "--profile", "gaussian:0.5",
            "--n-max", "5"]

    def test_default_instance_passes(self, capsys):
        assert run_main(self.ARGS) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"]
        assert all(c["passed"] for c in doc["checks"])

    def test_failing_check_exits_nonzero(self, capsys, corrupted_full):
        assert run_main(self.ARGS) == cli.EXIT_ORACLE
        doc = json.loads(capsys.readouterr().out)
        assert not doc["passed"]
        names = [c["check"] for c in doc["checks"]]
        assert names.count("pair_exchange_bound") == 2
        assert {"superstability", "variational_chain"} <= set(names)

    @pytest.mark.parametrize("n_max, dim", [("27", 21952),
                                            ("1000000", 1000003000003000001)])
    def test_rejects_too_large_instance(self, n_max, dim, capsys):
        # the dimension is checked before any state is listed
        assert run_main(["oracle", "--n-max", n_max]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == ("config error: oracle instance too large: "
                                f"working dimension {dim} exceeds cap 20000\n")
        assert captured.out == ""

    @pytest.mark.parametrize("eta0", ["-1", "-0.5", "nan"])
    def test_rejects_bad_eta0(self, eta0, capsys):
        assert run_main(self.ARGS + ["--eta0", eta0]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""
