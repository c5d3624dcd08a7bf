"""Tests for the command-line front end: exit codes, config handling,
output formats and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pairboson import cli
from pairboson.errors import BracketFailure, InfeasiblePoint

DATA = Path(__file__).parent / "data"
FAST = ["--dim", "3", "--eta-floor", "1e-4"]
# the solver entry points the CLI calls; `_point_limit` picks one per point
ENTRY_POINTS = ("eta_continuation", "variational_limit")


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
                                         "power:1:2"])
    def test_rejects_bad_profile(self, profile, capsys):
        assert run_main(["solve", "--profile", profile]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_rejects_bad_mu_range(self):
        assert run_main(["scan", "--mu-range", "1:2"]) == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--beta", "nan", "--dim", "1", "--eta-floor", "0.01"],
        ["solve", "--beta", "inf"],
        ["solve", "--mu", "nan"],
        ["solve", "--u=-inf"],
        ["solve", "--v", "inf"],
        ["solve", "--mass", "nan"],
        ["solve", "--tol", "inf"],
        ["solve", "--eta0", "inf"],
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


def _raising(exc):
    def entry_point(*args, **kwargs):
        raise exc("injected")
    return entry_point


def _inject(monkeypatch, name, exc):
    """Make the entry point `name` raise exc and the other one fail the
    test, so a point that takes the wrong branch shows."""
    def wrong_branch(*args, **kwargs):
        pytest.fail(f"the point did not take {name}")

    for other in ENTRY_POINTS:
        monkeypatch.setattr(cli, other,
                            _raising(exc) if other == name else wrong_branch)


class TestExitCodes:
    @pytest.mark.parametrize("command", ["solve", "spectrum"])
    @pytest.mark.parametrize("exc, code, label", [
        (InfeasiblePoint, cli.EXIT_INFEASIBLE, "infeasible"),
        (BracketFailure, cli.EXIT_NO_CONVERGENCE, "non-convergence"),
    ])
    def test_solver_error(self, command, exc, code, label, monkeypatch,
                          capsys):
        # solve runs the continuation at every point; spectrum's default
        # point (dim 3, u = 0.5) takes the eta = 0 solve
        name = "eta_continuation" if command == "solve" else \
            "variational_limit"
        _inject(monkeypatch, name, exc)
        assert run_main([command]) == code
        captured = capsys.readouterr()
        assert captured.err == f"{label}: injected\n"
        assert captured.out == ""

    def _scan_errors(self, name, u, monkeypatch, capsys):
        _inject(monkeypatch, name, BracketFailure)
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--mu-range=-0.5:-0.4:2", f"--u={u}"]) == \
            cli.EXIT_NO_CONVERGENCE
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [row.split(",")[-1] for row in rows] == \
            ["error:BracketFailure"] * 2

    def test_scan_of_errors_only(self, monkeypatch, capsys):
        # dim 3 and u >= 0: the eta = 0 solve
        self._scan_errors("variational_limit", "0.5", monkeypatch, capsys)

    def test_scan_of_errors_only_repulsive(self, monkeypatch, capsys):
        # u < 0: the continuation
        self._scan_errors("eta_continuation", "-0.5", monkeypatch, capsys)


def _no_constant(name):
    raise AssertionError(f"{name} is not valid JSON")


def _continuation(statuses):
    """A ContinuationResult whose eta steps ended with the given statuses."""
    from pairboson.solver import ContinuationResult, SolveResult
    results = [SolveResult(q_bar=0.0, rho_bar=0.5, pressure=0.1, rho0=0.0,
                           gap=0.1, residual_el1=0.0, residual_el2=0.0,
                           eta=0.1 * 0.5 ** i, status=status)
               for i, status in enumerate(statuses)]
    return ContinuationResult(
        eta_sequence=[r.eta for r in results], results=results, p_limit=0.1,
        q_limit=0.0, rho_limit=0.5, m0=0.0, gap_limit=0.1,
        extrapolation_order=1.0)


class TestSolve:
    @pytest.mark.parametrize("statuses, expected", [
        (["boundary_minimum"] * 3, "boundary_minimum"),
        (["boundary_minimum", "converged", "boundary_minimum"], "converged"),
        (["converged"] * 3, "converged"),
    ])
    def test_status_from_trace(self, statuses, expected, monkeypatch,
                               capsys):
        monkeypatch.setattr(cli, "eta_continuation",
                            lambda *args, **kwargs: _continuation(statuses))
        assert run_main(["solve"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == expected
        assert [step["status"] for step in doc["eta_trace"]] == statuses

    @pytest.mark.parametrize("statuses, residual", [
        (["converged", "boundary_minimum"], None),
        (["boundary_minimum", "converged"], 0.0),
    ])
    def test_boundary_residuals_are_null(self, statuses, residual,
                                         monkeypatch, capsys):
        monkeypatch.setattr(cli, "eta_continuation",
                            lambda *args, **kwargs: _continuation(statuses))
        assert run_main(["solve"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"] == {"el1": residual, "el2": residual}

    def test_non_finite_values_are_null(self, monkeypatch, capsys):
        cont = _continuation(["converged"] * 3)
        cont.extrapolation_order = float("nan")
        cont.error_estimates = {"p": float("inf"), "q": 1e-9}
        monkeypatch.setattr(cli, "eta_continuation",
                            lambda *args, **kwargs: cont)
        assert run_main(["solve"]) == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=_no_constant)
        assert doc["extrapolation_order"] is None
        assert doc["error_estimates"] == {"p": None, "q": 1e-9}

    def test_smoke_json(self, capsys):
        code = run_main(["solve", "--beta", "1", "--mu", "-0.5",
                         "--u", "0.2", "--v", "1.0"] + FAST)
        assert code == cli.EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for key in ("pressure", "q_bar", "rho_bar", "m0", "gap", "phase",
                    "residuals", "eta_trace"):
            assert key in doc
        assert doc["phase"] == "normal"
        assert len(doc["eta_trace"]) >= 4

    def test_escaped_window_does_not_strand_the_search(self, capsys):
        # q_bar ~ eta^2 here: a window centred on the last q_bar escapes,
        # and the cold search that follows probes a density the radial
        # quadrature cannot integrate (exit 3 after 7358 panels)
        code = run_main(["solve", "--dim", "2", "--v", "0.673",
                         "--u", "0.466", "--profile", "gaussian:0.807",
                         "--mass", "1.243", "--beta", "3.058",
                         "--mu", "-0.676", "--eta-floor", "1e-3"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["phase"] == "normal"

    def test_out_file(self, tmp_path):
        out = tmp_path / "solve.json"
        code = run_main(["solve", "--beta", "1", "--mu", "-0.5",
                         "--u", "0.2", "--v", "1.0", "--out", str(out)]
                        + FAST)
        assert code == cli.EXIT_OK
        assert json.loads(out.read_text())["phase"] == "normal"


class TestScan:
    def test_one_point_matches_solve(self, tmp_path):
        # scan takes this point (dim 3, u > 0) from the eta = 0 solve and
        # solve from the continuation: the row is the eta = 0 result
        # exactly, and each value lies within solve's own error estimate
        from pairboson.model import Model, gaussian_profile
        from pairboson.pressure import QuadratureConfig, ThermoPoint
        from pairboson.solver import variational_limit
        args = ["--beta", "2", "--mu", "1.0", "--u", "0.5", "--v", "1.0",
                "--dim", "3", "--eta-floor", "1e-4"]
        out_solve = tmp_path / "solve.json"
        out_scan = tmp_path / "scan.csv"
        assert run_main(["solve", "--out", str(out_solve)] + args) == 0
        assert run_main(["scan", "--out", str(out_scan)] + args) == 0
        doc = json.loads(out_solve.read_text())
        header, row = out_scan.read_text().strip().split("\n")
        got = dict(zip(header.split(","), row.split(",")))
        m = Model(dim=3, mass=0.5, u=0.5, v=1.0,
                  lambda_profile=gaussian_profile(1.0))
        lim = variational_limit(m, ThermoPoint(beta=2.0, mu=1.0),
                                QuadratureConfig(rel_tol=1e-10,
                                                 abs_tol=1e-12))
        for key, err, want in (("pressure", "p", lim.p_limit),
                               ("q_bar", "q", lim.q_limit),
                               ("rho_bar", "rho", lim.rho_limit),
                               ("m0", "m0", lim.m0),
                               ("gap", "gap", lim.gap_limit)):
            assert float(got[key]) == want
            assert abs(want - doc[key]) <= doc["error_estimates"][err]
        assert got["phase"] == doc["phase"] == "condensed"

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
                         "--eta-floor", "1e-4", "--out", str(out)]) == 0
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
        args = ["--beta", "2", "--u", "0.5", "--v", "1.0", "--dim", "3",
                "--eta-floor", "1e-3"]
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
        _inject(monkeypatch, "variational_limit", BracketFailure)
        monkeypatch.setenv("PBH_THREADS", "1")
        assert run_main(["scan", "--format", "json"]) == \
            cli.EXIT_NO_CONVERGENCE
        row, = json.loads(capsys.readouterr().out,
                          parse_constant=_no_constant)
        assert row["phase"] == "error:BracketFailure"
        assert row["pressure"] is None and row["gap"] is None

    def test_json_format(self, capsys):
        code = run_main(["scan", "--beta", "1", "--mu", "-0.5", "--u", "0",
                         "--v", "1.0", "--format", "json"] + FAST[2:]
                        + ["--dim", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["phase"] == "normal"


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

    def test_failing_check_exits_nonzero(self, capsys, monkeypatch):
        # negative control: corrupt the sign of u inside the residual-based
        # chain check so an inequality genuinely fails
        from pairboson import oracle as orc
        real = orc.build_hamiltonian

        def corrupted(spec, kind, model, V, **kw):
            out = real(spec, kind, model, V, **kw)
            if kind == "full":
                out.matrix = out.matrix - 2.0 * (out.matrix
                                                 - real(spec, "approx1",
                                                        model, V, **kw).matrix)
            return out

        monkeypatch.setattr(cli._oracle, "build_hamiltonian", corrupted)
        assert run_main(self.ARGS) == cli.EXIT_ORACLE
        doc = json.loads(capsys.readouterr().out)
        assert not doc["passed"]
        names = [c["check"] for c in doc["checks"]]
        assert names.count("pair_exchange_bound") == 2
        assert {"superstability", "variational_chain"} <= set(names)

    @pytest.mark.parametrize("eta0", ["-1", "-0.5", "nan"])
    def test_rejects_bad_eta0(self, eta0, capsys):
        assert run_main(self.ARGS + ["--eta0", eta0]) == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error:")
        assert captured.out == ""
