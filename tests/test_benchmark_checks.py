"""The benchmark's output checks on the seed-0 `solve_mix` and `scan_line`
ops, and the names its harness binds in the package.

`perfbench/workloads.py` defines the ops and the checks, and
`perfbench/references.json` pins each op's observables.  Both are only read
here, so the correctness gates of `perfbench/run.py --workload solve_mix`
and `--workload scan_line` run with the unit tests.  `perfbench/speed.py`
and `perfbench/tracer.py` wrap names of `pairboson` in every timed and
traced run; entering their contexts here shows a name that went missing.
"""

import concurrent.futures
import importlib.util
import re
from pathlib import Path

import pytest

from pairboson import cli
from pairboson.model import Model, gaussian_profile
from pairboson.pressure import ThermoPoint
from pairboson.solver import mf_pressure

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
OPS = workloads.make_ops("solve_mix", 0)
SCAN_OP, = workloads.make_ops("scan_line", 0)


def _failures(workload, op, rc, text):
    """workloads.check_output of one seed-0 op's exit code and output."""
    ref = workloads.load_references()[workload]["0"].get(op["key"])
    model = Model(dim=op["dim"], mass=workloads.MASS, u=op["u"],
                  v=workloads.V,
                  lambda_profile=gaussian_profile(workloads.GAUSS_A))
    # a solve op's mean-field point comes from its argv, a scan's from
    # its rows
    obs = workloads.observables(op["kind"], text) if rc == 0 else []
    mf = {point: mf_pressure(model, ThermoPoint(*point))
          for point in workloads.mf_points(op, obs)}
    return workloads.check_output(op, rc, text, ref, mf)


@pytest.mark.parametrize("op", OPS, ids=[op["stratum"] for op in OPS])
def test_seed0_solve_mix_passes_the_checks(op, capsys):
    rc = cli.main(op["argv"])
    assert _failures("solve_mix", op, rc, capsys.readouterr().out) == []


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seed0_scan_line_passes_the_checks(threads, monkeypatch, capsys):
    monkeypatch.setenv("PBH_THREADS", threads)
    rc = cli.main(SCAN_OP["argv"])
    assert _failures("scan_line", SCAN_OP, rc, capsys.readouterr().out) == []


def test_harness_wraps_bind(monkeypatch, capsys):
    # every name PoolSpeed and the Tracer wrap exists, a scan runs under
    # both wrappers, and leaving them puts the originals back
    speed, tracer = _load("speed"), _load("tracer")
    originals = cli.main, cli._scan_point
    monkeypatch.setenv("PBH_THREADS", "2")
    with speed.PoolSpeed(cli, "elementwise"), tracer.Tracer() as spans:
        assert cli.main(SCAN_OP["argv"]) == cli.EXIT_OK
    names = {span[0] for span in spans.spans}
    assert {"cli.main", "cli.scan_point"} <= names
    assert (cli.main, cli._scan_point) == originals
    assert cli.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert _failures("scan_line", SCAN_OP, cli.EXIT_OK,
                     capsys.readouterr().out) == []


def test_pool_speed_names_resolve():
    # PoolSpeed.__enter__ saves and wraps every `cli.<name>` it reads, in
    # every timed run of every workload; `tests/test_pressure.py` holds the
    # Tracer's WRAPS to the same rule.  Read from the source text, so that
    # a name PoolSpeed starts to wrap is checked too
    source = (_PERFBENCH / "speed.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bcli\.(\w+)", source))
    assert {"ProcessPoolExecutor", "_scan_point"} <= names
    assert all(callable(getattr(cli, name)) for name in names), names
