"""The benchmark's output checks on the seed-0 `solve_mix` ops.

`perfbench/workloads.py` defines the ops and the checks, and
`perfbench/references.json` pins each op's observables.  Both are only read
here, so the correctness gate of `perfbench/run.py --workload solve_mix`
runs with the unit tests.
"""

import importlib.util
from pathlib import Path

import pytest

from pairboson import cli
from pairboson.model import Model, gaussian_profile
from pairboson.pressure import ThermoPoint
from pairboson.solver import mf_pressure

_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
OPS = workloads.make_ops("solve_mix", 0)


@pytest.mark.parametrize("op", OPS, ids=[op["stratum"] for op in OPS])
def test_seed0_solve_mix_passes_the_checks(op, capsys):
    rc = cli.main(op["argv"])
    text = capsys.readouterr().out
    ref = workloads.load_references()["solve_mix"]["0"].get(op["key"])
    model = Model(dim=op["dim"], mass=workloads.MASS, u=op["u"],
                  v=workloads.V,
                  lambda_profile=gaussian_profile(workloads.GAUSS_A))
    # a solve op's mean-field point comes from its argv alone
    mf = {point: mf_pressure(model, ThermoPoint(*point))
          for point in workloads.mf_points(op, None)}
    assert workloads.check_output(op, rc, text, ref, mf) == []
