"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench

They run a few cheap ops in-process, untraced and twice traced, and check
that tracing is transparent, that the layer identities hold, and that the
counts repeat exactly.
"""

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import workloads
from speed import SpeedMeter
from tracer import WRAPS, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHEAP_OPS = (
    ["solve", "--beta", "2", "--mu", "0.4", "--u", "0.5", "--eta-floor", "0.02",
     *workloads.MODEL],
    ["solve", "--beta", "2", "--mu", "-0.3", "--u", "0.5", "--eta-floor", "0.02",
     *workloads.MODEL],
    ["solve", "--beta", "2", "--mu", "0.4", "--u", "-0.5", "--eta-floor", "0.02",
     *workloads.MODEL],
    ["scan", "--beta", "2", "--mu-range=-0.2:0.4:2", "--u", "0.5",
     "--eta-floor", "0.02", *workloads.MODEL],
    ["oracle", "--dim", "2", "--u", "-0.5", "--n-max", "3", *workloads.MODEL],
)


def _run(trace: bool):
    import pairboson.cli as cli
    outputs = []
    tracer = Tracer() if trace else contextlib.nullcontext()
    t0 = perf_counter()
    with tracer:
        for argv in CHEAP_OPS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(argv) == 0
            outputs.append(buf.getvalue())
    wall = perf_counter() - t0
    return outputs, (layer_metrics(tracer.spans) if trace else None), wall


@pytest.fixture(scope="module")
def runs():
    mp = pytest.MonkeyPatch()
    mp.setenv("PBH_THREADS", "1")
    try:
        yield _run(False), _run(True), _run(True)
    finally:
        mp.undo()


def test_wrappers_are_transparent(runs):
    (plain, _, _), (traced, _, _), _ = runs
    assert traced == plain
    for modname, attr, _, _ in WRAPS:
        fn = getattr(sys.modules[modname], attr)
        assert not hasattr(fn, "__wrapped__"), f"{modname}.{attr} left wrapped"


def test_layer_identities(runs):
    _, (_, m, wall), _ = runs
    assert m["quadrature.ragged_kernel_calls"] == 0
    assert m["kernels.points"] == 15 * m["quadrature.panels_evaluated"]
    # eta = 0.1, 0.05, 0.025 for each of 3 solves and 2 scan points
    assert m["solver.eta_steps"] == 3 * 3 + 2 * 3
    assert m["solver.outer_calls"] >= m["solver.eta_steps"]
    assert m["solver.window_escapes"] <= m["solver.windows_tried"]
    assert 0.0 < sum(m["self_s"].values()) <= wall
    assert m["cli.scan_points"] == 2
    assert m["oracle.matrix_dim"] == 4 ** 3


def test_counts_repeat_exactly(runs):
    _, (_, a, _), (_, b, _) = runs
    counts = [k for k in a if k.endswith(("calls", "points", "steps", "solves",
                                          "escapes", "tried", "evaluated",
                                          "hamiltonians", "matrix_dim",
                                          "bytes_computed"))]
    assert len(counts) >= 12
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}


def test_seed_zero_is_canonical_and_every_variant_is_pinned():
    ops = workloads.make_ops("solve_mix", 0)
    assert [op["argv"][1:7] for op in ops] == [
        ["--beta", "2.0", "--mu", "-0.3", "--u", "0.5"],
        ["--beta", "2.0", "--mu", "0.4", "--u", "0.5"],
        ["--beta", "2.0", "--mu", "0.4", "--u", "-0.5"]]
    assert workloads.make_ops("scan_line", 3) == workloads.make_ops("scan_line", 3)
    assert workloads.make_ops("oracle_desk", 1) != workloads.make_ops("oracle_desk", 2)
    refs = workloads.load_references()
    for w in workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            for op in workloads.make_ops(w, variant):
                assert op["key"] in refs[w][str(variant)], (w, variant, op["key"])


def test_checks_reject_wrong_answers():
    op = workloads.make_ops("solve_mix", 0)[1]
    ref = workloads.load_references()["solve_mix"]["0"][op["key"]]
    mf = {(2.0, 0.4): ref["pressure"] - 1e-3}

    def verdict(**change):
        doc = dict(ref, **change)
        return workloads.check_output(op, 0, json.dumps(doc), ref, mf)

    assert verdict() == []
    assert verdict(pressure=ref["pressure"] + 1e-3)
    assert verdict(q_bar=0.0)
    assert verdict(phase="normal")
    assert workloads.check_output(op, 3, "", ref, mf) == ["exit code 3"]
    assert workloads.check_output(op, 0, json.dumps(ref), ref,
                                  {(2.0, 0.4): ref["pressure"] + 1e-3})


def test_speed_meter_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter("elementwise") as meter:
        mark = meter.mark()
        t0 = perf_counter()
        while perf_counter() - t0 < 0.3:
            pass
        busy = meter.since(mark)
        short = meter.since(meter.mark())
    assert signal.getsignal(signal.SIGALRM) is before
    assert busy["probes"] >= 3 and short["probes"] == 1
    # the probes' own time is not charged to the op
    assert 0.0 < busy["wall_s"] < 0.3 and busy["ref_s"] > 0.0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_mix", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
