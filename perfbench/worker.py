"""One benchmark pass in a fresh interpreter.

Usage (from run.py):  python3 worker.py '<job json>'

Imports the package and prints "ready": the parent times set-up up to that
line, which also carries the probe time and host speed of set-up.  Then it
runs the workload's ops through `pairboson.cli.main`, either in whole cycles
for about `seconds` or, when `seconds` is null, for exactly one cycle.
Timed cycles run under a SpeedMeter, and a PoolSpeed for the children of a
scan, which give each op its reference-speed seconds as well as its wall
time (see speed.py).  With "trace" set the one cycle runs under the Tracer
instead.  After the timed part it checks every output and prints one JSON
line.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from speed import PoolSpeed, SpeedMeter
from tracer import Tracer, layer_metrics

# agreement of the compiled kernel with the numpy one, as bench_kernels.py
# measures it; the backends differ by up to 5e-16
BACKEND_AGREEMENT_TOL = 1e-13


def run_op(cli, op, meter, pool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    mark = meter.mark() if meter else None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op["argv"])
    except Exception:  # an op that raises is a failed op, not a crashed run
        rc = -1
        error = traceback.format_exc(limit=3)
    if meter:
        timing = pool.convert(meter.since(mark))
    else:
        timing = {"wall_s": perf_counter() - t0}
    text = out.getvalue()
    return {**timing, "rc": rc, "error": error or err.getvalue()[-500:],
            "text": text, "sha": hashlib.sha256(text.encode()).hexdigest()}


def backend_agreement(root: Path):
    """Max relative disagreement of the two kernels, or None without _fastkern."""
    from pairboson import kernels
    if kernels.BACKEND == "numpy":
        return None
    spec = importlib.util.spec_from_file_location(
        "bench_kernels", root / "benchmarks" / "bench_kernels.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.agreement()


def check_all(job, ops, records) -> list:
    """Failure reasons per record: wrong output, or output that differs
    from the same op's first output in this pass."""
    from pairboson.model import Model, gaussian_profile
    from pairboson.pressure import ThermoPoint
    from pairboson.solver import mf_pressure

    refs = workloads.load_references().get(job["workload"], {}).get(
        str(workloads.variant_of(job["seed"])), {})
    first = {}
    verdict = {}
    out = []
    for rec in records:
        op = ops[rec["op"]]
        first.setdefault(rec["op"], rec["sha"])
        if rec["sha"] not in verdict:
            mf = {}
            if rec["rc"] == 0:
                try:
                    obs = workloads.observables(op["kind"], rec["text"])
                except (ValueError, KeyError, IndexError):
                    obs = None
                if obs is not None:
                    model = Model(dim=op["dim"], mass=workloads.MASS, u=op["u"],
                                  v=workloads.V,
                                  lambda_profile=gaussian_profile(workloads.GAUSS_A))
                    for beta, mu in workloads.mf_points(op, obs):
                        mf[(beta, mu)] = mf_pressure(model, ThermoPoint(beta, mu))
            verdict[rec["sha"]] = workloads.check_output(
                op, rec["rc"], rec["text"], refs.get(op["key"]), mf)
        bad = list(verdict[rec["sha"]])
        if rec["rc"] != 0 and rec["error"]:
            bad.append(rec["error"].strip().splitlines()[-1])
        if rec["sha"] != first[rec["op"]]:
            bad.append("output differs from this op's first output")
        out.append(bad)
    return out


def main(argv) -> int:
    job = json.loads(argv[1])
    root = Path(job["root"])
    with SpeedMeter("import") as setup:
        mark = setup.mark()
        import numpy
        import scipy
        import pairboson.cli as cli
        from pairboson import kernels
        if Path(cli.__file__).resolve().parents[1] != (root / "src").resolve():
            print(f"pairboson imported from {cli.__file__}, not {root / 'src'}",
                  file=sys.stderr)
            return 2
        ops = workloads.make_ops(job["workload"], job["seed"])
        timing = setup.since(mark)
    # the parent takes the probes' time out of set-up and converts the rest
    print(f"ready {setup.spent!r} {timing['ref_s'] / timing['wall_s']!r}", flush=True)
    if job.get("setup_only"):
        return 0

    records = []
    tracer = Tracer() if job["trace"] else contextlib.nullcontext()
    meter = pool = None
    if job["seconds"] is not None:
        meter = SpeedMeter(workloads.PROBES[job["workload"]])
        pool = PoolSpeed(cli, workloads.PROBES[job["workload"]])
    t_start = perf_counter()
    with tracer, meter or contextlib.nullcontext(), pool or contextlib.nullcontext():
        for cycle in itertools.count(1):
            for i, op in enumerate(ops):
                rec = run_op(cli, op, meter, pool)
                rec["op"] = i
                records.append(rec)
            if job["seconds"] is None:
                break
            # another cycle only if it would end nearer to `seconds`
            elapsed = perf_counter() - t_start
            if elapsed + 0.5 * elapsed / cycle >= job["seconds"]:
                break
    wall = perf_counter() - t_start

    failures = check_all(job, ops, records)
    agreement = backend_agreement(root)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "wall_s": wall,
        "ops": [{"op": r["op"], "points": ops[r["op"]]["points"],
                 "wall_s": r["wall_s"], "ref_s": r.get("ref_s"),
                 "probes": r.get("probes"), "sha": r["sha"], "failures": f}
                for r, f in zip(records, failures)],
        "peak_rss_mb": peak_kb / 1024.0,
        "backend": kernels.BACKEND,
        "backend_agreement": agreement,
        "backend_agreement_ok": agreement is None or agreement <= BACKEND_AGREEMENT_TOL,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if job["trace"]:
        result["layers"] = layer_metrics(tracer.spans)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
