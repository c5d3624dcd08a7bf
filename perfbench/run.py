"""pairboson benchmark: end-to-end and per-layer figures for three workloads.

    python3 perfbench/run.py --workload solve_mix --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py            # every workload, one after another

Run from the repository root; the package is imported from ./src.  With
--trace 0 each op runs untraced in whole cycles for --seconds and the
end-to-end metrics are reported, with times in reference-speed seconds
(speed.py); with --trace 1 one cycle runs untraced and one traced, each in
a fresh interpreter, and the per-layer metrics are reported.  The metric
names and units come from BENCHMARK.json.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5          # fresh interpreters timed per run; median reported
WORKER_TIMEOUT_S = 170
BLAS_CAP = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing source, crashed worker)."""


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        env[var] = BLAS_CAP
    env["PBH_THREADS"] = str(threads)
    return env


def spawn(job: dict, threads: int):
    """Run worker.py on job; returns (reference seconds to "ready", parsed
    result).  The probes' time is taken out of the wall to "ready", and the
    rest is converted at the host speed the worker measured (speed.py)."""
    job = dict(job, root=str(ROOT))
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=worker_env(threads))
    try:
        ready = proc.stdout.readline().split()
        setup_s = perf_counter() - t0
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if ready[:1] != ["ready"] or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}) before finishing")
    probe_s, speed = map(float, ready[1:])
    setup_s = (setup_s - probe_s) * speed
    if job.get("setup_only"):
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def count_failures(result: dict) -> tuple:
    ops = result["ops"]
    failed = sum(1 for op in ops if op["failures"])
    if not result["backend_agreement_ok"]:
        failed += 1
    return len(ops) + (result["backend_agreement"] is not None), failed


def end_to_end(workload: str, seed: int, seconds: int, nproc: int):
    job = {"workload": workload, "seed": seed, "seconds": seconds, "trace": False}
    setups = [spawn(dict(job, setup_only=True), nproc)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup_s, result = spawn(job, nproc)
    setups.append(setup_s)
    ops = result["ops"]
    by_op = {}
    for op in ops:
        by_op.setdefault(op["op"], []).append(op["ref_s"])
    # each op's median over cycles; p50 and max are taken over the ops
    latencies = [statistics.median(times) for times in by_op.values()]
    points = sum(op["points"] for op in ops)
    ref_s = sum(op["ref_s"] for op in ops)
    wall_s = sum(op["wall_s"] for op in ops)
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": points / ref_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_max_s": max(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    attempted, failed = count_failures(result)
    sample = f"{len(latencies)} ops x {len(ops) // len(latencies)} cycles, reference s"
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters, reference s",
        "points_per_s": f"{points} points in {ref_s:.2f} reference s",
        "latency_p50_s": sample,
        "latency_max_s": sample,
        "wall": f"{points / wall_s:.4g} points/s by wall clock ({wall_s:.2f} s); "
                f"mean host speed {ref_s / wall_s:.3f} of reference, "
                f"{sum(op['probes'] for op in ops)} probes",
    }
    return metrics, notes, attempted, failed, [result]


def per_layer(workload: str, seed: int, nproc: int):
    """Untraced and traced single cycles in fresh interpreters.

    scan_line adds an nproc-worker pass whose CSV must equal the traced
    serial pass byte for byte.
    """
    job = {"workload": workload, "seed": seed, "seconds": None, "trace": False}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
    passes = {}
    if workload == "scan_line":
        passes["parallel"] = spawn(job, nproc)[1]
    passes["serial"] = spawn(job, 1)[1]
    passes["traced"] = spawn(dict(job, trace=True, spans_path=str(spans_path)), 1)[1]
    traced = passes["traced"]
    for name, result in passes.items():
        if name == "traced":
            continue
        for mine, theirs in zip(traced["ops"], result["ops"]):
            if mine["sha"] != theirs["sha"]:
                mine["failures"].append(f"traced output differs from the {name} pass")
    attempted = failed = 0
    for result in passes.values():
        a, f = count_failures(result)
        attempted, failed = attempted + a, failed + f
    layers = traced["layers"]
    metrics = {k: v for k, v in layers.items() if k != "self_s"}
    metrics["trace.overhead_frac"] = traced["wall_s"] / passes["serial"]["wall_s"] - 1.0
    notes = {
        "solver.window_hit_ratio":
            f"{layers['solver.windows_tried'] - layers['solver.window_escapes']}"
            f" kept of {layers['solver.windows_tried']} warm-start windows",
        "trace.overhead_frac": f"traced {traced['wall_s']:.2f} s vs untraced "
                               f"{passes['serial']['wall_s']:.2f} s",
        "cli.scan_point_p50_s": f"n={layers['cli.scan_points']} points, PBH_THREADS=1",
    }
    for layer, s in sorted(layers["self_s"].items()):
        notes[f"self_s.{layer}"] = f"{s:.3f} s self time"
    notes["spans"] = str(spans_path.relative_to(ROOT))
    return metrics, notes, attempted, failed, list(passes.values())


def run_one(args, nproc: int) -> int:
    spec = load_spec()
    if args.trace:
        names = spec["per_layer"]
        metrics, notes, attempted, failed, results = per_layer(
            args.workload, args.seed, nproc)
    else:
        names = spec["end_to_end"]
        metrics, notes, attempted, failed, results = end_to_end(
            args.workload, args.seed, args.seconds, nproc)
    first = results[0]
    env = {"workload": args.workload, "seed": args.seed,
           "variant": workloads.variant_of(args.seed), "trace": args.trace,
           "backend": first["backend"], "backend_agreement": first["backend_agreement"],
           "nproc": nproc, "blas_threads": BLAS_CAP, **first["versions"],
           "platform": platform.machine()}
    print("env " + json.dumps(env))
    for m in names:
        print(f"  {m['name']:<30} {metrics[m['name']]:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    for key, note in notes.items():
        if key not in metrics:
            print(f"  {key:<30} {note}")
    print(f"  {'error_rate':<30} {failed / attempted:>14.6g} ratio  "
          f"{failed} failed of {attempted} attempted")
    for result in results:
        for op in result["ops"]:
            for reason in op["failures"]:
                print(f"  FAIL op {op['op']}: {reason}")
    OUT.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "notes": notes,
              "attempted": attempted, "failed": failed,
              "op_walls_s": [[op["wall_s"] for op in r["ops"]] for r in results],
              "op_ref_s": [[op["ref_s"] for op in r["ops"]] for r in results]}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own run.py process; metrics keyed workload.name."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} failed (exit {proc.returncode})")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        last = json.loads(lines[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pairboson" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'pairboson'}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    try:
        return run_all(args) if args.workload == "all" else run_one(args, nproc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
