"""Workload inputs, pinned reference values and output checks.

Every workload is a list of `pairboson` command lines (ops).  Seed 0 gives
the canonical points; another seed selects one of VARIANTS jittered copies
whose mu and beta stay inside the same phase.  Reference observables for
every variant are pinned in references.json (regenerate with pin.py only
when the solver's answer is meant to change).

This module imports nothing from pairboson, so the parent process that
measures set-up time stays light; the checks take the mean-field pressure
as an argument from the worker.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

VARIANTS = 8
WORKLOADS = ("solve_mix", "scan_line", "oracle_desk")
# speed.py probe closest to each workload's inner loop
PROBES = {"solve_mix": "elementwise", "scan_line": "elementwise",
          "oracle_desk": "dense"}

# Model parameters shared by every op; passed explicitly so CLI defaults
# can change without moving the benchmark.
V, MASS, GAUSS_A = 1.0, 0.5, 1.0
MODEL = ["--v", repr(V), "--mass", repr(MASS), "--profile", f"gaussian:{GAUSS_A!r}"]

# Stated tolerances of the output checks.  The solver targets 1e-10 per
# eta step, but the extrapolated limits carry error estimates up to 1e-6
# (pressure) and 2.4e-5 (m0), so the pinned comparison allows a margin
# above those; a wrong branch or phase misses by far more.
TOL_P = 1e-5          # |p - p_ref|, absolute
TOL_Q = 1e-4          # |q_bar - q_ref|, and q_bar ~ 0 for u < 0
TOL_M0 = 2e-4         # |m0 - m0_ref|
TOL_MF = 1e-5         # p >= p_mf - tol (u > 0); |p - p_mf| <= tol (u < 0)
TOL_ORACLE = 1e-9     # |p_full - ref| / max(1, |ref|)

# (stratum, mu, u) at beta = 2, dim 3: ROADMAP's three end-to-end points.
SOLVE_POINTS = (
    ("normal", -0.3, 0.5),
    ("condensed", 0.4, 0.5),
    ("mf_condensed", 0.4, -0.5),
)
# scan line at u = 0.5, beta = 2 across the pairing transition
SCAN_MU = (-0.2, 0.4, 4)
# (dim, u, beta, mu) for the exact-diagonalization instances, n_max = 7
ORACLE_INSTANCES = (
    (1, 0.5, 1.0, -0.2),
    (2, -0.5, 1.5, -0.1),
    (3, 0.5, 0.8, -0.3),
    (3, -0.3, 1.2, 0.0),
)


# Half-widths of the uniform (beta, mu) jitter of the non-canonical variants.
# The solver's work moves with the point (escapes, brackets); at these widths
# the kernel points of a solve_mix or scan_line cycle stay within 3% of
# seed 0 over all variants, so the seeds do not swamp the metrics' bounds.
# The oracle's work depends only on the matrix size.
JITTER = {"solve_mix": (0.006, 0.002), "scan_line": (0.002, 0.0006),
          "oracle_desk": (0.05, 0.05)}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _num(x: float) -> str:
    return repr(round(x, 6))


def make_ops(workload: str, seed: int) -> list:
    """The ops of one workload cycle; seed 0 gives the canonical points."""
    variant = variant_of(seed)
    rng = random.Random(f"{workload}:{variant}")
    beta_w, mu_w = JITTER.get(workload, (0.0, 0.0))

    def jitter(x, width):
        return x if variant == 0 else x + rng.uniform(-width, width)

    ops = []
    if workload == "solve_mix":
        for stratum, mu, u in SOLVE_POINTS:
            beta, mu = jitter(2.0, beta_w), jitter(mu, mu_w)
            ops.append({"kind": "solve", "stratum": stratum, "u": u, "dim": 3,
                        "argv": ["solve", "--beta", _num(beta), "--mu", _num(mu),
                                 "--u", repr(u), "--dim", "3", *MODEL]})
    elif workload == "scan_line":
        # the mu = 0 point sits just below the transition (gap 0.016)
        start, stop, count = SCAN_MU
        beta = jitter(2.0, beta_w)
        start, stop = jitter(start, mu_w), jitter(stop, mu_w)
        ops.append({"kind": "scan", "u": 0.5, "dim": 3, "points": count,
                    "argv": ["scan", "--beta", _num(beta),
                             f"--mu-range={_num(start)}:{_num(stop)}:{count}",
                             "--u", "0.5", "--dim", "3", *MODEL]})
    elif workload == "oracle_desk":
        for dim, u, beta, mu in ORACLE_INSTANCES:
            beta, mu = jitter(beta, beta_w), jitter(mu, mu_w)
            ops.append({"kind": "oracle", "u": u, "dim": dim,
                        "argv": ["oracle", "--dim", str(dim), "--u", repr(u),
                                 "--beta", _num(beta), "--mu", _num(mu),
                                 "--n-max", "7", *MODEL]})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op.setdefault("points", 1)
        op["key"] = " ".join(op["argv"])
    return ops


def observables(kind: str, text: str):
    """Parse one op's output into the values the checks compare."""
    if kind == "solve":
        doc = json.loads(text)
        return {k: doc[k] for k in ("pressure", "q_bar", "m0", "phase")}
    if kind == "scan":
        rows = []
        for row in csv.DictReader(io.StringIO(text)):
            rows.append({"beta": float(row["beta"]), "mu": float(row["mu"]),
                         "pressure": float(row["pressure"]),
                         "q_bar": float(row["q_bar"]), "m0": float(row["m0"]),
                         "phase": row["phase"]})
        return rows
    if kind == "oracle":
        doc = json.loads(text)
        chain = [c for c in doc["checks"] if c["check"] == "variational_chain"]
        return {"passed": doc["passed"],
                "checks_passed": all(c.get("passed") is True for c in doc["checks"]),
                "p_full": chain[0]["p_full"] if chain else math.nan}
    raise ValueError(f"unknown op kind {kind!r}")


def mf_points(op: dict, obs) -> list:
    """(beta, mu) pairs whose mean-field pressure the checks need."""
    if op["kind"] == "solve":
        argv = op["argv"]
        return [(float(argv[argv.index("--beta") + 1]),
                 float(argv[argv.index("--mu") + 1]))]
    if op["kind"] == "scan":
        return [(row["beta"], row["mu"]) for row in obs]
    return []


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _point_failures(u, got, ref, p_mf, stratum=None) -> list:
    bad = []
    if stratum is not None and got["phase"] != stratum:
        bad.append(f"phase {got['phase']} != stratum {stratum}")
    if got["phase"] != ref["phase"]:
        bad.append(f"phase {got['phase']} != reference {ref['phase']}")
    for key, tol in (("pressure", TOL_P), ("q_bar", TOL_Q), ("m0", TOL_M0)):
        if not abs(got[key] - ref[key]) <= tol:
            bad.append(f"{key} {got[key]!r} vs reference {ref[key]!r} (tol {tol})")
    p = got["pressure"]
    if u > 0 and not p >= p_mf - TOL_MF:
        bad.append(f"p {p!r} below mean-field {p_mf!r} - {TOL_MF}")
    if u < 0:
        if not abs(p - p_mf) <= TOL_MF:
            bad.append(f"|p - p_mf| = {abs(p - p_mf):.3e} > {TOL_MF}")
        if not got["q_bar"] <= TOL_Q:
            bad.append(f"q_bar {got['q_bar']!r} not ~0 for u < 0")
    return bad


def check_output(op: dict, rc: int, text: str, ref, mf: dict) -> list:
    """Reasons op's output is wrong; empty when every check passes.

    mf maps (beta, mu) to the mean-field pressure of the op's model.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    if ref is None:
        return ["no pinned reference for this op"]
    try:
        obs = observables(op["kind"], text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable output: {exc!r}"]
    if op["kind"] == "solve":
        return _point_failures(op["u"], obs, ref, mf[mf_points(op, obs)[0]],
                               op["stratum"])
    if op["kind"] == "scan":
        if len(obs) != op["points"] or len(ref) != len(obs):
            return [f"scan has {len(obs)} rows, expected {op['points']}"]
        bad = []
        for got, want in zip(obs, ref):
            if (got["beta"], got["mu"]) != (want["beta"], want["mu"]):
                bad.append(f"grid point {got['beta']},{got['mu']} != reference")
                continue
            bad += _point_failures(op["u"], got, want,
                                   mf[(got["beta"], got["mu"])])
        return bad
    bad = []
    if obs["passed"] is not True or not obs["checks_passed"]:
        bad.append("an oracle check did not pass")
    if not abs(obs["p_full"] - ref["p_full"]) <= TOL_ORACLE * max(1.0, abs(ref["p_full"])):
        bad.append(f"p_full {obs['p_full']!r} vs reference {ref['p_full']!r}")
    return bad
