"""Command-line front end: single solves, phase-diagram scans, spectrum
export and exact-diagonalization consistency reports.

Output contract: JSON for `solve` and `oracle`, CSV for `scan` and
`spectrum`.  All floats are serialized in shortest round-trip decimal so
identical configurations produce byte-identical files; JSON is strict, with
null for a NaN or infinite value.  Exit codes:
0 ok, 1 configuration error, 2 infeasible point, 3 non-convergence,
4 oracle-check failure.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import (
    PairBosonError, ConfigError, InfeasiblePoint,
    ContinuationDiverged, BracketFailure, QuadratureFailure,
    StationarityViolated, TailNotConverged, InequalityViolated,
    DimensionExceeded, ModelError,
)
from .model import (
    Model, gaussian_profile, power_profile, delta_profile,
)
from .pressure import ThermoPoint
from .quadrature import QuadratureConfig
from .solver import (
    STATUS_BOUNDARY, STATUS_CONVERGED, eta_continuation, classify_phase,
    excitation_spectrum, variational_limit,
)
from . import oracle as _oracle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_ORACLE = 4

# Error class -> exit code and stderr label, first match wins.  `main` is
# the only place that turns an error into an exit code; unlisted errors
# propagate.
_EXIT_TABLE = (
    ((ConfigError, ModelError), EXIT_CONFIG, "config error"),
    (DimensionExceeded, EXIT_CONFIG, "config error: oracle instance too large"),
    (InequalityViolated, EXIT_ORACLE, "oracle check failed"),
    (InfeasiblePoint, EXIT_INFEASIBLE, "infeasible"),
    ((ContinuationDiverged, BracketFailure, QuadratureFailure,
      StationarityViolated, TailNotConverged),
     EXIT_NO_CONVERGENCE, "non-convergence"),
)

# Every key accepted in a config file and as a `--key` flag (dashes for
# underscores): its default and help text.  Any other key in a config file
# is rejected (fail-closed).  Command-line flags override file values.
_KEYS = {
    "beta": ("1.0", "inverse temperature (comma-separated list for scan)"),
    "mu": ("-0.5", "chemical potential"),
    "mu_range": (None, "scan grid start:stop:count"),
    "u": ("0.5", "pair coupling strength"),
    "v": ("1.0", "density repulsion strength"),
    "mass": ("0.5", "particle mass"),
    "dim": ("3", "spatial dimension"),
    "profile": ("gaussian:1.0",
                "pair profile: gaussian:a | power:c:p | delta"),
    "eta0": ("0.1", "initial source strength"),
    "eta_floor": ("1e-6", "smallest source strength in the continuation"),
    "eta_factor": ("0.5", "source reduction factor per step"),
    "tol": ("1e-10", "target relative tolerance"),
    "out": (None, "output file (default: stdout)"),
    "format": (None, "output format: csv | json"),
    "k_max": ("5.0", "spectrum: largest wavenumber"),
    "k_count": ("101", "spectrum: number of grid points"),
    "n_max": ("8", "oracle: per-mode occupation cutoff"),
}


def _fmt(x) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(x))


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            col = len(raw) - len(raw.lstrip()) + 1
            raise ConfigError(
                f"{path}:{lineno}:{col}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _KEYS:
            col = raw.index(key.replace("_", "-")) + 1 if key.replace(
                "_", "-") in raw else raw.index(key) + 1 if key in raw else 1
            raise ConfigError(f"{path}:{lineno}:{col}: unknown key '{key}'")
        if not val:
            raise ConfigError(f"{path}:{lineno}: empty value for '{key}'")
        values[key] = val
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = {key: default for key, (default, _) in _KEYS.items()}
    if args.config:
        cfg.update(_parse_config_file(args.config))
    for key in _KEYS:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _finite(text) -> float:
    """float(text); NaN and infinities raise ValueError like a non-number."""
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {text!r}")
    return x


def _parse_float(cfg, key) -> float:
    try:
        return _finite(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"invalid number for {key}: {cfg[key]!r}")


def _parse_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"invalid integer for {key}: {cfg[key]!r}")


def _parse_profile(text: str, dim: int):
    parts = text.split(":")
    kind = parts[0].strip().lower()
    try:
        if kind == "gaussian":
            if len(parts) != 2:
                raise ConfigError("profile gaussian takes one parameter: "
                                  "gaussian:a")
            return gaussian_profile(_finite(parts[1]))
        if kind == "power":
            if len(parts) != 3:
                raise ConfigError("profile power takes two parameters: "
                                  "power:c:p")
            return power_profile(_finite(parts[1]), _finite(parts[2]), dim)
        if kind == "delta":
            if len(parts) != 1:
                raise ConfigError("profile delta takes no parameters")
            return delta_profile()
    except ValueError:
        raise ConfigError(f"invalid profile parameters in {text!r}")
    raise ConfigError(f"unknown profile kind {parts[0]!r} "
                      "(expected gaussian:a, power:c:p or delta)")


def _build_model(cfg: dict) -> Model:
    """Parse the model keys; `Model` itself checks their ranges."""
    dim = _parse_int(cfg, "dim")
    return Model(dim=dim, mass=_parse_float(cfg, "mass"),
                 u=_parse_float(cfg, "u"), v=_parse_float(cfg, "v"),
                 lambda_profile=_parse_profile(cfg["profile"], dim))


def _point_limit(model: Model, tp: ThermoPoint, settings: dict):
    """The eta -> 0 observables of a scan or spectrum point.

    `solve` always runs the continuation: its JSON reports the eta trace.
    """
    if model.dim >= 3 and model.u >= 0:
        # the eta = 0 sup-inf settles p, q_bar, rho_bar and m0 here
        return variational_limit(model, tp, settings["quad_cfg"])
    # u < 0: m0 is the quasi-average (mu/v - rho_c)/2, which needs the
    # source; dim <= 2: the eta = 0 density probe fails
    return eta_continuation(model, tp, **settings)


def _solver_settings(cfg: dict) -> dict:
    """Keyword arguments of `eta_continuation`."""
    eta0 = _parse_float(cfg, "eta0")
    floor = _parse_float(cfg, "eta_floor")
    factor = _parse_float(cfg, "eta_factor")
    tol = _parse_float(cfg, "tol")
    if not (eta0 > floor > 0):
        raise ConfigError("requires eta0 > eta_floor > 0")
    if not (0 < factor < 1):
        raise ConfigError("requires 0 < eta_factor < 1")
    if tol <= 0:
        raise ConfigError("tol must be positive")
    quad = QuadratureConfig(rel_tol=tol, abs_tol=min(tol * 1e-2, 1e-12))
    return {"eta0": eta0, "factor": factor, "floor": floor, "quad_cfg": quad}


def _parse_betas(cfg) -> list:
    """beta as a comma-separated list of numbers; ThermoPoint checks signs."""
    try:
        return [_finite(item) for item in str(cfg["beta"]).split(",")]
    except ValueError:
        raise ConfigError(f"invalid number for beta: {cfg['beta']!r}")


def _thermo_point(cfg) -> ThermoPoint:
    """The single state point of solve, spectrum and oracle."""
    if "," in str(cfg["beta"]):
        raise ConfigError(f"invalid number for beta: {cfg['beta']!r}")
    beta, = _parse_betas(cfg)
    return ThermoPoint(beta=beta, mu=_parse_float(cfg, "mu"))


def _parse_mu_list(cfg) -> list:
    if cfg["mu_range"]:
        parts = str(cfg["mu_range"]).split(":")
        if len(parts) != 3:
            raise ConfigError("mu-range must be start:stop:count")
        try:
            a, b, n = _finite(parts[0]), _finite(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"invalid mu-range {cfg['mu_range']!r}")
        if n < 1:
            raise ConfigError("mu-range count must be >= 1")
        if n == 1:
            return [a]
        return [a + (b - a) * i / (n - 1) for i in range(n)]
    return [_parse_float(cfg, "mu")]


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _solve_document(cont, phase) -> dict:
    last = cont.results[-1]
    on_boundary = last.status == STATUS_BOUNDARY
    trace = [
        {
            "eta": res.eta,
            "pressure": res.pressure,
            "q_bar": res.q_bar,
            "rho_bar": res.rho_bar,
            "rho0": res.rho0,
            "gap": res.gap,
            "status": res.status,
        }
        for res in cont.results
    ]
    return {
        "pressure": cont.p_limit,
        "q_bar": cont.q_limit,
        "rho_bar": cont.rho_limit,
        "m0": cont.m0,
        "gap": cont.gap_limit,
        "phase": phase,
        # Euler-Lagrange residuals do not apply to a boundary minimum
        "residuals": {
            "el1": None if on_boundary else last.residual_el1,
            "el2": None if on_boundary else last.residual_el2,
        },
        "extrapolation_order": cont.extrapolation_order,
        "error_estimates": cont.error_estimates,
        "eta_trace": trace,
    }


def _strict(doc):
    """doc with every NaN or infinite float replaced by None."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _strict(val) for key, val in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_strict(val) for val in doc]
    return doc


def _json_dumps(doc) -> str:
    """Strict JSON: a non-finite float is written as null."""
    return json.dumps(_strict(doc), indent=2, sort_keys=False,
                      allow_nan=False) + "\n"


def cmd_solve(args) -> int:
    cfg = _merge_config(args)
    model = _build_model(cfg)
    settings = _solver_settings(cfg)
    tp = _thermo_point(cfg)
    cont = eta_continuation(model, tp, **settings)
    doc = _solve_document(cont, classify_phase(model, tp, cont))
    on_boundary = all(r.status == STATUS_BOUNDARY for r in cont.results)
    doc["status"] = STATUS_BOUNDARY if on_boundary else STATUS_CONVERGED
    _emit(_json_dumps(doc), cfg["out"])
    return EXIT_OK


# Phase column of a scan point that raised: the prefix, then the class name.
_SCAN_ERROR = "error:"


# Worker for scan grid points; module-level so it pickles for the pool.
# A task is (model, eta_continuation keyword arguments, ThermoPoint).
def _scan_point(task):
    model, settings, tp = task
    try:
        cont = _point_limit(model, tp, settings)
        phase = classify_phase(model, tp, cont)
    except PairBosonError as exc:
        nan = float("nan")
        return (tp.beta, tp.mu, nan, nan, nan, nan, nan,
                f"{_SCAN_ERROR}{type(exc).__name__}")
    return (tp.beta, tp.mu, cont.p_limit, cont.q_limit, cont.rho_limit,
            cont.m0, cont.gap_limit, phase)


def _worker_count(n_tasks: int) -> int:
    env = os.environ.get("PBH_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"PBH_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise ConfigError("PBH_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def _scan_rows_to_csv(rows) -> str:
    lines = ["beta,mu,pressure,q_bar,rho_bar,m0,gap,phase"]
    for beta, mu, p, q, rho, m0, gap, phase in rows:
        lines.append(",".join([_fmt(beta), _fmt(mu), _fmt(p), _fmt(q),
                               _fmt(rho), _fmt(m0), _fmt(gap), phase]))
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    cfg = _merge_config(args)
    model = _build_model(cfg)
    settings = _solver_settings(cfg)
    betas = _parse_betas(cfg)
    mus = _parse_mu_list(cfg)
    # every ThermoPoint checks its beta before any point is solved
    tasks = [(model, settings, ThermoPoint(beta=beta, mu=mu))
             for beta in betas for mu in mus]
    fmt = (cfg["format"] or "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r} (expected csv or json)")
    workers = _worker_count(len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scan_point, tasks))
    else:
        rows = [_scan_point(task) for task in tasks]
    if fmt == "json":
        keys = ("beta", "mu", "pressure", "q_bar", "rho_bar",
                "m0", "gap", "phase")
        _emit(_json_dumps([dict(zip(keys, row)) for row in rows]),
              cfg["out"])
    else:
        _emit(_scan_rows_to_csv(rows), cfg["out"])
    if all(row[-1].startswith(_SCAN_ERROR) for row in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_spectrum(args) -> int:
    cfg = _merge_config(args)
    model = _build_model(cfg)
    settings = _solver_settings(cfg)
    tp = _thermo_point(cfg)
    k_max = _parse_float(cfg, "k_max")
    k_count = _parse_int(cfg, "k_count")
    if k_max <= 0 or k_count < 2:
        raise ConfigError("requires k_max > 0 and k_count >= 2")
    cont = _point_limit(model, tp, settings)
    grid = np.linspace(0.0, k_max, k_count)
    pairs = excitation_spectrum(model, tp, cont, grid)
    lines = ["k,e_excit"]
    lines.extend(f"{_fmt(k)},{_fmt(e)}" for k, e in pairs)
    _emit("\n".join(lines) + "\n", cfg["out"])
    return EXIT_OK


def _default_fock_spec(model: Model, n_max: int) -> "_oracle.FockSpec":
    """Smallest instance coupling the zero mode to a +/-k pair."""
    zero = tuple(0.0 for _ in range(model.dim))
    plus = tuple(1.0 if i == 0 else 0.0 for i in range(model.dim))
    minus = tuple(-x for x in plus)
    return _oracle.FockSpec(modes=(zero, plus, minus), n_max=n_max,
                            headroom=2)


def cmd_oracle(args) -> int:
    cfg = _merge_config(args)
    model = _build_model(cfg)
    tp = _thermo_point(cfg)
    n_max = _parse_int(cfg, "n_max")
    if n_max < 2:
        raise ConfigError("n_max must be >= 2")
    eta = _parse_float(cfg, "eta0")
    if eta < 0:
        raise ConfigError("eta0 must be nonnegative")
    spec = _default_fock_spec(model, n_max)
    V = float(len(spec.modes))
    q_grid = np.linspace(0.0, 0.8, 5)
    rho_grid = np.linspace(0.1, 1.5, 5)
    checks = [_oracle.check_superstability(spec, model, V)]
    try:
        checks.append(_oracle.check_variational_chain(
            spec, model, tp, V, q_grid, rho_grid, eta))
    except InequalityViolated as exc:
        checks.append({"check": "variational_chain", "passed": False,
                       "error": str(exc)})
    plus = spec.modes[1]
    zero = spec.modes[0]
    for sign in (1, -1):
        checks.append(_oracle.check_pair_exchange_bound(
            spec, model, plus, zero, sign=sign))
    failed = any(not c.get("passed", False) for c in checks)
    report = {
        "instance": {
            "modes": [list(m) for m in spec.modes],
            "n_max": n_max,
            "volume": V,
            "beta": tp.beta,
            "mu": tp.mu,
            "u": model.u,
            "v": model.v,
            "profile": model.lambda_profile.describe(),
        },
        "checks": checks,
        "passed": not failed,
    }
    _emit(_json_dumps(report), cfg["out"])
    return EXIT_ORACLE if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairboson",
        description="Variational pressure of the pair boson model.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("scan", cmd_scan),
                     ("spectrum", cmd_spectrum), ("oracle", cmd_oracle)):
        sub = subs.add_parser(name)
        for key, (_, text) in _KEYS.items():
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             help=text)
        sub.add_argument("--config", help="INI-style config file")
        sub.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except PairBosonError as exc:
        for errors, code, label in _EXIT_TABLE:
            if isinstance(exc, errors):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
