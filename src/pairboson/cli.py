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
import functools
import json
import math
import os
import pickle
import signal
import sys
# unused here; perfbench's PoolSpeed wraps this name
from concurrent.futures import ProcessPoolExecutor  # noqa: F401

import numpy as np

from .errors import (
    PairBosonError, ConfigError, InfeasiblePoint,
    ContinuationDiverged, BracketFailure, QuadratureFailure,
    StationarityViolated, TailNotConverged, DimensionExceeded, EigenFailure,
    ModelError,
)
from .model import (
    Model, gaussian_profile, power_profile, delta_profile,
)
from .pressure import ThermoPoint
from .solver import (
    STATUS_BOUNDARY, classify_phase, excitation_spectrum, variational_limit,
    variational_row,
)
# unused here; perfbench's tracer wraps this name
from .solver import eta_continuation  # noqa: F401

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
    (InfeasiblePoint, EXIT_INFEASIBLE, "infeasible"),
    ((ContinuationDiverged, BracketFailure, QuadratureFailure,
      StationarityViolated, TailNotConverged, EigenFailure),
     EXIT_NO_CONVERGENCE, "non-convergence"),
)

# Every key of a config file and `--key` flag (dashes for underscores): its
# default and help text.  Command-line flags override file values.
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
    "eta0": ("0.1", "source strength of the oracle's instance"),
    # the retired eta continuation's schedule: every solve, scan and
    # spectrum point solves at eta = 0.  solve and scan still accept
    # eta_floor and read nothing from it, so that older command lines (as
    # in perfbench's own tests) still run; no command takes eta_factor,
    # which stays a known key so that an old config file fails with a
    # precise diagnostic
    "eta_floor": (None, "not read: every point solves at eta = 0"),
    "eta_factor": (None, "not read by any command"),
    "out": (None, "output file (default: stdout)"),
    "format": (None, "output format: csv | json"),
    "k_max": ("5.0", "spectrum: largest wavenumber"),
    "k_count": ("101", "spectrum: number of grid points"),
    "n_max": ("8", "oracle: per-mode occupation cutoff"),
}

# The keys each command takes.  A command has flags for these alone, and a
# config-file key outside its command's set is rejected (fail-closed).
_COMMON_KEYS = frozenset("beta mu u v mass dim profile out".split())
_COMMAND_KEYS = {
    "solve": _COMMON_KEYS | {"eta_floor"},
    "scan": _COMMON_KEYS | {"mu_range", "format", "eta_floor"},
    "spectrum": _COMMON_KEYS | {"k_max", "k_count"},
    "oracle": _COMMON_KEYS | {"eta0", "n_max"},
}


def _fmt(x) -> str:
    """Shortest decimal that round-trips the float."""
    return repr(float(x))


def _parse_config_file(path: str, command: str) -> dict:
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
        where = f"{path}:{lineno}:{len(raw) - len(raw.lstrip()) + 1}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key not in _COMMAND_KEYS[command]:
            raise ConfigError(f"{where}: {command} takes no key '{key}'")
        if not val:
            raise ConfigError(f"{where}: empty value for '{key}'")
        values[key] = val
    return values


def _merge_config(args: argparse.Namespace) -> dict:
    keys = _COMMAND_KEYS[args.command]
    cfg = {key: _KEYS[key][0] for key in keys}
    if args.config:
        cfg.update(_parse_config_file(args.config, args.command))
    for key in keys:
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


def _parse_profile(text: str):
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
            return power_profile(_finite(parts[1]), _finite(parts[2]))
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
    return Model(dim=_parse_int(cfg, "dim"), mass=_parse_float(cfg, "mass"),
                 u=_parse_float(cfg, "u"), v=_parse_float(cfg, "v"),
                 lambda_profile=_parse_profile(cfg["profile"]))


def _parse_betas(cfg) -> list:
    """beta as a comma-separated list of numbers; ThermoPoint checks signs."""
    try:
        return [_finite(item) for item in str(cfg["beta"]).split(",")]
    except ValueError:
        raise ConfigError(f"invalid number for beta: {cfg['beta']!r}")


def _thermo_point(cfg) -> ThermoPoint:
    """The single state point of solve, spectrum and oracle."""
    return ThermoPoint(beta=_parse_float(cfg, "beta"),
                       mu=_parse_float(cfg, "mu"))


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


def _residuals(res) -> dict:
    """The Euler-Lagrange residuals of the eta = 0 optimum res, held to the
    radial tolerance since the optimum is the answer itself; null on a
    boundary minimum, where they do not apply."""
    if res.status == STATUS_BOUNDARY:
        return {"el1": None, "el2": None}
    el1, el2 = res.checked_residuals()
    return {"el1": el1, "el2": el2}


def _solve_document(limit, phase) -> dict:
    """solve's JSON, from the `VariationalLimit` of the point."""
    return {
        "pressure": limit.p_limit,
        "q_bar": limit.q_limit,
        "rho_bar": limit.rho_limit,
        "m0": limit.m0,
        "gap": limit.gap_limit,
        "phase": phase,
        "residuals": _residuals(limit.result),
        "status": limit.result.status,
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
    tp = _thermo_point(cfg)
    limit = variational_limit(model, tp)
    doc = _solve_document(limit, classify_phase(model, tp, limit))
    _emit(_json_dumps(doc), cfg["out"])
    return EXIT_OK


# Phase column of a scan point that raised: the prefix, then the class name.
_SCAN_ERROR = "error:"


def _quiet_overflow():
    """Silence numpy's overflow, division-by-zero and invalid-value
    warnings in the block.

    An overflowing solve, or one whose kernel divides by E = 0, ends as a
    typed error or prints its non-finite values, and an overflowing oracle
    instance fails as EigenFailure on its inf/NaN entries, so the warnings,
    with their source paths, would only repeat that on stderr.  Only the
    reporting changes, not the arithmetic.  `main` runs every command in
    this block; a scan's forked helpers, each solving whole beta rows of
    its grid, inherit its error state."""
    return np.errstate(over="ignore", divide="ignore", invalid="ignore")


def _csv_row(model, tp, limit) -> tuple:
    """The CSV row of the point tp from its `VariationalLimit`, or from the
    PairBosonError of its solve: an error row."""
    if not isinstance(limit, PairBosonError):
        try:
            phase = classify_phase(model, tp, limit)
        except PairBosonError as exc:
            limit = exc
        else:
            return (tp.beta, tp.mu, limit.p_limit, limit.q_limit,
                    limit.rho_limit, limit.m0, limit.gap_limit, phase)
    nan = float("nan")
    return (tp.beta, tp.mu, nan, nan, nan, nan, nan,
            f"{_SCAN_ERROR}{type(limit).__name__}")


# One beta row of the scan grid, solved in the parent or in a forked
# helper: its points solved together (`variational_row`), a point that
# fails an error row.  A task is (model, the row's ThermoPoints).  The
# name dates from when a task was one point; perfbench's tracer and
# PoolSpeed wrap it.
def _scan_point(task):
    model, tps = task
    return [_csv_row(model, tp, limit)
            for tp, limit in zip(tps, variational_row(model, tps))]


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
    # without fork the parent solves every row itself
    return max(1, min(cap, n_tasks)) if hasattr(os, "fork") else 1


def _fork_helper(tasks):
    """Fork a helper that solves tasks; returns its pid and the read end of
    its pipe, a file.  The helper writes one pickle, its rows or the
    exception they raised, and leaves only through `os._exit`."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read)
            try:
                outcome = [_scan_point(task) for task in tasks]
            except BaseException as exc:
                outcome = exc
            with open(write, "wb") as fh:
                pickle.dump(outcome, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, open(read, "rb")


def _scan_rows(tasks) -> list:
    """The CSV rows of tasks, the beta rows of the grid, in grid order.

    With W workers the parent forks W - 1 helpers, helper w solving the
    beta rows tasks[w::W], and solves tasks[0::W] itself; W = 1, as for a
    grid of one beta, forks none.  A row is solved whole wherever it is,
    so the rows do not depend on W.  Then the parent reads each helper's
    pipe to its end and reaps the helper.  An exception a helper sent is
    raised here, and a helper that left no complete outcome raises
    RuntimeError with its exit status; whatever raises, every helper not
    yet reaped is killed and reaped first.
    """
    workers = _worker_count(len(tasks))
    rows = [None] * len(tasks)
    helpers = []
    try:
        for w in range(1, workers):
            helpers.append(_fork_helper(tasks[w::workers]))
        rows[0::workers] = [_scan_point(task) for task in tasks[0::workers]]
        for w in range(1, workers):
            pid, fh = helpers[0]
            with fh:
                data = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del helpers[0]
            try:
                outcome = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"scan helper {pid} exited with status "
                                   f"{status} before it sent its rows") \
                    from None
            if isinstance(outcome, BaseException):
                raise outcome
            rows[w::workers] = outcome
    finally:
        for pid, fh in helpers:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [row for task_rows in rows for row in task_rows]


def _scan_rows_to_csv(rows) -> str:
    lines = ["beta,mu,pressure,q_bar,rho_bar,m0,gap,phase"]
    for beta, mu, p, q, rho, m0, gap, phase in rows:
        lines.append(",".join([_fmt(beta), _fmt(mu), _fmt(p), _fmt(q),
                               _fmt(rho), _fmt(m0), _fmt(gap), phase]))
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    cfg = _merge_config(args)
    model = _build_model(cfg)
    betas = _parse_betas(cfg)
    mus = _parse_mu_list(cfg)
    # every ThermoPoint checks its beta before any point is solved
    tasks = [(model, [ThermoPoint(beta=beta, mu=mu) for mu in mus])
             for beta in betas]
    fmt = (cfg["format"] or "csv").lower()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown format {fmt!r} (expected csv or json)")
    rows = _scan_rows(tasks)
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
    tp = _thermo_point(cfg)
    k_max = _parse_float(cfg, "k_max")
    k_count = _parse_int(cfg, "k_count")
    if k_max <= 0 or k_count < 2:
        raise ConfigError("requires k_max > 0 and k_count >= 2")
    cont = variational_limit(model, tp)
    grid = np.linspace(0.0, k_max, k_count)
    pairs = excitation_spectrum(model, tp, cont, grid)
    lines = ["k,e_excit"]
    lines.extend(f"{_fmt(k)},{_fmt(e)}" for k, e in pairs)
    _emit("\n".join(lines) + "\n", cfg["out"])
    return EXIT_OK


def _default_fock_spec(model: Model, n_max: int):
    """Smallest instance coupling the zero mode to a +/-k pair, an
    `oracle.FockSpec`."""
    from .oracle import FockSpec

    zero = tuple(0.0 for _ in range(model.dim))
    plus = tuple(1.0 if i == 0 else 0.0 for i in range(model.dim))
    minus = tuple(-x for x in plus)
    return FockSpec(modes=(zero, plus, minus), n_max=n_max)


def cmd_oracle(args) -> int:
    # only this command imports the oracle
    from . import oracle as _oracle

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
    checks = [_oracle.check_superstability(spec, model, V),
              _oracle.check_variational_chain(spec, model, tp, V, q_grid,
                                              rho_grid, eta)]
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pairboson",
        description="Variational pressure of the pair boson model.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("scan", cmd_scan),
                     ("spectrum", cmd_spectrum), ("oracle", cmd_oracle)):
        sub = subs.add_parser(name)
        for key in (k for k in _KEYS if k in _COMMAND_KEYS[name]):
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             help=_KEYS[key][1])
        sub.add_argument("--config", help="INI-style config file")
        sub.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        with _quiet_overflow():
            return args.func(args)
    except PairBosonError as exc:
        for errors, code, label in _EXIT_TABLE:
            if isinstance(exc, errors):
                print(f"{label}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
