"""CPU-speed probe: converts wall time into reference-speed seconds.

On a shared host the speed of a vCPU changes by up to 2x within seconds,
as other tenants come and go.  No run length the time budget allows averages
that out, so timed ops are converted to reference-speed seconds instead.

While a SpeedMeter is active, a SIGALRM handler runs a fixed probe every
PERIOD_S of wall time in the measuring process: a few untimed warm-up
iterations, then timed ones.  An op that took `wall` seconds (probe time
excluded), during which the probe took t_1 .. t_n, is worth

    wall * mean(REF_S / t_i)

reference seconds: the time it would have taken at the speed at which one
probe takes REF_S.  REF_S is a constant of the benchmark, so the figures
compare across runs and commits.  The probe never calls the package, so a
faster package moves the figures and a faster or slower host does not.

Each workload uses the probe closest to its inner loop: small elementwise
numpy arrays (the radial kernel), or a dense eigensolve and whole-matrix
arithmetic (the oracle's Fock-space matrices).  Set-up, which imports
numpy among the rest, uses a probe that loads a standard-library module
from its file; this module imports numpy only when a numpy probe is built.

The work of a scan runs in pool children, on both vCPUs, while the parent
waits.  PoolSpeed gives each child a SpeedMeter of its own and converts the
scan at the children's speed (see there).
"""

from __future__ import annotations

import functools
import importlib.util
import os
import signal
from time import perf_counter

PERIOD_S = 0.05


def _import():
    # loads the standard library's calendar module from its file, as an
    # import does, without registering it in sys.modules
    origin = importlib.util.find_spec("calendar").origin

    def run(n: int) -> None:
        for _ in range(n):
            spec = importlib.util.spec_from_file_location("_speed_probe", origin)
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
    return run


def _elementwise():
    import numpy as np
    r = np.linspace(0.01, 5.0, 256)

    def run(n: int) -> None:
        for _ in range(n):
            f = 0.5 * r * r + 0.3
            e = np.sqrt(f * f - 0.01)
            1.0 / np.expm1(2.0 * e)
            np.log1p(-np.exp(-2.0 * e))
    return run


def _dense():
    import numpy as np
    rng = np.random.default_rng(0)
    s = rng.standard_normal((96, 96))
    s = s + s.T
    m = rng.standard_normal((160, 160))

    def run(n: int) -> None:
        for _ in range(n):
            np.linalg.eigvalsh(s)
            0.5 * m + m.T
    return run


# name: (probe factory, warm-up iterations, timed iterations, REF_S); REF_S
# is about the probe's time in a fast spell of a 2-vCPU x86_64 VM
PROBES = {
    "import": (_import, 1, 1, 6.0e-4),
    "elementwise": (_elementwise, 3, 30, 4.0e-4),
    "dense": (_dense, 1, 2, 1.0e-3),
}


class SpeedMeter:
    """Context manager sampling the probe on SIGALRM; see the module doc."""

    def __init__(self, probe: str):
        make, self.warm, self.timed, self.ref_s = PROBES[probe]
        self.probe = make()
        # finish the probe's own imports now: a probe that imported a module
        # the measured code is halfway through importing would see it
        # partially initialized and raise inside that code
        self.probe(self.warm)
        self.samples = []
        self.spent = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:          # a tick that lands inside a probe is dropped
            return
        self._busy = True
        try:
            t0 = perf_counter()
            self.probe(self.warm)
            t1 = perf_counter()
            self.probe(self.timed)
            t2 = perf_counter()
        finally:
            self._busy = False
        self.samples.append(t2 - t1)
        self.spent += t2 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple:
        """State at the start of an op, for `since`."""
        return len(self.samples), self.spent, perf_counter()

    def since(self, mark: tuple) -> dict:
        """Wall and reference-speed seconds of the op begun at `mark`."""
        t1 = perf_counter()
        n0, spent0, t0 = mark
        wall = t1 - t0 - (self.spent - spent0)
        if len(self.samples) == n0:       # an op shorter than PERIOD_S
            self._sample()
        times = self.samples[n0:]
        speed = sum(self.ref_s / t for t in times) / len(times)
        return {"wall_s": wall, "ref_s": wall * speed, "probes": len(times)}


# the SpeedMeter of this process when it is a scan's pool child; a module
# global so that the initializer pickles by name under any start method
_child_meter = None


def _start_child_meter(probe: str) -> None:
    """Pool initializer: the timer is not inherited across fork."""
    global _child_meter
    _child_meter = SpeedMeter(probe).__enter__()


class PoolSpeed:
    """Speed of a scan's pool children, sampled in the children.

    Wraps the names `pairboson.cli` binds: `ProcessPoolExecutor` gets an
    initializer that starts a SpeedMeter in each child, and `_scan_point`
    reports each grid point's wall and reference seconds through a pipe.
    `convert` turns the scan's wall into reference seconds at the
    children's time-weighted speed.  The children must be forked (the
    default on Linux) to see the wrapped names; when none reports, the
    parent's own conversion stands.
    """

    def __init__(self, cli, probe: str):
        self.cli, self.probe = cli, probe

    def __enter__(self):
        cli = self.cli
        self._saved = cli.ProcessPoolExecutor, cli._scan_point
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        point, write = cli._scan_point, self._write

        @functools.wraps(point)
        def scan_point(task):
            if _child_meter is None:          # not in a pool child
                return point(task)
            mark = _child_meter.mark()
            row = point(task)
            t = _child_meter.since(mark)
            os.write(write, f"{t['wall_s']!r} {t['ref_s']!r} {t['probes']}\n".encode())
            return row

        cli._scan_point = scan_point
        cli.ProcessPoolExecutor = functools.partial(
            self._saved[0], initializer=_start_child_meter, initargs=(self.probe,))
        return self

    def __exit__(self, *exc):
        self.cli.ProcessPoolExecutor, self.cli._scan_point = self._saved
        os.close(self._read)
        os.close(self._write)
        return False

    def convert(self, timing: dict) -> dict:
        """timing (from SpeedMeter.since) at the speed the children reported."""
        try:
            lines = os.read(self._read, 1 << 16).decode().split()
        except BlockingIOError:
            return timing
        walls, refs, probes = (lines[0::3], lines[1::3], lines[2::3])
        speed = sum(map(float, refs)) / sum(map(float, walls))
        return dict(timing, ref_s=timing["wall_s"] * speed,
                    probes=sum(map(int, probes)))
