"""Bose functions g_s(z) = sum_{k >= 1} z^k / k^s, the Riemann zeta
function, and the ideal-gas rows of the radial kernel in closed form.

Where the pair field vanishes (habs = |u| q = 0) the quadratic approximant
is the ideal Bose gas at f(0) = v rho - mu.  With lambda^-nu =
(m / (2 pi beta))^(nu/2) and z = e^(-beta f(0)), the kernel rows 0, 1 and
3 integrate to

  lambda^-nu g_(nu/2+1)(z) / beta,  lambda^-nu g_(nu/2)(z)  and
  beta lambda^-nu g_(nu/2-1)(z)

(R. M. Ziff, G. E. Uhlenbeck and M. Kac, Phys. Rep. 32 (1977) 169).
`ideal_rows` returns them in place of the radial quadrature.  Row 2
carries lam(r)^2 and has no such form.  Standard library and numpy only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureFailure

# B_2j / (2j)! for j = 1 ... 8, from the Bernoulli numbers B_2 = 1/6,
# B_4 = -1/30, ..., B_16 = -3617/510
_EM_COEFFS = tuple(b / math.factorial(2 * j) for j, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510),
    start=1))


@functools.lru_cache(maxsize=None)
def zeta(s: float) -> float:
    """Riemann zeta(s) for real s != 1, remembered per s.

    For s > 0, Euler-Maclaurin summation past the first N = 10 terms with
    8 correction terms (DLMF 2.10.1, 25.2.9): the remainder is below
    |B_18|/18! |(s)_17| N^(-s-17), under 6e-18 for every s > 0.  For s < 0,
    the reflection formula zeta(s) = 2 (2 pi)^(s-1) sin(pi s/2)
    Gamma(1-s) zeta(1-s) (DLMF 25.4.1), exact 0 at the trivial zeros.
    """
    if s == 0.0:
        return -0.5
    if s < 0.0:
        if s % 2.0 == 0.0:
            return 0.0
        return (2.0 * (2.0 * math.pi) ** (s - 1.0)
                * math.sin(0.5 * math.pi * math.fmod(s, 4.0))
                * math.gamma(1.0 - s) * zeta(1.0 - s))
    n = 10
    terms = [k ** -s for k in range(1, n)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n ** -s]
    rising, power = s, n ** (-s - 1.0)  # (s)_(2j-1) and N^(-s-2j+1)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        terms.append(coeff * rising * power)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= n * n
    return math.fsum(terms)


# alpha at and above which g_s(e^-alpha) sums its power series
_SERIES_FROM = 1.0
# the series stops after 2 + 41/alpha terms, at most 43: the first term
# left out is below e^-41 sqrt(44) < 1e-17 of the first
_SERIES_TERMS = 43


@functools.lru_cache(maxsize=None)
def _powers(s: float) -> tuple:
    """k^-s for k = 1 ... _SERIES_TERMS."""
    return tuple(k ** -s for k in range(1, _SERIES_TERMS + 1))


@functools.lru_cache(maxsize=None)
def _expansion(s: float) -> tuple:
    """The coefficients c_k of g_s(e^-alpha) = sing(alpha) + sum_k c_k
    (-alpha)^k at alpha < 2 pi, highest k first: c_k = zeta(s-k)/k!, and
    at an integer s = n the k = n-1 term H_(n-1)/(n-1)! in place of the
    pole zeta(1).  Past k = s the |c_k| fall at least as fast as
    (2 pi)^-k; the list stops at the first nonzero one below 1e-18, and
    the rest add less than that at alpha < 1, where g_s > 1/e."""
    pole = int(s) - 1 if s == int(s) else None  # the k of zeta(1)
    coeffs, k = [], 0
    while True:
        if k == pole:
            c = math.fsum(1.0 / j for j in range(1, k + 1))
        else:
            c = zeta(s - k)
        c /= math.factorial(k)
        coeffs.append(c)
        if k > s + 1.0 and 0.0 < abs(c) < 1e-18:
            return tuple(reversed(coeffs))
        k += 1


def bose_g(s: float, alpha: float) -> float:
    """g_s(e^-alpha) for alpha >= 0 and a half-integer or integer order
    s >= -1/2; inf where the value passes the float range.

    g_s(1) is zeta(s) for s > 1 and +inf for s <= 1.  g_0 is
    1/(e^alpha - 1).  Otherwise:

    - for alpha >= 1, the power series sum_k e^(-k alpha) / k^s;
    - for alpha < 1 and non-integer s, J. E. Robinson's expansion
      (Phys. Rev. 83 (1951) 678) Gamma(1-s) alpha^(s-1) +
      sum_k zeta(s-k) (-alpha)^k / k!;
    - for alpha < 1 and integer s = n >= 1, the same series with
      (-alpha)^(n-1) (H_(n-1) - ln alpha) / (n-1)! as its k = n-1 term
      (DLMF 25.12.12).
    """
    if alpha == 0.0:
        return zeta(s) if s > 1.0 else math.inf
    if s == 0.0:
        return math.exp(-alpha) / -math.expm1(-alpha)
    if alpha >= _SERIES_FROM:
        z = math.exp(-alpha)
        terms = min(_SERIES_TERMS, 2 + int(41.0 / alpha))
        acc = 0.0
        for c in reversed(_powers(s)[:terms]):
            acc = acc * z + c
        return acc * z
    x = -alpha
    acc = 0.0
    for c in _expansion(s):
        acc = acc * x + c
    if s == int(s):
        n = int(s)
        return acc - x ** (n - 1) / math.factorial(n - 1) * math.log(alpha)
    try:
        return acc + math.gamma(1.0 - s) * alpha ** (s - 1.0)
    except OverflowError:
        return math.inf  # alpha^(s-1) past the float range, s < 1


# s - nu/2 and the power of beta of each kernel row with a closed form at
# habs = 0
_ROW_FORM = {0: (1.0, -1), 1: (0.0, 0), 3: (-1.0, 1)}
IDEAL_ROWS = frozenset(_ROW_FORM)


def _product(factors) -> float:
    """The product of the pairs (x, k) of x^k, k = +-1 (x >= 0, and x > 0
    at k = -1), rounded once per factor but with no intermediate overflow
    or underflow: inf only where the product itself passes the float
    range."""
    m, e = 1.0, 0
    for x, k in factors:
        xm, xe = math.frexp(x)
        m, e = (m * xm, e + xe) if k > 0 else (m / xm, e - xe)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.inf


def ideal_rows(nu: int, mass: float, beta: float, foff, rows) -> np.ndarray:
    """The integrals of the kernel rows `rows` (each in IDEAL_ROWS) at
    habs = 0, in that order, as `quadrature.radial_rows` returns them:
    shape (len(rows),) at a scalar foff, (len(rows), K) at an array of K.

    lambda^-nu = x^(nu/2), x = m / (2 pi beta), enters as nu/2 factors of
    x (and one of sqrt x at odd nu), so that a value in the float range
    stays finite where lambda^-nu or 1/beta alone would pass it, as at
    beta = 1e-150 in dim 3.  Raises QuadratureFailure at an infeasible
    point (foff < 0) and where a value is NaN.  Only the divergence
    g_s(1) = +inf of an order s <= 1 at foff = 0 comes back, as inf; any
    other value that passes the float range raises OverflowError, which
    the solver ends as its float-range error.
    """
    one = np.ndim(foff) == 0
    points = [float(foff)] if one else np.asarray(foff, dtype=float).tolist()
    margin = min(points)
    if margin < 0:
        raise QuadratureFailure(
            f"infeasible evaluation point: f(0) - |h(0)| = {margin} < 0")
    x = mass / (2.0 * math.pi * beta)
    thermal = [(x, 1)] * (nu // 2) + [(math.sqrt(x), 1)] * (nu % 2)
    out = []
    for row in rows:
        order, power = _ROW_FORM[row]
        s = 0.5 * nu + order
        scale = thermal + ([(beta, power)] if power else [])
        values = []
        for f in points:
            g = bose_g(s, beta * f)
            value = _product(scale + [(g, 1)])
            diverges = value == g == math.inf and f == 0.0
            if value == math.inf and not diverges:
                raise OverflowError(
                    f"ideal-gas row {row} passes the float range at "
                    f"f(0) = {f}")
            if math.isnan(value):
                raise QuadratureFailure(
                    f"ideal-gas row {row} is {value} at f(0) = {f}")
            values.append(value)
        out.append(values[0] if one else values)
    return np.array(out)
