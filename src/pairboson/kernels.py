"""The radial spectral-integrand kernel.

Evaluates, at an array of radial momenta r, the four integrand rows shared by
the pressure and all its derivatives:

  row 0: -(1/beta) ln(1 - e^{-beta E}) + h^2 / (2 (E + f))      (pressure)
  row 1: n_B f/E + h^2 / (2 E (E + f))                          (d/d mu, d/d rho)
  row 2: lam^2 (n_B + 1/2) / E                                  (d/d q)
  row 3: beta n_B (n_B+1) (f/E)^2 + (n_B + 1/2) h^2 / E^3       (d^2/d mu^2)

with f = r^2/(2m) + foff, h = habs * lam(r), E = sqrt(f^2 - h^2) and
n_B = 1/(e^{beta E} - 1).  All cancellation-prone differences (E - f,
f/E - 1, ln(1 - e^{-x})) are rewritten in the stable forms above.
"""

import numpy as np

BACKEND = "numpy"  # the only kernel; perfbench records it with each result
NROWS = 4


def eval_rows(r, lam, beta, inv_2m, foff, habs, rows=(0, 1, 2, 3)):
    """Kernel rows at radii r with profile values lam; returns shape (4, n).

    Only the rows listed in `rows` are computed; the others are NaN.
    Requires f > |h| pointwise (strictly feasible; guaranteed by the caller
    via sigma = foff - habs > 0 together with |lam| <= 1).
    """
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    f = inv_2m * r * r + foff
    h = habs * lam
    E = np.sqrt((f - h) * (f + h))
    x = beta * E
    xs = np.minimum(x, 700.0)
    emx = np.exp(-xs)
    h2 = h * h
    out = np.full((NROWS,) + E.shape, np.nan)
    if 0 in rows:
        out[0] = -np.log1p(-emx) / beta + 0.5 * h2 / (E + f)
    if set(rows) <= {0}:
        return out  # the pressure row needs no n_B
    nb = np.where(x < 700.0, 1.0 / np.expm1(xs), emx)
    fe = f / E
    if 1 in rows:
        out[1] = nb * fe + 0.5 * h2 / (E * (E + f))
    if 2 in rows:
        out[2] = lam * lam * (nb + 0.5) / E
    if 3 in rows:
        out[3] = beta * nb * (nb + 1.0) * fe * fe + (nb + 0.5) * h2 / E ** 3
    return out
