"""The radial spectral-integrand kernel.

Evaluates, at an array of radial momenta r, any of the four integrand rows
shared by the pressure and all its derivatives:

  row 0: -(1/beta) ln(1 - e^{-beta E}) + h^2 / (2 (E + f))      (pressure)
  row 1: n_B f/E + h^2 / (2 E (E + f))                          (d/d mu, d/d rho)
  row 2: lam^2 (n_B + 1/2) / E                                  (d/d q)
  row 3: beta n_B (n_B+1) (f/E)^2 + (n_B + 1/2) h^2 / E^3       (d^2/d mu^2)

with f = r^2/(2m) + sigma + habs, h = habs * lam(r), E = sqrt(f^2 - h^2)
and n_B = 1/(e^{beta E} - 1).  sigma >= 0 is the feasibility gap f(0) - h(0)
itself, as the caller carries it, so it keeps full relative precision where
it lies far below an ulp of f(0).  All cancellation-prone differences
(E - f, f/E - 1, ln(1 - e^{-x})) are rewritten in the stable forms above,
and f - h is summed from its nonnegative parts r^2/(2m) + sigma +
habs (1 - lam): near sigma = 0 the difference f - h would round to 0
wherever r^2/(2m) is below one ulp of f, and E = 0 there makes rows 1-3
infinite or NaN.  For the same reason the caller passes 1 - lam from the
profile's closed form (`CouplingProfile.complement_radial`), which keeps it
where lam rounds to 1.
"""

import numpy as np

BACKEND = "numpy"  # the only kernel; perfbench records it with each result


def eval_rows(r, lam, lam_c, beta, inv_2m, sigma, habs, rows):
    """The kernel rows listed in `rows` at radii r, in that order; returns
    shape (len(rows),) + S, with S the broadcast shape of r and of
    sigma, habs.  The radial quadrature passes one mesh's m nodes as r and
    K points' sigma and habs as (K, 1) columns, so S = (K, m).

    lam and lam_c = 1 - lam are the profile values at r.  Requires
    f - h > 0 at every r > 0 (guaranteed by the caller via sigma >= 0
    together with 0 <= lam <= 1).
    """
    r = np.asarray(r, dtype=float)
    lam = np.asarray(lam, dtype=float)
    kin = inv_2m * r * r
    f = kin + (sigma + habs)
    h = habs * lam
    E = np.sqrt((kin + sigma + habs * lam_c) * (f + h))
    x = beta * E
    xs = np.minimum(x, 700.0)
    h2 = h * h
    if set(rows) != {0}:  # the pressure row alone needs no n_B
        # beta E clipped at 700: in binary64 1/expm1(700) == e^{-700}
        nb = 1.0 / np.expm1(xs)
        fe = f / E
    out = np.empty((len(rows),) + E.shape)
    for i, row in enumerate(rows):
        if row == 0:
            out[i] = -np.log1p(-np.exp(-xs)) / beta + 0.5 * h2 / (E + f)
        elif row == 1:
            out[i] = nb * fe + 0.5 * h2 / (E * (E + f))
        elif row == 2:
            out[i] = lam * lam * (nb + 0.5) / E
        else:
            # E * E * E: numpy's E ** 3 calls pow per element, at about
            # twice the time
            out[i] = (beta * nb * (nb + 1.0) * fe * fe
                      + (nb + 0.5) * h2 / (E * E * E))
    return out
