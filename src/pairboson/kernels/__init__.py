"""Integrand kernel backend selection.

Prefers the compiled extension when it was built; otherwise falls back to the
pure-numpy implementation with identical semantics.  Only the numpy kernel
skips the rows a caller does not ask for; the compiled one accepts `rows`
and always computes all four.
"""

try:
    from ._fastkern import eval_rows as _eval_all_rows
except ImportError:
    from .pure import eval_rows  # noqa: F401
    BACKEND = "numpy"
else:
    BACKEND = "cython"

    def eval_rows(r, lam, beta, inv_2m, foff, habs, rows=None):
        """The compiled kernel's four rows; `rows` is ignored."""
        return _eval_all_rows(r, lam, beta, inv_2m, foff, habs)

from .pure import NROWS  # noqa: F401
