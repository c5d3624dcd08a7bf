"""The interpreters that the CLI tests start import the package from ./src,
as pytest itself does (`pythonpath` in pyproject.toml)."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def corrupted_full(monkeypatch):
    """Negative control: every `full` Hamiltonian the oracle builds is
    reflected through the first approximant, full -> 2 approx1 - full,
    which flips the sign of the residual so the chain genuinely fails."""
    from pairboson import oracle
    real = oracle.build_hamiltonian

    def corrupted(spec, kind, model, V, **kw):
        out = real(spec, kind, model, V, **kw)
        if kind == "full":
            out.matrix = out.matrix - 2.0 * (out.matrix
                                             - real(spec, "approx1",
                                                    model, V, **kw).matrix)
        return out

    monkeypatch.setattr(oracle, "build_hamiltonian", corrupted)
