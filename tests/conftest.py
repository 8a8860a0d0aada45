import contextlib
import io
from dataclasses import dataclass

import numpy as np
import pytest

from ddcap import PeriodicSignal, spectrum_to_samples
from ddcap.cli import main
from ddcap.signals import SpectralPoly


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def signal_from_coeffs(coeffs, B=1.0) -> PeriodicSignal:
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return spectrum_to_samples(SpectralPoly(coeffs=coeffs, M=len(coeffs), B=B))


def random_coeff_signal(rng, M, B=1.0) -> PeriodicSignal:
    coeffs = (rng.standard_normal(M) + 1j * rng.standard_normal(M)) / np.sqrt(2 * M)
    return signal_from_coeffs(coeffs, B)


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args) -> Result:
    """Run ``ddcap`` on args in this process: its exit code, stdout and stderr.

    An exception that escapes the command is raised here, with its traceback.
    """
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(args)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return Result(code, out.getvalue(), err.getvalue())
