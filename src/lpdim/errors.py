"""Exception taxonomy shared across the package.

The command line maps these onto exit codes: usage and structural problems
exit 2, missing capabilities exit 3, numeric failures (solver, tail bound,
certificate inversion, linear algebra) exit 4.
"""


class StructureError(ValueError):
    """Mismatched arities, fiber dimensions, or incompatible groups."""


class CapabilityError(NotImplementedError):
    """The requested computation has no implemented closed form or exact route."""


class TailBoundError(ValueError):
    """A declared tail bound is violated by the measured data."""

    def __init__(self, message: str, measured: float):
        super().__init__(f"{message} (measured {measured:.6g})")
        self.measured = measured


class SolverFailure(RuntimeError):
    """An iterative solver stopped short of its tolerance.

    Carries the last residual and iteration count so callers can report
    or re-run with looser settings.
    """

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class CertificateInversion(RuntimeError):
    """A grid cell's certified lower count exceeds its certified upper count.

    The inner and outer models disagree beyond what their certificates
    allow, so neither end of the bracket can be reported.
    """
