"""Exception taxonomy for the armwing toolkit.

Every domain failure raised by this package derives from ArmwingError so
callers (and the command line front end) can separate domain errors from
programming errors.  Each class carries a short machine-parsable code equal
to its class name; the CLI prints ``error: <ClassName>: <detail>`` on a
single line and exits with status 1.
"""

from __future__ import annotations


class ArmwingError(Exception):
    """Base class for all domain errors raised by the toolkit."""

    @property
    def code(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# mechanism definition / validation


class MechanismError(ArmwingError):
    """Base for errors about a mechanism definition or its solution."""


class SchemaError(MechanismError):
    """A mechanism document is well-formed JSON but violates the schema.

    ``field`` holds a dotted/indexed path such as ``links[2].length``.
    """

    def __init__(self, field: str, detail: str):
        self.field = field
        self.detail = detail
        super().__init__(f"{field}: {detail}")


class MechanismSyntaxError(MechanismError):
    """A mechanism document is not valid JSON; carries line and column."""

    def __init__(self, line: int, column: int, detail: str):
        self.line = line
        self.column = column
        self.detail = detail
        super().__init__(f"line {line}, column {column}: {detail}")


class VersionError(MechanismError):
    """The document's format_version is missing or unsupported."""


class MissingDriver(MechanismError):
    """The mechanism declares no driver joint."""


class OpenChain(MechanismError):
    """A driven chain has no closed loop (or a link dangles unconstrained)."""


class OverConstrained(MechanismError):
    """More loop closure equations than free joint angles."""


class NonPositiveLength(MechanismError):
    """A link's geometry collapses to a point (zero length)."""


class DanglingOutput(MechanismError):
    """A declared output is not reachable from the driver."""


class ZeroRatio(MechanismError):
    """A gear coupling declares ratio exactly zero."""


# ---------------------------------------------------------------------------
# kinematic solving


class SolveError(MechanismError):
    """Base for configuration-solve failures; may carry the failing phase."""

    def __init__(self, detail: str, phi: float | None = None):
        self.phi = phi
        if phi is not None:
            detail = f"{detail} (phi={phi:.9g} rad)"
        super().__init__(detail)


class NotAssemblable(SolveError):
    """No real configuration exists at the requested crank phase."""


class SingularConfiguration(SolveError):
    """Adjacent links collinear within tolerance; the branch is ambiguous."""


class NoConvergence(SolveError):
    """Newton iteration failed to reach tolerance within the budget."""


class SingularJacobian(SolveError):
    """The loop-closure Jacobian is singular at the current iterate."""


# ---------------------------------------------------------------------------
# fitting


class FittingError(ArmwingError):
    pass


class EmptyResidual(FittingError):
    """A residual vector with zero entries has no defined cost."""


class GridMismatch(FittingError):
    """Two phase grids that must coincide do not."""


class NoFeasibleStart(FittingError):
    """No multistart point produced a feasible fitted design."""


# ---------------------------------------------------------------------------
# analysis


class AnalysisError(ArmwingError):
    pass


class UnknownParameter(AnalysisError):
    """A named design parameter does not exist on the mechanism."""


class NonPositiveStretch(AnalysisError):
    """A uniaxial stretch ratio must be strictly positive."""


class UnknownMaterial(AnalysisError):
    """A material name is not present in the material database."""


class MissingMaterialModel(AnalysisError):
    """The material entry lacks hyperelastic constants."""
