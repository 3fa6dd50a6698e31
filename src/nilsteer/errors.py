"""Exception types shared across the library.

Every failure mode that callers are expected to catch is a named class
here, so the CLI can map them to structured exit codes and the planner
can react to specific conditions (frame singularities, domain exits)
without string matching.
"""


class NilsteerError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload


class NoFrame(NilsteerError):
    """No bracket frame with usable determinant exists at the point."""

    code = "no-frame"


class SingularFrame(NilsteerError):
    """A chosen frame is singular where it was assumed invertible."""

    code = "singular-frame"


class IdentificationFailure(NilsteerError):
    """The homogeneous-correction linear system is inconsistent.

    This indicates an internal inconsistency (the construction guarantees
    solvability), so it is raised loudly instead of being papered over.
    """

    code = "identification-failure"


class SearchBudgetExhausted(NilsteerError):
    """Frequency search hit its configured cap before succeeding."""

    code = "search-budget-exhausted"


class SingularMatrix(NilsteerError):
    """A matrix is singular or below its determinant threshold."""

    code = "singular-matrix"


class SteeringResidual(NilsteerError):
    """Exact steering left a class coordinate off zero."""

    code = "steering-residual"


class IntegrationLeftDomain(NilsteerError):
    """A trajectory left the working cell during integration."""

    code = "integration-left-domain"

    def __init__(self, message, trajectory=None, **payload):
        super().__init__(message, **payload)
        self.trajectory = trajectory


class IterationCapExceeded(NilsteerError):
    """The iterative planner exceeded its iteration cap."""

    code = "iteration-cap-exceeded"

    def __init__(self, message, report=None, **payload):
        super().__init__(message, **payload)
        self.report = report


class CoverageGap(NilsteerError):
    """Some grid box admits no frame above threshold."""

    code = "coverage-gap"


class NoPath(NilsteerError):
    """The covering's connectedness graph does not link start to goal."""

    code = "no-path"


class StepFailure(NilsteerError):
    """The integrator failed to advance."""

    code = "step-failure"

    def __init__(self, message, trajectory=None, **payload):
        super().__init__(message, **payload)
        self.trajectory = trajectory


class DomainExit(NilsteerError):
    """Integration detected an exit from the stated domain."""

    code = "domain-exit"

    def __init__(self, message, trajectory=None, **payload):
        super().__init__(message, **payload)
        self.trajectory = trajectory


class SpecError(NilsteerError):
    """A system specification document failed to parse or validate."""

    code = "spec-error"
