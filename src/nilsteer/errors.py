"""Exception types shared across the library.

Every failure mode that callers are expected to catch is a named class
here, so a front end can map them to structured exit codes and the
planner can react to specific conditions (singular frames, integrator
stalls) without string matching.  The structured data of an error,
such as the partial trajectory of a stalled replay, is its payload.
"""


class NilsteerError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message, **payload):
        super().__init__(message)
        self.payload = payload


class SingularFrame(NilsteerError):
    """A chosen frame is singular where it was assumed invertible."""

    code = "singular-frame"


class IdentificationFailure(NilsteerError):
    """The homogeneous-correction linear system has no unique solution.

    This indicates an internal inconsistency (the construction guarantees
    solvability), so it is raised loudly instead of being papered over.
    """

    code = "identification-failure"


class SingularMatrix(NilsteerError):
    """A matrix is singular or below its determinant threshold.

    Exact steering also raises it for a class whose period moves a
    coordinate of an earlier class, or moves a class coordinate by a
    term free of the resonance amplitudes, of degree other than one in
    them, or that is not a rational multiple of pi.  The payload's
    class_id then names the class.
    """

    code = "singular-matrix"


class SteeringResidual(NilsteerError):
    """Exact steering left a class coordinate off zero."""

    code = "steering-residual"


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


class SpecError(NilsteerError):
    """A system specification document failed to parse or validate."""

    code = "spec-error"
