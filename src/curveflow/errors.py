"""Exception types raised by the curve-flow kernel."""


class CurveFlowError(Exception):
    """Base class for all package-specific errors."""


class TooFewPoints(CurveFlowError, ValueError):
    """Operation needs more vertices than the input provides."""


class UnequalEdges(CurveFlowError, ValueError):
    """Edge lengths of an input polyline spread beyond tolerance."""


class DegenerateGap(CurveFlowError, ValueError):
    """Curve endpoints are at most GAP_FLOOR apart; the flow admits no such curve."""


class ZeroEdgeLength(CurveFlowError, ValueError):
    """Edge length is zero; the reduced chart is singular."""


class ZeroLengthInput(CurveFlowError, ValueError):
    """Input polyline has no positive total length."""


class CuspAngle(CurveFlowError, ValueError):
    """Consecutive edges are anti-parallel; the curvature formula is singular."""


class MismatchedN(CurveFlowError, ValueError):
    """Two curves that must share a vertex count do not."""


class BoundViolation(CurveFlowError, RuntimeError):
    """A runtime invariant of the flow failed; diagnostics attached.

    Attributes
    ----------
    step : int
        Time step at which the violation was detected.
    details : dict
        Offending quantities, keyed by name.
    """

    def __init__(self, message, step, details):
        super().__init__(f"step {step}: {message} ({details})")
        self.step = step
        self.details = details


class IndexOutOfRange(CurveFlowError, IndexError):
    """Requested step is not recorded in the trajectory."""


class BadParameters(CurveFlowError, ValueError):
    """Scenario or configuration parameters are invalid."""
