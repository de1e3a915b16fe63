"""Exception taxonomy for the whole package.

Every failure mode that callers are expected to handle gets its own
class here so that tests and the CLI can catch precisely.  Anything
raised as InternalInconsistency means two independent computations of
the same quantity disagreed; that is a bug in this package or a broken
input scene, never a recoverable user error.
"""

from typing import Optional


class LightlikeLabError(Exception):
    """Base class for all package errors."""


class ParamError(LightlikeLabError):
    """Structure parameters (p, q) outside the admissible integer range."""


class ShapeError(LightlikeLabError):
    """Vector or matrix dimensions that do not fit the operation."""


class DivByZero(LightlikeLabError, ZeroDivisionError):
    """Division by an exact zero scalar."""


class NotInSpan(LightlikeLabError):
    """Coordinate extraction requested for a vector outside the span."""


class ParseError(LightlikeLabError):
    """Malformed scalar or polynomial text."""


class ImmersionRankDrop(LightlikeLabError):
    """Chart Jacobian loses rank at the evaluation point."""


class NotLightlike(LightlikeLabError):
    """Operation requires a degenerate induced metric but the radical is zero."""


class ScreenInvalid(LightlikeLabError):
    """User-supplied screen override fails one of its contracts."""


class LtrConstructionFailed(LightlikeLabError):
    """Null transversal frame construction could not complete."""


class InsufficientScene(LightlikeLabError):
    """Scene lacks the fields or sections a requested check needs."""


class ValidationError(LightlikeLabError):
    """Scene document failed structural validation."""


class InternalInconsistency(LightlikeLabError):
    """Two independent routes to the same value disagreed.

    check, point and mode name where it happened, as far as the raiser
    and the callers it passes through know it: the check identifier, the
    index of the scene point, and the configuration mode.
    """

    def __init__(
        self,
        message: str = "",
        *,
        check: Optional[str] = None,
        point: Optional[int] = None,
        mode: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.check = check
        self.point = point
        self.mode = mode

    def source(self) -> str:
        """check=<id> point=<index> mode=<mode>, '-' where unknown."""
        fields = (("check", self.check), ("point", self.point), ("mode", self.mode))
        return " ".join(f"{k}={'-' if v is None else v}" for k, v in fields)
