"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented contract (bad shape, range, or flag)."""


class FormatError(ValidationError):
    """A serialized artifact has a malformed header or inconsistent layout."""


class TruncatedFileError(OSError):
    """A serialized artifact ends before its declared payload."""


class DegenerateInputError(ValidationError):
    """An operation received input it is undefined on (e.g. a constant image)."""


class InfeasibleConstraintError(ValidationError):
    """No admissible sample exists (or none was found within the rejection cap)."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class DivergenceError(RuntimeError):
    """An iterative procedure produced non-finite values.

    The loss trajectory up to the failure is attached as ``trajectory``.
    """

    def __init__(self, message: str, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
