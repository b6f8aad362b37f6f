"""Exception types raised by the laboratory."""


class KGFrameError(Exception):
    """Base class for the package's domain errors.

    Plain argument misuse (unknown check ids, non-positive trial counts,
    malformed size strings) raises :class:`ValueError` instead.
    """


class ShapeMismatch(KGFrameError):
    """Operands live over different algebras or have incompatible ranks."""


class PartitionError(KGFrameError):
    """A coordinate partition does not tile the module rank."""


class BasisError(KGFrameError):
    """A candidate family fails the orthonormal-basis axioms."""


class IsometryError(KGFrameError):
    """An operator fails the required isometry or co-isometry identity."""


class CommutationError(KGFrameError):
    """Two operators required to commute do not."""


class DualityError(KGFrameError):
    """A duality precondition fails, with diagnostics attached."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class InfeasibleSpec(KGFrameError):
    """A generation request is inconsistent or exceeds the size caps."""


class DocumentError(KGFrameError):
    """An instance or report document is malformed; message carries a field path."""
