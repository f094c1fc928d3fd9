"""Exception hierarchy shared by the library and the command line tool.

Exit code mapping used by the CLI:

* 1 file/grammar problems (ParseError)
* 2 structural violations in an otherwise parseable document
* 3 an algorithm ran correctly but could not produce a result
* 4 numerical failure (singularity, conditioning, instability)
"""


class BlockredError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class ParseError(BlockredError):
    """A system document could not be tokenized or read."""

    exit_code = 1

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)


class InvariantViolation(BlockredError):
    """A parseable document or object breaks a structural invariant."""

    exit_code = 2


class AlgorithmicError(BlockredError):
    """An algorithm terminated without a usable result."""

    exit_code = 3


class NumericalError(BlockredError):
    """A numerical precondition failed (singularity, conditioning, ...)."""

    exit_code = 4


# -- invariant violations -----------------------------------------------------

class DimensionMismatch(InvariantViolation):
    pass


class IndivisibleDimensions(InvariantViolation):
    """State dimension is not an integer multiple of the input count."""


class NotMonic(InvariantViolation):
    pass


class ImproperFraction(InvariantViolation):
    """Numerator degree too high for a proper matrix fraction."""


class NonzeroFeedthrough(InvariantViolation):
    pass


class FeedthroughMismatch(InvariantViolation):
    pass


# -- algorithmic failures -----------------------------------------------------

class DependentVectors(AlgorithmicError):
    """Selected latent vectors do not form an invertible matrix."""


class DefectiveRoot(AlgorithmicError):
    """A repeated latent root carries fewer independent vectors than its
    multiplicity."""


class IncompleteSet(AlgorithmicError):
    """A proposed solvent set fails one of the completeness conditions."""

    def __init__(self, message, condition=None):
        self.condition = condition
        super().__init__(message)


class NoCompleteSetFound(AlgorithmicError):
    pass


class NoConvergence(AlgorithmicError):
    pass


class NoEliminableSolvent(AlgorithmicError):
    pass


class AlreadyMinimal(AlgorithmicError):
    pass


class NotALatentRoot(AlgorithmicError):
    pass


# -- numerical failures -------------------------------------------------------

class SingularLeadingCoefficient(NumericalError):
    pass


class SingularVandermonde(NumericalError):
    pass


class NotBlockControllable(NumericalError):
    pass


class NotDecoupled(NumericalError):
    """A similarity transform failed to produce a block diagonal matrix."""


class ProbeAtPole(NumericalError):
    pass


class DegenerateEigenvector(NumericalError):
    pass


class NonDiagonalizableBlock(NumericalError):
    pass


class ConjugateBreak(NumericalError):
    """A computation expected a conjugate-symmetric spectrum and lost it."""


class UnstableSystem(NumericalError):
    pass


class InterpolationError(NumericalError):
    pass
