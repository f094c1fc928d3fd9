"""Model order reduction of MIMO linear systems via matrix polynomial
solvents.

The package works with square matrix polynomials and three interchangeable
system representations (state space, right matrix fraction, decoupled block
diagonal).  Two reduction pipelines are provided: latent root elimination on
the matrix fraction, and dominant-pole-guided block elimination on the modal
form, one block of modes per solvent.
"""

from .errors import (
    AlgorithmicError,
    AlreadyMinimal,
    BlockredError,
    InvariantViolation,
    NoCompleteSetFound,
    NoConvergence,
    NoEliminableSolvent,
    NotBlockControllable,
    NumericalError,
    ParseError,
    UnstableSystem,
)
from .matpoly import MatrixPolynomial
from .solvents import (
    CompleteSolventSet,
    Solvent,
    compute_complete_set,
    denominator_from_solvents,
    is_solvent,
    solvent_from_latent,
    validate_complete_set,
)
from .sysrep import (
    BlockDiagonalRealization,
    DiagonalBlock,
    RightMFD,
    StateSpace,
    block_diagonalize,
    controller_canonical,
    make_right_mfd,
    mfd_from_state_space,
    recompose,
    transfer_eval,
)
from .dompoles import DominantPole, dominance_index, dominance_order, dominant_poles
from .metrics import (
    BodeTable,
    Gramians,
    HankelSpectrum,
    bode_samples,
    gramians,
    h2_error,
    h2_norm,
    hankel_singular_values,
    relative_error,
)
from .reduce import (
    MatchResult,
    ReductionReport,
    Tolerances,
    match_solvents_to_poles,
    reduce_dominant,
    reduce_latent,
    trim_subsystem_eigen,
)
from .sysdoc import (
    SystemDocument,
    build_system,
    document_from_system,
    load_document,
    load_system,
    parse_document,
    save_document,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmicError",
    "AlreadyMinimal",
    "BlockDiagonalRealization",
    "BlockredError",
    "BodeTable",
    "CompleteSolventSet",
    "DiagonalBlock",
    "DominantPole",
    "Gramians",
    "HankelSpectrum",
    "InvariantViolation",
    "MatchResult",
    "MatrixPolynomial",
    "NoCompleteSetFound",
    "NoConvergence",
    "NoEliminableSolvent",
    "NotBlockControllable",
    "NumericalError",
    "ParseError",
    "ReductionReport",
    "RightMFD",
    "Solvent",
    "StateSpace",
    "SystemDocument",
    "Tolerances",
    "UnstableSystem",
    "block_diagonalize",
    "bode_samples",
    "build_system",
    "compute_complete_set",
    "controller_canonical",
    "denominator_from_solvents",
    "document_from_system",
    "dominance_index",
    "dominance_order",
    "dominant_poles",
    "gramians",
    "h2_error",
    "h2_norm",
    "hankel_singular_values",
    "is_solvent",
    "load_document",
    "load_system",
    "make_right_mfd",
    "match_solvents_to_poles",
    "mfd_from_state_space",
    "parse_document",
    "recompose",
    "reduce_dominant",
    "reduce_latent",
    "relative_error",
    "save_document",
    "solvent_from_latent",
    "transfer_eval",
    "trim_subsystem_eigen",
    "validate_complete_set",
]
