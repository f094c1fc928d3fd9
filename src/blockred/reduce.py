"""Model order reduction by solvent elimination.

Two pipelines:

* reduce_latent: work on a right matrix fraction.  Pick the first group of
  latent roots that spans a solvent, groups of fewer conjugate units first
  (see _elimination_candidates), build that solvent, divide it out of the
  denominator (and when needed the numerator, whose division remainder is
  neglected), and repeat while the relative error stays under threshold.
  The step that breaches the threshold is rolled back.

* reduce_dominant: work on a state-space system.  Extract the matrix
  fraction and compute a complete solvent set; each solvent is a block of
  modes.  One modal decomposition of the full system then ranks the poles
  by dominance; a block is claimed when it owns a dominant pole.  Eliminate
  the unclaimed blocks, then keep eliminating the least dominant blocks
  while the relative error allows.  Optionally individual eigenvalues
  inside kept blocks are trimmed as well.  The reduced model is the modal
  realization of the modes kept.

One guarded step serves both pipelines.  It measures each attempt's relative
error RE once, and when RE passes its H2 error once (for the optional H2
gate), from one metrics.ErrorGuard per reduction, given as an output matrix
on the full system's (A, B).  reduce_latent builds the guard from the full
controller form; a candidate is the numerator difference over the full
denominator.  reduce_dominant builds it from that form's modal form, its one
spectral computation; a candidate zeroes the output columns of its kept modes.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ._util import block_diag, realify_each
from .errors import (
    AlreadyMinimal,
    BlockredError,
    ConjugateBreak,
    DependentVectors,
    DefectiveRoot,
    DimensionMismatch,
    NoEliminableSolvent,
)
from .dompoles import _conjugate_partners, _ranked_modes, modal_form
from .matpoly import DEFAULT_EPS_SING, MatrixPolynomial, mul_linear, poly_mul
from .metrics import (
    ErrorGuard,
    _require_stable,
    _require_stable_values,
    as_state_space,
)
from .solvents import (
    _root_partition,
    _search,
    _size_combinations,
    compute_complete_set,
    solvent_from_roots,
)
from .sysrep import (
    BlockDiagonalRealization,
    DiagonalBlock,
    RightMFD,
    StateSpace,
    controller_canonical,
    controller_output,
    mfd_from_state_space,
)


@dataclass
class Tolerances:
    """Every tolerance used by the reduction pipelines, in one place."""

    re_threshold: float = 0.01
    h2_threshold: Optional[float] = None
    tau_null: float = 1e-6
    tau_gap: float = 1e-6
    eps_sing: float = DEFAULT_EPS_SING
    dominance_cutoff: float = 0.05
    node_budget: int = 10000

    def __post_init__(self):
        for name in (
            "re_threshold", "tau_null", "tau_gap",
            "eps_sing", "dominance_cutoff",
        ):
            if not (float(getattr(self, name)) > 0.0):
                raise ValueError(f"{name} must be strictly positive")
        if self.h2_threshold is not None and not (float(self.h2_threshold) > 0.0):
            raise ValueError("h2_threshold must be strictly positive when set")
        if int(self.node_budget) < 1:
            raise ValueError("node_budget must be at least 1")


@dataclass
class ReductionReport:
    """What a reduction did.  eliminated labels the accepted steps in order;
    re_value (relative) and h2_error (absolute) are the last accepted step's,
    0.0 when none was accepted; threshold is the RE threshold used;
    neglected_numerator_norm sums the norms of the numerator remainders
    dropped, set by "latent" only; iterations counts the guard attempts of
    "dominant", and the passes of "latent", the last one, which finds no
    solvent, included."""

    method: str
    original_order: int
    reduced_order: int
    eliminated: List[str] = field(default_factory=list)
    re_value: float = 0.0
    h2_error: float = 0.0
    neglected_numerator_norm: float = 0.0
    threshold: float = 0.0
    iterations: int = 0


def _fmt_value(z):
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}j"


def _fmt_values(values):
    return ", ".join(_fmt_value(z) for z in np.asarray(values, dtype=complex).ravel())


class _GuardedSteps:
    """The guarded step of both pipelines, with a record (label, re, h2,
    accepted) per attempt, h2 None where RE breached, to report from."""

    def __init__(self, guard, tol, hankel_power):
        self.guard, self.tol, self.hankel_power = guard, tol, hankel_power
        self.records = []

    def attempt(self, c_err, label):
        """Whether the candidate with error output c_err passes the RE
        threshold and, when one is set, the relative H2 gate."""
        re, h2 = self.guard.relative_error(c_err, self.hankel_power), None
        accepted = re <= self.tol.re_threshold
        if accepted:
            h2, base, gate = self.guard.h2_error(c_err), self.guard.h2_norm, self.tol.h2_threshold
            rel = np.inf if base == 0.0 and h2 > 0.0 else (0.0 if base == 0.0 else h2 / base)
            accepted = gate is None or rel <= gate
        self.records.append((label, re, h2, accepted))
        return accepted

    @property
    def eliminated(self):
        return [label for label, _, _, accepted in self.records if accepted]

    def report(self, method, original_order, reduced_order, iterations, neglected=0.0):
        re, h2 = next(((re, h2) for _, re, h2, ok in reversed(self.records) if ok), (0.0, 0.0))
        return ReductionReport(method, original_order, reduced_order, self.eliminated, re, h2,
                               neglected, self.tol.re_threshold, iterations)


def _as_fraction(system, eps_sing):
    """A system as a right matrix fraction: itself if it is one, else
    extracted from its state-space form."""
    if isinstance(system, RightMFD):
        return system
    return mfd_from_state_space(as_state_space(system), eps_sing)


# -- method 1: latent root elimination on the matrix fraction -----------------

def _elimination_candidates(D):
    """Conjugate-closed root selections of size m, each with the latent roots
    it leaves behind: unions of units of _root_partition, fewest units first,
    then lexicographic (see _size_combinations).  The leftmost roots need not
    go first: a selection may leave behind a root left of one it takes."""
    units, _ = _root_partition(D.latent_roots(), D.is_real)
    sizes = [sum(len(idx) for _, idx in unit) for unit in units]
    for count, combo in enumerate(_size_combinations(range(len(units)), sizes, D.block_size), 1):
        sel, rest = [], []
        for c, unit in enumerate(units):
            (sel if c in combo else rest).extend(z for z, idx in unit for _ in idx)
        yield sel, rest
        # selections grow combinatorially with the units, and each costs the
        # caller a solvent construction: a pass gives up after 200
        if count >= 200:
            return


def reduce_latent(fraction, tol=None, hankel_power=4):
    """Eliminate latent root groups from a right matrix fraction, trying
    groups of fewer conjugate units first (see _elimination_candidates).

    Returns (reduced RightMFD, ReductionReport).  The loop stops when the
    next elimination would push the relative error past the threshold; that
    step is rolled back and never part of the result.
    """
    tol = tol or Tolerances()
    if not isinstance(fraction, RightMFD):
        raise DimensionMismatch("reduce_latent expects a RightMFD")
    if fraction.D.degree <= 1:
        raise AlreadyMinimal("denominator degree is already 1")
    full = controller_canonical(fraction)
    guard = ErrorGuard.from_system(full)  # raises UnstableSystem unless full is stable
    guarded = _GuardedSteps(guard, tol, hankel_power)
    size = float(np.linalg.norm(full.A))  # sets the stability margin of kept roots
    r = fraction.D.degree
    # D = D_c Q with Q(s) = (sI - R_k) ... (sI - R_1) the factors divided out so
    # far, so G - G_c = (N - N_c Q) inv(D): an output matrix on the full form
    divided = MatrixPolynomial._from_stack(np.eye(fraction.m)[None])
    current = fraction
    iterations = 0
    neglected_norm = 0.0

    while current.D.degree > 1:
        iterations += 1
        solvent = None
        for sel, rest in _elimination_candidates(current.D):
            try:
                solvent = solvent_from_roots(current.D, sel, tol.tau_null, tol.eps_sing)
                break
            except (DependentVectors, DefectiveRoot):
                continue
        if solvent is None:
            if not guarded.eliminated:
                raise NoEliminableSolvent(
                    "no conjugate-closed latent root group spans a solvent"
                )
            break
        # the guard never forms a candidate's state matrix: check its roots
        _require_stable_values(rest, size, "the reduced fraction")

        newD = current.D.block_divide(solvent.matrix, "right").quotient
        if current.N.degree < newD.degree:
            newN = current.N
            rem_norm = 0.0
        else:
            ndiv = current.N.block_divide(solvent.matrix, "right")
            newN = ndiv.quotient
            rem_norm = float(np.linalg.norm(ndiv.remainder))
        candidate = RightMFD(
            MatrixPolynomial._from_stack(realify_each(newN.coeffs, 1e-10)).trimmed(1e-14),
            MatrixPolynomial._from_stack(realify_each(newD.coeffs, 1e-10)),
            current.feedthrough,
        )
        trial = mul_linear(divided, solvent.matrix, "left")
        c_err = full.C - controller_output(poly_mul(candidate.N, trial), r)
        if not guarded.attempt(c_err, f"solvent eigenvalues [{_fmt_values(solvent.eigenvalues)}]"):
            break  # roll back this elimination
        current = candidate
        divided = trial
        neglected_norm += rem_norm

    return current, guarded.report("latent", fraction.order, current.order,
                                   iterations, neglected_norm)


# -- method 2: dominant pole guided block elimination -------------------------

@dataclass
class MatchResult:
    """Which solvents of a complete set are claimed by a pole list."""

    matched: tuple
    unmatched: tuple
    distances: dict


def match_solvents_to_poles(solvent_set, poles, match_tol=0.1):
    """Match solvents to poles by relative eigenvalue distance.

    A solvent is kept when some pole lies within match_tol (relative to the
    eigenvalue magnitude) of one of its eigenvalues.  reduce_dominant does
    not match by distance: a block is claimed there when it owns one of the
    dominant modes.
    """
    values = [complex(getattr(p, "value", p)) for p in poles]
    matched = []
    distances = {}
    for i, sol in enumerate(solvent_set.solvents):
        best = np.inf
        for lam in sol.eigenvalues:
            for v in values:
                best = min(best, abs(v - lam) / max(1.0, abs(lam)))
        distances[i] = float(best)
        if best <= match_tol:
            matched.append(i)
    unmatched = tuple(i for i in range(len(solvent_set.solvents)) if i not in matched)
    return MatchResult(tuple(matched), unmatched, distances)


def trim_subsystem_eigen(bd, block, drop, tol=None):
    """Delete selected eigenvalues from one block of a decoupled realization.

    block indexes into bd.blocks and drop lists positions into that block's
    modes sorted by (real, imag), the order of its eigenvalues.  One modal
    decomposition of the block gives the modes; the survivors are rebuilt as
    a modal realization (2x2 rotation blocks for conjugate pairs), and a
    fully emptied block is removed from the result, and a block with a
    complex a, b or c stays complex.  For a real block a drop that takes one
    member of a conjugate pair of modes without the other raises
    ConjugateBreak; a block that is not diagonalizable raises
    NonDiagonalizableBlock before that, whatever the drop.
    """
    tol = tol or Tolerances()
    if not isinstance(bd, BlockDiagonalRealization):
        raise DimensionMismatch("trim_subsystem_eigen expects a decoupled realization")
    blocks = list(bd.blocks)
    bi = int(block)
    if not 0 <= bi < len(blocks):
        raise DimensionMismatch(f"block index {bi} out of range")
    drop = np.unique(np.asarray(drop, dtype=int))
    if not drop.size:
        return bd
    blk = blocks[bi]
    if drop[0] < 0 or drop[-1] >= blk.size:
        raise DimensionMismatch("eigenvalue index out of range")
    modes = modal_form(blk.a, blk.b, blk.c, tol.eps_sing)
    keep = np.ones(blk.size, dtype=bool)
    keep[np.lexsort((modes.values.imag, modes.values.real))[drop]] = False
    real_block = not any(np.iscomplexobj(x) for x in (blk.a, blk.b, blk.c))
    kept_block = _assemble_modal_block(modes, np.flatnonzero(keep), real_block)
    if kept_block.size == 0:
        del blocks[bi]
    else:
        blocks[bi] = kept_block
    return BlockDiagonalRealization(tuple(blocks), bd.feedthrough, bd.io_shape)


def _assemble_modal_block(modes, indices, real_output=True):
    """Modal realization of the modes `indices` of a ModalForm.

    For a real system a real eigenvalue contributes a 1x1 state and a
    conjugate pair the 2x2 rotation block [[a, -b], [b, a]], driven by the
    real and imaginary parts of its input row and observed through twice the
    real part of its output column next to minus twice the imaginary part.
    """
    m, p = modes.inputs.shape[1], modes.outputs.shape[0]
    indices = list(indices)
    partner = _conjugate_partners(modes.values) if real_output else {}
    kept = set(indices)
    order = sorted(indices, key=lambda i: (modes.values[i].real, modes.values[i].imag))
    used = set()
    a_parts, b_parts, c_parts = [], [], []
    for i in order:
        if i in used:
            continue
        lam, brow, ccol = complex(modes.values[i]), modes.inputs[i], modes.outputs[:, i]
        if not real_output:
            a_parts.append(np.array([[lam]], dtype=complex))
            b_parts.append(np.asarray(brow, dtype=complex).reshape(1, m))
            c_parts.append(np.asarray(ccol, dtype=complex).reshape(p, 1))
            continue
        if i not in partner:
            a_parts.append(np.array([[lam.real]]))
            b_parts.append(np.asarray(brow).real.reshape(1, m))
            c_parts.append(np.asarray(ccol).real.reshape(p, 1))
            continue
        if partner[i] not in kept:
            raise ConjugateBreak(
                f"eigenvalue {_fmt_value(lam)} kept without its conjugate"
            )
        used.add(partner[i])
        if lam.imag < 0:  # work with the positive-imaginary member
            i = partner[i]
            lam, brow, ccol = complex(modes.values[i]), modes.inputs[i], modes.outputs[:, i]
        al, be = lam.real, lam.imag
        a_parts.append(np.array([[al, -be], [be, al]]))
        b_parts.append(np.vstack([brow.real.reshape(1, m), brow.imag.reshape(1, m)]))
        c_parts.append(np.hstack([
            2.0 * ccol.real.reshape(p, 1), -2.0 * ccol.imag.reshape(p, 1)
        ]))
    if not a_parts:
        return DiagonalBlock(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)))
    return DiagonalBlock(
        block_diag(*a_parts),
        np.vstack(b_parts),
        np.hstack(c_parts),
    )


def _dominance_cut(ranked, dominance, cutoff):
    """The ranked modes whose dominance reaches `cutoff` times the best one's."""
    doms = dominance[ranked]
    if not np.isfinite(doms).all():
        # a pole on the imaginary axis outranks every finite one
        return ranked[~np.isfinite(doms)]
    top = float(np.max(doms, initial=0.0))
    if top == 0.0:
        return ranked
    return ranked[doms >= cutoff * top]


def reduce_dominant(sys, tol=None, k=None, continue_blocks=True, trim_eigen=False,
                    hankel_power=4):
    """Reduce a state-space system by discarding non-dominant solvent blocks.

    Pipeline: extract the right matrix fraction and its controller form.
    One modal decomposition of that form is the only spectral computation:
    it gives the stability check its poles, the complete solvent set of the
    denominator its latent roots and vectors (the form's state matrix is
    the block companion), the guard its Cauchy gramians, and every decision
    and the reduced model their modes.  Each block of the set owns the
    modes its solvent was built from, and its dominance is the largest
    among them.  The modes are ranked by dominance (the k most dominant, or
    all of them, less those under the dominance cut-off), and a block is
    claimed when it owns one of those modes.  The unclaimed blocks are
    discarded, least dominant first.  When that phase eliminated something
    and continue_blocks is set, elimination proceeds to the least dominant
    claimed blocks, and with trim_eigen to individual eigenvalues of the
    least dominant remaining block (finer granularity once whole blocks stop
    fitting).  Every step is guarded by the relative error of everything
    neglected so far, the modal truncation of all the modes dropped; a step
    that breaches the threshold is rolled back and ends elimination at that
    granularity.  An eigenvalue trim that would drop one member of a
    conjugate pair of modes without the other is passed over.

    The reduced model is the modal realization of the modes kept (a real
    state per real mode, a 2x2 rotation block per conjugate pair), so it is
    the model the guard measured.  Raises ConjugateBreak when a discarded
    block takes one member of a conjugate pair of modes and leaves the other.
    An input that fails the stability check or the search and whose
    controller form is not diagonalizable as well raises the former error.
    A k below 1 raises DimensionMismatch; one above n counts every mode.

    Returns (StateSpace, ReductionReport).
    """
    tol = tol or Tolerances()
    if k is not None and int(k) < 1:
        raise DimensionMismatch(f"k must be at least 1, got {k}")
    frac = _as_fraction(sys, tol.eps_sing)
    css = controller_canonical(frac)
    search = dict(eps_sing=tol.eps_sing, tau_gap=tol.tau_gap, tau_null=tol.tau_null,
                  node_budget=tol.node_budget)
    try:
        modes = modal_form(css.A, css.B, css.C, tol.eps_sing)
    except BlockredError:
        # the stability check and the search come first below; an input
        # that fails one of them as well reports that failure
        _require_stable(css, "reduction")
        compute_complete_set(frac.D, **search)
        raise
    _require_stable_values(modes.values, float(np.linalg.norm(css.A)), "reduction")
    # css.A is the block companion of frac.D, so modes is its eigendecomposition
    cset, groups = _search(frac.D.monic_normalized(), modes.values, modes.right, **search)
    n = css.n

    real_system = not any(np.iscomplexobj(x) for x in (css.A, css.B, css.C))
    dominance = modes.dominance
    spectra = [sol.eigenvalues for sol in cset.solvents]
    owner = np.empty(n, dtype=int)
    for i, group in enumerate(groups):
        owner[group] = i
    dom = [float(np.max(dominance[owner == i], initial=0.0)) for i in range(len(spectra))]
    count = n if k is None else min(int(k), n)
    ranked = np.array(_ranked_modes(modes, count, real_system))
    claimed = set(owner[_dominance_cut(ranked, dominance, tol.dominance_cutoff)].tolist())
    by_dominance = sorted(range(len(spectra)), key=lambda j: dom[j])
    # with no block left unclaimed no guard runs
    guard = ErrorGuard.from_modes(modes) if len(claimed) < len(spectra) else None
    guarded = _GuardedSteps(guard, tol, hankel_power)
    dropped = np.zeros(n, dtype=bool)

    def run(steps):
        # try (mask, label) steps in order, each dropping its modes on top of
        # those dropped so far; stop at the first breach
        for step, label in steps:
            trial = dropped | step
            if not guarded.attempt(modes.outputs * trial, label):
                return False
            dropped[:] = trial
        return True

    def blocks(indices, reason):
        return ((owner == i, f"block {i} [{_fmt_values(spectra[i])}] ({reason})")
                for i in indices)

    if (run(blocks([i for i in by_dominance if i not in claimed], "no dominant pole"))
            and continue_blocks and guarded.eliminated):
        run(blocks([i for i in by_dominance if i in claimed], "least dominant"))

    kept_blocks = np.unique(owner[~dropped]).tolist()
    if trim_eigen and guarded.eliminated and kept_blocks:
        last = min(kept_blocks, key=lambda j: dom[j])
        own = np.flatnonzero(owner == last)
        units, _ = _root_partition(modes.values[own],
                                   not np.iscomplexobj(cset.solvents[last].matrix))
        partner = _conjugate_partners(modes.values) if real_system else {}
        steps = []  # (modes of the unit, its label) per unit of block `last`
        for unit in units:
            step = np.zeros(n, dtype=bool)
            step[own[[k for _, idx in unit for k in idx]]] = True
            drop_vals = [z for z, idx in unit for _ in idx]
            # a unit whose modes split a conjugate pair leaves no real model
            if not any(step[i] != step[j] for i, j in partner.items()):
                steps.append((step, f"eigenvalues [{_fmt_values(drop_vals)}] of block {last}"))
        run(sorted(steps, key=lambda st: float(np.max(dominance[st[0]]))))

    kept = _assemble_modal_block(modes, np.flatnonzero(~dropped), real_system)
    reduced = StateSpace(kept.a, kept.b, kept.c, css.D)
    return reduced, guarded.report("dominant", css.n, reduced.n, len(guarded.records))
