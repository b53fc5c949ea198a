"""Explicit construction of the measurement schemes.

The generalized measurement is realized on a (D+1)-dimensional space: the
D-dimensional system block plus a one-dimensional failure direction (the
ancilla coordinate, index D). A unitary U maps each embedded input state onto

    sqrt(p_i) |success_i>  +  sqrt(q_i) e^{i theta_i} |ancilla>,

with the target's success vector orthogonal to every complement success
vector, so that a projective measurement of {target direction, ancilla,
remainder} never misidentifies. U exists iff the success Gram
G_succ = G - w w^dagger, w_i = sqrt(q_i) e^{-i theta_i}, is positive
semidefinite; that verdict is checked to PSD_TOL. U is then built in closed
form from its ancilla row (``build_neumark``).

Every scheme is at most two rank-one elements x x^dagger plus the remainder
I - sum x x^dagger, and is stored as those vectors and nothing else
(``MeasurementScheme``): x_t and x_f, read from two rows of U, for the
generalized measurement (``povm_elements``); psi_1 for the selective
projection and the unit perpendicular and parallel parts of psi_1 for the
nonselective one (``projective_scheme``). Born probabilities for N states
then cost O(N * D) on one path, and no D x D matrix is formed unless
``operators`` is read.

Phase convention: theta_1 = 0 and theta_i = arg<psi_1|psi_i>. With the product
rule q1 * q_i = |<psi_1|psi_i>|^2 this zeroes the first row of G_succ, which is
the success-orthogonality requirement: it holds for ``failure_allocations``
output, and ``build_neumark`` checks it to DEPENDENCY_TOL for any other.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .ensemble import FilteringProblem, _freeze, _frozen_fields, decompose_target, gram_matrix
from .errors import (
    DegenerateDecompositionError,
    InfeasibleError,
    InvalidInputError,
    NumericalError,
)
from .tolerances import DEPENDENCY_TOL, OPERATOR_TOL, PROB_TOL, PSD_TOL, SOLVE_RCOND


class SchemeKind(str, Enum):
    SQM1 = "SQM1"
    SQM2 = "SQM2"
    POVM = "POVM"


class Outcome(str, Enum):
    IS_TARGET = "IS_TARGET"
    IS_COMPLEMENT = "IS_COMPLEMENT"
    FAIL = "FAIL"


@dataclass(frozen=True, eq=False)
class FailureAllocation:
    """Per-state failure weights q_i in [0, 1] and finite phases theta_i (target
    first): 1-D arrays of one length, stored as copies."""

    failure_probs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        q = _freeze(np.array(self.failure_probs, float))
        phases = _freeze(np.array(self.phases, float))
        if q.ndim != 1 or q.shape != phases.shape:
            raise InvalidInputError(
                f"failure weights of shape {q.shape} and phases of shape {phases.shape} "
                "must be 1-D and of equal length"
            )
        outside = ~((q >= 0.0) & (q <= 1.0))  # NaN is outside
        if outside.any():
            raise InvalidInputError(f"failure weight {float(q[outside][0])!r} must lie in [0, 1]")
        nonfinite = ~np.isfinite(phases)
        if nonfinite.any():
            raise InvalidInputError(f"phase {float(phases[nonfinite][0])!r} must be finite")
        object.__setattr__(self, "failure_probs", q)
        object.__setattr__(self, "phases", phases)

    @property
    def q1(self) -> float:
        """The target's failure weight, ``failure_probs[0]``."""
        return float(self.failure_probs[0])


def failure_allocations(problem: FilteringProblem, q1: float) -> FailureAllocation:
    """Failure weights induced by a choice of target failure weight q1.

    The product rule q1 * q_i = |<psi_1|psi_i>|^2 fixes every complement
    weight; q1 itself must lie in [f, 1] where f is the target's parallel
    squared norm (within PROB_TOL), else no unitary realization exists.
    """
    q1 = float(q1)
    f = decompose_target(problem).parallel_norm_sq
    if not f - PROB_TOL <= q1 <= 1.0 + PROB_TOL:
        raise InfeasibleError(
            f"target failure weight q1={q1!r} must lie in the range [{f!r}, 1] within PROB_TOL"
        )
    q1 = min(max(q1, f, 0.0), 1.0)
    overlaps_sq = np.abs(problem._overlaps) ** 2
    n = problem.n_states
    q = np.empty(n)
    q[0] = q1
    if q1 > 0.0:
        q[1:] = overlaps_sq / q1
    else:
        if not overlaps_sq.max(initial=0.0) <= PROB_TOL**2:
            raise InfeasibleError(
                "q1 = 0 requires every complement state to be orthogonal to the target: "
                f"overlap {np.sqrt(overlaps_sq.max()):.3e} exceeds PROB_TOL"
            )
        q[1:] = 0.0
    q = np.minimum(q, 1.0)
    phases = np.concatenate([[0.0], np.angle(problem._overlaps)])
    return FailureAllocation(failure_probs=q, phases=phases)


@dataclass(frozen=True, eq=False)
class SuccessGram:
    """Gram matrix of the prescribed success vectors plus its PSD verdict."""

    matrix: np.ndarray
    min_eigenvalue: float
    feasible: bool

    def __post_init__(self):
        _frozen_fields(self, np.complex128, "matrix")


def success_gram(problem: FilteringProblem, allocation: FailureAllocation) -> SuccessGram:
    """G_succ = G - w w^dagger with w_i = sqrt(q_i) e^{-i theta_i}.

    Feasible iff the smallest eigenvalue is >= -PSD_TOL (separating genuine
    infeasibility from floating-point noise at desk-scale dimensions). Under
    the package phase convention the first row and column vanish identically,
    which is the success-orthogonality requirement in Gram form.
    """
    if allocation.failure_probs.size != problem.n_states:
        raise InvalidInputError(
            f"allocation of length {allocation.failure_probs.size} does not fit "
            f"{problem.n_states} states"
        )
    g = gram_matrix(problem)
    w = np.sqrt(allocation.failure_probs) * np.exp(-1j * allocation.phases)
    gs = g - np.outer(w, w.conj())
    gs = (gs + gs.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(gs).min())
    return SuccessGram(matrix=gs, min_eigenvalue=min_eig, feasible=min_eig >= -PSD_TOL)


@dataclass(frozen=True, eq=False)
class NeumarkModel:
    """The dilated unitary realizing the generalized filtering measurement.

    ``unitary`` acts on the (D+1)-dimensional dilation, whose last coordinate
    (index D) is the failure direction. ``success_outputs[i]`` is the
    unnormalized system-block image sqrt(p_i)|success_i> and
    ``failure_amplitudes[i]`` the ancilla amplitude sqrt(q_i) e^{i theta_i},
    with the phases theta_i those of ``allocation``.
    """

    unitary: np.ndarray
    dimension: int
    success_outputs: np.ndarray
    failure_amplitudes: np.ndarray
    allocation: FailureAllocation

    def __post_init__(self):
        _frozen_fields(self, np.complex128, "unitary", "success_outputs", "failure_amplitudes")


def build_neumark(problem: FilteringProblem, allocation: FailureAllocation) -> NeumarkModel:
    """Construct the dilated unitary for the given failure allocation.

    The ancilla row u is the minimum-norm solution of M u = a, with the states
    as the rows of M, a_i = sqrt(q_i) e^{i theta_i}, and singular values of M
    below SOLVE_RCOND times the largest counted as dependencies. With
    r = sqrt(1 - |u|^2) and R = I - conj(u) u^T / (1 + r), R is Hermitian with
    R^2 = I - conj(u) u^T, so U = [[R, -conj(u)], [u^T, r]] is unitary and
    sends each state to R psi_i + a_i |ancilla>.

    Raises InfeasibleError when the success Gram is not positive semidefinite,
    when a lies outside the range of M (the states are linearly dependent and
    the amplitudes violate the same dependency), or when a breaks the product
    rule conj(a_1) a_i = <psi_1|psi_i>, which success orthogonality needs.
    """
    d = problem.dimension
    sg = success_gram(problem, allocation)
    if not sg.feasible:
        raise InfeasibleError(
            f"no unitary realization: success Gram eigenvalue {sg.min_eigenvalue:.3e} < -PSD_TOL"
        )

    m = problem.state_matrix
    amplitudes = np.sqrt(allocation.failure_probs) * np.exp(1j * allocation.phases)
    # Singular values of near-dependent states (~1e-13) would amplify rounding
    # in the amplitudes past |u| = 1. One refinement step makes M u = a exact
    # to rounding, which is what the FAIL probabilities |u^T psi_i|^2 rest on.
    u, *_ = np.linalg.lstsq(m, amplitudes, rcond=SOLVE_RCOND)
    u += np.linalg.lstsq(m, amplitudes - m @ u, rcond=SOLVE_RCOND)[0]
    residual = float(np.abs(m @ u - amplitudes).max())
    if not residual <= DEPENDENCY_TOL:
        raise InfeasibleError(
            f"failure amplitudes leave residual {residual:.3e} > DEPENDENCY_TOL in M u = a: the "
            "states are linearly dependent but the amplitudes do not satisfy the same dependency"
        )
    # <s_1|s_i> = <psi_1|psi_i> - conj(a_1) a_i: success orthogonality is the product rule.
    breach = float(np.abs(amplitudes[0].conj() * amplitudes[1:] - problem._overlaps).max())
    if not breach <= DEPENDENCY_TOL:
        raise InfeasibleError(
            f"failure amplitudes breach the product rule conj(a_1) a_i = <psi_1|psi_i> by "
            f"{breach:.3e} > DEPENDENCY_TOL"
        )

    # A feasible allocation has |u| <= 1; at q1 = f and q1 = 1 it is 1 to rounding.
    norm_sq = float(np.real(np.vdot(u, u)))
    if norm_sq > 1.0:
        u = u / np.sqrt(norm_sq)
        norm_sq = 1.0
    r = np.sqrt(1.0 - norm_sq)
    # (1 - r) / |u|^2 = 1 / (1 + r), which needs no branch at u = 0.
    block = np.eye(d, dtype=np.complex128) - np.outer(u.conj(), u) / (1.0 + r)
    unitary = np.block([[block, -u.conj()[:, None]], [u, r]])

    unitarity = float(np.abs(unitary.conj().T @ unitary - np.eye(d + 1)).max())
    if not unitarity <= OPERATOR_TOL:
        raise NumericalError(f"unitarity defect {unitarity:.3e} exceeds OPERATOR_TOL")
    mapping = float(np.abs(m @ unitary[d, :d] - amplitudes).max())
    if not mapping <= DEPENDENCY_TOL:
        raise NumericalError(f"unitary misses prescribed outputs by {mapping:.3e} > DEPENDENCY_TOL")

    return NeumarkModel(
        unitary=unitary,
        dimension=d,
        success_outputs=m @ block.T,
        failure_amplitudes=amplitudes,
        allocation=allocation,
    )


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """Labeled positive operators implementing one filtering strategy.

    The operators are rank-one elements x x^dagger, one per row of
    ``vectors``, for the outcomes other than IS_COMPLEMENT in their order,
    plus the remainder I - sum x x^dagger as IS_COMPLEMENT. Completeness then
    holds by construction, and positivity is a check on the small Gram matrix
    X^dagger X of the rows: I - X X^dagger has eigenvalues 1 and
    1 - eig(X^dagger X), and construction rejects any below -OPERATOR_TOL and
    any non-finite vector.

    ``acting_dimension`` is the length D of the rows, the space states are fed
    into directly; ``dilation_dimension`` is D + 1 for the generalized
    measurement, whose elements are pulled back from that dilation, and None
    for the projective ones. ``operators`` are derived from the rows on first
    use.
    """

    kind: SchemeKind
    outcomes: tuple[Outcome, ...]
    vectors: np.ndarray
    warning: str | None = None

    def __post_init__(self):
        x = _freeze(np.array(self.vectors, dtype=np.complex128))
        fits = x.ndim == 2 and len(x) == len(self.outcomes) - 1
        if Outcome.IS_COMPLEMENT not in self.outcomes or not fits:
            raise InvalidInputError(
                f"rank-one vectors of shape {x.shape} do not fit {len(self.outcomes)} "
                "outcomes: one vector per outcome other than IS_COMPLEMENT is required"
            )
        if not np.isfinite(x).all():
            raise InvalidInputError("rank-one vectors must be finite")
        # Each x x^dagger is positive; the remainder's smallest eigenvalue is
        # 1 - the largest eigenvalue of the Gram matrix of the vectors.
        min_eig = 1.0 - float(np.linalg.eigvalsh(x.conj() @ x.T).max(initial=0.0))
        if not min_eig >= -OPERATOR_TOL:
            raise NumericalError(f"outcome operator has eigenvalue {min_eig:.3e} < -OPERATOR_TOL")
        object.__setattr__(self, "vectors", x)

    @property
    def acting_dimension(self) -> int:
        return self.vectors.shape[1]

    @property
    def dilation_dimension(self) -> int | None:
        return self.acting_dimension + 1 if self.kind == SchemeKind.POVM else None

    @cached_property
    def operators(self) -> tuple[np.ndarray, ...]:
        """One read-only D x D operator per outcome, in outcome order."""
        rank_one = [_freeze(np.outer(x, x.conj())) for x in self.vectors]
        remainder = _freeze(np.eye(self.acting_dimension, dtype=np.complex128) - sum(rank_one))
        ordered = iter(rank_one)
        return tuple(
            remainder if outcome == Outcome.IS_COMPLEMENT else next(ordered)
            for outcome in self.outcomes
        )

    def operator(self, outcome: Outcome) -> np.ndarray:
        return self.operators[self.outcomes.index(outcome)]

    def born_probabilities(self, states) -> np.ndarray:
        """(N, K) matrix of <psi_i|E_k|psi_i> for the N rows of ``states``.

        A rank-one cell is |x^dagger psi|^2, at O(D) per state and vector; the
        remainder cell is |psi|^2 minus the row's rank-one cells, so every row
        sums to its state's squared norm. Values are raw Born values,
        which rounding can leave just outside [0, 1]. The products are einsum
        loops rather than BLAS calls, so a row's values do not depend on how
        many rows are passed with it.
        """
        rows = np.ascontiguousarray(states, dtype=np.complex128)
        if rows.ndim != 2 or rows.shape[1] != self.acting_dimension:
            raise InvalidInputError(
                f"state dimension {rows.shape[-1]} does not match the scheme's "
                f"measured space ({self.acting_dimension})"
            )
        amplitudes = np.einsum("ij,rj->ir", rows, self.vectors.conj())
        probs = amplitudes.real**2 + amplitudes.imag**2
        flat = rows.view(np.float64)
        remainder = np.einsum("ij,ij->i", flat, flat) - probs.sum(axis=1)
        return np.insert(probs, self.outcomes.index(Outcome.IS_COMPLEMENT), remainder, axis=1)


def povm_elements(model: NeumarkModel) -> MeasurementScheme:
    """System-space elements of the generalized measurement, as rank-one vectors.

    Two rows of the unitary U give them: the ancilla row, x_f = conj(U[D, :D]),
    and the target success direction s_1 / sqrt(p_1) pulled back through the
    system block, x_t = U[:D, :D]^dag s_1 / sqrt(p_1). Then E_fail = x_f x_f^dag,
    E_target = x_t x_t^dag and E_comp = I - E_target - E_fail, the scheme's
    remainder. When the target always fails (p_1 = 0) the conclusive target
    outcome is omitted and the scheme carries a warning flag. O(D^2) time and
    O(D) memory: no D x D matrix is formed.
    """
    d = model.dimension
    target_success = model.success_outputs[0]
    p1 = float(np.real(np.vdot(target_success, target_success)))

    x_f = model.unitary[d, :d].conj()
    if p1 > PROB_TOL:
        # U[:D, :D]^dag s_1 as a vector-matrix product, which copies no D x D block.
        x_t = (target_success.conj() @ model.unitary[:d, :d]).conj() / np.sqrt(p1)
        outcomes = (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
        vectors = (x_t, x_f)
        warning = None
    else:
        outcomes = (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        vectors = (x_f,)
        warning = "target success probability is zero; IS_TARGET outcome omitted"

    return MeasurementScheme(
        kind=SchemeKind.POVM,
        outcomes=outcomes,
        vectors=vectors,
        warning=warning,
    )


def projective_scheme(problem: FilteringProblem, kind: SchemeKind) -> MeasurementScheme:
    """The two standard projective strategies on the bare system space.

    SQM1 projects onto the target: a click (IS_COMPLEMENT) excludes the
    target, a no-click is inconclusive; the target itself always fails. SQM2
    measures the target's component orthogonal to the complement span, giving
    a conclusive outcome for both subsets. SQM2 degenerates when the target
    lies entirely inside the complement span (error) or is orthogonal to it
    (perfect discrimination, returned with a warning flag). Both are stored
    as rank-one vectors: SQM1 as psi_1 (FAIL), SQM2 as the unit perpendicular
    (IS_TARGET) and parallel (FAIL) parts of psi_1.
    """
    target = problem.state_matrix[0]
    if kind == SchemeKind.SQM1:
        return MeasurementScheme(
            kind=SchemeKind.SQM1,
            outcomes=(Outcome.IS_COMPLEMENT, Outcome.FAIL),
            vectors=(target,),
        )
    if kind != SchemeKind.SQM2:
        raise InvalidInputError(f"projective scheme kind must be SQM1 or SQM2, got {kind!r}")

    dec = decompose_target(problem)
    f = dec.parallel_norm_sq
    if not f < 1.0 - PROB_TOL:
        raise DegenerateDecompositionError(
            f"target lies inside the complement span (f = {f!r} within PROB_TOL of 1); "
            "the conclusive target outcome of the nonselective strategy is impossible"
        )
    outcomes = (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
    if f <= PROB_TOL:
        return MeasurementScheme(
            kind=SchemeKind.SQM2,
            outcomes=outcomes,
            vectors=(target, np.zeros_like(target)),
            warning="target orthogonal to complement span; filtering is perfect",
        )
    para = dec.parallel / np.linalg.norm(dec.parallel)
    # target - parallel carries rounding of size eps / |psi_perp| relative to
    # its length, which near f = 1 leaves it visibly non-orthogonal to psi_par;
    # one projection step restores orthogonality before normalizing.
    perp = dec.perpendicular - para * np.vdot(para, dec.perpendicular)
    perp /= np.linalg.norm(perp)
    return MeasurementScheme(kind=SchemeKind.SQM2, outcomes=outcomes, vectors=(perp, para))
