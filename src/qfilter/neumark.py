"""Explicit construction of the measurement schemes.

The generalized measurement is realized on a (D+1)-dimensional space: the
D-dimensional system block plus a one-dimensional failure direction (the
ancilla coordinate, index D). A unitary U maps each embedded input state onto

    sqrt(p_i) |success_i>  +  sqrt(q_i) e^{i theta_i} |ancilla>,

with the target's success vector orthogonal to every complement success
vector, so that a projective measurement of {target direction, ancilla,
remainder} never misidentifies. U exists iff the success Gram
G_succ = G - w w^dagger, w_i = sqrt(q_i) e^{-i theta_i}, is positive
semidefinite; that verdict is checked numerically. U is then built in closed
form from its ancilla row (``build_neumark``), and the measurement elements
are read from two rows of it (``povm_elements``).

Phase convention: theta_1 = 0 and theta_i = arg<psi_1|psi_i>, which zeroes the
first row of G_succ exactly and thereby enforces the success-orthogonality
requirement by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ensemble import RANK_TOL, FilteringProblem, _freeze, decompose_target, gram_matrix
from .errors import (
    DegenerateDecompositionError,
    InfeasibleError,
    InvalidInputError,
    NumericalError,
)

PSD_TOL = 1e-9  # most negative success-Gram eigenvalue still counted feasible
DEPENDENCY_TOL = 1e-8  # residual above this means outputs violate input dependencies
ZERO_TOL = 1e-12


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
    """Per-state failure weights q_i and output phases theta_i (target first)."""

    q1: float
    failure_probs: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "failure_probs", _freeze(np.asarray(self.failure_probs, float)))
        object.__setattr__(self, "phases", _freeze(np.asarray(self.phases, float)))


def failure_allocations(problem: FilteringProblem, q1: float) -> FailureAllocation:
    """Failure weights induced by a choice of target failure weight q1.

    The product rule q1 * q_i = |<psi_1|psi_i>|^2 fixes every complement
    weight; q1 itself must lie in [f, 1] where f is the target's parallel
    squared norm, else no unitary realization exists.
    """
    q1 = float(q1)
    f = decompose_target(problem).parallel_norm_sq
    if not f - ZERO_TOL <= q1 <= 1.0 + ZERO_TOL:
        raise InfeasibleError(
            f"target failure weight q1={q1!r} must lie in the range [{f!r}, 1]"
        )
    q1 = min(max(q1, f, 0.0), 1.0)
    overlaps_sq = np.abs(problem._overlaps) ** 2
    n = problem.n_states
    q = np.empty(n)
    q[0] = q1
    if q1 > 0.0:
        q[1:] = overlaps_sq / q1
    else:
        if overlaps_sq.max(initial=0.0) > ZERO_TOL**2:
            raise InfeasibleError(
                "q1 = 0 requires every complement state to be orthogonal to the target"
            )
        q[1:] = 0.0
    q = np.minimum(q, 1.0)
    phases = np.concatenate([[0.0], np.angle(problem._overlaps)])
    return FailureAllocation(q1=q1, failure_probs=q, phases=phases)


@dataclass(frozen=True, eq=False)
class SuccessGram:
    """Gram matrix of the prescribed success vectors plus its PSD verdict."""

    matrix: np.ndarray
    min_eigenvalue: float
    feasible: bool

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(np.asarray(self.matrix, np.complex128)))


def success_gram(problem: FilteringProblem, allocation: FailureAllocation) -> SuccessGram:
    """G_succ = G - w w^dagger with w_i = sqrt(q_i) e^{-i theta_i}.

    Feasible iff the smallest eigenvalue is >= -1e-9 (separating genuine
    infeasibility from floating-point noise at desk-scale dimensions). Under
    the package phase convention the first row and column vanish identically,
    which is the success-orthogonality requirement in Gram form.
    """
    g = gram_matrix(problem)
    w = np.sqrt(allocation.failure_probs) * np.exp(-1j * allocation.phases)
    gs = g - np.outer(w, w.conj())
    gs = (gs + gs.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(gs).min())
    return SuccessGram(matrix=gs, min_eigenvalue=min_eig, feasible=min_eig >= -PSD_TOL)


@dataclass(frozen=True, eq=False)
class NeumarkModel:
    """The dilated unitary realizing the generalized filtering measurement.

    ``unitary`` acts on the (D+1)-dimensional dilation; ``ancilla_index`` (= D)
    is the failure coordinate. ``success_outputs[i]`` is the unnormalized
    system-block image sqrt(p_i)|success_i> and ``failure_amplitudes[i]`` the
    ancilla amplitude sqrt(q_i) e^{i theta_i}.
    """

    unitary: np.ndarray
    dimension: int
    ancilla_index: int
    success_outputs: np.ndarray
    failure_amplitudes: np.ndarray
    phases: np.ndarray
    allocation: FailureAllocation

    def __post_init__(self):
        for name in ("unitary", "success_outputs", "failure_amplitudes"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name), np.complex128)))
        object.__setattr__(self, "phases", _freeze(np.asarray(self.phases, float)))

    @property
    def isometry(self) -> np.ndarray:
        """The D-column block mapping embedded system vectors through the unitary."""
        return self.unitary[:, : self.dimension]


def build_neumark(problem: FilteringProblem, allocation: FailureAllocation) -> NeumarkModel:
    """Construct the dilated unitary for the given failure allocation.

    The ancilla row u is the minimum-norm solution of M u = a, with the states
    as the rows of M, a_i = sqrt(q_i) e^{i theta_i}, and singular values of M
    below RANK_TOL times the largest counted as dependencies. With
    r = sqrt(1 - |u|^2) and R = I - conj(u) u^T / (1 + r), R is Hermitian with
    R^2 = I - conj(u) u^T, so U = [[R, -conj(u)], [u^T, r]] is unitary and
    sends each state to R psi_i + a_i |ancilla>.

    Raises InfeasibleError when the success Gram is not positive semidefinite
    or when a lies outside the range of M: the states are linearly dependent
    and the amplitudes violate the same dependency.
    """
    d = problem.dimension
    sg = success_gram(problem, allocation)
    if not sg.feasible:
        raise InfeasibleError(
            f"no unitary realization: success Gram has eigenvalue {sg.min_eigenvalue:.3e}"
        )

    m = problem.state_matrix
    amplitudes = np.sqrt(allocation.failure_probs) * np.exp(1j * allocation.phases)
    # Singular values of near-dependent states (~1e-13) would amplify rounding
    # in the amplitudes past |u| = 1. One refinement step makes M u = a exact
    # to rounding, which is what the FAIL probabilities |u^T psi_i|^2 rest on.
    u, *_ = np.linalg.lstsq(m, amplitudes, rcond=RANK_TOL)
    u += np.linalg.lstsq(m, amplitudes - m @ u, rcond=RANK_TOL)[0]
    residual = float(np.abs(m @ u - amplitudes).max())
    if residual > DEPENDENCY_TOL:
        raise InfeasibleError(
            f"failure amplitudes leave residual {residual:.3e} in M u = a: the states are "
            "linearly dependent but the amplitudes do not satisfy the same dependency"
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
    if unitarity > 1e-10:
        raise NumericalError(f"unitarity defect {unitarity:.3e} exceeds 1e-10")
    mapping = float(np.abs(m @ unitary[d, :d] - amplitudes).max())
    if mapping > DEPENDENCY_TOL:
        raise NumericalError(f"constructed unitary misses prescribed outputs by {mapping:.3e}")

    return NeumarkModel(
        unitary=unitary,
        dimension=d,
        ancilla_index=d,
        success_outputs=m @ block.T,
        failure_amplitudes=amplitudes,
        phases=allocation.phases,
        allocation=allocation,
    )


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """Labeled positive operators implementing one filtering strategy.

    Operators act on the space states are fed into directly (dimension
    ``acting_dimension``); for the generalized measurement they are the
    elements pulled back from the (D+1)-dimensional dilation, whose size is
    recorded in ``dilation_dimension``. Construction validates positivity
    (eigenvalues >= -1e-10) and completeness (sum = identity within 1e-10).
    """

    kind: SchemeKind
    outcomes: tuple[Outcome, ...]
    operators: tuple[np.ndarray, ...]
    acting_dimension: int
    dilation_dimension: int | None = None
    warning: str | None = None

    def __post_init__(self):
        ops = tuple(_freeze(np.asarray(op, np.complex128)) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        if len(ops) != len(self.outcomes):
            raise InvalidInputError("one operator per outcome label is required")
        d = self.acting_dimension
        total = np.zeros((d, d), dtype=np.complex128)
        for op in ops:
            if op.shape != (d, d):
                raise InvalidInputError(f"operator shape {op.shape} != ({d}, {d})")
            min_eig = float(np.linalg.eigvalsh((op + op.conj().T) / 2.0).min())
            if min_eig < -1e-10:
                raise NumericalError(f"outcome operator has eigenvalue {min_eig:.3e} < -1e-10")
            total += op
        defect = float(np.abs(total - np.eye(d)).max())
        if defect > 1e-10:
            raise NumericalError(f"completeness defect {defect:.3e} exceeds 1e-10")

    def operator(self, outcome: Outcome) -> np.ndarray:
        return self.operators[self.outcomes.index(outcome)]


def povm_elements(model: NeumarkModel) -> MeasurementScheme:
    """System-space elements of the generalized measurement.

    Two rows of the isometry V give rank-one elements: the ancilla row,
    x_f = conj(V[D]), and the target success direction s_1 / sqrt(p_1) pulled
    back, x_t = V[:D]^dag s_1 / sqrt(p_1). Then E_fail = x_f x_f^dag,
    E_target = x_t x_t^dag and E_comp = I - E_target - E_fail. When the target
    always fails (p_1 = 0) the conclusive target outcome is omitted and the
    scheme carries a warning flag.
    """
    d = model.dimension
    v = model.isometry
    target_success = model.success_outputs[0]
    p1 = float(np.real(np.vdot(target_success, target_success)))

    x_f = v[model.ancilla_index].conj()
    e_fail = np.outer(x_f, x_f.conj())
    e_comp = np.eye(d, dtype=np.complex128) - e_fail
    if p1 > ZERO_TOL:
        x_t = v[:d].conj().T @ target_success / np.sqrt(p1)
        e_target = np.outer(x_t, x_t.conj())
        e_comp -= e_target
        outcomes = (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
        elements = (e_target, e_comp, e_fail)
        warning = None
    else:
        outcomes = (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        elements = (e_comp, e_fail)
        warning = "target success probability is zero; IS_TARGET outcome omitted"

    return MeasurementScheme(
        kind=SchemeKind.POVM,
        outcomes=outcomes,
        operators=elements,
        acting_dimension=d,
        dilation_dimension=d + 1,
        warning=warning,
    )


def projective_scheme(problem: FilteringProblem, kind: SchemeKind) -> MeasurementScheme:
    """The two standard projective strategies on the bare system space.

    SQM1 projects onto the target: a click (IS_COMPLEMENT) excludes the
    target, a no-click is inconclusive; the target itself always fails. SQM2
    measures the target's component orthogonal to the complement span, giving
    a conclusive outcome for both subsets. SQM2 degenerates when the target
    lies entirely inside the complement span (error) or is orthogonal to it
    (perfect discrimination, returned with a warning flag).
    """
    d = problem.dimension
    target = problem.state_matrix[0]
    proj_target_state = np.outer(target, target.conj())

    if kind == SchemeKind.SQM1:
        return MeasurementScheme(
            kind=SchemeKind.SQM1,
            outcomes=(Outcome.IS_COMPLEMENT, Outcome.FAIL),
            operators=(np.eye(d) - proj_target_state, proj_target_state),
            acting_dimension=d,
        )
    if kind != SchemeKind.SQM2:
        raise InvalidInputError(f"projective scheme kind must be SQM1 or SQM2, got {kind!r}")

    dec = decompose_target(problem)
    f = dec.parallel_norm_sq
    if f >= 1.0 - ZERO_TOL:
        raise DegenerateDecompositionError(
            "target lies entirely inside the complement span; "
            "the conclusive target outcome of the nonselective strategy is impossible"
        )
    if f <= ZERO_TOL:
        return MeasurementScheme(
            kind=SchemeKind.SQM2,
            outcomes=(Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL),
            operators=(
                proj_target_state,
                np.eye(d) - proj_target_state,
                np.zeros((d, d), dtype=np.complex128),
            ),
            acting_dimension=d,
            warning="target orthogonal to complement span; filtering is perfect",
        )
    perp = dec.perpendicular / np.linalg.norm(dec.perpendicular)
    para = dec.parallel / np.linalg.norm(dec.parallel)
    proj_perp = np.outer(perp, perp.conj())
    proj_para = np.outer(para, para.conj())
    return MeasurementScheme(
        kind=SchemeKind.SQM2,
        outcomes=(Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL),
        operators=(proj_perp, np.eye(d) - proj_perp - proj_para, proj_para),
        acting_dimension=d,
    )
