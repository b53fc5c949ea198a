"""Explicit construction of the measurement schemes.

The generalized measurement is realized on a (D+1)-dimensional space: the
D-dimensional system block plus a one-dimensional failure direction (the
ancilla coordinate, index D). A unitary U maps each embedded input state onto

    sqrt(p_i) |success_i>  +  sqrt(q_i) e^{i theta_i} |ancilla>,

with the target's success vector orthogonal to every complement success
vector, so that a projective measurement of {target direction, ancilla,
remainder} never misidentifies. The construction goes through the Gram matrix
of the prescribed success vectors: G_succ = G - w w^dagger with
w_i = sqrt(q_i) e^{-i theta_i}. G_succ must be positive semidefinite for U to
exist; the verdict is checked numerically. Success vectors are recovered from
an eigendecomposition of G_succ (eigenvalues below 1e-10 truncated, since the
matrix is routinely rank-deficient) and the linear map is solved on the span
of the inputs. The domain basis is ``ensemble._row_basis`` of the inputs:
their span, then its orthogonal complement in the system block, then the
ancilla coordinate. One complete QR of the solved map gives the codomain
basis: the images orthonormalized in order, then the orthogonal complement
of their span. The completion is not unique; measurement outcomes depend
only on the isometry block.

Phase convention: theta_1 = 0 and theta_i = arg<psi_1|psi_i>, which zeroes the
first row of G_succ exactly and thereby enforces the success-orthogonality
requirement by construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ensemble import FilteringProblem, _freeze, _row_basis, decompose_target, gram_matrix
from .errors import (
    DegenerateDecompositionError,
    InfeasibleError,
    InvalidInputError,
    NumericalError,
)

PSD_TOL = 1e-9  # most negative success-Gram eigenvalue still counted feasible
TRUNCATION_TOL = 1e-10  # eigenvalues below this contribute no success dimension
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

    @property
    def ancilla_vector(self) -> np.ndarray:
        """The failure direction: the coordinate basis vector at ``ancilla_index``."""
        vec = np.zeros(self.dimension + 1, dtype=np.complex128)
        vec[self.ancilla_index] = 1.0
        return vec


def _dependency_diagnostic(coeffs: np.ndarray, outputs: np.ndarray) -> str:
    """Name the input linear dependency whose prescribed outputs are inconsistent."""
    vh, rank = _row_basis(coeffs, tol=1e-10)
    for c in vh[rank:].conj():
        if np.linalg.norm(outputs.T @ c) > DEPENDENCY_TOL:
            involved = [int(i) for i in np.flatnonzero(np.abs(c) > 1e-6)]
            return (
                f"states {involved} are linearly dependent but their prescribed "
                "outputs do not satisfy the same dependency"
            )
    return "prescribed outputs are inconsistent with the input states' linear dependencies"


def build_neumark(problem: FilteringProblem, allocation: FailureAllocation) -> NeumarkModel:
    """Construct the dilated unitary for the given failure allocation.

    Raises InfeasibleError when the success Gram is not positive semidefinite,
    when the success rank exceeds the system dimension, or when linearly
    dependent inputs are paired with outputs violating their dependencies.
    """
    n, d = problem.n_states, problem.dimension
    sg = success_gram(problem, allocation)
    if not sg.feasible:
        raise InfeasibleError(
            f"no unitary realization: success Gram has eigenvalue {sg.min_eigenvalue:.3e}"
        )

    evals, evecs = np.linalg.eigh(sg.matrix)
    keep = evals > TRUNCATION_TOL
    rank = int(keep.sum())
    if rank > d:
        raise InfeasibleError(
            f"success vectors need {rank} dimensions but the system has only {d}; "
            "the prescribed failure amplitudes are inconsistent with the input "
            "states' linear dependencies"
        )
    # Columns of sqrt(Lambda) V^dagger reproduce G_succ as their Gram matrix.
    factors = (evecs[:, keep] * np.sqrt(evals[keep])).conj().T

    outputs = np.zeros((n, d + 1), dtype=np.complex128)
    outputs[:, :rank] = factors.T
    outputs[:, d] = np.sqrt(allocation.failure_probs) * np.exp(1j * allocation.phases)

    m = problem.state_matrix
    vh, r_in = _row_basis(m)
    coeffs = vh[:r_in].conj() @ m.T  # (r_in, N): inputs in span coordinates
    solution, *_ = np.linalg.lstsq(coeffs.T, outputs, rcond=None)
    residual = float(np.abs(coeffs.T @ solution - outputs).max())
    if residual > DEPENDENCY_TOL:
        raise InfeasibleError(
            f"output assignment residual {residual:.3e}: "
            + _dependency_diagnostic(coeffs, outputs)
        )

    # solution.T = q r orthonormalizes the solved images in order (Gram-Schmidt):
    # image a is q[:, a] turned by the phase of r[a, a]; q's last columns complete it.
    q, r = np.linalg.qr(solution.T, mode="complete")
    diag = np.diagonal(r)
    if np.abs(diag).min() < 0.5:
        raise NumericalError("prescribed output vectors collapsed during orthonormalization")
    cod_full = q.T
    cod_full[:r_in] *= (diag / np.abs(diag))[:, None]
    dom_full = np.eye(d + 1, dtype=np.complex128)  # vh on the system block, then the ancilla
    dom_full[:d, :d] = vh
    unitary = cod_full.T @ dom_full.conj()

    unitarity = float(np.abs(unitary.conj().T @ unitary - np.eye(d + 1)).max())
    if unitarity > 1e-10:
        raise NumericalError(f"unitarity defect {unitarity:.3e} exceeds 1e-10")
    mapping = float(np.abs(m @ unitary[:, :d].T - outputs).max())
    if mapping > DEPENDENCY_TOL:
        raise NumericalError(f"constructed unitary misses prescribed outputs by {mapping:.3e}")

    return NeumarkModel(
        unitary=unitary,
        dimension=d,
        ancilla_index=d,
        success_outputs=outputs[:, :d],
        failure_amplitudes=outputs[:, d],
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

    Three projectors on the dilation (target success direction, ancilla,
    remainder) are pulled back through the isometry block: E_k = V^dag Pi_k V.
    When the target always fails (p_1 = 0) the conclusive target outcome is
    omitted and the scheme carries a warning flag.
    """
    d = model.dimension
    dil = d + 1
    v = model.isometry

    target_success = np.zeros(dil, dtype=np.complex128)
    target_success[:d] = model.success_outputs[0]
    p1 = float(np.real(target_success.conj() @ target_success))

    ancilla = model.ancilla_vector
    proj_fail = np.outer(ancilla, ancilla.conj())

    outcomes: list[Outcome] = []
    projectors: list[np.ndarray] = []
    warning = None
    if p1 > ZERO_TOL:
        direction = target_success / np.sqrt(p1)
        proj_target = np.outer(direction, direction.conj())
        outcomes.append(Outcome.IS_TARGET)
        projectors.append(proj_target)
    else:
        proj_target = np.zeros((dil, dil), dtype=np.complex128)
        warning = "target success probability is zero; IS_TARGET outcome omitted"
    proj_comp = np.eye(dil) - proj_target - proj_fail
    outcomes += [Outcome.IS_COMPLEMENT, Outcome.FAIL]
    projectors += [proj_comp, proj_fail]

    elements = []
    for proj in projectors:
        e = v.conj().T @ proj @ v
        elements.append((e + e.conj().T) / 2.0)

    return MeasurementScheme(
        kind=SchemeKind.POVM,
        outcomes=tuple(outcomes),
        operators=tuple(elements),
        acting_dimension=d,
        dilation_dimension=dil,
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
