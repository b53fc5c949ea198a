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
form from its ancilla row, read off the cached target split (``build_neumark``).

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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .ensemble import (
    FilteringProblem,
    _freeze,
    _frozen_fields,
    _member,
    _numbers,
    _real,
    decompose_target,
)
from .errors import (
    DegenerateDecompositionError,
    InfeasibleError,
    InvalidInputError,
    NumericalError,
)
from .tolerances import DEPENDENCY_TOL, OPERATOR_TOL, PROB_TOL, PSD_TOL


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
        q = _freeze(_numbers(self.failure_probs, "failure weights"))
        phases = _freeze(_numbers(self.phases, "phases"))
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

    Raises NumericalError when, at q1 > 0, a complement state keeps more than
    DEPENDENCY_TOL * sqrt(q1) of psi_perp, the target's part outside its span
    cut at RANK_TOL: a measurement built from that split misses q by as much.
    Either the cut dropped a direction, or q1 is too small for the split's rounding.

    The problem keeps the allocation last built for it, keyed by its clamped
    q1, and a call at that q1 returns it; any other q1 builds and keeps its
    own. The key and the record are stored as one tuple, so a concurrent
    caller reads either the old pair or the new one.
    """
    q1 = _real(q1, "target failure weight q1")
    dec = decompose_target(problem)
    f = dec.parallel_norm_sq
    if not f - PROB_TOL <= q1 <= 1.0 + PROB_TOL:
        raise InfeasibleError(
            f"target failure weight q1={q1!r} must lie in the range [{f!r}, 1] within PROB_TOL"
        )
    q1 = min(max(q1, f, 0.0), 1.0)
    kept = problem._allocation
    # -0.0 == 0.0, but the record keeps the sign of the q1 it was built at
    if kept is not None and kept[0] == q1 and math.copysign(1.0, kept[0]) == math.copysign(1.0, q1):
        return kept[1]
    overlaps_sq = np.abs(problem._overlaps) ** 2
    n = problem.n_states
    q = np.empty(n)
    q[0] = q1
    if q1 > 0.0:
        leak = np.abs(problem.state_matrix[1:] @ dec.perpendicular.conj()).max()
        leak = float(leak) / math.sqrt(q1)
        if not leak <= DEPENDENCY_TOL:
            raise NumericalError(
                f"complement states keep {leak:.3e} > DEPENDENCY_TOL of the target's part "
                f"outside their span at q1 = {q1!r}: either the span cut at RANK_TOL dropped "
                "a direction they carry, or q1 is too small for the split's rounding"
            )
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
    allocation = FailureAllocation(failure_probs=q, phases=phases)
    object.__setattr__(problem, "_allocation", (q1, allocation))
    return allocation


@dataclass(frozen=True, eq=False)
class SuccessGram:
    """Gram matrix of the prescribed success vectors plus its PSD verdict."""

    matrix: np.ndarray
    min_eigenvalue: float
    feasible: bool

    def __post_init__(self):
        _frozen_fields(self, np.complex128, "matrix")


def success_gram(problem: FilteringProblem, allocation: FailureAllocation) -> SuccessGram:
    """G_succ = G - w w^dagger with the state Gram G_ij = <psi_i|psi_j> and
    w_i = sqrt(q_i) e^{-i theta_i}: the one N x N matrix the package forms.

    G and G_succ are each symmetrized, as rounding leaves both non-Hermitian
    in the last bits. Feasible iff the smallest eigenvalue is >= -PSD_TOL
    (separating genuine infeasibility from floating-point noise at desk-scale
    dimensions). Under the package phase convention the first row and column
    vanish identically, which is the success-orthogonality requirement in Gram
    form.
    """
    if allocation.failure_probs.size != problem.n_states:
        raise InvalidInputError(
            f"allocation of length {allocation.failure_probs.size} does not fit "
            f"{problem.n_states} states"
        )
    m = problem.state_matrix
    g = m.conj() @ m.T
    g = (g + g.conj().T) / 2.0
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
    with the weights and phases of the allocation it was built from.
    """

    unitary: np.ndarray
    success_outputs: np.ndarray
    failure_amplitudes: np.ndarray

    def __post_init__(self):
        _frozen_fields(self, np.complex128, "unitary", "success_outputs", "failure_amplitudes")


def build_neumark(problem: FilteringProblem, allocation: FailureAllocation) -> NeumarkModel:
    """Construct the dilated unitary for the given failure allocation.

    The ancilla row u solves M u = a (states as the rows of M,
    a_i = sqrt(q_i) e^{i theta_i}). Under the product rule it is a closed form
    in the cached target split, not a solve (Bergou, Herzog & Hillery, PRA 71,
    042314 (2005)): u = e^{i theta_1} conj(x_f), the minimum-norm solution, with
    x_f = (psi_par + (q1 - f) / (1 - f) psi_perp) / sqrt(q1), psi_1 at f = 1
    and 0 at q1 = 0. The one solve is at q1 = 0 with some a_i != 0, where u is
    the minimum-norm solution of M[1:] u = a[1:]. With r = sqrt(1 - |u|^2) and
    R = I - conj(u) u^T / (1 + r), R is Hermitian with R^2 = I - conj(u) u^T,
    so U = [[R, -conj(u)], [u^T, r]] is unitary and sends each state to
    R psi_i + a_i |ancilla>.

    Raises InfeasibleError when the success Gram is not positive semidefinite
    or a breaks the product rule conj(a_1) a_i = <psi_1|psi_i>; NumericalError
    when M u misses a by more than DEPENDENCY_TOL or U is not unitary.
    """
    d, m = problem.dimension, problem.state_matrix
    sg = success_gram(problem, allocation)
    if not sg.feasible:
        raise InfeasibleError(
            f"no unitary realization: success Gram eigenvalue {sg.min_eigenvalue:.3e} < -PSD_TOL"
        )
    amplitudes = np.sqrt(allocation.failure_probs) * np.exp(1j * allocation.phases)
    # <s_1|s_i> = <psi_1|psi_i> - conj(a_1) a_i: success orthogonality is the product rule.
    breach = float(np.abs(amplitudes[0].conj() * amplitudes[1:] - problem._overlaps).max())
    if not breach <= DEPENDENCY_TOL:
        raise InfeasibleError(
            f"failure amplitudes breach the product rule conj(a_1) a_i = <psi_1|psi_i> by "
            f"{breach:.3e} > DEPENDENCY_TOL"
        )

    dec = decompose_target(problem)
    f, q1 = dec.parallel_norm_sq, allocation.q1
    t = (q1 - f) / (1.0 - f) if f < 1.0 else 1.0  # at f = 1, x_f = psi_1
    x_f = (dec.parallel + t * dec.perpendicular) / np.sqrt(q1) if q1 > 0.0 else np.zeros(d)
    u = np.exp(1j * allocation.phases[0]) * x_f.conj()
    if q1 == 0.0 and amplitudes.any():
        # a_1 = 0 leaves the complement amplitudes free of the target split. Then
        # every overlap <psi_1|psi_i> is 0, so the minimum-norm solution of
        # M[1:] u = a[1:] is orthogonal to psi_1 as well.
        u = np.linalg.lstsq(m[1:], amplitudes[1:], rcond=None)[0]
    # A feasible allocation has |u| <= 1; at q1 = f and q1 = 1 it is 1 to rounding.
    norm_sq = float(np.real(np.vdot(u, u)))
    if norm_sq > 1.0:
        u, norm_sq = u / np.sqrt(norm_sq), 1.0
    images = m @ u
    residual = float(np.abs(images - amplitudes).max())
    if not residual <= DEPENDENCY_TOL:
        raise NumericalError(
            f"failure row misses M u = a by {residual:.3e} > DEPENDENCY_TOL: the span cut at "
            "RANK_TOL dropped a direction the states carry"
        )

    r = np.sqrt(1.0 - norm_sq)
    u_bar = u.conj()
    # (1 - r) / |u|^2 = 1 / (1 + r), which needs no branch at u = 0.
    unitary = np.empty((d + 1, d + 1), dtype=np.complex128)
    block = np.multiply.outer(u_bar, u, out=unitary[:d, :d])
    block /= -(1.0 + r)
    unitary.reshape(-1)[: d * (d + 1) : d + 2] += 1.0  # R's diagonal, one strided view
    unitary[:d, d], unitary[d, :d], unitary[d, d] = -u_bar, u, r
    unitarity = float(np.abs(unitary.conj().T @ unitary - np.eye(d + 1)).max())
    if not unitarity <= OPERATOR_TOL:
        raise NumericalError(f"unitarity defect {unitarity:.3e} exceeds OPERATOR_TOL")

    return NeumarkModel(
        unitary=unitary,
        success_outputs=m - np.outer(images, u_bar / (1.0 + r)),  # M R^T at O(N * D)
        failure_amplitudes=amplitudes,
    )


def _largest_gram_eigenvalue(x: np.ndarray) -> float:
    """Largest eigenvalue of the Gram matrix of the one or two rows of the
    C-contiguous complex ``x``, in closed form: [[a, c], [c*, b]] has
    (a + b) / 2 + hypot((a - b) / 2, |c|), which is a for one row."""
    pairs = x.view(np.float64)
    a, b = (*np.einsum("ij,ij->i", pairs, pairs).tolist(), 0.0)[:2]
    c = abs(np.vdot(x[0], x[1])) if len(x) == 2 else 0.0
    return (a + b) / 2.0 + math.hypot((a - b) / 2.0, c)


# A scheme of n rank-one vectors has the last n + 1 of these outcomes.
_OUTCOMES = tuple(Outcome)


@dataclass(frozen=True, eq=False)
class MeasurementScheme:
    """Labeled positive operators implementing one filtering strategy.

    ``vectors`` holds x_fail alone, or x_target then x_fail; the operators are
    the rank-one elements x x^dagger plus the remainder I - sum x x^dagger.
    The outcomes follow from the count: (IS_COMPLEMENT, FAIL) for one vector
    and (IS_TARGET, IS_COMPLEMENT, FAIL) for two, the remainder being
    IS_COMPLEMENT. Completeness then holds by construction, and positivity is
    a check on the at most 2 x 2 Gram matrix X^dagger X of the rows:
    I - X X^dagger has eigenvalues 1 and 1 - eig(X^dagger X), and
    construction rejects any below -OPERATOR_TOL, any other vector count and
    any non-finite vector.

    ``acting_dimension`` is the length D of the rows, the space states are fed
    into directly. ``operators`` are derived from the rows on first use.
    """

    kind: SchemeKind
    vectors: np.ndarray

    def __post_init__(self):
        kind = _member(SchemeKind, self.kind, "kind")
        x = _freeze(_numbers(self.vectors, "rank-one vectors", np.complex128))
        if x.ndim != 2 or len(x) not in (1, 2):
            raise InvalidInputError(
                f"rank-one vectors of shape {x.shape}: a scheme takes one vector (x_fail) "
                "or two (x_target, x_fail)"
            )
        if not np.isfinite(x).all():
            raise InvalidInputError("rank-one vectors must be finite")
        # Each x x^dagger is positive; the remainder's smallest eigenvalue is
        # 1 - the largest eigenvalue of the Gram matrix of the vectors.
        min_eig = 1.0 - _largest_gram_eigenvalue(x)
        if not min_eig >= -OPERATOR_TOL:
            raise NumericalError(f"outcome operator has eigenvalue {min_eig:.3e} < -OPERATOR_TOL")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "vectors", x)

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        """The outcomes in column order; IS_COMPLEMENT, the remainder, is next to last."""
        return _OUTCOMES[-1 - len(self.vectors):]

    @property
    def acting_dimension(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def operators(self) -> tuple[np.ndarray, ...]:
        """One read-only D x D operator per outcome, in outcome order."""
        rank_one = [_freeze(np.outer(x, x.conj())) for x in self.vectors]
        remainder = _freeze(np.eye(self.acting_dimension, dtype=np.complex128) - sum(rank_one))
        return (*rank_one[:-1], remainder, rank_one[-1])

    def operator(self, outcome: Outcome) -> np.ndarray:
        """The operator of ``outcome``, or InvalidInputError naming it and the
        scheme's outcomes when the scheme lacks it."""
        try:
            index = self.outcomes.index(_member(Outcome, outcome, "outcome"))
        except (InvalidInputError, ValueError):
            shown = outcome.value if isinstance(outcome, Outcome) else outcome
            choices = ", ".join(o.value for o in self.outcomes)
            raise InvalidInputError(
                f"outcome must be one of the {self.kind.value} scheme's outcomes {choices}, "
                f"got {shown!r:.80}"
            ) from None
        return self.operators[index]

    def born_probabilities(self, states) -> np.ndarray:
        """(N, K) matrix of <psi_i|E_k|psi_i> for the N rows of ``states``.

        A rank-one cell is |x^dagger psi|^2, at O(D) per state and vector; the
        remainder cell is |psi|^2 minus the row's rank-one cells, so every row
        sums to its state's squared norm. Values are raw Born values,
        which rounding can leave just outside [0, 1]. The products are einsum
        loops rather than BLAS calls, so a row's values do not depend on how
        many rows are passed with it. A complex128 array is read as it is;
        anything else is read by ``_numbers``.
        """
        if not (isinstance(states, np.ndarray) and states.dtype == np.complex128):
            states = _numbers(states, "states", np.complex128)
        rows = np.ascontiguousarray(states)
        d = self.acting_dimension
        if rows.ndim != 2 or rows.shape[1] != d:
            raise InvalidInputError(
                f"states must have shape (N, {d}), one row per state in the scheme's "
                f"measured space of dimension {d}, got shape {rows.shape}"
            )
        amplitudes = np.einsum("ij,rj->ir", rows, self.vectors.conj())
        rest = len(self.vectors) - 1  # the remainder's column, next to last
        table = np.empty((len(rows), rest + 2))
        # The rank-one columns are the others, one slice of the table.
        probs = table[:, ::2] if rest else table[:, 1:]
        np.square(amplitudes.real, out=probs)
        probs += amplitudes.imag**2
        flat = rows.view(np.float64)
        np.subtract(np.einsum("ij,ij->i", flat, flat), probs.sum(axis=1), out=table[:, rest])
        return table


def povm_elements(model: NeumarkModel) -> MeasurementScheme:
    """System-space elements of the generalized measurement, as rank-one vectors.

    Two rows of the unitary U give them: the ancilla row, x_f = conj(U[D, :D]),
    and the target success direction s_1 / sqrt(p_1) pulled back through the
    system block, x_t = U[:D, :D]^dag s_1 / sqrt(p_1). Then E_fail = x_f x_f^dag,
    E_target = x_t x_t^dag and E_comp = I - E_target - E_fail, the scheme's
    remainder. When the target always fails (p_1 within PROB_TOL of 0) the
    scheme is x_f alone, without the conclusive target outcome. O(D^2) time
    and O(D) memory: no D x D matrix is formed.
    """
    d = len(model.unitary) - 1
    target_success = model.success_outputs[0]
    p1 = float(np.real(np.vdot(target_success, target_success)))

    x_f = model.unitary[d, :d].conj()
    if p1 > PROB_TOL:
        # U[:D, :D]^dag s_1 as a vector-matrix product, which copies no D x D block.
        x_t = (target_success.conj() @ model.unitary[:d, :d]).conj() / np.sqrt(p1)
        return MeasurementScheme(kind=SchemeKind.POVM, vectors=(x_t, x_f))
    return MeasurementScheme(kind=SchemeKind.POVM, vectors=(x_f,))


def projective_scheme(problem: FilteringProblem, kind: SchemeKind) -> MeasurementScheme:
    """The two standard projective strategies on the bare system space.

    SQM1 projects onto the target: a click (IS_COMPLEMENT) excludes the
    target, a no-click is inconclusive; the target itself always fails. SQM2
    measures the target's component orthogonal to the complement span, giving
    a conclusive outcome for both subsets. Both are stored as rank-one
    vectors: SQM1 as psi_1 (FAIL), SQM2 as the unit perpendicular (IS_TARGET)
    and parallel (FAIL) parts of psi_1, the latter zero only at f = 0 (perfect
    filtering). SQM2 builds its weights ``failure_allocations(problem, f)`` and
    so raises its NumericalError; at f within PROB_TOL of 1 it raises
    DegenerateDecompositionError.
    """
    target = problem.state_matrix[0]
    if kind == SchemeKind.SQM1:
        return MeasurementScheme(kind=SchemeKind.SQM1, vectors=(target,))
    if kind != SchemeKind.SQM2:
        raise InvalidInputError(f"projective scheme kind must be SQM1 or SQM2, got {kind!r}")

    dec = decompose_target(problem)
    f = dec.parallel_norm_sq
    if not f < 1.0 - PROB_TOL:
        raise DegenerateDecompositionError(
            f"target lies inside the complement span (f = {f!r} within PROB_TOL of 1); "
            "the conclusive target outcome of the nonselective strategy is impossible"
        )
    failure_allocations(problem, f)  # SQM2's own weights: the build runs the span-leak check
    para = dec.parallel / np.linalg.norm(dec.parallel) if f > 0.0 else np.zeros_like(target)
    # target - parallel carries rounding of size eps / |psi_perp| relative to
    # its length, which near f = 1 leaves it visibly non-orthogonal to psi_par;
    # one projection step restores orthogonality before normalizing.
    perp = dec.perpendicular - para * np.vdot(para, dec.perpendicular)
    perp /= np.linalg.norm(perp)
    return MeasurementScheme(kind=SchemeKind.SQM2, vectors=(perp, para))
