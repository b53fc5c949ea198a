"""Complex vector-space primitives for state ensembles.

State vectors, priors, and the orthogonal decomposition of a designated
target state against the span of the remaining states. The library's
arguments are read by four helpers here, which reject what they cannot
convert without loss and name the field: ``_numbers`` for arrays, ``_real``
for one real number, ``_integer`` for counts and indices, and ``_member`` for
enum choices. Input norms and prior sums are checked to
NORM_TOL. Every orthonormal basis of a span in the package comes from one
helper, ``_row_basis``, which cuts the span at RANK_TOL. Everything here is
a pure function of immutable values (``FilteringProblem`` caches its overlaps
and decomposition on first use, and keeps the failure allocation last built
for it), so results can be shared freely between concurrent workers.
"""
from __future__ import annotations

import operator
from dataclasses import InitVar, dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidInputError
from .tolerances import NORM_TOL, RANK_TOL


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _numbers(value, field: str, dtype=float) -> np.ndarray:
    """``value`` as a new ``dtype`` array, or InvalidInputError naming ``field``
    when numpy cannot convert it without loss: a string, a bool, a non-number,
    or a complex entry for a real ``dtype``, whose imaginary part a cast would
    drop."""
    try:
        arr = np.asarray(value)
        lossless = arr.dtype.kind != "b" and np.can_cast(arr.dtype, dtype)
    except ValueError:  # ragged nesting
        lossless = False
    if not lossless:
        kind = "complex" if np.dtype(dtype).kind == "c" else "real"
        raise InvalidInputError(f"{field} must be {kind} numbers, got {value!r:.80}")
    # numpy builds a new C-order array from a list or tuple; anything else may alias the caller's
    return arr.astype(dtype, order="C", copy=not isinstance(value, (list, tuple)))


def _real(value, field: str) -> float:
    """One real number, read losslessly by ``_numbers``."""
    arr = _numbers(value, field)
    if arr.ndim:
        raise InvalidInputError(f"{field} must be one number, got shape {arr.shape}")
    return float(arr)


def _integer(value, field: str) -> int:
    """``value`` as a Python int, or InvalidInputError naming ``field`` when it is
    not an integer type: a float (even 2.0), a string, a bool or a non-number."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise InvalidInputError(f"{field} must be an integer, got {value!r:.80}")


def _member(enum: type[Enum], value, field: str):
    """``value`` as a member of ``enum``, or InvalidInputError naming ``field``."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(member.value for member in enum)
        raise InvalidInputError(f"{field} must be one of {choices}, got {value!r:.80}") from None


def _frozen_fields(record, dtype, *names: str) -> None:
    """Store each named array field of a frozen ``record`` as a read-only view
    (dtype None keeps the field's dtype), or raise InvalidInputError naming the
    first field numpy cannot cast to that dtype without loss (``np.can_cast``):
    a string, a non-number, a float for an integer dtype or a complex number
    for a real one. The view is frozen, not the array passed in, so the
    caller's array keeps its flags, and an array of that dtype is not copied."""
    for name in names:
        value = getattr(record, name)
        try:
            arr = np.asarray(value)
            # an equal dtype casts; the comparison is a fraction of can_cast's call cost
            lossless = dtype is None or arr.dtype == dtype or np.can_cast(arr.dtype, dtype)
        except ValueError:  # ragged nesting
            lossless = False
        if not lossless:
            into = "" if dtype is None else f" castable to {np.dtype(dtype)} without loss"
            raise InvalidInputError(f"{name} must be an array of numbers{into}, got {value!r:.80}")
        object.__setattr__(record, name, _freeze(np.asarray(arr, dtype).view()))


def _check_unit_rows(rows: np.ndarray, label: str = "state {}: ") -> None:
    """Reject the first row of the C-contiguous complex (N, D) ``rows`` that is not
    finite or whose squared norm is off 1 beyond NORM_TOL, named ``label.format(i)``."""
    pairs = rows.view(np.float64)
    norm_sq = np.einsum("ij,ij->i", pairs, pairs)
    bad = np.flatnonzero(~(np.abs(norm_sq - 1.0) <= NORM_TOL))  # NaN is bad
    if bad.size:
        i = int(bad[0])
        fault = f"squared norm {float(norm_sq[i])!r} deviates from 1 beyond NORM_TOL"
        if not np.all(np.isfinite(rows[i])):
            fault = "amplitudes must be finite"
        raise InvalidInputError(label.format(i) + fault)


@dataclass(frozen=True, eq=False)
class StateVector:
    """The checked one-state input record: unit-norm complex amplitudes."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _numbers(self.amplitudes, "amplitudes", np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("amplitudes must be a nonempty 1-D sequence")
        _check_unit_rows(arr[None], label="")
        object.__setattr__(self, "amplitudes", _freeze(arr))


@dataclass(frozen=True, eq=False)
class FilteringProblem:
    """An ensemble of N candidate states with priors and one designated target.

    ``states`` is an (N, D) array, a sequence of rows or a sequence of
    ``StateVector``s; the problem holds them once, as the read-only complex
    (N, D) ``state_matrix``. The stored order is canonical: the target is
    always row 0, regardless of the ``target_index`` passed at construction.
    ``_allocation`` is the one ``(q1, FailureAllocation)`` pair that
    ``failure_allocations`` last built for the problem, or None.
    """

    states: InitVar[object]
    priors: np.ndarray
    target_index: int = 0
    state_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, states):
        if not isinstance(states, np.ndarray):
            states = [s.amplitudes if isinstance(s, StateVector) else s for s in states]
            rows = (r for r in states if isinstance(r, (list, tuple)) or np.ndim(r) == 1)
            dims = sorted({len(r) for r in rows})  # other rows fail the shape check
            if len(dims) > 1:
                raise InvalidInputError(f"states have mixed dimensions {dims}")
        m = _numbers(states, "states", np.complex128)
        if m.ndim != 2 or not m.shape[1]:
            raise InvalidInputError(f"states must be N rows of D >= 1 numbers, got shape {m.shape}")
        n = len(m)
        if n < 2:
            raise InvalidInputError("an ensemble needs at least 2 states")
        _check_unit_rows(m)
        priors = _numbers(self.priors, "priors")
        if priors.shape != (n,):
            raise InvalidInputError(f"expected {n} priors, got shape {priors.shape}")
        if not np.all((priors > 0.0) & (priors <= 1.0)):  # NaN fails both
            raise InvalidInputError("priors must lie in (0, 1]")
        total = float(priors.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvalidInputError(f"priors sum to {total!r}; they must sum to 1 within NORM_TOL")
        t = _integer(self.target_index, "target_index")
        if not 0 <= t < n:
            raise InvalidInputError(f"target_index {t} out of range for {n} states")
        if t != 0:
            order = [t] + [i for i in range(n) if i != t]
            m, priors = m[order], priors[order]
        object.__setattr__(self, "state_matrix", _freeze(m))
        object.__setattr__(self, "priors", _freeze(priors))
        object.__setattr__(self, "target_index", 0)
        object.__setattr__(self, "_allocation", None)

    @property
    def n_states(self) -> int:
        return self.state_matrix.shape[0]

    @property
    def dimension(self) -> int:
        return self.state_matrix.shape[1]

    @cached_property
    def _overlaps(self) -> np.ndarray:
        """(N - 1,) overlaps <psi_1|psi_i> of the target with each complement state."""
        m = self.state_matrix
        return _freeze(m[1:] @ m[0].conj())

    @cached_property
    def _decomposition(self) -> Decomposition:
        """The target split against the complement span; see ``decompose_target``."""
        target = self.state_matrix[0]
        vh, rank = _row_basis(self.state_matrix[1:])
        basis = vh[:rank]
        coef = basis.conj() @ target
        parallel = basis.T @ coef
        norm_sq = float(np.real(coef.conj() @ coef))
        return Decomposition(
            parallel=parallel,
            perpendicular=target - parallel,
            parallel_norm_sq=min(max(norm_sq, 0.0), 1.0),
        )


def _row_basis(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """D x D unitary ``vh`` and ``rank``, the number of singular values above RANK_TOL.

    The first ``rank`` rows of ``vh`` span the rows of the (n, D) matrix ``rows``
    and the rest span the orthogonal complement. Rows that span C^D take the
    identity; other full-rank input takes a Householder QR, whose LAPACK
    workspace is a fraction of the complex SVD's (at D = 256 the SVD adds
    ~6 MB to a CLI run's peak memory); rank-deficient input takes the right
    singular vectors, dropping directions at or below RANK_TOL.
    """
    n, d = rows.shape
    rank = int((np.linalg.svd(rows, compute_uv=False) > RANK_TOL).sum())
    if rank == d:
        return np.eye(d, dtype=np.complex128), rank
    if rank < n:
        return np.linalg.svd(rows, full_matrices=n < d)[2], rank
    return np.linalg.qr(rows.T, mode="complete")[0].T, rank


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of the target into components inside/orthogonal to the complement span.

    ``parallel + perpendicular`` reconstructs the target; ``parallel_norm_sq``
    is the squared norm of the parallel component, in [0, 1].
    """

    parallel: np.ndarray
    perpendicular: np.ndarray
    parallel_norm_sq: float

    def __post_init__(self):
        _frozen_fields(self, np.complex128, "parallel", "perpendicular")


def decompose_target(problem: FilteringProblem) -> Decomposition:
    """Project the target onto the span of the complement set.

    The parallel squared norm is accumulated over an orthonormal span basis,
    so it is exactly the Born weight of the target inside that subspace. It
    is computed once per problem and cached on it.
    """
    return problem._decomposition
