"""Complex vector-space primitives for state ensembles.

State vectors, priors, Gram matrices, span bases, and the orthogonal
decomposition of a designated target state against the span of the remaining
states. Input norms and prior sums are checked to NORM_TOL. Every orthonormal
basis of a span in the package comes from one helper, ``_row_basis``, which
cuts the span at RANK_TOL. Everything here is a pure function of immutable
values (``FilteringProblem`` caches its overlaps and decomposition on first
use), so results can be shared freely between concurrent workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .tolerances import NORM_TOL, RANK_TOL


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _frozen_fields(record, dtype, *names: str) -> None:
    """Store each named array field of a frozen ``record`` as a read-only view
    (dtype None keeps the field's dtype). The view is frozen, not the array
    passed in, so the caller's array keeps its flags, and nothing is copied."""
    for name in names:
        object.__setattr__(record, name, _freeze(np.asarray(getattr(record, name), dtype).view()))


@dataclass(frozen=True, eq=False)
class StateVector:
    """A unit-norm vector of complex amplitudes over an orthonormal basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("amplitudes must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("amplitudes must be finite")
        norm_sq = float(np.real(arr.conj() @ arr))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise InvalidInputError(f"squared norm {norm_sq!r} deviates from 1 beyond NORM_TOL")
        object.__setattr__(self, "amplitudes", _freeze(arr))

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[float]]) -> "StateVector":
        """Build from a list of [re, im] pairs (the JSON interchange form)."""
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidInputError(f"amplitudes of shape {arr.shape} are not [re, im] pairs")
        return cls(arr[:, 0] + 1j * arr[:, 1])

    def to_pairs(self) -> list[list[float]]:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


def _as_rows(vectors) -> np.ndarray:
    """Stack StateVectors (or raw array-likes) into a (n, D) complex matrix."""
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        return np.asarray(vectors, dtype=np.complex128)
    rows = [
        v.amplitudes if isinstance(v, StateVector) else np.asarray(v, dtype=np.complex128)
        for v in vectors
    ]
    if not rows:
        raise InvalidInputError("at least one vector is required, got 0")
    dims = {r.size for r in rows}
    if len(dims) != 1:
        raise InvalidInputError(f"vectors have mixed dimensions {sorted(dims)}")
    return np.vstack(rows)


@dataclass(frozen=True, eq=False)
class FilteringProblem:
    """An ensemble of N candidate states with priors and one designated target.

    The stored order is canonical: the target is always slot 0, regardless of
    the ``target_index`` passed at construction.
    """

    states: tuple[StateVector, ...]
    priors: np.ndarray
    target_index: int = 0

    def __post_init__(self):
        states = tuple(
            s if isinstance(s, StateVector) else StateVector(np.asarray(s)) for s in self.states
        )
        n = len(states)
        if n < 2:
            raise InvalidInputError("an ensemble needs at least 2 states")
        dims = {s.dimension for s in states}
        if len(dims) != 1:
            raise InvalidInputError(f"states have mixed dimensions {sorted(dims)}")
        priors = np.array(self.priors, dtype=float)
        if priors.shape != (n,):
            raise InvalidInputError(f"expected {n} priors, got shape {priors.shape}")
        if not np.all((priors > 0.0) & (priors <= 1.0)):  # NaN fails both
            raise InvalidInputError("priors must lie in (0, 1]")
        total = float(priors.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvalidInputError(f"priors sum to {total!r}; they must sum to 1 within NORM_TOL")
        t = int(self.target_index)
        if not 0 <= t < n:
            raise InvalidInputError(f"target_index {t} out of range for {n} states")
        if t != 0:
            order = [t] + [i for i in range(n) if i != t]
            states = tuple(states[i] for i in order)
            priors = priors[order]
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "priors", _freeze(priors))
        object.__setattr__(self, "target_index", 0)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def dimension(self) -> int:
        return self.states[0].dimension

    @property
    def target(self) -> StateVector:
        return self.states[0]

    @cached_property
    def state_matrix(self) -> np.ndarray:
        """(N, D) matrix whose rows are the state amplitudes, target first."""
        return _freeze(np.vstack([s.amplitudes for s in self.states]))

    @cached_property
    def _overlaps(self) -> np.ndarray:
        """(N - 1,) overlaps <psi_1|psi_i> of the target with each complement state."""
        m = self.state_matrix
        return _freeze(m[1:] @ m[0].conj())

    @cached_property
    def _decomposition(self) -> Decomposition:
        """The target split against the complement span; see ``decompose_target``."""
        target = self.state_matrix[0]
        basis, _ = span_basis(self.state_matrix[1:])
        coef = basis.conj() @ target
        parallel = basis.T @ coef
        norm_sq = float(np.real(coef.conj() @ coef))
        return Decomposition(
            parallel=parallel,
            perpendicular=target - parallel,
            parallel_norm_sq=min(max(norm_sq, 0.0), 1.0),
        )


def gram_matrix(problem: FilteringProblem) -> np.ndarray:
    """Hermitian N x N matrix of pairwise inner products G_ij = <psi_i|psi_j>."""
    m = problem.state_matrix
    g = m.conj() @ m.T
    return (g + g.conj().T) / 2.0


def _row_basis(rows: np.ndarray) -> tuple[np.ndarray, int]:
    """D x D unitary ``vh`` and ``rank``, the number of singular values above RANK_TOL.

    The first ``rank`` rows of ``vh`` span the rows of the (n, D) matrix ``rows``
    and the rest span the orthogonal complement. Rank-deficient input takes the
    right singular vectors, dropping directions at or below RANK_TOL; full-rank
    input takes a Householder QR, whose LAPACK workspace is a fraction of the
    complex SVD's (at D = 256 the SVD adds ~6 MB to a CLI run's peak memory).
    """
    n, d = rows.shape
    rank = int((np.linalg.svd(rows, compute_uv=False) > RANK_TOL).sum())
    if rank < min(n, d):
        return np.linalg.svd(rows, full_matrices=n < d)[2], rank
    return np.linalg.qr(rows.T, mode="complete")[0].T, rank


def span_basis(vectors) -> tuple[np.ndarray, int]:
    """Orthonormal basis for the span of ``vectors`` plus its rank.

    The rank counts singular values above RANK_TOL; directions at or below it
    contribute no basis element (see ``_row_basis``). Returns (basis, rank)
    with basis rows orthonormal to ~1e-15.
    """
    vh, rank = _row_basis(_as_rows(vectors))
    return vh[:rank], rank


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
