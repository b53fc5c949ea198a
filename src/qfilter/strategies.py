"""Closed-form failure probabilities for unambiguous state filtering.

Three strategies are compared: projecting onto the target (selective, SQM1),
projecting onto the component of the target orthogonal to the complement span
(nonselective, SQM2), and the optimal generalized measurement (POVM). The
failure probability of the generalized measurement is eta1*q1 + S/q1 over the
allowed target failure weight q1 in [f, 1]; its interior minimum 2*sqrt(eta1*S)
is valid exactly when eta1*f**2 <= S <= eta1, and outside that window the
optimum clamps to one of the projective boundaries.

Symbols used throughout: eta1 is the target prior, S the prior-weighted squared
overlap between target and complement, f the squared norm of the target's
component inside the complement span.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .ensemble import (
    FilteringProblem, _built, _freeze, _frozen_fields, _numbers, _real, decompose_target,
)
from .errors import InvalidInputError
from .neumark import failure_allocations


class Regime(str, Enum):
    """Which branch of the piecewise optimum applies."""

    POVM = "POVM"
    SQM1_BOUNDARY = "SQM1_BOUNDARY"
    SQM2_BOUNDARY = "SQM2_BOUNDARY"


def _check_eta1(eta1: float) -> float:
    eta1 = _real(eta1, "target prior eta1")
    if not 0.0 < eta1 < 1.0:
        raise InvalidInputError(f"target prior must lie in (0, 1), got {eta1!r}")
    return eta1


@dataclass(frozen=True, eq=False)
class StrategyReport:
    """Failure probabilities and per-state allocations for one ensemble.

    ``per_state_failure[i]`` is the failure weight q_i of state i (target
    first); the read-only ``per_state_success`` (1 - q_i) and ``average_success``
    (1 - optimal_Q) are derived on first read. ``q_povm`` is None when the
    interior optimum is outside its validity window.
    """

    q_sqm1: float
    q_sqm2: float
    q_povm: float | None
    regime: Regime
    optimal_q1: float
    optimal_Q: float
    overlap_S: float
    parallel_norm_f: float
    per_state_failure: np.ndarray

    def __post_init__(self):
        _frozen_fields(self, float, "per_state_failure")

    @cached_property
    def per_state_success(self) -> np.ndarray:
        return _freeze(1.0 - self.per_state_failure)

    @cached_property
    def average_success(self) -> float:
        return 1.0 - self.optimal_Q

    def to_dict(self) -> dict:
        """The report as the ``strategies`` JSON values: these 11 keys, in this order."""
        keys = (
            "q_sqm1", "q_sqm2", "q_povm", "regime", "optimal_q1", "optimal_Q", "average_success",
            "overlap_S", "parallel_norm_f", "per_state_failure", "per_state_success",
        )
        out = {key: getattr(self, key) for key in keys}
        out["regime"] = self.regime.value
        out["per_state_failure"] = self.per_state_failure.tolist()
        out["per_state_success"] = self.per_state_success.tolist()
        return out


def optimal_filtering(problem: FilteringProblem) -> StrategyReport:
    """Optimal unambiguous filtering of the ensemble's target state.

    Selects the piecewise-optimal branch, allocates per-state failure weights
    via ``failure_allocations`` (q1*q_i = |<psi_1|psi_i>|^2), and reports all
    three strategy values.

    Raises NumericalError from ``failure_allocations`` when, at the optimal
    q1 > 0, the span cut at RANK_TOL drops a direction the states carry.
    """
    eta1 = _check_eta1(problem.priors[0])
    s = float(problem.priors[1:] @ np.abs(problem._overlaps) ** 2)
    f = decompose_target(problem).parallel_norm_sq
    qs1, qs2, qp, codes = _closed_forms(eta1, f, np.array([s]))
    regime = CURVE_REGIMES[codes[0]]
    q1 = (math.sqrt(s / eta1), 1.0, f)[codes[0]]  # the optimal q1 of each regime
    allocation = failure_allocations(problem, q1)
    return _built(
        StrategyReport,
        q_sqm1=float(qs1[0]),
        q_sqm2=float(qs2[0]),
        q_povm=float(qp[0]) if regime is Regime.POVM else None,
        regime=regime,
        optimal_q1=allocation.q1,
        optimal_Q=float(problem.priors @ allocation.failure_probs),
        per_state_failure=allocation.failure_probs,
        overlap_S=s,
        parallel_norm_f=f,
    )


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One point of a failure-probability sweep over the average overlap."""

    s: float
    q_sqm1: float
    q_sqm2: float
    q_povm: float | None
    q_opt: float
    regime: Regime


#: Regime codes stored by ``FailureCurve.regime_codes``.
CURVE_REGIMES = (Regime.POVM, Regime.SQM1_BOUNDARY, Regime.SQM2_BOUNDARY)


@dataclass(frozen=True, eq=False)
class FailureCurve(Sequence):
    """A sweep held column by column; indexing and iteration yield ``SweepRow``.

    The four value columns are real and 1-D, of one length; ``q_povm`` is NaN
    outside the validity window, where rows report None. ``regime_codes``, of
    that length, index ``CURVE_REGIMES``: integers 0, 1 or 2 of any dtype int64
    holds, stored as int8. The read-only ``q_opt`` is derived on first read.
    """

    s: np.ndarray
    q_sqm1: np.ndarray
    q_sqm2: np.ndarray
    q_povm: np.ndarray
    regime_codes: np.ndarray

    def __post_init__(self):
        _frozen_fields(self, float, "s", "q_sqm1", "q_sqm2", "q_povm")
        codes = _numbers(self.regime_codes, "regime_codes", np.int64)
        shapes = tuple(a.shape for a in (self.s, self.q_sqm1, self.q_sqm2, self.q_povm, codes))
        if len(shapes[0]) != 1 or len(set(shapes)) != 1:
            raise InvalidInputError(
                "s, q_sqm1, q_sqm2, q_povm and regime_codes must be 1-D and of one length, "
                f"got shapes {', '.join(map(str, shapes))}"
            )
        outside = ~((codes >= 0) & (codes <= 2))
        if outside.any():
            raise InvalidInputError(f"regime_codes hold {int(codes[outside][0])}, outside 0..2")
        object.__setattr__(self, "regime_codes", _freeze(codes.astype(np.int8)))

    @cached_property
    def q_opt(self) -> np.ndarray:
        return _freeze(np.choose(self.regime_codes, (self.q_povm, self.q_sqm1, self.q_sqm2)))

    def __len__(self) -> int:
        return self.s.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        regime = CURVE_REGIMES[self.regime_codes[index]]
        return SweepRow(
            s=float(self.s[index]),
            q_sqm1=float(self.q_sqm1[index]),
            q_sqm2=float(self.q_sqm2[index]),
            q_povm=float(self.q_povm[index]) if regime is Regime.POVM else None,
            q_opt=float(self.q_opt[index]),
            regime=regime,
        )


def failure_curve(eta1: float, parallel_norm_sq: float, overlap_values) -> FailureCurve:
    """Evaluate all three strategies on a sequence of overlap values S.

    (eta1, f, S) are treated as free parameters here, matching a parametric
    sweep; the POVM column is reported only inside its validity window, and
    q_opt is the piecewise minimum. Q_sqm2 is inf where f = 0 and S > 0.
    """
    eta1 = _check_eta1(eta1)
    f = _real(parallel_norm_sq, "parallel squared norm f")
    if not 0.0 <= f <= 1.0:
        raise InvalidInputError(f"parallel squared norm must lie in [0, 1], got {f!r}")
    if isinstance(overlap_values, Iterator):  # np.asarray would not consume it
        overlap_values = list(overlap_values)
    s = _numbers(overlap_values, "overlap values")
    if s.ndim != 1:
        raise InvalidInputError(f"overlap values must be one-dimensional, got shape {s.shape}")
    bad = ~(np.isfinite(s) & (s >= 0.0))
    if bad.any():
        first = float(s[np.argmax(bad)])
        raise InvalidInputError(f"average overlap must be finite and >= 0, got {first!r}")
    qs1, qs2, qp, codes = _closed_forms(eta1, f, s)
    return _built(FailureCurve, s=s, q_sqm1=qs1, q_sqm2=qs2, q_povm=qp, regime_codes=codes)


def _closed_forms(eta1: float, f: float, s: np.ndarray):
    """(q_sqm1, q_sqm2, q_povm, regime codes) columns for validated inputs.

    q_povm is NaN outside the window; codes index ``CURVE_REGIMES``, and
    boundary ties resolve to POVM; ``FailureCurve.q_opt`` picks the optimum.
    """
    qs1 = eta1 + s
    if f > 0.0:
        qs2 = eta1 * f + s / f
    else:
        qs2 = np.where(s == 0.0, 0.0, math.inf)
    in_window = (eta1 * f**2 <= s) & (s <= eta1)
    qp = np.where(in_window, 2.0 * np.sqrt(eta1 * s), math.nan)
    codes = np.where(in_window, 0, np.where(s > eta1, 1, 2)).astype(np.int8)
    return qs1, qs2, qp, codes
