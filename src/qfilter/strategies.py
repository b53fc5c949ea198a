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
from collections.abc import Sequence
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .ensemble import FilteringProblem, _frozen_fields, decompose_target
from .errors import InvalidInputError
from .neumark import failure_allocations


class Regime(str, Enum):
    """Which branch of the piecewise optimum applies."""

    POVM = "POVM"
    SQM1_BOUNDARY = "SQM1_BOUNDARY"
    SQM2_BOUNDARY = "SQM2_BOUNDARY"


def _check_eta1(eta1: float) -> float:
    eta1 = float(eta1)
    if not 0.0 < eta1 < 1.0:
        raise InvalidInputError(f"target prior must lie in (0, 1), got {eta1!r}")
    return eta1


def _check_overlap(s: float) -> float:
    s = float(s)
    if not (np.isfinite(s) and s >= 0.0):
        raise InvalidInputError(f"average overlap must be finite and >= 0, got {s!r}")
    return s


def _check_fraction(f: float) -> float:
    f = float(f)
    if not 0.0 <= f <= 1.0:
        raise InvalidInputError(f"parallel squared norm must lie in [0, 1], got {f!r}")
    return f


def average_overlap(problem: FilteringProblem) -> float:
    """Prior-weighted squared overlap S between the target and the complement set."""
    return float(problem.priors[1:] @ np.abs(problem._overlaps) ** 2)


def q_sqm1(eta1: float, overlap: float) -> float:
    """Failure probability of the selective projection: eta1 + S."""
    return _check_eta1(eta1) + _check_overlap(overlap)


def q_sqm2(eta1: float, parallel_norm_sq: float, overlap: float) -> float:
    """Failure probability of the nonselective projection: eta1*f + S/f.

    f = 0 with S = 0 means the target is orthogonal to the complement span and
    filtering is perfect; f = 0 with S > 0 is mathematically impossible and
    signals inconsistent inputs.
    """
    eta1 = _check_eta1(eta1)
    f = _check_fraction(parallel_norm_sq)
    s = _check_overlap(overlap)
    if f == 0.0:
        if s == 0.0:
            return 0.0
        raise InvalidInputError(
            "overlap S > 0 with zero parallel component is inconsistent: "
            "a nonzero overlap forces the target to have weight inside the complement span"
        )
    return eta1 * f + s / f


def q_povm(eta1: float, overlap: float) -> float:
    """Interior-minimum failure probability 2*sqrt(eta1*S).

    Callers must gate by ``povm_window``: the value is only the optimum when
    eta1*f**2 <= S <= eta1.
    """
    return 2.0 * math.sqrt(_check_eta1(eta1) * _check_overlap(overlap))


def povm_window(eta1: float, parallel_norm_sq: float, overlap: float) -> bool:
    """True when the interior optimum is admissible (ties at the edges included)."""
    return eta1 * parallel_norm_sq**2 <= overlap <= eta1


@dataclass(frozen=True, eq=False)
class StrategyReport:
    """Failure probabilities and per-state allocations for one ensemble.

    ``per_state_failure[i]`` is the failure weight q_i of state i (target
    first); ``per_state_success`` is its exact complement 1 - q_i.  ``q_povm``
    is None when the interior optimum is outside its validity window. Fields
    are declared in the key order of ``to_dict``.
    """

    q_sqm1: float
    q_sqm2: float
    q_povm: float | None
    regime: Regime
    optimal_q1: float
    optimal_Q: float
    average_success: float
    overlap_S: float
    parallel_norm_f: float
    per_state_failure: np.ndarray
    per_state_success: np.ndarray

    def __post_init__(self):
        _frozen_fields(self, float, "per_state_failure", "per_state_success")

    def to_dict(self) -> dict:
        """The report as JSON values, keyed by field name in field order."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            out[field.name] = value.value if isinstance(value, Regime) else value
        return out


def optimal_filtering(problem: FilteringProblem) -> StrategyReport:
    """Optimal unambiguous filtering of the ensemble's target state.

    Selects the piecewise-optimal branch, allocates per-state failure weights
    via ``failure_allocations`` (q1*q_i = |<psi_1|psi_i>|^2), and reports all
    three strategy values.
    """
    eta1 = _check_eta1(problem.priors[0])
    s = average_overlap(problem)
    f = decompose_target(problem).parallel_norm_sq
    qs1, qs2, qp, codes, _ = _closed_forms(eta1, f, np.array([s]))
    regime = CURVE_REGIMES[codes[0]]
    q1 = (math.sqrt(s / eta1), 1.0, f)[codes[0]]  # the optimal q1 of each regime
    allocation = failure_allocations(problem, q1)
    q = allocation.failure_probs
    optimal_q = float(problem.priors @ q)

    return StrategyReport(
        q_sqm1=float(qs1[0]),
        q_sqm2=float(qs2[0]),
        q_povm=float(qp[0]) if regime is Regime.POVM else None,
        regime=regime,
        optimal_q1=allocation.q1,
        optimal_Q=optimal_q,
        per_state_failure=q,
        per_state_success=1.0 - q,
        average_success=1.0 - optimal_q,
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

    ``q_povm`` is NaN outside the validity window, where rows report None;
    ``regime_codes`` index ``CURVE_REGIMES``.
    """

    s: np.ndarray
    q_sqm1: np.ndarray
    q_sqm2: np.ndarray
    q_povm: np.ndarray
    q_opt: np.ndarray
    regime_codes: np.ndarray

    def __post_init__(self):
        _frozen_fields(self, None, "s", "q_sqm1", "q_sqm2", "q_povm", "q_opt", "regime_codes")

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
    q_opt is the piecewise minimum. Each column applies the scalar closed
    forms' floating-point operations elementwise, so every value equals
    what ``q_sqm1``, ``q_sqm2`` and ``q_povm`` return for that S.
    """
    eta1 = _check_eta1(eta1)
    f = _check_fraction(parallel_norm_sq)
    if isinstance(overlap_values, np.ndarray):
        s = np.array(overlap_values, dtype=float)
    else:
        s = np.fromiter(overlap_values, dtype=float)
    if s.ndim != 1:
        raise InvalidInputError(f"overlap values must be one-dimensional, got shape {s.shape}")
    bad = ~(np.isfinite(s) & (s >= 0.0))
    if bad.any():
        _check_overlap(s[np.argmax(bad)])  # raises for the first invalid S
    qs1, qs2, qp, codes, q_opt = _closed_forms(eta1, f, s)
    return FailureCurve(
        s=s, q_sqm1=qs1, q_sqm2=qs2, q_povm=qp, q_opt=q_opt, regime_codes=codes
    )


def _closed_forms(eta1: float, f: float, s: np.ndarray):
    """(q_sqm1, q_sqm2, q_povm, regime codes, q_opt) columns for validated inputs.

    q_povm is NaN outside the window; codes index ``CURVE_REGIMES``, and
    boundary ties resolve to POVM.
    """
    qs1 = eta1 + s
    if f > 0.0:
        qs2 = eta1 * f + s / f
    else:
        qs2 = np.where(s == 0.0, 0.0, math.inf)
    in_window = (eta1 * f**2 <= s) & (s <= eta1)
    qp = np.full_like(s, math.nan)
    qp[in_window] = 2.0 * np.sqrt(eta1 * s[in_window])
    codes = np.where(in_window, 0, np.where(s > eta1, 1, 2)).astype(np.int8)
    q_opt = np.choose(codes, (qp, qs1, qs2))
    return qs1, qs2, qp, codes, q_opt
