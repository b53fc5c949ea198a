"""Monte Carlo simulation of the measurement schemes.

Outcomes are sampled by inverse-CDF over the scheme's ordered outcome list
using exact partial sums, with probabilities below 1e-12 treated as exact
zeros, so an outcome with vanishing Born probability can never be drawn. Each
true state draws from its own RNG substream, seeded by the pair (seed, state
index), which makes per-state simulation order-independent: running states
separately and merging counts reproduces a single run exactly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import FilteringProblem, StateVector
from .errors import InvalidInputError
from .neumark import MeasurementScheme, Outcome, SchemeKind

ZERO_PROB = 1e-12
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Born-rule probabilities of a scheme's outcomes for one input state."""

    outcomes: tuple[Outcome, ...]
    probabilities: np.ndarray
    renormalized: bool

    def __post_init__(self):
        arr = np.asarray(self.probabilities, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "probabilities", arr)

    def probability(self, outcome: Outcome) -> float:
        return float(self.probabilities[self.outcomes.index(outcome)])


def outcome_distribution(scheme: MeasurementScheme, state: StateVector) -> OutcomeDistribution:
    """Evaluate <psi|E_k|psi> for every outcome operator, clamped to [0, 1].

    The distribution is renormalized (and flagged) only when the total drifts
    from 1 by more than 1e-12.
    """
    psi = state.amplitudes if isinstance(state, StateVector) else np.asarray(state, complex)
    if psi.size != scheme.acting_dimension:
        raise InvalidInputError(
            f"state dimension {psi.size} does not match the scheme's "
            f"measured space ({scheme.acting_dimension})"
        )
    probs = np.array(
        [float(np.real(psi.conj() @ op @ psi)) for op in scheme.operators], dtype=float
    )
    probs = np.clip(probs, 0.0, 1.0)
    drift = abs(float(probs.sum()) - 1.0)
    renormalized = drift > 1e-12
    if renormalized:
        probs = probs / probs.sum()
    return OutcomeDistribution(
        outcomes=scheme.outcomes, probabilities=probs, renormalized=renormalized
    )


def _substream(seed: int, state_index: int) -> np.random.SeedSequence:
    """The RNG stream of one true state: distinct for every (seed, state) pair."""
    return np.random.SeedSequence([int(seed) & _SEED_MASK, state_index])


def _sample_counts(
    probs: np.ndarray, trials: int, stream_seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Draw outcome counts via inverse-CDF with exact cumulative thresholds."""
    p = np.where(probs < ZERO_PROB, 0.0, probs)
    cum = np.cumsum(p)
    rng = np.random.default_rng(stream_seed)
    u = rng.random(trials)
    idx = np.searchsorted(cum, u, side="right")
    last_live = int(np.flatnonzero(p)[-1])  # residual mass cannot land on a zero outcome
    np.minimum(idx, last_live, out=idx)
    return np.bincount(idx, minlength=p.size).astype(np.int64)


@dataclass(frozen=True, eq=False)
class SimulationStats:
    """Outcome counts and empirical/analytic rate comparison for one scheme."""

    scheme_kind: SchemeKind
    outcomes: tuple[Outcome, ...]
    trials_per_state: int
    seed: int
    counts: np.ndarray
    empirical_rates: np.ndarray
    analytic_rates: np.ndarray
    z_scores: np.ndarray

    def __post_init__(self):
        for name in ("counts", "empirical_rates", "analytic_rates", "z_scores"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def misidentifications(self) -> int:
        """Counts that would be outright wrong assignments (target first)."""
        total = 0
        if Outcome.IS_COMPLEMENT in self.outcomes:
            total += int(self.counts[0, self.outcomes.index(Outcome.IS_COMPLEMENT)])
        if Outcome.IS_TARGET in self.outcomes:
            total += int(self.counts[1:, self.outcomes.index(Outcome.IS_TARGET)].sum())
        return total


def simulate(
    scheme: MeasurementScheme,
    problem: FilteringProblem,
    trials_per_state: int,
    seed: int,
) -> SimulationStats:
    """Sample every state of the ensemble ``trials_per_state`` times.

    Deterministic for a fixed (scheme, problem, trials, seed); z-scores are
    (empirical - analytic) / sqrt(analytic * (1 - analytic) / trials) per
    (state, outcome) cell, zero where the analytic rate is deterministic and
    matched exactly.
    """
    trials = int(trials_per_state)
    if trials < 1:
        raise InvalidInputError("trials_per_state must be >= 1")
    n = problem.n_states
    k = len(scheme.outcomes)
    counts = np.zeros((n, k), dtype=np.int64)
    analytic = np.zeros((n, k), dtype=float)
    for i, state in enumerate(problem.states):
        dist = outcome_distribution(scheme, state)
        analytic[i] = dist.probabilities
        counts[i] = _sample_counts(dist.probabilities, trials, _substream(seed, i))
    empirical = counts / float(trials)
    variance = analytic * (1.0 - analytic) / float(trials)
    z = np.zeros_like(analytic)
    live = variance > 0.0
    z[live] = (empirical[live] - analytic[live]) / np.sqrt(variance[live])
    z[~live & (empirical != analytic)] = np.inf
    return SimulationStats(
        scheme_kind=scheme.kind,
        outcomes=scheme.outcomes,
        trials_per_state=trials,
        seed=int(seed),
        counts=counts,
        empirical_rates=empirical,
        analytic_rates=analytic,
        z_scores=z,
    )


def aggregate_failure(stats: SimulationStats, priors) -> float:
    """Prior-weighted empirical failure rate across all true states."""
    pri = np.asarray(priors, dtype=float)
    if pri.shape != (stats.counts.shape[0],):
        raise InvalidInputError("priors must cover every simulated state")
    if Outcome.FAIL not in stats.outcomes:
        return 0.0
    col = stats.outcomes.index(Outcome.FAIL)
    return float(pri @ stats.empirical_rates[:, col])
