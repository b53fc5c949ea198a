"""Monte Carlo simulation of the measurement schemes.

Born probabilities of every state come from one call,
``MeasurementScheme.born_probabilities``: for the rank-one schemes qfilter
builds that is O(N * D) for N states in dimension D, with no per-state or
per-operator loop. Outcomes are sampled by inverse-CDF over the scheme's
ordered outcome list using exact partial sums, with probabilities below PROB_TOL
treated as exact zeros, so an outcome with vanishing Born probability can
never be drawn. Rather than locating each uniform draw among the thresholds,
the sampler counts, for every live partial sum, how many draws fall below it;
adjacent differences of those counts are the outcome counts. Draws are made in
fixed-size chunks into one reused buffer, so memory does not grow with the
number of trials, and the counts equal those of a single large draw. Each
true state draws from its own RNG substream, seeded by the pair (seed, state
index), which makes per-state simulation order-independent: running states
separately and merging counts reproduces a single run exactly. A state with
a single live outcome needs no draws and gets no stream; its analytic rate
there is exactly 1, since the last live outcome of every state is assigned
the rest of the unit mass.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import FilteringProblem, StateVector, _frozen_fields
from .errors import InvalidInputError
from .neumark import MeasurementScheme, Outcome, SchemeKind
from .tolerances import PROB_TOL

# Uniform draws per chunk: 64 KiB of doubles, small enough to be served from
# the heap rather than a fresh mmap on every call.
_CHUNK = 8192
_SEED_MASK = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Born-rule probabilities of a scheme's outcomes for one input state."""

    outcomes: tuple[Outcome, ...]
    probabilities: np.ndarray
    renormalized: bool

    def __post_init__(self):
        _frozen_fields(self, float, "probabilities")

    def probability(self, outcome: Outcome) -> float:
        return float(self.probabilities[self.outcomes.index(outcome)])


def outcome_distribution(scheme: MeasurementScheme, state: StateVector) -> OutcomeDistribution:
    """Evaluate <psi|E_k|psi> for every outcome operator, clamped to [0, 1].

    The distribution is renormalized (and flagged) only when the total drifts
    from 1 by more than PROB_TOL. It is the state's row of the computation
    ``simulate`` makes for a whole ensemble, value for value. Raw amplitudes
    are validated as a ``StateVector`` first.
    """
    state = state if isinstance(state, StateVector) else StateVector(state)
    probs, renormalized = _born_rates(scheme, state.amplitudes.reshape(1, -1))
    return OutcomeDistribution(
        outcomes=scheme.outcomes, probabilities=probs[0], renormalized=bool(renormalized[0])
    )


def _born_rates(scheme: MeasurementScheme, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Born probabilities of every row, clamped to [0, 1], and the rows renormalized.

    A row is renormalized when its clamped total drifts from 1 by more than
    PROB_TOL, which also covers states whose squared norm is off by up to
    NORM_TOL.
    """
    probs = np.clip(scheme.born_probabilities(rows), 0.0, 1.0)
    totals = probs.sum(axis=1)
    renormalized = np.abs(totals - 1.0) > PROB_TOL
    probs[renormalized] /= totals[renormalized, None]
    return probs, renormalized


def _substream(seed: int, state_index: int) -> np.random.SeedSequence:
    """The RNG stream of one true state: distinct for every (seed, state) pair."""
    return np.random.SeedSequence([int(seed) & _SEED_MASK, state_index])


def _sampled(probs: np.ndarray) -> np.ndarray:
    """The distribution the sampler draws from, row by row: entries below
    PROB_TOL are 0, and the last live outcome takes the rest of the unit mass,
    as ``_draw_counts`` gives it every draw at or above the partial sum before it.
    """
    p = np.where(probs < PROB_TOL, 0.0, probs)
    rows = p.reshape(-1, p.shape[-1])  # a view: 1-D input is one row
    at = np.arange(len(rows))
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
    cum = np.cumsum(rows, axis=1)
    rows[at, last] = 1.0 - np.where(last > 0, cum[at, last - 1], 0.0)
    return p


def _draw_counts(
    p: np.ndarray, trials: int, stream_seed: int | np.random.SeedSequence
) -> np.ndarray:
    """Draw outcome counts for a sampled row ``p`` (see ``_sampled``) by inverse CDF.

    A draw u lands on the first outcome j whose partial sum cum[j] exceeds u,
    so the number of draws landing on outcomes 0..j is the number with
    u < cum[j]. Those "below" counts are taken at every live outcome but the
    last; the last live outcome takes the remainder. The uniforms are drawn
    _CHUNK at a time into one buffer; the generator fills doubles in
    sequence, so the counts equal those of one draw of ``trials`` uniforms.
    """
    live = np.flatnonzero(p)
    thresholds = np.cumsum(p)[live[:-1]].tolist()
    below = [0] * len(thresholds)
    rng = np.random.default_rng(stream_seed)
    buf = np.empty(min(trials, _CHUNK))
    for start in range(0, trials, _CHUNK):
        u = rng.random(out=buf[: min(_CHUNK, trials - start)])
        for j, t in enumerate(thresholds):
            below[j] += np.count_nonzero(u < t)
    counts = np.zeros(p.size, dtype=np.int64)
    counts[live] = np.diff([0, *below, trials])
    return counts


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
        _frozen_fields(self, None, "counts", "empirical_rates", "analytic_rates", "z_scores")

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

    Deterministic for a fixed (scheme, problem, trials, seed). The analytic
    rates are those of the sampled distribution (see ``_sampled``), with Born
    probabilities below PROB_TOL read as exact zeros; z-scores are
    (empirical - analytic) / sqrt(analytic * (1 - analytic) / trials) per
    (state, outcome) cell, zero where the analytic rate is deterministic and
    matched exactly.
    """
    trials = int(trials_per_state)
    if trials < 1:
        raise InvalidInputError("trials_per_state must be >= 1")
    probs, _ = _born_rates(scheme, problem.state_matrix)
    analytic = _sampled(probs)
    drawable = analytic > 0.0
    # A state with one live outcome lands there on every trial, with no draws.
    single = drawable.sum(axis=1) == 1
    counts = np.where(drawable & single[:, None], trials, 0).astype(np.int64)
    for i in np.flatnonzero(~single):
        counts[i] = _draw_counts(analytic[i], trials, _substream(seed, i))
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
