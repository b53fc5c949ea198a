"""Monte Carlo simulation of the measurement schemes.

Born probabilities of every state come from one call,
``MeasurementScheme.born_probabilities``: for the rank-one schemes qfilter
builds that is O(N * D) for N states in dimension D, with no per-state or
per-operator loop. Probabilities below PROB_TOL are treated as exact zeros,
so an outcome with vanishing Born probability can never be drawn, and the
last live outcome of every state takes the rest of the unit mass. A state's
outcome counts are one multinomial draw over its live outcomes, so the cost
per state is O(outcomes) and neither time nor memory grows with the number
of trials. Each true state draws from its own RNG substream, seeded by the
pair (seed, state index), which makes per-state simulation
order-independent: running states separately and merging counts reproduces
a single run exactly. A state with a single live outcome needs no draw and
gets no stream; its analytic rate there is exactly 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import FilteringProblem, _frozen_fields, _integer, _numbers
from .errors import InvalidInputError
from .neumark import MeasurementScheme, Outcome, SchemeKind
from .tolerances import PROB_TOL


def _born_rates(scheme: MeasurementScheme, rows: np.ndarray) -> np.ndarray:
    """Born probabilities of every row, clamped to [0, 1].

    A row is renormalized when its clamped total drifts from 1 by more than
    PROB_TOL, which also covers states whose squared norm is off by up to
    NORM_TOL.
    """
    probs = np.clip(scheme.born_probabilities(rows), 0.0, 1.0)
    totals = probs.sum(axis=1)
    renormalized = np.abs(totals - 1.0) > PROB_TOL
    probs[renormalized] /= totals[renormalized, None]
    return probs


def _substream(seed: int, state_index: int) -> np.random.SeedSequence:
    """The RNG stream of one true state: distinct for every (seed, state) pair."""
    return np.random.SeedSequence([seed, state_index])


def _sampled(probs: np.ndarray) -> np.ndarray:
    """The distribution the sampler draws from, row by row: entries below
    PROB_TOL are 0, and the last live outcome takes the rest of the unit mass,
    as ``_draw_counts`` gives it every trial the outcomes before it do not take.
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
    """Draw outcome counts for a sampled row ``p`` (see ``_sampled``): one
    multinomial draw over its live outcomes, the last of which takes the
    remainder of the trials; outcomes with p = 0 are never drawn.
    """
    live = np.flatnonzero(p)
    counts = np.zeros(p.size, dtype=np.int64)
    counts[live] = np.random.default_rng(stream_seed).multinomial(trials, p[live])
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
    matched exactly. Trials and seed are integers, trials in [1, 2**63 - 1]
    and seed in [0, 2**64 - 1].
    """
    trials = _integer(trials_per_state, "trials_per_state")
    seed = _integer(seed, "seed")
    if not 1 <= trials <= np.iinfo(np.int64).max:
        raise InvalidInputError(f"trials_per_state must lie in [1, 2**63 - 1], got {trials}")
    if not 0 <= seed <= np.iinfo(np.uint64).max:
        raise InvalidInputError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    probs = _born_rates(scheme, problem.state_matrix)
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
        seed=seed,
        counts=counts,
        empirical_rates=empirical,
        analytic_rates=analytic,
        z_scores=z,
    )


def aggregate_failure(stats: SimulationStats, priors) -> float:
    """Prior-weighted empirical failure rate across all true states."""
    pri = _numbers(priors, "priors")
    if pri.shape != (stats.counts.shape[0],):
        raise InvalidInputError("priors must cover every simulated state")
    if Outcome.FAIL not in stats.outcomes:
        return 0.0
    col = stats.outcomes.index(Outcome.FAIL)
    return float(pri @ stats.empirical_rates[:, col])
