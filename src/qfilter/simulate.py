"""Monte Carlo simulation of the measurement schemes.

Born probabilities of every state come from one call,
``MeasurementScheme.born_probabilities``: for the rank-one schemes qfilter
builds that is O(N * D) for N states in dimension D, with no per-state or
per-operator loop. Probabilities below PROB_TOL are treated as exact zeros,
so an outcome with vanishing Born probability can never be drawn, and the
last live outcome of every state takes the rest of the unit mass. A state's
outcome counts are one multinomial draw over its live outcomes, so the cost
per state is O(outcomes) and neither time nor memory grows with the number
of trials. True state i draws from Philox (Salmon et al., SC'11) keyed by the
128-bit pair (seed, i) from counter 0, so distinct pairs are distinct
streams exactly, with no hashing. Each thread keeps one Philox generator,
built on its first draw and re-keyed in place for each state, so no generator
is built per state or per run, and concurrent runs never share one. The
stream depends only on (seed, i), which makes per-state simulation
order-independent: running states separately and merging counts reproduces a
single run exactly.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ensemble import FilteringProblem, _freeze, _frozen_fields, _integer, _member, _numbers
from .errors import InvalidInputError
from .neumark import MeasurementScheme, Outcome, SchemeKind
from .tolerances import PROB_TOL


def _born_rates(scheme: MeasurementScheme, rows: np.ndarray) -> np.ndarray:
    """Born probabilities of every row, clamped to [0, 1].

    A row is renormalized when its clamped total drifts from 1 by more than
    PROB_TOL, which also covers states whose squared norm is off by up to
    NORM_TOL.
    """
    probs = scheme.born_probabilities(rows)
    # np.clip, at a third of its call cost
    np.minimum(np.maximum(probs, 0.0, out=probs), 1.0, out=probs)
    totals = probs.sum(axis=1)
    renormalized = np.abs(totals - 1.0) > PROB_TOL
    if renormalized.any():
        probs[renormalized] /= totals[renormalized, None]
    return probs


_THREAD = threading.local()


def _substream(seed: int, state_index: int) -> np.random.Generator:
    """The calling thread's Philox generator, re-keyed in place to the stream
    of one true state, and returned.

    The key is the pair (seed, state index) itself, written into the thread's
    one state dict, and the counter restarts at 0 with an empty buffer: the
    state a fresh ``Philox(key=...)`` starts in, so nothing carries over from
    earlier draws or runs. A thread builds its generator on first use, not at
    import: numpy loads numpy.random (~6 MB resident) lazily, and a CLI run
    that loads it before its LAPACK work peaks that much higher.
    """
    try:
        rng, key, state = _THREAD.philox
    except AttributeError:
        key = [0, 0]  # the setter reads each word by index, faster from a list than an array
        state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        rng = np.random.Generator(np.random.Philox(key=0))
        _THREAD.philox = rng, key, state
    key[:] = seed, state_index
    rng.bit_generator.state = state
    return rng


def _sampled(probs: np.ndarray) -> np.ndarray:
    """The distribution the sampler draws from, row by row: entries below
    PROB_TOL are 0, and the last live outcome takes the rest of the unit mass,
    as ``_draw_counts`` gives it every trial the outcomes before it do not take.
    """
    p = np.where(probs < PROB_TOL, 0.0, probs)
    rows = p.reshape(-1, p.shape[-1])  # a view: 1-D input is one row
    at = np.arange(len(rows))
    last = rows.shape[1] - 1 - np.argmax(rows[:, ::-1] > 0.0, axis=1)
    rows[at, last] = 0.0
    rows[at, last] = 1.0 - rows.sum(axis=1)
    return p


def _draw_counts(
    out: np.ndarray, p: np.ndarray, live: np.ndarray, trials: int, rng: np.random.Generator
) -> None:
    """Write the outcome counts of a sampled row ``p`` (see ``_sampled``) into
    ``out``, a zeroed int64 row: one multinomial draw from ``rng`` over the
    live outcomes, ``live`` being the row's mask p > 0. The last live outcome
    takes the remainder of the trials, so a row with one live outcome gets
    every trial there, and outcomes with p = 0 are never drawn.
    """
    out[live] = rng.multinomial(trials, p[live])


def _run_arguments(trials_per_state, seed) -> tuple[int, int]:
    """``simulate``'s trials and seed as Python ints, or InvalidInputError:
    trials in [1, 2**63 - 1] (one multinomial draw) and seed in
    [0, 2**64 - 1] (one Philox key word)."""
    trials = _integer(trials_per_state, "trials_per_state")
    seed = _integer(seed, "seed")
    if not 1 <= trials <= 2**63 - 1:
        raise InvalidInputError(f"trials_per_state must lie in [1, 2**63 - 1], got {trials}")
    if not 0 <= seed <= 2**64 - 1:
        raise InvalidInputError(f"seed must lie in [0, 2**64 - 1], got {seed}")
    return trials, seed


@dataclass(frozen=True, eq=False)
class SimulationStats:
    """Counts of one scheme's outcomes (see ``outcomes``) and the analytic rates
    they were drawn from, at trials and a seed read as ``simulate`` reads them;
    the read-only ``empirical_rates`` and ``z_scores`` are derived on first read."""

    scheme_kind: SchemeKind
    trials_per_state: int
    seed: int
    counts: np.ndarray
    analytic_rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scheme_kind", _member(SchemeKind, self.scheme_kind, "scheme_kind"))
        trials, seed = _run_arguments(self.trials_per_state, self.seed)
        object.__setattr__(self, "trials_per_state", trials)
        object.__setattr__(self, "seed", seed)
        _frozen_fields(self, None, "counts", "analytic_rates")
        shape, rates = self.counts.shape, self.analytic_rates.shape
        if len(shape) != 2 or shape[1] not in (2, 3):
            raise InvalidInputError(f"counts need shape (states, 2 or 3 outcomes), got {shape}")
        if rates != shape:
            raise InvalidInputError(f"analytic_rates of shape {rates} need the counts' {shape}")

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        """The count columns' outcomes, laid out as the scheme's."""
        return tuple(Outcome)[-self.counts.shape[-1]:]

    @property
    def misidentifications(self) -> int:
        """Counts that would be outright wrong assignments (target first)."""
        total = int(self.counts[0, self.outcomes.index(Outcome.IS_COMPLEMENT)])
        if Outcome.IS_TARGET in self.outcomes:
            total += int(self.counts[1:, self.outcomes.index(Outcome.IS_TARGET)].sum())
        return total

    @cached_property
    def empirical_rates(self) -> np.ndarray:
        """counts / trials per (state, outcome) cell."""
        return _freeze(self.counts / float(self.trials_per_state))

    @cached_property
    def z_scores(self) -> np.ndarray:
        """(empirical - analytic) / sqrt(analytic * (1 - analytic) / trials) per cell;
        on deterministic cells 0 where the counts match, inf where they do not."""
        analytic, empirical = self.analytic_rates, self.empirical_rates
        variance = analytic * (1.0 - analytic) / float(self.trials_per_state)
        moving = variance > 0.0
        sd = np.sqrt(np.where(moving, variance, 1.0))  # 1.0: a placeholder, never read
        z = np.divide(empirical - analytic, sd, out=np.zeros_like(variance), where=moving)
        z[~moving & (empirical != analytic)] = np.inf
        return _freeze(z)


def simulate(
    scheme: MeasurementScheme,
    problem: FilteringProblem,
    trials_per_state: int,
    seed: int,
) -> SimulationStats:
    """Sample every state of the ensemble ``trials_per_state`` times.

    Each state's counts are one ``_draw_counts`` draw from its (seed, state)
    stream, also for a state with one live outcome, which gets every trial
    there. Deterministic for a fixed (scheme, problem, trials, seed). The analytic
    rates are those of the sampled distribution (see ``_sampled``), with Born
    probabilities below PROB_TOL read as exact zeros. The record stores the
    counts and these rates; its empirical rates and z-scores are computed on
    first read. Trials and seed are integers, trials in [1, 2**63 - 1] and
    seed in [0, 2**64 - 1].
    """
    trials, seed = _run_arguments(trials_per_state, seed)
    probs = _born_rates(scheme, problem.state_matrix)
    analytic = _sampled(probs)
    counts = np.zeros(analytic.shape, dtype=np.int64)
    live = analytic > 0.0
    for i, (out, p, mask) in enumerate(zip(counts, analytic, live)):
        _draw_counts(out, p, mask, trials, _substream(seed, i))
    return SimulationStats(scheme.kind, trials, seed, counts, analytic)


def aggregate_failure(stats: SimulationStats, priors) -> float:
    """Prior-weighted empirical failure rate across all true states."""
    pri = _numbers(priors, "priors")
    if pri.shape != (stats.counts.shape[0],):
        raise InvalidInputError("priors must cover every simulated state")
    col = stats.outcomes.index(Outcome.FAIL)
    return float(pri @ stats.empirical_rates[:, col])
