"""Monte Carlo simulation of the measurement schemes.

Born probabilities of every state come from one call,
``MeasurementScheme.born_probabilities``: for the rank-one schemes qfilter
builds that is O(N * D) for N states in dimension D, with no per-state or
per-operator loop. Probabilities below PROB_TOL are treated as exact zeros,
so an outcome with vanishing Born probability can never be drawn, and the
last live outcome of every state takes the rest of the unit mass. Each state
is then drawn in one pass over its row (``_draw``): its outcome counts are
numpy's multinomial chain of conditional binomials over the live outcomes,
run step by step with ``Generator.binomial``, so they equal one
``Generator.multinomial`` draw count for count. The cost per state is
O(outcomes), and neither time nor memory grows with the number of trials.
True state i draws from Philox (Salmon et al., SC'11) keyed by the
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


def _draw(row: list[float], trials: int, rng: np.random.Generator) -> tuple[list, list]:
    """The sampled distribution of one row of Born rates and its outcome counts.

    Cells below PROB_TOL are 0, and the last live cell is 1 minus the sum of
    the cells before it. The counts are numpy's ``random_multinomial`` over
    the live cells, step by step: each live outcome but the last draws
    ``binomial(left, p_j / rest)`` from ``rng``, the chain stops once no trial
    is left, and the last live outcome takes what is left. So the counts, and
    the generator's state after them, are those of
    ``rng.multinomial(trials, p[live])``; a row with one live outcome makes no
    draw. A share that rounds above 1 is read as 1: ``Generator.binomial``
    rejects it, while the multinomial's binomial gives it every trial left,
    as it does at 1, from one uniform draw.
    """
    p = [x if x >= PROB_TOL else 0.0 for x in row]
    last = len(p) - 1
    while not p[last]:
        last -= 1
    p[last] = 1.0 - sum(p[:last])
    counts = [0] * len(p)
    left, rest = trials, 1.0
    for j in range(last):
        x = p[j]
        if x:
            share = x / rest
            k = counts[j] = rng.binomial(left, share if share < 1.0 else 1.0)
            left -= k
            if left <= 0:
                break
            rest -= x
    counts[last] = left  # 0 after the chain stopped
    return p, counts


def _run_arguments(trials_per_state, seed) -> tuple[int, int]:
    """``simulate``'s trials and seed as Python ints, or InvalidInputError:
    trials in [1, 2**63 - 1] (an int64 binomial draw) and seed in
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
        _frozen_fields(self, np.int64, "counts")
        _frozen_fields(self, float, "analytic_rates")
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

    Each state's counts are one ``_draw`` pass from its (seed, state)
    stream, also for a state with one live outcome, which gets every trial
    there. Deterministic for a fixed (scheme, problem, trials, seed). The analytic
    rates are those of the sampled distribution (see ``_draw``), with Born
    probabilities below PROB_TOL read as exact zeros. The record stores the
    counts and these rates; its empirical rates and z-scores are computed on
    first read. Trials and seed are integers, trials in [1, 2**63 - 1] and
    seed in [0, 2**64 - 1].
    """
    trials, seed = _run_arguments(trials_per_state, seed)
    analytic, counts = [], []
    for i, row in enumerate(_born_rates(scheme, problem.state_matrix).tolist()):
        rates, row_counts = _draw(row, trials, _substream(seed, i))
        analytic.append(rates)
        counts.append(row_counts)
    return SimulationStats(
        scheme.kind, trials, seed, np.array(counts, dtype=np.int64), np.array(analytic)
    )


def aggregate_failure(stats: SimulationStats, priors) -> float:
    """Prior-weighted empirical failure rate across all true states."""
    pri = _numbers(priors, "priors")
    if pri.shape != (stats.counts.shape[0],):
        raise InvalidInputError("priors must cover every simulated state")
    col = stats.outcomes.index(Outcome.FAIL)
    return float(pri @ stats.empirical_rates[:, col])
