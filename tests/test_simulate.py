import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfilter import (
    FilteringProblem,
    InvalidInputError,
    MeasurementScheme,
    Outcome,
    SchemeKind,
    SimulationStats,
    StateVector,
    aggregate_failure,
    boolean_problem,
    build_neumark,
    failure_allocations,
    load_problem,
    optimal_filtering,
    povm_elements,
    projective_scheme,
    save_problem,
    simulate,
)
from qfilter.simulate import _born_rates, _draw, _substream
from qfilter.tolerances import PROB_TOL

ROOT3 = math.sqrt(3.0)


def optimal_scheme(problem):
    report = optimal_filtering(problem)
    allocation = failure_allocations(problem, report.optimal_q1)
    return povm_elements(build_neumark(problem, allocation)), report


def draw(probs, trials, rng):
    """The counts ``_draw`` gives one row of Born rates, read as ``simulate`` reads them."""
    return np.array(_draw(np.asarray(probs, float).tolist(), trials, rng)[1], dtype=np.int64)


def born(scheme, amplitudes):
    """One state's Born probabilities, in outcome order, as ``simulate`` computes them."""
    return _born_rates(scheme, amplitudes.reshape(1, -1))[0]


def born_by_outcome(scheme, state):
    return dict(zip(scheme.outcomes, born(scheme, state)))


def philox(seed, state_index=0):
    """A freshly built generator on the stream of (seed, state): Philox keyed
    by the pair itself, spelled as a uint64 array (a Python list holding
    2**64 - 1 would not convert)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, state_index], dtype=np.uint64)))


def drawn(seed, state_index):
    """The simulator's generator, re-keyed to (seed, state) after one draw at
    10**12 trials on another stream, so any state carried over would show."""
    _substream(seed ^ 1, state_index + 1).multinomial(10**12, [0.3, 0.7])
    return _substream(seed, state_index)


class TestOutcomeDistribution:
    def test_sqm1_on_target_always_fails(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM1)
        dist = born_by_outcome(scheme, figure_point_problem.state_matrix[0])
        assert dist[Outcome.FAIL] == pytest.approx(1.0, abs=1e-12)
        assert dist[Outcome.IS_COMPLEMENT] == pytest.approx(0.0, abs=1e-12)

    def test_povm_on_biased_target(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        dist = born_by_outcome(scheme, walsh_problem.state_matrix[0])
        assert dist[Outcome.IS_TARGET] == pytest.approx(1 - ROOT3 / 2, abs=1e-10)
        assert dist[Outcome.FAIL] == pytest.approx(ROOT3 / 2, abs=1e-10)
        assert dist[Outcome.IS_COMPLEMENT] <= 1e-10

    def test_povm_on_balanced_basis_vector(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        dist = born_by_outcome(scheme, walsh_problem.state_matrix[1])
        assert dist[Outcome.FAIL] == pytest.approx(1 / (2 * ROOT3), abs=1e-10)
        assert dist[Outcome.IS_TARGET] <= 1e-10
        assert dist[Outcome.IS_COMPLEMENT] == pytest.approx(
            1 - 1 / (2 * ROOT3), abs=1e-10
        )

    def test_dimension_mismatch_rejected(self, walsh_problem, symmetric_pair_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        with pytest.raises(InvalidInputError, match="dimension"):
            born(scheme, StateVector(np.array([1.0, 0.0])).amplitudes)
        with pytest.raises(InvalidInputError, match="measured space"):
            simulate(scheme, symmetric_pair_problem, 10, 1)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (np.full((2, 2), 0.5), "1-D"),
            ([3.0, 0.0, 0.0, 0.0], r"squared norm 9\.0 deviates"),
            (np.zeros(4), r"squared norm 0\.0 deviates"),
        ],
        ids=["matrix", "norm-3", "zero"],
    )
    def test_raw_amplitudes_are_validated_as_a_state(self, raw, message):
        # raw amplitudes reach a scheme only as a StateVector or a problem's rows
        with pytest.raises(InvalidInputError, match=message):
            StateVector(raw)


class TestSampling:
    def test_zero_probability_outcomes_never_drawn(self):
        probs = np.array([0.3, 0.0, 0.7])
        counts = draw(probs, 50_000, philox(123))
        assert counts[1] == 0
        assert counts.sum() == 50_000

    def test_tiny_probabilities_are_exact_zeros(self):
        probs = np.array([0.5, 1e-13, 0.5 - 1e-13])
        counts = draw(probs, 20_000, philox(7))
        assert counts[1] == 0

    def test_residual_mass_goes_to_last_live_outcome(self):
        # total slightly below 1: every draw must still land on a live outcome
        probs = np.array([0.5, 0.5 - 1e-13, 0.0])
        counts = draw(probs, 10_000, philox(99))
        assert counts[2] == 0


def reference_counts(probs, trials, seed, state_index):
    """One multinomial draw over the outcomes at or above PROB_TOL, written
    directly on a freshly built Philox keyed by (seed, state), with the last
    of them given the residual mass."""
    live = np.flatnonzero(probs >= PROB_TOL)
    pvals = probs[live]
    pvals[-1] = max(0.0, 1.0 - pvals[:-1].sum())
    counts = np.zeros(probs.size, dtype=np.int64)
    counts[live] = philox(seed, state_index).multinomial(trials, pvals)
    return counts


def born_row(draw, kinds):
    """A row of Born rates with one entry per kind: "live" at or above
    PROB_TOL, "zero" exactly 0, "tiny" below PROB_TOL; its total lies within
    1e-12 of 1."""
    weights = np.array(
        [draw(st.floats(0.01, 1.0)) if kind == "live" else 0.0 for kind in kinds]
    )
    tiny = np.array(
        [draw(st.floats(1e-18, 0.999 * PROB_TOL)) if kind == "tiny" else 0.0 for kind in kinds]
    )
    drift = draw(st.sampled_from([0.0, -1e-12, -3e-13, 3e-13, 1e-12]))
    live_total = 1.0 + drift - tiny.sum()
    return weights / weights.sum() * live_total + tiny


@st.composite
def sampled_distributions(draw):
    """Probability vectors with exact zeros, entries below PROB_TOL, zero
    trailing entries and totals within 1e-12 of 1."""
    kinds = draw(st.lists(st.sampled_from(["live", "zero", "tiny"]), min_size=1, max_size=7))
    kinds[draw(st.integers(0, len(kinds) - 1))] = "live"
    kinds += ["zero"] * draw(st.integers(0, 2))
    return born_row(draw, kinds)


@st.composite
def chain_rows(draw):
    """Rows with 1, 2 or 3 live outcomes, as a scheme's rows have, and exact
    or sub-PROB_TOL zeros in any position, trailing ones included."""
    kinds = ["live"] * draw(st.integers(1, 3))
    kinds += draw(st.lists(st.sampled_from(["zero", "tiny"]), max_size=3))
    return born_row(draw, draw(st.permutations(kinds)))


class TestSamplerOracle:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        probs=sampled_distributions(),
        trials=st.sampled_from([1, 2, 8_193, 10**5 + 3, 10**12]),
        seed=st.integers(0, 2**64 - 1),
        state_index=st.integers(0, 2**64 - 2),
    )
    def test_counts_match_multinomial_reference(self, probs, trials, seed, state_index):
        counts = draw(probs, trials, drawn(seed, state_index))
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, reference_counts(probs, trials, seed, state_index)
        )

    def test_memory_does_not_grow_with_trials(self):
        probs = np.array([0.3, 0.2, 0.5])
        tracemalloc.start()
        try:
            counts = draw(probs, 10**7, philox(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 10**7
        assert peak < 1_000_000


class TestBinomialChain:
    """``_draw`` runs numpy's multinomial as its chain of binomials, step by
    step: the counts and the generator's state after them are those of one
    ``Generator.multinomial`` draw on a twin generator."""

    @staticmethod
    def assert_one_multinomial_draw(probs, trials, seed):
        ours, twin = philox(seed, 1), philox(seed, 1)
        rates, counts = _draw(probs.tolist(), trials, ours)
        live = probs >= PROB_TOL
        expected = np.zeros(probs.size, dtype=np.int64)
        expected[live] = twin.multinomial(trials, np.array(rates)[live])
        assert counts == expected.tolist()
        assert ours.random() == twin.random()
        return rates, counts

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        probs=chain_rows(),
        trials=st.sampled_from([1, 2, 8191, 10**5, 2**62]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_and_stream_match_one_multinomial_draw(self, probs, trials, seed):
        self.assert_one_multinomial_draw(probs, trials, seed)

    @pytest.mark.parametrize("trials", [1, 2, 8191, 10**5, 2**62])
    @pytest.mark.parametrize(
        "first", [0.6369616873214543, 0.2697867137638703, 0.04097352393619469]
    )
    def test_a_share_rounding_above_one_takes_every_trial_left(self, first, trials):
        # Three live outcomes whose last share rounds to 0: the second step's
        # share p_2 / (1 - p_1) rounds above 1, which Generator.binomial rejects;
        # the multinomial's step gives such a share every trial left.
        second = math.nextafter(1.0 - first, 2.0)
        assert second / (1.0 - first) > 1.0
        rates, counts = self.assert_one_multinomial_draw(
            np.array([first, second, PROB_TOL]), trials, seed=9
        )
        assert 0.0 <= rates[2] < PROB_TOL and counts[2] == 0

    def test_chain_stops_once_no_trial_is_left(self):
        # numpy's loop breaks when no trial is left, so no step draws on 0 trials
        class Recording:
            def __init__(self, rng):
                self.rng, self.trials = rng, []

            def binomial(self, n, p):
                self.trials.append(n)
                return self.rng.binomial(n, p)

        steps = []
        for seed in range(40):
            rng = Recording(philox(seed))
            assert sum(_draw([0.5, 0.3, 0.2], 1, rng)[1]) == 1
            assert min(rng.trials) >= 1
            steps.append(len(rng.trials))
        assert set(steps) == {1, 2}  # the first outcome took the one trial, or did not


class TestSubstreams:
    def test_seed_and_state_do_not_alias(self):
        # (seed 0, state 1) and (seed 1, state 0) must be different streams
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        a = draw(probs, 10_000, _substream(0, 1))
        b = draw(probs, 10_000, _substream(1, 0))
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, draw(probs, 10_000, philox(0, 1)))
        np.testing.assert_array_equal(b, draw(probs, 10_000, philox(1, 0)))

    @pytest.mark.parametrize("seed", (0, 42, 2**64 - 1))
    def test_each_state_draws_from_a_fresh_keyed_philox(self, walsh_problem, seed):
        # every Walsh state has two or three live outcomes, so each state's
        # draw follows the draw of the state before it at 10**12 trials
        scheme, _ = optimal_scheme(walsh_problem)
        stats = simulate(scheme, walsh_problem, 10**12, seed)
        assert np.all((stats.analytic_rates > 0).sum(axis=1) > 1)
        for i, p in enumerate(stats.analytic_rates):
            live = p > 0
            expected = np.zeros(p.size, dtype=np.int64)
            expected[live] = philox(seed, i).multinomial(10**12, p[live])
            np.testing.assert_array_equal(stats.counts[i], expected)

    def test_concurrent_runs_give_the_counts_of_serial_runs(self):
        # Each thread re-keys its own generator. A switch every microsecond lands
        # between one thread's re-key and its draw, so a shared generator would
        # hand a thread another thread's stream.
        from conftest import random_problem

        problem = random_problem(np.random.default_rng(8), max_dim=6, min_states=16, max_states=16)
        scheme, _ = optimal_scheme(problem)
        seeds = range(100, 108)
        serial = {seed: simulate(scheme, problem, 1000, seed).counts for seed in seeds}
        runs = {seed: [] for seed in seeds}
        start = threading.Barrier(len(seeds))

        def run(seed):
            start.wait(timeout=60)
            for _ in range(25):
                runs[seed].append(simulate(scheme, problem, 1000, seed).counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for seed in seeds:
            assert len(runs[seed]) == 25
            for counts in runs[seed]:
                np.testing.assert_array_equal(counts, serial[seed])

    def test_a_run_after_another_gives_the_counts_of_a_first_run(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        first = []
        fresh = threading.Thread(
            target=lambda: first.append(simulate(scheme, walsh_problem, 5000, 9).counts)
        )
        fresh.start()
        fresh.join(timeout=60)
        assert not fresh.is_alive()
        simulate(scheme, walsh_problem, 10**12, 2**64 - 1)
        np.testing.assert_array_equal(simulate(scheme, walsh_problem, 5000, 9).counts, first[0])

    def test_leaves_the_global_numpy_generator_untouched(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        saved = np.random.get_state()
        expected = np.random.random(4)
        np.random.set_state(saved)
        fresh = threading.Thread(target=lambda: simulate(scheme, walsh_problem, 1000, 1))
        fresh.start()
        fresh.join(timeout=60)
        assert not fresh.is_alive()
        simulate(scheme, walsh_problem, 1000, 1)
        np.testing.assert_array_equal(np.random.random(4), expected)


class TestSimulate:
    def test_single_trial_reproducible(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        a = simulate(scheme, walsh_problem, 1, 12345)
        b = simulate(scheme, walsh_problem, 1, 12345)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_determinism_across_runs(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        a = simulate(scheme, figure_point_problem, 5000, 42)
        b = simulate(scheme, figure_point_problem, 5000, 42)
        np.testing.assert_array_equal(a.counts, b.counts)
        c = simulate(scheme, figure_point_problem, 5000, 43)
        assert not np.array_equal(a.counts, c.counts)

    def test_counts_sum_to_trials(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        stats = simulate(scheme, walsh_problem, 777, 3)
        np.testing.assert_array_equal(stats.counts.sum(axis=1), 777)

    def test_trials_must_be_positive(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        with pytest.raises(InvalidInputError):
            simulate(scheme, walsh_problem, 0, 1)

    @pytest.mark.parametrize(
        "counts, rates, field, dtype",
        [([["0", "3", "7"]], [[0.0, 0.3, 0.7]], "counts", "int64"),
         ([[0.5, 2.5, 7.0]], [[0.05, 0.25, 0.7]], "counts", "int64"),
         ([[0, 3, 7]], [[0.0, 0.3 + 0.1j, 0.7]], "analytic_rates", "float64")],
        ids=["string-counts", "fractional-counts", "complex-rates"],
    )
    def test_hand_built_stats_read_counts_and_rates_without_loss(self, counts, rates, field, dtype):
        # string counts reached numpy's bare TypeError in misidentifications, and
        # 0.5 per cell was read as 0 misidentifications
        message = f"^{field} must be an array of numbers castable to {dtype} without loss"
        with pytest.raises(InvalidInputError, match=message):
            SimulationStats("POVM", 10, 0, np.array(counts), np.array(rates))

    @pytest.mark.parametrize(
        "trials, seed, field",
        [(2.9, 1, "trials_per_state"), ("10", 1, "trials_per_state"),
         (True, 1, "trials_per_state"), (10, 1.7, "seed"), (10, "1", "seed")],
        ids=["float-trials", "string-trials", "bool-trials", "float-seed", "string-seed"],
    )
    def test_non_integer_trials_and_seed_rejected(self, walsh_problem, trials, seed, field):
        # int() would run 2 trials for 2.9 and seed 1 for 1.7
        scheme, _ = optimal_scheme(walsh_problem)
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            simulate(scheme, walsh_problem, trials, seed)

    def test_trials_beyond_one_multinomial_draw_rejected(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        bound = r"trials_per_state must lie in \[1, 2\*\*63 - 1\]"
        with pytest.raises(InvalidInputError, match=bound):
            simulate(scheme, walsh_problem, 2**63, 1)
        counts = simulate(scheme, walsh_problem, 2**63 - 1, 1).counts
        np.testing.assert_array_equal(counts.sum(axis=1), 2**63 - 1)

    def test_seed_outside_sixty_four_bits_rejected(self, walsh_problem):
        # masking to 64 bits would give -1 the draws of 2**64 - 1, and 2**64 those of 0
        scheme, _ = optimal_scheme(walsh_problem)
        for seed in (-1, 2**64):
            with pytest.raises(InvalidInputError, match=r"seed must lie in \[0, 2\*\*64 - 1\]"):
                simulate(scheme, walsh_problem, 10, seed)
        stats = simulate(scheme, walsh_problem, 10, 2**64 - 1)
        assert stats.seed == 2**64 - 1
        np.testing.assert_array_equal(stats.counts.sum(axis=1), 10)
        # the top seed is its own key, not wrapped or truncated to another one
        top = simulate(scheme, walsh_problem, 10**6, 2**64 - 1).counts
        for seed in (0, 2**63 - 1, 2**63):
            assert not np.array_equal(top, simulate(scheme, walsh_problem, 10**6, seed).counts)

    def test_biased_target_fail_rate_within_three_sigma(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        stats = simulate(scheme, walsh_problem, 100_000, 42)
        fail_col = stats.outcomes.index(Outcome.FAIL)
        rate = stats.empirical_rates[0, fail_col]
        sigma = math.sqrt((ROOT3 / 2) * (1 - ROOT3 / 2) / 100_000)
        assert abs(rate - ROOT3 / 2) <= 3 * sigma

    def test_sqm1_never_identifies_anything_as_target(self):
        rng = np.random.default_rng(2)
        from conftest import random_problem

        problem = random_problem(rng, max_dim=5, max_states=5)
        scheme = projective_scheme(problem, SchemeKind.SQM1)
        stats = simulate(scheme, problem, 10_000, 9)
        assert Outcome.IS_TARGET not in stats.outcomes
        assert stats.misidentifications == 0

    def test_hand_built_stats_derive_their_outcomes(self):
        # the count columns are laid out as a scheme's, and the kind is read as its member
        counts = np.array([[0, 3, 7], [2, 8, 0]])

        def stats(kind, table):
            return SimulationStats(kind, 10, 0, table, table / 10)

        three = stats("POVM", counts)
        assert three.scheme_kind is SchemeKind.POVM
        assert three.outcomes == (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
        assert three.misidentifications == 3 + 2
        two = stats(SchemeKind.SQM1, counts[:, 1:])
        assert two.outcomes == (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        assert two.misidentifications == 3
        assert aggregate_failure(two, [0.5, 0.5]) == pytest.approx(0.35)
        for table in (counts[:, :1], np.hstack([counts, counts[:, :1]])):
            with pytest.raises(InvalidInputError, match="2 or 3 outcomes"):
                stats("POVM", table)
        with pytest.raises(InvalidInputError, match="scheme_kind must be one of"):
            stats("BOGUS", counts)
        assert np.array_equal(three.empirical_rates, counts / 10)
        assert np.array_equal(three.z_scores, np.zeros((2, 3)))  # the counts are the rates

    def test_hand_built_stats_need_a_row_per_state(self):
        # misidentifications would index 1-D counts as a (state, outcome) table
        counts = np.array([1, 2, 7])
        with pytest.raises(InvalidInputError, match=r"^counts need shape .* got \(3,\)$"):
            SimulationStats("POVM", 10, 0, counts, counts / 10)

    def test_hand_built_stats_need_rates_of_the_counts_shape(self):
        # z-scores derived from rates of another shape would fail to broadcast
        counts = np.array([[1, 2, 7], [0, 4, 6]])
        for rates in (np.array([0.5]), counts[:1] / 10, counts[:, 1:] / 10):
            with pytest.raises(InvalidInputError, match=r"^analytic_rates of shape .* \(2, 3\)$"):
                SimulationStats("POVM", 10, 0, counts, rates)

    @pytest.mark.parametrize(
        "trials, seed, field",
        [(0, 0, "trials_per_state"), (2.5, 0, "trials_per_state"), (10, -1, "seed"),
         (10, 2**64, "seed")],
        ids=["no-trials", "fractional-trials", "negative-seed", "seed-past-64-bits"],
    )
    def test_hand_built_stats_read_trials_and_seed(self, trials, seed, field):
        # as simulate reads them: 0 trials would divide the empirical rates by zero
        counts = np.array([[0, 3, 7], [2, 8, 0]])
        with pytest.raises(InvalidInputError, match=f"^{field} must"):
            SimulationStats("POVM", trials, seed, counts, counts / 10)
        stats = SimulationStats("POVM", np.int64(10), np.uint64(2**64 - 1), counts, counts / 10)
        assert (type(stats.trials_per_state), type(stats.seed)) == (int, int)

    def test_seeded_counts_are_pinned(self, walsh_problem, figure_point_problem):
        # counts published from these runs must not move with the sampler
        # (recorded from the keyed-Philox sampler: one multinomial draw per
        # state on Philox keyed by (seed, state))
        scheme, _ = optimal_scheme(walsh_problem)
        np.testing.assert_array_equal(
            simulate(scheme, walsh_problem, 100_000, 42).counts,
            [[13319, 0, 86681], [0, 71204, 28796], [0, 71219, 28781], [0, 70861, 29139]],
        )
        sqm2 = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        np.testing.assert_array_equal(
            simulate(sqm2, figure_point_problem, 100_000, 42).counts,
            [[75103, 0, 24897], [0, 0, 100000], [0, 66757, 33243]],
        )

    def test_analytic_rates_are_the_sampled_distribution(self):
        # the target's IS_COMPLEMENT probability 4e-13 is below PROB_TOL:
        # it is never drawn, so it reads analytic 0 and z 0
        tiny = 4e-13
        target = StateVector(np.array([math.sqrt(1 - tiny), math.sqrt(tiny), 0.0]))
        problem = FilteringProblem(
            states=(target, StateVector(np.array([0.0, 1.0, 0.0])),
                    StateVector(np.array([0.0, 0.0, 1.0]))),
            priors=(0.4, 0.3, 0.3),
        )
        scheme = MeasurementScheme(kind=SchemeKind.SQM2, vectors=(np.eye(3)[0], np.eye(3)[2]))
        raw = born(scheme, target.amplitudes)
        assert 0.0 < raw[1] < PROB_TOL
        stats = simulate(scheme, problem, 1000, 11)
        assert stats.counts[0, 1] == 0
        assert stats.analytic_rates[0, 1] == 0.0
        assert stats.z_scores[0, 1] == 0.0
        assert stats.analytic_rates[0, 0] == 1.0

    def test_last_live_outcome_takes_the_rest_of_the_unit_mass(self):
        # what the sampler assigns the last live outcome: every draw at or
        # above the partial sum before it
        probs = np.array([[0.3, 0.0, 0.7 - 1e-13, 4e-13], [1.0 - 3e-16, 0.0, 0.0, 0.0]])
        first, second = (_draw(row, 1, philox(0))[0] for row in probs.tolist())
        assert first[2] == 1.0 - 0.3 and first[3] == 0.0
        assert second == [1.0, 0.0, 0.0, 0.0]

    def test_single_outcome_rows_read_exactly_one_with_zero_z(self):
        # SQM1 fails on the target with Born probability 1 up to rounding; the
        # row has one live outcome, so it reads analytic 1 and z 0 exactly
        problem = boolean_problem(3, 2)
        stats = simulate(projective_scheme(problem, SchemeKind.SQM1), problem, 10**4, 3)
        fail = stats.outcomes.index(Outcome.FAIL)
        assert stats.counts[0, fail] == 10**4
        assert stats.analytic_rates[0, fail] == 1.0
        single = (stats.analytic_rates > 0).sum(axis=1) == 1
        assert np.all(stats.analytic_rates[single].max(axis=1) == 1.0)
        assert np.all(stats.z_scores[single] == 0.0)

    def test_merging_per_state_substreams_reproduces_full_run(self, walsh_problem):
        # per-state partitions merge to exactly the same statistics
        scheme, _ = optimal_scheme(walsh_problem)
        full = simulate(scheme, walsh_problem, 4000, 77)
        assert full.counts.dtype == np.int64
        for i, state in enumerate(walsh_problem.state_matrix):
            part = draw(born(scheme, state), 4000, philox(77, i))
            np.testing.assert_array_equal(full.counts[i], part)

    def test_z_scores_mostly_small_across_seeds(self, figure_point_problem, walsh_problem):
        povm_scheme, _ = optimal_scheme(walsh_problem)
        sqm2_scheme = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        cells = 0
        outliers = 0
        for seed in range(50):
            for scheme, problem in (
                (povm_scheme, walsh_problem),
                (sqm2_scheme, figure_point_problem),
            ):
                stats = simulate(scheme, problem, 5000, seed)
                live = (stats.analytic_rates > 0) & (stats.analytic_rates < 1)
                cells += int(live.sum())
                outliers += int((np.abs(stats.z_scores[live]) > 4).sum())
        assert outliers <= 0.01 * cells


class TestScale:
    def test_trillion_trials_per_state_in_one_draw(self, walsh_problem):
        # each state's counts are one multinomial draw, so 10^12 trials cost
        # what 10 do; at 10^12 the FAIL rate's standard error is 3.4e-7
        scheme, _ = optimal_scheme(walsh_problem)
        started = time.perf_counter()
        stats = simulate(scheme, walsh_problem, 10**12, 42)
        assert time.perf_counter() - started < 1.0
        np.testing.assert_array_equal(stats.counts.sum(axis=1), 10**12)
        assert stats.misidentifications == 0
        fail = stats.outcomes.index(Outcome.FAIL)
        assert abs(stats.empirical_rates[0, fail] - ROOT3 / 2) <= 1e-5

    def test_walsh_export_counts_match_per_state_sampler(self, tmp_path):
        # the n = 8 export has 248 states with one live outcome: each row,
        # those included, is one draw from its own (seed, state) stream
        path = tmp_path / "walsh8.json"
        save_problem(boolean_problem(8, 3), path)
        problem = load_problem(path)
        scheme, _ = optimal_scheme(problem)
        stats = simulate(scheme, problem, 3000, 5)
        single = (stats.analytic_rates > 0).sum(axis=1) == 1
        assert int(single.sum()) == 248
        for i, state in enumerate(problem.state_matrix):
            rates, counts = _draw(born(scheme, state).tolist(), 3000, philox(5, i))
            np.testing.assert_array_equal(stats.analytic_rates[i], rates)
            np.testing.assert_array_equal(stats.counts[i], counts)

    def test_n10_measurement_forms_no_dense_operator(self):
        # D = 1024: one D x D complex matrix is 16 MiB; povm_elements and
        # simulate hold O(N + D) vectors and (N, 3) tables only
        problem = boolean_problem(10, 4)
        report = optimal_filtering(problem)
        model = build_neumark(problem, failure_allocations(problem, report.optimal_q1))
        dense = problem.dimension**2 * 16
        tracemalloc.start()
        try:
            scheme = povm_elements(model)
            stats = simulate(scheme, problem, 1000, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense
        assert stats.misidentifications == 0
        fail = stats.outcomes.index(Outcome.FAIL)
        assert float(problem.priors @ stats.analytic_rates[:, fail]) == pytest.approx(
            report.optimal_Q, abs=1e-9
        )


class TestAggregateFailure:
    def test_analytic_rates_reproduce_optimal_q(self, walsh_problem):
        scheme, report = optimal_scheme(walsh_problem)
        fail_col = scheme.outcomes.index(Outcome.FAIL)
        analytic = [
            born(scheme, s)[fail_col]
            for s in walsh_problem.state_matrix
        ]
        q = float(np.asarray(walsh_problem.priors) @ analytic)
        assert q == pytest.approx(report.optimal_Q, abs=1e-10)

    def test_povm_aggregate_matches_prediction(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        stats = simulate(scheme, walsh_problem, 100_000, 42)
        q = aggregate_failure(stats, walsh_problem.priors)
        assert abs(q - ROOT3 / 4) <= 0.005

    def test_sqm2_aggregate_at_figure_point(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        stats = simulate(scheme, figure_point_problem, 100_000, 42)
        q = aggregate_failure(stats, figure_point_problem.priors)
        assert abs(q - 0.5) <= 0.005

    def test_prior_shape_checked(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        stats = simulate(scheme, walsh_problem, 100, 1)
        with pytest.raises(InvalidInputError):
            aggregate_failure(stats, [0.5, 0.5])
