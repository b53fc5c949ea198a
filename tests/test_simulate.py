import math
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
    StateVector,
    aggregate_failure,
    boolean_problem,
    build_neumark,
    failure_allocations,
    load_problem,
    optimal_filtering,
    outcome_distribution,
    povm_elements,
    projective_scheme,
    save_problem,
    simulate,
)
from qfilter.simulate import _CHUNK, _draw_counts, _sampled, _substream
from qfilter.tolerances import PROB_TOL

ROOT3 = math.sqrt(3.0)


def optimal_scheme(problem):
    report = optimal_filtering(problem)
    allocation = failure_allocations(problem, report.optimal_q1)
    return povm_elements(build_neumark(problem, allocation)), report


class TestOutcomeDistribution:
    def test_sqm1_on_target_always_fails(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM1)
        dist = outcome_distribution(scheme, figure_point_problem.target)
        assert dist.probability(Outcome.FAIL) == pytest.approx(1.0, abs=1e-12)
        assert dist.probability(Outcome.IS_COMPLEMENT) == pytest.approx(0.0, abs=1e-12)

    def test_povm_on_biased_target(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        dist = outcome_distribution(scheme, walsh_problem.target)
        assert dist.probability(Outcome.IS_TARGET) == pytest.approx(1 - ROOT3 / 2, abs=1e-10)
        assert dist.probability(Outcome.FAIL) == pytest.approx(ROOT3 / 2, abs=1e-10)
        assert dist.probability(Outcome.IS_COMPLEMENT) <= 1e-10

    def test_povm_on_balanced_basis_vector(self, walsh_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        dist = outcome_distribution(scheme, walsh_problem.states[1])
        assert dist.probability(Outcome.FAIL) == pytest.approx(1 / (2 * ROOT3), abs=1e-10)
        assert dist.probability(Outcome.IS_TARGET) <= 1e-10
        assert dist.probability(Outcome.IS_COMPLEMENT) == pytest.approx(
            1 - 1 / (2 * ROOT3), abs=1e-10
        )

    def test_dimension_mismatch_rejected(self, walsh_problem, symmetric_pair_problem):
        scheme, _ = optimal_scheme(walsh_problem)
        with pytest.raises(InvalidInputError, match="dimension"):
            outcome_distribution(scheme, StateVector(np.array([1.0, 0.0])))
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
        scheme = projective_scheme(boolean_problem(2, 2), SchemeKind.SQM1)
        with pytest.raises(InvalidInputError, match=message):
            outcome_distribution(scheme, raw)


class TestSampling:
    def test_zero_probability_outcomes_never_drawn(self):
        probs = np.array([0.3, 0.0, 0.7])
        counts = _draw_counts(_sampled(probs), 50_000, 123)
        assert counts[1] == 0
        assert counts.sum() == 50_000

    def test_tiny_probabilities_are_exact_zeros(self):
        probs = np.array([0.5, 1e-13, 0.5 - 1e-13])
        counts = _draw_counts(_sampled(probs), 20_000, 7)
        assert counts[1] == 0

    def test_residual_mass_goes_to_last_live_outcome(self):
        # total slightly below 1: every draw must still land on a live outcome
        probs = np.array([0.5, 0.5 - 1e-13, 0.0])
        counts = _draw_counts(_sampled(probs), 10_000, 99)
        assert counts[2] == 0


def reference_counts(probs, trials, stream_seed):
    """The inverse-CDF sampler written out draw by draw: locate every uniform
    among the partial sums, clamp residual mass onto the last live outcome and
    tally."""
    p = np.where(probs < PROB_TOL, 0.0, probs)
    u = np.random.default_rng(stream_seed).random(trials)
    idx = np.searchsorted(np.cumsum(p), u, side="right")
    np.minimum(idx, np.flatnonzero(p)[-1], out=idx)
    return np.bincount(idx, minlength=p.size)


@st.composite
def sampled_distributions(draw):
    """Probability vectors with exact zeros, entries below PROB_TOL, zero
    trailing entries and totals within 1e-12 of 1."""
    kinds = draw(st.lists(st.sampled_from(["live", "zero", "tiny"]), min_size=1, max_size=7))
    kinds[draw(st.integers(0, len(kinds) - 1))] = "live"
    kinds += ["zero"] * draw(st.integers(0, 2))
    weights = np.array(
        [draw(st.floats(0.01, 1.0)) if kind == "live" else 0.0 for kind in kinds]
    )
    tiny = np.array(
        [draw(st.floats(1e-18, 0.999 * PROB_TOL)) if kind == "tiny" else 0.0 for kind in kinds]
    )
    drift = draw(st.sampled_from([0.0, -1e-12, -3e-13, 3e-13, 1e-12]))
    live_total = 1.0 + drift - tiny.sum()
    return weights / weights.sum() * live_total + tiny


class TestSamplerOracle:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(
        probs=sampled_distributions(),
        trials=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 10**5 + 3]),
        seed=st.integers(0, 2**64 - 1),
        state_index=st.none() | st.integers(0, 10**6),
    )
    def test_counts_match_draw_by_draw_reference(self, probs, trials, seed, state_index):
        stream = seed if state_index is None else _substream(seed, state_index)
        counts = _draw_counts(_sampled(probs), trials, stream)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, reference_counts(probs, trials, stream))

    def test_memory_does_not_grow_with_trials(self):
        probs = np.array([0.3, 0.2, 0.5])
        tracemalloc.start()
        try:
            counts = _draw_counts(_sampled(probs), 10**7, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.sum() == 10**7
        assert peak < 1_000_000


class TestSubstreams:
    def test_seed_and_state_do_not_alias(self):
        # (seed 0, state 1) and (seed 1, state 0) must be different streams
        probs = np.array([0.25, 0.25, 0.25, 0.25])
        a = _draw_counts(_sampled(probs), 10_000, _substream(0, 1))
        b = _draw_counts(_sampled(probs), 10_000, _substream(1, 0))
        assert not np.array_equal(a, b)


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

    def test_seeded_counts_are_pinned(self, walsh_problem, figure_point_problem):
        # counts published from these runs must not move with the sampler
        scheme, _ = optimal_scheme(walsh_problem)
        np.testing.assert_array_equal(
            simulate(scheme, walsh_problem, 100_000, 42).counts,
            [[13348, 0, 86652], [0, 71189, 28811], [0, 71351, 28649], [0, 71184, 28816]],
        )
        sqm2 = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        np.testing.assert_array_equal(
            simulate(sqm2, figure_point_problem, 100_000, 42).counts,
            [[75035, 0, 24965], [0, 0, 100000], [0, 66890, 33110]],
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
        scheme = MeasurementScheme(
            kind=SchemeKind.SQM2,
            outcomes=(Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL),
            vectors=(np.eye(3)[0], np.eye(3)[2]),
        )
        raw = outcome_distribution(scheme, target).probabilities
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
        p = _sampled(probs)
        assert p[0, 2] == 1.0 - 0.3 and p[0, 3] == 0.0
        np.testing.assert_array_equal(p[1], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(_sampled(probs[0]), p[0])

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
        for i, state in enumerate(walsh_problem.states):
            dist = outcome_distribution(scheme, state)
            part = _draw_counts(_sampled(dist.probabilities), 4000, _substream(77, i))
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
    def test_walsh_export_counts_match_per_state_sampler(self, tmp_path):
        # the n = 8 export has 248 states with one live outcome: they take
        # every trial without a stream, and every other row is its own draw
        path = tmp_path / "walsh8.json"
        save_problem(boolean_problem(8, 3), path)
        problem = load_problem(path)
        scheme, _ = optimal_scheme(problem)
        stats = simulate(scheme, problem, 3000, 5)
        single = (stats.analytic_rates > 0).sum(axis=1) == 1
        assert int(single.sum()) == 248
        for i, state in enumerate(problem.states):
            probs = outcome_distribution(scheme, state).probabilities
            np.testing.assert_array_equal(stats.analytic_rates[i], _sampled(probs))
            np.testing.assert_array_equal(
                stats.counts[i], _draw_counts(_sampled(probs), 3000, _substream(5, i))
            )

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
            outcome_distribution(scheme, s).probabilities[fail_col]
            for s in walsh_problem.states
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
