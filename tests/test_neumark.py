import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from qfilter import (
    Decomposition,
    DegenerateDecompositionError,
    FailureAllocation,
    FilteringProblem,
    InfeasibleError,
    InvalidInputError,
    MeasurementScheme,
    NumericalError,
    Outcome,
    SchemeKind,
    StateVector,
    boolean_problem,
    build_neumark,
    decompose_target,
    failure_allocations,
    optimal_filtering,
    povm_elements,
    projective_scheme,
    success_gram,
)
from qfilter.neumark import _largest_gram_eigenvalue
from qfilter.tolerances import PROB_TOL
from conftest import band_problem, random_problem

ROOT3 = math.sqrt(3.0)


def born(operator, state_row):
    return float(np.real(state_row.conj() @ operator @ state_row))


def tiny_overlap_pair():
    """psi_2 = (1e-7, sqrt(1 - 1e-14)): f = 1e-14 is below PROB_TOL, the overlap 1e-7 is not."""
    return FilteringProblem(
        states=(
            StateVector(np.array([1.0, 0.0])),
            StateVector(np.array([1e-7, math.sqrt(1.0 - 1e-14)])),
        ),
        priors=(0.5, 0.5),
    )


def build_optimal_scheme(problem):
    report = optimal_filtering(problem)
    allocation = failure_allocations(problem, report.optimal_q1)
    model = build_neumark(problem, allocation)
    return model, povm_elements(model), report


class TestFailureAllocations:
    def test_orthogonal_complement_zero_weights(self, orthogonal_pair_problem):
        alloc = failure_allocations(orthogonal_pair_problem, 0.0)
        np.testing.assert_allclose(alloc.failure_probs, 0.0)

    def test_walsh_optimum_weights(self, walsh_problem):
        alloc = failure_allocations(walsh_problem, ROOT3 / 2)
        np.testing.assert_allclose(alloc.failure_probs[1:], 1 / (2 * ROOT3), atol=1e-12)

    def test_real_positive_overlaps_have_zero_phase(self, figure_point_problem):
        alloc = failure_allocations(figure_point_problem, 0.5)
        np.testing.assert_allclose(alloc.phases, 0.0, atol=1e-15)

    def test_negative_overlap_gets_pi_phase(self, walsh_problem):
        alloc = failure_allocations(walsh_problem, ROOT3 / 2)
        np.testing.assert_allclose(np.abs(alloc.phases[1:]).max(), math.pi, atol=1e-12)

    def test_q1_outside_range_rejected(self, walsh_problem):
        with pytest.raises(InfeasibleError, match="range"):
            failure_allocations(walsh_problem, 0.5)  # below f = 0.75
        with pytest.raises(InfeasibleError, match="range"):
            failure_allocations(walsh_problem, 1.1)

    @pytest.mark.parametrize(
        "q1, message",
        [("0.9", "real numbers"), (0.9 + 0.1j, "real numbers"), ([0.9], "one number"),
         (None, "real numbers"), (True, "real numbers")],
        ids=["string", "complex", "list", "none", "bool"],
    )
    def test_q1_read_losslessly(self, walsh_problem, q1, message):
        # float() would read "0.9" as 0.9 and raise a bare TypeError for the others
        with pytest.raises(InvalidInputError, match=f"^target failure weight q1 must be {message}"):
            failure_allocations(walsh_problem, q1)

    def test_zero_q1_is_lifted_to_a_positive_f(self):
        # q1 = 0 lies within PROB_TOL of f = 1e-14, and is lifted to f
        alloc = failure_allocations(tiny_overlap_pair(), 0.0)
        np.testing.assert_allclose(alloc.failure_probs, [1e-14, 1.0], rtol=1e-6)

    def test_zero_q1_with_nonorthogonal_complement_rejected(self):
        # q1 = 0 stays 0 only when f reads exactly 0, which a complement
        # overlap above PROB_TOL contradicts; the cached split is set to f = 0
        problem = tiny_overlap_pair()
        target = problem.state_matrix[0]
        vars(problem)["_decomposition"] = Decomposition(
            parallel=np.zeros_like(target), perpendicular=target, parallel_norm_sq=0.0
        )
        with pytest.raises(InfeasibleError, match=r"overlap 1\.000e-07 exceeds PROB_TOL"):
            failure_allocations(problem, 0.0)

    def test_optimal_allocation_is_kept_and_bit_equal_to_a_fresh_one(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            problem = random_problem(rng)
            report = optimal_filtering(problem)
            kept = failure_allocations(problem, report.optimal_q1)
            assert problem._allocation == (report.optimal_q1, kept)
            twin = FilteringProblem(states=problem.state_matrix, priors=problem.priors)
            fresh = failure_allocations(twin, report.optimal_q1)
            for field in ("failure_probs", "phases"):
                assert getattr(kept, field).tobytes() == getattr(fresh, field).tobytes()
            np.testing.assert_array_equal(kept.failure_probs, report.per_state_failure)

    def test_q1_range_checked_with_the_slot_filled(self, walsh_problem):
        kept = failure_allocations(walsh_problem, optimal_filtering(walsh_problem).optimal_q1)
        for q1 in (0.5, 1.1):  # below f = 0.75, above 1
            with pytest.raises(InfeasibleError, match="range"):
                failure_allocations(walsh_problem, q1)
        assert walsh_problem._allocation[1] is kept

    def test_each_q1_gets_its_own_weights_in_one_slot(self, walsh_problem):
        # a new problem: the fixture's may carry attributes from earlier tests
        problem = FilteringProblem(states=walsh_problem.state_matrix, priors=walsh_problem.priors)
        decompose_target(problem), problem._overlaps  # fill both caches
        attributes = set(vars(problem))
        optimum = failure_allocations(problem, ROOT3 / 2)
        boundary = failure_allocations(problem, 1.0)
        assert boundary.q1 == 1.0
        np.testing.assert_allclose(boundary.failure_probs[1:], 0.25, atol=1e-12)
        # one attribute holds the pair: no second record, and no key stored apart
        assert set(vars(problem)) == attributes
        assert problem._allocation == (1.0, boundary)
        again = failure_allocations(problem, ROOT3 / 2)
        assert again is not optimum
        assert again.failure_probs.tobytes() == optimum.failure_probs.tobytes()
        assert problem._allocation == (ROOT3 / 2, again)

    def test_concurrent_callers_get_the_record_of_their_q1(self):
        # more threads than cores at a short switch interval: a slot whose key
        # and record were stored apart would hand one q1's weights to the other
        problem = random_problem(np.random.default_rng(3))
        f = decompose_target(problem).parallel_norm_sq
        q1s = (f + 0.3 * (1.0 - f), 1.0)
        twin = FilteringProblem(states=problem.state_matrix, priors=problem.priors)
        expected = {q1: failure_allocations(twin, q1).failure_probs.tobytes() for q1 in q1s}
        wrong = []

        def worker(offset):
            for i in range(1000):
                q1 = q1s[(i + offset) % 2]
                allocation = failure_allocations(problem, q1)
                if allocation.failure_probs.tobytes() != expected[q1]:
                    wrong.append(q1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        key, record = problem._allocation
        assert record.failure_probs.tobytes() == expected[key]

    def test_q1_is_the_target_failure_weight(self, figure_point_problem):
        alloc = failure_allocations(figure_point_problem, 0.5)
        assert alloc.q1 == alloc.failure_probs[0] == 0.5
        with pytest.raises(TypeError):
            FailureAllocation(q1=0.9, failure_probs=[0.2, 0.3], phases=[0.0, 0.0])

    def test_caller_arrays_are_copied(self):
        q, phases = np.array([0.2, 0.3]), np.zeros(2)
        alloc = FailureAllocation(failure_probs=q, phases=phases)
        assert q.flags.writeable and phases.flags.writeable
        q[0] = 0.9
        assert alloc.q1 == 0.2
        assert not alloc.failure_probs.flags.writeable

    @pytest.mark.parametrize(
        "q, phases, message",
        [
            ([0.6], [0.0], "length 1 does not fit 2 states"),
            ([0.6, 0.6, 0.6], [0.0, 0.0, 0.0], "length 3 does not fit 2 states"),
            ([0.6, 0.6], [0.0], r"shape \(2,\) and phases of shape \(1,\)"),
            ([-0.1, 0.6], [0.0, 0.0], r"weight -0\.1 must lie in \[0, 1\]"),
            ([np.nan, 0.6], [0.0, 0.0], r"weight nan must lie in \[0, 1\]"),
            ([0.6, 0.6], [0.0, np.inf], "phase inf must be finite"),
        ],
        ids=["one-weight", "three-weights", "unequal-shapes", "negative", "nan", "inf-phase"],
    )
    def test_malformed_allocation_rejected(self, q, phases, message):
        problem = FilteringProblem(
            states=(StateVector(np.array([1.0, 0.0])), StateVector(np.array([0.6, 0.8]))),
            priors=(0.5, 0.5),
        )
        with pytest.raises(InvalidInputError, match=message):
            build_neumark(problem, FailureAllocation(failure_probs=q, phases=phases))


class TestSuccessGram:
    def test_orthonormal_inputs_identity(self, orthogonal_pair_problem):
        alloc = failure_allocations(orthogonal_pair_problem, 0.0)
        sg = success_gram(orthogonal_pair_problem, alloc)
        np.testing.assert_allclose(sg.matrix, np.eye(2), atol=1e-15)
        assert sg.feasible

    def test_product_rule_cancels_off_diagonal(self, symmetric_pair_problem):
        # overlap 0.6 with q1 = q2 = 0.6 zeroes the off-diagonal exactly
        alloc = failure_allocations(symmetric_pair_problem, 0.6)
        sg = success_gram(symmetric_pair_problem, alloc)
        np.testing.assert_allclose(sg.matrix, 0.4 * np.eye(2), atol=1e-14)

    def test_walsh_optimum_is_feasible(self, walsh_problem):
        alloc = failure_allocations(walsh_problem, ROOT3 / 2)
        sg = success_gram(walsh_problem, alloc)
        assert sg.feasible
        assert sg.min_eigenvalue >= -1e-12

    def test_first_row_vanishes(self, figure_point_problem):
        alloc = failure_allocations(figure_point_problem, 0.5)
        sg = success_gram(figure_point_problem, alloc)
        np.testing.assert_allclose(sg.matrix[0, 1:], 0.0, atol=1e-14)
        np.testing.assert_allclose(sg.matrix[1:, 0], 0.0, atol=1e-14)


class TestBuildNeumark:
    def test_orthogonal_pair_no_failure_branch(self, orthogonal_pair_problem):
        alloc = failure_allocations(orthogonal_pair_problem, 0.0)
        model = build_neumark(orthogonal_pair_problem, alloc)
        np.testing.assert_allclose(model.failure_amplitudes, 0.0, atol=1e-15)
        assert np.abs(
            model.unitary.conj().T @ model.unitary - np.eye(3)
        ).max() <= 1e-10

    def test_symmetric_pair_structure(self, symmetric_pair_problem):
        alloc = failure_allocations(symmetric_pair_problem, 0.6)
        model = build_neumark(symmetric_pair_problem, alloc)
        norms = np.linalg.norm(model.success_outputs, axis=1)
        np.testing.assert_allclose(norms**2, 0.4, atol=1e-12)
        np.testing.assert_allclose(np.abs(model.failure_amplitudes), math.sqrt(0.6), atol=1e-12)
        # success vectors orthogonal (the unambiguity requirement)
        cross = model.success_outputs[0].conj() @ model.success_outputs[1]
        assert abs(cross) <= 1e-12
        # the unitary reproduces the prescribed output structure
        embedded = np.zeros((2, 3), dtype=complex)
        embedded[:, :2] = symmetric_pair_problem.state_matrix
        outputs = (model.unitary @ embedded.T).T
        np.testing.assert_allclose(outputs[:, :2], model.success_outputs, atol=1e-10)
        np.testing.assert_allclose(outputs[:, 2], model.failure_amplitudes, atol=1e-10)

    def test_walsh_optimum_unitary(self, walsh_problem):
        model, _, _ = build_optimal_scheme(walsh_problem)
        assert model.unitary.shape == (5, 5)
        assert np.abs(
            model.unitary.conj().T @ model.unitary - np.eye(5)
        ).max() <= 1e-10

    def test_gram_preservation(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            problem = random_problem(rng, max_dim=8, max_states=8)
            model, _, _ = build_optimal_scheme(problem)
            outs = np.hstack(
                [model.success_outputs, model.failure_amplitudes[:, None]]
            )
            gram_in = problem.state_matrix.conj() @ problem.state_matrix.T
            gram_out = outs.conj() @ outs.T
            assert np.abs(gram_out - gram_in).max() <= 1e-9

    def test_duplicate_complement_states_accepted(self):
        # dependent complement states with consistent induced outputs
        psi1 = StateVector(np.array([1.0, 0.0], dtype=complex))
        psi2 = StateVector(np.array([0.6, 0.8], dtype=complex))
        problem = FilteringProblem(
            states=(psi1, psi2, psi2), priors=(0.5, 0.25, 0.25)
        )
        model, scheme, report = build_optimal_scheme(problem)
        assert np.abs(
            model.unitary.conj().T @ model.unitary - np.eye(3)
        ).max() <= 1e-10

    def test_inconsistent_dependency_rejected(self):
        # identical complement states prescribed different failure amplitudes:
        # the success Gram stays inside the PSD tolerance but no unitary exists,
        # and conj(a_1) a_3 = sqrt(2e-10) breaks the product rule <psi_1|psi_3> = 0
        problem = FilteringProblem(
            states=(
                StateVector(np.array([1.0, 0.0], dtype=complex)),
                StateVector(np.array([0.0, 1.0], dtype=complex)),
                StateVector(np.array([0.0, 1.0], dtype=complex)),
            ),
            priors=(0.5, 0.25, 0.25),
        )
        crafted = FailureAllocation(
            failure_probs=np.array([0.5, 0.0, 4e-10]),
            phases=np.zeros(3),
        )
        assert success_gram(problem, crafted).feasible
        with pytest.raises(InfeasibleError, match=r"product rule .* by 1\.414e-05"):
            build_neumark(problem, crafted)

    def test_product_rule_breach_rejected(self, symmetric_pair_problem):
        # q = (0.3, 0.3) passes the success-Gram verdict (eigenvalues 1.0 and
        # 0.4), but conj(a_1) a_2 = 0.3 != <psi_1|psi_2> = 0.6, so the
        # complement state would be identified as the target
        crafted = FailureAllocation(failure_probs=[0.3, 0.3], phases=[0.0, 0.0])
        sg = success_gram(symmetric_pair_problem, crafted)
        assert sg.feasible
        np.testing.assert_allclose(np.linalg.eigvalsh(sg.matrix), [0.4, 1.0], atol=1e-12)
        with pytest.raises(
            InfeasibleError, match=r"product rule .* by 3\.000e-01 > DEPENDENCY_TOL"
        ):
            build_neumark(symmetric_pair_problem, crafted)

    def test_nonpositive_success_gram_rejected(self):
        crafted = FailureAllocation(failure_probs=[0.9, 0.9], phases=[0.0, 0.0])
        with pytest.raises(InfeasibleError, match=r"eigenvalue -8\.000e-01 < -PSD_TOL"):
            build_neumark(tiny_overlap_pair(), crafted)

    def test_failure_row_missing_a_cut_direction_rejected(self):
        # the span cut at RANK_TOL drops the d = 1e-8 direction, so f reads ~0 and
        # the closed-form row misses the complement amplitudes by ~2.1e-8. The
        # weights are those of q1 = 0.05 under the product rule, built by hand:
        # failure_allocations itself rejects the split before any row is built.
        problem = band_problem(1e-8)
        allocation = FailureAllocation(failure_probs=[0.05, 1e-16 / 0.05, 0.0], phases=[0.0] * 3)
        message = r"failure row misses M u = a by \d\.\d{3}e-08 > DEPENDENCY_TOL"
        with pytest.raises(NumericalError, match=message):
            build_neumark(problem, allocation)

    def test_failure_row_matches_closed_form(self):
        # for q1 in [f, 1] and f < 1 the ancilla row is
        # u = conj(psi_par / sqrt(q1) + (q1 - f) / (sqrt(q1) (1 - f)) psi_perp), so
        # |u|^2 = f / q1 + (q1 - f)^2 / (q1 (1 - f)), which is at most 1
        rng = np.random.default_rng(31)
        built = 0
        for _ in range(300):
            problem = random_problem(rng)
            if problem.n_states > problem.dimension:
                continue  # the complement spans the space: f = 1
            d = problem.dimension
            dec = decompose_target(problem)
            f = dec.parallel_norm_sq
            for q1 in (f, 0.5 * (f + 1.0), 1.0, optimal_filtering(problem).optimal_q1):
                allocation = failure_allocations(problem, q1)
                q1 = allocation.q1
                assert q1 > 0.0 and f < 1.0
                u = build_neumark(problem, allocation).unitary[d, :d]
                scale = (q1 - f) / (math.sqrt(q1) * (1.0 - f))
                expected = np.conj(dec.parallel / math.sqrt(q1) + scale * dec.perpendicular)
                np.testing.assert_allclose(u, expected, rtol=0.0, atol=1e-12)
                norm_sq = float(np.vdot(u, u).real)
                closed = f / q1 + (q1 - f) ** 2 / (q1 * (1.0 - f))
                assert norm_sq == pytest.approx(closed, abs=1e-12)
                assert norm_sq <= 1.0 + 1e-12
                built += 1
        assert built > 400


def assert_minimum_norm_row(problem, allocation):
    """The ancilla row equals lstsq's minimum-norm solution of M u = a."""
    d = problem.dimension
    u = build_neumark(problem, allocation).unitary[d, :d]
    amplitudes = np.sqrt(allocation.failure_probs) * np.exp(1j * allocation.phases)
    oracle = np.linalg.lstsq(problem.state_matrix, amplitudes, rcond=None)[0]
    np.testing.assert_allclose(u, oracle, rtol=0.0, atol=1e-12)


class TestFailureRowOracle:
    def test_random_ensembles_tall_and_wide(self):
        rng = np.random.default_rng(41)
        tall = 0
        for shape in ({"max_dim": 16}, {"max_dim": 4, "min_states": 6, "max_states": 12}):
            for _ in range(100):
                problem = random_problem(rng, **shape)
                tall += problem.n_states > problem.dimension
                f = decompose_target(problem).parallel_norm_sq
                for q1 in (f, 0.5 * (f + 1.0), 1.0, optimal_filtering(problem).optimal_q1):
                    assert_minimum_norm_row(problem, failure_allocations(problem, q1))
        assert tall >= 100

    def test_duplicate_complement_states(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            base = random_problem(rng, max_dim=6, max_states=5)
            rows = base.state_matrix
            problem = FilteringProblem(
                states=tuple(np.vstack([rows, rows[1:], rows[1:2]])),
                priors=np.full(2 * len(rows), 1.0 / (2 * len(rows))),
            )
            assert np.linalg.matrix_rank(problem.state_matrix) < problem.n_states
            report = optimal_filtering(problem)
            assert_minimum_norm_row(problem, failure_allocations(problem, report.optimal_q1))

    def test_shifted_phases_keep_the_product_rule(self):
        # adding one phase to every theta_i keeps conj(a_1) a_i, so theta_1 != 0
        # is allowed, and u turns by e^{i theta_1}
        rng = np.random.default_rng(47)
        for shift in (0.7, -2.0, math.pi):
            problem = random_problem(rng, max_dim=8, max_states=8)
            d = problem.dimension
            allocation = failure_allocations(problem, optimal_filtering(problem).optimal_q1)
            shifted = FailureAllocation(
                failure_probs=allocation.failure_probs, phases=allocation.phases + shift
            )
            assert shifted.phases[0] != 0.0
            assert_minimum_norm_row(problem, shifted)
            u = build_neumark(problem, allocation).unitary[d, :d]
            turned = build_neumark(problem, shifted).unitary[d, :d]
            np.testing.assert_allclose(turned, np.exp(1j * shift) * u, rtol=0.0, atol=1e-14)

    def test_no_least_squares_solve(self, monkeypatch, walsh_problem):
        def refuse(*args, **kwargs):
            raise AssertionError("build_neumark called np.linalg.lstsq")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        model, scheme, _ = build_optimal_scheme(walsh_problem)
        assert Outcome.IS_TARGET in scheme.outcomes
        assert model.unitary.shape == (5, 5)

    def test_zero_target_weight_with_complement_weight(self, orthogonal_pair_problem):
        # a_1 = 0 leaves a_2 free; the closed-form row is 0 there, so the row
        # is the minimum-norm solution over the complement states
        allocation = FailureAllocation([0.0, 0.5], [0.0, 0.0])
        assert_minimum_norm_row(orthogonal_pair_problem, allocation)
        scheme = povm_elements(build_neumark(orthogonal_pair_problem, allocation))
        rates = scheme.born_probabilities(orthogonal_pair_problem.state_matrix)
        np.testing.assert_allclose(
            rates[:, scheme.outcomes.index(Outcome.FAIL)], [0.0, 0.5], rtol=0.0, atol=1e-15
        )


class TestPovmElements:
    def test_orthogonal_pair_elements(self, orthogonal_pair_problem):
        model, scheme, _ = build_optimal_scheme(orthogonal_pair_problem)
        target = orthogonal_pair_problem.state_matrix[0]
        expected = np.outer(target, target.conj())
        np.testing.assert_allclose(
            scheme.operator(Outcome.IS_TARGET), expected, atol=1e-10
        )
        assert np.abs(scheme.operator(Outcome.FAIL)).max() <= 1e-12

    def test_symmetric_pair_failure_element(self, symmetric_pair_problem):
        model, scheme, _ = build_optimal_scheme(symmetric_pair_problem)
        fail = scheme.operator(Outcome.FAIL)
        for row in symmetric_pair_problem.state_matrix:
            assert born(fail, row) == pytest.approx(0.6, abs=1e-10)
        # rank-1 along the symmetric overlap direction
        evals, evecs = np.linalg.eigh(fail)
        assert evals[-2] <= 1e-10
        principal = evecs[:, -1]
        symmetric = symmetric_pair_problem.state_matrix.sum(axis=0)
        symmetric /= np.linalg.norm(symmetric)
        assert abs(abs(principal.conj() @ symmetric) - 1.0) <= 1e-10

    def test_walsh_failure_expectation(self, walsh_problem):
        _, scheme, report = build_optimal_scheme(walsh_problem)
        fail = scheme.operator(Outcome.FAIL)
        target = walsh_problem.state_matrix[0]
        assert born(fail, target) == pytest.approx(ROOT3 / 2, abs=1e-10)

    def test_completeness(self, walsh_problem):
        _, scheme, _ = build_optimal_scheme(walsh_problem)
        total = sum(scheme.operators)
        assert np.abs(total - np.eye(scheme.acting_dimension)).max() <= 1e-10
        assert scheme.outcomes == (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)

    def test_target_always_failing_omits_conclusive_outcome(self, walsh_problem):
        alloc = failure_allocations(walsh_problem, 1.0)  # q1 = 1: target never succeeds
        model = build_neumark(walsh_problem, alloc)
        scheme = povm_elements(model)
        assert scheme.outcomes == (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        assert len(scheme.vectors) == 1

    def test_whole_failure_weight_window_is_realizable(self):
        # both projective boundaries and the interior point admit a unitary
        rng = np.random.default_rng(29)
        for _ in range(8):
            problem = random_problem(rng, max_dim=8, max_states=8)
            f = decompose_target(problem).parallel_norm_sq
            for q1 in (f, 0.5 * (f + 1.0), 1.0):
                allocation = failure_allocations(problem, q1)
                model = build_neumark(problem, allocation)
                scheme = povm_elements(model)
                fail = scheme.operator(Outcome.FAIL)
                for i, row in enumerate(problem.state_matrix):
                    assert born(fail, row) == pytest.approx(
                        allocation.failure_probs[i], abs=1e-9
                    )

    def test_unambiguity_and_analytic_agreement(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            problem = random_problem(rng, max_dim=6, max_states=6)
            model, scheme, report = build_optimal_scheme(problem)
            fail = scheme.operator(Outcome.FAIL)
            comp = scheme.operator(Outcome.IS_COMPLEMENT)
            rows = problem.state_matrix
            if Outcome.IS_TARGET in scheme.outcomes:
                target_op = scheme.operator(Outcome.IS_TARGET)
                for row in rows[1:]:
                    assert born(target_op, row) <= 1e-10
            assert born(comp, rows[0]) <= 1e-10
            for i, row in enumerate(rows):
                assert born(fail, row) == pytest.approx(
                    report.per_state_failure[i], abs=1e-9
                )
            evals = np.sort(np.linalg.eigvalsh(fail))
            assert evals[-2] <= 1e-10 if len(evals) > 1 else True


class TestProjectiveSchemes:
    def test_sqm1_target_always_fails(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM1)
        assert scheme.outcomes == (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        target = figure_point_problem.state_matrix[0]
        assert born(scheme.operator(Outcome.FAIL), target) == pytest.approx(1.0, abs=1e-12)

    def test_sqm2_target_probabilities(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        assert scheme.outcomes == (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
        target = figure_point_problem.state_matrix[0]
        assert born(scheme.operator(Outcome.IS_TARGET), target) == pytest.approx(
            0.75, abs=1e-12
        )
        assert born(scheme.operator(Outcome.FAIL), target) == pytest.approx(0.25, abs=1e-12)

    def test_sqm2_complement_failure_rates(self, figure_point_problem):
        # failure probability |<psi1|v>|^2 / f for complement states
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        fail = scheme.operator(Outcome.FAIL)
        rows = figure_point_problem.state_matrix
        overlaps_sq = np.abs(rows[1:] @ rows[0].conj()) ** 2
        for row, osq in zip(rows[1:], overlaps_sq):
            assert born(fail, row) == pytest.approx(osq / 0.25, abs=1e-12)

    def test_sqm2_average_failure_matches_closed_form(self, figure_point_problem):
        scheme = projective_scheme(figure_point_problem, SchemeKind.SQM2)
        fail = scheme.operator(Outcome.FAIL)
        rows = figure_point_problem.state_matrix
        q_avg = sum(
            eta * born(fail, row)
            for eta, row in zip(figure_point_problem.priors, rows)
        )
        assert q_avg == pytest.approx(0.5, abs=1e-12)

    def test_sqm2_degenerate_contained_target(self, contained_target_problem):
        with pytest.raises(DegenerateDecompositionError):
            projective_scheme(contained_target_problem, SchemeKind.SQM2)

    def test_sqm2_perfect_discrimination(self, orthogonal_pair_problem):
        # f = 0: the FAIL vector is the zero vector, and IS_TARGET is psi_1
        scheme = projective_scheme(orthogonal_pair_problem, SchemeKind.SQM2)
        assert not scheme.vectors[1].any()
        assert scheme.outcomes == (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
        target = orthogonal_pair_problem.state_matrix[0]
        assert born(scheme.operator(Outcome.IS_TARGET), target) == pytest.approx(
            1.0, abs=1e-12
        )
        assert born(scheme.operator(Outcome.FAIL), target) == 0.0

    def test_sqm2_tiny_parallel_part_is_not_perfect(self):
        # f = 1e-13 is positive, so SQM2 measures along psi_par and fails on
        # psi_2 every time: Q = (f + 1) / 2. The report's S / f is ill-conditioned
        # here (q_sqm2 reads 0.4999999994), so Q is checked against 0.5 itself.
        f = 1e-13
        problem = FilteringProblem(
            states=([1.0, 0.0], [math.sqrt(f), math.sqrt(1.0 - f)]), priors=(0.5, 0.5)
        )
        scheme = projective_scheme(problem, SchemeKind.SQM2)
        fail = scheme.born_probabilities(problem.state_matrix)[:, -1]
        assert float(problem.priors @ fail) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("d", [5e-9, 9e-9, 1.3e-8])
    def test_sqm2_rank_cut_band_raises_the_reports_error(self, d):
        # the span cut drops the direction d carries, so f reads ~1e-17 where it is 1
        with pytest.raises(NumericalError, match=r"DEPENDENCY_TOL .* RANK_TOL"):
            projective_scheme(band_problem(d), SchemeKind.SQM2)

    def test_sqm2_tiny_f_span_leak_names_q1_and_both_causes(self):
        # A well-conditioned complement (singular values [1, 1]) cuts nothing, but
        # f ~ 2e-18 is below the split's rounding: the leak divided by sqrt(f)
        # is ~6e-8, so the message must not blame the span cut alone.
        eps = 1e-9
        c = math.sqrt(1.0 - eps * eps)
        problem = FilteringProblem(
            states=([1.0, 0.0, 0.0], [eps, c, 0.0], [eps, 0.0, c]), priors=(0.4, 0.3, 0.3)
        )
        np.testing.assert_allclose(
            np.linalg.svd(problem.state_matrix[1:], compute_uv=False), [1.0, 1.0]
        )
        q1 = decompose_target(problem).parallel_norm_sq
        with pytest.raises(NumericalError, match=r"keep \S+ > DEPENDENCY_TOL .* RANK_TOL") as err:
            projective_scheme(problem, SchemeKind.SQM2)
        message = str(err.value)
        assert f"q1 = {q1!r}" in message
        assert "dropped a direction" in message and "too small for the split's rounding" in message

    def test_sqm2_near_contained_target_keeps_parts_orthogonal(self):
        # Targets within ~1e-6 of the complement span: the perpendicular part
        # is short, so its rounding must not leave it overlapping the parallel
        # part (which showed as a remainder eigenvalue below -1e-10).
        for seed in range(40):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(3, 9))
            n = int(rng.integers(2, d + 1))
            comp = rng.normal(size=(n - 1, d)) + 1j * rng.normal(size=(n - 1, d))
            for eps in (1e-4, 1e-5, 1e-6):
                noise = rng.normal(size=d) + 1j * rng.normal(size=d)
                rows = np.vstack([rng.normal(size=n - 1) @ comp + eps * noise, comp])
                rows /= np.linalg.norm(rows, axis=1)[:, None]
                problem = FilteringProblem(states=tuple(rows), priors=np.full(n, 1.0 / n))
                try:
                    perp, para = projective_scheme(problem, SchemeKind.SQM2).vectors
                except DegenerateDecompositionError:  # f within 1e-12 of 1
                    continue
                assert abs(np.vdot(perp, para)) <= 1e-14
                assert abs(np.linalg.norm(perp) - 1.0) <= 1e-14

    def test_schemes_are_complete_and_positive(self, figure_point_problem, walsh_problem):
        # validation happens at construction; reaching here means it passed
        for problem in (figure_point_problem, walsh_problem):
            for kind in (SchemeKind.SQM1, SchemeKind.SQM2):
                scheme = projective_scheme(problem, kind)
                total = sum(scheme.operators)
                assert np.abs(total - np.eye(scheme.acting_dimension)).max() <= 1e-10


class TestUnambiguityAcrossSchemes:
    def test_no_scheme_ever_misassigns(self, figure_point_problem, walsh_problem):
        for problem in (figure_point_problem, walsh_problem):
            rows = problem.state_matrix
            schemes = [
                projective_scheme(problem, SchemeKind.SQM1),
                projective_scheme(problem, SchemeKind.SQM2),
                build_optimal_scheme(problem)[1],
            ]
            for scheme in schemes:
                if Outcome.IS_TARGET in scheme.outcomes:
                    target_op = scheme.operator(Outcome.IS_TARGET)
                    for row in rows[1:]:
                        assert born(target_op, row) <= 1e-10
                comp = scheme.operator(Outcome.IS_COMPLEMENT)
                assert born(comp, rows[0]) <= 1e-10

    def test_every_built_scheme_gives_back_its_report(self, request):
        # On its own Born table each scheme never misassigns, and its FAIL
        # column is the report's: per state for the POVM, prior-weighted for
        # SQM1 and SQM2 (built wherever f < 1 - PROB_TOL).
        rng = np.random.default_rng(47)
        problems = [random_problem(rng) for _ in range(300)]
        problems += [boolean_problem(3, 2), boolean_problem(5, 2), boolean_problem(8, 3)]
        problems += [request.getfixturevalue(name) for name in (
            "walsh_problem", "figure_point_problem", "symmetric_pair_problem",
            "orthogonal_pair_problem", "contained_target_problem",
        )]
        for problem in problems:
            report = optimal_filtering(problem)
            schemes = [
                (build_optimal_scheme(problem)[1], report.per_state_failure),
                (projective_scheme(problem, SchemeKind.SQM1), report.q_sqm1),
            ]
            if report.parallel_norm_f < 1.0 - PROB_TOL:
                schemes.append((projective_scheme(problem, SchemeKind.SQM2), report.q_sqm2))
            for scheme, want in schemes:
                table = scheme.born_probabilities(problem.state_matrix)
                assert abs(table[0, -2]) <= 1e-13  # the target's IS_COMPLEMENT cell
                if len(scheme.vectors) == 2:  # the complement's IS_TARGET cells
                    assert np.abs(table[1:, 0]).max() <= 1e-13
                if scheme.kind is SchemeKind.POVM:
                    np.testing.assert_allclose(table[:, -1], want, rtol=0.0, atol=1e-13)
                else:
                    assert float(problem.priors @ table[:, -1]) == pytest.approx(want, abs=1e-13)


class TestMeasurementSchemeValidation:
    def test_rejects_negative_operator(self):
        # x x^dagger with |x|^2 = 1.5 leaves the remainder eigenvalue -0.5
        with pytest.raises(NumericalError, match="eigenvalue"):
            MeasurementScheme(kind=SchemeKind.SQM1, vectors=(math.sqrt(1.5) * np.eye(2)[0],))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_vectors(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            MeasurementScheme(kind=SchemeKind.SQM1, vectors=[[bad, 0.0]])

    @pytest.mark.parametrize("rows", (1, 2))
    def test_closed_form_gram_eigenvalue_matches_eigvalsh(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(500):
            d = int(rng.integers(1, 9))
            x = rng.normal(size=(rows, d)) + 1j * rng.normal(size=(rows, d))
            x *= rng.uniform(0.0, 1.2) / np.linalg.norm(x)
            reference = float(np.linalg.eigvalsh(x.conj() @ x.T).max())
            assert abs(_largest_gram_eigenvalue(x) - reference) <= 1e-15

    def test_closed_form_rejects_the_over_complete_scheme_eigvalsh_rejects(self):
        # two unit vectors at 60 degrees: the Gram has largest eigenvalue 1.5
        x = np.array([[1.0, 0.0], [0.5, math.sqrt(0.75)]], dtype=np.complex128)
        assert np.linalg.eigvalsh(x.conj() @ x.T).max() == pytest.approx(1.5)
        assert _largest_gram_eigenvalue(x) == pytest.approx(1.5)
        with pytest.raises(NumericalError, match=r"eigenvalue -5\.000e-01 < -OPERATOR_TOL"):
            MeasurementScheme(kind=SchemeKind.POVM, vectors=x)
        # an orthonormal pair leaves a remainder with eigenvalue 0, which is accepted
        MeasurementScheme(kind=SchemeKind.POVM, vectors=np.eye(2))

    @pytest.mark.parametrize(
        "outcome, shown",
        [(Outcome.IS_TARGET, "'IS_TARGET'"), ("IS_TARGET", "'IS_TARGET'"), ("bogus", "'bogus'")],
        ids=["member", "value", "unknown"],
    )
    def test_operator_of_a_missing_outcome_named(self, walsh_problem, outcome, shown):
        sqm1 = projective_scheme(walsh_problem, SchemeKind.SQM1)
        with pytest.raises(
            InvalidInputError,
            match=f"^outcome must be one of the SQM1 scheme's outcomes IS_COMPLEMENT, FAIL, "
            f"got {shown}$",
        ):
            sqm1.operator(outcome)
        np.testing.assert_array_equal(sqm1.operator("FAIL"), sqm1.operators[1])

    def test_choices_stored_as_members(self):
        scheme = MeasurementScheme(kind="SQM1", vectors=[[1.0, 0.0]])
        assert scheme.kind is SchemeKind.SQM1
        assert scheme.outcomes == (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        assert [type(outcome) for outcome in scheme.outcomes] == [Outcome, Outcome]

    def test_projective_scheme_rejects_povm_kind(self, walsh_problem):
        with pytest.raises(InvalidInputError, match="POVM"):
            projective_scheme(walsh_problem, SchemeKind.POVM)

    def test_rank_one_vectors_must_fit_the_outcomes(self):
        # one vector (x_fail) or two (x_target, x_fail): no other count has a layout
        for vectors in (np.zeros((0, 3)), 0.5 * np.eye(3), [0.6, 0.0, 0.0]):
            with pytest.raises(InvalidInputError, match=r"one vector \(x_fail\) or two"):
                MeasurementScheme(kind=SchemeKind.POVM, vectors=vectors)

    def test_outcomes_follow_from_the_vector_count(self):
        x_t, x_f = np.array([0.6, 0.0, 0.0]), np.array([0.0, 0.0, 0.8j])
        states = np.eye(3, dtype=np.complex128)
        one = MeasurementScheme(kind=SchemeKind.SQM1, vectors=(x_f,))
        assert one.outcomes == (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        np.testing.assert_allclose(
            one.born_probabilities(states), [[1.0, 0.0], [1.0, 0.0], [0.36, 0.64]], atol=1e-15
        )
        np.testing.assert_allclose(one.operators[0], np.diag([1.0, 1.0, 0.36]), atol=1e-15)
        np.testing.assert_allclose(one.operators[1], np.diag([0.0, 0.0, 0.64]), atol=1e-15)
        two = MeasurementScheme(kind=SchemeKind.POVM, vectors=(x_t, x_f))
        assert two.outcomes == (Outcome.IS_TARGET, Outcome.IS_COMPLEMENT, Outcome.FAIL)
        np.testing.assert_allclose(
            two.born_probabilities(states),
            [[0.36, 0.64, 0.0], [0.0, 1.0, 0.0], [0.0, 0.36, 0.64]],
            atol=1e-15,
        )
        expected = [np.diag(d) for d in ([0.36, 0.0, 0.0], [0.64, 1.0, 0.36], [0.0, 0.0, 0.64])]
        for operator, want in zip(two.operators, expected, strict=True):
            np.testing.assert_allclose(operator, want, atol=1e-15)
        for outcome, want in zip(two.outcomes, expected):
            np.testing.assert_allclose(two.operator(outcome), want, atol=1e-15)

    def test_vectors_are_the_only_form(self, walsh_problem):
        for extra in ({"operators": (np.eye(2), np.zeros((2, 2)))},
                      {"acting_dimension": 2}, {"outcomes": (Outcome.IS_COMPLEMENT, Outcome.FAIL)},
                      {"warning": None}):
            with pytest.raises(TypeError):
                MeasurementScheme(kind=SchemeKind.SQM1, vectors=np.eye(2)[:1], **extra)
        # the old positional order (kind, outcomes, vectors) reads the outcomes as
        # vectors, and a third positional argument has no field to go to
        with pytest.raises(InvalidInputError, match="rank-one vectors"):
            MeasurementScheme(SchemeKind.SQM1, (Outcome.IS_COMPLEMENT, Outcome.FAIL))
        with pytest.raises(TypeError):
            MeasurementScheme(SchemeKind.SQM1, [[1.0, 0.0]], None)
        assert [field.name for field in dataclasses.fields(MeasurementScheme)] == [
            "kind", "vectors"
        ]
        assert projective_scheme(walsh_problem, SchemeKind.SQM1).acting_dimension == 4
        model, povm, _ = build_optimal_scheme(walsh_problem)
        assert povm.acting_dimension == 4
        assert [field.name for field in dataclasses.fields(model)] == [
            "unitary", "success_outputs", "failure_amplitudes"
        ]
