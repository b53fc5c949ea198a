import dataclasses
import math

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
    build_neumark,
    decompose_target,
    failure_allocations,
    optimal_filtering,
    povm_elements,
    projective_scheme,
    success_gram,
)
from conftest import random_problem

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
        # the success Gram stays inside the PSD tolerance but no unitary exists
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
        with pytest.raises(InfeasibleError, match="depend"):
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
        assert scheme.dilation_dimension == scheme.acting_dimension + 1

    def test_target_always_failing_omits_conclusive_outcome(self, walsh_problem):
        alloc = failure_allocations(walsh_problem, 1.0)  # q1 = 1: target never succeeds
        model = build_neumark(walsh_problem, alloc)
        scheme = povm_elements(model)
        assert Outcome.IS_TARGET not in scheme.outcomes
        assert scheme.warning is not None

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

    def test_sqm2_perfect_discrimination_warning(self, orthogonal_pair_problem):
        scheme = projective_scheme(orthogonal_pair_problem, SchemeKind.SQM2)
        assert scheme.warning is not None
        target = orthogonal_pair_problem.state_matrix[0]
        assert born(scheme.operator(Outcome.IS_TARGET), target) == pytest.approx(
            1.0, abs=1e-12
        )
        assert born(scheme.operator(Outcome.FAIL), target) == 0.0

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


class TestMeasurementSchemeValidation:
    def test_rejects_negative_operator(self):
        # x x^dagger with |x|^2 = 1.5 leaves the remainder eigenvalue -0.5
        with pytest.raises(NumericalError, match="eigenvalue"):
            MeasurementScheme(
                kind=SchemeKind.SQM1,
                outcomes=(Outcome.IS_COMPLEMENT, Outcome.FAIL),
                vectors=(math.sqrt(1.5) * np.eye(2)[0],),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_vectors(self, bad):
        with pytest.raises(InvalidInputError, match="finite"):
            MeasurementScheme(
                kind=SchemeKind.SQM1,
                outcomes=(Outcome.IS_COMPLEMENT, Outcome.FAIL),
                vectors=[[bad, 0.0]],
            )

    def test_projective_scheme_rejects_povm_kind(self, walsh_problem):
        with pytest.raises(InvalidInputError, match="POVM"):
            projective_scheme(walsh_problem, SchemeKind.POVM)

    def test_rank_one_vectors_must_fit_the_outcomes(self):
        with pytest.raises(InvalidInputError, match="one vector per outcome"):
            MeasurementScheme(
                kind=SchemeKind.SQM1,
                outcomes=(Outcome.IS_COMPLEMENT, Outcome.FAIL),
                vectors=np.eye(2),
            )
        with pytest.raises(InvalidInputError, match="one vector per outcome"):
            MeasurementScheme(
                kind=SchemeKind.SQM1,
                outcomes=(Outcome.IS_TARGET, Outcome.FAIL),
                vectors=np.eye(2)[:1],
            )

    def test_vectors_are_the_only_form(self, walsh_problem):
        outcomes = (Outcome.IS_COMPLEMENT, Outcome.FAIL)
        for extra in ({"operators": (np.eye(2), np.zeros((2, 2)))},
                      {"acting_dimension": 2}, {"dilation_dimension": 3}):
            with pytest.raises(TypeError):
                MeasurementScheme(
                    kind=SchemeKind.SQM1, outcomes=outcomes, vectors=np.eye(2)[:1], **extra
                )
        sqm1 = projective_scheme(walsh_problem, SchemeKind.SQM1)
        assert (sqm1.acting_dimension, sqm1.dilation_dimension) == (4, None)
        model, povm, _ = build_optimal_scheme(walsh_problem)
        assert (povm.acting_dimension, povm.dilation_dimension) == (4, 5)
        assert [field.name for field in dataclasses.fields(model)] == [
            "unitary", "dimension", "success_outputs", "failure_amplitudes", "allocation"
        ]
