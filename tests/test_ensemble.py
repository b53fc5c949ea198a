import math

import numpy as np
import pytest

from qfilter import (
    Decomposition,
    FilteringProblem,
    InvalidInputError,
    NeumarkModel,
    OutcomeDistribution,
    Regime,
    SchemeKind,
    SimulationStats,
    StateVector,
    StrategyReport,
    SuccessGram,
    decompose_target,
    gram_matrix,
    span_basis,
    walsh_balanced_basis,
    wk_spec,
)
from qfilter.strategies import FailureCurve
from conftest import random_problem


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return StateVector(v)


class TestStateVector:
    def test_accepts_unit_vector(self):
        s = StateVector(np.array([0.6, 0.8j]))
        assert s.dimension == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            StateVector(np.array([1.0, 1.0]))

    def test_rejects_norm_outside_tolerance(self):
        with pytest.raises(InvalidInputError, match=r"1\.000000005.* beyond NORM_TOL"):
            StateVector(np.array([math.sqrt(1 + 5e-9), 0.0]))

    def test_accepts_norm_within_tolerance(self):
        StateVector(np.array([math.sqrt(1 + 5e-10), 0.0]))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            StateVector(np.array([]))
        with pytest.raises(InvalidInputError):
            StateVector(np.array([np.nan, 0.0]))

    def test_amplitudes_immutable(self):
        s = StateVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_from_pairs_rejects_other_shapes(self):
        with pytest.raises(InvalidInputError, match=r"shape \(1, 3\) are not \[re, im\] pairs"):
            StateVector.from_pairs([[1.0, 0.0, 0.0]])

    def test_pairs_round_trip(self):
        s = StateVector.from_pairs([[0.6, 0.0], [0.0, 0.8]])
        assert s.to_pairs() == [[0.6, 0.0], [0.0, 0.8]]


class TestFilteringProblem:
    def test_prior_sum_enforced(self):
        with pytest.raises(InvalidInputError, match=r"sum to 0\.9.*within NORM_TOL"):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, 0.4))

    def test_prior_shape_enforced(self):
        with pytest.raises(InvalidInputError, match=r"expected 2 priors, got shape \(3,\)"):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, 0.25, 0.25))

    def test_prior_range_enforced(self):
        with pytest.raises(InvalidInputError):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(1.0, 0.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="dimension"):
            FilteringProblem(states=(ket(0, 2), ket(0, 3)), priors=(0.5, 0.5))

    def test_needs_two_states(self):
        with pytest.raises(InvalidInputError):
            FilteringProblem(states=(ket(0, 2),), priors=(1.0,))

    def test_target_moved_to_front(self):
        p = FilteringProblem(
            states=(ket(0, 2), ket(1, 2)), priors=(0.25, 0.75), target_index=1
        )
        assert p.target_index == 0
        np.testing.assert_allclose(p.priors, [0.75, 0.25])
        np.testing.assert_allclose(p.target.amplitudes, [0, 1])

    def test_target_index_range(self):
        with pytest.raises(InvalidInputError):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, 0.5), target_index=2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="priors must lie in"):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, bad))

    def test_overlaps_and_decomposition_cached(self, walsh_problem):
        assert decompose_target(walsh_problem) is decompose_target(walsh_problem)
        assert walsh_problem._overlaps is walsh_problem._overlaps
        m = walsh_problem.state_matrix
        np.testing.assert_array_equal(walsh_problem._overlaps, m[1:] @ m[0].conj())


class TestGramMatrix:
    def test_identical_states(self):
        p = FilteringProblem(states=(ket(0, 2), ket(0, 2)), priors=(0.5, 0.5))
        np.testing.assert_allclose(gram_matrix(p), [[1, 1], [1, 1]], atol=1e-15)

    def test_orthonormal_states(self):
        p = FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, 0.5))
        np.testing.assert_allclose(gram_matrix(p), np.eye(2), atol=1e-15)

    def test_biased_vs_first_walsh_vector(self):
        # hand dot product of (1,1,1,-1)/2 and (1,-1,1,-1)/2
        p = FilteringProblem(
            states=(wk_spec(2, 2).vector, walsh_balanced_basis(2).vectors[0]),
            priors=(0.5, 0.5),
        )
        g = gram_matrix(p)
        assert g[0, 1] == pytest.approx(0.5, abs=1e-15)

    def test_positive_semidefinite_and_unit_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = gram_matrix(random_problem(rng, max_dim=8, max_states=10))
            assert np.linalg.eigvalsh(g).min() >= -1e-10
            np.testing.assert_allclose(np.diag(g).real, 1.0, atol=1e-9)
            np.testing.assert_allclose(g, g.conj().T, atol=1e-15)


class TestSpanBasis:
    def test_needs_a_vector(self):
        with pytest.raises(InvalidInputError, match="at least one vector is required, got 0"):
            span_basis([])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidInputError, match=r"mixed dimensions \[2, 3\]"):
            span_basis([np.eye(2)[0], np.eye(3)[0]])

    def test_duplicate_vectors_rank_one(self):
        basis, rank = span_basis([ket(0, 2), ket(0, 2)])
        assert rank == 1

    def test_independent_pair_rank_two(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        basis, rank = span_basis([ket(0, 2).amplitudes, plus])
        assert rank == 2

    def test_walsh_vectors_rank_three(self):
        basis, rank = span_basis(walsh_balanced_basis(2).vectors)
        assert rank == 3

    def test_orthonormality_and_reconstruction(self):
        rng = np.random.default_rng(5)
        vecs = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        basis, rank = span_basis(vecs)
        np.testing.assert_allclose(
            basis.conj() @ basis.T, np.eye(rank), atol=1e-10
        )
        for v in vecs:
            residual = v - basis.T @ (basis.conj() @ v)
            assert np.linalg.norm(residual) <= 1e-8

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        vecs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        basis, rank = span_basis(vecs)
        again, rank2 = span_basis(basis)
        assert rank2 == rank
        # same span: every original basis vector reconstructs exactly
        for b in basis:
            residual = b - again.T @ (again.conj() @ b)
            assert np.linalg.norm(residual) <= 1e-12

    def test_near_dependent_vector_dropped(self):
        base = np.array([1.0, 0.0, 0.0], dtype=complex)
        nudged = base + 1e-10 * np.array([0.0, 1.0, 0.0])
        nudged /= np.linalg.norm(nudged)
        _, rank = span_basis(np.vstack([base, nudged]))
        assert rank == 1


class TestDecomposeTarget:
    def test_orthogonal_target(self, orthogonal_pair_problem):
        dec = decompose_target(orthogonal_pair_problem)
        assert dec.parallel_norm_sq == 0.0
        np.testing.assert_allclose(
            dec.perpendicular, orthogonal_pair_problem.target.amplitudes, atol=1e-15
        )

    def test_contained_target(self, contained_target_problem):
        dec = decompose_target(contained_target_problem)
        assert dec.parallel_norm_sq == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(dec.perpendicular) <= 1e-10

    def test_biased_vector_against_walsh_basis(self, walsh_problem):
        # closed form (2^k - 1)/2^(2k-2) at k = 2
        dec = decompose_target(walsh_problem)
        assert dec.parallel_norm_sq == pytest.approx(0.75, abs=1e-12)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = random_problem(rng, max_dim=8, max_states=8)
            dec = decompose_target(p)
            np.testing.assert_allclose(
                dec.parallel + dec.perpendicular, p.target.amplitudes, atol=1e-10
            )
            for row in p.state_matrix[1:]:
                assert abs(dec.perpendicular.conj() @ row) <= 1e-10

    def test_pythagoras(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = random_problem(rng, max_dim=8, max_states=8)
            dec = decompose_target(p)
            perp_sq = float(np.linalg.norm(dec.perpendicular) ** 2)
            assert dec.parallel_norm_sq + perp_sq == pytest.approx(1.0, abs=1e-10)


# (record, dtype of each array field, the other fields)
RESULT_RECORDS = [
    (Decomposition, dict.fromkeys(["parallel", "perpendicular"], complex),
     dict(parallel_norm_sq=0.0)),
    (SuccessGram, dict(matrix=complex), dict(min_eigenvalue=0.0, feasible=True)),
    (NeumarkModel,
     dict.fromkeys(["unitary", "success_outputs", "failure_amplitudes"], complex),
     dict(dimension=2, allocation=None)),
    (StrategyReport, dict.fromkeys(["per_state_failure", "per_state_success"], float),
     dict(q_sqm1=0.5, q_sqm2=0.5, q_povm=None, regime=Regime.SQM1_BOUNDARY, optimal_q1=1.0,
          optimal_Q=0.5, average_success=0.5, overlap_S=0.0, parallel_norm_f=0.0)),
    (FailureCurve,
     {**dict.fromkeys(["s", "q_sqm1", "q_sqm2", "q_povm", "q_opt"], float),
      "regime_codes": np.int8},
     {}),
    (OutcomeDistribution, dict(probabilities=float), dict(outcomes=(), renormalized=False)),
    (SimulationStats,
     {"counts": np.int64,
      **dict.fromkeys(["empirical_rates", "analytic_rates", "z_scores"], float)},
     dict(scheme_kind=SchemeKind.POVM, outcomes=(), trials_per_state=1, seed=0)),
]


@pytest.mark.parametrize(
    "record, arrays, scalars", RESULT_RECORDS, ids=[case[0].__name__ for case in RESULT_RECORDS]
)
def test_result_records_freeze_a_view_not_the_callers_array(record, arrays, scalars):
    given = {name: np.zeros(2, dtype) for name, dtype in arrays.items()}
    built = record(**given, **scalars)
    for name, array in given.items():
        stored = getattr(built, name)
        assert array.flags.writeable
        assert not stored.flags.writeable
        assert np.shares_memory(stored, array)  # nothing is copied
