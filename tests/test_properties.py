"""Property tests of the span-basis helper, the target decomposition and the
generalized measurement.

Ensembles are drawn tall (N up to 32x D) and near-dependent: rows are random
combinations of a few base directions plus noise of size eps, so singular
values fall on both sides of ``RANK_TOL`` and both the QR (full-rank) and the
SVD (rank-deficient) paths of ``_row_basis`` run.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from qfilter import (
    FilteringProblem,
    Outcome,
    build_neumark,
    decompose_target,
    failure_allocations,
    optimal_filtering,
    povm_elements,
    span_basis,
)
from qfilter.ensemble import RANK_TOL, _row_basis
from qfilter.neumark import ZERO_TOL

# Directions dropped below RANK_TOL leave residuals of at most sqrt(D) * RANK_TOL.
DROPPED_TOL = 10 * RANK_TOL

PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def near_dependent_rows(draw):
    d = draw(st.integers(1, 8))
    n = draw(st.integers(2, 32 * d))
    base_rank = draw(st.integers(1, d))
    eps = draw(st.sampled_from([0.0, 1e-13, 1e-10, 1e-8, 1e-6, 1e-3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(base_rank, d)) + 1j * rng.normal(size=(base_rank, d))
    mix = rng.normal(size=(n, base_rank)) + 1j * rng.normal(size=(n, base_rank))
    rows = mix @ base + eps * (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


@PROPERTY_SETTINGS
@given(rows=near_dependent_rows())
def test_row_basis_spans_rows_and_complement(rows):
    n, d = rows.shape
    vh, rank = _row_basis(rows)
    assert vh.shape == (d, d)
    np.testing.assert_allclose(vh @ vh.conj().T, np.eye(d), atol=1e-12)
    assert 1 <= rank <= min(n, d)
    span = vh[:rank]
    residual = rows - (rows @ span.conj().T) @ span
    assert np.abs(residual).max() <= DROPPED_TOL
    basis, span_rank = span_basis(rows)
    assert span_rank == rank
    np.testing.assert_array_equal(basis, span)


@PROPERTY_SETTINGS
@given(rows=near_dependent_rows(), seed=st.integers(0, 2**32 - 1))
def test_decomposition_invariants(rows, seed):
    priors = np.random.default_rng(seed).uniform(0.1, 1.0, size=rows.shape[0])
    problem = FilteringProblem(states=tuple(rows), priors=priors / priors.sum())
    dec = decompose_target(problem)
    target = problem.state_matrix[0]
    np.testing.assert_allclose(dec.parallel + dec.perpendicular, target, atol=1e-14)
    assert np.abs(problem.state_matrix[1:] @ dec.perpendicular.conj()).max() <= DROPPED_TOL
    perp_sq = float(np.real(dec.perpendicular.conj() @ dec.perpendicular))
    assert abs(dec.parallel_norm_sq + perp_sq - 1.0) <= 1e-12
    assert 0.0 <= dec.parallel_norm_sq <= 1.0


@PROPERTY_SETTINGS
@given(rows=near_dependent_rows(), seed=st.integers(0, 2**32 - 1))
def test_measurement_is_unambiguous_with_prescribed_failures(rows, seed):
    priors = np.random.default_rng(seed).uniform(0.1, 1.0, size=rows.shape[0])
    problem = FilteringProblem(states=tuple(rows), priors=priors / priors.sum())
    m = problem.state_matrix
    f = decompose_target(problem).parallel_norm_sq
    for q1 in (f, optimal_filtering(problem).optimal_q1, 1.0):
        allocation = failure_allocations(problem, q1)
        scheme = povm_elements(build_neumark(problem, allocation))

        def born(outcome):
            return np.real(np.einsum("ij,jk,ik->i", m.conj(), scheme.operator(outcome), m))

        assert np.abs(born(Outcome.FAIL) - allocation.failure_probs).max() <= 1e-9
        # p_1 <= ZERO_TOL folds the target element into IS_COMPLEMENT.
        misidentified = born(Outcome.IS_COMPLEMENT)[0]
        if Outcome.IS_TARGET in scheme.outcomes:
            misidentified = max(misidentified, born(Outcome.IS_TARGET)[1:].max())
        assert misidentified <= ZERO_TOL
        fail_evals = np.linalg.eigvalsh(scheme.operator(Outcome.FAIL))
        assert fail_evals.size == 1 or fail_evals[-2] <= 1e-10
