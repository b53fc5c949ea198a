"""Property tests of the span-basis helper, the target decomposition, the
generalized measurement and the rank-one form of the measurement schemes.

Ensembles are drawn tall (N up to 32x D) and near-dependent: rows are random
combinations of a few base directions plus noise of size eps, so singular
values fall on both sides of ``RANK_TOL`` and both the QR (full-rank) and the
SVD (rank-deficient) paths of ``_row_basis`` run.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qfilter import (
    DegenerateDecompositionError,
    FilteringProblem,
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
)
from qfilter.ensemble import _row_basis
from qfilter.simulate import _born_rates
from qfilter.tolerances import NORM_TOL, OPERATOR_TOL, PROB_TOL, RANK_TOL

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
        # p_1 <= PROB_TOL folds the target element into IS_COMPLEMENT.
        misidentified = born(Outcome.IS_COMPLEMENT)[0]
        if Outcome.IS_TARGET in scheme.outcomes:
            misidentified = max(misidentified, born(Outcome.IS_TARGET)[1:].max())
        assert misidentified <= PROB_TOL
        fail_evals = np.linalg.eigvalsh(scheme.operator(Outcome.FAIL))
        assert fail_evals.size == 1 or fail_evals[-2] <= 1e-10


def _schemes(problem):
    """The generalized measurement at q1 = f, the optimum and 1, and both projections."""
    f = decompose_target(problem).parallel_norm_sq
    schemes = [
        povm_elements(build_neumark(problem, failure_allocations(problem, q1)))
        for q1 in (f, optimal_filtering(problem).optimal_q1, 1.0)
    ]
    schemes.append(projective_scheme(problem, SchemeKind.SQM1))
    try:
        schemes.append(projective_scheme(problem, SchemeKind.SQM2))
    except DegenerateDecompositionError:
        pass
    return schemes


@PROPERTY_SETTINGS
@given(
    rows=near_dependent_rows(),
    seed=st.integers(0, 2**32 - 1),
    norm_drift=st.sampled_from([0.0, 0.999 * NORM_TOL, -0.999 * NORM_TOL]),
)
def test_rank_one_born_matrix_matches_derived_operators(rows, seed, norm_drift):
    priors = np.random.default_rng(seed).uniform(0.1, 1.0, size=rows.shape[0])
    problem = FilteringProblem(states=tuple(rows), priors=priors / priors.sum())
    # inputs as far off unit norm as StateVector accepts
    states = [StateVector(row * np.sqrt(1.0 + norm_drift)) for row in problem.state_matrix]
    drifted = np.vstack([s.amplitudes for s in states])
    for scheme in _schemes(problem):
        quadratic = np.stack(
            [np.einsum("ij,jk,ik->i", drifted.conj(), op, drifted).real for op in scheme.operators],
            axis=1,
        )
        assert np.abs(scheme.born_probabilities(drifted) - quadratic).max() <= 1e-12
        # the simulated rates clip the quadratic forms to [0, 1] and
        # renormalize a row whose total drifts past 1e-12
        clipped = np.clip(quadratic, 0.0, 1.0)
        totals = clipped.sum(axis=1)
        drifts = np.abs(totals - 1.0) > 1e-12
        expected = np.where(drifts[:, None], clipped / totals[:, None], clipped)
        assert np.abs(_born_rates(scheme, drifted) - expected).max() <= 1e-12


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 8),
    n_vectors=st.integers(1, 2),
    excess=st.sampled_from(
        [-0.5, -1e-6, -5e-11, 0.0, 5e-11, 0.9 * OPERATOR_TOL, 1.1 * OPERATOR_TOL, 1e-6, 0.5]
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_one_positivity_verdict_matches_eigvalsh(d, n_vectors, excess, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_vectors, d)) + 1j * rng.normal(size=(n_vectors, d))
    # scale the largest Gram eigenvalue to 1 + excess
    x *= np.sqrt((1.0 + excess) / np.linalg.eigvalsh(x.conj() @ x.T).max())
    remainder = np.eye(d) - x.T @ x.conj()
    min_eig = float(np.linalg.eigvalsh(remainder).min())
    assume(abs(min_eig + OPERATOR_TOL) > 1e-13)  # no verdict rests on rounding
    if min_eig < -OPERATOR_TOL:
        with pytest.raises(NumericalError, match="eigenvalue"):
            MeasurementScheme(kind=SchemeKind.POVM, vectors=x)
        return
    scheme = MeasurementScheme(kind=SchemeKind.POVM, vectors=x)
    derived = scheme.operator(Outcome.IS_COMPLEMENT)
    np.testing.assert_allclose(derived, remainder, atol=1e-12)
    assert abs(float(np.linalg.eigvalsh(derived).min()) - min_eig) <= 1e-12
    total = sum(scheme.operators)
    assert np.abs(total - np.eye(d)).max() <= 1e-12
