import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

from qfilter import (
    Decomposition,
    FailureAllocation,
    FilteringProblem,
    InvalidInputError,
    MeasurementScheme,
    NeumarkModel,
    Regime,
    SchemeKind,
    SimulationStats,
    StateVector,
    StrategyReport,
    SuccessGram,
    build_neumark,
    decompose_target,
    failure_allocations,
    failure_curve,
    optimal_filtering,
    povm_elements,
    projective_scheme,
    simulate,
    success_gram,
    wk_spec,
)
from qfilter.ensemble import _row_basis
from qfilter.strategies import FailureCurve
from conftest import random_problem


def ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return StateVector(v)


class TestStateVector:
    def test_accepts_unit_vector(self):
        s = StateVector(np.array([0.6, 0.8j]))
        assert s.amplitudes.size == 2

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

    def test_ragged_input_named(self):
        with pytest.raises(InvalidInputError, match="^amplitudes must be complex numbers"):
            StateVector([[1, 0], [0]])


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
        for states in ((ket(0, 2), ket(0, 3)), ([1.0, 0.0], [0.0, 1.0, 0.0])):
            with pytest.raises(InvalidInputError, match="dimension"):
                FilteringProblem(states=states, priors=(0.5, 0.5))

    def test_needs_two_states(self):
        for states in ((ket(0, 2),), np.eye(2)[:1]):
            with pytest.raises(InvalidInputError):
                FilteringProblem(states=states, priors=(1.0,))

    @pytest.mark.parametrize(
        "states, target_index, message",
        [
            (([1.0, 0.0], [2.0, 0.0]), 1, r"^state 1: squared norm 4\.0 deviates"),
            (([1.0, 0.0], [0.0, 1.0], [0.0, 1.0 + 1e-3]), 1, r"^state 2: squared norm 1\.00200"),
            (np.array([[1.0, 0.0], [np.inf, 0.0]]), 0, r"^state 1: amplitudes must be finite$"),
            (([np.nan, 0.0], [0.0, 1.0]), 1, r"^state 0: amplitudes must be finite$"),
        ],
        ids=["norm-target", "norm-after-target", "inf", "nan-before-target"],
    )
    def test_bad_row_named_by_its_position_as_passed(self, states, target_index, message):
        n = len(states)
        with pytest.raises(InvalidInputError, match=message):
            FilteringProblem(states=states, priors=[1.0 / n] * n, target_index=target_index)

    def test_state_inputs_give_one_matrix(self):
        rows = np.array([[0.6, 0.8j, 0.0], [0.0, 1.0, 0.0], [1j, 0.0, 0.0]])
        matrices = [
            FilteringProblem(states=states, priors=(0.5, 0.25, 0.25)).state_matrix
            for states in (
                rows, np.asfortranarray(rows), rows.tolist(), tuple(StateVector(r) for r in rows)
            )
        ]
        assert all(m.tobytes() == matrices[0].tobytes() for m in matrices)
        assert matrices[0].dtype == np.complex128 and matrices[0].shape == (3, 3)
        assert all(m.flags.c_contiguous and not m.flags.writeable for m in matrices)

    def test_target_moved_to_front(self):
        p = FilteringProblem(
            states=(ket(0, 2), ket(1, 2)), priors=(0.25, 0.75), target_index=1
        )
        assert p.target_index == 0
        np.testing.assert_allclose(p.priors, [0.75, 0.25])
        np.testing.assert_allclose(p.state_matrix[0], [0, 1])

    def test_target_index_range(self):
        with pytest.raises(InvalidInputError):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, 0.5), target_index=2)

    @pytest.mark.parametrize("bad", [1.7, 1.0, "1", True])
    def test_target_index_must_be_an_integer(self, bad):
        # int() would read 1.7 as 1 and True as 1
        with pytest.raises(InvalidInputError, match="target_index must be an integer"):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, 0.5), target_index=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="priors must lie in"):
            FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=(0.5, bad))

    def test_overlaps_and_decomposition_cached(self, walsh_problem):
        assert decompose_target(walsh_problem) is decompose_target(walsh_problem)
        assert walsh_problem._overlaps is walsh_problem._overlaps
        m = walsh_problem.state_matrix
        np.testing.assert_array_equal(walsh_problem._overlaps, m[1:] @ m[0].conj())


def gram_matrix(problem):
    """The state Gram G_ij = <psi_i|psi_j>: ``success_gram`` at zero failure weights."""
    zeros = np.zeros(problem.n_states)
    return success_gram(problem, FailureAllocation(failure_probs=zeros, phases=zeros)).matrix


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
            states=(wk_spec(2, 2).vector, np.array([1.0, -1.0, 1.0, -1.0]) / 2),
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


def span_basis(rows):
    """Orthonormal rows spanning ``rows`` and their number, as ``_decomposition`` reads them."""
    vh, rank = _row_basis(np.asarray(rows, dtype=complex))
    return vh[:rank], rank


class TestSpanBasis:
    def test_duplicate_vectors_rank_one(self):
        basis, rank = span_basis([ket(0, 2).amplitudes, ket(0, 2).amplitudes])
        assert rank == 1

    def test_independent_pair_rank_two(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        basis, rank = span_basis([ket(0, 2).amplitudes, plus])
        assert rank == 2

    def test_walsh_vectors_rank_three(self):
        walsh = 0.5 * np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        basis, rank = span_basis(walsh)
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
            dec.perpendicular, orthogonal_pair_problem.state_matrix[0], atol=1e-15
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
                dec.parallel + dec.perpendicular, p.state_matrix[0], atol=1e-10
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


# (record, dtype of each stored array field, the other fields, the arrays' shape,
# or each array's shape by name)
RESULT_RECORDS = [
    (Decomposition, dict.fromkeys(["parallel", "perpendicular"], complex),
     dict(parallel_norm_sq=0.0), (2,)),
    (SuccessGram, dict(matrix=complex), dict(min_eigenvalue=0.0, feasible=True), (2,)),
    (NeumarkModel,
     dict.fromkeys(["unitary", "success_outputs", "failure_amplitudes"], complex),
     {}, dict(unitary=(3, 3), success_outputs=(2, 2), failure_amplitudes=(2,))),
    (StrategyReport, dict(per_state_failure=float),
     dict(q_sqm1=0.5, q_sqm2=0.5, q_povm=None, regime=Regime.SQM1_BOUNDARY, optimal_q1=1.0,
          optimal_Q=0.5, overlap_S=0.0, parallel_norm_f=0.0), (2,)),
    (FailureCurve,
     {**dict.fromkeys(["s", "q_sqm1", "q_sqm2", "q_povm"], float), "regime_codes": np.int8},
     {}, (2,)),
    (SimulationStats, {"counts": np.int64, "analytic_rates": float},
     dict(scheme_kind=SchemeKind.POVM, trials_per_state=1, seed=0), (1, 2)),
]


@pytest.mark.parametrize(
    "record, arrays, scalars, shape", RESULT_RECORDS,
    ids=[case[0].__name__ for case in RESULT_RECORDS],
)
def test_result_records_freeze_a_view_not_the_callers_array(record, arrays, scalars, shape):
    shapes = shape if isinstance(shape, dict) else dict.fromkeys(arrays, shape)
    given = {name: np.zeros(shapes[name], dtype) for name, dtype in arrays.items()}
    built = record(**given, **scalars)
    for name, array in given.items():
        stored = getattr(built, name)
        assert array.flags.writeable
        assert not stored.flags.writeable
        assert np.shares_memory(stored, array)  # nothing is copied


@pytest.mark.parametrize(
    "record, fields, name",
    [
        (SuccessGram, dict(matrix="ab", min_eigenvalue=0.0, feasible=True), "matrix"),
        (Decomposition, dict(parallel="ab", perpendicular=np.zeros(2), parallel_norm_sq=0.0),
         "parallel"),
        (Decomposition,
         dict(parallel=np.zeros(2), perpendicular=[[1.0], [1.0, 2.0]], parallel_norm_sq=0.0),
         "perpendicular"),
        (NeumarkModel, dict(unitary=np.eye(3), success_outputs=np.zeros((2, 2)),
                            failure_amplitudes=object()), "failure_amplitudes"),
    ],
    ids=["malformed-string", "string-first-field", "ragged", "non-number"],
)
def test_result_records_name_a_field_numpy_cannot_read(record, fields, name):
    # numpy's own ValueError or TypeError would not say which field it read
    with pytest.raises(InvalidInputError, match=f"^{name} must be an array of numbers"):
        record(**fields)


def expected_z(stats):
    """z per cell by its definition: deterministic cells are 0 when matched, inf when not."""
    analytic, trials = stats.analytic_rates, float(stats.trials_per_state)
    empirical = stats.counts / trials
    variance = analytic * (1.0 - analytic) / trials
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (empirical - analytic) / np.sqrt(variance)
    return np.where(variance > 0.0, z, np.where(empirical == analytic, 0.0, np.inf))


def assert_read_only(record, names):
    for name in names:
        value = getattr(record, name)
        assert getattr(record, name) is value  # computed once, on first read
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)


@pytest.mark.parametrize("seed", range(6))
def test_result_records_derive_their_rates_on_first_read(seed):
    rng = np.random.default_rng([seed, 28])
    problem = random_problem(rng, max_dim=6, max_states=6)
    report = optimal_filtering(problem)
    assert np.array_equal(report.per_state_success, 1.0 - report.per_state_failure)
    assert report.average_success == 1.0 - report.optimal_Q
    assert_read_only(report, ["per_state_success", "average_success"])
    payload = report.to_dict()
    assert payload["per_state_success"] == report.per_state_success.tolist()
    assert payload["average_success"] == report.average_success

    schemes = [
        projective_scheme(problem, SchemeKind.SQM1),
        povm_elements(build_neumark(problem, failure_allocations(problem, report.optimal_q1))),
    ]
    if decompose_target(problem).parallel_norm_sq < 1.0 - 1e-6:
        schemes.append(projective_scheme(problem, SchemeKind.SQM2))
    for scheme in schemes:
        run = simulate(scheme, problem, 1000, seed)
        dead = run.analytic_rates == 0.0  # cells that cannot be drawn
        assert dead.any() and np.all(run.z_scores[dead] == 0.0)
        # one trial moved from the state's largest cell into one it cannot draw: z = inf there
        counts = run.counts.copy()
        i, j = np.argwhere(dead)[0]
        counts[i, np.argmax(counts[i])] -= 1
        counts[i, j] += 1
        moved = SimulationStats(
            run.scheme_kind, run.trials_per_state, run.seed, counts, run.analytic_rates
        )
        assert moved.z_scores[i, j] == np.inf and not np.isinf(run.z_scores).any()
        for stats in (run, moved):
            assert np.array_equal(stats.empirical_rates, stats.counts / 1000.0)
            assert np.array_equal(stats.z_scores, expected_z(stats))
            assert_read_only(stats, ["empirical_rates", "z_scores"])
        for name in ("empirical_rates", "z_scores"):
            with pytest.raises(TypeError, match=name):
                dataclasses.replace(run, **{name: run.counts})

    eta1, f = float(problem.priors[0]), decompose_target(problem).parallel_norm_sq
    curve = failure_curve(eta1, f, np.linspace(0.0, 1.5 * eta1, 301))
    codes = curve.regime_codes
    by_code = np.where(codes == 1, curve.q_sqm1, curve.q_sqm2)
    assert np.array_equal(curve.q_opt, np.where(codes == 0, curve.q_povm, by_code))
    assert_read_only(curve, ["q_opt"])
    assert [row.q_opt for row in curve] == curve.q_opt.tolist()
    with pytest.raises(TypeError, match="q_opt"):
        dataclasses.replace(curve, q_opt=curve.s)
    for name in ("per_state_success", "average_success"):
        with pytest.raises(TypeError, match=name):
            dataclasses.replace(report, **{name: 0.5})


def test_derived_fields_first_read_by_concurrent_threads_are_the_serial_values():
    # Records are shared between workers, and on Python >= 3.12 cached_property
    # takes no lock: threads that first read one record together may each
    # compute a field, and every reader must still see the serial value.
    problem = random_problem(np.random.default_rng(28), max_dim=6, max_states=6)
    scheme = projective_scheme(problem, SchemeKind.SQM1)
    report = optimal_filtering(problem)
    grid = np.linspace(0.0, 1.0, 201)

    def fresh():
        curve = failure_curve(float(problem.priors[0]), report.parallel_norm_f, grid)
        return simulate(scheme, problem, 1000, 5), curve, dataclasses.replace(report)

    def read(records):
        stats, curve, rep = records
        return stats.z_scores, stats.empirical_rates, curve.q_opt, rep.per_state_success

    serial = read(fresh())
    shared = [fresh() for _ in range(200)]
    reads = [[] for _ in range(4)]  # more threads than the 2 cores CI runners have
    start = threading.Barrier(len(reads))

    def run(out):
        start.wait(timeout=60)
        out.extend(read(records) for records in shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(out,)) for out in reads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for out in reads:
        assert len(out) == len(shared)
        for got in out:
            assert all(np.array_equal(a, b) for a, b in zip(got, serial))


# (the caller's array, the array a record built from it stores)
INPUT_RECORDS = {
    "StateVector.amplitudes": ([0.6, 0.8j], lambda a: StateVector(a).amplitudes),
    "FilteringProblem.state_matrix": (
        [[0.6, 0.8j], [1.0, 0.0]],
        lambda a: FilteringProblem(states=a, priors=(0.5, 0.5)).state_matrix,
    ),
    "FilteringProblem.state_matrix-rows": (
        [[0.6, 0.8j], [1.0, 0.0]],
        lambda a: FilteringProblem(states=(a[0], a[1]), priors=(0.5, 0.5)).state_matrix,
    ),
    "FilteringProblem.priors": (
        [0.25, 0.75], lambda a: FilteringProblem(states=np.eye(2), priors=a).priors
    ),
    "FilteringProblem.priors-buffer": (
        [0.25, 0.75], lambda a: FilteringProblem(states=np.eye(2), priors=memoryview(a)).priors
    ),
    "FailureAllocation.failure_probs": (
        [0.25, 0.75], lambda a: FailureAllocation(failure_probs=a, phases=[0.0, 0.0]).failure_probs
    ),
}


@pytest.mark.parametrize("values, read", INPUT_RECORDS.values(), ids=INPUT_RECORDS.keys())
def test_input_records_copy_the_callers_array(values, read):
    given = np.array(values)
    stored = read(given)
    before = stored.tobytes()
    given[...] = 0.5
    assert stored.tobytes() == before
    assert not stored.flags.writeable


SQM1_ON_QUBIT = MeasurementScheme(kind=SchemeKind.SQM1, vectors=[[1.0, 0.0]])
# The field each entry point names when it rejects a value, and whether the
# field holds complex numbers.
NUMERIC_INPUTS = {
    "priors": (lambda v: FilteringProblem(states=(ket(0, 2), ket(1, 2)), priors=v), False),
    "failure weights": (lambda v: FailureAllocation(failure_probs=v, phases=[0.0, 0.0]), False),
    "phases": (lambda v: FailureAllocation(failure_probs=[0.5, 0.5], phases=v), False),
    "overlap values": (lambda v: failure_curve(0.4, 0.25, v), False),
    "amplitudes": (StateVector, True),
    "rank-one vectors": (
        lambda v: MeasurementScheme(kind=SchemeKind.SQM1, vectors=[v]),
        True,
    ),
    "states": (lambda v: SQM1_ON_QUBIT.born_probabilities(v), True),
}
NOT_REAL = {
    "complex-array": np.array([0.5 + 0.2j, 0.5]),
    "complex-list": [0.5 + 0.2j, 0.5],
    "string": "ab",
    "bool": [True, False],
}


@pytest.mark.parametrize("field, value", [
    pytest.param(field, value, id=f"{field}-{name}")
    for field, (_, holds_complex) in NUMERIC_INPUTS.items()
    for name, value in NOT_REAL.items()
    if name in ("string", "bool") or not holds_complex
])
def test_numeric_input_converted_without_loss_or_rejected_by_name(field, value):
    with pytest.raises(InvalidInputError, match=f"^{field} must be"):
        NUMERIC_INPUTS[field][0](value)


@pytest.mark.parametrize(
    "states, message",
    [
        ([[1.0, 0.0], [1.0]], r"^states must be complex numbers"),
        ([1.0, 0.0], r"^states must have shape \(N, 2\), .* dimension 2, got shape \(2,\)$"),
    ],
    ids=["ragged", "1-D"],
)
def test_born_probabilities_names_states_that_are_not_rows(states, message):
    with pytest.raises(InvalidInputError, match=message):
        SQM1_ON_QUBIT.born_probabilities(states)
