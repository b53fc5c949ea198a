import math

import numpy as np
import pytest

from qfilter import (
    BooleanFunction,
    ComplementVariant,
    FunctionClass,
    InvalidInputError,
    PriorMode,
    Regime,
    ResourceLimitError,
    average_overlap_basis,
    average_overlap_full,
    biased_fraction,
    boolean_problem,
    classical_query_count,
    dj_encode,
    enumerate_balanced,
    optimal_filtering,
    povm_advantage,
    walsh_balanced_basis,
    wk_spec,
)
from qfilter.boolfn import _walsh_sign_matrix

ROOT3 = math.sqrt(3.0)


class TestBooleanFunction:
    def test_classification(self):
        assert BooleanFunction(2, (0, 0, 0, 0)).function_class is FunctionClass.CONSTANT
        assert BooleanFunction(2, (1, 1, 1, 1)).function_class is FunctionClass.CONSTANT
        assert BooleanFunction(2, (0, 1, 1, 0)).function_class is FunctionClass.BALANCED
        biased = BooleanFunction(2, (0, 0, 0, 1))
        assert biased.function_class is FunctionClass.BIASED
        assert (biased.zeros_count, biased.ones_count) == (3, 1)

    def test_table_validation(self):
        with pytest.raises(InvalidInputError):
            BooleanFunction(2, (0, 1, 0))
        with pytest.raises(InvalidInputError):
            BooleanFunction(1, (0, 2))


class TestEncoding:
    def test_constant_zero(self):
        vec = dj_encode(BooleanFunction(2, (0, 0, 0, 0)))
        np.testing.assert_allclose(vec.amplitudes, 0.5)

    def test_single_flip_is_biased_vector(self):
        vec = dj_encode(BooleanFunction(2, (0, 0, 0, 1)))
        np.testing.assert_allclose(vec.amplitudes, [0.5, 0.5, 0.5, -0.5])
        np.testing.assert_allclose(vec.amplitudes, wk_spec(2, 2).vector.amplitudes)

    def test_parity_orthogonal_to_constant(self):
        parity = dj_encode(BooleanFunction(2, (0, 1, 1, 0)))
        np.testing.assert_allclose(parity.amplitudes, [0.5, -0.5, -0.5, 0.5])
        constant = dj_encode(BooleanFunction(2, (0, 0, 0, 0)))
        assert abs(constant.amplitudes.conj() @ parity.amplitudes) <= 1e-15


class TestWkSpec:
    def test_n2_k2(self):
        spec = wk_spec(2, 2)
        assert spec.boundary == 3
        assert spec.f_k == pytest.approx(0.75, abs=1e-15)
        assert not spec.degenerate

    def test_n4_k3(self):
        assert wk_spec(4, 3).f_k == pytest.approx(7 / 16, abs=1e-15)

    def test_k1_degenerate(self):
        spec = wk_spec(3, 1)
        assert spec.degenerate
        assert spec.f_k == pytest.approx(1.0, abs=1e-15)

    def test_k_above_n_rejected(self):
        with pytest.raises(InvalidInputError):
            wk_spec(2, 3)

    def test_members_encode_to_same_vector_up_to_sign(self):
        for n, k in ((2, 2), (3, 2), (4, 3)):
            spec = wk_spec(n, k)
            plus = dj_encode(spec.member_functions[0]).amplitudes
            minus = dj_encode(spec.member_functions[1]).amplitudes
            assert np.abs(plus + minus).max() <= 1e-15
            np.testing.assert_allclose(plus, spec.vector.amplitudes)

    def test_members_are_biased(self):
        for n, k in ((2, 2), (4, 2), (4, 4)):
            for member in wk_spec(n, k).member_functions:
                assert member.function_class is FunctionClass.BIASED

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fraction_double_derivation(self, n):
        for k in range(1, n + 1):
            closed = biased_fraction(k)
            geometric = 1.0 - (1.0 - 2.0 ** (1 - k)) ** 2
            assert closed == pytest.approx(geometric, abs=1e-12)


class TestWalshBasis:
    def test_n1(self):
        basis = walsh_balanced_basis(1)
        assert len(basis.vectors) == 1
        np.testing.assert_allclose(
            basis.vectors[0].amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)]
        )

    def test_n2_explicit(self):
        basis = walsh_balanced_basis(2)
        rows = np.array([v.amplitudes.real for v in basis.vectors])
        expected = 0.5 * np.array(
            [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        )
        np.testing.assert_allclose(rows, expected)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
    def test_orthonormal_balanced_zero_sum(self, n):
        basis = walsh_balanced_basis(n)
        assert len(basis.vectors) == 2**n - 1
        rows = np.array([v.amplitudes for v in basis.vectors])
        np.testing.assert_allclose(
            rows.conj() @ rows.T, np.eye(2**n - 1), atol=1e-12
        )
        np.testing.assert_allclose(rows.sum(axis=1), 0.0, atol=1e-12)
        for fn in basis.functions:
            assert fn.function_class is FunctionClass.BALANCED


class TestWalshSignMatrix:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_popcount_definition(self, n):
        d = 2**n
        expected = np.array(
            [[1.0 - 2.0 * ((r & x).bit_count() & 1) for x in range(d)] for r in range(1, d)]
        )
        signs = _walsh_sign_matrix(n)
        assert signs.dtype == expected.dtype and signs.shape == expected.shape
        np.testing.assert_array_equal(signs, expected)
        assert not signs.flags.writeable


class TestAverageOverlaps:
    def test_basis_value_at_quarter_prior(self):
        pair = average_overlap_basis(2, 2, 0.25)
        assert pair.closed_form == pytest.approx(3 / 16, abs=1e-15)
        assert pair.enumerated == pytest.approx(pair.closed_form, abs=1e-12)

    @pytest.mark.parametrize("eta1", (0.1, 0.25, 0.5, 0.9))
    def test_basis_formula_any_prior(self, eta1):
        pair = average_overlap_basis(2, 2, eta1)
        assert pair.closed_form == pytest.approx((1 - eta1) / 4, abs=1e-15)

    def test_unit_prior_gives_zero(self):
        assert average_overlap_basis(3, 2, 1.0).closed_form == 0.0
        assert average_overlap_full(3, 2, 1.0).closed_form == 0.0

    def test_full_matches_basis_everywhere(self):
        for n in range(2, 5):
            for k in range(2, n + 1):
                for eta1 in (0.1, 1.0 / 2**n, 0.5):
                    full = average_overlap_full(n, k, eta1)
                    basis = average_overlap_basis(n, k, eta1)
                    assert full.enumerated == pytest.approx(
                        basis.closed_form, abs=1e-12
                    )

    def test_full_individual_overlaps_at_n2(self):
        spec = wk_spec(2, 2)
        encs = [dj_encode(fn) for fn in enumerate_balanced(2)]
        overlaps_sq = [
            abs(spec.vector.amplitudes.conj() @ e.amplitudes) ** 2 for e in encs
        ]
        np.testing.assert_allclose(overlaps_sq, 0.25, atol=1e-15)

    def test_k_range_validation(self):
        with pytest.raises(InvalidInputError):
            average_overlap_basis(3, 1, 0.5)
        with pytest.raises(InvalidInputError):
            average_overlap_full(3, 4, 0.5)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", ((1, 2), (2, 6), (3, 70), (4, 12870)))
    def test_counts(self, n, count):
        functions = enumerate_balanced(n)
        assert len(functions) == count
        assert count == math.comb(2**n, 2 ** (n - 1))

    def test_lexicographic_order(self):
        tables = [fn.truth_table for fn in enumerate_balanced(2)]
        assert tables == sorted(tables)
        assert tables[0] == (0, 0, 1, 1)

    def test_all_balanced(self):
        for fn in enumerate_balanced(3):
            assert fn.function_class is FunctionClass.BALANCED

    def test_encodings_live_in_zero_sum_subspace(self):
        for n in (2, 3):
            for fn in enumerate_balanced(n):
                amps = dj_encode(fn).amplitudes
                assert abs(amps.sum()) <= 1e-12

    def test_constant_orthogonal_to_every_balanced_encoding(self):
        for n in (2, 3):
            constant = dj_encode(BooleanFunction(n, (0,) * 2**n)).amplitudes
            for fn in enumerate_balanced(n):
                assert abs(constant.conj() @ dj_encode(fn).amplitudes) <= 1e-12

    def test_cap(self):
        with pytest.raises(ResourceLimitError, match="basis"):
            enumerate_balanced(5)


class TestBooleanProblem:
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_basis_complement_is_the_walsh_basis(self, n):
        walsh = np.vstack([v.amplitudes for v in walsh_balanced_basis(n).vectors])
        np.testing.assert_array_equal(boolean_problem(n, 2).state_matrix[1:], walsh)

    def test_equal_basis_priors_reach_povm_regime(self):
        report = optimal_filtering(boolean_problem(2, 2))
        assert report.regime is Regime.POVM
        assert report.optimal_Q == pytest.approx(ROOT3 / 4, abs=1e-12)

    def test_equal_full_priors_push_into_sqm1_regime(self):
        problem = boolean_problem(
            4, 2, PriorMode.EQUAL_STATES_FULL, ComplementVariant.FULL
        )
        assert problem.n_states == 12871
        report = optimal_filtering(problem)
        assert report.regime is Regime.SQM1_BOUNDARY

    def test_custom_equal_prior_coincidence(self):
        # at eta1 = 1/D both projective strategies give (1 + f_k)/D
        for n, k in ((2, 2), (3, 2), (4, 3)):
            d = 2**n
            problem = boolean_problem(n, k, PriorMode.CUSTOM, eta1=1.0 / d)
            report = optimal_filtering(problem)
            expected = (1 + biased_fraction(k)) / d
            assert report.q_sqm1 == pytest.approx(expected, abs=1e-12)
            assert report.q_sqm2 == pytest.approx(expected, abs=1e-12)

    def test_equal_sets_prior(self):
        problem = boolean_problem(3, 2, PriorMode.EQUAL_SETS)
        assert problem.priors[0] == 0.5

    def test_k1_rejected(self):
        with pytest.raises(InvalidInputError, match="degenerate"):
            boolean_problem(3, 1)

    def test_custom_requires_eta1(self):
        with pytest.raises(InvalidInputError):
            boolean_problem(2, 2, PriorMode.CUSTOM)


class TestAdvantage:
    def test_n2_k2_exact_ratio(self):
        report = povm_advantage(2, 2)
        assert report.exact_ratio == pytest.approx(4 * ROOT3 / 7, abs=1e-12)
        assert report.exact_ratio == pytest.approx(0.98974, abs=1e-5)

    def test_n8_k6_near_half(self):
        report = povm_advantage(8, 6)
        f6 = 63 / 1024
        expected = 2 * math.sqrt(f6) / (1 + f6)
        assert report.exact_ratio == pytest.approx(expected, abs=1e-12)
        assert report.approx_ratio == pytest.approx(0.5, abs=1e-15)
        assert report.exact_ratio == pytest.approx(0.467, abs=5e-4)

    def test_ratio_expression_matches_report(self):
        # the exact ratio only depends on the bias level
        for n, k in ((4, 4), (6, 6), (8, 8)):
            fk = biased_fraction(k)
            expected = 2 * math.sqrt(fk) / (1 + fk)
            assert povm_advantage(n, k).exact_ratio == pytest.approx(expected, abs=1e-12)

    def test_gap_shrinks_with_bias_level(self):
        gaps = [povm_advantage(8, k).relative_gap for k in (4, 6, 8)]
        assert gaps[0] > gaps[1] > gaps[2]


class TestClassicalQueries:
    def test_balanced_vs_constant(self):
        assert classical_query_count(3, 2)[0] == 5

    def test_biased_vs_balanced(self):
        assert classical_query_count(3, 2) == (5, 7)
        assert classical_query_count(4, 2) == (9, 13)

    def test_k_equals_n(self):
        for n in (2, 3, 5):
            assert classical_query_count(n, n)[1] == 2 ** (n - 1) + 2

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            classical_query_count(2, 3)
