import itertools
import json
import math

import numpy as np
import pytest

from qfilter import (
    BooleanFunction,
    ComplementVariant,
    InvalidInputError,
    MeasurementScheme,
    PriorMode,
    Regime,
    ResourceLimitError,
    SchemeKind,
    average_overlap_full,
    biased_fraction,
    boolean_problem,
    dj_encode,
    enumerate_balanced,
    optimal_filtering,
    povm_advantage,
    wk_spec,
)
from qfilter.boolfn import _complement_signs, approximate_povm_window, classical_query_count
from qfilter.cli import _round12, main

ROOT3 = math.sqrt(3.0)

# every entry point that takes the pair (n, k), and every one that takes n
TAKES_N_AND_K = {
    "wk_spec": wk_spec,
    "boolean_problem": boolean_problem,
    "povm_advantage": povm_advantage,
    "average_overlap_full": lambda n, k: average_overlap_full(n, k, 0.5),
    "classical_query_count": classical_query_count,
    "approximate_povm_window": lambda n, k: approximate_povm_window(n, k, 0.1),
}
TAKES_N = {
    "BooleanFunction": lambda n: BooleanFunction(n, ()),
    "enumerate_balanced": enumerate_balanced,
    **{name: lambda n, call=call: call(n, 2) for name, call in TAKES_N_AND_K.items()},
}


class TestBooleanFunction:
    def test_table_validation(self):
        with pytest.raises(InvalidInputError):
            BooleanFunction(2, (0, 1, 0))
        with pytest.raises(InvalidInputError):
            BooleanFunction(1, (0, 2))

    @pytest.mark.parametrize(
        "table", [(0.7, 1.9), ("1", 0), ("a", 1)], ids=["fractions", "digit-string", "letter"]
    )
    def test_entries_checked_before_conversion(self, table):
        with pytest.raises(InvalidInputError, match="entries must be 0 or 1"):
            BooleanFunction(1, table)

    def test_bit_count_named(self):
        with pytest.raises(InvalidInputError, match="n must be >= 1, got 0"):
            BooleanFunction(0, ())
        with pytest.raises(InvalidInputError, match="n must be >= 1, got 0"):
            _complement_signs(0, ComplementVariant.BASIS)

    def test_bias_level_named(self):
        with pytest.raises(InvalidInputError, match="k must be >= 1, got 0"):
            biased_fraction(0)


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

    def test_n4_k3(self):
        assert wk_spec(4, 3).f_k == pytest.approx(7 / 16, abs=1e-15)

    def test_k1_degenerate(self):
        # both members are balanced: the target lies inside the balanced span
        spec = wk_spec(3, 1)
        assert spec.boundary == 4
        assert spec.f_k == pytest.approx(1.0, abs=1e-15)

    def test_k_above_n_rejected(self):
        with pytest.raises(InvalidInputError):
            wk_spec(2, 3)

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda: wk_spec(2.5, 2), "bit count n"),
            (lambda: wk_spec(3, 2.0), "bias level k"),
            (lambda: boolean_problem(3.0, 2), "bit count n"),
            (lambda: boolean_problem(3, "2"), "bias level k"),
            (lambda: average_overlap_full(3.0, 2, 0.5), "bit count n"),
            (lambda: classical_query_count(2.5, 2), "bit count n"),
            (lambda: approximate_povm_window(2.5, 2, 0.1), "bit count n"),
            (lambda: approximate_povm_window(3, 2.0, 0.1), "bias level k"),
            (lambda: biased_fraction(2.5), "bias level k"),
            (lambda: BooleanFunction(2.0, (0, 1, 0, 1)), "bit count n"),
            (lambda: BooleanFunction(True, (0, 1)), "bit count n"),
            (lambda: enumerate_balanced(2.5), "bit count n"),
            (lambda: enumerate_balanced(2.0), "bit count n"),
            (lambda: enumerate_balanced("3"), "bit count n"),
        ],
        ids=["wk-float-n", "wk-float-k", "problem-float-n", "problem-str-k", "full-float-n",
             "queries-float-n", "window-float-n", "window-float-k", "fraction-float-k",
             "function-float-n", "function-bool-n", "balanced-float-n", "balanced-integral-n",
             "balanced-str-n"],
    )
    def test_non_integer_bit_counts_rejected(self, call, field):
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            call()

    @pytest.mark.parametrize(
        "call",
        [lambda: average_overlap_full(3, 2, "0.3"), lambda: approximate_povm_window(3, 2, 0.1j)],
        ids=["full-str-eta1", "window-complex-eta1"],
    )
    def test_eta1_read_losslessly(self, call):
        with pytest.raises(InvalidInputError, match="target prior eta1 must be real numbers"):
            call()

    def test_members_encode_to_same_vector_up_to_sign(self):
        for n, k in ((2, 2), (3, 2), (4, 3)):
            spec = wk_spec(n, k)
            low_zero = tuple(int(x >= spec.boundary) for x in range(2**n))
            plus = dj_encode(BooleanFunction(n, low_zero)).amplitudes
            minus = dj_encode(BooleanFunction(n, tuple(1 - b for b in low_zero))).amplitudes
            assert np.abs(plus + minus).max() <= 1e-15
            np.testing.assert_array_equal(plus, spec.vector.amplitudes)

    @pytest.mark.parametrize("name", TAKES_N)
    @pytest.mark.parametrize("n", (0, -3))
    def test_bit_count_below_one_rejected(self, n, name):
        with pytest.raises(InvalidInputError, match=rf"^bit count n must be >= 1, got {n}$"):
            TAKES_N[name](n)

    @pytest.mark.parametrize("name", TAKES_N_AND_K)
    @pytest.mark.parametrize("n", (2, 3))
    def test_bias_level_above_n_rejected(self, n, name):
        message = rf"^bias level k must lie in \[1, n={n}\], got {n + 1}$"
        with pytest.raises(InvalidInputError, match=message):
            TAKES_N_AND_K[name](n, n + 1)

    def test_members_are_biased(self):
        # the top D / 2^k inputs flip: neither constant nor balanced for k >= 2
        for n, k in ((2, 2), (4, 2), (4, 4)):
            flipped = 2**n - wk_spec(n, k).boundary
            assert flipped == 2 ** (n - k)
            assert 0 < flipped < 2**n and 2 * flipped != 2**n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fraction_double_derivation(self, n):
        for k in range(1, n + 1):
            closed = biased_fraction(k)
            geometric = 1.0 - (1.0 - 2.0 ** (1 - k)) ** 2
            assert closed == pytest.approx(geometric, abs=1e-12)


def walsh_vectors(n):
    """The Walsh basis the BASIS variant uses, as (D - 1, D) encoded rows."""
    return _complement_signs(n, ComplementVariant.BASIS) / math.sqrt(2**n)


class TestWalshBasis:
    def test_n1(self):
        rows = walsh_vectors(1)
        assert len(rows) == 1
        np.testing.assert_allclose(rows[0], [1 / math.sqrt(2), -1 / math.sqrt(2)])

    def test_n2_explicit(self):
        expected = 0.5 * np.array(
            [[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        )
        np.testing.assert_allclose(walsh_vectors(2), expected)

    @pytest.mark.parametrize("n", (1, 2, 3, 4, 6))
    def test_orthonormal_balanced_zero_sum(self, n):
        rows = walsh_vectors(n)
        assert len(rows) == 2**n - 1
        np.testing.assert_allclose(
            rows.conj() @ rows.T, np.eye(2**n - 1), atol=1e-12
        )
        # zero sum: every row is a balanced encoding, with D/2 signs of each kind
        np.testing.assert_allclose(rows.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_array_equal((rows < 0).sum(axis=1), 2 ** (n - 1))


class TestWalshSignMatrix:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_popcount_definition(self, n):
        d = 2**n
        expected = np.array(
            [[1.0 - 2.0 * ((r & x).bit_count() & 1) for x in range(d)] for r in range(1, d)]
        )
        signs = _complement_signs(n, ComplementVariant.BASIS)
        assert signs.dtype == expected.dtype and signs.shape == expected.shape
        np.testing.assert_array_equal(signs, expected)
        assert not signs.flags.writeable

    @pytest.mark.parametrize("n", range(1, 5))
    def test_full_rows_match_sorted_tables(self, n):
        # the table-by-table construction: one table per set of D/2 ones, sorted
        d = 2**n
        tables = []
        for ones in itertools.combinations(range(d), d // 2):
            table = [0] * d
            for x in ones:
                table[x] = 1
            tables.append(tuple(table))
        expected = 1.0 - 2.0 * np.array(sorted(tables), dtype=float)
        signs = _complement_signs(n, ComplementVariant.FULL)
        assert signs.dtype == expected.dtype and signs.shape == expected.shape
        np.testing.assert_array_equal(signs, expected)
        assert not signs.flags.writeable

    def test_cache_holds_one_matrix(self):
        # every kept matrix would stay for the process's life: 134 MB at n = 12
        for n in (3, 5, 2, 6):
            _complement_signs(n, ComplementVariant.BASIS)
        _complement_signs(2, ComplementVariant.FULL)
        assert _complement_signs.cache_info().currsize <= 1


def basis_overlap(n, k, eta1):
    """The average overlap S of the BASIS-variant problem at target prior eta1."""
    return optimal_filtering(boolean_problem(n, k, PriorMode.CUSTOM, eta1=eta1)).overlap_S


class TestAverageOverlaps:
    def test_basis_value_at_quarter_prior(self):
        assert basis_overlap(2, 2, 0.25) == pytest.approx(3 / 16, abs=1e-15)
        assert average_overlap_full(2, 2, 0.25).closed_form == pytest.approx(3 / 16, abs=1e-15)

    @pytest.mark.parametrize("eta1", (0.1, 0.25, 0.5, 0.9))
    def test_basis_formula_any_prior(self, eta1):
        assert basis_overlap(2, 2, eta1) == pytest.approx((1 - eta1) / 4, abs=1e-15)

    def test_unit_prior_gives_zero(self):
        pair = average_overlap_full(3, 2, 1.0)
        assert pair.closed_form == 0.0 and pair.enumerated == 0.0

    def test_full_matches_basis_everywhere(self):
        for n in range(2, 5):
            for k in range(2, n + 1):
                for eta1 in (0.1, 1.0 / 2**n, 0.5):
                    full = average_overlap_full(n, k, eta1)
                    assert full.enumerated == pytest.approx(
                        basis_overlap(n, k, eta1), abs=1e-12
                    )

    def test_full_individual_overlaps_at_n2(self):
        spec = wk_spec(2, 2)
        encs = [dj_encode(fn) for fn in enumerate_balanced(2)]
        overlaps_sq = [
            abs(spec.vector.amplitudes.conj() @ e.amplitudes) ** 2 for e in encs
        ]
        np.testing.assert_allclose(overlaps_sq, 0.25, atol=1e-15)

    @pytest.mark.parametrize("eta1", (0.0, 1.5, math.nan))
    def test_prior_range_named(self, eta1):
        with pytest.raises(InvalidInputError, match=rf"\(0, 1\], got {eta1!r}"):
            average_overlap_full(3, 2, eta1)

    def test_k_range_validation(self):
        with pytest.raises(InvalidInputError):
            average_overlap_full(3, 1, 0.5)
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
            assert sum(fn.truth_table) == 4

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
        # the encodings of the parity functions r.x, r = 1..D-1
        d = 2**n
        parity = [tuple((r & x).bit_count() & 1 for x in range(d)) for r in range(1, d)]
        walsh = np.vstack([dj_encode(BooleanFunction(n, table)).amplitudes for table in parity])
        np.testing.assert_array_equal(boolean_problem(n, 2).state_matrix[1:], walsh)

    def test_full_complement_is_every_balanced_encoding(self):
        encodings = np.vstack([dj_encode(fn).amplitudes for fn in enumerate_balanced(3)])
        problem = boolean_problem(3, 2, variant=ComplementVariant.FULL)
        np.testing.assert_array_equal(problem.state_matrix[1:], encodings)

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

    @pytest.mark.parametrize("eta1", (0.0, 1.0, 1.5, math.nan))
    def test_custom_eta1_outside_unit_interval_rejected(self, eta1):
        with pytest.raises(InvalidInputError, match=rf"\(0, 1\), got {eta1!r}"):
            boolean_problem(2, 2, PriorMode.CUSTOM, eta1=eta1)

    def test_custom_requires_eta1(self):
        with pytest.raises(InvalidInputError):
            boolean_problem(2, 2, PriorMode.CUSTOM)

    @pytest.mark.parametrize("mode", [m for m in PriorMode if m is not PriorMode.CUSTOM])
    def test_eta1_rejected_outside_custom_mode(self, mode):
        with pytest.raises(InvalidInputError, match="eta1=0.3"):
            boolean_problem(2, 2, mode, eta1=0.3)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: boolean_problem(3, 2, variant="bogus"),
             "variant must be one of basis, full, got 'bogus'"),
            (lambda: boolean_problem(3, 2, prior_mode="nope"),
             "prior_mode must be one of equal-states-basis, .*'nope'"),
            (lambda: MeasurementScheme(kind="x", vectors=[[1.0, 0.0]]),
             "kind must be one of SQM1, SQM2, POVM, got 'x'"),
        ],
        ids=["variant", "prior-mode", "scheme-kind"],
    )
    def test_unknown_choice_named(self, call, message):
        with pytest.raises(InvalidInputError, match=message):
            call()


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


class TestPovmWindow:
    @pytest.mark.parametrize("eta1", (0.0, 1.0, 1.5, math.nan))
    def test_prior_range_named(self, eta1):
        with pytest.raises(InvalidInputError, match=rf"\(0, 1\), got {eta1!r}"):
            approximate_povm_window(3, 2, eta1)

    @pytest.mark.parametrize(
        "argv, eta1",
        [
            (("--n", "3", "--k", "2"), 0.125),
            (("--n", "5", "--k", "3", "--prior-mode", "custom", "--eta1", "0.2"), 0.2),
            (("--n", "4", "--k", "2", "--variant", "full", "--prior-mode", "equal-sets"), 0.5),
        ],
        ids=["basis", "custom", "full-equal-sets"],
    )
    def test_report_groups_are_the_records(self, capsys, argv, eta1):
        assert main(["boolean", *argv]) == 0
        payload = json.loads(capsys.readouterr().out)
        n, k = payload["n"], payload["k"]
        assert payload["eta1"] == eta1
        assert payload["povm_advantage"] == _round12(povm_advantage(n, k)._asdict())
        window = approximate_povm_window(n, k, eta1)
        assert payload["approx_povm_window"] == _round12(window._asdict())
        assert window.scaled_prior == 2**n * eta1


class TestClassicalQueries:
    def test_balanced_vs_constant(self):
        assert classical_query_count(3, 2)[0] == 5

    def test_biased_vs_balanced(self):
        assert classical_query_count(3, 2) == (5, 7)
        assert classical_query_count(4, 2) == (9, 13)

    def test_k_equals_n(self):
        for n in (2, 3, 5):
            assert classical_query_count(n, n)[1] == 2 ** (n - 1) + 2

    @pytest.mark.parametrize("to", (int, np.int64), ids=["int", "int64"])
    @pytest.mark.parametrize(
        "n, k, counts",
        [(8, 3, (129, 161)), (70, 2, (590295810358705651713, 885443715538058477569))],
        ids=["n8", "n70"],
    )
    def test_exact_python_ints_from_any_integer_input(self, to, n, k, counts):
        result = classical_query_count(to(n), to(k))
        assert result == counts
        assert [type(count) for count in result] == [int, int]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            classical_query_count(2, 3)
