import dataclasses
import json
import math

import numpy as np
import pytest

from qfilter import (
    FilteringProblem,
    InvalidInputError,
    Regime,
    average_overlap,
    failure_curve,
    optimal_filtering,
    povm_window,
    q_povm,
    q_sqm1,
    q_sqm2,
)
from conftest import random_problem

ROOT3 = math.sqrt(3.0)


class TestClosedForms:
    def test_q_sqm1_values(self):
        assert q_sqm1(0.4, 0.1) == pytest.approx(0.5, abs=1e-15)
        assert q_sqm1(0.3, 0.0) == 0.3
        assert q_sqm1(0.25, 3 / 16) == pytest.approx(7 / 16, abs=1e-15)

    def test_q_sqm2_values(self):
        assert q_sqm2(0.4, 0.25, 0.1) == pytest.approx(0.5, abs=1e-15)
        # boundary equality with the generalized measurement at S = eta1 * f^2
        assert q_sqm2(0.4, 0.25, 0.025) == pytest.approx(0.2, abs=1e-15)
        assert q_sqm2(0.25, 0.75, 3 / 16) == pytest.approx(7 / 16, abs=1e-15)

    def test_q_sqm2_degenerate_parallel_norm(self):
        assert q_sqm2(0.4, 0.0, 0.0) == 0.0
        with pytest.raises(InvalidInputError, match="inconsistent"):
            q_sqm2(0.4, 0.0, 0.1)

    def test_q_povm_values(self):
        assert q_povm(0.4, 0.1) == pytest.approx(0.4, abs=1e-15)
        assert q_povm(0.7, 0.0) == 0.0
        assert q_povm(0.4, 0.4) == pytest.approx(0.8, abs=1e-15)  # = q_sqm1 at S = eta1

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            q_sqm1(0.0, 0.1)
        with pytest.raises(InvalidInputError):
            q_sqm1(1.0, 0.1)
        with pytest.raises(InvalidInputError):
            q_povm(0.4, -0.1)
        with pytest.raises(InvalidInputError):
            q_sqm2(0.4, 1.5, 0.1)


class TestAverageOverlap:
    def test_orthogonal_complement(self, orthogonal_pair_problem):
        assert average_overlap(orthogonal_pair_problem) == 0.0

    def test_figure_point(self, figure_point_problem):
        assert average_overlap(figure_point_problem) == pytest.approx(0.1, abs=1e-12)

    def test_walsh_problem(self, walsh_problem):
        # three overlaps of squared magnitude 1/4 at prior 1/4 each
        assert average_overlap(walsh_problem) == pytest.approx(3 / 16, abs=1e-15)

    def test_bounded_by_complement_weight(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p = random_problem(rng, max_dim=6, max_states=8)
            s = average_overlap(p)
            assert 0.0 <= s <= 1.0 - float(p.priors[0]) + 1e-12


class TestOptimalFiltering:
    def test_unit_target_prior_rejected(self):
        # priors (1, 1e-10) sum to 1 within NORM_TOL, but eta1 = 1 leaves no complement
        problem = FilteringProblem(
            states=(np.eye(2)[0], np.eye(2)[1]), priors=(1.0, 1e-10)
        )
        with pytest.raises(InvalidInputError, match=r"\(0, 1\), got 1\.0"):
            optimal_filtering(problem)

    def test_interior_regime_at_figure_point(self, figure_point_problem):
        report = optimal_filtering(figure_point_problem)
        assert report.regime is Regime.POVM
        assert report.optimal_Q == pytest.approx(0.4, abs=1e-12)
        assert report.optimal_q1 == pytest.approx(0.5, abs=1e-12)
        assert report.q_sqm1 == pytest.approx(0.5, abs=1e-12)
        assert report.q_sqm2 == pytest.approx(0.5, abs=1e-12)

    def test_walsh_problem_report(self, walsh_problem):
        report = optimal_filtering(walsh_problem)
        assert report.regime is Regime.POVM
        assert report.optimal_Q == pytest.approx(ROOT3 / 4, abs=1e-12)
        assert report.optimal_q1 == pytest.approx(ROOT3 / 2, abs=1e-12)
        np.testing.assert_allclose(
            report.per_state_failure[1:], 1 / (2 * ROOT3), atol=1e-12
        )
        # cross-check the prior-weighted sum quoted for this problem
        manual = 0.25 * report.optimal_q1 + 3 * 0.25 * (1 / (2 * ROOT3))
        assert report.optimal_Q == pytest.approx(manual, abs=1e-12)

    def test_to_dict_keys_are_the_fields_in_order(self, walsh_problem):
        report = optimal_filtering(walsh_problem)
        payload = report.to_dict()
        assert list(payload) == [field.name for field in dataclasses.fields(report)]
        assert payload["regime"] == "POVM" and type(payload["regime"]) is str
        assert payload["per_state_failure"] == report.per_state_failure.tolist()
        assert json.loads(json.dumps(payload)) == payload

    def test_report_consistency_invariants(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            p = random_problem(rng, max_dim=8, max_states=10)
            report = optimal_filtering(p)
            q, prob = report.per_state_failure, report.per_state_success
            assert np.all(q + prob == 1.0)  # exact complement
            assert report.optimal_Q == pytest.approx(
                float(p.priors @ q), abs=1e-12
            )
            assert report.optimal_Q <= min(report.q_sqm1, report.q_sqm2) + 1e-12
            assert report.average_success == pytest.approx(1 - report.optimal_Q, abs=1e-15)
            # product rule residual for every complement state
            overlaps_sq = np.abs(p.state_matrix[1:] @ p.state_matrix[0].conj()) ** 2
            np.testing.assert_allclose(
                report.optimal_q1 * q[1:], overlaps_sq, atol=1e-12
            )
            if report.q_povm is not None:
                assert report.q_povm <= report.q_sqm1 + 1e-12
                assert report.q_povm <= report.q_sqm2 + 1e-12

    def test_grid_oracle_small(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0.0, 1.0, 200_001)
        for _ in range(25):
            eta1 = rng.uniform(0.05, 0.95)
            f = rng.uniform(0.05, 1.0)
            s = rng.uniform(0.0, 1.3 * eta1)
            row = failure_curve(eta1, f, [s])[0]
            qs = f + (1 - f) * grid
            brute = float(np.min(eta1 * qs + np.divide(s, qs, out=np.full_like(qs, np.inf), where=qs > 0)))
            assert row.q_opt == pytest.approx(brute, abs=1e-9)


class TestFailureCurve:
    def test_lower_boundary_row(self):
        row = failure_curve(0.4, 0.25, [0.025])[0]
        assert row.q_povm == pytest.approx(0.2, abs=1e-12)
        assert row.q_sqm2 == pytest.approx(0.2, abs=1e-12)
        assert row.regime is Regime.POVM  # boundary ties resolve to POVM

    def test_upper_boundary_row(self):
        row = failure_curve(0.4, 0.25, [0.4])[0]
        assert row.q_povm == pytest.approx(0.8, abs=1e-12)
        assert row.q_sqm1 == pytest.approx(0.8, abs=1e-12)
        assert row.regime is Regime.POVM

    def test_zero_overlap_row(self):
        row = failure_curve(0.4, 0.25, [0.0])[0]
        assert row.regime is Regime.SQM2_BOUNDARY
        assert row.q_opt == pytest.approx(0.1, abs=1e-15)
        assert row.q_povm is None

    def test_sqm1_regime_above_eta1(self):
        row = failure_curve(0.4, 0.25, [0.5])[0]
        assert row.regime is Regime.SQM1_BOUNDARY
        assert row.q_opt == pytest.approx(0.9, abs=1e-12)
        assert row.q_povm is None

    def test_continuity_at_regime_boundaries(self):
        eps = 1e-9
        for boundary in (0.025, 0.4):
            lo, hi = failure_curve(0.4, 0.25, [boundary - eps, boundary + eps])
            assert abs(hi.q_opt - lo.q_opt) < 1e-7

    def test_dominance_inside_window(self):
        rows = failure_curve(0.4, 0.25, np.linspace(0.025, 0.4, 301))
        for row in rows:
            assert row.q_povm is not None
            assert row.q_povm <= row.q_sqm1 + 1e-12
            assert row.q_povm <= row.q_sqm2 + 1e-12

    def test_window_predicate(self):
        assert povm_window(0.4, 0.25, 0.025)
        assert povm_window(0.4, 0.25, 0.4)
        assert not povm_window(0.4, 0.25, 0.0249999)
        assert not povm_window(0.4, 0.25, 0.4000001)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            failure_curve(0.0, 0.25, [0.1])
        with pytest.raises(InvalidInputError):
            failure_curve(0.4, 0.25, [-0.1])

    def test_rejects_two_dimensional_overlaps(self):
        with pytest.raises(InvalidInputError, match=r"one-dimensional, got shape \(2, 2\)"):
            failure_curve(0.4, 0.25, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", (-0.1, math.inf, math.nan))
    def test_first_bad_overlap_named(self, bad):
        with pytest.raises(InvalidInputError) as caught:
            failure_curve(0.4, 0.25, [0.1, bad, -7.0])
        assert str(caught.value) == (
            f"average overlap must be finite and >= 0, got {float(bad)!r}"
        )

    @pytest.mark.parametrize("f", (0.0, 0.25, 1.0))
    def test_columns_equal_scalar_forms(self, f):
        eta1 = 0.4
        grid = np.concatenate([
            [0.0, -0.0, eta1 * f**2, eta1, 5e-324],
            np.linspace(0.0, 0.6, 601),
            np.random.default_rng(5).uniform(0.0, 0.6, 200),
        ])
        curve = failure_curve(eta1, f, grid)
        assert len(curve) == grid.size
        for s, row in zip(grid.tolist(), curve):
            inside = povm_window(eta1, f, s)
            assert row.s == s
            assert row.q_sqm1 == q_sqm1(eta1, s)
            assert row.q_sqm2 == (q_sqm2(eta1, f, s) if f > 0.0 or s == 0.0 else math.inf)
            assert row.q_povm == (q_povm(eta1, s) if inside else None)
            expected = Regime.POVM if inside else (
                Regime.SQM1_BOUNDARY if s > eta1 else Regime.SQM2_BOUNDARY
            )
            assert row.regime is expected
            assert row.q_opt == {
                Regime.POVM: row.q_povm,
                Regime.SQM1_BOUNDARY: row.q_sqm1,
                Regime.SQM2_BOUNDARY: row.q_sqm2,
            }[expected]

    def test_sequence_access(self):
        curve = failure_curve(0.4, 0.25, (s for s in (0.0, 0.1, 0.5)))
        assert len(curve) == 3
        assert curve[-1].regime is Regime.SQM1_BOUNDARY
        assert [r.s for r in curve[1:]] == [0.1, 0.5]
        with pytest.raises(IndexError):
            curve[3]
        assert len(failure_curve(0.4, 0.25, [])) == 0


class TestTwoStateLiteratureOracle:
    """N = 2 filtering is two-state unambiguous discrimination with unequal priors.

    Jaeger & Shimony, Phys. Lett. A 197, 83 (1995): Q = 2 sqrt(eta1 eta2)|s|
    when |s|^2 <= min(eta1/eta2, eta2/eta1), otherwise min(eta) + max(eta)|s|^2.
    At equal priors this is the Ivanovic-Dieks-Peres limit Q = |s|.
    """

    @staticmethod
    def pair(rng, eta1, s):
        d = int(rng.integers(2, 5))
        raw = rng.normal(size=(2, d)) + 1j * rng.normal(size=(2, d))
        target = raw[0] / np.linalg.norm(raw[0])
        other = raw[1] - target * (target.conj() @ raw[1])
        other /= np.linalg.norm(other)
        second = s * target + math.sqrt(1.0 - abs(s) ** 2) * other
        return FilteringProblem(states=(target, second), priors=(eta1, 1.0 - eta1))

    def test_random_pairs(self):
        rng = np.random.default_rng(2024)
        branches = set()
        for _ in range(2000):
            eta1 = float(rng.uniform(0.01, 0.99))
            eta2 = 1.0 - eta1
            s = math.sqrt(rng.uniform(0.0, 1.0)) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
            mod_sq = abs(s) ** 2
            interior = mod_sq <= min(eta1 / eta2, eta2 / eta1)
            branches.add(interior)
            expected = (
                2.0 * math.sqrt(eta1 * eta2) * abs(s)
                if interior
                else min(eta1, eta2) + max(eta1, eta2) * mod_sq
            )
            report = optimal_filtering(self.pair(rng, eta1, s))
            assert report.optimal_Q == pytest.approx(expected, abs=1e-12)
        assert branches == {True, False}

    def test_equal_priors_reduce_to_idp(self):
        rng = np.random.default_rng(2025)
        for s in (0.0, 0.1, 0.5, 0.9, 0.99):
            report = optimal_filtering(self.pair(rng, 0.5, s))
            assert report.optimal_Q == pytest.approx(s, abs=1e-12)
