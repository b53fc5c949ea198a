"""Symmetry tests: the optimal report depends on the ensemble only up to the
symmetries of the filtering problem.

Four transforms leave the optimum unchanged: one unitary applied to every
state, a permutation of the complement, a phase on each state, and splitting
one complement state into two copies whose priors sum to its prior. Under
each, ``optimal_Q``, ``optimal_q1``, f and S must agree to 1e-12, and the
regime must agree unless S lies within 1e-9 of a window edge (eta1 f^2 or
eta1), where rounding may pick either side. Every transform is checked in
each of the three regimes, so a fast path that breaks a symmetry in one
branch fails here.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfilter import FilteringProblem, Regime, optimal_filtering
from conftest import random_problem

REPORT_TOL = 1e-12
EDGE_TOL = 1e-9
SYMMETRY_SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def problem_in(regime, seed):
    """The first ``random_problem`` whose optimum lies in ``regime``, drawn from
    seeds seed, seed + 1, ..., with its report and its generator."""
    for offset in itertools.count():
        rng = np.random.default_rng(seed + offset)
        problem = random_problem(rng, max_dim=10, max_states=14)
        report = optimal_filtering(problem)
        if report.regime is regime:
            return problem, report, rng


def rotate(problem, rng):
    """One random unitary U applied to every state: psi_i -> U psi_i."""
    d = problem.dimension
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return FilteringProblem(states=tuple(problem.state_matrix @ u.T), priors=problem.priors)


def permute_complement(problem, rng):
    order = [0, *(1 + rng.permutation(problem.n_states - 1))]
    return FilteringProblem(states=tuple(problem.state_matrix[order]), priors=problem.priors[order])


def rephase(problem, rng):
    phases = np.exp(2j * np.pi * rng.random(problem.n_states))
    return FilteringProblem(
        states=tuple(problem.state_matrix * phases[:, None]), priors=problem.priors
    )


def split_complement_state(problem, rng):
    """Complement state j becomes two copies at priors share * eta_j and the rest."""
    j = int(rng.integers(1, problem.n_states))
    share = rng.uniform(0.1, 0.9)
    priors = np.insert(problem.priors, j + 1, (1.0 - share) * problem.priors[j])
    priors[j] *= share
    states = np.insert(problem.state_matrix, j + 1, problem.state_matrix[j], axis=0)
    return FilteringProblem(states=tuple(states), priors=priors)


@pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
@pytest.mark.parametrize(
    "transform", [rotate, permute_complement, rephase, split_complement_state],
    ids=["unitary", "permutation", "phases", "split"],
)
@SYMMETRY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1))
def test_report_is_invariant(transform, regime, seed):
    problem, before, rng = problem_in(regime, seed)
    after = optimal_filtering(transform(problem, rng))
    for name in ("optimal_Q", "optimal_q1", "parallel_norm_f", "overlap_S"):
        assert getattr(after, name) == pytest.approx(getattr(before, name), abs=REPORT_TOL), name
    eta1, f, s = problem.priors[0], before.parallel_norm_f, before.overlap_S
    if min(abs(s - eta1 * f**2), abs(s - eta1)) > EDGE_TOL:
        assert after.regime is before.regime
