import math

import numpy as np
import pytest

from qfilter import FilteringProblem, StateVector, boolean_problem


@pytest.fixture
def walsh_problem():
    """Biased vector vs. the 3-element balanced basis at n = k = 2, equal priors.

    Reference values: S = 3/16, f = 3/4, optimal Q = sqrt(3)/4 in the
    generalized-measurement regime with q1 = sqrt(3)/2.
    """
    return boolean_problem(2, 2)


@pytest.fixture
def figure_point_problem():
    """A concrete 3-state ensemble realizing eta1=0.4, f=0.25, S=0.1.

    Target sqrt(0.75)|0> + 0.5|1>; complement {|1>, sqrt(1/3)|1> + sqrt(2/3)|2>}
    with priors (0.4, 0.3, 0.3). Both projective strategies fail with
    probability 0.5 and the generalized measurement with 0.4.
    """
    target = StateVector(np.array([math.sqrt(0.75), 0.5, 0.0], dtype=complex))
    comp_a = StateVector(np.array([0.0, 1.0, 0.0], dtype=complex))
    comp_b = StateVector(np.array([0.0, math.sqrt(1 / 3), math.sqrt(2 / 3)], dtype=complex))
    return FilteringProblem(states=(target, comp_a, comp_b), priors=(0.4, 0.3, 0.3))


@pytest.fixture
def symmetric_pair_problem():
    """Two real states with overlap 0.6 at equal priors (q1 = q2 = 0.6)."""
    a = StateVector(np.array([1.0, 0.0], dtype=complex))
    b = StateVector(np.array([0.6, 0.8], dtype=complex))
    return FilteringProblem(states=(a, b), priors=(0.5, 0.5))


@pytest.fixture
def orthogonal_pair_problem():
    """Target orthogonal to the single complement state (perfect filtering)."""
    return FilteringProblem(
        states=(
            StateVector(np.array([1.0, 0.0], dtype=complex)),
            StateVector(np.array([0.0, 1.0], dtype=complex)),
        ),
        priors=(0.5, 0.5),
    )


@pytest.fixture
def contained_target_problem():
    """Target inside the complement span (f = 1): SQM2 is degenerate."""
    s = 1 / math.sqrt(2)
    return FilteringProblem(
        states=(
            StateVector(np.array([s, s], dtype=complex)),
            StateVector(np.array([1.0, 0.0], dtype=complex)),
            StateVector(np.array([0.0, 1.0], dtype=complex)),
        ),
        priors=(0.5, 0.25, 0.25),
    )


def random_problem(rng, max_dim=16, max_states=16, min_states=2):
    """A fully random ensemble with priors bounded away from zero."""
    d = int(rng.integers(2, max_dim + 1))
    n = int(rng.integers(min_states, max_states + 1))
    raw = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    raw /= np.linalg.norm(raw, axis=1)[:, None]
    priors = rng.uniform(0.1, 1.0, size=n)
    priors /= priors.sum()
    return FilteringProblem(
        states=tuple(StateVector(row) for row in raw), priors=priors
    )


def band_problem(d):
    """psi_1 = e1, psi_2 = (d, sqrt(1 - d^2), 0), psi_3 = e2 at priors (0.5, 0.25, 0.25).

    For d up to 1.4e-8 the complement's second singular value, about
    d / sqrt(2), falls below RANK_TOL, so the span cut drops the direction
    that carries psi_1 and f reads ~0 where it is 1. ``optimal_filtering``
    raises NumericalError for d from 8e-17 to 1.4e-8 (at 2e-16 the rounding
    happens to pass its span-leak check); at 7e-17 and below it reports the
    POVM with f = 0, and from 1.45e-8 up the SQM2 boundary with f = 1.
    """
    return FilteringProblem(
        states=(
            StateVector(np.array([1.0, 0.0, 0.0])),
            StateVector(np.array([d, math.sqrt(1.0 - d * d), 0.0])),
            StateVector(np.array([0.0, 1.0, 0.0])),
        ),
        priors=(0.5, 0.25, 0.25),
    )
