"""A closed-form dual certificate that each reported failure rate is optimal.

Unambiguous filtering is a semidefinite program (Eldar, IEEE Trans. Inf.
Theory 49, 446 (2003)). With P = |psi_1><psi_1|, the complement density
rho_c = sum_{i>=2} eta_i |psi_i><psi_i| and V the span of the complement
states, a filter (E_t, E_c, E_fail) succeeds with probability
eta1 <psi_1|E_t|psi_1> + tr(rho_c E_c), where E_t = P_Vperp E_t P_Vperp never
fires on a complement state and E_c = P_psi1perp E_c P_psi1perp never fires
on the target. Any Z that satisfies

    (1) Z >= 0,
    (2) P_Vperp (Z - eta1 P) P_Vperp >= 0,
    (3) P_psi1perp (Z - rho_c) P_psi1perp >= 0

bounds that success by tr Z: as I - E_t - E_c >= 0,
tr Z >= tr Z (E_t + E_c) >= eta1 tr(P E_t) + tr(rho_c E_c). So a feasible Z
with tr Z = 1 - optimal_Q proves that no unambiguous filter fails less often
than the report says.

Complementary slackness against the family's vectors (x_t, x_f) gives Z in
closed form in each regime, with S = <psi_1|rho_c|psi_1>, f the target's
squared norm inside V, and a, b the unit parallel and perpendicular parts of
psi_1. Each Z annihilates x_f (the failure element is slack in E_t + E_c <= I),
equals rho_c on the range of E_c and is tight along b, the range of E_t:

- POVM (eta1 f^2 <= S <= eta1): Z = K rho_c K with K = I - sqrt(eta1 / S) P,
  and tr Z = 1 - 2 sqrt(eta1 S);
- SQM1 boundary (S > eta1), and any regime at f = 1: K = I - P instead, and
  tr Z = 1 - eta1 - S;
- SQM2 boundary (S < eta1 f^2): Z = L rho_c L^dagger
  + (1 - f)(eta1 - S / f^2) |b><b| with L = I - |psi_1><a| / sqrt(f), and
  tr Z = 1 - eta1 f - S / f;
- S = 0 (every complement state orthogonal to the target):
  Z = rho_c + eta1 P, and tr Z = 1. The drawn S = 0 ensembles put every state
  on its own coordinate; a target orthogonal to a random complement is the
  strict xfail below, since its report raises.

The POVM form is feasible in every regime, so Q >= 2 sqrt(eta1 S) holds for
any unambiguous filter; the regime decides which bound is tight. The regime
is the report's, so a report that picks the wrong regime gets a Z that breaks
a constraint (a window of eta1 f <= S in place of eta1 f^2 <= S does).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfilter import (
    FilteringProblem, NumericalError, PriorMode, Regime, boolean_problem, decompose_target,
    optimal_filtering,
)
from qfilter.ensemble import _row_basis
from qfilter.tolerances import OPERATOR_TOL
from conftest import random_problem

SKEWED_ETA1 = (0.05, 0.5, 0.9, 0.97)
BOOLEAN = [
    (n, k, mode, eta1)
    for n, k in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3), (6, 3))
    for mode, eta1 in ((PriorMode.EQUAL_STATES_BASIS, None), (PriorMode.EQUAL_SETS, None),
                       *((PriorMode.CUSTOM, e) for e in SKEWED_ETA1))
]


def with_target_prior(problem, eta1):
    """The ensemble with target prior eta1 and the complement priors rescaled."""
    priors = problem.priors.copy()
    priors[1:] *= (1.0 - eta1) / priors[1:].sum()
    priors[0] = eta1
    return FilteringProblem(states=problem.state_matrix, priors=priors)


def orthonormal_problem(rng):
    """The target and the complement on distinct coordinates, with random phases:
    S = 0 and f = 0 exactly."""
    d = int(rng.integers(2, 17))
    n = int(rng.integers(2, d + 1))
    rows = np.zeros((n, d), dtype=np.complex128)
    rows[np.arange(n), rng.permutation(d)[:n]] = np.exp(2j * np.pi * rng.uniform(size=n))
    priors = rng.uniform(0.1, 1.0, size=n)
    return FilteringProblem(states=rows, priors=priors / priors.sum())


def target_orthogonal_to_a_random_complement(seed):
    """psi_1 = e1 and complement states drawn at random on the other coordinates."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    n = int(rng.integers(2, d + 1))
    rows = np.zeros((n, d), dtype=np.complex128)
    rows[0, 0] = 1.0
    rest = rng.normal(size=(n - 1, d - 1)) + 1j * rng.normal(size=(n - 1, d - 1))
    rows[1:, 1:] = rest / np.linalg.norm(rest, axis=1)[:, None]
    return FilteringProblem(states=rows, priors=np.full(n, 1.0 / n))


def drawn_problem(kind, seed, case):
    """The ensemble an ``ensembles()`` draw names."""
    if kind == "boolean":
        n, k, mode, eta1 = case
        return boolean_problem(n, k, prior_mode=mode, eta1=eta1)
    rng = np.random.default_rng(seed)
    if kind == "orthonormal":
        return orthonormal_problem(rng)
    problem = random_problem(rng)
    return with_target_prior(problem, case) if kind == "skewed" else problem


@st.composite
def ensembles(draw):
    """(kind, seed, case) naming a random, skewed-prior, Boolean or orthonormal
    ensemble; the case is the skewed target prior or the Boolean arguments."""
    kind = draw(st.sampled_from(["random", "skewed", "boolean"]))
    if kind == "random" and draw(st.integers(0, 3)) == 3:  # one random draw in four or so
        kind = "orthonormal"
    if kind == "boolean":
        return kind, 0, draw(st.sampled_from(BOOLEAN))
    case = draw(st.sampled_from(SKEWED_ETA1)) if kind == "skewed" else None
    return kind, draw(st.integers(0, 2**32 - 1)), case


def certificate(problem, regime):
    """(form, Z, P, rho_c, basis of V_perp) for the report's ``regime``; see the
    module docstring for each form."""
    rows, priors = problem.state_matrix, problem.priors
    target, eta1, identity = rows[0], float(priors[0]), np.eye(problem.dimension)
    rho_c = (rows[1:].T * priors[1:]) @ rows[1:].conj()
    p = np.outer(target, target.conj())
    vh, rank = _row_basis(rows[1:])
    parallel = vh[:rank].T @ (vh[:rank].conj() @ target)
    f = float(np.vdot(parallel, parallel).real)
    s = float(priors[1:] @ np.abs(rows[1:] @ target.conj()) ** 2)
    if s == 0.0:
        return "orthogonal", rho_c + eta1 * p, p, rho_c, vh[rank:]
    if rank == problem.dimension or regime is Regime.SQM1_BOUNDARY:
        form, k = ("full-span" if rank == problem.dimension else "sqm1"), identity - p
    elif regime is Regime.POVM:
        form, k = "povm", identity - math.sqrt(eta1 / s) * p
    else:
        a = parallel / math.sqrt(f)
        b = (target - parallel) / math.sqrt(1.0 - f)
        el = identity - np.outer(target, a.conj()) / math.sqrt(f)
        z = el @ rho_c @ el.conj().T + (1.0 - f) * (eta1 - s / f**2) * np.outer(b, b.conj())
        return "sqm2", z, p, rho_c, vh[rank:]
    return form, k @ rho_c @ k, p, rho_c, vh[rank:]


def certificate_margins(problem):
    """(form, the smallest eigenvalue of each constraint, tr Z - (1 - optimal_Q))."""
    report = optimal_filtering(problem)
    form, z, p, rho_c, v_perp = certificate(problem, report.regime)
    eta1 = float(problem.priors[0])
    on_v_perp = v_perp.conj() @ (z - eta1 * p) @ v_perp.T  # P_Vperp (Z - eta1 P) P_Vperp
    psi1_perp = np.eye(problem.dimension) - p
    smallest = [
        float(np.linalg.eigvalsh(z).min()),
        float(np.linalg.eigvalsh(on_v_perp).min()) if len(v_perp) else 0.0,
        float(np.linalg.eigvalsh(psi1_perp @ (z - rho_c) @ psi1_perp).min()),
    ]
    return form, smallest, float(np.trace(z).real) - (1.0 - report.optimal_Q)


def test_every_regime_has_a_feasible_dual_of_the_reported_value():
    seen = []

    @settings(max_examples=1200, deadline=None, derandomize=True, database=None)
    @given(drawn=ensembles())
    def check(drawn):
        form, smallest, gap = certificate_margins(drawn_problem(*drawn))
        assert min(smallest) >= -OPERATOR_TOL, (form, smallest)
        assert abs(gap) <= 1e-12, (form, gap)
        seen.append((drawn[0], form))

    check()
    assert sum(kind != "orthonormal" for kind, _ in seen) >= 1000
    kinds, forms = (set(column) for column in zip(*seen))
    assert kinds == {"random", "skewed", "orthonormal", "boolean"}
    assert forms == {"povm", "sqm1", "sqm2", "full-span", "orthogonal"}


@pytest.mark.xfail(strict=True, raises=NumericalError, reason=(
    "the span basis leaves f ~ 1e-32 where it is 0, so S = 0 < eta1 f^2 picks the SQM2 "
    "boundary at q1 = f, and the span-leak check divides rounding by sqrt(f)"
))
def test_a_target_orthogonal_to_a_random_complement_is_certified():
    problem = target_orthogonal_to_a_random_complement(0)
    assert 0.0 < decompose_target(problem).parallel_norm_sq < 1e-30
    form, smallest, gap = certificate_margins(problem)
    assert form == "orthogonal"
    assert min(smallest) >= -OPERATOR_TOL and abs(gap) <= 1e-12

