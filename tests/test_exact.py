"""An exact oracle for the target split, on the amplitudes as stored.

A problem stores its amplitudes and priors as binary floats, and each float
is an exact rational. Here, in ``fractions.Fraction`` arithmetic, an
unnormalized Gram-Schmidt pass over the complement gives the rank of its span
and f = sum_j |<v_j|psi_1>|^2 / <v_j|v_j>, and S = sum_i eta_i |<psi_1|psi_i>|^2
follows from the overlaps. ``optimal_filtering`` must report the same f, S and
regime, and ``_row_basis`` the same rank, on four families of small ensembles:
random ones in general position, exactly rank-deficient ones, ones whose
complement spans the whole space (N - 1 >= D), and ones with a direction kept
just above RANK_TOL. On the full-span ones the split is exact: the span basis
is the identity and psi_perp is exactly 0.
"""
from fractions import Fraction

import numpy as np
import pytest

from qfilter import FilteringProblem, Regime, decompose_target, optimal_filtering
from qfilter.ensemble import _row_basis
from qfilter.tolerances import RANK_TOL

# Each phase below is exact on any stored float: it only swaps and negates parts.
PHASES = (1, -1, 1j, -1j)


def exact(row):
    """A stored complex row as (real, imaginary) pairs of Fractions."""
    return [(Fraction(float(z.real)), Fraction(float(z.imag))) for z in row]


def inner(a, b):
    """<a|b> = sum_k conj(a_k) b_k, exactly."""
    re = sum((ar * br + ai * bi for (ar, ai), (br, bi) in zip(a, b)), Fraction(0))
    im = sum((ar * bi - ai * br for (ar, ai), (br, bi) in zip(a, b)), Fraction(0))
    return re, im


def norm_sq(z):
    return z[0] * z[0] + z[1] * z[1]


def exact_split(problem):
    """(rank, f, S) of the problem's stored floats, exactly."""
    rows = [exact(row) for row in problem.state_matrix]
    target, complement = rows[0], rows[1:]
    basis = []
    for w in complement:
        v = list(w)
        for u, u_sq in basis:
            c = inner(u, w)
            cr, ci = c[0] / u_sq, c[1] / u_sq
            v = [
                (vr - (cr * ur - ci * ui), vi - (cr * ui + ci * ur))
                for (vr, vi), (ur, ui) in zip(v, u)
            ]
        v_sq = inner(v, v)[0]  # <v|v> is real, and 0 iff v is
        if v_sq:
            basis.append((v, v_sq))
    f = sum((norm_sq(inner(v, target)) / v_sq for v, v_sq in basis), Fraction(0))
    priors = [Fraction(float(p)) for p in problem.priors]
    s = sum(
        (eta * norm_sq(inner(target, w)) for eta, w in zip(priors[1:], complement)), Fraction(0)
    )
    return len(basis), f, s


def exact_regime(problem, f, s):
    """The regime the closed forms select for exact (eta1, f, S), and the
    distance of S from the nearest regime boundary."""
    eta1 = Fraction(float(problem.priors[0]))
    low, high = eta1 * f * f, eta1
    margin = float(min(abs(s - low), abs(s - high)))
    if low <= s <= high:
        return Regime.POVM, margin
    return (Regime.SQM1_BOUNDARY if s > high else Regime.SQM2_BOUNDARY), margin


def unit_rows(raw):
    return raw / np.linalg.norm(raw, axis=1)[:, None]


def gaussian(rng, n, d):
    return unit_rows(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)))


def problem_of(rng, target, complement):
    priors = rng.uniform(0.1, 1.0, size=len(complement) + 1)
    return FilteringProblem(states=np.vstack([target, complement]), priors=priors / priors.sum())


def general(seed):
    """Random states in general position, any shape."""
    rng = np.random.default_rng([seed, 0])
    d, n = int(rng.integers(2, 6)), int(rng.integers(2, 8))
    rows = gaussian(rng, n, d)
    return problem_of(rng, rows[0], rows[1:])


def deficient(seed):
    """Exactly rank-deficient complements: r < D independent states plus
    copies of them times 1, -1, i or -i, or dyadic rows with an exact
    dependency (four +-1/2 Hadamard rows sum to 2 e_1)."""
    rng = np.random.default_rng([seed, 1])
    if seed % 2:
        d = int(rng.integers(2, 6))
        r = int(rng.integers(1, d))
        base = gaussian(rng, r, d)
        copies = [
            PHASES[int(rng.integers(4))] * base[int(rng.integers(r))]
            for _ in range(int(rng.integers(1, 4)))
        ]
        complement = np.vstack([base, copies])
    else:
        d = int(rng.integers(5, 7))
        signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        complement = np.zeros((5, d), dtype=complex)
        complement[:4, :4] = signs * np.array(PHASES)[rng.integers(4, size=4), None]
        complement[4, 0] = PHASES[int(rng.integers(4))]
    complement = complement[rng.permutation(len(complement))]
    return problem_of(rng, gaussian(rng, 1, d)[0], complement)


def full_span(seed):
    """Complements of N - 1 >= D random states, which span C^D."""
    rng = np.random.default_rng([seed, 2])
    d = int(rng.integers(1, 6))
    rows = gaussian(rng, d + 1 + int(rng.integers(0, 4)), d)
    return problem_of(rng, rows[0], rows[1:])


def barely_kept(seed):
    """A last complement state within ~1e-7 of the span of the others: its
    direction is kept by RANK_TOL = 1e-8, and carries part of the target."""
    rng = np.random.default_rng([seed, 3])
    d = int(rng.integers(3, 6))
    k = int(rng.integers(1, d - 1))
    base = gaussian(rng, k, d)
    near = rng.normal(size=k) @ base + 3e-7 * gaussian(rng, 1, d)[0]
    return problem_of(rng, gaussian(rng, 1, d)[0], np.vstack([base, unit_rows(near[None])]))


FAMILIES = {
    "general": general, "deficient": deficient, "full_span": full_span, "barely_kept": barely_kept
}
COUNTS = {"general": 80, "deficient": 60, "full_span": 60, "barely_kept": 30}
CASES = [(name, seed) for name, count in COUNTS.items() for seed in range(count)]


@pytest.mark.parametrize("family, seed", CASES, ids=[f"{name}-{seed}" for name, seed in CASES])
def test_split_matches_the_exact_oracle(family, seed):
    problem = FAMILIES[family](seed)
    rank, f, s = exact_split(problem)
    complement = problem.state_matrix[1:]
    assert _row_basis(complement)[1] == rank

    singular = np.linalg.svd(complement, compute_uv=False)
    kept = singular[singular > RANK_TOL]
    # a direction kept just above the cut is resolved to ~1e-16 / its singular value
    tol = 1e-12 if kept.min() > 1e-4 else 1e-7
    report = optimal_filtering(problem)
    assert report.parallel_norm_f == pytest.approx(min(float(f), 1.0), abs=tol)
    assert report.overlap_S == pytest.approx(float(s), rel=1e-14, abs=1e-300)
    regime, margin = exact_regime(problem, f, s)
    if margin > 1e-6:
        assert report.regime is regime


@pytest.mark.parametrize("seed", range(COUNTS["full_span"]))
def test_full_span_split_is_exact(seed):
    problem = full_span(seed)
    d = problem.dimension
    vh, rank = _row_basis(problem.state_matrix[1:])
    assert rank == d
    np.testing.assert_array_equal(vh, np.eye(d))
    dec = decompose_target(problem)
    assert not dec.perpendicular.any()
    np.testing.assert_array_equal(dec.parallel, problem.state_matrix[0])


def test_families_cover_each_kind_of_span():
    kinds = {"deficient": 0, "full_span": 0}
    for family, seed in CASES:
        problem = FAMILIES[family](seed)
        rank = exact_split(problem)[0]
        n, d = problem.state_matrix[1:].shape
        kinds["deficient"] += rank < min(n, d)
        kinds["full_span"] += n >= d and rank == d
    assert len(CASES) >= 200
    assert kinds["deficient"] >= 40 and kinds["full_span"] >= 40, kinds
