"""Discriminating biased Boolean functions from balanced ones.

An n-bit Boolean function is encoded as the unit vector with amplitudes
(-1)^f(x) / sqrt(D) over the D = 2^n computational basis states. The biased
family treated here is the two functions that flip value only on the top
2^n / 2^k inputs; both encode (up to sign) to one vector, the filtering
target. The balanced complement comes from one cached matrix of sign rows
(-1)^f(x) per variant: the D-1 nonconstant Walsh functions (-1)^(r.x), an
orthonormal basis of the zero-sum subspace made of balanced encodings, or all
C(D, D/2) balanced functions. Each closed form is stated once; tests check it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ensemble import FilteringProblem, StateVector, _integer, _member, _real
from .errors import InvalidInputError, ResourceLimitError
from .strategies import _check_eta1, optimal_filtering

FULL_ENUMERATION_MAX_BITS = 4  # C(16, 8) = 12,870 functions; larger explodes


def _bit_count(n) -> int:
    """The bit count n as an int >= 1, or InvalidInputError."""
    n = _integer(n, "bit count n")
    if n < 1:
        raise InvalidInputError(f"bit count n must be >= 1, got {n!r}")
    return n


def _bits(n, k) -> tuple[int, int]:
    """(n, k) as ints with 1 <= k <= n (an integer flip boundary), or InvalidInputError."""
    n, k = _bit_count(n), _integer(k, "bias level k")
    if not 1 <= k <= n:
        raise InvalidInputError(f"bias level k must lie in [1, n={n}], got {k!r}")
    return n, k


def _filterable_bits(n, k) -> tuple[int, int]:
    """``_bits`` without k = 1, where the target cannot be filtered."""
    n, k = _bits(n, k)
    if k == 1:
        raise InvalidInputError(
            "k = 1 is degenerate: both biased members are balanced, so the "
            "target cannot be filtered from the balanced set"
        )
    return n, k


@dataclass(frozen=True)
class BooleanFunction:
    """A truth table of length 2^n, stored as a tuple of 0/1 ints."""

    n: int
    truth_table: tuple[int, ...]

    def __post_init__(self):
        n = _bit_count(self.n)
        table = tuple(self.truth_table)
        if len(table) != 2**n:
            raise InvalidInputError(f"truth table length {len(table)} != 2^{n}")
        bad = [b for b in table if b not in (0, 1)]  # before int() truncates 0.7 or parses "1"
        if bad:
            raise InvalidInputError(f"truth table entries must be 0 or 1, got {bad[0]!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "truth_table", tuple(int(b) for b in table))


def dj_encode(fn: BooleanFunction) -> StateVector:
    """Encode a truth table as the sign vector (-1)^f(x) / sqrt(D)."""
    table = np.asarray(fn.truth_table, dtype=float)
    return StateVector((1.0 - 2.0 * table) / math.sqrt(table.size))


def biased_fraction(k: int) -> float:
    """Squared norm of the biased vector's component inside the balanced span.

    Closed form (2^k - 1) / 2^(2k - 2); equivalently 1 - (1 - 2^(1-k))^2 from
    the overlap with the constant direction.
    """
    if _integer(k, "bias level k") < 1:
        raise InvalidInputError(f"bias level k must be >= 1, got {k!r}")
    return (2.0**k - 1.0) / 2.0 ** (2 * k - 2)


@dataclass(frozen=True, eq=False)
class WkSpec:
    """The two biased functions flipping on the top 2^n/2^k inputs.

    Both members, 0 below ``boundary`` and 1 from it on or the reverse, encode
    up to a global sign to ``vector`` (+1 amplitudes below ``boundary``);
    ``f_k`` is its squared weight inside the balanced subspace.
    """

    boundary: int
    vector: StateVector
    f_k: float


def wk_spec(n: int, k: int) -> WkSpec:
    """Construct the biased pair for bias level k on n bits (1 <= k <= n), with
    ``f_k = biased_fraction(k)``: the vector's weight is not re-derived per call."""
    n, k = _bits(n, k)
    d = 2**n
    boundary = (2**k - 1) * 2 ** (n - k)  # = (1 - 2^-k) * 2^n, exact integer
    vector = StateVector(np.where(np.arange(d) < boundary, 1.0, -1.0) / math.sqrt(d))
    return WkSpec(boundary=boundary, vector=vector, f_k=biased_fraction(k))


class ComplementVariant(str, Enum):
    BASIS = "basis"
    FULL = "full"


# typed: a call with 2.0 or True reaches the reader rather than a cached 2 or 1
@lru_cache(maxsize=1, typed=True)
def _complement_signs(n: int, variant: ComplementVariant) -> np.ndarray:
    """The read-only (M, D) matrix of complement sign rows (-1)^f(x).

    BASIS: rows r = 1..D-1 of the sign matrix (-1)^popcount(r & x), the Walsh
    functions; FULL: every balanced truth table, in lexicographic order.
    """
    n = _bit_count(n)
    if variant == ComplementVariant.BASIS:
        signs = np.ones((1, 1))
        for _ in range(n):  # Sylvester doubling: H_2d = [[H, H], [H, -H]]
            signs = np.block([[signs, signs], [signs, -signs]])
        rows = signs[1:]
    else:
        if n > FULL_ENUMERATION_MAX_BITS:
            raise ResourceLimitError(
                f"full enumeration is capped at n <= {FULL_ENUMERATION_MAX_BITS} "
                f"(n={n} would enumerate C(2^n, 2^(n-1)) functions); use the "
                "orthonormal basis variant instead"
            )
        # combinations() lists the sets of ones lexicographically; the earlier of
        # two sets has the 1 at their first difference, so reversed is table order.
        ones = np.array(list(itertools.combinations(range(2**n), 2 ** (n - 1)))[::-1])
        rows = np.ones((len(ones), 2**n))
        np.put_along_axis(rows, ones, -1.0, axis=1)
    rows.setflags(write=False)
    return rows


def enumerate_balanced(n: int) -> list[BooleanFunction]:
    """Every balanced function on n bits, in truth-table lexicographic order.

    Capped at n <= 4 (12,870 functions); beyond that the orthonormal-basis
    variant gives the same average overlap without the enumeration.
    """
    return [
        BooleanFunction(n, (row < 0).tolist())  # f(x) = 1 where the sign is -1
        for row in _complement_signs(n, ComplementVariant.FULL)
    ]


class OverlapPair(NamedTuple):
    """An average overlap computed two independent ways."""

    closed_form: float
    enumerated: float


def average_overlap_full(n: int, k: int, eta1: float) -> OverlapPair:
    """Average overlap against every balanced function, by brute force.

    Returns the closed form (1 - eta1) * f_k / (D - 1) and the direct sum over all
    C(D, D/2) encodings at uniform complement priors, not compared per call.
    """
    n, k = _filterable_bits(n, k)
    spec = wk_spec(n, k)
    eta1 = _real(eta1, "target prior eta1")
    if not 0.0 < eta1 <= 1.0:
        raise InvalidInputError(f"target prior must lie in (0, 1], got {eta1!r}")
    signs = _complement_signs(n, ComplementVariant.FULL)
    d = 2**n
    closed = (1.0 - eta1) * spec.f_k / (d - 1)
    eta = (1.0 - eta1) / signs.shape[0]
    direct = float(eta * (np.abs(signs / math.sqrt(d) @ spec.vector.amplitudes) ** 2).sum())
    return OverlapPair(closed_form=closed, enumerated=direct)


class PriorMode(str, Enum):
    """How the target prior is assigned when building a filtering problem."""

    EQUAL_STATES_BASIS = "equal-states-basis"  # eta1 = 1/D
    EQUAL_SETS = "equal-sets"  # eta1 = 1/2
    EQUAL_STATES_FULL = "equal-states-full"  # eta1 = 1/(N+1) for N complements
    CUSTOM = "custom"


def boolean_problem(
    n: int,
    k: int,
    prior_mode: PriorMode = PriorMode.EQUAL_STATES_BASIS,
    variant: ComplementVariant = ComplementVariant.BASIS,
    eta1: float | None = None,
) -> FilteringProblem:
    """Filtering problem: biased vector vs. balanced encodings.

    The complement is either the orthonormal Walsh basis or the full balanced
    enumeration; complement priors are always uniform, and the target prior is
    set by ``prior_mode``; ``eta1`` is given with CUSTOM and with no other mode.
    A call repeating the last one's n, k, variant and target prior returns the
    same immutable problem, whose decomposition is then computed only once.
    """
    prior_mode = _member(PriorMode, prior_mode, "prior_mode")
    variant = _member(ComplementVariant, variant, "variant")
    if (eta1 is None) == (prior_mode == PriorMode.CUSTOM):
        raise InvalidInputError(
            f"eta1={eta1!r} with prior mode {prior_mode.value}: custom needs eta1, others take none"
        )
    n, k = _filterable_bits(n, k)
    m = len(_complement_signs(n, variant))

    if prior_mode == PriorMode.EQUAL_STATES_BASIS:
        target_prior = 1.0 / 2**n
    elif prior_mode == PriorMode.EQUAL_SETS:
        target_prior = 0.5
    elif prior_mode == PriorMode.EQUAL_STATES_FULL:
        target_prior = 1.0 / (m + 1)
    else:
        target_prior = _check_eta1(eta1)
    return _boolean_problem(n, k, variant, target_prior)


@lru_cache(maxsize=1)
def _boolean_problem(n: int, k: int, variant: ComplementVariant, eta1: float) -> FilteringProblem:
    complement = _complement_signs(n, variant) / math.sqrt(2**n)
    m = len(complement)
    priors = np.full(m + 1, (1.0 - eta1) / m)
    priors[0] = eta1
    return FilteringProblem(states=(wk_spec(n, k).vector, *complement), priors=priors)


class AdvantageReport(NamedTuple):
    """Generalized-vs-projective failure ratio at equal per-state priors."""

    exact_ratio: float
    approx_ratio: float
    relative_gap: float


def povm_advantage(n: int, k: int) -> AdvantageReport:
    """Failure-probability ratio of the generalized measurement to the
    projective ones at eta1 = 1/D on the basis variant, where both projective
    strategies coincide. The large-k approximation is 4 / 2^(k/2).
    """
    report = optimal_filtering(boolean_problem(n, k, PriorMode.EQUAL_STATES_BASIS))
    exact = report.q_povm / report.q_sqm1
    approx = 4.0 / 2.0 ** (k / 2.0)
    return AdvantageReport(
        exact_ratio=float(exact),
        approx_ratio=approx,
        relative_gap=abs(exact - approx) / approx,
    )


def classical_query_count(n: int, k: int) -> tuple[int, int]:
    """Worst-case classical evaluation counts.

    Returns (balanced vs constant, biased-pair vs balanced):
    2^(n-1) + 1 and 2^n * (1/2 + 1/2^k) + 1, both exact integers.
    """
    n, k = _bits(n, k)
    return 2 ** (n - 1) + 1, 2 ** (n - 1) + 2 ** (n - k) + 1


class PovmWindow(NamedTuple):
    """The rule-of-thumb window low <= scaled_prior = D * eta1 <= high."""

    low: float
    high: float
    scaled_prior: float
    inside: bool


def approximate_povm_window(n: int, k: int, eta1: float) -> PovmWindow:
    """The rule-of-thumb window 1/2^(k-2) <= D * eta1 <= 2^(k-2) of the generalized
    measurement, for (n, k) as ``wk_spec`` reads them and eta1 in (0, 1).
    Informational only; the exact window is the one optimal_filtering applies."""
    n, k = _bits(n, k)
    low = 2.0 ** -(k - 2)
    high = 2.0 ** (k - 2)
    scaled = 2**n * _check_eta1(eta1)
    return PovmWindow(low, high, scaled, low <= scaled <= high)
