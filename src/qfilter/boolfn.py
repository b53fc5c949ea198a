"""Discriminating biased Boolean functions from balanced ones.

An n-bit Boolean function is encoded as the unit vector with amplitudes
(-1)^f(x) / sqrt(D) over the D = 2^n computational basis states. Balanced
functions encode into the zero-sum subspace (dimension D-1), for which the
nonconstant Walsh functions (-1)^(r.x) provide an orthonormal basis whose
members are themselves encodings of balanced truth tables. The biased family
treated here consists of the two functions that flip value only on the top
2^n / 2^k inputs; both encode (up to sign) to the same vector, the filtering
target.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .ensemble import FilteringProblem, StateVector
from .errors import InvalidInputError, NumericalError, ResourceLimitError

FULL_ENUMERATION_MAX_BITS = 4  # C(16, 8) = 12,870 functions; larger explodes
IDENTITY_TOL = 1e-12


class FunctionClass(str, Enum):
    CONSTANT = "CONSTANT"
    BALANCED = "BALANCED"
    BIASED = "BIASED"


@dataclass(frozen=True)
class BooleanFunction:
    """A truth table of length 2^n with its output-count classification."""

    n: int
    truth_table: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInputError("bit count n must be >= 1")
        table = tuple(int(b) for b in self.truth_table)
        if len(table) != 2**self.n:
            raise InvalidInputError(
                f"truth table length {len(table)} != 2^{self.n}"
            )
        if any(b not in (0, 1) for b in table):
            raise InvalidInputError("truth table entries must be 0 or 1")
        object.__setattr__(self, "truth_table", table)

    @property
    def ones_count(self) -> int:
        return sum(self.truth_table)

    @property
    def zeros_count(self) -> int:
        return len(self.truth_table) - self.ones_count

    @property
    def function_class(self) -> FunctionClass:
        m1 = self.ones_count
        if m1 == 0 or m1 == len(self.truth_table):
            return FunctionClass.CONSTANT
        if 2 * m1 == len(self.truth_table):
            return FunctionClass.BALANCED
        return FunctionClass.BIASED


def dj_encode(fn: BooleanFunction) -> StateVector:
    """Encode a truth table as the sign vector (-1)^f(x) / sqrt(D)."""
    table = np.asarray(fn.truth_table, dtype=float)
    return StateVector((1.0 - 2.0 * table) / math.sqrt(table.size))


def biased_fraction(k: int) -> float:
    """Squared norm of the biased vector's component inside the balanced span.

    Closed form (2^k - 1) / 2^(2k - 2); equivalently 1 - (1 - 2^(1-k))^2 from
    the overlap with the constant direction.
    """
    if k < 1:
        raise InvalidInputError("bias level k must be >= 1")
    return (2.0**k - 1.0) / 2.0 ** (2 * k - 2)


@dataclass(frozen=True, eq=False)
class WkSpec:
    """The two biased functions flipping on the top 2^n/2^k inputs.

    Both members encode, up to a global sign, to ``vector``; ``f_k`` is its
    squared weight inside the balanced subspace. ``degenerate`` marks k = 1,
    whose members are themselves balanced (f_1 = 1), so filtering against the
    full balanced set is impossible.
    """

    n: int
    k: int
    boundary: int
    member_functions: tuple[BooleanFunction, BooleanFunction]
    vector: StateVector
    f_k: float
    degenerate: bool


def wk_spec(n: int, k: int) -> WkSpec:
    """Construct the biased pair for bias level k on n bits (1 <= k <= n)."""
    if n < 1:
        raise InvalidInputError("bit count n must be >= 1")
    if not 1 <= k <= n:
        raise InvalidInputError(
            f"bias level k={k} must satisfy 1 <= k <= n={n} (the flip boundary "
            "is an integer only for k <= n)"
        )
    d = 2**n
    boundary = (2**k - 1) * 2 ** (n - k)  # = (1 - 2^-k) * 2^n, exact integer
    low_zero = BooleanFunction(n, tuple(0 if x < boundary else 1 for x in range(d)))
    low_one = BooleanFunction(n, tuple(1 - b for b in low_zero.truth_table))
    vector = dj_encode(low_zero)  # +1 amplitudes on the low block by convention

    f_k = biased_fraction(k)
    constant = np.full(d, 1.0 / math.sqrt(d))
    geometric = 1.0 - float(np.real(constant @ vector.amplitudes)) ** 2
    if abs(geometric - f_k) > IDENTITY_TOL:
        raise NumericalError(
            f"balanced-span weight mismatch: closed form {f_k!r} vs geometric {geometric!r}"
        )
    return WkSpec(
        n=n,
        k=k,
        boundary=boundary,
        member_functions=(low_zero, low_one),
        vector=vector,
        f_k=f_k,
        degenerate=(k == 1),
    )


@lru_cache(maxsize=None)
def _walsh_sign_matrix(n: int) -> np.ndarray:
    """Rows r = 1..D-1 of the D x D sign matrix (-1)^popcount(r & x)."""
    signs = np.ones((1, 1))
    for _ in range(n):  # Sylvester doubling: H_2d = [[H, H], [H, -H]]
        signs = np.block([[signs, signs], [signs, -signs]])
    rows = signs[1:]
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True, eq=False)
class BalancedBasis:
    """Orthonormal balanced-function encodings spanning the zero-sum subspace."""

    n: int
    vectors: tuple[StateVector, ...]
    functions: tuple[BooleanFunction, ...]


def walsh_balanced_basis(n: int) -> BalancedBasis:
    """The D-1 nonconstant Walsh vectors, each the encoding of a balanced table."""
    if n < 1:
        raise InvalidInputError("bit count n must be >= 1")
    d = 2**n
    signs = _walsh_sign_matrix(n)
    vectors = tuple(StateVector(row / math.sqrt(d)) for row in signs)
    functions = tuple(BooleanFunction(n, (row < 0).tolist()) for row in signs)
    return BalancedBasis(n=n, vectors=vectors, functions=functions)


class OverlapPair(NamedTuple):
    """An average overlap computed two independent ways."""

    closed_form: float
    enumerated: float


def _check_priors_for_overlap(k: int, n: int, eta1: float) -> float:
    if not 2 <= k <= n:
        raise InvalidInputError(f"bias level k={k} must satisfy 2 <= k <= n={n}")
    eta1 = float(eta1)
    if not 0.0 < eta1 <= 1.0:
        raise InvalidInputError(f"target prior must lie in (0, 1], got {eta1!r}")
    return eta1


def average_overlap_basis(n: int, k: int, eta1: float) -> OverlapPair:
    """Average overlap against the Walsh basis at uniform complement priors.

    Returns the closed form (1 - eta1) * f_k / (D - 1) together with the
    direct sum over the basis; the two must agree within 1e-12.
    """
    eta1 = _check_priors_for_overlap(k, n, eta1)
    spec = wk_spec(n, k)
    d = 2**n
    closed = (1.0 - eta1) * spec.f_k / (d - 1)
    basis = _walsh_sign_matrix(n) / math.sqrt(d)
    eta = (1.0 - eta1) / (d - 1)
    direct = float(eta * (np.abs(basis @ spec.vector.amplitudes) ** 2).sum())
    if abs(closed - direct) > IDENTITY_TOL:
        raise NumericalError(f"overlap derivations disagree: {closed!r} vs {direct!r}")
    return OverlapPair(closed_form=closed, enumerated=direct)


@lru_cache(maxsize=None)
def _balanced_tables(n: int) -> tuple[tuple[int, ...], ...]:
    d = 2**n
    tables = []
    for ones in itertools.combinations(range(d), d // 2):
        table = [0] * d
        for x in ones:
            table[x] = 1
        tables.append(tuple(table))
    tables.sort()
    return tuple(tables)


def enumerate_balanced(n: int) -> list[BooleanFunction]:
    """Every balanced function on n bits, in truth-table lexicographic order.

    Capped at n <= 4 (12,870 functions); beyond that the orthonormal-basis
    variant gives the same average overlap without the enumeration.
    """
    if n < 1:
        raise InvalidInputError("bit count n must be >= 1")
    if n > FULL_ENUMERATION_MAX_BITS:
        raise ResourceLimitError(
            f"full enumeration is capped at n <= {FULL_ENUMERATION_MAX_BITS} "
            f"(n={n} would enumerate C(2^n, 2^(n-1)) functions); use the "
            "orthonormal basis variant instead"
        )
    return [BooleanFunction(n, t) for t in _balanced_tables(n)]


def average_overlap_full(n: int, k: int, eta1: float) -> OverlapPair:
    """Average overlap against every balanced function, by brute force.

    The enumerated sum over all C(D, D/2) encodings at uniform complement
    priors must reproduce the same closed form as the basis variant within
    1e-12.
    """
    eta1 = _check_priors_for_overlap(k, n, eta1)
    if n > FULL_ENUMERATION_MAX_BITS:
        raise ResourceLimitError(
            f"full enumeration is capped at n <= {FULL_ENUMERATION_MAX_BITS}; "
            "use the orthonormal basis variant instead"
        )
    spec = wk_spec(n, k)
    d = 2**n
    closed = (1.0 - eta1) * spec.f_k / (d - 1)
    tables = np.asarray(_balanced_tables(n), dtype=float)
    signs = (1.0 - 2.0 * tables) / math.sqrt(d)
    eta = (1.0 - eta1) / tables.shape[0]
    enumerated = float(eta * (np.abs(signs @ spec.vector.amplitudes) ** 2).sum())
    if abs(closed - enumerated) > IDENTITY_TOL:
        raise NumericalError(f"overlap derivations disagree: {closed!r} vs {enumerated!r}")
    return OverlapPair(closed_form=closed, enumerated=enumerated)


class PriorMode(str, Enum):
    """How the target prior is assigned when building a filtering problem."""

    EQUAL_STATES_BASIS = "equal-states-basis"  # eta1 = 1/D
    EQUAL_SETS = "equal-sets"  # eta1 = 1/2
    EQUAL_STATES_FULL = "equal-states-full"  # eta1 = 1/(N+1) for N complements
    CUSTOM = "custom"


class ComplementVariant(str, Enum):
    BASIS = "basis"
    FULL = "full"


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
    set by ``prior_mode`` (pass ``eta1`` for CUSTOM).
    """
    prior_mode = PriorMode(prior_mode)
    variant = ComplementVariant(variant)
    spec = wk_spec(n, k)
    if spec.degenerate:
        raise InvalidInputError(
            "k = 1 is degenerate: both biased members are balanced, so the "
            "target cannot be filtered from the balanced set"
        )
    if variant == ComplementVariant.BASIS:
        complement = list(walsh_balanced_basis(n).vectors)
    else:
        complement = [dj_encode(fn) for fn in enumerate_balanced(n)]
    m = len(complement)
    d = 2**n

    if prior_mode == PriorMode.EQUAL_STATES_BASIS:
        target_prior = 1.0 / d
    elif prior_mode == PriorMode.EQUAL_SETS:
        target_prior = 0.5
    elif prior_mode == PriorMode.EQUAL_STATES_FULL:
        target_prior = 1.0 / (m + 1)
    else:
        if eta1 is None:
            raise InvalidInputError("custom prior mode requires eta1")
        target_prior = float(eta1)
        if not 0.0 < target_prior < 1.0:
            raise InvalidInputError(f"eta1 must lie in (0, 1), got {target_prior!r}")
    priors = np.full(m + 1, (1.0 - target_prior) / m)
    priors[0] = target_prior
    return FilteringProblem(states=(spec.vector, *complement), priors=priors)


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
    from .strategies import optimal_filtering  # cycle-free local import

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
    if not 1 <= k <= n:
        raise InvalidInputError(f"k={k} must satisfy 1 <= k <= n={n}")
    return 2 ** (n - 1) + 1, 2 ** (n - 1) + 2 ** (n - k) + 1


def approximate_povm_window(n: int, k: int, eta1: float) -> tuple[float, float, bool]:
    """The rule-of-thumb validity window for the generalized measurement.

    Returns (low, high, inside) for the condition low <= D*eta1 <= high with
    low = 1/2^(k-2), high = 2^(k-2). Informational only; the exact window is
    the one optimal_filtering applies.
    """
    low = 2.0 ** -(k - 2)
    high = 2.0 ** (k - 2)
    scaled = 2**n * float(eta1)
    return low, high, low <= scaled <= high
