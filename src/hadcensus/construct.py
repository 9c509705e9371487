"""Hadamard matrix builders: Sylvester, Paley I and Paley II; plan_for, which
picks one for an order 2^l*k from (k, epsilon), and build_plan, which runs it."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import arith, solver
from .errors import DomainError, NoPrimeInRange
from .matrix import PlusMinusMatrix, extend_by_rotation

MAX_ORDER = 1 << 16  # largest order any builder materializes

SYLVESTER = "sylvester"
PALEY_I = "paley_i"
PALEY_II = "paley_ii"


@dataclass(frozen=True)
class ConstructionPlan:
    """Which one Sylvester or Paley matrix gives an order-n Hadamard matrix."""

    kind: str
    claimed_order: int
    certified: bool
    t: Optional[int] = None  # sylvester
    q: Optional[int] = None  # paley_i, paley_ii

    def to_json_dict(self):
        return {key: value for key, value in asdict(self).items() if value is not None}


def _check_paley_prime(q, kind):
    if not arith.is_prime(q):
        factors = arith.factorize(q) if q > 1 else {}
        if len(factors) == 1:
            raise DomainError(f"{q} is a prime power, not a prime; "
                              "prime-power Paley fields are unsupported")
        raise DomainError(f"{q} is not prime")
    want = 3 if kind == PALEY_I else 1
    if q % 4 != want:
        raise DomainError(f"{kind} requires q = {want} mod 4, got q = {q}")


def sylvester(t):
    """Order-2^t Sylvester matrix by recursive doubling."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t > MAX_ORDER.bit_length() - 1:
        raise DomainError(f"order 2^{t} exceeds max_order {MAX_ORDER}")
    rows = [0]
    size = 1
    for _ in range(t):
        mask = (1 << size) - 1
        rows = [r | (r << size) for r in rows] + [
            r | ((~r & mask) << size) for r in rows
        ]
        size *= 2
    return PlusMinusMatrix(size, rows)


def _quadratic_character_row(q):
    """chi(d) for d = 0..q-1 as an int8 array (chi(0) = 0)."""
    chi = np.full(q, -1, dtype=np.int8)
    sq = (np.arange(1, (q - 1) // 2 + 1, dtype=np.int64) ** 2) % q
    chi[sq] = 1
    chi[0] = 0
    return chi


def paley_I(q):
    """Paley construction I: order q+1 for prime q = 3 mod 4."""
    if q + 1 > MAX_ORDER:  # before the primality check trial-divides q
        raise DomainError(f"order {q + 1} exceeds max_order {MAX_ORDER}")
    _check_paley_prime(q, PALEY_I)
    chi = _quadratic_character_row(q)
    # Row 0 all +1; row 1 a +1 border, then -1 on the diagonal and chi(d)
    # for d = 1..q-1.  Core row i is row 1's core rotated by i.
    return extend_by_rotation([np.ones(q + 1), np.r_[1, -1, chi[1:]]])


def paley_II(q):
    """Paley construction II: order 2(q+1) for prime q = 1 mod 4."""
    n = 2 * (q + 1)
    if n > MAX_ORDER:
        raise DomainError(f"order {n} exceeds max_order {MAX_ORDER}")
    _check_paley_prime(q, PALEY_II)
    chi = _quadratic_character_row(q)
    # The first two rows of the symmetric conference matrix C of order q+1
    # (chi(-1) = +1 here; C's core is circulant), then the first four of
    # H = C (x) [[1,1],[1,-1]] + I (x) [[1,-1],[-1,-1]].
    C = np.array([np.r_[0, np.ones(q)], np.r_[1, chi]])
    top = np.kron(C, [[1, 1], [1, -1]]) + np.kron(np.eye(2, q + 1), [[1, -1], [-1, -1]])
    return extend_by_rotation(top)


def build_plan(plan: ConstructionPlan) -> PlusMinusMatrix:
    """Materialize a plan; each builder checks its own prime, residue and size."""
    if plan.kind == SYLVESTER:
        return sylvester(plan.t)
    if plan.kind == PALEY_I:
        return paley_I(plan.q)
    if plan.kind == PALEY_II:
        return paley_II(plan.q)
    raise DomainError(f"unknown plan kind {plan.kind!r}")


def plan_for(k, epsilon, allow_probable=True) -> ConstructionPlan:
    """Plan a Hadamard matrix of order 2^l*k with l <= 2 + epsilon*log2(k).

    k = 1 maps to the order-4 Sylvester matrix; otherwise the smallest
    exponent m with q = 2^m*k - 1 prime inside the window selects Paley II
    of order 2(q + 1) when m = 1 and Paley I of order q + 1 otherwise.
    """
    result = solver.find_m(k, epsilon, allow_probable=allow_probable)
    if k == 1:  # after find_m checked epsilon; its window for k = 1 is empty
        return ConstructionPlan(SYLVESTER, 4, True, t=2)
    m, q = result.found_m, result.prime_value
    if m is None:
        raise NoPrimeInRange(k, result.epsilon, 1, result.m_bound)
    if m == 1:
        return ConstructionPlan(PALEY_II, 2 * (q + 1), result.certified, q=q)  # order 2^2 * k
    return ConstructionPlan(PALEY_I, q + 1, result.certified, q=q)  # order 2^m * k

