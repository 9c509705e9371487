"""Hadamard matrix builders: Sylvester, Paley I, Paley II, recipe trees,
and the (k, epsilon) -> certified order-2^l*k pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import arith, solver
from .errors import (
    DomainError,
    NoPrimeInRange,
    NotPrimeError,
    ResidueClassError,
    SizeError,
    UnsupportedFieldError,
)
from .matrix import MAX_ORDER_DEFAULT, PlusMinusMatrix, extend_by_rotation, kronecker

SYLVESTER = "sylvester"
PALEY_I = "paley_i"
PALEY_II = "paley_ii"
KRONECKER = "kronecker"


@dataclass(frozen=True)
class ConstructionPlan:
    """Recipe tree certifying how an order-n Hadamard matrix is built."""

    kind: str
    claimed_order: int
    certified: bool
    t: Optional[int] = None  # sylvester leaf
    q: Optional[int] = None  # paley leaves
    left: Optional["ConstructionPlan"] = None  # kronecker node
    right: Optional["ConstructionPlan"] = None

    def to_json_dict(self):
        d = {"kind": self.kind, "claimed_order": self.claimed_order,
             "certified": self.certified}
        if self.kind == SYLVESTER:
            d["t"] = self.t
        elif self.kind in (PALEY_I, PALEY_II):
            d["q"] = self.q
        else:
            d["left"] = self.left.to_json_dict()
            d["right"] = self.right.to_json_dict()
        return d


def _check_paley_prime(q, kind):
    r = arith.is_prime(q)
    if not r:
        factors = arith.factorize(q) if q > 1 else {}
        if len(factors) == 1:
            raise UnsupportedFieldError(
                f"{q} is a prime power, not a prime; prime-power Paley "
                "fields are unsupported"
            )
        raise NotPrimeError(f"{q} is not prime")
    want = 3 if kind == PALEY_I else 1
    if q % 4 != want:
        raise ResidueClassError(f"{kind} requires q = {want} mod 4, got q = {q}")
    return r


def sylvester_leaf(t):
    if t < 0:
        raise DomainError("t must be nonnegative")
    return ConstructionPlan(SYLVESTER, 1 << t, True, t=t)


def paley_i_leaf(q):
    r = _check_paley_prime(q, PALEY_I)
    return ConstructionPlan(PALEY_I, q + 1, r.is_certified, q=q)


def paley_ii_leaf(q):
    r = _check_paley_prime(q, PALEY_II)
    return ConstructionPlan(PALEY_II, 2 * (q + 1), r.is_certified, q=q)


def kronecker_node(left, right):
    return ConstructionPlan(
        KRONECKER,
        left.claimed_order * right.claimed_order,
        left.certified and right.certified,
        left=left,
        right=right,
    )


def sylvester(t):
    """Order-2^t Sylvester matrix by recursive doubling."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if (1 << t) > MAX_ORDER_DEFAULT:
        raise SizeError(f"order 2^{t} exceeds max_order {MAX_ORDER_DEFAULT}")
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
    _check_paley_prime(q, PALEY_I)
    if q + 1 > MAX_ORDER_DEFAULT:
        raise SizeError(f"order {q + 1} exceeds max_order {MAX_ORDER_DEFAULT}")
    chi = _quadratic_character_row(q)
    # Row 0 all +1; row 1 a +1 border, then -1 on the diagonal and chi(d)
    # for d = 1..q-1.  Core row i is row 1's core rotated by i.
    return extend_by_rotation([np.ones(q + 1), np.r_[1, -1, chi[1:]]])


def paley_II(q):
    """Paley construction II: order 2(q+1) for prime q = 1 mod 4."""
    _check_paley_prime(q, PALEY_II)
    n = 2 * (q + 1)
    if n > MAX_ORDER_DEFAULT:
        raise SizeError(f"order {n} exceeds max_order {MAX_ORDER_DEFAULT}")
    chi = _quadratic_character_row(q)
    # The first two rows of the symmetric conference matrix C of order q+1
    # (chi(-1) = +1 here; C's core is circulant), then the first four of
    # H = C (x) [[1,1],[1,-1]] + I (x) [[1,-1],[-1,-1]].
    C = np.array([np.r_[0, np.ones(q)], np.r_[1, chi]])
    top = np.kron(C, [[1, 1], [1, -1]]) + np.kron(np.eye(2, q + 1), [[1, -1], [-1, -1]])
    return extend_by_rotation(top)


def build_plan(plan: ConstructionPlan) -> PlusMinusMatrix:
    """Materialize a recipe tree bottom-up, refusing an order over
    MAX_ORDER_DEFAULT before any node is built."""
    if plan.claimed_order > MAX_ORDER_DEFAULT:
        raise SizeError(f"order {plan.claimed_order} exceeds max_order {MAX_ORDER_DEFAULT}")
    if plan.kind == SYLVESTER:
        return sylvester(plan.t)
    if plan.kind == PALEY_I:
        return paley_I(plan.q)
    if plan.kind == PALEY_II:
        return paley_II(plan.q)
    if plan.kind == KRONECKER:
        return kronecker(build_plan(plan.left), build_plan(plan.right))
    raise ValueError(f"unknown plan node kind {plan.kind!r}")


def plan_for(k, epsilon, allow_probable=True) -> ConstructionPlan:
    """Plan a Hadamard matrix of order 2^l*k with l <= 2 + epsilon*log2(k).

    k = 1 maps to the order-4 Sylvester matrix; otherwise the smallest
    exponent m with 2^m*k - 1 prime inside the window selects a Paley leaf
    (Paley II doubling when m = 1, Paley I otherwise).
    """
    epsilon = Fraction(epsilon)
    if k < 1 or k % 2 == 0:
        raise DomainError("k must be odd and positive")
    if k == 1:
        return sylvester_leaf(2)
    result = solver.find_m(k, epsilon, allow_probable=allow_probable)
    m = result.found_m
    if m is None:
        raise NoPrimeInRange(k, epsilon, 1, result.m_bound)
    if m == 1:
        return paley_ii_leaf(2 * k - 1)  # order 2(2k) = 2^2 * k
    return paley_i_leaf((1 << m) * k - 1)  # order 2^m * k


def hadamard_for(k, epsilon, max_order=MAX_ORDER_DEFAULT, allow_probable=True):
    """(plan, matrix-or-None); the matrix is materialized only when the
    claimed order fits under max_order, itself at most MAX_ORDER_DEFAULT."""
    if max_order > MAX_ORDER_DEFAULT:
        raise DomainError(f"max_order {max_order} exceeds {MAX_ORDER_DEFAULT}")
    plan = plan_for(k, epsilon, allow_probable=allow_probable)
    matrix = build_plan(plan) if plan.claimed_order <= max_order else None
    return plan, matrix
