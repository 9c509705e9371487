"""Prime search over the exponent window and Riesel covering certificates."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import arith
from .errors import CoverageGap, DomainError

# riesel_certificate's caps, each checked before the work it bounds starts
COVER_PRIME_MAX = 1 << 32  # exclusive: mult_order trial-divides p - 1 up to sqrt(p)
PERIOD_MAX = 1 << 20  # residues assigned one by one, one list entry each
SPOT_CHECKS_MAX = 1 << 20  # (r, m) pairs verified by direct reduction


@dataclass(frozen=True)
class SearchResult:
    k: int
    epsilon: Fraction
    m_bound: int  # floor(epsilon * log2(k))
    found_m: Optional[int]
    prime_value: Optional[int]
    primality: Optional[arith.PrimalityResult]

    @property
    def certified(self):
        return self.primality is not None and self.primality.is_certified

    def to_json_dict(self):
        return {
            "k": self.k,
            "epsilon": str(self.epsilon),
            "m_bound": self.m_bound,
            "found_m": self.found_m,
            "prime_value": self.prime_value,
            "certified": self.certified if self.found_m is not None else None,
        }


def find_m(k, epsilon, allow_probable=True):
    """Smallest m in 1..floor(epsilon*log2(k)) with 2^m*k - 1 prime.

    Window membership is decided in exact rational arithmetic.  Probable
    primes qualify (with certification cleared) unless allow_probable is
    False.
    """
    if k < 1 or k % 2 == 0:
        raise DomainError("k must be odd and positive")
    epsilon = Fraction(epsilon)
    bound = arith.max_m_leq(epsilon, k)
    for m in range(1, bound + 1):
        r = arith.is_prime((1 << m) * k - 1)
        if r.counts(allow_probable):
            return SearchResult(k, epsilon, bound, m, (1 << m) * k - 1, r)
    return SearchResult(k, epsilon, bound, None, None, None)


@dataclass(frozen=True)
class RieselCertificate:
    """Covering table proving 2^m*k - 1 composite for every m >= 0 across
    the whole family k = k0 + step*r."""

    k0: int
    step: int
    cover: tuple
    period: int
    assignments: tuple  # assignments[m] = covering prime for residue m
    family_invariance: bool
    spot_checks: int  # number of (r, m) pairs verified directly

    def to_json_dict(self):
        return {
            "k0": self.k0,
            "step": self.step,
            "cover": list(self.cover),
            "period": self.period,
            "assignments": {str(m): p for m, p in enumerate(self.assignments)},
            "family_invariance": self.family_invariance,
            "spot_checks": self.spot_checks,
        }


def riesel_certificate(k0, step, cover, spot_check_r=range(10),
                       spot_check_m=range(501)):
    """Build and verify a covering-set certificate.

    For each residue m mod period (period = lcm of ord_p(2) over the
    cover), finds a prime p in the cover with 2^m*k0 = 1 (mod p); raises
    CoverageGap when a residue has none.  Every (r, m) in the spot-check
    ranges is additionally verified by direct modular reduction; k0 < 1
    and an empty range, which would skip that check, are refused first.
    """
    cut = slice(SPOT_CHECKS_MAX + 1)  # a range's slice is O(1); its len cannot overflow
    checks = len(spot_check_r[cut]) * len(spot_check_m[cut])  # exact up to the cap
    if k0 < 1:
        raise DomainError("k0 must be positive")
    if not checks:
        raise DomainError("spot-check grid is empty")
    if step <= 0:
        raise DomainError("step must be positive")
    if checks > SPOT_CHECKS_MAX:
        raise DomainError(f"more than {SPOT_CHECKS_MAX} spot checks")
    cover = tuple(cover)
    for p in cover:
        if p >= COVER_PRIME_MAX:
            raise DomainError(f"cover element {p} is not below {COVER_PRIME_MAX}")
        if p == 2 or not arith.is_prime(p):
            raise DomainError(f"cover element {p} is not an odd prime")
        if k0 % p == 0:
            raise DomainError(f"cover prime {p} divides k0")
    period = lcm(*(arith.mult_order(2, p) for p in cover))
    if period > PERIOD_MAX:
        raise DomainError(f"covering period {period} exceeds {PERIOD_MAX}")
    assignments = [next((p for p in cover if (pow(2, m, p) * k0 - 1) % p == 0), None)
                   for m in range(period)]
    if None in assignments:
        raise CoverageGap(assignments.index(None), period)
    family_invariance = all(step % p == 0 for p in cover)
    for r in spot_check_r:
        k = k0 + step * r
        for m in spot_check_m:
            p = assignments[m % period]
            if (pow(2, m, p) * k - 1) % p != 0:
                raise CoverageGap(m, period)
    return RieselCertificate(
        k0, step, cover, period, tuple(assignments), family_invariance, checks
    )
