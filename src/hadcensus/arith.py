"""Exact integer arithmetic: primality, Jacobi symbol, multiplicative orders.

Everything here is pure and deterministic.  Integers are arbitrary
precision.  Past trial division, Lucas-Lehmer-Riesel proves k*2^s - 1 below
2^64 with odd k < 2^s, and Baillie-PSW decides every other n: exact below 2^64,
since none of the base-2 strong pseudoprimes there (Feitsma and Galway's list)
is a strong Lucas pseudoprime, and past it exact for composites only.
LLR and the strong Lucas step share one Lucas V ladder, _lucas_v.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import DomainError


class Verdict(Enum):
    PRIME = "prime"
    COMPOSITE = "composite"
    NOT_PRIME = "not_prime"  # n <= 1


class Method(Enum):
    TRIAL_DIVISION = "trial_division"
    LUCAS_LEHMER_RIESEL = "lucas_lehmer_riesel"
    BAILLIE_PSW = "baillie_psw"  # n past LLR's reach: composites, and primes below 2^64
    PROBABLE_PRIME = "probable_prime"  # a Baillie-PSW prime past 2^64


@dataclass(frozen=True)
class PrimalityResult:
    verdict: Verdict
    method: Method

    @property
    def is_certified(self):
        return self.method is not Method.PROBABLE_PRIME

    def __bool__(self):
        return self.verdict is Verdict.PRIME

    def counts(self, allow_probable):
        """Counts as prime: a probable prime only with allow_probable."""
        return bool(self) and (allow_probable or self.is_certified)


def _sieve_upto(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return tuple(itertools.compress(range(limit + 1), flags))


SMALL_PRIMES = _sieve_upto(1000)
_SMALL_PRODUCT = math.prod(SMALL_PRIMES)
_SMALL_LIMIT = SMALL_PRIMES[-1] ** 2  # trial division is exact below this

DETERMINISTIC_LIMIT = 1 << 64  # LLR runs, and Baillie-PSW certifies primes, below this
LLR_P_BOUND = 100  # Rodseth's P is sought below this; P + 2 < 997 keeps (P + 2 | n) != 0


def _mr_composite(n, a, d, s):
    # n-1 = d * 2^s with d odd, n not dividing a; True if a witnesses compositeness
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _is_square(n):
    return math.isqrt(n) ** 2 == n


def _lucas_v(P, Q, k, n):
    """(V_k, V_{k+1}, Q^k) mod n, V_0 = 2, V_1 = P, V_{i+1} = P*V_i - Q*V_{i-1}, by a
    ladder over k's bits: V_{2j} = V_j^2 - 2*Q^j, V_{2j+1} = V_j*V_{j+1} - P*Q^j."""
    v, w, qk = 2, P, 1
    for bit in bin(k)[2:]:
        vw = (v * w - P * qk) % n
        if bit == "1":
            v, w, qk = vw, (w * w - 2 * Q * qk) % n, qk * qk * Q % n
        else:
            v, w, qk = (v * v - 2 * qk) % n, vw, qk * qk % n
    return v, w, qk


def _strong_lucas_prp(n):
    # Strong Lucas probable-prime test, Selfridge method A parameters.
    if _is_square(n):
        return False
    D = 5
    while (j := jacobi(D, n)) == 1:
        D = -(D + 2) if D > 0 else -(D - 2)
    if j == 0:
        return abs(D) == n  # shared factor
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d*2^s, d odd
    V, W, Qk = _lucas_v(1, (1 - D) // 4, (n + 1) >> s, n)  # P = 1, Q = (1 - D)/4
    if 2 * W % n == V:  # D*U_d = 2*V_{d+1} - V_d, and D is a unit mod n
        return True
    for _ in range(s):  # V_{d*2^r} = 0 for some r < s
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _llr(n):
    """Lucas-Lehmer-Riesel (Riesel, Math. Comp. 23, 1969) for n = k*2^t - 1, odd
    k < 2^t, n free of primes below 1000: for P with (P - 2 | n) = 1 and
    (P + 2 | n) = -1 (Rodseth, BIT 34, 1994), n is prime iff u_{t-2} = 0 (mod n),
    u_0 = V_k(P, 1), u_i = u_{i-1}^2 - 2.  None if k >= 2^t or P >= LLR_P_BOUND."""
    t = ((n + 1) & -(n + 1)).bit_length() - 1
    k = (n + 1) >> t
    rodseth = (P for P in range(3, LLR_P_BOUND)
               if jacobi(P - 2, n) == 1 and jacobi(P + 2, n) == -1)
    P = None if k >> t else next(rodseth, None)  # lazy: no search when k >= 2^t
    if P is None:  # k >= 2^t, or no such P: a composite may have none
        return None
    v = _lucas_v(P, 1, k, n)[0]
    for _ in range(t - 2):
        v = (v * v - 2) % n
    return _LLR_PRIME if v == 0 else _LLR_COMPOSITE


_LLR_COMPOSITE = PrimalityResult(Verdict.COMPOSITE, Method.LUCAS_LEHMER_RIESEL)
_LLR_PRIME = PrimalityResult(Verdict.PRIME, Method.LUCAS_LEHMER_RIESEL)
_PROBABLE = PrimalityResult(Verdict.PRIME, Method.PROBABLE_PRIME)
_BPSW_COMPOSITE = PrimalityResult(Verdict.COMPOSITE, Method.BAILLIE_PSW)
_BPSW_PRIME = PrimalityResult(Verdict.PRIME, Method.BAILLIE_PSW)
_TRIAL_PRIME = PrimalityResult(Verdict.PRIME, Method.TRIAL_DIVISION)
_TRIAL_COMPOSITE = PrimalityResult(Verdict.COMPOSITE, Method.TRIAL_DIVISION)
_NOT_PRIME = PrimalityResult(Verdict.NOT_PRIME, Method.TRIAL_DIVISION)


def is_prime(n):
    """Primality verdict for n >= 0; exact below 2^64, Baillie-PSW's above."""
    if n <= 1:
        return _NOT_PRIME
    if math.gcd(n, _SMALL_PRODUCT) > 1:  # n <= 997 too; gcd(15, ...) = 15: test membership
        return _TRIAL_PRIME if n in SMALL_PRIMES else _TRIAL_COMPOSITE
    if n < _SMALL_LIMIT:
        return _TRIAL_PRIME
    if n < DETERMINISTIC_LIMIT and (proved := _llr(n)) is not None:
        return proved
    s = ((n - 1) & (1 - n)).bit_length() - 1
    if _mr_composite(n, 2, (n - 1) >> s, s) or not _strong_lucas_prp(n):
        return _BPSW_COMPOSITE
    return _BPSW_PRIME if n < DETERMINISTIC_LIMIT else _PROBABLE


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise DomainError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def factorize(n):
    """Trial-division factorization; returns {prime: exponent}.

    Intended for desk-scale n (p - 1 for small primes p).
    """
    if n < 1:
        raise DomainError("n must be positive")
    factors = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def mult_order(a, p):
    """Least d >= 1 with a^d = 1 mod p, for prime p not dividing a."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if a % p == 0:
        raise DomainError(f"{p} divides {a}")
    d = p - 1
    for q in factorize(p - 1):
        while d % q == 0 and pow(a, d // q, p) == 1:
            d //= q
    return d


# --- exact exponent-window helpers -----------------------------------------
#
# Window membership tests of the form m <= eps*log2(k) are decided in exact
# integer arithmetic: with eps = num/den, the condition is 2^(m*den) <= k^num.
# k^num is refused past POWER_BITS_MAX bits (eps = 1e300 would need ~10^300).
# A census builds x^num for max_m_leq and for N's last row, and two powers
# per row for M's window; one power takes about 4 ms at 2^18 bits, 3 s at
# 2^24 (2-vCPU VM).
POWER_BITS_MAX = 1 << 18


def _window_epsilon(epsilon, k):
    """epsilon as a positive Fraction whose k^numerator fits POWER_BITS_MAX."""
    eps = Fraction(epsilon)
    if eps <= 0:
        raise DomainError("epsilon must be positive")
    if eps.numerator * k.bit_length() > POWER_BITS_MAX:
        raise DomainError(f"epsilon too large: k^numerator over {POWER_BITS_MAX} bits")
    return eps


def max_m_leq(epsilon: Fraction, k):
    """Largest integer m >= 0 with m <= epsilon*log2(k), i.e.
    floor(epsilon*log2(k)).  k >= 1."""
    if k < 1:
        raise DomainError("k must be positive")
    eps = _window_epsilon(epsilon, k)
    # 2^(m*den) <= k^num  <=>  m*den <= bit_length(k^num) - 1
    return ((k**eps.numerator).bit_length() - 1) // eps.denominator
