"""Independent oracles for the hadcensus CLI outputs.

Nothing here imports hadcensus.  Primality comes from sympy.isprime behind
an exact small-prime filter, window edges from integer bit lengths, sieves
and sums from numpy, and the Hadamard property from an exact Gram product
on a freshly parsed .pm file.  Each check_* function returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
from sympy import __version__ as SYMPY_VERSION, isprime

# Odd primes used to discard candidates before sympy sees them.  A candidate
# divisible by one of these is composite unless it equals that prime.
_FILTER_PRIMES = [p for p in range(3, 600) if isprime(p)]
U64 = 1 << 64


# --- exponent windows ---------------------------------------------------------


def floor_eps_log2(eps: Fraction, k: int) -> int:
    """Largest m with 2^(m*den) <= k^num, i.e. floor(eps*log2 k)."""
    return ((k ** eps.numerator).bit_length() - 1) // eps.denominator


def floor_eps_log2_strict(eps: Fraction, x: int) -> int:
    """Largest m with 2^(m*den) < x^num (0 when x^num = 1)."""
    t = x ** eps.numerator
    return ((t - 1).bit_length() - 1) // eps.denominator if t > 1 else 0


# --- census -------------------------------------------------------------------


def prime_table(x: int, lmax: int) -> np.ndarray:
    """Boolean table T[(k-1)/2, l-1] = isprime(2^l*k - 1), odd k <= x."""
    ks = np.arange(1, x + 1, 2, dtype=np.int64)
    table = np.zeros((ks.size, lmax), dtype=bool)
    for l in range(1, lmax + 1):
        maybe = np.ones(ks.size, dtype=bool)
        for p in _FILTER_PRIMES:
            maybe &= (pow(2, l, p) * ks - 1) % p != 0
            k_at_p = (p + 1) >> l  # 2^l*k - 1 == p itself is prime
            if (k_at_p << l) == p + 1 and k_at_p % 2 == 1 and k_at_p <= x:
                maybe[k_at_p // 2] = True
        column = table[:, l - 1]
        for i in np.nonzero(maybe)[0].tolist():
            column[i] = isprime(((2 * i + 1) << l) - 1)
    return table


def closure_count(flags: np.ndarray) -> int:
    """Odd k <= x that are products of one or more flagged odd k.

    flags[i] refers to k = 2i + 1.  k is visited in increasing order; once
    its membership is final it marks k*e for every member e <= k, so each
    product a*b (a <= b) is marked when b is visited.
    """
    has = flags.copy()
    x = 2 * has.size - 1
    for i in range(1, has.size):
        if not has[i]:
            continue
        k = 2 * i + 1
        limit = min(k, x // k)
        if limit < 3:
            continue
        members = 2 * np.nonzero(has[1 : (limit - 1) // 2 + 1])[0] + 3
        has[(k * members - 1) // 2] = True
    return int(has.sum())


def census_oracle(x: int, epsilon) -> dict:
    """Every field of `hadcensus census --x X --epsilon E` JSON, recomputed."""
    eps = Fraction(epsilon)
    L = floor_eps_log2(eps, x) - 1
    m_strict = floor_eps_log2_strict(eps, x)
    odd_k = range(1, x + 1, 2)
    window = np.array([floor_eps_log2(eps, k) for k in odd_k], dtype=np.int64)
    lmax = max(L, m_strict, int(window.max()))
    table = prime_table(x, lmax)

    S = table[:, :L].sum(axis=1).astype(np.int64)
    sigma = int(S.sum())
    sum_sq = int((S * S).sum())
    pi_terms = [[l, int(table[:, l - 1].sum())] for l in range(1, L + 1)]
    N = int(table[:, :m_strict].any(axis=1).sum())
    in_window = np.arange(lmax)[None, :] < window[:, None]
    m_table = table & in_window
    m_flags = m_table.any(axis=1)
    M = int(m_flags.sum())

    # Uncertified exactly when a counted prime reaches 2^64: any prime of the
    # sigma table, or the first prime of a k's own window.
    ks = np.arange(1, x + 1, 2, dtype=np.int64)
    first_m = np.where(m_flags, m_table.argmax(axis=1) + 1, 0)
    big = False
    for l in range(1, lmax + 1):
        k_min = -(-(U64 + 1) // (1 << l))  # 2^l*k - 1 >= 2^64
        if k_min > x:
            continue
        big_k = ks >= k_min
        if l <= L and (table[:, l - 1] & big_k).any():
            big = True
        if ((first_m == l) & big_k).any():
            big = True

    degenerate = []
    if sum_sq > 0:
        cs = sigma * sigma / sum_sq
    else:
        cs = 0.0
        degenerate.append("cs_lower_bound_zero_denominator")
    M_prime = closure_count(m_flags)
    eps_f = float(eps)
    return {
        "params": {"x": x, "epsilon": str(eps), "L": L},
        "sigma": sigma,
        "pi_terms": pi_terms,
        "sum_S_squared": sum_sq,
        "N": N,
        "M": M,
        "M_prime": M_prime,
        "H_lower": M + 1,
        "cs_lower_bound": cs,
        "upper_curve": 2 * x * math.log2(1 + eps_f),
        "certified": not big,
        "degenerate_flags": degenerate,
        "ratios": {
            "N_over_x": N / x,
            "M_over_x": M / x,
            "M_prime_over_x": M_prime / x,
            "H_lower_over_x": (M + 1) / x,
            "reference_curve": 2 * math.log2(1 + eps_f),
        },
    }


def _diff(path, got, want, problems):
    """Exact comparison, except floats to the 9 significant digits printed."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: {got!r} does not have the keys {sorted(want)}")
            return
        for key in want:
            _diff(f"{path}.{key}", got[key], want[key], problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, problems)
    elif isinstance(want, float):
        if not isinstance(got, (int, float)) or not math.isclose(got, want, rel_tol=1e-8):
            problems.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        problems.append(f"{path}: {got!r} != {want!r}")


def check_census(stdout: str, expected: dict) -> list:
    try:
        got = json.loads(stdout)
    except ValueError as exc:
        return [f"census output is not JSON: {exc}"]
    problems = []
    _diff("census", got, expected, problems)
    if problems:
        return problems
    # The method's own identities, on the program's numbers.
    if got["sigma"] != sum(c for _, c in got["pi_terms"]):
        problems.append("sigma != sum of pi_terms")
    if got["N"] * got["sum_S_squared"] < got["sigma"] ** 2:
        problems.append("N * sum_S_squared < sigma^2")
    if got["M"] > got["M_prime"]:
        problems.append("M > M_prime")
    if got["H_lower"] != got["M"] + 1:
        problems.append("H_lower != M + 1")
    return problems


# --- primes in progressions and Chebyshev psi --------------------------------


class OddSieve:
    """Primality of the odd numbers up to n: flags[i] is 2i+1."""

    def __init__(self, n: int):
        flags = np.ones((n - 1) // 2 + 1, dtype=bool)
        flags[0] = False
        for i in range(1, (math.isqrt(n) - 1) // 2 + 1):
            if flags[i]:
                p = 2 * i + 1
                flags[p * p // 2 :: p] = False
        self.n = n
        self.flags = flags

    def _progression(self, x, q, a):
        """Flags of the odd n <= x with n = a (mod q); q even, a odd."""
        if q % 2 or a % 2 == 0 or x > self.n:
            raise ValueError("oracle covers even q, odd a and x <= sieve limit")
        return self.flags[(a % q) // 2 : (x - 1) // 2 + 1 : q // 2], a % q, q

    def pi(self, x, q, a) -> int:
        return int(self._progression(x, q, a)[0].sum())

    def psi(self, x, q, a) -> float:
        """Sum of log p over prime powers p^j <= x with p^j = a (mod q)."""
        flags, a, q = self._progression(x, q, a)
        primes = (2 * np.nonzero(flags)[0] * (q // 2) + a).astype(np.float64)
        total = float(np.log(primes).sum())
        small = 2 * np.nonzero(self.flags[: (math.isqrt(x) - 1) // 2 + 1])[0] + 1
        for p in [2] + small.tolist():
            power = p * p
            while power <= x:
                if power % q == a:
                    total += math.log(p)
                power *= p
        return total


def check_pi(stdout: str, expected: int) -> list:
    text = stdout.strip()
    if text != str(expected):
        return [f"pi printed {text!r}, expected {expected}"]
    return []


def check_psi(stdout: str, expected: float) -> list:
    """The CLI prints 9 significant digits: allow that rounding plus 1e-9."""
    try:
        got = float(stdout.strip())
    except ValueError:
        return [f"psi printed {stdout!r}"]
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 8) if expected else 0.0
    if abs(got - expected) > 1e-9 * abs(expected) + half_ulp:
        return [f"psi printed {got!r}, expected {expected!r}"]
    return []


# --- matrices -----------------------------------------------------------------


def parse_pm(data: bytes) -> np.ndarray:
    """Parse the bytes of a .pm file into a float32 array of +-1."""
    header, _, body = data.partition(b"\n")
    n = int(header)
    if n < 1 or len(body) != n * (n + 1):
        raise ValueError(f"{len(body)} body bytes for order {n}")
    grid = np.frombuffer(body, dtype=np.uint8).reshape(n, n + 1)
    if not (grid[:, n] == ord("\n")).all():
        raise ValueError(f"a row is not {n} characters long")
    minus = grid[:, :n] == ord("-")
    if not (minus | (grid[:, :n] == ord("+"))).all():
        raise ValueError("character other than + or -")
    return np.where(minus, np.float32(-1), np.float32(1))


def hadamard_exact(H: np.ndarray) -> bool:
    """H H^T == n I; float32 sums of +-1 are exact integers for n < 2^24."""
    n = H.shape[0]
    if n >= 1 << 24:
        raise ValueError("order too large for an exact float32 Gram product")
    gram = H @ H.T
    gram[np.diag_indices(n)] -= n
    return not gram.any()


def smallest_window_prime(k: int, eps: Fraction):
    """(m, window): the smallest m in 1..window with 2^m*k - 1 prime, or None."""
    window = floor_eps_log2(eps, k)
    for m in range(1, window + 1):
        if isprime((k << m) - 1):
            return m, window
    return None, window


def check_plan(plan: dict, k: int, eps: Fraction) -> list:
    """The plan's prime, class, order and exponent, from first principles."""
    m, _ = smallest_window_prime(k, eps)
    if m is None:
        return [f"k = {k} has no prime in its window, yet a plan was built"]
    kind, q, order = plan.get("kind"), plan.get("q"), plan.get("claimed_order")
    # m = 1 doubles a Paley II matrix of order q + 1 = 2k; m >= 2 is Paley I.
    want_kind, want_q = ("paley_ii" if m == 1 else "paley_i"), (k << m) - 1
    want_order = 4 * k if m == 1 else k << m
    problems = []
    if kind != want_kind or q != want_q:
        problems.append(f"plan {kind} q={q}, expected {want_kind} q={want_q} (m={m})")
    elif not isprime(q) or q % 4 != (1 if kind == "paley_ii" else 3):
        problems.append(f"q = {q} is not a prime = {1 if kind == 'paley_ii' else 3} mod 4")
    if order != want_order:
        problems.append(f"claimed_order {order}, expected {want_order}")
    elif (order // k).bit_length() - 1 > 2 + floor_eps_log2(eps, k):
        problems.append(f"order {order} exceeds 2^(2 + floor(eps*log2 k)) * k")
    if plan.get("certified") is not (want_q < U64):
        problems.append(f"certified = {plan.get('certified')}")
    return problems


def check_hand_values() -> list:
    """The oracle on the hand-computed case x = 4, epsilon = 2."""
    got = census_oracle(4, 2)
    want = {"sigma": 5, "pi_terms": [[1, 1], [2, 2], [3, 2]],
            "sum_S_squared": 13, "N": 2}
    return [f"oracle {key} = {got[key]!r}, hand value {value!r}"
            for key, value in want.items() if got[key] != value]
