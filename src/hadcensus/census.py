"""Counting functions and analytic ingredients at desk scale.

S-counts and their first/second moments, the sigma reindexing identity,
the N/M/M' censuses, primes in arithmetic progression by segmented sieve,
Chebyshev psi as a von Mangoldt sum, and the logarithmic integral, in
closed form and by Gauss-Legendre quadrature, with its Riemann-sum
sandwich.  Exponent-window edges are decided by exact integer powers:
with epsilon = num/den, m <= epsilon*log2(k) is 2^(m*den) <= k^num.

A census, density_report, takes the rows of flags for 2^m*k - 1 one at a
time from _prime_rows and holds no table: _census_flags checks each row, by
the sigma identity, against pi's own sieve of the class 2^l - 1 mod 2^(l+1)
to 2^l*x, _progression_hits, segment by segment, tests the survivors of a
row whose values pass the sieve bound's square once each, and adds the row
into the pi terms, S and first, k's first row; N and M reduce first.  The two
sieves share no prime list, inverse or strike code: the rows sieve with
_prime_flags, carry 2^-m from row to row and spare each p's own k; the class
sieve takes the odd primes of arith's bytearray sieve, raises (p + 1)/2 to
its power afresh and strikes from p^2.  Both sieve with the odd primes to
max(SIEVE_BOUND, x), exact on each row whose values stay within its square,
as all do at epsilon <= 1.  The first k whose flags differ names the fault;
arith's test is covered by test_arith.  A census that tests survivors splits
its rows round-robin over the CPUs it may run on: the main process forks a
worker per further CPU, once, each holding its own row, S, first and sieving
primes, and merges the parts they send back.  pi_count sieves only the odd
members of its class, psi's smallest-prime-factor route only the members of
its own; psi's other route reads pi's sieve, checking it, and the two share
no table.
Past TABLE_BYTES_MAX, PI_MAX_X or PSI_MAX_X, nothing is built.

The Riemann sum is inclusive at both ends, like the census window l = 1..L.
With f(l) = a/(1 + l*a) and I(M, L) the integral of f from M to L
(I_closed), f is strictly decreasing for a > 0, so for L >= M >= 1

    I(M - 1, L) > sum_{l=M}^{L} f(l) > I(M, L + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import arith
from .errors import DomainError, SelfCheckError

SEGMENT_SIZE = 1 << 20  # odd class members per pi sieve segment
# q = 4 sieves 10^9 in 1.1 s, 10^10 in 14-17 s on a 2-vCPU VM; ~4 MB at the cap
PI_MAX_X = 10**11
# psi takes ~19 bytes per class member (route 1) and a sieve segment (route 2);
# at x = 10^7 it peaks at 18.6 bytes per integer for q = 1, 4.25 for q = 4
PSI_MAX_X = 10**8
PSI_REL_TOL = 1e-9  # psi's two routes agree to this, relative to the larger
# Both census routes sieve with the odd primes up to max(SIEVE_BOUND, x);
# a row whose values pass that bound's square tests its survivors.
SIEVE_BOUND = 1 << 17
# a prime hitting a census row or a class sieve segment at most FEW_HITS
# times (p*FEW_HITS >= its length) strikes in vectorised passes, not by its
# own strided slice
FEW_HITS = 16
TABLE_BYTES_MAX = 1 << 27  # flags a census charges: N's rows * max((x+1)//2, SIEVE_BOUND)
GAUSS_POINTS = 20  # Gauss-Legendre nodes per I_quadrature panel


@dataclass(frozen=True)
class CensusReport:
    x: int
    epsilon: Fraction
    L: int  # floor(epsilon*log2(x)) - 1
    sigma: int  # sum of S(k, L) over odd k <= x
    pi_terms: tuple  # ((l, count), ...)
    sum_S_squared: int
    N: int  # odd k <= x with a counted prime 2^m*k - 1, m < epsilon*log2(x)
    M: int  # odd k <= x with a counted prime 2^m*k - 1, m <= epsilon*log2(k)
    M_prime: int  # odd k <= x that are products of k that M counts
    H_lower: int  # 1 + M: k = 1 (Sylvester) and every k that M counts
    cs_lower_bound: Fraction
    upper_curve: float
    certified: bool
    degenerate_flags: tuple

    def to_json_dict(self):
        x = self.x
        return {
            "params": {
                "x": x,
                "epsilon": str(self.epsilon),
                "L": self.L,
            },
            "sigma": self.sigma,
            "pi_terms": [[l, c] for l, c in self.pi_terms],
            "sum_S_squared": self.sum_S_squared,
            "N": self.N,
            "M": self.M,
            "M_prime": self.M_prime,
            "H_lower": self.H_lower,
            "cs_lower_bound": float(self.cs_lower_bound),
            "upper_curve": self.upper_curve,
            "certified": self.certified,
            "degenerate_flags": list(self.degenerate_flags),
            "ratios": {
                "N_over_x": self.N / x,
                "M_over_x": self.M / x,
                "M_prime_over_x": self.M_prime / x,
                "H_lower_over_x": self.H_lower / x,
                "reference_curve": 2 * math.log2(1 + float(self.epsilon)),
            },
        }


# --- the census rows ---------------------------------------------------------


def _prime_rows(x, ms):
    """Rows m of the range ms (m >= 1), each a fresh array: flag j for odd
    k = 2j + 1 <= x unless an odd prime p <= min(isqrt(2^m*x), bound) divides
    2^m*k - 1 other than as itself, bound = max(SIEVE_BOUND, x): the primes in
    each row whose values stay within bound^2, the sieve's survivors past it.

    2^m*k - 1 = 0 (mod p) exactly when k = 2^-m (mod p), carried through each
    m, so row m crosses those k out but spares the entry equal to p.  Primes
    below the number of k over FEW_HITS stride through the row; pass i <
    FEW_HITS stores hit i of each larger p with i*p below it, all in one index.
    """
    nk = (x + 1) // 2
    bound = max(SIEVE_BOUND, x)
    top = min(math.isqrt(x << ms[-1]), bound)
    primes = np.flatnonzero(_prime_flags(top))[1:]
    half = (primes + 1) // 2  # 2^-1 mod p
    inv = np.ones_like(primes)
    for m in range(1, ms[-1] + 1):
        inv = inv * half % primes  # 2^-m mod p
        if m not in ms:
            continue
        p = primes[: np.searchsorted(primes, math.isqrt(x << m), side="right")]
        j = (inv[: p.size] - 1) * half[: p.size] % p  # k = 2j + 1 = 2^-m (mod p)
        # 2^m*k - 1 = p needs 2^m <= p + 1, so the shift cannot overflow
        j += p * (((2 * j + 1) << min(m, bound.bit_length())) == p + 1)
        row = np.ones(nk, dtype=bool)
        row[:1] = m > 1  # 2*1 - 1 = 1
        small = int(np.searchsorted(p, -(-nk // FEW_HITS)))
        for start, step in zip(j[:small].tolist(), p[:small].tolist()):
            row[start::step] = False
        for i in range(FEW_HITS):  # pass i: hit i of each p with i*p < nk
            end = np.searchsorted(p, -(-nk // i)) if i else p.size
            hit = j[small:end] + i * p[small:end]
            row[hit[hit < nk]] = False
        yield row


def _in_parts(count, work):
    """[work(i, n) for i in range(n)], n = min(count, CPUs this process may run
    on): work(0, n) here, each other part in a forked worker that pickles back
    its result or exception, then leaves by os._exit.  Each worker is reaped
    before this returns, and killed first if this raises."""
    import os, pickle, signal

    n = min(count, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
    workers, done = [], False
    try:
        for i in range(1, n):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                try:
                    with open(write, "wb") as pipe:
                        try:
                            pipe.write(pickle.dumps(work(i, n)))
                        except Exception as error:  # the main process raises it
                            pipe.write(pickle.dumps(error))
                finally:
                    os._exit(0)
            os.close(write)
            workers.append((pid, open(read, "rb")))
        parts = [work(0, n)]
        for pid, pipe in workers:
            try:
                parts.append(pickle.load(pipe))
            except (EOFError, pickle.UnpicklingError):
                raise SelfCheckError(f"census worker {pid} ended without a result") from None
            if isinstance(parts[-1], Exception):
                raise parts[-1]
        done = True
        return parts
    finally:
        for pid, pipe in workers:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _census_flags(x, epsilon, L, rows, allow_probable):
    """One pass over N's rows m = 1..rows (L or L + 1) of _prime_rows, each
    checked against route 2, its survivors tested past max(SIEVE_BOUND, x)^2.
    Where it tests them, _in_parts splits the rows round-robin over processes,
    each holding its own row, sieving primes, S and first, merged here: returns
    (pi terms, S(k, L), first row flagging k or 0, M's flags, certified)."""
    num, den = epsilon.numerator, epsilon.denominator
    nk, bound = (x + 1) // 2, max(SIEVE_BOUND, x)
    # route 2's odd primes, to the largest root any of its rows needs
    screen = arith._sieve_upto(min(bound, math.isqrt(x << rows)))
    screen = np.array(screen[1:], dtype=np.int64)

    def part(i, step):  # rows 1 + i + step*t: pi terms, S, first, probable (m, j)
        ms, terms, probable = range(1 + i, rows + 1, step), [], []
        S = np.zeros(nk, dtype=np.min_scalar_type(L))
        first = np.zeros(nk, dtype=np.min_scalar_type(rows))
        for m, row in zip(ms, _prime_rows(x, ms), strict=True):
            for n, _, hits in _progression_hits(x << m, 2 << m, (1 << m) - 1, screen):
                j = n >> m + 1  # n = 2^m*(2j + 1) - 1
                wrong = np.flatnonzero(row[j : j + hits.size] != hits)
                if wrong.size:
                    raise SelfCheckError(f"sigma identity violated at l = {m}: "
                                         f"k = {2 * (j + wrong[0]) + 1}")
            if math.isqrt(x << m) > bound:
                for j in np.flatnonzero(row).tolist():
                    r = arith.is_prime(((2 * j + 1) << m) - 1)
                    row[j] = r.counts(allow_probable)
                    if row[j] and not r.is_certified:
                        probable.append((m, j))
            if m <= L:
                terms.append((m, int(np.count_nonzero(row))))
                S += row
            first += (row & (first == 0)) * first.dtype.type(m)
        return terms, S, first, probable

    split = math.isqrt(x << rows) > bound  # tests survivors: every n-th row per CPU
    (terms, S, first, probable), *others = _in_parts(rows, part) if split else [part(0, 1)]
    for t, s, f, p in others:  # 0, no row, wraps to the top of first's type
        terms, probable, S = terms + t, probable + p, S + s
        first = np.minimum(first - 1, f - 1) + 1
    # past row L a probable prime matters only as k's first in N
    certified = not any(m <= L or first[j] == m for m, j in probable)
    # M's window is m from the least k with k^num >= 2^(m*den), c - 1, c or c + 1 for
    # the float root c, to row m + 1's: 0 < first <= m, or first - 1 < m as 0 wraps round
    flags_m, hi = np.zeros(nk, dtype=bool), nk
    for m in range(rows, 0, -1):
        c, power = math.ceil(2 ** (m * den / num)), 1 << m * den
        lo = (c - 1 + ((c - 1) ** num < power) + (c**num < power)) // 2
        np.less(first[lo:hi] - 1, m, out=flags_m[lo:hi])
        hi = lo
    return tuple(sorted(terms)), S, first, flags_m, certified


def _closure_count(flags):
    """Size of the multiplicative closure of the odd k marked in flags
    (index i for k = 2i + 1, to k = 2*flags.size - 1), closed in place:
    products of members are marked until no product adds a member."""
    top = 2 * flags.size - 1
    while True:
        before = int(np.count_nonzero(flags))
        for i in np.flatnonzero(flags[: (math.isqrt(top) + 1) // 2]).tolist():
            d = 2 * i + 1
            hi = (top // d - 1) // 2  # d*(2j + 1), at index d*j + i, for j in i..hi
            flags[d * i + i : d * hi + i + 1 : d] |= flags[i : hi + 1]
        if np.count_nonzero(flags) == before:
            return before


# --- primes in arithmetic progression ---------------------------------------


def _prime_flags(limit):
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


def _progression_hits(limit, q, a, primes=None):
    """(n, step, hits) for 2, then per SEGMENT_SIZE odd members r + period*i
    (period = lcm(2, q)) of a mod q up to limit: hits[j] unless a base prime
    p <= isqrt(limit) not dividing q divides n + j*step, struck from the
    first member >= p^2.  Base primes: all odd primes, or those in the sorted
    array primes.  The first hit, i = -r/period (mod p), needs no per-prime
    loop unless period has an odd factor.  In each segment the p below its
    size over FEW_HITS stride through it, passes strike each larger p's next
    hit until none is left, and each p's next hit carries to the next one."""
    if q < 1:
        raise DomainError("q must be positive")
    if limit >= 2 and (2 - a) % q == 0:
        yield 2, 1, np.ones(1, dtype=bool)
    r = a % q + q * (a % q % 2 == 0)
    period = q * 2 // math.gcd(2, q)
    if math.gcd(r, period) > 1 or period > limit:  # r is the one odd candidate
        if r % 2 and r <= limit and arith.is_prime(r):
            yield r, period, np.ones(1, dtype=bool)
        return
    if primes is None:
        primes = np.flatnonzero(_prime_flags(math.isqrt(limit)))[1:]
    p = primes[: np.searchsorted(primes, math.isqrt(limit), side="right")]
    if (odd := period // (period & -period)) > 1:
        p = p[odd % p != 0]  # p | q divides no member
    # r mod p, w bits at a time from the top, as wide as first << w < 2^63 allows
    w = 63 - int(p[-1]).bit_length() if p.size else 62
    first = np.zeros_like(p)
    for shift in range(r.bit_length() // w * w, -1, -w):
        first = (first << w | r >> shift & (1 << w) - 1) % p
    if odd > 1:  # first = -r/period (mod p), the first hit
        inv = np.array([pow(period, -1, d) for d in p.tolist()], dtype=np.int64)
        first = -first * inv % p
    else:  # 1/period = half^e, half = (p + 1)/2 squared once per bit of e
        first, half = -first % p, (p + 1) // 2
        for bit in bin(period.bit_length() - 1)[:1:-1]:
            first = first * half ** int(bit) % p
            half = half * half % p
    cap = min(period, 1 << 62)  # p^2 < 2^62: past it, only p^2 > r counts
    square = (p * p + (cap - 1 - min(r, cap - 1))) // cap  # first i, member >= p^2
    first -= (first - square) // p * p  # each p's first hit from there
    for n in range(r, limit + 1, period * SEGMENT_SIZE):
        flags = np.ones(min(SEGMENT_SIZE, (limit - n) // period + 1), dtype=bool)
        flags[0] = n > 1  # 1 is not prime
        small = np.searchsorted(p, -(-flags.size // FEW_HITS))
        for start, step in zip(first[:small].tolist(), p[:small].tolist()):
            flags[start::step] = False
        j, step = first[small:], p[small:]
        while (live := j < flags.size).any():  # until each p's next hit is past the end
            flags[j[live]] = False
            j, step = j[live] + step[live], step[live]
        if n + period * flags.size <= limit:  # another segment follows
            first -= flags.size
            np.maximum(first, first % p, out=first)
        yield n, period, flags


def pi_count(x, q, a):
    """Primes p <= x with p = a (mod q), by segmented sieve."""
    if x > PI_MAX_X:
        raise DomainError(f"x = {x} exceeds the pi limit {PI_MAX_X}")
    return sum(int(np.count_nonzero(hits)) for _, _, hits in _progression_hits(x, q, a))


# --- the logarithmic integral and its sandwich -------------------------------


def _check_integral_domain(M, L, a):
    if a <= 0:
        raise DomainError("a must be positive")
    if M < 0 or L < M:
        raise DomainError("need L >= M >= 0")


def I_closed(M, L, a):
    """Integral of a/(1 + l*a) for l from M to L: log((1+L*a)/(1+M*a))."""
    _check_integral_domain(M, L, a)
    return math.log((1 + L * a) / (1 + M * a))


def I_quadrature(M, L, a):
    """Numerical twin of I_closed by composite Gauss-Legendre quadrature.

    [M, L] splits into panels [lo, min(L, 2*lo + 1/a)], each as wide as its
    distance from the pole at -1/a, and every panel takes GAUSS_POINTS
    nodes.  No log is called, so the value is independent of I_closed's.
    """
    from numpy.polynomial import legendre  # only here: a few ms to import

    _check_integral_domain(M, L, a)
    edges = [M]
    while edges[-1] < L:
        edges.append(min(L, 2 * edges[-1] + 1 / a))
    edges = np.array(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    nodes, weights = legendre.leggauss(GAUSS_POINTS)
    half = (hi - lo)[:, None] / 2
    t = (hi + lo)[:, None] / 2 + half * nodes
    return float((half * weights * (a / (1 + t * a))).sum())


def riemann_tail_sum(M, L, a):
    """Sum of a/(1 + l*a) for integer l from M to L inclusive.

    For a > 0 and L >= M >= 1 the sum is pinched between unit-shifted
    integrals: I_closed(M - 1, L, a) > sum > I_closed(M, L + 1, a).
    """
    _check_integral_domain(M, L, a)
    return sum(a / (1 + l * a) for l in range(M, L + 1))


# --- von Mangoldt and Chebyshev psi ------------------------------------------


def _spf(limit, q, start):
    """Smallest prime factor of each member start + q*i <= limit of its
    class (start >= 2), as int32: each prime p <= isqrt(limit), largest
    first so the smallest wins, writes itself over the members it divides,
    from i = -start/q (mod p) with stride p, or over all of them when p
    divides q and start.  Members left unset are prime, their own factor."""
    spf = np.zeros(len(range(start, limit + 1, q)), dtype=np.int32)
    for p in reversed(arith._sieve_upto(math.isqrt(limit))):
        if q % p:
            spf[-start * pow(q, -1, p) % p :: p] = p
        elif start % p == 0:
            spf[:] = p
    unset = np.flatnonzero(spf == 0)
    spf[unset] = start + q * unset
    return spf


def psi_paths(x, q, a):
    """Chebyshev psi over the progression a mod q, two independent routes:
    per-k von Mangoldt summation over _spf's class table (base primes from
    arith._sieve_upto), and pi's class primes plus the class powers of the
    primes up to isqrt(x) (base primes from _prime_flags)."""
    if q < 1:
        raise DomainError("q must be positive")
    if x > PSI_MAX_X:
        raise DomainError(f"x = {x} exceeds the psi limit {PSI_MAX_X}")
    a %= q
    if x < 1:
        return 0.0, 0.0
    if q > x:  # 1 <= n <= x < q: n = a mod q iff n = a, as mod x + 1 (0 if a > x)
        q, a = x + 1, a if a <= x else 0
    # Route 1: Lambda(k) for each k in the progression via smallest-prime-
    # factor reduction (k is a prime power iff dividing out spf reaches 1).
    start = a if a >= 2 else a + q * ((2 - a + q - 1) // q)
    p = _spf(x, q, start)
    w = np.arange(start, x + 1, q, dtype=np.int32) // p
    idx = np.flatnonzero(w % p == 0)
    while idx.size:
        w[idx] //= p[idx]
        idx = idx[w[idx] % p[idx] == 0]
    direct = float(np.log(p[w == 1].astype(np.float64)).sum())
    # Route 2: pi's class primes, then the class powers of primes <= isqrt(x).
    total = sum((float(np.log(n + step * np.flatnonzero(hits)).sum())
                 for n, step, hits in _progression_hits(x, q, a)), 0.0)
    for prime in np.flatnonzero(_prime_flags(math.isqrt(x))).tolist():
        pk = prime * prime
        while pk <= x:
            if pk % q == a:
                total += math.log(prime)
            pk *= prime
    return direct, total


def psi(x, q, a):
    """Chebyshev psi(x; q, a); both routes must agree to PSI_REL_TOL."""
    direct, enumerated = psi_paths(x, q, a)
    scale = max(abs(direct), abs(enumerated), 1.0)
    if abs(direct - enumerated) > PSI_REL_TOL * scale:
        raise SelfCheckError(f"psi paths disagree: {direct} vs {enumerated}")
    return direct


# --- the assembled report -----------------------------------------------------


def density_report(x, epsilon, allow_probable=True) -> CensusReport:
    """All census statistics for (x, epsilon) in one report."""
    epsilon = Fraction(epsilon)
    if x < 1:
        raise DomainError("x must be positive")
    L = arith.max_m_leq(epsilon, x) - 1
    if L < 1:
        raise DomainError(f"empty window: L = {L} for x = {x}, epsilon = {epsilon}")
    # N's window, m < epsilon*log2(x), lacks row L + 1 if x^num = 2^((L+1)*den)
    rows = L + (x**epsilon.numerator != 1 << (L + 1) * epsilon.denominator)
    if (size := rows * (per_row := max((x + 1) // 2, SIEVE_BOUND))) > TABLE_BYTES_MAX:
        raise DomainError(f"census for x = {x} charges {size} flags ({rows} rows "
                          f"of {per_row}), over the budget of {TABLE_BYTES_MAX}")
    terms, S, first, flags_m, certified = _census_flags(x, epsilon, L, rows, allow_probable)
    s_sum = sum(c for _, c in terms)  # sigma: the pi terms sum S(k, L)
    s_sq = sum(s * s * int(np.count_nonzero(S == s)) for s in range(1, L + 1))
    m_count = int(np.count_nonzero(flags_m))
    return CensusReport(
        x=x,
        epsilon=epsilon,
        L=L,
        sigma=s_sum,
        pi_terms=terms,
        sum_S_squared=s_sq,
        N=int(np.count_nonzero(first)),
        M=m_count,
        M_prime=_closure_count(flags_m),
        H_lower=1 + m_count,
        cs_lower_bound=Fraction(s_sum * s_sum, s_sq) if s_sq else Fraction(0),
        upper_curve=2 * x * math.log2(1 + float(epsilon)),
        certified=certified,
        degenerate_flags=() if s_sq else ("cs_lower_bound_zero_denominator",),
    )
