import math
import random
import tracemalloc
import weakref
from bisect import bisect_left
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hadcensus import arith, census
from hadcensus.census import (
    I_closed,
    I_quadrature,
    density_report,
    pi_count,
    psi,
    psi_paths,
    riemann_tail_sum,
)
from hadcensus.errors import DomainError


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_mangoldt(k):
    """log p when k = p^j by trial division, else 0 (also for k < 2)."""
    if k < 2:
        return 0.0
    p = next(d for d in range(2, k + 1) if k % d == 0)
    while k % p == 0:
        k //= p
    return math.log(p) if k == 1 else 0.0


VERDICTS = {}  # the brute census's arith.is_prime answers, shared by its cases


def verdict(n):
    if n not in VERDICTS:
        VERDICTS[n] = arith.is_prime(n)
    return VERDICTS[n]


def pi_prefix(limit, q, a):
    """Array c with c[x] = pi_count(x, q, a) for every x in 0..limit, from
    the segments of census._progression_hits."""
    marks = np.zeros(limit + 1, dtype=bool)
    for n, step, hits in census._progression_hits(limit, q, a):
        marks[n : n + step * hits.size : step] = hits
    return np.cumsum(marks, dtype=np.int64)


def class_row(l, x, screen):
    """Route 2's row l: flag j when _progression_hits, sieving the class
    2^l - 1 mod 2^(l+1) to 2^l*x with the odd primes of screen, keeps its
    member 2^l*(2j + 1) - 1, for each odd 2j + 1 <= x."""
    keep = np.zeros((x + 1) // 2, dtype=bool)
    for n, _, hits in census._progression_hits(x << l, 2 << l, (1 << l) - 1, screen):
        keep[n >> l + 1 : (n >> l + 1) + hits.size] = hits
    return keep


def strided_row(m, x, primes):
    """Row m of the census sieve by one strided slice per prime, the loop
    both census routes ran for every prime before few-hit primes struck in
    vectorised passes: each p of primes up to isqrt(2^m*x) strikes the odd
    k = 2^-m (mod p) but the one whose value 2^m*k - 1 is p itself."""
    keep = np.ones((x + 1) // 2, dtype=bool)
    keep[:1] = m > 1  # 2*1 - 1 = 1
    for p in primes[primes <= math.isqrt(x << m)].tolist():
        k = pow(2, -m, p)
        start = (k if k % 2 else k + p) // 2
        start += p * (((2 * start + 1) << m) - 1 == p)
        keep[start::p] = False
    return keep


def S_count(k, L, allow_probable=True):
    """Number of l in 1..L with 2^l*k - 1 counted as prime (k odd), one
    verdict at a time: the S of _brute_census."""
    return sum(verdict((k << l) - 1).counts(allow_probable)
               for l in range(1, L + 1))


def sieve_rows(x, eps):
    """The census's sieved rows for (x, eps), stacked into the table that
    density_report never holds."""
    return np.array(list(census._prime_rows(x, arith.max_m_leq(Fraction(eps), x))))


def n_rows(x, eps):
    """N's rows: the m >= 1 with m < eps*log2(x), i.e. 2^(m*den) <= x^num - 1."""
    return ((x**eps.numerator - 1).bit_length() - 1) // eps.denominator


def m_window(x, eps, allow_probable=True):
    """M's flag per odd k <= x from one census pass."""
    eps = Fraction(eps)
    L = arith.max_m_leq(eps, x) - 1
    return census._census_flags(x, eps, L, n_rows(x, eps), allow_probable)[3]


class Admitted(Exception):
    """Raised, with N's row count, by admit in place of a census pass."""


def admit(x, eps, L, rows, allow_probable):
    """Stands in for census._census_flags once a census passes its budget."""
    raise Admitted(rows)


def plant_row_fault(monkeypatch, fault):
    """Pass each row m of the census through fault(m, row) as it is yielded."""
    rows = census._prime_rows

    def faulty(x, count):
        for m, row in enumerate(rows(x, count), 1):
            fault(m, row)
            yield row

    monkeypatch.setattr(census, "_prime_rows", faulty)


NAIVE_LIMIT = 600  # test_matches_naive_count draws x up to it
NAIVE_FLAGS = [trial_division_prime(n) for n in range(NAIVE_LIMIT + 1)]
# test_class_shapes_against_naive runs x up to three periods of q = 2^12
SHAPE_FLAGS = [trial_division_prime(n) for n in range(3 * 4096 + 6)]
# classes holding 2, odd q, negative a and a >= q, and moduli past NAIVE_LIMIT
CLASSES = st.sampled_from([(2, 0), (4, 2), (1, 0)]) | st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=-30, max_value=40)) | st.tuples(
    st.integers(min_value=1, max_value=700),
    st.integers(min_value=-700, max_value=1400))


class TestSCount:
    def test_examples(self):
        assert S_count(3, 3) == 3  # 5, 11, 23
        assert S_count(1, 1) == 0  # 1 is not prime
        assert S_count(509203, 100) == 0  # Riesel number

    def test_against_trial_division(self):
        for k in range(1, 60, 2):
            expected = sum(
                1 for l in range(1, 11) if trial_division_prime((k << l) - 1)
            )
            assert S_count(k, 10) == expected


class TestSigma:
    def test_hand_case(self):
        report = density_report(4, 2)
        assert report.L == 3
        assert report.sigma == 5
        assert report.pi_terms == ((1, 1), (2, 2), (3, 2))

    def test_degenerate(self):
        report = density_report(2, 2)
        assert report.L == 1
        assert report.sigma == 0

    def test_window_error(self):
        with pytest.raises(DomainError,
                           match="^empty window: L = -1 for x = 2, epsilon = 1/2$"):
            density_report(2, Fraction(1, 2))
        with pytest.raises(DomainError, match="^x must be positive$"):
            density_report(0, 1)

    def test_identity_against_oracle(self):
        # brute force over all (k, l) pairs, trial division only
        report = density_report(100, 1)
        expected = sum(
            sum(1 for l in range(1, report.L + 1)
                if trial_division_prime((k << l) - 1))
            for k in range(1, 101, 2)
        )
        assert report.sigma == expected

    def test_progression_route_against_sieve(self):
        # the second route serves every row of a census; small x and l reach
        # the values that equal a screening prime.  A census hands it the
        # odd primes to max(SIEVE_BOUND, x): with the default bound every
        # row here is exact and keeps the primes; with 2^5, a row whose root
        # passes max(2^5, x) keeps what no screening prime up to that root
        # divides, other than as itself.
        for bound in (census.SIEVE_BOUND, 2**5):
            primes = np.array([p for p in range(3, max(bound, 1001) + 1, 2)
                               if trial_division_prime(p)])
            for x in (1, 2, 5, 100, 1001):
                screen = primes[primes <= max(bound, x)]
                for l in range(1, 12):
                    keep = class_row(l, x, screen)
                    root = math.isqrt(x << l)
                    if root <= max(bound, x):
                        assert np.count_nonzero(keep) == \
                            pi_count(x << l, 2 << l, (1 << l) - 1), (bound, x, l)
                        continue
                    divisors = screen[screen <= root].tolist()
                    values = [((2 * j + 1) << l) - 1 for j in range(keep.size)]
                    assert keep.tolist() == [
                        not any(n % p == 0 and n != p for p in divisors)
                        for n in values], (bound, x, l)


class TestSumSSquared:
    def test_examples(self):
        assert density_report(4, 2).sum_S_squared == 13
        assert density_report(2, 2).sum_S_squared == 0
        assert density_report(4, 1).sum_S_squared == 1


class TestCensusCounts:
    # x = 1, x < 4 at epsilon = 1 and (10, 1/2) leave the sigma window
    # empty: TestSigma.test_window_error covers them
    def test_N_examples(self):
        assert density_report(4, 1).N == 1
        assert density_report(4, 2).N == 2

    def test_M_examples(self):
        assert density_report(4, 1).M == 1
        assert density_report(10, 1).M == 4  # k = 3, 5, 7, 9

    def test_M_prime_examples(self):
        assert density_report(9, 1).M_prime == 4

    def test_M_prime_closure(self):
        # 15 = 3 * 5 qualifies through its factors at epsilon = 1
        flags = m_window(15, Fraction(1))
        report = density_report(15, 1)
        assert report.M_prime >= report.M
        base_3 = flags[(3 - 1) // 2]
        base_5 = flags[(5 - 1) // 2]
        assert base_3 and base_5
        # difference includes 15 exactly when 15 is not a base qualifier
        assert report.M_prime == report.M + (0 if flags[(15 - 1) // 2] else 1)

    def test_H_lower_examples(self):
        assert density_report(4, 1).H_lower == 2
        assert density_report(10, 1).H_lower == 5

    def test_monotone_in_x_and_epsilon(self):
        by_x = [density_report(x, 1) for x in range(4, 120)]
        by_eps = [density_report(100, e) for e in (Fraction(1, 2), 1, 2, 3)]
        for field in ("N", "M"):
            values = [getattr(r, field) for r in by_x]
            assert values == sorted(values)
            values = [getattr(r, field) for r in by_eps]
            assert values == sorted(values)

    def test_H_lower_dominates_M(self):
        for x in (10, 100, 500):
            for eps in (Fraction(1, 2), 1, 2):
                if (x, eps) != (10, Fraction(1, 2)):
                    report = density_report(x, eps)
                    assert report.H_lower >= report.M


class TestCauchySchwarz:
    @pytest.mark.parametrize("x,eps", [(4, 2), (50, 1), (200, 2), (500, 1)])
    def test_bound(self, x, eps):
        report = density_report(x, eps)
        s, ssq = report.sigma, report.sum_S_squared
        if ssq == 0:
            return
        assert report.N >= Fraction(s * s, ssq)

    def test_hand_case(self):
        assert density_report(4, 2).N == 2 >= Fraction(25, 13)


class TestPiCount:
    def test_examples(self):
        assert pi_count(100, 4, 3) == 13
        assert pi_count(100, 8, 3) == 7
        assert pi_count(10, 2, 1) == 3
        assert pi_count(0, 4, 3) == 0
        assert pi_count(1, 4, 3) == 0

    def test_against_naive(self):
        limit = 3000
        flags = [trial_division_prime(n) for n in range(limit + 1)]
        for q, a in ((4, 3), (8, 3), (3, 1), (1, 0)):
            expect = 0
            for x in range(limit + 1):
                if flags[x] and x % q == a % q:
                    expect += 1
                if x % 379 == 0:  # sample of x values
                    assert pi_count(x, q, a) == expect

    def test_prefix_matches_point_queries(self, monkeypatch):
        point = {x: pi_count(x, 4, 3) for x in (0, 1, 2, 3, 100, 1999, 2000)}
        monkeypatch.setattr(census, "SEGMENT_SIZE", 256)
        pref = pi_prefix(2000, 4, 3)
        for x, count in point.items():
            assert int(pref[x]) == count

    def test_small_segments(self, monkeypatch):
        monkeypatch.setattr(census, "SEGMENT_SIZE", 7)
        assert pi_count(100, 4, 3) == 13
        # the sieve reads the patched size: the 25 odd members 3, 7, ..., 99
        # of 3 mod 4 in ceil(25 / 7) = 4 segments
        members = len(range(3, 101, 4))
        segments = list(census._progression_hits(100, 4, 3))
        assert len(segments) == -(-members // census.SEGMENT_SIZE) == 4
        assert [hits.size for _, _, hits in segments] == [7, 7, 7, 4]

    @pytest.mark.parametrize("q,a,primes", [
        # gcd(a, q) > 1: the class holds at most the one prime gcd(a, q)
        (9, 3, [3]), (10, 5, [5]), (6, 3, [3]), (15, 6, []), (4, 0, []),
        # q shares the base primes 2..11, and passes x = 100 below
        (210, 1, None), (210, 11, None), (2310, 13, None), (2310, 2309, None),
    ] + [(2 << l, (1 << l) - 1, None) for l in range(1, 12)])  # q up to 2^12
    @pytest.mark.parametrize("segment", [5, 1 << 20])
    def test_class_shapes_against_naive(self, q, a, primes, segment, monkeypatch):
        limit = len(SHAPE_FLAGS) - 1
        naive = np.cumsum([f and (n - a) % q == 0 for n, f in enumerate(SHAPE_FLAGS)])
        monkeypatch.setattr(census, "SEGMENT_SIZE", segment)
        # FEW_HITS = 1: every p below a segment's size strides; 16, the
        # default; past every segment's size: every p strikes in passes.  At
        # segment = 5 each p's next hit after the passes carries across edges.
        for few in (1, 16, len(SHAPE_FLAGS)):
            monkeypatch.setattr(census, "FEW_HITS", few)
            prefix = pi_prefix(limit, q, a)
            assert np.array_equal(prefix, naive), few
            for x in (0, 2, 100, q - 1, q, q + 1, limit):
                assert pi_count(x, q, a) == naive[x], (few, x)
            if primes is not None:
                assert np.flatnonzero(np.diff(prefix, prepend=0)).tolist() == primes

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_count(self, data):
        q, a = data.draw(CLASSES, label="q, a")
        seg = data.draw(st.integers(min_value=1, max_value=9), label="segment")
        # segment n starts at the odd member r + n*seg*period of the class
        # (r = 1 stands in when it has none); draw x at its edges too
        period = 2 * q // math.gcd(2, q)
        r = next((m for m in range(1, period, 2) if (m - a) % q == 0), 1)
        n = data.draw(st.integers(0, max(NAIVE_LIMIT - r, 0) // (seg * period)))
        edge = min(r + n * seg * period, NAIVE_LIMIT)
        x = data.draw(st.sampled_from([edge - 1, edge])
                      | st.integers(min_value=-2, max_value=NAIVE_LIMIT), label="x")
        hits = [NAIVE_FLAGS[k] and (k - a) % q == 0 for k in range(max(x + 1, 0))]
        naive = np.cumsum(hits, dtype=np.int64)
        # hypothesis refuses the function-scoped monkeypatch fixture
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census, "SEGMENT_SIZE", seg)
            assert pi_count(x, q, a) == (naive[-1] if x >= 0 else 0)
            if x >= -1:
                pref = pi_prefix(x, q, a)
                assert pref.dtype == np.int64
                assert np.array_equal(pref, naive)

    @pytest.mark.parametrize("q,a", [
        pytest.param(2 << l, (1 << l) - 1, id=f"l={l}")
        for l in (30, 31, 32, 45, 46, 47, 61, 62, 63, 92, 93, 130)
    ] + [pytest.param(3 << 94, (1 << 93) - 1, id="odd period")])
    def test_limbs_against_naive(self, q, a):
        # r mod p is read in limbs as wide as the largest base prime allows,
        # 46 bits for the odd primes below 2^17, and r = a, of 30 to 130 bits,
        # falls on both sides of the edges of 31- and 46-bit limbs.  Naively,
        # p strikes a member exactly when p divides it and it is at least p^2:
        # when the least base prime dividing it has p^2 <= member.
        primes = np.array(arith._sieve_upto(1 << 17)[1:], dtype=np.int64)
        base = [p for p in primes.tolist() if q % p]  # 3 divides q = 3 * 2^94
        product, limit = math.prod(base), a + q * 200
        naive = []
        for n in range(a, limit + 1, q):
            common = math.gcd(n, product)
            least = next((p for p in base if common % p == 0), n)
            naive.append(least * least > n)
        hits = [h for _, _, h in census._progression_hits(limit, q, a, primes)]
        assert np.concatenate(hits).tolist() == naive

    @pytest.mark.parametrize("l,count", [
        (1, 2880504), (2, 1440544), (3, 720456),
        (4, 359962), (5, 179951), (6, 90049),
    ])
    def test_workload_scale_values(self, l, count):
        # pi(10^8; 2^(l+1), 2^l - 1) as the sieve over every integer gave it
        assert pi_count(10**8, 2 ** (l + 1), 2**l - 1) == count


class TestIntegral:
    def test_examples(self):
        assert I_closed(1, 1, 0.5) == 0.0
        assert I_closed(1, 3, 0.5) == pytest.approx(math.log(2.5 / 1.5), abs=1e-12)
        assert I_closed(0, 4, 0.25) == pytest.approx(math.log(2), abs=1e-12)
        # the Riemann sum includes both endpoints
        for M, a in ((1, 0.5), (7, 0.25), (100, 1.0)):
            assert riemann_tail_sum(M, M, a) == a / (1 + M * a)
        assert riemann_tail_sum(1, 3, 0.5) == pytest.approx(47 / 60)

    def test_domain(self):
        with pytest.raises(DomainError):
            I_closed(1, 3, 0)
        with pytest.raises(DomainError):
            I_closed(3, 1, 0.5)
        with pytest.raises(DomainError):
            riemann_tail_sum(1, 3, 0)
        with pytest.raises(DomainError):
            riemann_tail_sum(1, 3, -0.5)
        with pytest.raises(DomainError):
            riemann_tail_sum(3, 1, 0.5)

    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=100),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_sandwich_and_quadrature(self, M, dL, a):
        # The integrand a/(1+ta) is strictly decreasing, so the tail sum
        # over l = M..L is pinched between unit-shifted integrals.
        L = M + dL
        mid = riemann_tail_sum(M, L, a)
        assert I_closed(M - 1, L, a) > mid > I_closed(M, L + 1, a)
        assert mid > I_closed(M, L, a)
        assert abs(I_closed(M, L, a) - I_quadrature(M, L, a)) <= 1e-9

    @pytest.mark.parametrize("a", [1e-6, 1e6])
    @pytest.mark.parametrize("M, L", [(0, 10**4), (100, 100 + 10**4), (0, 0), (37, 37)])
    def test_quadrature_at_the_extremes(self, M, L, a):
        # M = 0, L - M = 10^4, M = L and a at both ends of 1e-6..1e6, which
        # test_sandwich_and_quadrature's draws never reach
        assert abs(I_closed(M, L, a) - I_quadrature(M, L, a)) <= 1e-9

    def test_quadrature_calls_no_log(self, monkeypatch):
        # the quadrature stays independent of I_closed's log
        expected = I_quadrature(3, 500, 0.25)

        def refused(*args):
            raise AssertionError("I_quadrature called a log")

        for module, name in ((math, "log"), (math, "log1p"), (np, "log"), (np, "log1p")):
            monkeypatch.setattr(module, name, refused)
        assert I_quadrature(3, 500, 0.25) == expected


class TestMangoldt:
    def test_examples(self):
        # psi(n) - psi(n - 1) over every integer is Lambda(n)
        def step(n):
            return psi(n, 1, 0) - psi(n - 1, 1, 0)

        assert step(8) == pytest.approx(math.log(2))
        assert step(6) == 0.0
        assert step(1) == 0.0
        assert step(7) == pytest.approx(math.log(7))
        assert step(9) == pytest.approx(math.log(3))


class TestPsi:
    def test_examples(self):
        assert psi(1, 3, 1) == 0.0
        assert psi(10, 2, 1) == pytest.approx(math.log(315), rel=1e-12)
        assert psi(10, 4, 3) == pytest.approx(math.log(21), rel=1e-12)

    def test_paths_agree(self):
        for x in (10, 100, 5000):
            for q in (2, 4, 8):
                for a in range(q):
                    d, e = psi_paths(x, q, a)
                    assert d == pytest.approx(e, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("q", [2**63, 10**30])
    def test_modulus_past_x(self, q):
        # below q the class a mod q holds at most one integer, a mod q itself
        for x in (1, 10, 961):
            for a in (0, 1, 9, 961, 962, q - 1, q + 7, 4 - q):
                expected = sum(brute_mangoldt(k) for k in range(1, x + 1)
                               if (k - a) % q == 0)
                direct, enumerated = psi_paths(x, q, a)
                assert direct == pytest.approx(expected, rel=1e-12, abs=1e-12)
                assert enumerated == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_matches_scalar_mangoldt(self):
        x, q, a = 300, 4, 1
        expected = sum(brute_mangoldt(k) for k in range(1, x + 1) if k % q == a)
        assert psi(x, q, a) == pytest.approx(expected, rel=1e-12)

    def test_each_route_against_brute_force(self):
        lam = [brute_mangoldt(k) for k in range(5001)]
        for x in (1, 2, 3, 4, 30, 961, 5000):
            for q in range(1, 9):
                for a in range(q):  # every class, coprime to q or not
                    expected = math.fsum(lam[a : x + 1 : q])
                    direct, enumerated = psi_paths(x, q, a)
                    assert direct == pytest.approx(expected, rel=1e-12, abs=1e-12)
                    assert enumerated == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_spf_against_trial_division(self):
        spf = [0, 0] + [next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)
                        for k in range(2, 5001)]
        limits = (0, 1, 2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 48, 49, 50, 120, 121, 122, 5000)
        for q in range(1, 13):
            # every class, by its least member >= 2; in (4, 2), (6, 3) and
            # (9, 3) a prime dividing q divides every member
            for start in range(2, q + 2):
                for limit in limits:  # p^2 - 1, p^2, p^2 + 1 for p = 2, 3, 5, 7, 11
                    table = census._spf(limit, q, start)
                    assert table.dtype == np.int32
                    assert table.tolist() == spf[start : limit + 1 : q], (q, start, limit)

    def test_routes_share_no_table(self, monkeypatch):
        x, q, a = 1000, 4, 1
        direct, enumerated = psi_paths(x, q, a)
        progression_hits = census._progression_hits

        def without_13(*args):  # route 2's class primes, without 13 = 1 mod 4
            for n, step, hits in progression_hits(*args):
                yield n, step, hits & (n + step * np.arange(hits.size) != 13)

        monkeypatch.setattr(census, "_progression_hits", without_13)
        d, e = psi_paths(x, q, a)
        assert d == direct and e == pytest.approx(enumerated - math.log(13), rel=1e-12)
        monkeypatch.undo()
        flags = census._prime_flags(math.isqrt(x))
        flags[3] = False  # route 2's base primes, without 3
        monkeypatch.setattr(census, "_prime_flags", lambda limit: flags)
        d, e = psi_paths(x, q, a)
        assert d == direct and e != pytest.approx(enumerated, rel=1e-9)
        monkeypatch.undo()
        sieve = arith._sieve_upto  # route 1's base primes, without 3
        monkeypatch.setattr(arith, "_sieve_upto",
                            lambda limit: tuple(p for p in sieve(limit) if p != 3))
        d, e = psi_paths(x, q, a)
        assert e == enumerated and d != pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("k,wrong", [(13, 7), (25, 3), (9, 7)])
    def test_planted_spf_fault_breaks_psi(self, monkeypatch, k, wrong):
        x, q, a = 1000, 4, 1
        enumerated = psi_paths(x, q, a)[1]
        spf = census._spf(x, q, 5).copy()  # members 5, 9, 13, ...
        spf[(k - 5) // q] = wrong
        monkeypatch.setattr(census, "_spf", lambda limit, q, start: spf)
        assert psi_paths(x, q, a)[1] == enumerated
        with pytest.raises(ArithmeticError, match="psi paths disagree"):
            psi(x, q, a)

    def test_peak_memory(self):
        # tracemalloc sees numpy's buffers; a bool table over all of 0..x
        # would alone take 1 MB here, an int32 one 4 MB, the class table 62 kB
        tracemalloc.start()
        try:
            psi_paths(10**6, 64, 63)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_no_table_outlives_the_call(self):
        # a table over 0..x kept past the call would take 1 MB for each x
        tracemalloc.start()
        try:
            for i in range(8):
                psi_paths(10**6 + i, 4, 3)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 100_000

    def test_planted_class_sieve_fault_breaks_psi(self, monkeypatch):
        # Without the base prime 13, pi's class sieve lets 169 = 13^2 through
        # as a prime (13*17 = 221 is past x), and route 2 no longer counts
        # 169 as a power of 13: route 2 gains log 13, route 1 does not move.
        x, q, a = 200, 4, 1
        direct, enumerated = psi_paths(x, q, a)
        count = pi_count(x, q, a)
        flags = census._prime_flags(math.isqrt(x))
        flags[13] = False
        monkeypatch.setattr(census, "_prime_flags", lambda limit: flags)
        assert pi_count(x, q, a) == count + 1
        d, e = psi_paths(x, q, a)
        assert d == direct and e == pytest.approx(enumerated + math.log(13), rel=1e-12)
        with pytest.raises(ArithmeticError, match="psi paths disagree"):
            psi(x, q, a)

    def test_size_cap(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a table was built past the cap")

        monkeypatch.setattr(census, "_spf", no_table)
        monkeypatch.setattr(census, "_prime_flags", no_table)
        monkeypatch.setattr(census, "_progression_hits", no_table)
        monkeypatch.setattr(arith, "_sieve_upto", no_table)
        assert census.PSI_MAX_X < 2**31
        with pytest.raises(DomainError, match="exceeds the psi limit"):
            psi(census.PSI_MAX_X + 1, 4, 1)


class TestDensityReport:
    def test_hand_case(self):
        report = density_report(4, 2)
        assert report.sigma == 5
        assert report.sum_S_squared == 13
        assert report.cs_lower_bound == Fraction(25, 13)
        assert report.N == 2
        assert report.N >= report.cs_lower_bound
        assert report.certified
        assert not report.degenerate_flags

    def test_degenerate_case(self):
        report = density_report(2, 2)
        assert report.sigma == 0
        assert report.cs_lower_bound == 0
        assert "cs_lower_bound_zero_denominator" in report.degenerate_flags

    def test_json_fields(self):
        d = density_report(4, 2).to_json_dict()
        for key in ("params", "sigma", "pi_terms", "sum_S_squared", "N", "M",
                    "M_prime", "H_lower", "cs_lower_bound", "upper_curve",
                    "certified", "degenerate_flags"):
            assert key in d
        assert d["params"]["epsilon"] == "2"

    def test_pi_terms_json(self):
        assert density_report(4, 2).to_json_dict()["pi_terms"] == [[1, 1], [2, 2], [3, 2]]

    def test_sigma_below_upper_curve(self):
        # upper_curve is twice sigma's main term, x*log2(1 + epsilon): an
        # observed bound, not a proved one.  The largest sigma/upper_curve
        # seen on small x is 0.60, at (5, 8).
        points = [(x, Fraction(eps)) for x in range(2, 400, 7)
                  for eps in ("1/4", "1/2", "1", "2")]
        points += [(x, Fraction(8)) for x in (3, 5, 7, 9, 15, 31)]
        for x, eps in points:
            if arith.max_m_leq(eps, x) >= 2:  # L >= 1
                report = density_report(x, eps)
                assert report.sigma <= report.upper_curve, (x, eps)


class TestWindowInclusion:
    @pytest.mark.parametrize("A", [2, 4])
    def test_small_scale(self, A):
        for eps in (Fraction(1, 2), Fraction(1)):
            for x in (100, 1000):
                lhs = density_report(x, A * eps).M
                rhs = density_report(x, eps).N - math.ceil(x ** (1 / A) / 2)
                assert lhs >= rhs


def _val(k, p):
    """Exponent of p in k."""
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e


def _brute_census(x, eps, allow_probable):
    """Every CensusReport count, one (k, m) pair at a time."""
    num, den = eps.numerator, eps.denominator

    def largest(holds):  # largest m >= 0 with holds(m), holds monotone
        m = 0
        while holds(m + 1):
            m += 1
        return m

    def counted(k, m):  # (2^m*k - 1 counts as prime, only probably prime)
        r = verdict((k << m) - 1)
        ok = bool(r) and (allow_probable or r.is_certified)
        return ok, ok and not r.is_certified

    ks = range(1, x + 1, 2)
    L = largest(lambda m: 2 ** (m * den) <= x**num) - 1  # m <= eps*log2(x)
    n_hi = largest(lambda m: 2 ** (m * den) < x**num)  # m < eps*log2(x)
    S = {k: S_count(k, L, allow_probable) for k in ks}
    pi_terms = tuple((l, sum(counted(k, l)[0] for k in ks))
                     for l in range(1, L + 1))
    certified = not any(counted(k, l)[1] for k in ks for l in range(1, L + 1))
    n_window = [[counted(k, m) for m in range(1, n_hi + 1)] for k in ks]
    N = sum(any(ok for ok, _ in pairs) for pairs in n_window)
    # every k that N counts has a certified prime in N's window
    n_certified = all(any(ok and not probable for ok, probable in pairs)
                      for pairs in n_window if any(ok for ok, _ in pairs))
    qualifies = {}
    m_certified = True
    for k in ks:
        m_hi = largest(lambda m: 2 ** (m * den) <= k**num)  # m <= eps*log2(k)
        first = next((m for m in range(1, m_hi + 1) if counted(k, m)[0]), None)
        qualifies[k] = first is not None
        m_certified = m_certified and (first is None or not counted(k, first)[1])
    closure = dict(qualifies)
    for k in ks:
        closure[k] = closure[k] or any(
            k % d == 0 and closure[d] and closure[k // d]
            for d in range(3, math.isqrt(k) + 1, 2))
    sigma_ = sum(S.values())
    ssq = sum(s * s for s in S.values())
    M = sum(qualifies.values())
    return {
        "L": L, "sigma": sigma_, "pi_terms": pi_terms, "sum_S_squared": ssq,
        "N": N, "M": M, "M_prime": sum(closure.values()) if x >= 3 else 0,
        "H_lower": M + 1,
        "cs_lower_bound": Fraction(sigma_ * sigma_, ssq) if ssq else 0,
        "upper_curve": 2 * x * math.log2(1 + float(eps)),
        "certified": certified and m_certified and n_certified,
        "m_detail": list(qualifies.values()),
        "degenerate_flags": () if ssq else ("cs_lower_bound_zero_denominator",),
    }


class TestCensusTable:
    # (2100, 5): the window reaches m = 55, so 2^m*k - 1 passes 2^64 and
    # rows from m = 23 on reach past SIEVE_BOUND^2 = 2^34; row 23 straddles
    # it (k <= 2047 lies below, k >= 2049 above).
    # (800, 6): the first window prime of k = 763 is 2^55*763 - 1, a probable
    # prime in a row below L = 56, so it clears the certified flag.
    # (837, 17/3): N's window is m = 1..55, one row past L = 54, and k = 763
    # has only the probable prime 2^55*763 - 1 there, which M leaves out
    # (55 > (17/3)*log2(763)); so N's window clears the certified flag.
    # (3, 163): L = 257 rows, so S(k, L) needs two bytes.
    # (1024, 1/2): x^num = 2^((L+1)*den), so N's window stops at row L, and
    # each row's first k in M's window falls on an exact power.
    GRID = [(2, 2), (4, 2), (100, Fraction(1, 2)), (300, 1), (500, Fraction(3, 2)),
            (800, 6), (837, Fraction(17, 3)), (3, 163), (1024, Fraction(1, 2)),
            (2100, 5)]

    def test_grid_covers_the_hard_cases(self):
        B = census.SIEVE_BOUND
        x, eps = self.GRID[-1]
        rows = arith.max_m_leq(eps, x)
        assert (x << rows) > 2**64
        assert any((1 << m) < B * B < (x << m) for m in range(1, rows + 1))
        # probable primes clear the certified flags
        assert not density_report(2100, 5).certified
        assert density_report(2100, 5, allow_probable=False).certified
        report = density_report(837, Fraction(17, 3))
        assert (report.N, report.certified) == (410, False)
        report = density_report(837, Fraction(17, 3), allow_probable=False)
        assert (report.N, report.certified) == (409, True)

    @pytest.mark.parametrize("allow_probable", [True, False])
    @pytest.mark.parametrize("x,eps", GRID)
    def test_report_matches_brute_force(self, x, eps, allow_probable):
        report = density_report(x, eps, allow_probable)
        expected = _brute_census(x, Fraction(eps), allow_probable)
        assert m_window(x, eps, allow_probable).tolist() == expected.pop("m_detail")
        assert report.L == expected.pop("L")
        for field, value in expected.items():
            assert getattr(report, field) == value, field

    def test_no_verdict_outlives_the_census(self):
        # (837, 17/3) tests values past SIEVE_BOUND^2; its verdicts, or a
        # table of flags to SIEVE_BOUND, kept past the call would
        # take more than 1 MB.  (9 991, 5) takes 14 s under tracemalloc.
        tracemalloc.start()
        try:
            density_report(837, Fraction(17, 3))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 100_000

    def test_census_asks_no_value_twice(self, monkeypatch):
        # past SIEVE_BOUND^2 the two sieves are compared first, and then
        # each survivor of the table is tested once
        asked = Counter()
        is_prime = arith.is_prime

        def counted(n):
            asked[n] += 1
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", counted)
        density_report(9991, 5)
        assert asked and max(asked.values()) == 1

    @pytest.mark.parametrize("x,eps", [(2100, 5), (837, Fraction(17, 3))])
    def test_second_route_asks_arith_nothing(self, monkeypatch, x, eps):
        # route 2 is a sieve alone: past SIEVE_BOUND^2 it is compared with
        # the table's sieve before the table's survivors are tested
        asked = []
        is_prime, route = arith.is_prime, census._progression_hits

        def counted_route(*args, **kwargs):
            with monkeypatch.context() as patch:
                patch.setattr(arith, "is_prime", lambda n: asked.append(n) or is_prime(n))
                yield from route(*args, **kwargs)

        monkeypatch.setattr(census, "_progression_hits", counted_route)
        density_report(x, eps)
        assert asked == []

    def test_census_past_the_sieve_floor_tests_nothing(self, monkeypatch):
        # at epsilon = 1 and x > SIEVE_BOUND the bound is x, and every row's
        # values 2^m*k - 1 < 2^m*x stay within x^2 (2^m <= x): both routes
        # are sieves
        asked = []
        is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: asked.append(n) or is_prime(n))
        density_report(131073, 1)
        assert asked == []
        assert census.SIEVE_BOUND < 131073

    def test_composites_past_the_sieve_bound_are_rejected(self, monkeypatch):
        # 2^m*k - 1 = p*q with both factors above the sieve bound (here
        # SIEVE_BOUND > x): the sieve cannot cross these out, only the
        # survivor test can, on the row the census folds in
        B = census.SIEVE_BOUND
        cases = [(30, 2583, 1939169, 1430239), (30, 2657, 1234241, 2311487),
                 (31, 1485, 1357009, 2350031), (31, 1531, 1598827, 2056381)]
        rows = {}
        plant_row_fault(monkeypatch, rows.__setitem__)  # keeps each row, faults none
        density_report(2657, 3)
        for m, k, p, q in cases:
            assert (k << m) - 1 == p * q and min(p, q) > B
            assert not rows[m][(k - 1) // 2], (m, k)

    def test_closure_matches_ascending_divisor_scan(self):
        rng = np.random.default_rng(11)
        x = 801
        for density in (0.02, 0.1, 0.4):
            flags = rng.random((x + 1) // 2) < density
            flags[0] = False  # k = 1 never qualifies
            has = {k: bool(flags[(k - 1) // 2]) for k in range(1, x + 1, 2)}
            for k in range(3, x + 1, 2):
                has[k] = has[k] or any(
                    k % d == 0 and has[d] and has[k // d]
                    for d in range(3, math.isqrt(k) + 1, 2))
            # the closure marks flags in place and counts what it marked
            count = census._closure_count(flags)
            assert flags.tolist() == [has[k] for k in range(1, x + 1, 2)]
            assert count == int(np.count_nonzero(flags)) == sum(has.values())
        # powers need more than one round of products
        flags = np.zeros(500, dtype=bool)
        flags[[1]] = True  # {3}: 3, 9, 27, 81, 243, 729
        assert census._closure_count(flags) == 6
        assert (2 * np.flatnonzero(flags) + 1).tolist() == [3, 9, 27, 81, 243, 729]
        flags[[1, 2, 3]] = True  # {3, 5, 7}: all 3^a 5^b 7^c <= 999
        assert census._closure_count(flags) == sum(
            1 for k in range(1, 1000, 2)
            if k > 1 and k == 3 ** _val(k, 3) * 5 ** _val(k, 5) * 7 ** _val(k, 7))

    @pytest.mark.parametrize("x,eps,m,k", [
        (100, 1, 1, 3),      # value 5: a row the screen decides exactly
        (2000, 2, 15, 999),  # value near 2^25: decided exactly too
        (1001, 3, 25, 999),  # value near 2^35: sieve survivors, tested later
    ])
    def test_planted_table_fault_breaks_sigma(self, monkeypatch, x, eps, m, k):
        def fault(row_m, row):
            if row_m == m:
                row[(k - 1) // 2] ^= True

        plant_row_fault(monkeypatch, fault)
        with pytest.raises(ArithmeticError, match="sigma identity") as error:
            density_report(x, eps)
        assert str(error.value) == f"sigma identity violated at l = {m}: k = {k}"

    @pytest.mark.parametrize("bound,x,eps,dropped,l,k", [
        (census.SIEVE_BOUND, 1000, 1, 3, 1, 5),
        (census.SIEVE_BOUND, 1000, 1, 101, 4, 827),
        # 2^13*937 - 1 = 997*7699 passes max(2^5, 1001)^2: the table's
        # sieve keeps it, and only a check before the test can see that
        (2**5, 1001, 3, 997, 13, 937),
        # 2^11*2419 - 1 = 1609*3079: row 11 is row L + 1, past sigma's
        # window, yet N and M read it
        (census.SIEVE_BOUND, 2501, 1, 1609, 11, 2419),
    ], ids=["3-1-5", "101-4-827", "997-13-937", "1609-11-2419"])
    def test_planted_sieve_fault_breaks_sigma(self, monkeypatch, bound, x, eps,
                                              dropped, l, k):
        # The table sieves with _prime_flags and the second route does not,
        # so a prime lost from _prime_flags leaves its multiples in the table
        # alone.
        sieve = census._prime_flags

        def faulty(limit):
            flags = sieve(limit)
            flags[dropped] = False
            return flags

        monkeypatch.setattr(census, "SIEVE_BOUND", bound)
        monkeypatch.setattr(census, "_prime_flags", faulty)
        with pytest.raises(ArithmeticError,
                           match=f"sigma identity violated at l = {l}: k = {k}$"):
            density_report(x, eps)

    @pytest.mark.parametrize("bound,x,eps,dropped,l,k", [
        (census.SIEVE_BOUND, 1000, 1, 3, 1, 5),
        (census.SIEVE_BOUND, 1000, 1, 101, 4, 827),
        (2**5, 1001, 3, 997, 13, 937),
        (census.SIEVE_BOUND, 2501, 1, 1609, 11, 2419),
    ], ids=["3-1-5", "101-4-827", "997-13-937", "1609-11-2419"])
    def test_planted_screen_fault_breaks_sigma(self, monkeypatch, bound, x, eps,
                                               dropped, l, k):
        # The converse: a prime lost from route 2's screen (arith's sieve)
        # leaves 2^l*k - 1 = dropped*(cofactor) in route 2 alone, at the same
        # (l, k), while the rows, sieved by _prime_flags, do not move.
        monkeypatch.setattr(census, "SIEVE_BOUND", bound)
        table = sieve_rows(x, eps)
        sieve = arith._sieve_upto
        monkeypatch.setattr(arith, "_sieve_upto",
                            lambda limit: tuple(p for p in sieve(limit) if p != dropped))
        with pytest.raises(ArithmeticError,
                           match=f"sigma identity violated at l = {l}: k = {k}$"):
            density_report(x, eps)
        assert np.array_equal(sieve_rows(x, eps), table)

    @pytest.mark.parametrize("x,eps,lost,gained", [
        (100, 1, 1, 2),     # rows the screen decides exactly
        (2000, 2, 14, 15),  # values near 2^25: decided exactly too
        (1001, 3, 24, 25),  # values near 2^35: sieve survivors, tested later
    ])
    def test_compensating_table_faults_break_sigma(self, monkeypatch, x, eps,
                                                   lost, gained):
        # One prime moved from row `lost` to row `gained`: the sum over l
        # still matches, so only the per-l comparison can see it.
        def fault(m, row):
            if m == lost:
                row[np.flatnonzero(row)[0]] = False
            if m == gained:
                row[np.flatnonzero(~row)[0]] = True

        plant_row_fault(monkeypatch, fault)
        with pytest.raises(ArithmeticError, match=f"sigma identity violated at l = {lost}:"):
            density_report(x, eps)

    def test_table_budget(self, monkeypatch):
        def charge(x, eps):  # N's rows, each charged at least SIEVE_BOUND flags
            return n_rows(x, Fraction(eps)) * max((x + 1) // 2, census.SIEVE_BOUND)

        # the benchmark's census sizes are charged a tenth of the budget or less
        for x, eps in ((10**5 + 1000, 1), (10**4 + 1000, 5)):
            assert 10 * charge(x, eps) < census.TABLE_BYTES_MAX
        assert charge(10**9, 1) > census.TABLE_BYTES_MAX
        # refused before a row is sieved or route 2's screen is built
        with monkeypatch.context() as patch:
            for name in ("_prime_rows", "_progression_hits"):
                patch.setattr(census, name, None)
            patch.setattr(arith, "_sieve_upto", None)
            with pytest.raises(DomainError, match="over the budget"):
                density_report(10**9, 1)
        # the budget is exact: 9 rows of 500 odd k sieve 4 500 bytes, and
        # each row is charged the floor of SIEVE_BOUND = 131 072 flags
        assert sum(row.nbytes for row in census._prime_rows(1000, 9)) == 4500
        assert charge(1000, 1) == 9 * 131072 == 1179648
        monkeypatch.setattr(census, "TABLE_BYTES_MAX", 1179648)
        assert density_report(1000, 1).L == 8
        monkeypatch.setattr(census, "TABLE_BYTES_MAX", 1179647)
        with pytest.raises(DomainError, match=r"^census for x = 1000 charges 1179648 "
                                              r"flags \(9 rows of 131072\), over the "
                                              r"budget of 1179647$"):
            density_report(1000, 1)

    def test_budget_refuses_what_the_two_caps_refused(self, monkeypatch):
        # The rule the budget replaced: at most 2^27 sieved flags, (L + 1)
        # rows of (x + 1)//2, and at most 2^10 rows.  Each row charged at
        # least 2^27 / 2^10 flags refuses the same pairs wherever N reads row
        # L + 1; where it does not, x = 2^a with epsilon*a an integer, the
        # unread row is no longer charged.  Nothing is sieved.
        def two_caps_refuse(x, L):
            return (L + 1) * ((x + 1) // 2) > 1 << 27 or L + 1 > 1 << 10

        monkeypatch.setattr(census, "_census_flags", admit)
        rng, pairs = random.Random(36), [(1 << 26, Fraction(5, 26))]
        for _ in range(3000):
            a = rng.randrange(1, 30)
            x = 1 << a if rng.random() < 0.3 else rng.randrange(2, 2 << a)
            edge = min((1 << 27) // ((x + 1) // 2), 1 << 10)  # the caps' most rows
            rows = max(1, edge + rng.randrange(-3, 4) if rng.random() < 0.7
                       else rng.randrange(1, 2 * edge + 2))
            if x == 1 << a and rng.random() < 0.5:
                pairs.append((x, Fraction(rows, a)))  # epsilon*log2(x) = rows
            else:
                den = rng.randrange(1, 33)
                num = round(rows * den / math.log2(x)) + rng.randrange(-den, den + 1)
                pairs.append((x, Fraction(max(num, 1), den)))
        outcomes, changed = Counter(), []
        for x, eps in pairs:
            L = arith.max_m_leq(eps, x) - 1
            if L < 1:
                continue
            try:
                density_report(x, eps)
            except Admitted:
                refused = False
            except DomainError as e:
                assert "over the budget" in str(e), (x, eps, e)
                refused = True
            if n_rows(x, eps) == L + 1:
                assert refused == two_caps_refuse(x, L), (x, eps)
                outcomes[refused, L + 1 > 1 << 10, (L + 1) * ((x + 1) // 2) > 1 << 27] += 1
            elif refused != two_caps_refuse(x, L):
                assert not refused, (x, eps)
                changed.append((x, eps))
        assert (1 << 26, Fraction(5, 26)) in changed
        # both outcomes, and each cap refusing alone and with the other
        assert set(outcomes) == {(False, False, False), (True, True, False),
                                 (True, False, True), (True, True, True)}, outcomes

    def test_budget_edges_at_x_3(self, monkeypatch):
        # x = 3 takes one odd k: the floor charges 2^17 flags a row, so
        # 2^10 rows are admitted and 2^10 + 1 refused
        monkeypatch.setattr(census, "_census_flags", admit)
        with pytest.raises(Admitted, match="^1024$"):
            density_report(3, Fraction(6461, 10))
        with pytest.raises(DomainError, match=r"^census for x = 3 charges 134348800 flags "
                                              r"\(1025 rows of 131072\), over the budget "
                                              r"of 134217728$"):
            density_report(3, 647)

    @pytest.mark.parametrize("x,eps,rows", [
        (1024, Fraction(1, 2), 4),  # epsilon*log2(x) = 5: row 5 is past N's window
        (4096, Fraction(1, 3), 3),  # = 4
        (1000, Fraction(1), 9),  # = 9.97: L = 8, and N reads row 9
    ])
    def test_census_sieves_and_checks_only_n_rows(self, monkeypatch, x, eps, rows):
        sieved, checked = census._prime_rows, census._progression_hits
        counts, classes = [], []

        def watched_rows(x, count):
            counts.append(count)
            yield from sieved(x, count)

        def watched_class(limit, q, a, primes):
            classes.append(q)
            return checked(limit, q, a, primes)

        monkeypatch.setattr(census, "_prime_rows", watched_rows)
        monkeypatch.setattr(census, "_progression_hits", watched_class)
        report = density_report(x, eps)
        assert counts == [rows] and n_rows(x, eps) == rows
        assert classes == [2 << m for m in range(1, rows + 1)]
        assert report.L == arith.max_m_leq(eps, x) - 1

    @pytest.mark.parametrize("x,eps", [(10**4, 1), (837, Fraction(17, 3))])
    def test_census_holds_one_row(self, monkeypatch, x, eps):
        # every row is freed by the time the row two past it is yielded: the
        # census folds each row in and holds no table
        rows, refs = census._prime_rows, []

        def watched(x, count):
            for row in rows(x, count):
                refs.append(weakref.ref(row))
                if len(refs) > 2:
                    assert refs[-3]() is None, f"row {len(refs) - 2} outlived row {len(refs)}"
                yield row

        monkeypatch.setattr(census, "_prime_rows", watched)
        report = density_report(x, eps)
        assert len(refs) == report.L + 1

    def test_no_per_k_copy_after_the_last_row(self, monkeypatch):
        # once the last row is folded in, N, S's moments, M and the M' closure
        # are reduced from S and M's flags where they lie: what the census
        # allocates from there on stays under 2 bytes per odd k (a copy of M's
        # flags takes 1, an int64 copy of S 8)
        x, rows, marks = 10**6, census._prime_rows, []

        def watched(x, count):
            yield from rows(x, count)
            marks.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()

        monkeypatch.setattr(census, "_prime_rows", watched)
        tracemalloc.start()
        try:
            density_report(x, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - marks[0] < 2 * ((x + 1) // 2)

    @given(st.integers(min_value=2, max_value=5000),
           st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10**6))
    @example(10**4, 18723, 16000, 0)  # epsilon at the POWER_BITS_MAX cap
    @example(10**4, 18723, 16000, 14)  # its last row, m = 15
    @example(1024, 1, 2, 3)  # m = 4: k >= 2^8, an exact power
    @settings(max_examples=200, deadline=None)
    def test_m_window_starts_at_the_least_k(self, x, num, den, pick):
        # For rows of which only row m is true, M's flags start at the least
        # odd k with k^num >= 2^(m*den), found here by exact powers alone.
        # Route 2 yields nothing to compare, and every value counts as prime.
        eps = Fraction(num, den)
        rows = n_rows(x, eps)
        assume(rows >= 1)
        m = 1 + pick % rows
        nk = (x + 1) // 2
        prime, seven = (np.full(nk, r == m) for r in range(1, rows + 1)), arith.is_prime(7)
        power = 1 << m * eps.denominator
        first = bisect_left(range(1, x + 1, 2), True,
                            key=lambda k: k**eps.numerator >= power)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(census, "_prime_rows", lambda x, count: prime)
            patch.setattr(census, "_progression_hits", lambda *args: iter(()))
            patch.setattr(arith, "is_prime", lambda n: seven)
            flags = census._census_flags(x, eps, arith.max_m_leq(eps, x) - 1, rows,
                                         True)[3]
        assert flags.tolist() == [j >= first for j in range(nk)]

    def test_m_window_holds_no_table_sized_array(self, monkeypatch):
        # (10^5, 1): 16 rows of 50 000 odd k, 0.8 MB.  With the rows and route
        # 2's segments made beforehand, what the census allocates from its
        # first row on, M's window among it, stays under a quarter of that.
        x, rows = 10**5, 16
        table = list(census._prime_rows(x, rows))
        screen = np.array(arith._sieve_upto(math.isqrt(x << rows))[1:])
        segments = {2 << m: list(census._progression_hits(x << m, 2 << m, (1 << m) - 1, screen))
                    for m in range(1, rows + 1)}

        def replay(x, count):
            tracemalloc.start()
            yield from table

        monkeypatch.setattr(census, "_prime_rows", replay)
        monkeypatch.setattr(census, "_progression_hits",
                            lambda limit, q, a, primes: iter(segments[q]))
        try:
            census._census_flags(x, Fraction(1), rows - 1, rows, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sum(row.nbytes for row in table) // 4

    @pytest.mark.parametrize("x", [3229, 3231, 3233])
    def test_few_hit_passes_match_strided_loop(self, x, monkeypatch):
        # (x + 1)//2 = 16*101 - 1, 16*101, 16*101 + 1 odd k: p = 101 hits a
        # row at most FEW_HITS = 16 times in the first two, so it strikes in
        # passes, and may hit 17 times in the third, so the strided loop
        # keeps it there.  The rows pass SIEVE_BOUND^2 from m = 23.  A
        # FEW_HITS of 1 leaves every p below the number of k to the loop; one
        # of (x + 1)//2 leaves it nothing.
        # At 9, p = 179 = (x + 1)//2 // 9 hits row 7 ten times: the few-hit
        # class starts at the ceiling of (x + 1)//2 / FEW_HITS, not the floor.
        nk = (x + 1) // 2
        screen = np.array(arith._sieve_upto(census.SIEVE_BOUND)[1:])
        expected = [strided_row(m, x, screen) for m in range(1, 25)]
        for few in (1, 2, 9, census.FEW_HITS, nk):
            monkeypatch.setattr(census, "FEW_HITS", few)
            prime = np.array(list(census._prime_rows(x, 24)))
            for m, row in enumerate(expected, 1):
                assert prime[m - 1].tolist() == row.tolist(), (few, m)
                assert class_row(m, x, screen).tolist() == row.tolist(), (few, m)

    def test_table_holds_no_strike_index(self):
        # (10^5, 16): 16 rows of 50 000 odd k, struck by up to 7 922 odd
        # primes; an index of every strike would take several MB
        tracemalloc.start()
        try:
            for _ in census._prime_rows(10**5, 16):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_progression_route_holds_no_strike_index(self):
        # 5 800 screening primes over 50 000 odd k: an index of every strike
        # would hold about 100 000 int64 entries
        screen = np.array(arith._sieve_upto(census.SIEVE_BOUND)[1:])
        tracemalloc.start()
        try:
            keep = class_row(15, 10**5, screen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(keep) == pi_count(10**5 << 15, 1 << 16, (1 << 15) - 1)
        assert peak < 1 << 20
