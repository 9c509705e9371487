import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadcensus import arith, census
from hadcensus.arith import Method, Verdict, factorize, is_prime, jacobi, mult_order
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


class TestIsPrime:
    def test_examples(self):
        assert is_prime(9).verdict is Verdict.COMPOSITE
        assert is_prime(19).verdict is Verdict.PRIME
        assert is_prime(2147483647).verdict is Verdict.PRIME
        assert is_prime(1).verdict is Verdict.NOT_PRIME
        assert is_prime(0).verdict is Verdict.NOT_PRIME

    def test_matches_trial_division_dense(self):
        for n in range(200_000):
            assert bool(is_prime(n)) == trial_division_prime(n), n

    def test_matches_trial_division_sampled_to_1e7(self):
        rng = random.Random(7)
        for _ in range(2000):
            n = rng.randrange(2, 10**7)
            assert bool(is_prime(n)) == trial_division_prime(n), n

    def test_certification_invariants(self):
        r = is_prime(19)
        assert r.method is not Method.PROBABLE_PRIME and r.is_certified
        big = is_prime(2**89 - 1)  # Mersenne prime above the 64-bit line
        assert big.verdict is Verdict.PRIME
        assert big.method is Method.PROBABLE_PRIME
        assert not big.is_certified

    def test_large_composites_are_certified(self):
        # composite verdicts are exact regardless of size
        n = (2**89 - 1) * (2**107 - 1)
        r = is_prime(n)
        assert r.verdict is Verdict.COMPOSITE and r.is_certified
        assert r.method is Method.BAILLIE_PSW  # no witness set reaches past 2^64

    def test_strong_lucas_composite_label(self, monkeypatch):
        # the base-2 test passes n by fiat, so the strong Lucas step decides
        monkeypatch.setattr(arith, "_mr_composite", lambda n, a, d, s: False)
        r = is_prime((2**89 - 1) * (2**107 - 1))
        assert r.verdict is Verdict.COMPOSITE and r.is_certified
        assert r.method is Method.BAILLIE_PSW

    def test_census_labels_past_2_64(self, monkeypatch):
        # census (9 991, 5) tests 21 669 window members, thousands past 2^64
        real, seen = arith.is_prime, Counter()

        def labelled(n):
            r = real(n)
            seen[n >= arith.DETERMINISTIC_LIMIT, r.method] += 1
            return r

        monkeypatch.setattr(arith, "is_prime", labelled)
        census.density_report(9991, 5)
        assert seen[True, Method.DETERMINISTIC_WITNESS_SET] == 0
        assert seen[True, Method.BAILLIE_PSW] > 0 and seen[True, Method.PROBABLE_PRIME] > 0

    def test_beyond_float_range(self):
        # 3*2^1274 - 1 is a known Riesel prime; above 2^1024 the Lucas
        # step's perfect-square test must not go through a float
        r = is_prime(3 * 2**1274 - 1)
        assert r.verdict is Verdict.PRIME and r.method is Method.PROBABLE_PRIME
        assert arith._is_square((3 * 2**1274 - 1) ** 2)
        assert not arith._is_square((3 * 2**1274 - 1) ** 2 + 1)

    def test_strong_pseudoprimes_to_base_2(self):
        for n in (2047, 3277, 4033, 4681, 8321, 15841, 65281):
            assert not is_prime(n)


class TestSmallPrimeScreen:
    def test_matches_sieve(self):
        primes = set(arith._sieve_upto(20_000))
        for n in range(20_000):
            assert bool(is_prime(n)) == (n in primes), n

    def test_sieve_upto_bound(self):
        # math.isqrt(limit) is the exact last base prime candidate: every
        # limit below 2000 against trial division, then pi(2^16) and pi(2^20)
        # distinct, ascending values that each pass is_prime
        primes = [n for n in range(2000) if trial_division_prime(n)]
        for limit in range(2000):
            assert arith._sieve_upto(limit) == tuple(p for p in primes if p <= limit)
        for limit, count in ((1 << 16, 6542), (1 << 20, 82025)):
            got = arith._sieve_upto(limit)
            assert len(got) == count and list(got) == sorted(set(got))
            assert got[-1] <= limit and all(is_prime(p) for p in got)

    def test_squarefree_products_of_small_primes(self):
        # gcd(n, product of SMALL_PRIMES) = n for these: n itself decides
        for n in (6, 15, 30, 105, 210, 385, 3 * 331, 991):
            r = is_prime(n)
            assert r.method is Method.TRIAL_DIVISION and r.is_certified
            assert r.verdict is (Verdict.PRIME if n == 991 else Verdict.COMPOSITE), n

    def test_around_the_trial_division_limit(self):
        assert arith._SMALL_LIMIT == 997**2
        for n in (991 * 997, 997**2):
            assert is_prime(n).verdict is Verdict.COMPOSITE
            assert is_prime(n).method is Method.TRIAL_DIVISION
        assert is_prime(993_997).method is Method.TRIAL_DIVISION  # prime below the limit
        assert is_prime(993_997).verdict is Verdict.PRIME
        for n, prime in ((1009**2, False), (994_013, True), (1009 * 1013, False)):
            r = is_prime(n)  # no factor below 1000, past the limit
            assert bool(r) is prime and r.is_certified, n
            assert r.method is not Method.TRIAL_DIVISION, n


def riesel_form(k, t):
    return (k << t) - 1


class TestLucasLehmerRiesel:
    def test_method_labels(self):
        r = is_prime(2**61 - 1)  # k = 1, t = 61
        assert r.verdict is Verdict.PRIME and r.is_certified
        assert r.method is Method.LUCAS_LEHMER_RIESEL
        r = is_prime(2**59 - 1)  # 179951 * 3203431780337
        assert r.verdict is Verdict.COMPOSITE and r.is_certified
        assert r.method is Method.LUCAS_LEHMER_RIESEL
        r = is_prime(10**18 + 9)  # n + 1 = 2*odd: not of the form
        assert r.verdict is Verdict.PRIME and r.is_certified
        assert r.method is Method.DETERMINISTIC_WITNESS_SET
        r = is_prime(3 * 2**64 - 1)  # Riesel-form prime past 2^64
        assert r.verdict is Verdict.PRIME and not r.is_certified
        assert r.method is Method.PROBABLE_PRIME

    def test_against_sympy_small_k(self):
        sympy = pytest.importorskip("sympy")
        for m in range(2, 40):
            for k in range(1, min(1 << m, 500), 2):
                n = riesel_form(k, m)
                r = is_prime(n)
                assert bool(r) == sympy.isprime(n), (k, m)
                if n >= arith._SMALL_LIMIT and math.gcd(n, arith._SMALL_PRODUCT) == 1:
                    assert r.method is Method.LUCAS_LEHMER_RIESEL, (k, m)

    def test_against_sympy_sampled_to_2_64(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(64)
        for _ in range(3000):
            t = rng.randrange(20, 64)
            k = rng.randrange(1, min(1 << t, 1 << (64 - t)), 2)
            n = riesel_form(k, t)
            assert n < arith.DETERMINISTIC_LIMIT
            r = is_prime(n)
            assert bool(r) == sympy.isprime(n), (k, t)
            if math.gcd(n, arith._SMALL_PRODUCT) == 1:
                assert r.method is Method.LUCAS_LEHMER_RIESEL, (k, t)

    def test_both_sides_of_2_64(self, monkeypatch):
        below_primes = (riesel_form(4294967247, 32), riesel_form(4294967195, 32))
        above_primes = (riesel_form(2147483649, 33), riesel_form(2147483685, 33))
        for n in below_primes:
            assert n < arith.DETERMINISTIC_LIMIT
            r = is_prime(n)
            assert r.verdict is Verdict.PRIME and r.method is Method.LUCAS_LEHMER_RIESEL
        r = is_prime(riesel_form(4294967249, 32))  # the next odd k: composite
        assert r.verdict is Verdict.COMPOSITE
        # nothing at or past 2^64 reaches LLR
        monkeypatch.setattr(arith, "_llr", lambda n: pytest.fail(f"LLR called on {n}"))
        for n in above_primes:
            assert n > arith.DETERMINISTIC_LIMIT
            r = is_prime(n)
            assert r.verdict is Verdict.PRIME and r.method is Method.PROBABLE_PRIME
            assert not r.is_certified
        rng = random.Random(65)
        for _ in range(200):
            t = rng.randrange(33, 90)
            n = riesel_form(rng.randrange(1, 1 << 31, 2) | 1 << 31, t)
            assert n > arith.DETERMINISTIC_LIMIT
            assert is_prime(n).method is not Method.LUCAS_LEHMER_RIESEL

    def test_p_search_bound_falls_back(self, monkeypatch):
        # past the bound the witness set decides, with its own label
        monkeypatch.setattr(arith, "LLR_P_BOUND", 3)
        for n, prime in ((2**61 - 1, True), (2**59 - 1, False)):
            r = is_prime(n)
            assert bool(r) is prime and r.method is Method.DETERMINISTIC_WITNESS_SET
        # only P = 3 is tried: n with (5 | n) = 1 falls back
        monkeypatch.setattr(arith, "LLR_P_BOUND", 4)
        n = 2**61 - 1
        assert jacobi(5, n) == 1
        assert arith._llr(n) is None
        assert is_prime(n).method is Method.DETERMINISTIC_WITNESS_SET
        assert jacobi(5, 2**31 - 1) == -1
        assert is_prime(2**31 - 1).method is Method.LUCAS_LEHMER_RIESEL


ODD_PRIMES = [p for p in arith.SMALL_PRIMES if p > 2]


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(0, 300),
       st.integers(1, 499_999).map(lambda h: 2 * h + 1))
@settings(max_examples=300, deadline=None)
def test_lucas_v_ladder_meets_the_recurrence(P, Q, k, n):
    # the ladder that LLR and the strong Lucas test share, against V_0 = 2,
    # V_1 = P, V_{i+1} = P*V_i - Q*V_{i-1} step by step (Q < 0 as Selfridge's)
    v = [2 % n, P % n]
    for _ in range(k):
        v.append((P * v[-1] - Q * v[-2]) % n)
    assert arith._lucas_v(P, Q, k, n) == (v[k], v[k + 1], pow(Q, k, n))


class TestStrongLucas:
    # With the base-2 strong test, _strong_lucas_prp decides every n past
    # 2^64; these tests call it directly, never through is_prime.

    def test_pseudoprimes_below_1e5(self):
        # it passes every odd prime and, of the odd composites, exactly the
        # strong Lucas pseudoprimes of OEIS A217255 (it rejects squares)
        limit = 10**5
        composite = bytearray(limit)
        for p in range(3, math.isqrt(limit) + 1, 2):
            composite[p * p :: 2 * p] = b"\x01" * len(range(p * p, limit, 2 * p))
        passed = [n for n in range(3, limit, 2) if arith._strong_lucas_prp(n)]
        assert [n for n in passed if composite[n]] == [
            5459, 5777, 10877, 16109, 18971, 22499,
            24569, 25199, 40309, 58519, 75077, 97439]
        assert [n for n in passed if not composite[n]] == [
            n for n in range(3, limit, 2) if not composite[n]]

    def test_against_sympy(self):
        primetest = pytest.importorskip("sympy.ntheory.primetest")
        rng = random.Random(89)
        sample = [3 * 2**64 - 1, 2**89 - 1, 2**127 - 1,
                  (2**89 - 1) * (2**107 - 1), (2**61 - 1) * (2**127 - 1)]
        sample += [rng.randrange(1 << 64, 1 << 96) | 1 for _ in range(300)]
        sample += [(rng.randrange(1, 1 << 20, 2) << rng.randrange(64, 200)) - 1
                   for _ in range(300)]
        for n in sample:
            assert arith._strong_lucas_prp(n) == primetest.is_strong_lucas_prp(n), n
        assert all(map(arith._strong_lucas_prp, sample[:3]))
        assert not any(map(arith._strong_lucas_prp, sample[3:5]))


class TestJacobi:
    def test_examples(self):
        assert jacobi(0, 7) == 0
        assert jacobi(1, 7) == 1
        assert jacobi(3, 7) == -1
        assert jacobi(2, 7) == 1

    def test_even_modulus_rejected(self):
        with pytest.raises(DomainError):
            jacobi(3, 8)
        with pytest.raises(DomainError):
            jacobi(3, 0)

    @given(st.sampled_from(ODD_PRIMES), st.integers(min_value=1, max_value=10**6))
    def test_euler_criterion(self, p, a):
        if a % p == 0:
            return
        expected = pow(a, (p - 1) // 2, p)
        assert jacobi(a, p) % p == expected

    @given(
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=-100, max_value=100),
        st.integers(min_value=0, max_value=200),
    )
    def test_multiplicative(self, a, b, i):
        n = 2 * i + 1
        if n < 1:
            return
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


class TestMultOrder:
    def test_examples(self):
        assert mult_order(2, 3) == 2
        assert mult_order(2, 7) == 3
        assert mult_order(2, 241) == 24

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            mult_order(2, 15)
        with pytest.raises(DomainError):
            mult_order(14, 7)

    @pytest.mark.parametrize("p", [p for p in ODD_PRIMES if p <= 500])
    def test_brute_force_minimality(self, p):
        for a in (2, 3, p - 1):
            if a % p == 0:
                continue
            d = mult_order(a, p)
            assert (p - 1) % d == 0
            assert pow(a, d, p) == 1
            assert all(pow(a, e, p) != 1 for e in range(1, d))


def euler_phi(q):
    """Euler's product over the primes factorize finds."""
    result = q
    for p in factorize(q):
        result -= result // p
    return result


class TestTotient:
    # phi counts the coprimes only when factorize finds every prime divisor
    def test_examples(self):
        assert factorize(1) == {} and euler_phi(1) == 1
        assert factorize(16) == {2: 4} and euler_phi(16) == 8
        assert factorize(12) == {2: 2, 3: 1} and euler_phi(12) == 4

    def test_powers_of_two(self):
        for l in range(31):
            assert factorize(2 ** (l + 1)) == {2: l + 1}
            assert euler_phi(2 ** (l + 1)) == 2**l

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            factorize(0)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=60)
    def test_counts_coprimes(self, q):
        from math import gcd, prod

        assert prod(p**e for p, e in factorize(q).items()) == q
        assert euler_phi(q) == sum(1 for i in range(1, q + 1) if gcd(i, q) == 1)


class TestWindows:
    def test_floor_log2_window(self):
        import math

        for eps in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3, 4)):
            for k in range(1, 2000):
                exact = arith.max_m_leq(eps, k)
                approx = float(eps) * math.log2(k)
                # the float value can sit right on the boundary; exact
                # arithmetic must match the definition
                assert exact <= approx + 1e-9
                assert (k ** eps.numerator) >= (1 << (exact * eps.denominator))

    def test_boundary_exactness(self):
        # m <= 2*log2(k) at k = 4 admits exactly m = 4
        assert arith.max_m_leq(Fraction(2), 4) == 4
        assert arith.max_m_leq(Fraction(1), 1) == 0

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=300)
    def test_closed_forms_meet_the_definition(self, num, den, k):
        # With epsilon = num/den, m <= epsilon*log2(k) is 2^(m*den) <= k^num;
        # the bound is the largest m >= 0 satisfying it.
        eps = Fraction(num, den)
        leq = arith.max_m_leq(eps, k)
        assert 2 ** (leq * den) <= k**num < 2 ** ((leq + 1) * den)
