"""Release gate: one test per acceptance criterion, one printed verdict each.

Run with plain pytest; the verdict lines bypass output capture so every
criterion reports PASS or FAIL on the terminal.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hadcensus import arith, census, construct, solver
from hadcensus.errors import DomainError, NoPrimeInRange
from hadcensus.matrix import is_hadamard


@pytest.fixture
def verdict(capsys):
    def emit(number, name, ok, detail=""):
        line = f"[acceptance {number:02d}] {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def _iroot(x, n):
    """Largest r with r**n <= x."""
    r = round(x ** (1.0 / n))
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def _ceil_half_root(x, n):
    """ceil(x**(1/n) / 2) exactly."""
    r = _iroot(x, n)
    if r ** n == x:
        return (r + 1) // 2
    return r // 2 + 1


def test_01_construction_soundness(verdict):
    built = 0
    bad = []
    for k in range(1, 1001, 2):
        try:
            plan = construct.plan_for(k, 2)
        except NoPrimeInRange:
            continue
        if plan.claimed_order > 20000:
            continue
        matrix = construct.build_plan(plan)
        built += 1
        if not is_hadamard(matrix):
            bad.append((k, plan.claimed_order))
    verdict(1, "construction soundness", built > 0 and not bad,
            f"{built} matrices verified" if not bad else f"failures: {bad}")


def test_02_paley_orders(verdict):
    ok = True
    for q in (3, 7, 11, 19, 23, 31):
        h = construct.paley_I(q)
        ok = ok and h.n == q + 1 and is_hadamard(h)
    for q in (5, 13, 17, 29):
        h = construct.paley_II(q)
        ok = ok and h.n == 2 * (q + 1) and is_hadamard(h)
    verdict(2, "Paley construction orders", ok)


def test_03_sigma_identity(verdict):
    ok = True
    for x in (100, 1000, 10_000, 100_000):
        for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
            report = census.density_report(x, eps)
            ok = ok and report.sigma == sum(c for _, c in report.pi_terms)
    hand = census.density_report(4, 2)
    ok = ok and hand.sigma == 5 and [c for _, c in hand.pi_terms] == [1, 2, 2]
    verdict(3, "sigma / progression-count identity", ok)


def test_04_riesel_certificate(verdict):
    cert = solver.riesel_certificate(
        509203, 11184810, (3, 5, 7, 13, 17, 241),
        spot_check_r=range(10), spot_check_m=range(501),
    )
    ok = (cert.period == 24
          and len(cert.assignments) == 24
          and all(p in cert.cover for p in cert.assignments)
          and cert.family_invariance
          and cert.spot_checks == 10 * 501)
    verdict(4, "Riesel covering certificate", ok)


def test_05_cauchy_schwarz_bound(verdict):
    ok = True
    empty = []
    for x in (4, 100, 1000, 10_000):
        for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
            try:
                report = census.density_report(x, eps)
            except DomainError:
                empty.append((x, eps))
                continue
            ssq = report.sum_S_squared
            if ssq == 0:
                continue
            ok = ok and report.N * ssq >= report.sigma * report.sigma
    hand = census.density_report(4, 2)
    ok = ok and hand.N == 2 and hand.sum_S_squared == 13
    ok = ok and 2 * 13 >= 5 * 5
    # L = floor(log2(4)/2) - 1 = 0: the one pair with an empty window
    ok = ok and empty == [(4, Fraction(1, 2))]
    verdict(5, "Cauchy-Schwarz lower bound", ok)


def test_06_integral_sandwich(verdict):
    # f(l) = a/(1 + l*a) is strictly decreasing for a > 0, so the inclusive
    # sum over l = M..L lies strictly between the integrals over [M-1, L]
    # and [M, L+1].
    rng = random.Random(20260826)
    upper_fails = 0
    lower_fails = 0
    quad_ok = True
    for _ in range(200):
        M = rng.randint(1, 100)
        L = rng.randint(M, 100)
        a = 1.0 - rng.random()    # uniform in (0, 1]
        mid = census.riemann_tail_sum(M, L, a)
        if not census.I_closed(M - 1, L, a) > mid:
            upper_fails += 1
        if not mid > census.I_closed(M, L + 1, a):
            lower_fails += 1
        quad_ok = quad_ok and abs(
            census.I_closed(M, L, a) - census.I_quadrature(M, L, a)
        ) <= 1e-9
    verdict(6, "integral sandwich",
            upper_fails == 0 and lower_fails == 0 and quad_ok,
            f"{upper_fails}/200 draws violate the upper bound, "
            f"{lower_fails}/200 the lower bound; "
            f"quadrature {'agrees' if quad_ok else 'disagrees'} to 1e-9")


def test_07_progression_pi_oracle(verdict):
    limit = 100_000
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    vals = np.arange(limit + 1, dtype=np.int64)
    ok = True
    for q in (4, 8, 16, 32):
        a = q // 2 - 1
        naive = np.cumsum(sieve & (vals % q == a))
        marks = np.zeros(limit + 1, dtype=bool)  # the sieve's primes, as a prefix count
        for n, step, hits in census._progression_hits(limit, q, a):
            marks[n : n + step * hits.size : step] = hits
        ok = ok and bool(np.array_equal(np.cumsum(marks, dtype=np.int64), naive))
    ok = ok and census.pi_count(100, 4, 3) == 13
    ok = ok and census.pi_count(100, 8, 3) == 7
    verdict(7, "pi(x; q, a) oracle equivalence", ok)


def test_08_psi_two_path(verdict):
    ok = True
    for x in (1000, 100_000, 1_000_000):
        for q in (2, 4, 8):
            for a in range(q):
                if math.gcd(a, q) != 1:
                    continue
                direct, enumerated = census.psi_paths(x, q, a)
                ok = ok and math.isclose(direct, enumerated, rel_tol=1e-9)
    ok = ok and math.isclose(census.psi(10, 2, 1), math.log(315),
                             rel_tol=1e-9)
    ok = ok and 0.95 <= census.psi(1_000_000, 2, 1) / 1_000_000 <= 1.05
    verdict(8, "Chebyshev psi two-path agreement", ok)


def test_09_cross_module_consistency(verdict):
    x = 10_000
    ok = True
    empty = []
    for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
        L = arith.max_m_leq(eps, x) - 1  # x is no power of 2: N reads row L + 1
        _, _, first, flags_m, _ = census._census_flags(x, eps, L, L + 1, True)
        # M's k and the m of each: the first row of the k that M counts
        census_m = [m if counted else None
                    for m, counted in zip(first.tolist(), flags_m.tolist())]
        solver_m = [solver.find_m(k, eps).found_m for k in range(1, x + 1, 2)]
        ok = ok and census_m == solver_m
        for probe in (10, 100, 1000, x):
            try:
                report = census.density_report(probe, eps)
            except DomainError:
                empty.append((probe, eps))
                continue
            ok = ok and report.H_lower >= report.M
            if probe == x:
                ok = ok and report.M == sum(m is not None for m in solver_m)
    # L = floor(log2(10)/2) - 1 = 0: the one probe with no sigma window
    ok = ok and empty == [(10, Fraction(1, 2))]
    verdict(9, "census/solver window agreement", ok)


def test_10_window_inclusion(verdict):
    ok = True
    for x in (1000, 10_000, 100_000):
        # N at epsilon in {1/2, 1}, M at A*epsilon in {1, 2, 4}
        reports = {eps: census.density_report(x, eps)
                   for eps in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4))}
        for A in (2, 4):
            for eps in (Fraction(1, 2), Fraction(1)):
                bound = reports[eps].N - _ceil_half_root(x, A)
                ok = ok and reports[A * eps].M >= bound
    verdict(10, "window-inclusion inequality", ok)


def test_11_density_snapshot_regression(verdict):
    # Golden values computed once by the brute-force oracle
    # (trial-division primality, exact integer window bounds) and frozen.
    x = 10_000
    report = census.density_report(x, 1)
    n1, m1, mp1 = report.N, report.M, report.M_prime
    ok = (n1, m1, mp1) == (4350, 4262, 4620)
    verdict(11, "density snapshot regression", ok,
            f"N={n1} M={m1} M'={mp1}")
