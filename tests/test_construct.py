import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hadcensus import arith, construct, solver
from hadcensus.construct import (
    MAX_ORDER,
    ConstructionPlan,
    build_plan,
    paley_I,
    paley_II,
    plan_for,
    sylvester,
)
from hadcensus.errors import DomainError, NoPrimeInRange
from hadcensus.matrix import PlusMinusMatrix, is_hadamard


def test_sylvester_small():
    assert sylvester(0) == PlusMinusMatrix.from_dense([[1]])
    assert sylvester(1) == PlusMinusMatrix.from_dense([[1, 1], [1, -1]])
    S3 = sylvester(3)
    assert S3.n == 8 and is_hadamard(S3)


def too_large(order):
    return f"^order {re.escape(str(order))} exceeds max_order {MAX_ORDER}$"


def prime_power(q):
    return f"^{q} is a prime power, not a prime; prime-power Paley fields are unsupported$"


def test_sylvester_size_guard():
    with pytest.raises(DomainError, match=too_large("2^17")):
        sylvester(17)


def test_sylvester_refuses_without_building():
    # the guard compares t with the cap's exponent: 2^(10^9) alone is 125 MB
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=too_large(f"2^{10**9}")):
            sylvester(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_paley_I():
    for q in (3, 7, 11, 19, 23, 31):
        M = paley_I(q)
        assert M.n == q + 1
        assert is_hadamard(M)


def test_paley_I_rejections():
    with pytest.raises(DomainError, match="^paley_i requires q = 3 mod 4, got q = 5$"):
        paley_I(5)
    with pytest.raises(DomainError, match=prime_power(9)):
        paley_I(9)
    with pytest.raises(DomainError, match="^15 is not prime$"):
        paley_I(15)


def test_paley_II():
    for q in (5, 13, 17, 29):
        M = paley_II(q)
        assert M.n == 2 * (q + 1)
        assert is_hadamard(M)


def circulant_of_chi(q):
    """Entry (i, j) is chi(j - i), chi the Legendre symbol by Euler's
    criterion (chi(0) = 0)."""
    chi = np.array([0] + [1 if pow(d, (q - 1) // 2, q) == 1 else -1
                          for d in range(1, q)])
    idx = np.arange(q)
    return chi[(idx[None, :] - idx[:, None]) % q]


def dense_paley(q):
    """Paley I (+1 border, core chi(j - i) with -1 on the diagonal) or
    Paley II (C (x) [[1,1],[1,-1]] + I (x) [[1,-1],[-1,-1]], C the symmetric
    conference matrix), written out entry by entry."""
    if q % 4 == 3:
        H = np.ones((q + 1, q + 1), dtype=int)
        H[1:, 1:] = circulant_of_chi(q) - np.eye(q, dtype=int)
        return H
    C = np.ones((q + 1, q + 1), dtype=int)
    C[0, 0] = 0
    C[1:, 1:] = circulant_of_chi(q)
    return (np.kron(C, [[1, 1], [1, -1]])
            + np.kron(np.eye(q + 1, dtype=int), [[1, -1], [-1, -1]]))


def test_paley_rows_match_dense_reference():
    for q in [q for q in range(3, 400, 2) if arith.is_prime(q)] + [1009, 2011]:
        M = paley_I(q) if q % 4 == 3 else paley_II(q)
        assert np.array_equal(M.to_dense(), dense_paley(q)), q


def test_paley_size_guard(monkeypatch):
    def refused(n):
        raise AssertionError(f"{n} was factored past the order cap")

    # the order is checked first: the prime check would trial-divide this q
    monkeypatch.setattr(arith, "factorize", refused)
    composite = (2**31 - 1) * (2**61 - 1)
    for build, q, order in ((paley_I, 65539, 65540), (paley_II, 32789, 65580),
                            (paley_I, composite, composite + 1),
                            (paley_II, composite, 2 * (composite + 1))):
        with pytest.raises(DomainError, match=too_large(order)):
            build(q)


def test_paley_II_rejections():
    with pytest.raises(DomainError, match="^paley_ii requires q = 1 mod 4, got q = 7$"):
        paley_II(7)
    with pytest.raises(DomainError, match=prime_power(25)):
        paley_II(25)


def test_build_plan_examples():
    for k in (1, 3, 5):  # sylvester, paley_ii, paley_i
        plan = plan_for(k, 1)
        M = build_plan(plan)
        assert M.n == plan.claimed_order
        assert is_hadamard(M)


def test_build_plan_refuses_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("a matrix was built past the order cap")

    monkeypatch.setattr(construct, "PlusMinusMatrix", built)
    monkeypatch.setattr(construct, "_quadratic_character_row", built)
    for plan, order in ((ConstructionPlan(construct.SYLVESTER, 1 << 17, True, t=17), "2^17"),
                        (ConstructionPlan(construct.PALEY_I, 65540, True, q=65539), 65540),
                        (ConstructionPlan(construct.PALEY_II, 65580, True, q=32789), 65580)):
        with pytest.raises(DomainError, match=too_large(order)):
            build_plan(plan)


def test_build_plan_leaf_failure_propagates():
    with pytest.raises(DomainError, match="^paley_i requires q = 3 mod 4, got q = 5$"):
        build_plan(ConstructionPlan(construct.PALEY_I, 6, True, q=5))
    with pytest.raises(DomainError, match="^21 is not prime$"):
        build_plan(ConstructionPlan(construct.PALEY_II, 44, True, q=21))


def test_build_plan_refuses_an_unknown_kind():
    with pytest.raises(DomainError, match="^unknown plan kind 'hadamard'$"):
        build_plan(ConstructionPlan("hadamard", 4, True))


def test_plan_json_format():
    assert plan_for(1, 1).to_json_dict() == {
        "kind": "sylvester", "claimed_order": 4, "certified": True, "t": 2}
    assert plan_for(3, 1).to_json_dict() == {
        "kind": "paley_ii", "claimed_order": 12, "certified": True, "q": 5}
    assert plan_for(5, 1).to_json_dict() == {
        "kind": "paley_i", "claimed_order": 20, "certified": True, "q": 19}


def test_probable_prime_plan():
    # 763 * 2^m - 1 is composite for m = 1..54; m = 55 gives a prime past
    # 2^64, which only a probable-prime test accepts
    q = 763 * 2**55 - 1
    assert plan_for(763, 6).to_json_dict() == {
        "kind": "paley_i", "claimed_order": q + 1, "certified": False, "q": q}
    with pytest.raises(NoPrimeInRange) as err:
        plan_for(763, 6, allow_probable=False)
    assert (err.value.m_lo, err.value.m_hi) == (1, 57)


def test_plan_for_riesel_failure():
    with pytest.raises(NoPrimeInRange) as err:
        plan_for(509203, Fraction(1, 2))
    assert (err.value.m_lo, err.value.m_hi) == (1, 9)


def test_residue_forcing():
    # m >= 2 puts 2^m*k - 1 in 3 mod 4; m = 1 puts 2k - 1 in 1 mod 4
    for k in range(1, 200, 2):
        assert (2 * k - 1) % 4 == 1
        for m in range(2, 8):
            assert ((1 << m) * k - 1) % 4 == 3


def exponent_of(order, k):
    l = 0
    while order % 2 == 0:
        order //= 2
        l += 1
    assert order == k
    return l


@pytest.mark.parametrize("epsilon", [Fraction(1), Fraction(2)])
def test_pipeline_exponent_bound(epsilon):
    for k in range(1, 100, 2):
        try:
            plan = plan_for(k, epsilon)
        except NoPrimeInRange:
            continue
        l = exponent_of(plan.claimed_order, k)
        # l <= 2 + epsilon*log2(k), checked exactly: 2^((l-2)*den) <= k^num
        if l > 2:
            assert (1 << ((l - 2) * epsilon.denominator)) <= k**epsilon.numerator


def test_pipeline_outputs_verify():
    for k in range(1, 60, 2):
        try:
            plan = plan_for(k, 2)
        except NoPrimeInRange:
            continue
        if plan.claimed_order <= MAX_ORDER:
            M = build_plan(plan)
            assert is_hadamard(M)
            assert M.n == plan.claimed_order


def test_minimal_m_preferred():
    # k = 5, epsilon = 1: m = 1 gives composite 9, so m = 2 is chosen;
    # k = 3: m = 1 already works
    assert plan_for(5, 1).q == 19
    assert plan_for(3, 1).q == 5
    r = solver.find_m(9, 1)
    assert r.found_m == 1 and plan_for(9, 1).q == 17
