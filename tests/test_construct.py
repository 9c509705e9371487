from fractions import Fraction

import numpy as np
import pytest

from hadcensus import arith, construct, solver
from hadcensus.construct import (
    build_plan,
    hadamard_for,
    kronecker_node,
    paley_I,
    paley_II,
    paley_i_leaf,
    paley_ii_leaf,
    plan_for,
    sylvester,
    sylvester_leaf,
)
from hadcensus.errors import (
    NoPrimeInRange,
    NotPrimeError,
    ResidueClassError,
    SizeError,
    UnsupportedFieldError,
)
from hadcensus.matrix import MAX_ORDER_DEFAULT, PlusMinusMatrix, is_hadamard


def test_sylvester_small():
    assert sylvester(0) == PlusMinusMatrix.from_dense([[1]])
    assert sylvester(1) == PlusMinusMatrix.from_dense([[1, 1], [1, -1]])
    S3 = sylvester(3)
    assert S3.n == 8 and is_hadamard(S3)


def test_sylvester_size_guard():
    with pytest.raises(SizeError, match=f"order 2\\^17 exceeds max_order {MAX_ORDER_DEFAULT}"):
        sylvester(17)


def test_paley_I():
    for q in (3, 7, 11, 19, 23, 31):
        M = paley_I(q)
        assert M.n == q + 1
        assert is_hadamard(M)


def test_paley_I_rejections():
    with pytest.raises(ResidueClassError):
        paley_I(5)
    with pytest.raises(UnsupportedFieldError):
        paley_I(9)
    with pytest.raises(NotPrimeError):
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


def test_paley_size_guard():
    for build, q in ((paley_I, 65539), (paley_II, 32789)):
        with pytest.raises(SizeError, match=f"max_order {MAX_ORDER_DEFAULT}"):
            build(q)


def test_paley_II_rejections():
    with pytest.raises(ResidueClassError):
        paley_II(7)
    with pytest.raises(UnsupportedFieldError):
        paley_II(25)


def test_build_plan_examples():
    assert build_plan(sylvester_leaf(2)).n == 4
    plan = kronecker_node(sylvester_leaf(1), paley_i_leaf(3))
    M = build_plan(plan)
    assert M.n == 8 and plan.claimed_order == 8
    assert is_hadamard(M)


def test_build_plan_refuses_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("a child was built under an oversized node")

    # both children fit the cap; their product, 2^17, does not
    plan = kronecker_node(sylvester_leaf(9), sylvester_leaf(8))
    monkeypatch.setattr(construct, "sylvester", built)
    with pytest.raises(SizeError, match=f"order 131072 exceeds max_order {MAX_ORDER_DEFAULT}"):
        build_plan(plan)


def test_build_plan_leaf_failure_propagates():
    with pytest.raises(ResidueClassError):
        kronecker_node(paley_i_leaf(5), sylvester_leaf(1))


def test_plan_order_bookkeeping():
    plans = [
        sylvester_leaf(4),
        paley_i_leaf(11),
        paley_ii_leaf(13),
        kronecker_node(sylvester_leaf(2), paley_i_leaf(7)),
    ]
    for plan in plans:
        assert build_plan(plan).n == plan.claimed_order


def test_plan_json_format():
    plan = kronecker_node(sylvester_leaf(3), paley_ii_leaf(5))
    assert plan.to_json_dict() == {
        "kind": "kronecker", "claimed_order": 96, "certified": True,
        "left": {"kind": "sylvester", "claimed_order": 8, "certified": True, "t": 3},
        "right": {"kind": "paley_ii", "claimed_order": 12, "certified": True, "q": 5},
    }


def test_hadamard_for_examples():
    plan, M = hadamard_for(3, 1)
    assert plan.kind == construct.PALEY_II and plan.q == 5
    assert plan.claimed_order == 12 == M.n
    assert is_hadamard(M)

    plan, M = hadamard_for(1, 1)
    assert plan.kind == construct.SYLVESTER and plan.claimed_order == 4

    plan, M = hadamard_for(5, 1)
    assert plan.kind == construct.PALEY_I and plan.q == 19
    assert plan.claimed_order == 20


def test_hadamard_for_riesel_failure():
    with pytest.raises(NoPrimeInRange) as err:
        hadamard_for(509203, Fraction(1, 2))
    assert (err.value.m_lo, err.value.m_hi) == (1, 9)


def test_hadamard_for_defers_large_orders():
    plan, M = hadamard_for(5, 1, max_order=16)
    assert plan.claimed_order == 20 and M is None


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
            plan, M = hadamard_for(k, 2)
        except NoPrimeInRange:
            continue
        if M is not None:
            assert is_hadamard(M)
            assert M.n == plan.claimed_order


def test_minimal_m_preferred():
    # k = 5, epsilon = 1: m = 1 gives composite 9, so m = 2 is chosen;
    # k = 3: m = 1 already works
    assert plan_for(5, 1).q == 19
    assert plan_for(3, 1).q == 5
    r = solver.find_m(9, 1)
    assert r.found_m == 1 and plan_for(9, 1).q == 17
