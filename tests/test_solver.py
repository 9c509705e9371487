from fractions import Fraction

import pytest

from hadcensus import census, construct, solver
from hadcensus.errors import CoverageGap, DomainError
from hadcensus.solver import find_m, riesel_certificate

RIESEL_K0 = 509203
RIESEL_STEP = 11184810
RIESEL_COVER = (3, 5, 7, 13, 17, 241)


def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestFindM:
    def test_examples(self):
        assert find_m(3, 1).found_m == 1
        assert find_m(3, 1).prime_value == 5
        assert find_m(1, 7).found_m is None  # empty window
        r = find_m(5, 1)
        assert (r.found_m, r.prime_value) == (2, 19)
        assert find_m(509203, Fraction(1, 2)).found_m is None

    def test_window_bound_recorded(self):
        r = find_m(509203, Fraction(1, 2))
        assert r.m_bound == 9

    def test_even_k_rejected(self):
        with pytest.raises(DomainError):
            find_m(4, 1)

    def test_minimality_against_trial_division(self):
        for k in range(3, 400, 2):
            r = find_m(k, 2)
            if r.found_m is None:
                continue
            assert r.prime_value < 10**12
            assert trial_division_prime(r.prime_value)
            for m in range(1, r.found_m):
                assert not trial_division_prime((k << m) - 1)

    def test_consistency_with_census(self):
        for eps in (Fraction(1, 2), Fraction(1), Fraction(2)):
            x = 600
            direct = sum(
                1 for k in range(1, x + 1, 2) if find_m(k, eps).found_m is not None
            )
            assert direct == census.density_report(x, eps).M


class TestOrderExponent:
    # plan_for's order is 2^l * k with l = m for m >= 2, else 2: the m = 1
    # case doubles a Paley II matrix and k = 1 is the order-4 Sylvester matrix
    def test_values(self):
        for k, m, l in ((1, None, 2), (3, 1, 2), (5, 2, 2), (219, 7, 7)):
            if m is not None:
                assert find_m(k, 1).found_m == m
            assert construct.plan_for(k, 1).claimed_order == 2**l * k

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            construct.plan_for(0, 1)


class TestRieselCertificate:
    def test_riesel_family(self):
        cert = riesel_certificate(
            RIESEL_K0, RIESEL_STEP, RIESEL_COVER,
            spot_check_r=range(3), spot_check_m=range(60),
        )
        assert cert.period == 24
        assert len(cert.assignments) == 24
        assert cert.family_invariance
        assert cert.assignments[0] == 3
        assert cert.assignments[1] == 5

    def test_assignments_divide(self):
        cert = riesel_certificate(
            RIESEL_K0, RIESEL_STEP, RIESEL_COVER,
            spot_check_r=range(1), spot_check_m=range(1),
        )
        for m, p in enumerate(cert.assignments):
            assert ((1 << m) * RIESEL_K0 - 1) % p == 0

    def test_periodicity_two_periods(self):
        cert = riesel_certificate(
            RIESEL_K0, RIESEL_STEP, RIESEL_COVER,
            spot_check_r=range(1), spot_check_m=range(1),
        )
        for m in range(2 * cert.period):
            p = cert.assignments[m % cert.period]
            assert (pow(2, m, p) * RIESEL_K0 - 1) % p == 0

    def test_insufficient_cover(self):
        with pytest.raises(CoverageGap):
            riesel_certificate(RIESEL_K0, RIESEL_STEP, (3, 5, 7))

    def test_bad_cover_rejected(self):
        with pytest.raises(DomainError):
            riesel_certificate(RIESEL_K0, RIESEL_STEP, (3, 4, 5))
        with pytest.raises(DomainError):
            riesel_certificate(9, RIESEL_STEP, (3,))

    def test_json_shape(self):
        cert = riesel_certificate(
            RIESEL_K0, RIESEL_STEP, RIESEL_COVER,
            spot_check_r=range(2), spot_check_m=range(10),
        )
        d = cert.to_json_dict()
        assert d["period"] == 24
        assert d["spot_checks"] == 20
        assert set(d["assignments"]) == {str(m) for m in range(24)}

    @pytest.mark.parametrize("cap,at", [
        ("COVER_PRIME_MAX", 242),  # exclusive: the largest cover prime is 241
        ("PERIOD_MAX", 24),
        ("SPOT_CHECKS_MAX", 20),
    ])
    def test_caps_admit_their_limit(self, cap, at, monkeypatch):
        def certificate():
            return riesel_certificate(
                RIESEL_K0, RIESEL_STEP, RIESEL_COVER,
                spot_check_r=range(2), spot_check_m=range(10),
            )

        monkeypatch.setattr(solver, cap, at)
        cert = certificate()
        assert (cert.period, cert.spot_checks) == (24, 20)
        monkeypatch.setattr(solver, cap, at - 1)
        with pytest.raises(DomainError):
            certificate()
