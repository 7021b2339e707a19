"""Arithmetic constraint gates: Euler phi, tameness, order bounds."""

from math import gcd

import pytest

from k3lift import (
    InputError,
    UNIQUENESS_ORDERS,
    euler_phi,
    is_prime,
    multiplicative_order,
    phi_bound_scan,
    primes_up_to,
    surface_thresholds,
    tameness,
    unique_order_check,
)
from k3lift.constraints import FACTOR_LIMIT, SCAN_LIMIT, prime_factors


def test_euler_phi_values():
    assert euler_phi(1) == 1
    assert euler_phi(66) == 20
    assert euler_phi(62) == 30
    assert euler_phi(13) == 12
    assert euler_phi(60) == 16


def test_euler_phi_multiplicative():
    import math

    for a in range(1, 60):
        for b in range(1, 60):
            if math.gcd(a, b) == 1:
                assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_euler_phi_against_trial_count():
    import math

    for n in range(1, 10_001):
        if n < 200 or n % 997 == 0:
            assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_euler_phi_prime_powers():
    for p in [2, 3, 5, 7, 11, 13]:
        for k in range(1, 6):
            if p**k <= 10_000:
                assert euler_phi(p**k) == p**k - p ** (k - 1)


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(InputError):
        euler_phi(0)


def test_primes_and_primality():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(2) and is_prime(97) and is_prime(7919)
    assert not is_prime(1) and not is_prime(91)


def test_is_prime_agrees_with_the_sieve():
    primes = set(primes_up_to(10**5))
    assert [n for n in range(-3, 10**5 + 1) if is_prime(n)] == sorted(primes)


def test_is_prime_beyond_trial_division():
    # psi_12 is a strong pseudoprime to every prime base up to 37
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3825123056546413051)
    assert is_prime(10**18 + 3)
    psi_13 = 3317044064679887385961981
    with pytest.raises(InputError):
        is_prime(psi_13)


def test_prime_factors_limit():
    # trial divisors stop at sqrt(FACTOR_LIMIT); every n up to the limit
    # factors, and so does a larger n whose cofactor is proven prime
    assert prime_factors(FACTOR_LIMIT) == [2, 5]
    assert prime_factors(999999999989) == [999999999989]
    assert prime_factors(FACTOR_LIMIT + 1) == [73, 137, 99990001]
    assert prime_factors(17**10 - 1) == [2, 3, 11, 71, 101, 88741]
    assert prime_factors(2 * (10**18 + 3)) == [2, 10**18 + 3]
    # a composite cofactor without small divisors, and one beyond psi_13
    with pytest.raises(InputError, match="cannot factor 1000000016000000063"):
        prime_factors((10**9 + 7) * (10**9 + 9))
    with pytest.raises(InputError):
        euler_phi(10**30 + 57)


def test_multiplicative_order_matches_the_power_loop():
    for modulus in range(1, 160):
        for a in range(-modulus, 2 * modulus):
            if gcd(a, modulus) != 1:
                continue
            t, power = 1, a % modulus
            while power != 1 % modulus:
                t, power = t + 1, power * a % modulus
            assert multiplicative_order(a, modulus) == t


def test_multiplicative_order_work_is_bounded_by_factoring():
    # the order is found by dividing phi(modulus) down, never by counting to it
    assert multiplicative_order(7, 10**9 + 7) == 500000003
    assert multiplicative_order(7, 10000019) == 10000018
    assert multiplicative_order(10, 17**10) == euler_phi(17**10)
    with pytest.raises(InputError, match="cannot factor"):
        multiplicative_order(2, 1000003 * 1000033)


def test_tameness_examples():
    assert tameness(13, 33) == "tame"
    assert tameness(11, 66) == "wild"
    assert tameness(5, 12) == "tame"
    with pytest.raises(InputError):
        tameness(2, 3)
    with pytest.raises(InputError):
        tameness(9, 3)


def test_surface_thresholds():
    t23 = surface_thresholds(23)
    assert t23["all_automorphisms_tame"]
    assert t23["finite_height_weakly_tame"]
    t13 = surface_thresholds(13)
    assert t13["all_automorphisms_tame"]
    assert not t13["finite_height_weakly_tame"]
    t11 = surface_thresholds(11)
    assert not t11["all_automorphisms_tame"]


def test_uniqueness_orders_set():
    assert set(UNIQUENESS_ORDERS) == {13, 17, 19, 25, 27, 32, 33, 40, 44, 50, 66}
    assert len(UNIQUENESS_ORDERS) == 11
    assert all(euler_phi(n) <= 20 for n in UNIQUENESS_ORDERS)


def test_unique_order_check_examples():
    out = unique_order_check(66, 13)
    assert out["member"] and out["good_reduction"] and out["uniqueness_applies"]
    assert out["order_66_direct"]
    out = unique_order_check(66, 11)
    assert out["member"] and not out["good_reduction"]
    assert not out["uniqueness_applies"]
    assert out["order_66_direct"]
    out = unique_order_check(66, 3)
    assert not out["order_66_direct"]
    out = unique_order_check(14, 5)
    assert not out["member"]
    assert "order_66_direct" not in out


def test_phi_bound_scan_examples():
    rows = phi_bound_scan(61)
    by_p = {r["p"]: r for r in rows}
    assert by_p[61]["phi_p_plus_1"] == 30 and by_p[61]["exceeds_21"]
    assert by_p[59]["phi_p_plus_1"] == 16 and not by_p[59]["exceeds_21"]
    # the scan covers every prime up to the bound, small ones for contrast
    assert [r["p"] for r in rows] == primes_up_to(61)


def test_phi_bound_scan_claim_to_1000():
    rows = phi_bound_scan(1000)
    for r in rows:
        if r["p"] > 60:
            assert r["exceeds_21"], r


def test_phi_bound_scan_range_check():
    with pytest.raises(InputError):
        phi_bound_scan(50)
    with pytest.raises(InputError, match=f"^scan range may not exceed {SCAN_LIMIT}$"):
        phi_bound_scan(SCAN_LIMIT + 1)
    assert [r["p"] for r in phi_bound_scan(SCAN_LIMIT)] == primes_up_to(SCAN_LIMIT)


def test_scan_limit_loses_nothing():
    # phi(n) >= sqrt(n) off {2, 6}, so phi(p + 1) > 21 once p + 1 > 21^2:
    # a scan past 441 cannot change the verdict
    assert SCAN_LIMIT > 441
    assert [n for n in range(1, SCAN_LIMIT + 1) if euler_phi(n) ** 2 < n] == [2, 6]


def test_tame_iff_coprime():
    for p in [3, 5, 7, 11, 13]:
        for n in range(1, 40):
            expected = "tame" if n % p else "wild"
            assert tameness(p, n) == expected
