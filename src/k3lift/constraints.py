"""Arithmetic gates: Euler phi and the phi(order) | rank gate, tameness,
uniqueness orders, prime scans.

Pure integer arithmetic with no ring-context dependencies, and the one
home of the package's primality test (deterministic Miller-Rabin, below
psi_13), factoring (trial division by divisors up to sqrt(FACTOR_LIMIT))
and multiplicative orders.
The uniqueness set lists the eleven automorphism orders for which a purely
non-symplectic action pins down the surface uniquely; the scan checks the
bound phi(p + 1) > 21 for primes p > 60 over a finite range rather than
assuming it.
"""

from functools import lru_cache
from math import gcd, isqrt

from .errors import InputError

UNIQUENESS_ORDERS = (13, 17, 19, 25, 27, 32, 33, 40, 44, 50, 66)

TAME_THRESHOLD = 11        # p > 11: every finite-order automorphism is tame
WEAKLY_TAME_THRESHOLD = 23  # p >= 23: finite height implies weakly tame

SCAN_LIMIT = 10_000  # largest p_max phi_bound_scan accepts
FACTOR_LIMIT = 10**12  # prime_factors splits every n up to this: trial divisors stop at 10^6

# Miller-Rabin with the first 13 prime bases is correct for every n below
# psi_13 (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 1, increasing, by trial division with
    divisors d, d^2 <= FACTOR_LIMIT.  The cofactor left when the divisors
    run out must be proven prime by is_prime; otherwise InputError."""
    out, d, cofactor = [], 2, n
    while d * d <= cofactor and d * d <= FACTOR_LIMIT:
        if cofactor % d == 0:
            out.append(d)
            while cofactor % d == 0:
                cofactor //= d
        d += 1 if d == 2 else 2
    if cofactor > 1:
        if d * d <= cofactor and not (cofactor < _MR_LIMIT and is_prime(cofactor)):
            raise InputError(
                f"cannot factor {n}: its cofactor {cofactor} has no divisor up to "
                f"{isqrt(FACTOR_LIMIT)} and is not proven prime"
            )
        out.append(cofactor)
    return out


def euler_phi(n: int) -> int:
    """Euler totient, n times the product of (1 - 1/q) over primes q | n."""
    n = int(n)
    if n < 1:
        raise InputError("euler_phi needs a positive integer")
    out = n
    for q in prime_factors(n):
        out = out // q * (q - 1)
    return out


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over _MR_BASES; n at or above psi_13,
    where those bases are not proven enough, raises InputError."""
    n = int(n)
    if n >= _MR_LIMIT:
        raise InputError(f"cannot decide primality at or above {_MR_LIMIT}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def multiplicative_order(a: int, modulus: int) -> int:
    """Least t >= 1 with a^t = 1 mod modulus; requires gcd(a, modulus) = 1.

    The order divides phi(modulus): starting there, each prime q of phi is
    divided out while a^(t/q) = 1 still holds.  The work is that of factoring
    modulus and phi(modulus), bounded by FACTOR_LIMIT: where prime_factors
    cannot split either, it raises InputError."""
    if modulus < 1 or gcd(a, modulus) != 1:
        raise InputError("multiplicative order needs gcd(a, modulus) = 1")
    t = euler_phi(modulus)
    for q in prime_factors(t):
        while t % q == 0 and pow(a, t // q, modulus) == 1 % modulus:
            t //= q
    return t


def primes_up_to(limit: int) -> list[int]:
    """Primes <= limit by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def tameness(p: int, n: int) -> str:
    """"tame" when p does not divide the order N, else "wild"."""
    if not is_prime(p) or p == 2:
        raise InputError("p must be an odd prime")
    if n < 1:
        raise InputError("order must be a positive integer")
    return "tame" if n % p != 0 else "wild"


def surface_thresholds(p: int) -> dict:
    """The two prime thresholds controlling tameness of K3 automorphisms.

    For p > 11 every finite-order automorphism is tame (an order divisible
    by p would force phi(p) = p - 1 > 21 to fit in a rank-21 action); for
    p >= 23 every finite-height surface is weakly tame.
    """
    if not is_prime(p) or p == 2:
        raise InputError("p must be an odd prime")
    return {
        "p": p,
        "all_automorphisms_tame": p > TAME_THRESHOLD,
        "finite_height_weakly_tame": p >= WEAKLY_TAME_THRESHOLD,
    }


def phi_rank_check(transcendental_rank: int, order: int) -> dict:
    """Euler-phi divisibility gate on the transcendental rank.

    The order of a purely non-symplectic tame action forces phi(order) to
    divide the transcendental rank; the weaker bound phi(order) <= rank is
    reported alongside.
    """
    t = int(transcendental_rank)
    n = int(order)
    if t < 1 or n < 1:
        raise InputError("rank and order must be positive")
    phi = euler_phi(n)
    return {
        "order": n,
        "transcendental_rank": t,
        "phi": phi,
        "divides": t % phi == 0,
        "bound_ok": phi <= t,
    }


def unique_order_check(n: int, p: int) -> dict:
    """Membership of N in the uniqueness set plus the good-reduction gate.

    The uniqueness statement transfers to characteristic p when p does not
    divide 2N.  Order 66 additionally admits a direct uniqueness statement
    for every p outside {2, 3}, noted separately.
    """
    n = int(n)
    p = int(p)
    if n < 1 or not is_prime(p):
        raise InputError("need a positive order and a prime p")
    member = n in UNIQUENESS_ORDERS
    good = (2 * n) % p != 0
    report = {
        "order": n,
        "p": p,
        "member": member,
        "phi": euler_phi(n),
        "good_reduction": good,
        "uniqueness_applies": member and good,
    }
    if n == 66:
        report["order_66_direct"] = p not in (2, 3)
    return report


def phi_bound_scan(p_max: int) -> list[dict]:
    """phi(p + 1) for every prime p <= p_max, flagged against the bound 21.

    Primes at most 60 are included for contrast (phi(60) = 16 at p = 59);
    the claim under scan is that phi(p + 1) > 21 for every prime p > 60.
    p_max may not exceed SCAN_LIMIT: phi(n) >= sqrt(n) for every n except
    2 and 6, so phi(p + 1) > 21 for every p >= 441, and a longer scan
    cannot change the verdict while its work and output keep growing.
    """
    if p_max < 61:
        raise InputError("scan range must reach past 60")
    if p_max > SCAN_LIMIT:
        raise InputError(f"scan range may not exceed {SCAN_LIMIT}")
    return [
        {"p": p, "phi_p_plus_1": (phi := euler_phi(p + 1)), "exceeds_21": phi > 21}
        for p in primes_up_to(p_max)
    ]
