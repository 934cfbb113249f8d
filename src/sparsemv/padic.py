"""p-adic scales N = p**K, primality, Hensel lifting of sqrt(-1)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInputError, UnsupportedPrimeError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
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


@dataclass(frozen=True)
class ScaleSpec:
    """Scale N = p**K for a prime p."""

    p: int
    K: int

    def __post_init__(self):
        if self.p >= 2**64 or not is_prime(self.p):
            raise InvalidInputError(f"p={self.p} is not a (supported) prime")
        if self.K < 1:
            raise InvalidInputError("K must be a positive integer")

    @property
    def N(self) -> int:
        return self.p**self.K


@dataclass(frozen=True)
class HenselRoot:
    """A square root of -1 modulo p**K, p = 1 mod 4."""

    p: int
    K: int
    xi: int

    def __post_init__(self):
        if self.p % 4 != 1:
            raise UnsupportedPrimeError(f"p={self.p} is not 1 mod 4")
        if not (0 <= self.xi < self.p**self.K):
            raise InvalidInputError("xi out of range for p**K")
        if (self.xi * self.xi + 1) % self.p**self.K != 0:
            raise InvalidInputError("xi*xi + 1 is not divisible by p**K")

    def digits(self) -> list[int]:
        """Base-p digits b_0..b_{K-1} of xi."""
        out = []
        x = self.xi
        for _ in range(self.K):
            x, b = divmod(x, self.p)
            out.append(b)
        return out


def hensel_sqrt_minus_one(p: int, K: int) -> HenselRoot:
    """Lift the smaller square root of -1 mod p to a root mod p**K.

    The root mod p is the smaller of +-c^((p-1)/4), c the least quadratic
    non-residue.
    Newton steps x <- x - (x^2+1) * (2x)^{-1} double the working modulus, so
    only O(log K) modular inversions are needed; 2x is a unit since p is odd.
    """
    if not is_prime(p):
        raise InvalidInputError(f"p={p} is not prime")
    if p % 4 != 1:
        raise UnsupportedPrimeError(f"p={p} is not 1 mod 4; -1 has no square root")
    if K < 1:
        raise InvalidInputError("K must be a positive integer")
    # c^((p-1)/4) squares to c^((p-1)/2) = -1 for a non-residue c (Euler)
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    x = pow(c, (p - 1) // 4, p)
    x = min(x, p - x)
    prec = 1
    while prec < K:
        prec = min(2 * prec, K)
        mod = p**prec
        inv = pow(2 * x % mod, -1, mod)
        x = (x - (x * x + 1) * inv) % mod
    return HenselRoot(p=p, K=K, xi=x % p**K)
