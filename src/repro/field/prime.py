"""Prime utilities for finite-field moduli.

The library performs all modular products in ``numpy.uint64``.  For the
product of two reduced residues ``a, b < q`` to be exact we need
``(q - 1)**2 < 2**64``, i.e. ``q <= 2**32``.  Both moduli used by the paper
and by this reproduction satisfy the bound:

* :data:`DEFAULT_PRIME` — ``2**31 - 1`` (Mersenne), the library default; its
  smaller size keeps intermediate sums further from overflow and is the
  fastest choice for numpy reductions.
* :data:`PAPER_PRIME` — ``2**32 - 5``, the largest prime below ``2**32`` and
  the modulus used in the paper's asynchronous experiments (Appendix F.5).
"""

from __future__ import annotations

from repro.exceptions import FieldError

#: Mersenne prime 2^31 - 1; the library default modulus.
DEFAULT_PRIME: int = (1 << 31) - 1

#: The paper's modulus: largest prime below 2^32 (Appendix F.5).
PAPER_PRIME: int = (1 << 32) - 5

#: Largest modulus for which uint64 products of reduced residues are exact.
MAX_UINT64_SAFE_MODULUS: int = 1 << 32

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for all 64-bit ints.

    Uses the standard witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    which is known to be deterministic below 3.3 * 10^24.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def validate_modulus(q: int) -> int:
    """Check that ``q`` is a prime usable with uint64 arithmetic.

    Returns ``q`` unchanged so the call can be inlined in constructors.
    """
    if not isinstance(q, int):
        raise FieldError(f"modulus must be an int, got {type(q).__name__}")
    if q >= MAX_UINT64_SAFE_MODULUS:
        raise FieldError(
            f"modulus {q} too large: products would overflow uint64 "
            f"(require q < 2**32)"
        )
    if not is_prime(q):
        raise FieldError(f"modulus {q} is not prime")
    return q
