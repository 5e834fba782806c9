"""Prime-field scalar arithmetic and sampling.

Field elements are plain Python ints kept in canonical form [0, p).
All reductions are eager; there is no lazy representation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The largest int64 inner product the code forms runs over a whole view or
# proof: at most (m + 3) * pcp.TABLE_CAP < 2**29 entries, since the dense
# tables hold p**m <= 2**24 entries each and so m <= 24. Each term is a product
# of two reduced field elements, so 2**29 * (p - 1)**2 < 2**63 holds for every
# p <= 2**17. Larger moduli would overflow silently and are refused.
MAX_MODULUS = 1 << 17


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    while not is_prime(k):
        k += 1
    return k


@dataclass(frozen=True)
class Field:
    """Parameters of the prime field Z/pZ."""

    p: int

    def __post_init__(self):
        if self.p > MAX_MODULUS:
            raise ValueError(f"modulus {self.p} exceeds the bound {MAX_MODULUS}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def sample(self, rng) -> int:
        """Uniform field element via rejection sampling from uniform bits.

        Draws p.bit_length() bits and rejects values >= p, so the output is
        exactly uniform (no modulo bias).
        """
        bits = self.p.bit_length()
        while True:
            x = rng.getrandbits(bits)
            if x < self.p:
                return x

    def sample_array(self, rng, shape) -> np.ndarray:
        """Uniform int64 array of field elements, drawn by ``sample`` in
        row-major order."""
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return np.array([self.sample(rng) for _ in range(n)], dtype=np.int64).reshape(shape)
