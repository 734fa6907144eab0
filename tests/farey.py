"""The Farey oracle of the tests: F_N by the definition, one Fraction at a time."""

import math
from fractions import Fraction


def farey_enumerate(N):
    """Reduced p/q in (0,1) with q <= N, ascending by q then p, each once."""
    for q in range(2, N + 1):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)
