"""Scalar reduction rings: exact rationals, integers, and integers mod n."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional

from .core import Domain


class RationalFieldDomain(Domain):
    """The rationals as a reduction ring.

    Only zero sits below anything: a < b iff a = 0 and b != 0.  Every nonzero
    element reduces to 0 modulo any nonzero c via the exact quotient, and all
    nonzero elements are associates, so a single canonical common reducible
    (one) covers every pair.
    """

    name = "q"
    zero = Fraction(0)
    one = Fraction(1)
    is_field = True

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def less(self, a, b) -> bool:
        return not a and bool(b)

    def find_multiplier(self, a, c, index):
        if not (a and c):
            return None
        return a / c

    def mntcrs(self, c1, i1, c2, i2) -> list:
        if not (c1 and c2):
            return []
        return [self.one]

    def integer_image(self, cs) -> tuple:
        """(ns, d): the integers ns over the least positive d with cs[k] = ns[k]/d."""
        d = math.lcm(*[c.denominator for c in cs])
        return [c.numerator * (d // c.denominator) for c in cs], d

    ratio = Fraction  # n/d, the way back from integer_image

    def canonical_associate(self, a):
        return self.one if a else a

    def parse(self, text: str) -> Fraction:
        """The rational text denotes, as ``Fraction(text)`` reads it.

        ASCII digits p, or p/q with q != 0, the literals of polynomial
        text, are built from their integers directly, past the regular
        expression ``Fraction`` matches every string against.
        """
        text = text.strip()
        try:
            num, slash, den = text.partition("/")
            if num.isascii() and num.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isascii() and den.isdigit() and int(den):
                    return Fraction(int(num), int(den))
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {text!r}") from exc

    def sample_elements(self, rng: random.Random, count: int) -> list:
        return [
            Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(count)
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalFieldDomain)

    def __hash__(self) -> int:
        return hash(RationalFieldDomain)


def _int_order_key(a: int) -> tuple:
    # magnitude first, then sign: -k sits strictly below k, zero is least
    return (abs(a), a)


class IntegerDomain(Domain):
    """The integers as a reduction ring.

    The order compares magnitudes with the negative element winning ties, so
    it is total and well-founded with zero least.  A multiplier witness picks
    the one of the two nearest quotients that leaves the lesser remainder,
    when that remainder is below a; the
    canonical common reducible of two generators is the larger magnitude,
    whose critical pair performs one Euclidean division step.
    """

    name = "z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def less(self, a, b) -> bool:
        return _int_order_key(a) < _int_order_key(b)

    def find_multiplier(self, a, c, index) -> Optional[int]:
        if not c:
            return None
        q, r = divmod(a, c)  # a = q*c + r, and a - (q + 1)*c = r - c
        if _int_order_key(r - c) < _int_order_key(r):
            q, r = q + 1, r - c
        return q if _int_order_key(r) < _int_order_key(a) else None

    def mntcrs(self, c1, i1, c2, i2) -> list:
        # max(|c1|, |c2|) reduces to zero modulo the larger generator and to
        # the division remainder modulo the smaller, so completion walks the
        # Euclidean algorithm instead of wandering through mid-range values
        if not (c1 and c2):
            return []
        return [max(abs(c1), abs(c2))]

    def canonical_associate(self, a) -> int:
        return abs(a)

    def parse(self, text: str) -> int:
        try:
            return int(text.strip())
        except ValueError as exc:
            raise ValueError(f"not an integer: {text.strip()!r}") from exc

    def sample_elements(self, rng: random.Random, count: int) -> list:
        return [rng.randint(-10**4, 10**4) for _ in range(count)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerDomain)

    def __hash__(self) -> int:
        return hash(IntegerDomain)


class IntegerQuotientDomain(Domain):
    """Z/nZ on the carrier {0, ..., n-1}, zero divisors welcome.

    Residues are ordered as natural numbers.  A multiplier witness steers a
    straight to the least element of its coset, i.e. a mod gcd(c, n), and the
    single minimal common reducible of c1, c2 is max(gcd(c1, n), gcd(c2, n)).

    The witness is closed form.  With d = gcd(c mod n, n) and r = a mod d,
    the multiples of c are exactly the multiples of d, so r is the least
    value a - m*c takes; when r < a, the multipliers reaching it are the
    solutions of m*(c/d) = (a - r)/d modulo n/d, and the least of them in
    [0, n) is m = ((a - r)/d) * (c/d)^-1 mod n/d.  That is the multiplier a
    scan of m = 0, 1, ..., n-1 for the least value would return, in
    O(log n) instead of O(n).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        self.n = n
        self.name = f"zmod{n}"
        self.zero = 0
        self.one = 1 % n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def less(self, a, b) -> bool:
        return a < b

    def find_multiplier(self, a, c, index) -> Optional[int]:
        n = self.n
        c = c % n
        if not c:
            return None
        d = math.gcd(c, n)
        r = a % d
        if r >= a:
            return None
        return (a - r) // d * pow(c // d, -1, n // d) % (n // d)

    def mntcrs(self, c1, i1, c2, i2) -> list:
        c1, c2 = c1 % self.n, c2 % self.n
        if not (c1 and c2):
            return []
        return [max(math.gcd(c1, self.n), math.gcd(c2, self.n))]

    def annihilator(self, c) -> Optional[int]:
        c = c % self.n
        if not c:
            return 1 % self.n or None
        d = math.gcd(c, self.n)
        if d == 1:
            return None
        return self.n // d

    def enumerate_carrier(self) -> list:
        return list(range(self.n))

    def carrier_size(self) -> int:
        return self.n

    def parse(self, text: str) -> int:
        try:
            return int(text.strip()) % self.n
        except ValueError as exc:
            raise ValueError(f"not a residue: {text.strip()!r}") from exc

    def sample_elements(self, rng: random.Random, count: int) -> list:
        return [rng.randrange(self.n) for _ in range(count)]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerQuotientDomain) and other.n == self.n

    def __hash__(self) -> int:
        return hash((IntegerQuotientDomain, self.n))


def make_field_domain() -> RationalFieldDomain:
    """The exact rational field as a reduction ring."""
    return RationalFieldDomain()


def make_integer_domain() -> IntegerDomain:
    """The ring of integers as a reduction ring."""
    return IntegerDomain()


def make_integer_quotient_domain(n: int) -> IntegerQuotientDomain:
    """Z/nZ as a reduction ring; n = 1 gives the zero ring."""
    return IntegerQuotientDomain(n)
