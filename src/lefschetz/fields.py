"""Exact scalar arithmetic over the rationals and prime fields GF(p).

Scalars are plain values: `fractions.Fraction` over the rationals, ints in
[0, p) over GF(p).  A `Field` object supplies the arithmetic, validation and
conversions for its scalars; matrices and algebra elements carry a reference
to their field and never mix scalars from different fields.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class FieldMismatchError(TypeError):
    """Raised when scalars from different fields are combined."""


# Witnesses making Miller-Rabin deterministic for n < 3,317,044,064,679,887,385,961,981.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2^64)."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the convention binomial(n, k) = 0 for k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def require_same_field(a: "Field", b: "Field") -> None:
    if a != b:
        raise FieldMismatchError(f"field mismatch: {a} vs {b}")


class Field:
    """Common interface of the two supported fields."""

    kind: str
    char: int

    def validate(self, x):
        raise NotImplementedError

    def of(self, x):
        raise NotImplementedError

    def sum(self, values):
        out = self.zero
        for v in values:
            out = self.add(out, v)
        return out

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, x) -> bool:
        return x == 0

    def to_str(self, x) -> str:
        return str(x)


class RationalField(Field):
    """The field of rational numbers; scalars are `fractions.Fraction`."""

    kind = "rationals"
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    def of(self, x) -> Fraction:
        if isinstance(x, float):
            raise TypeError("floating-point values are not exact; use Fraction or int")
        return Fraction(x)

    def validate(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise FieldMismatchError(f"{x!r} is not a rational scalar")

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / x

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def pow(self, x: Fraction, n: int) -> Fraction:
        if n < 0 and x == 0:
            raise ZeroDivisionError("inverse of zero")
        return x**n

    def random(self, rng) -> Fraction:
        # Small integer range keeps fraction growth down in elimination.
        return Fraction(rng.randint(-10, 10))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    """GF(p) for a prime p < 2^32; scalars are ints reduced into [0, p)."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"field characteristic must be an integer >= 2, got {p!r}")
        if p >= 2**32:
            raise ValueError(f"prime fields are supported for p < 2^32, got {p}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1 % p

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            return self.from_rational(x)
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot interpret {x!r} as an element of {self}")

    def validate(self, x) -> int:
        if isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.p:
            return x
        raise FieldMismatchError(f"{x!r} is not a reduced residue mod {self.p}")

    def from_rational(self, x: Fraction) -> int:
        den = x.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
        return x.numerator % self.p * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, x, n: int):
        return pow(x, n, self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _gf_cache.get(p)
    if field is None:
        field = _gf_cache[p] = PrimeField(p)
    return field
