"""Base scalar rings: integers, rationals and residue rings Z/m.

Ring objects are small strategy classes; elements are plain python
values (``int`` for Z and Z/m, ``Fraction`` for Q).  All arithmetic is
exact.  A capability that not every ring provides (an inverse of 2) is
exposed as a method that raises ``CapabilityError`` so callers fail
fast.
"""

from __future__ import annotations

from fractions import Fraction


class RingError(Exception):
    pass


class RingMismatchError(RingError):
    """Operands live over different base rings."""


class CapabilityError(RingError):
    """The base ring lacks a required capability (e.g. 1/2)."""


class BaseRing:
    name = "?"
    is_field = False

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def half(self):
        """Return 1/2, or raise CapabilityError."""
        raise CapabilityError(f"2 is not invertible in {self.name}")

    def mod2(self, a):
        """Canonical representative of a + 2*R (used for torsion reduction)."""
        raise NotImplementedError

    def two_is_zero(self) -> bool:
        return self.is_zero(self.from_int(2))

    def render(self, a) -> str:
        return str(a)

    def sample(self, rng, lo: int = -3, hi: int = 3):
        return self.from_int(rng.randint(lo, hi))

    def __repr__(self):
        return self.name


class IntegerRing(BaseRing):
    name = "Z"

    def from_int(self, n: int):
        return int(n)

    def mod2(self, a):
        return a % 2

    def __eq__(self, other):
        return isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("Z")


class RationalRing(BaseRing):
    name = "Q"
    is_field = True

    def from_int(self, n: int):
        return Fraction(n)

    def half(self):
        return Fraction(1, 2)

    def mod2(self, a):
        # 2 is invertible, so 2*Q = Q and every residue is 0.
        return Fraction(0)

    def sample(self, rng, lo: int = -3, hi: int = 3):
        den = rng.choice([1, 1, 1, 2, 3])
        return Fraction(rng.randint(lo, hi), den)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin with the 13 prime bases up to 41 decides every m below
# this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(m: int) -> bool:
    """Whether m is prime, decided for m below ``_PRIME_BOUND``; a larger
    m raises ValueError."""
    if m >= _PRIME_BOUND:
        raise ValueError(f"primality is decided only below {_PRIME_BOUND}")
    if m < 2:
        return False
    for p in _PRIME_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


class ModRing(BaseRing):
    """Residues modulo m, m >= 2.  Elements are ints in [0, m)."""

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.name = f"Z/{m}"

    @property
    def is_field(self) -> bool:
        # only on demand: above _PRIME_BOUND it raises
        return _is_prime(self.m)

    def from_int(self, n: int):
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def is_zero(self, a) -> bool:
        return a % self.m == 0

    def half(self):
        if self.m % 2 == 0:
            raise CapabilityError(f"2 is not invertible in {self.name}")
        return pow(2, -1, self.m)

    def mod2(self, a):
        if self.m % 2 == 1:
            return 0
        return a % 2

    def sample(self, rng, lo: int = -3, hi: int = 3):
        return rng.randrange(self.m)

    def __eq__(self, other):
        return isinstance(other, ModRing) and other.m == self.m

    def __hash__(self):
        return hash(("mod", self.m))


ZZ = IntegerRing()
QQ = RationalRing()


def GF(p: int) -> ModRing:
    ring = ModRing(p)
    if not ring.is_field:
        raise ValueError(f"{p} is not prime")
    return ring


def ring_from_spec(spec: str) -> BaseRing:
    """Parse a ring name as used by the CLI: ``z``, ``q`` or ``mod:<m>``."""
    s = spec.strip().lower()
    if s == "z":
        return ZZ
    if s == "q":
        return QQ
    if s.startswith("mod:"):
        try:
            m = int(s[4:])
        except ValueError:
            raise ValueError(f"bad modulus in ring spec {spec!r}") from None
        return ModRing(m)
    raise ValueError(f"unknown ring spec {spec!r} (expected z, q or mod:<m>)")
