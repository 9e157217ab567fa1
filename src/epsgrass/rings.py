"""Base scalar rings: integers, rationals and residue rings Z/m.

Ring objects are small strategy classes; elements are plain python
values (``int`` for Z and Z/m, ``Fraction`` for Q).  All arithmetic is
exact.  A capability that not every ring provides (an inverse of 2) is
exposed as a method that raises ``CapabilityError`` so callers fail
fast.  Each ring names its ``eval_ring``, the ring with int elements in
which the command line computes the value of an expression before
mapping it into the ring once: Z and Z/m themselves, and for Q the
integers of Q, ``_IntegralRationals``.  Z and Q print an integer of at
most ``MAX_DIGITS`` digits, the bound of an integer literal, and refuse
a longer one with a ``ValueError``.
"""

from __future__ import annotations

from fractions import Fraction


# A digit run of the expression grammar, and a printed integer, has at
# most this many digits: Python's int() and str() refuse more by default,
# with no position and a hint at a Python API.
MAX_DIGITS = 4300
_DIGIT_BOUND = 10**MAX_DIGITS


def _render_int(a: int) -> str:
    if -_DIGIT_BOUND < a < _DIGIT_BOUND:
        return str(a)
    raise ValueError(f"a coefficient of more than {MAX_DIGITS} digits is not printed")


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

    @property
    def eval_ring(self) -> "BaseRing":
        """The ring in which an expression over this ring is computed; the
        value is then mapped here by ``from_int`` of each scalar.  The
        ring itself, unless a subclass names another."""
        return self

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

    render = staticmethod(_render_int)

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

    @property
    def eval_ring(self) -> BaseRing:
        return _QZ

    def render(self, a) -> str:
        text = _render_int(a.numerator)
        return text if a.denominator == 1 else f"{text}/{_render_int(a.denominator)}"

    def sample(self, rng, lo: int = -3, hi: int = 3):
        den = rng.choice([1, 1, 1, 2, 3])
        return Fraction(rng.randint(lo, hi), den)

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("Q")


class _IntegralRationals(BaseRing):
    """The integers of Q, in which an expression over Q is computed:
    ints, with ``mod2`` = 0.  Its name and equality are its own, so it
    never passes a parent check against Z.

    The value over Q of every expression of the grammar is the image of
    an integral value.  Its constants are integers, and so are the
    structure constants of the algebra: theta^2 = 2, eps_i^2 =
    theta*eps_i and the signs exp(eps_i*eps_j).  So the value is the
    image under the ring homomorphism A_Z -> A_Q = A_Z (x) Q, whose
    kernel is the torsion T of A_Z, a two-sided ideal.  On a word where
    e_i repeats, T holds every monomial that meets eps_i: theta*eps_i*e_i^2
    = 0, and 2 = theta^2 kills the theta-free ones; the rest of the
    normal form is free.  With ``mod2`` = 0 this ring's residues drop
    exactly those monomials, at once, as Q's residues do, so it computes
    in A_Z/T, and ``from_int`` per coefficient maps A_Z/T into A_Q
    injectively, onto residues that are already Q's.  In plain Z the
    2-torsion would be carried, as 0/1 residues, until the end.
    """

    name = "Z in Q"

    def from_int(self, n: int):
        return int(n)

    def mod2(self, a):
        return 0

    def __eq__(self, other):
        return isinstance(other, _IntegralRationals)

    def __hash__(self):
        return hash("Z in Q")


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
_QZ = _IntegralRationals()


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
