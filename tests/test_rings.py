import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import epsgrass
from epsgrass import GF, QQ, ZZ, CapabilityError, ModRing, ring_from_spec
from epsgrass.rings import _PRIME_BOUND, _is_prime


RINGS = [ZZ, QQ, ModRing(5), ModRing(6), GF(2), GF(3)]


@pytest.mark.parametrize("ring", RINGS, ids=[r.name for r in RINGS])
def test_ring_axioms_randomized(ring):
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (ring.sample(rng) for _ in range(3))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.zero()) == a
        assert ring.mul(a, ring.one()) == a
        assert ring.is_zero(ring.add(a, ring.neg(a)))


def test_half():
    assert QQ.half() == Fraction(1, 2)
    assert ModRing(5).half() == 3  # 2*3 = 6 = 1 mod 5
    with pytest.raises(CapabilityError):
        ZZ.half()
    with pytest.raises(CapabilityError):
        ModRing(6).half()


def test_mod2_reduction():
    assert ZZ.mod2(7) == 1 and ZZ.mod2(-4) == 0
    assert QQ.mod2(Fraction(3, 2)) == 0  # 2 invertible: trivial quotient
    assert ModRing(6).mod2(5) == 1
    assert ModRing(5).mod2(3) == 0


def test_rational_canonical_form():
    # Fraction keeps gcd-reduced form with positive denominator
    x = QQ.add(Fraction(1, 6), Fraction(1, 3))
    assert x.numerator == 1 and x.denominator == 2


def test_ring_from_spec():
    assert ring_from_spec("z") == ZZ
    assert ring_from_spec("q") == QQ
    assert ring_from_spec("mod:7") == ModRing(7)
    with pytest.raises(ValueError):
        ring_from_spec("gf:7")
    with pytest.raises(ValueError):
        ring_from_spec("mod:x")


def test_mod_ring_field_detection():
    assert GF(7).is_field
    assert not ModRing(6).is_field
    with pytest.raises(ValueError):
        GF(6)


def test_primality_agrees_with_trial_division():
    primes: list = []
    for m in range(-3, 10**5):
        by_division = m >= 2 and all(m % p for p in primes if p * p <= m)
        assert _is_prime(m) == by_division, m
        if by_division:
            primes.append(m)
    assert len(primes) == 9592


def test_primality_of_large_moduli():
    # a 25-digit prime, the product of two 13-digit primes, and strong
    # pseudoprimes to the first 8, 11 and 12 prime bases
    p, q = 10**12 + 39, 10**12 + 61
    assert _is_prime(10**24 + 7) and _is_prime(p) and _is_prime(q)
    with pytest.raises(ValueError, match="not prime"):
        GF(p * q)
    for m in (341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(m)
    with pytest.raises(ValueError, match=f"only below {_PRIME_BOUND}"):
        GF(_PRIME_BOUND)
    with pytest.raises(ValueError, match=f"only below {_PRIME_BOUND}"):
        ModRing(_PRIME_BOUND + 2).is_field


def test_a_large_prime_field_is_built_at_once():
    # trial division up to the root of 10^24 + 7 took unbounded time
    code = "from epsgrass import GF\nprint(GF(10**24 + 7).name)\n"
    src = os.path.dirname(os.path.dirname(epsgrass.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, f"Z/{10**24 + 7}\n", "")
