"""epsgrass: exact computer algebra for sign-twisted Grassmann algebras.

The package provides the coefficient ring C[eps] (eps_i^2 = theta*eps_i,
theta^2 = 2), the twisted Grassmann algebra it coefficients, generalized
permutation signs and their S_n co-module, idempotent/superalgebra
decompositions and hulls, and a normalizer for the free algebra with a
formal trace-like linear function.
"""

from .rings import (
    ZZ,
    QQ,
    GF,
    BaseRing,
    CapabilityError,
    IntegerRing,
    ModRing,
    RationalRing,
    RingError,
    RingMismatchError,
    ring_from_spec,
)
from .epsilon import CoeffRing, EpsPoly, exp_map, exp_sum, phi_sigma
from .grassmann import (
    GrassAlgebra,
    GrassElem,
    Word,
    commutator,
    esgn,
    eta_endomorphism,
    permute_words,
    quotient_mod_theta,
    reorder_product,
    scommutator,
    word_from_letters,
    word_grade,
    word_letters,
)

__all__ = [
    "ZZ",
    "QQ",
    "GF",
    "BaseRing",
    "CapabilityError",
    "IntegerRing",
    "ModRing",
    "RationalRing",
    "RingError",
    "RingMismatchError",
    "ring_from_spec",
    "CoeffRing",
    "EpsPoly",
    "exp_map",
    "exp_sum",
    "phi_sigma",
    "GrassAlgebra",
    "GrassElem",
    "Word",
    "commutator",
    "esgn",
    "eta_endomorphism",
    "permute_words",
    "quotient_mod_theta",
    "reorder_product",
    "scommutator",
    "word_from_letters",
    "word_grade",
    "word_letters",
    "SAlgebra",
    "SElem",
]


def __getattr__(name):
    """``SAlgebra`` and ``SElem``, imported on first use (PEP 562), so that
    a command that needs no superalgebra does not compile ``salg``."""
    if name in ("SAlgebra", "SElem"):
        from . import salg

        return getattr(salg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
