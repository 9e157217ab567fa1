"""Idempotent decomposition, supercommutative embeddings and hulls.

When 2 is invertible, the products of the idempotents theta*eps_a/2 and
their complements split the coefficient ring into a complete system of
idempotents; each projected piece of the algebra is supercommutative
(odd generators anticommute, even ones are central).  The same
idempotents embed the free supercommutative algebra and transfer
multilinear graded identities through the sign involution
f* = sum esgn(sigma) a_sigma x_sigma(1)...x_sigma(n); evaluating a
graded polynomial on simple tensors (matrix (x) word) factors as
f*(matrices) (x) product of words.  A tensor a (x) w is the matrix over
the free twisted-commutative algebra (``salg``) whose entries are those
of a times w (``hull_tensor``); C[eps] is central there, so the hull's
sums and products are those of these matrices.

Matrix algebras over the twisted Grassmann algebra, with F the ordinary
matrix trace, satisfy the four defining identities of ``supertrace``;
they provide the soundness checks of its standard form and the witness
search for non-identities (``witness_search``).
"""

from __future__ import annotations

import random
from itertools import product as iproduct
from typing import Iterable, NamedTuple, Sequence

from .epsilon import CoeffRing, EpsPoly
from .grassmann import GrassAlgebra, GrassElem, esgn
from .salg import SElem
from .rings import RingMismatchError
from .terms import TermMap, TracePoly, _letters_of_term, add_term


class GradeMismatchError(ValueError):
    pass


# -- idempotents ---------------------------------------------------------


def lambda_idempotent(coeff: CoeffRing, signs: dict[int, int]) -> EpsPoly:
    """Product of theta*eps_a/2 over signs(a) = -1 and (1 - theta*eps_b/2)
    over signs(b) = +1.  Needs 1/2 in the base ring."""
    half = coeff.base.half()
    acc = coeff.one()
    for a in sorted(signs):
        s = signs[a]
        if s not in (-1, 1):
            raise ValueError(f"sign for index {a} must be +1 or -1")
        piece = (coeff.theta() * coeff.eps(a)).scale(half)
        if s == -1:
            acc = acc * piece
        else:
            acc = acc * (coeff.one() - piece)
    return acc


def all_sign_maps(indices: Iterable[int]):
    idx = sorted(indices)
    for values in iproduct((-1, 1), repeat=len(idx)):
        yield dict(zip(idx, values))


def idempotent_system_check(coeff: CoeffRing, indices: Iterable[int]) -> bool:
    """Idempotence, pairwise orthogonality and summation to 1."""
    lambdas = [lambda_idempotent(coeff, s) for s in all_sign_maps(indices)]
    total = coeff.zero()
    for lam in lambdas:
        if lam * lam != lam:
            return False
        total = total + lam
    if total != coeff.one():
        return False
    for i in range(len(lambdas)):
        for j in range(i + 1, len(lambdas)):
            if not (lambdas[i] * lambdas[j]).is_zero():
                return False
    return True


def projected_commutation_check(algebra: GrassAlgebra, signs: dict[int, int]) -> bool:
    """In the piece cut out by the idempotent: odd projected generators
    anticommute pairwise, even ones are central."""
    lam = lambda_idempotent(algebra.coeff, signs)
    proj = {a: algebra.gen(a).scale_coeff(lam) for a in signs}
    odd = [a for a, s in signs.items() if s == -1]
    even = [a for a, s in signs.items() if s == +1]
    for k, a in enumerate(odd):
        for b in odd[k + 1 :]:
            if proj[a] * proj[b] != -(proj[b] * proj[a]):
                return False
    for b in even:
        for c in signs:
            if proj[b] * proj[c] != proj[c] * proj[b]:
                return False
    return True


# -- embedding of the free supercommutative algebra ----------------------


def phi_embed(
    x: SElem, parity: dict[int, int], target: GrassAlgebra
) -> GrassElem:
    """Embed an element with single-index grades: an odd generator at
    index a maps to theta*eps_a/2 * e_a, an even one to
    (1 - theta*eps_b/2) * e_b.  ``parity`` maps index -> 1 (odd) or
    0 (even).  Needs 1/2."""
    coeff = target.coeff
    if x.algebra.coeff != coeff:
        raise RingMismatchError("element and target coefficient rings differ")
    half = coeff.base.half()
    images: dict[int, GrassElem] = {}

    def gen_image(key):
        grade, _tag = key
        if len(grade) != 1:
            raise ValueError("phi_embed needs single-index grades")
        (a,) = grade
        if a not in images:
            if a not in parity:
                raise ValueError(f"no parity assigned to index {a}")
            piece = (coeff.theta() * coeff.eps(a)).scale(half)
            if parity[a] % 2 == 1:
                images[a] = target.gen(a).scale_coeff(piece)
            else:
                images[a] = target.gen(a).scale_coeff(coeff.one() - piece)
        return images[a]

    result = target.zero()
    for word, c in x.terms.items():
        img = target.from_coeff(c)
        for key in word:
            img = img * gen_image(key)
        result = result + img
    return result


# -- matrices -------------------------------------------------------------


class Matrix:
    """Square matrix over any ring-like entries (+, -, *), with an
    explicit zero entry for sums."""

    __slots__ = ("rows", "zero")

    def __init__(self, rows: Sequence[Sequence], zero):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.rows = [list(r) for r in rows]
        self.zero = zero

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int, zero, one) -> "Matrix":
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)], zero
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            self.zero,
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-a for a in row] for row in self.rows], self.zero)

    def __sub__(self, other):
        return self + (-other)

    def _check_dim(self, other: "Matrix"):
        if not isinstance(other, Matrix) or other.n != self.n:
            raise ValueError("matrix dimension mismatch")

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_dim(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = self.zero
                for k in range(n):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out, self.zero)

    def scale(self, c) -> "Matrix":
        return Matrix([[a * c for a in row] for row in self.rows], self.zero)

    def trace(self):
        acc = self.zero
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(a == self.zero for row in self.rows for a in row)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.n == self.n
            and all(
                a == b
                for ra, rb in zip(self.rows, other.rows)
                for a, b in zip(ra, rb)
            )
        )

    def render(self) -> str:
        return "\n".join(
            " | ".join(_render_entry(a) for a in row) for row in self.rows
        )

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def _render_entry(a) -> str:
    return a.render() if hasattr(a, "render") else str(a)


# -- trace polynomials on matrix algebras ----------------------------------


class SuperTraceContext:
    """Matrix size n over a twisted Grassmann algebra, with the trace-like
    function sending a matrix to (sum of diagonal entries) * identity."""

    def __init__(self, n: int, algebra: GrassAlgebra):
        self.n = n
        self.algebra = algebra

    def zero_matrix(self) -> Matrix:
        z = self.algebra.zero()
        return Matrix([[z for _ in range(self.n)] for _ in range(self.n)], z)

    def identity(self) -> Matrix:
        return Matrix.identity(self.n, self.algebra.zero(), self.algebra.one())

    def unit(self, r: int, c: int, value: GrassElem | None = None) -> Matrix:
        m = self.zero_matrix()
        m.rows[r][c] = value if value is not None else self.algebra.one()
        return m

    def estr(self, m: Matrix) -> Matrix:
        tr = m.trace()
        return self.identity().scale(tr)


def eval_trace_poly(f: TracePoly, ctx: SuperTraceContext, subs: Sequence[Matrix]) -> Matrix:
    """Evaluate with x_i -> subs[i-1] and F -> the context trace."""
    letters = set()
    for term in f.terms:
        letters.update(_letters_of_term(term))
    if letters and max(letters) > len(subs):
        raise ValueError(f"need {max(letters)} substitutions, got {len(subs)}")

    def eval_term(term) -> Matrix:
        acc = ctx.identity()
        for atom in term:
            if isinstance(atom, int):
                acc = acc * subs[atom - 1]
            else:
                acc = acc * ctx.estr(eval_term(atom[1]))
        return acc

    result = ctx.zero_matrix()
    for term, c in f.terms.items():
        result = result + eval_term(term).scale(ctx.algebra.scalar(c))
    return result


# -- witness search ------------------------------------------------------------

# The substitutions ``witness_search`` tries per matrix size.
WITNESS_ATTEMPTS_PER_SIZE = 400


class Witness(NamedTuple):
    size: int
    assignments: dict  # letter -> (row, col, GrassElem coefficient)

    def matrices(self, ctx: SuperTraceContext) -> list[Matrix]:
        return [ctx.unit(*self.assignments[i]) for i in sorted(self.assignments)]

    def render(self) -> str:
        parts = [f"matrix size {self.size}"]
        for i in sorted(self.assignments):
            r, c, coeff = self.assignments[i]
            text = coeff.render_expr()
            if not (text.startswith("(") and text.endswith(")")):
                text = f"({text})"
            parts.append(f"x{i} -> {text} * E[{r + 1},{c + 1}]")
        return "; ".join(parts)


def witness_search(f: TracePoly, max_n: int, seed: int = 0) -> Witness | None:
    """Search for a matrix substitution with a nonzero value.

    Every letter becomes a coefficient times a matrix unit.  For each
    matrix size from 2 to ``max_n`` there are
    ``WITNESS_ATTEMPTS_PER_SIZE`` attempts: the first places x_i at
    position (i-1, i) modulo the size with coefficient 1; every later
    attempt draws each letter's row and column uniformly at random and
    its coefficient from 1, e1, e2, e1*e2 (``algebra.gen``) or a product
    of two of these, seeded by ``seed``.  Returns the first substitution
    with a nonzero value, or None.
    """
    n_letters = f.require_multilinear()
    if n_letters == 0:
        return None
    rng = random.Random(seed)
    algebra = GrassAlgebra(CoeffRing(f.ring))
    coeff_pool = [algebra.one(), algebra.gen(1), algebra.gen(2), algebra.gen(1) * algebra.gen(2)]
    for size in range(2, max_n + 1):
        ctx = SuperTraceContext(size, algebra)
        for attempt in range(WITNESS_ATTEMPTS_PER_SIZE):
            assignments = {}
            if attempt == 0:
                # deterministic first shot: identity-order path with wraparound
                for i in range(1, n_letters + 1):
                    assignments[i] = ((i - 1) % size, i % size, algebra.one())
            else:
                letters = list(range(1, n_letters + 1))
                rng.shuffle(letters)
                for i in letters:
                    r = rng.randrange(size)
                    c = rng.randrange(size)
                    coeff = rng.choice(coeff_pool)
                    if rng.random() < 0.5:
                        coeff = coeff * rng.choice(coeff_pool)
                    assignments[i] = (r, c, coeff)
            witness = Witness(size, assignments)
            value = eval_trace_poly(f, ctx, witness.matrices(ctx))
            if not value.is_zero():
                return witness
    return None


# -- graded multilinear polynomials and the involution --------------------


class GradedPoly(TermMap):
    """Multilinear polynomial with C[eps] coefficients and a grade per
    variable position."""

    __slots__ = ("n", "coeff", "grades")

    def __init__(
        self,
        coeff: CoeffRing,
        grades: Sequence[frozenset],
        coeffs: dict,
    ):
        self.coeff = coeff
        self.grades = tuple(frozenset(g) for g in grades)
        self.n = len(self.grades)
        for key, c in coeffs.items():
            if sorted(key) != list(range(1, self.n + 1)):
                raise ValueError(f"{key} is not a permutation of 1..{self.n}")
            if c.ring != coeff:
                raise RingMismatchError("coefficient ring mismatch")
        self.terms = {k: c for k, c in coeffs.items() if not c.is_zero()}

    @property
    def coeffs(self) -> dict:
        return self.terms

    def _parent(self) -> tuple:
        return (self.coeff, self.grades)

    def _coeff_ring(self) -> CoeffRing:
        return self.coeff

    def map_coeffs(self, fn) -> "GradedPoly":
        out = {}
        for k, c in self.terms.items():
            add_term(self.coeff, out, k, fn(k, c))
        return self._new(out)


def grassmann_involution(f: GradedPoly) -> GradedPoly:
    """Multiply each coefficient by the generalized sign of its
    permutation, signs taken in the variables' grades."""
    supports = list(f.grades)
    return f.map_coeffs(lambda sigma, c: esgn(f.coeff, supports, sigma) * c)


# -- the hull and the factorization law -----------------------------------


def hull_tensor(mat: Matrix, w: SElem) -> Matrix:
    """The simple tensor mat (x) w as the matrix over the superalgebra
    whose (r, c) entry is mat[r][c] * w.  C[eps] is central there, so sums
    and products of these matrices are those of the tensors, and each
    entry keeps the torsion residue of its words."""
    return Matrix([[w.scale_coeff(a) for a in row] for row in mat.rows], w.algebra.zero())


def _evaluate(f: GradedPoly, mats: Sequence[Matrix], scalar) -> Matrix:
    """The sum over sigma of mats[sigma(1)] ... mats[sigma(n)] * scalar(c),
    c the coefficient of sigma in f."""
    size, zero = mats[0].n, mats[0].zero
    acc = Matrix([[zero] * size] * size, zero)
    for sigma, c in f.coeffs.items():
        mat = mats[sigma[0] - 1].scale(scalar(c))
        for i in sigma[1:]:
            mat = mat * mats[i - 1]
        acc = acc + mat
    return acc


def hull_word_grade(w: SElem) -> frozenset:
    """Grade of a single-word SElem."""
    comps = w.grade_components()
    if len(comps) != 1:
        raise ValueError("expected a homogeneous word")
    return next(iter(comps))


def hull_evaluate(
    f: GradedPoly, mats: Sequence[tuple[Matrix, frozenset]], words: Sequence[SElem]
) -> Matrix:
    """Evaluate f on the simple tensors (mats[i] (x) words[i]), as a
    matrix over the superalgebra (``hull_tensor``)."""
    if len(mats) != f.n or len(words) != f.n:
        raise ValueError("substitution arity mismatch")
    if not f.n:  # no matrix gives the value's size
        raise ValueError("cannot evaluate a polynomial of arity 0")
    salg = words[0].algebra
    for i, ((_, g), w) in enumerate(zip(mats, words)):
        if frozenset(g) != f.grades[i] or hull_word_grade(w) != f.grades[i]:
            raise GradeMismatchError(f"grade mismatch at position {i + 1}")
    tensors = [hull_tensor(m, w) for (m, _), w in zip(mats, words)]
    return _evaluate(f, tensors, salg.from_coeff)


def hull_eval_factorization(
    f: GradedPoly, mats: Sequence[tuple[Matrix, frozenset]], words: Sequence[SElem]
) -> bool:
    """Check f(a_i (x) w_i) = f*(a_1..a_n) (x) (w_1 ... w_n)."""
    lhs = hull_evaluate(f, mats, words)
    wprod = words[0].algebra.one()
    for w in words:
        wprod = wprod * w
    fstar = _evaluate(grassmann_involution(f), [m for m, _ in mats], lambda c: c)
    return lhs == hull_tensor(fstar, wprod)
