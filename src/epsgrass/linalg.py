"""Exact integer linear algebra whose certificates hold over every ring.

There is no floating point and no fixed-width fast path: entries are
Python ints of arbitrary precision, so every result is exact.  Nothing
here ranks a matrix over a particular ring: a rank over every base ring
at once follows from a unimodular certificate and integer solves against
it (``supertrace`` certifies its trace basis blocks this way).

``SmithSolver`` is that certificate: one sparse elimination that pivots
on +-1 entries only.  Such an elimination is a unimodular row transform,
so it proves that the kept rows have an all-ones Smith diagonal without
computing a general Smith normal form, and it yields a solve that is
valid after base change to any commutative ring.  One loop,
``SmithSolver.reduce``, reduces a vector against the kept rows: the
build and the solve both run through it.  The torsion residues of the
quotient algebras need no elimination: ``salg`` computes them in closed
form.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src for sparse vectors stored as {index: nonzero}."""
    if not q:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + q * v
        if w:
            dst[k] = w
        else:
            del dst[k]


# -- unit-pivot elimination ---------------------------------------------


class NoUnitPivot(ArithmeticError):
    """A row leaves a nonzero residue with no +-1 entry to pivot on."""


class SmithSolver:
    """Pick a basis of the span of integer rows and solve x * A = v
    against it over any base ring.

    ``rows`` is an iterable of sparse rows {column: int} with columns in
    0..ncols-1.  Each row is reduced against the rows kept so far
    (``reduce``); a zero residue means the row lies in their span (over
    Q, since every pivot is a unit) and the row is skipped, otherwise the
    row is kept, with pivot the first +-1 entry of its residue, and its
    index is appended to ``kept``.  A residue with no +-1 entry raises
    ``NoUnitPivot``.  So the kept rows A are chosen exactly as a rational
    echelon would choose them.  The elimination is a unimodular integer
    row transform W, and W*A is unit-triangular on the pivot columns p_i:
    its row R_i is +-1 at p_i and zero at the pivots of the rows before
    it.  That is the proof that A has an all-ones Smith diagonal, and the
    same W works after base change to any commutative ring.

    The test is incomplete: a matrix with unit Smith diagonal may offer
    no +-1 entry, as [[2, 3]] does.  The code never builds such a block;
    every block it certifies has a unit pivot at each step.

    ``echelon`` holds (p_i, R_i, W_i) per kept row.  A row kept as it
    came shares its dict as R_i, and its W_i, the i-th unit vector, is
    None.
    """

    def __init__(self, rows, ncols: int):
        self.ncols = ncols
        self.kept: list[int] = []
        self.echelon: list[tuple[int, dict, dict | None]] = []
        self._where: dict = {}  # pivot column -> index in echelon
        for k, row in enumerate(rows):
            if not all(row.values()):
                row = {j: c for j, c in row.items() if c}
            res, steps = self.reduce(row)
            if not res:
                continue
            p = min((j for j, c in res.items() if c in (1, -1)), default=None)
            if p is None:
                raise NoUnitPivot(f"row {k} leaves a residue with no unit entry")
            combo = None
            if steps:
                combo = {len(self.echelon): 1}
                for i, q in steps:
                    _axpy(combo, self.echelon[i][2] or {i: 1}, -q)
            self._where[p] = len(self.echelon)
            self.kept.append(k)
            self.echelon.append((p, res, combo))
        self.nrows = len(self.kept)

    def reduce(self, vec: dict) -> tuple[dict, list]:
        """(residual, steps): clear the pivots of vec in echelon order,
        each step (i, q) subtracting q*R_i with Python ``+`` and ``*``, so
        the residual vec - sum q*R_i is zero at every pivot.  R_i is zero
        at the pivots of the rows before it, so a step adds entries only
        at the pivots of later rows.  vec is not changed; the residual is
        vec itself when vec holds no pivot column."""
        where = self._where
        todo = [where[j] for j in vec if j in where]
        if not todo:
            return vec, []
        echelon = self.echelon
        res = dict(vec)
        heapify(todo)
        steps = []
        while todo:
            i = heappop(todo)
            p, r, _ = echelon[i]
            c = res.get(p)
            if c:
                q = c * r[p]  # r[p] is +-1, its own inverse
                steps.append((i, q))
                for j, v in r.items():
                    w = res.get(j)
                    if w is None:  # a new entry: queue its pivot, if any
                        res[j] = -q * v
                        if j in where:
                            heappush(todo, where[j])
                    else:
                        w -= q * v
                        if w:
                            res[j] = w
                        else:
                            del res[j]
        return res, steps

    def solve(self, vec: dict, ring):
        """Solve x*A = vec over ``ring``; vec is a sparse vector
        {column: ring element}.

        vec = sum q*R_i + residual over the steps (i, q) of ``reduce``,
        with R_i = W_i*A.  A combination of the R_i that is zero at every
        pivot is zero, as the R_i are unit-triangular there, so vec is in
        the row span over ``ring`` exactly when the residual maps to zero
        in it, and then x = sum q*W_i, mapped into the ring once.

        Returns (x, residual_ok).  residual_ok is False when vec is not
        in the row span, in which case x is None.  A column outside
        0..ncols-1 raises ``ValueError``.
        """
        lo, hi = min(vec, default=0), max(vec, default=0)
        if lo < 0 or hi >= self.ncols:
            raise ValueError(f"column {lo if lo < 0 else hi} is outside 0..{self.ncols - 1}")
        res, steps = self.reduce(vec)
        frm = ring.from_int
        if any(map(frm, res.values())):
            return None, False
        x = [0] * self.nrows
        echelon = self.echelon
        for i, q in steps:
            combo = echelon[i][2]
            if combo is None:
                x[i] += q
            else:
                for k, v in combo.items():
                    x[k] += q * v
        zero = frm(0)
        return [frm(c) if c else zero for c in x], True
