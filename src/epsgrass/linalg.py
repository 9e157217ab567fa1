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
valid after base change to any commutative ring.  The torsion residues
of the quotient algebras need no elimination: ``salg`` computes them in
closed form.
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
    0..ncols-1.  Each row is reduced against the rows kept so far; a zero
    residue means the row lies in their span (over Q, since every pivot
    is a unit) and the row is skipped, otherwise the row is kept, with
    pivot the first +-1 entry of its residue, and its index is appended
    to ``kept``.  A residue with no +-1 entry raises ``NoUnitPivot``.
    So the kept rows A are chosen exactly as a rational echelon would
    choose them, and the elimination, a unimodular integer row transform
    W with W*A equal to the identity on the pivot columns, is itself the
    proof that A has an all-ones Smith diagonal: the same W works after
    base change to any commutative ring.

    The test is incomplete: a matrix with unit Smith diagonal may offer
    no +-1 entry, as [[2, 3]] does.  The code never builds such a block;
    every block it certifies has a unit pivot at each step.

    With R = W*A, x*A = v holds exactly when v equals sum_i v[p_i]*R_i
    off the pivot columns p_i, and then x = sum_i v[p_i]*W_i.  The
    solver keeps, sparse and by rows (one per column of A), only the
    projector v[p_i] -> W_i (``projector``) and the cokernel test
    (``cokernel``).  The vector comes as a sparse {column: value} map,
    so a solve walks only the columns it holds and costs ring operations
    in proportion to the nonzeros of the rows they select.
    """

    def __init__(self, rows, ncols: int):
        self.ncols = ncols
        self.kept: list[int] = []
        # (pivot column, residue R_i, its combination W_i of kept rows);
        # each residue is zero at the pivots of the rows before it
        echelon: list[tuple[int, dict, dict]] = []
        where: dict = {}  # pivot column -> index in echelon
        for k, row in enumerate(rows):
            res = {j: c for j, c in row.items() if c}
            # clear pivots in echelon order; row i adds entries only at
            # the pivots of later rows
            todo = [where[j] for j in res if j in where]
            heapify(todo)
            steps = []
            while todo:
                i = heappop(todo)
                p, r, _ = echelon[i]
                c = res.get(p)
                if c:
                    q = c * r[p]  # r[p] is +-1, its own inverse
                    _axpy(res, r, -q)
                    steps.append((i, q))
                    for j in r:
                        if where.get(j, i) > i:
                            heappush(todo, where[j])
            if not res:
                continue
            p = min((j for j, c in res.items() if c in (1, -1)), default=None)
            if p is None:
                raise NoUnitPivot(f"row {k} leaves a residue with no unit entry")
            combo = {len(echelon): 1}
            for i, q in steps:
                _axpy(combo, echelon[i][2], -q)
            where[p] = len(echelon)
            self.kept.append(k)
            echelon.append((p, res, combo))
        self.nrows = len(self.kept)
        # back-substitute once, bottom up: the rows below are reduced, zero
        # at every pivot but their own, so each clears one column here;
        # then scale the pivot to 1
        for i in range(len(echelon) - 1, -1, -1):
            p, r, w = echelon[i]
            for j in [j for j in r if where.get(j, i) > i]:
                _, below, w_below = echelon[where[j]]
                c = r[j]
                _axpy(r, below, -c)
                _axpy(w, w_below, -c)
            if r[p] < 0:
                for d in (r, w):
                    for j in d:
                        d[j] = -d[j]
        self.projector = [()] * ncols
        self.cokernel = [((j, 1),) for j in range(ncols)]
        for p, r, w in echelon:
            self.projector[p] = tuple(w.items())
            self.cokernel[p] = tuple((j, -c) for j, c in r.items() if j != p)

    def solve(self, vec: dict, ring):
        """Solve x*A = vec over ``ring``; vec is a sparse vector
        {column: nonzero ring element}.

        Returns (x, residual_ok).  residual_ok is False when vec is not
        in the row span, in which case x is None.  A column outside
        0..ncols-1 raises ``ValueError``.
        """
        add, mul, frm, is_zero = ring.add, ring.mul, ring.from_int, ring.is_zero
        zero = ring.zero()
        x = [zero] * self.nrows
        test: dict = {}  # the coordinates of the residual that vec reaches
        ncols = self.ncols
        for i, c in vec.items():
            if not 0 <= i < ncols:
                raise ValueError(f"column {i} is outside 0..{ncols - 1}")
            for k, v in self.cokernel[i]:
                test[k] = add(test.get(k, zero), mul(c, frm(v)))
            for k, v in self.projector[i]:
                x[k] = add(x[k], mul(c, frm(v)))
        if not all(is_zero(s) for s in test.values()):
            return None, False
        return x, True
