"""Exact integer linear algebra whose certificates hold over every ring.

Dense matrices are lists of int rows (arbitrary precision); there is no
floating point and no fixed-width fast path, so every result is exact.
Nothing here ranks a matrix over a particular ring: a rank over every
base ring at once follows from a Smith certificate with unit diagonal
and integer solves against it (``comodule.comodule_rank`` solves 1 and
the images of the spanning rows under the generators of S_n).

The Smith normal form works on sparse rows and keeps both transforms
sparse (U by rows, V by columns), which is what the freeness
certificates and the universal (base-ring independent) linear solves
need.  Each step pivots on the first entry of smallest absolute value in
row-major order; since no entry is smaller than a unit, the search stops
at the first row holding a +-1, so a block that offers a unit at every
step, as the trace blocks do, costs work in proportion to its nonzeros.
``SmithSolver`` then keeps only the sparse solve projector V[:, :r]*U and
the cokernel test V[:, r:], not the transforms themselves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd


# -- Smith normal form -------------------------------------------------


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


def _pivot(a: list[dict], t: int):
    """(row, col) of the first entry of smallest absolute value in rows
    t.., in row-major order, or None if they are zero.  Those rows are
    zero left of column t.  No entry is smaller than a unit, so the scan
    stops at the first row that holds a +-1."""
    best = None  # (abs value, row, col)
    for i in range(t, len(a)):
        cand = min(((abs(v), j) for j, v in a[i].items()), default=None)
        if cand is not None and (best is None or cand[0] < best[0]):
            best = (cand[0], i, cand[1])
            if cand[0] == 1:
                break
    return None if best is None else best[1:]


def smith_normal_form(mat: list[list[int]]):
    """Return (diag, U, V) with U*A*V diagonal, U and V unimodular.

    ``diag`` lists the diagonal entries d_1 | d_2 | ... (nonzero first).
    The transforms are sparse: U (r x r) as a list of its rows and V
    (c x c) as a list of its columns, each a dict {index: nonzero entry}.
    Every step takes as pivot the first entry of smallest absolute value
    in row-major order; the work is proportional to the nonzeros touched,
    not to the size of the block.
    """
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    a = [{j: int(row[j]) for j in compress(range(nc), row)} for row in mat]
    U = [{i: 1} for i in range(nr)]
    V = [{j: 1} for j in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j, rows):
        for k in rows:
            row = a[k]
            vi, vj = row.pop(i, 0), row.pop(j, 0)
            if vj:
                row[i] = vj
            if vi:
                row[j] = vi
        V[i], V[j] = V[j], V[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        _axpy(a[dst], a[src], q)
        _axpy(U[dst], U[src], q)

    def addmul_col(dst, src, q, rows):
        # col_dst += q * col_src; ``rows`` holds every nonzero of col_src
        for k in rows:
            v = a[k].get(src)
            if v:
                _axpy(a[k], {dst: v}, q)
        _axpy(V[dst], V[src], q)

    def negate_row(i):
        a[i] = {k: -v for k, v in a[i].items()}
        U[i] = {k: -v for k, v in U[i].items()}

    t = 0
    while t < min(nr, nc):
        piv = _pivot(a, t)
        if piv is None:
            break
        bi, bj = piv
        swap_rows(t, bi)
        swap_cols(t, bj, range(t, nr))  # rows above t are zero from column t on
        while True:
            p = a[t][t]
            done = True
            for i in range(t + 1, nr):
                if a[i].get(t):
                    q = a[i][t] // p
                    addmul_row(i, t, -q)
                    if a[i].get(t):
                        swap_rows(t, i)
                        p = a[t][t]
                        done = False
            # column ops change only columns t and j, so later columns of
            # row t keep their entries
            live = [i for i in range(t, nr) if t in a[i]]
            for j in sorted(k for k in a[t] if k > t):
                if a[t].get(j):
                    q = a[t][j] // p
                    addmul_col(j, t, -q, live)
                    if a[t].get(j):
                        swap_cols(t, j, range(t, nr))
                        live = [i for i in range(t, nr) if t in a[i]]
                        p = a[t][t]
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}; the block is diagonal
    # now, so each 2x2 step touches rows i and i+1 only
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            pair = (i, i + 1)
            d1, d2 = a[i].get(i, 0), a[i + 1].get(i + 1, 0)
            if d1 and d2 % d1 != 0:
                addmul_col(i, i + 1, 1, pair)
                # re-clear the 2x2 block
                while True:
                    p = a[i][i]
                    if a[i + 1].get(i):
                        q = a[i + 1][i] // p
                        addmul_row(i + 1, i, -q)
                        if a[i + 1].get(i):
                            swap_rows(i, i + 1)
                            continue
                    if a[i].get(i + 1):
                        q = a[i][i + 1] // p
                        addmul_col(i + 1, i, -q, pair)
                        if a[i].get(i + 1):
                            swap_cols(i, i + 1, pair)
                            continue
                    break
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1].get(i + 1, 0) < 0:
                    negate_row(i + 1)
                changed = True
    diag = [a[k].get(k, 0) for k in range(min(nr, nc))]
    return diag, U, V


class SmithSolver:
    """Solve x * A = v over any base ring, for an integer matrix A whose
    Smith normal form has an all-ones diagonal (full row rank, unimodular
    content).  The integer transforms make the solution universal: the
    same U, V work after base change to any commutative ring.

    The certificate comes from ``smith_normal_form``, which pivots on the
    first unit it meets in row-major order, so a block that offers a unit
    at every step costs work in proportion to its nonzeros.

    With U*A*V = [I 0], x*A = v holds exactly when (v*V)[r:] = 0, and
    then x = (v*V)[:r] * U.  The solver keeps neither transform: it
    stores, sparse and by rows (one per column of A), the projector
    P = V[:, :r] * U (``projector``) and the cokernel test V[:, r:]
    (``cokernel``).  The vector comes as a sparse {column: value} map,
    so a solve walks only the columns it holds and costs ring operations
    in proportion to the nonzeros of the rows they select.
    """

    def __init__(self, rows: list[list[int]]):
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        diag, U, V = smith_normal_form(rows)
        self.diag = diag
        self.certified = (
            len([d for d in diag if d != 0]) == self.nrows
            and all(d == 1 for d in diag[: self.nrows])
        )
        self.projector = self.cokernel = None
        if self.certified:
            r = self.nrows
            proj: list[dict] = [{} for _ in range(self.ncols)]
            coker: list[dict] = [{} for _ in range(self.ncols)]
            for j, col in enumerate(V):
                for i, v in col.items():
                    if j < r:
                        _axpy(proj[i], U[j], v)
                    else:
                        coker[i][j] = v
            self.projector = [tuple(row.items()) for row in proj]
            self.cokernel = [tuple(row.items()) for row in coker]

    def solve(self, vec: dict, ring):
        """Solve x*A = vec over ``ring``; vec is a sparse vector
        {column: nonzero ring element}.

        Returns (x, residual_ok).  residual_ok is False when vec is not
        in the row span, in which case x is None.  A column outside
        0..ncols-1 raises ``ValueError``.
        """
        if not self.certified:
            raise ValueError("matrix is not Smith-certified; cannot solve universally")
        add, mul, frm, is_zero = ring.add, ring.mul, ring.from_int, ring.is_zero
        zero = ring.zero()
        x = [zero] * self.nrows
        test: dict = {}  # the coordinates of (vec*V)[r:] that vec reaches
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


# -- canonical residues modulo a rational or an integer row span --------


class RationalEchelon:
    """Echelon rows over Q, for sparse vectors {column: value}.

    Each row is stored scaled to 1 at its lead, its first nonzero
    column.  ``reduce`` returns the residue of a vector modulo the row
    span: the unique vector congruent to it that is zero at every lead
    column.  ``add_if_new`` keeps a nonzero residue as a new row.
    """

    def __init__(self, rows=()):
        self.rows: list[tuple[int, dict]] = []  # (lead column, row)
        for row in rows:
            self.add_if_new(row)

    def reduce(self, vec: dict) -> dict:
        out = {k: Fraction(v) for k, v in vec.items() if v}
        for lead, row in self.rows:
            # later rows are zero at earlier leads, so each lead stays cleared
            _axpy(out, row, -out.get(lead, 0))
        return out

    def add_if_new(self, vec: dict) -> bool:
        """Add the residue of vec as a row; False if vec is in the span."""
        row = self.reduce(vec)
        if not row:
            return False
        lead = min(row)
        inv = 1 / row[lead]
        self.rows.append((lead, {k: v * inv for k, v in row.items()}))
        return True


class LatticeReducer:
    """Canonical representatives modulo the Z-row-span of given vectors.

    Rows are put in Hermite normal form once; ``reduce`` then maps any
    integer vector to the unique representative with coordinates in
    [0, pivot) at each pivot column.  Used for coefficient torsion in
    quotient algebras.
    """

    def __init__(self, rows: list[list[int]], ncols: int):
        self.ncols = ncols
        self.hnf: list[tuple[int, list[int]]] = []  # (pivot col, row), pivot > 0
        for row in rows:
            self._insert(list(map(int, row)))
        self.hnf.sort(key=lambda t: t[0])
        self._normalize_off_pivots()

    def _insert(self, row: list[int]):
        while True:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                return
            found = None
            for k, (col, _) in enumerate(self.hnf):
                if col == lead:
                    found = k
                    break
            if found is None:
                if row[lead] < 0:
                    row = [-v for v in row]
                self.hnf.append((lead, row))
                self.hnf.sort(key=lambda t: t[0])
                return
            col, prow = self.hnf[found]
            a, b = prow[lead], row[lead]
            g = gcd(a, b)
            # replace pivot row by the gcd combination, continue with remainder
            x, y = _bezout(a, b, g)
            new_pivot = [x * u + y * v for u, v in zip(prow, row)]
            rem = [(a // g) * v - (b // g) * u for u, v in zip(prow, row)]
            self.hnf[found] = (col, new_pivot)
            row = rem

    def _normalize_off_pivots(self):
        # reduce entries above each pivot into [0, pivot)
        for k in range(len(self.hnf) - 1, -1, -1):
            col, row = self.hnf[k]
            p = row[col]
            for j in range(k):
                _, upper = self.hnf[j]
                q = upper[col] // p
                if q:
                    self.hnf[j] = (
                        self.hnf[j][0],
                        [u - q * v for u, v in zip(upper, row)],
                    )

    def reduce(self, vec: list[int]) -> list[int]:
        out = list(map(int, vec))
        for col, row in self.hnf:
            q = out[col] // row[col]
            if q:
                out = [u - q * v for u, v in zip(out, row)]
        return out


def _bezout(a: int, b: int, g: int) -> tuple[int, int]:
    # x*a + y*b == g
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == g:
        return old_s, old_t
    # old_r == -g
    return -old_s, -old_t
