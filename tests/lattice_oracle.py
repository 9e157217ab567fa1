"""Canonical representatives modulo an integer lattice, by Hermite
normal form: a slow, plainly correct oracle for tests, independent of
the library's closed-form torsion residues.

Rows are dense lists of ints; keep them to a few hundred entries.
"""

from math import gcd


class LatticeReducer:
    """Canonical representatives modulo the Z-row-span of given vectors.

    Rows are put in Hermite normal form once; ``reduce`` then maps any
    integer vector to the unique representative with coordinates in
    [0, pivot) at each pivot column.  ``hnf`` lists (pivot column, row)
    by pivot column, each pivot positive; its length is the rank.
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
