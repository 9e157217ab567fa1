"""A dense Smith normal form for tests: a slow, plainly correct oracle,
independent of the library's unit-pivot elimination.

``smith_full_scan`` pivots on the smallest nonzero entry of the whole
remaining block, with dense transforms, and then enforces the
divisibility chain.  Its Euclid loop can grow entries without bound on
larger dense blocks that run out of units, so keep its inputs small.
"""

from fractions import Fraction


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _det(m):
    n = len(m)
    rows = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col]:
                c = rows[r][col] * inv
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return det


def assert_smith_certificate(a, diag, U, V):
    """U*A*V is the diagonal ``diag``, with d_1 | d_2 | ... and U, V
    unimodular."""
    nr, nc = len(a), len(a[0])
    prod = mat_mul(mat_mul(U, a), V)
    for i in range(nr):
        for j in range(nc):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    nz = [d for d in diag if d]
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1


def _dense_identity(n) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_full_scan(mat):
    """Return (diag, U, V) with U*A*V diagonal, U and V unimodular.

    ``diag`` lists the diagonal entries d_1 | d_2 | ... (nonzero first).
    Row/column operations are tracked in U (left, r x r) and V (right,
    c x c).
    """
    a = [list(map(int, row)) for row in mat]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    U = _dense_identity(nr)
    V = _dense_identity(nc)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        # row_dst += q * row_src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + q * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(nr, nc):
        # locate a minimal nonzero entry in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        swap_rows(t, bi)
        swap_cols(t, bj)
        while True:
            p = a[t][t]
            done = True
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // p
                    addmul_row(i, t, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        p = a[t][t]
                        done = False
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // p
                    addmul_col(j, t, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        p = a[t][t]
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            d1, d2 = a[i][i], a[i + 1][i + 1]
            if d1 and d2 % d1 != 0:
                addmul_col(i, i + 1, 1)
                # re-clear the 2x2 block
                while True:
                    p = a[i][i]
                    if a[i + 1][i]:
                        q = a[i + 1][i] // p
                        addmul_row(i + 1, i, -q)
                        if a[i + 1][i]:
                            swap_rows(i, i + 1)
                            continue
                    if a[i][i + 1]:
                        q = a[i][i + 1] // p
                        addmul_col(i + 1, i, -q)
                        if a[i][i + 1]:
                            swap_cols(i, i + 1)
                            continue
                    break
                if a[i][i] < 0:
                    negate_row(i)
                if a[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
    diag = [a[k][k] for k in range(min(nr, nc))]
    return diag, U, V
