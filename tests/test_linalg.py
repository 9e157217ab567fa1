import random
from fractions import Fraction

import pytest

from epsgrass.linalg import (
    LatticeReducer,
    RationalEchelon,
    SmithSolver,
    smith_normal_form,
)

from rank_oracle import fraction_rank


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def dense_transforms(U, V):
    """U from its sparse rows and V from its sparse columns, as dense lists."""
    nr, nc = len(U), len(V)
    return (
        [[row.get(j, 0) for j in range(nr)] for row in U],
        [[V[j].get(i, 0) for j in range(nc)] for i in range(nc)],
    )


def assert_smith_certificate(a, diag, U, V):
    nr, nc = len(a), len(a[0])
    prod = mat_mul(mat_mul(U, a), V)
    for i in range(nr):
        for j in range(nc):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert prod[i][j] == expect
    # divisibility chain
    nz = [d for d in diag if d]
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    assert abs(_det(U)) == 1 and abs(_det(V)) == 1


def test_smith_normal_form_properties():
    rng = random.Random(9)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, nr, nc)
        diag, U, V = smith_normal_form(a)
        assert_smith_certificate(a, diag, *dense_transforms(U, V))


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


# -- differential tests against the full-scan Smith form ---------------------


def _dense_identity(n) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_full_scan(mat):
    """Reference Smith normal form: dense U and V, and a scan of the whole
    remaining block for its smallest pivot.  The library's sparse version,
    which stops its scan at the first unit, must reproduce it exactly.

    Return (diag, U, V) with U*A*V diagonal, U and V unimodular.

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


def smith_test_matrices():
    """Seeded matrices with and without units, rank-deficient ones, 1 x n and
    n x 1.  Shapes stay within 5 x 5 and entries small: on larger dense
    blocks that run out of units the elimination grows its entries without
    bound."""
    rng = random.Random(33)
    out = []
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, nr, nc)
        out.append(a)
        out.append([[2 * v for v in row] for row in a])  # no units
        out.append([[rng.choice((0, 0, 0, 1, -1, 3)) for _ in range(nc)] for _ in range(nr)])
        base = random_matrix(rng, max(1, nr // 2), nc, -2, 2)  # rank <= nr // 2
        out.append(
            [[sum(rng.randint(-2, 2) * b[j] for b in base) for j in range(nc)] for _ in range(nr)]
        )
    for n in range(1, 8):
        out.append(random_matrix(rng, 1, n))
        out.append(random_matrix(rng, n, 1))
        out.append([[2 * rng.randint(-3, 3) for _ in range(n)]])
    return out


def test_smith_normal_form_matches_full_scan():
    for a in smith_test_matrices():
        diag, U, V = smith_normal_form(a)
        ref_diag, ref_U, ref_V = smith_full_scan(a)
        assert diag == ref_diag
        U, V = dense_transforms(U, V)
        assert_smith_certificate(a, diag, U, V)
        # the first unit in row-major order is the first minimum: same pivots
        assert (U, V) == (ref_U, ref_V)


def _dense_solve(a, vec, ring):
    """x = (vec * V)[:r] * U with the full-scan transforms, or None when
    (vec * V)[r:] is not zero."""
    _, U, V = smith_full_scan(a)
    r = len(a)
    w = [
        ring_sum(ring, (ring.mul(vec[i], ring.from_int(V[i][j])) for i in range(len(V))))
        for j in range(len(V))
    ]
    if not all(ring.is_zero(c) for c in w[r:]):
        return None, False
    return [
        ring_sum(ring, (ring.mul(w[i], ring.from_int(U[i][j])) for i in range(r)))
        for j in range(r)
    ], True


def test_smith_solver_matches_dense_formula():
    from epsgrass import GF, QQ, ZZ
    from epsgrass.rings import ModRing

    rng = random.Random(8)
    certified = [a for a in smith_test_matrices() if SmithSolver(a).certified]
    assert len(certified) > 20
    for a in certified:
        solver = SmithSolver(a)
        n, c = len(a), len(a[0])
        for ring in (ZZ, QQ, GF(5), ModRing(4)):
            x = [ring.sample(rng) for _ in range(n)]
            inside = [
                ring_sum(ring, (ring.mul(x[i], ring.from_int(a[i][j])) for i in range(n)))
                for j in range(c)
            ]
            outside = [ring.sample(rng) for _ in range(c)]  # mostly not in the span
            for vec in (inside, outside):
                assert solver.solve(sparse(vec, ring), ring) == _dense_solve(a, vec, ring)
            assert solver.solve(sparse(inside, ring), ring) == (x, True)


def test_smith_solver_signed_permutation_is_sparse():
    rng = random.Random(200)
    n = 200
    perm = list(range(n))
    rng.shuffle(perm)
    a = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        a[i][j] = rng.choice((1, -1))
    solver = SmithSolver(a)
    assert solver.certified and solver.diag == [1] * n
    assert sum(len(row) for row in solver.projector) == n
    assert sum(len(row) for row in solver.cokernel) == 0


def test_smith_solver_rejects_wrong_length():
    from epsgrass import ZZ

    # a sparse vector with a column outside 0..ncols-1 is malformed
    solver = SmithSolver([[1, 0, 0], [0, 1, 0]])
    for vec in ({0: 1, 3: 1}, {-1: 1}, {5: 0}):
        with pytest.raises(ValueError):
            solver.solve(vec, ZZ)
    assert solver.solve({0: 1, 1: 2}, ZZ) == ([1, 2], True)


def test_smith_solver_over_various_rings():
    from epsgrass import GF, QQ, ZZ

    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 4)
        c = n + rng.randint(0, 3)
        # build a full-row-rank matrix with unimodular content
        a = None
        while a is None:
            cand = random_matrix(rng, n, c, -3, 3)
            diag, _, _ = smith_normal_form(cand)
            if len([d for d in diag if d]) == n and all(d == 1 for d in diag[:n]):
                a = cand
        solver = SmithSolver(a)
        assert solver.certified
        for ring in (ZZ, QQ, GF(5)):
            x = [ring.sample(rng) for _ in range(n)]
            v = [
                ring_sum(ring, (ring.mul(x[i], ring.from_int(a[i][j])) for i in range(n)))
                for j in range(c)
            ]
            sol, ok = solver.solve(sparse(v, ring), ring)
            assert ok and sol == x


def sparse(vec, ring) -> dict:
    """The {column: value} map of a dense vector's nonzero entries."""
    return {i: c for i, c in enumerate(vec) if not ring.is_zero(c)}


def ring_sum(ring, items):
    s = ring.zero()
    for v in items:
        s = ring.add(s, v)
    return s


def test_smith_solver_detects_inconsistency():
    from epsgrass import ZZ

    solver = SmithSolver([[1, 0, 0]])
    sol, ok = solver.solve({1: 1}, ZZ)
    assert not ok and sol is None


def test_lattice_reducer_canonical():
    # lattice spanned by (2, 0) and (0, 3)
    red = LatticeReducer([[2, 0], [0, 3]], 2)
    assert red.reduce([5, 7]) == [1, 1]
    assert red.reduce([4, 6]) == [0, 0]
    # representative is canonical: equal cosets reduce equally
    rng = random.Random(3)
    basis = [[2, 4, 0], [0, 6, 2]]
    red = LatticeReducer(basis, 3)
    for _ in range(40):
        v = [rng.randint(-9, 9) for _ in range(3)]
        coeffs = [rng.randint(-3, 3) for _ in basis]
        shift = [
            sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(3)
        ]
        assert red.reduce(v) == red.reduce([a + b for a, b in zip(v, shift)])


def test_rational_echelon_residues():
    # each residue r of v is zero at every lead column and v - r lies in
    # the span of the rows added so far
    rng = random.Random(29)
    for _ in range(40):
        ncols = rng.randint(1, 7)
        rows = random_matrix(rng, rng.randint(0, 5), ncols, -3, 3)
        echelon = RationalEchelon([dict(enumerate(r)) for r in rows])
        leads = [lead for lead, _ in echelon.rows]
        assert len(leads) == len(set(leads)) == fraction_rank(rows)
        for _ in range(5):
            v = random_matrix(rng, 1, ncols, -4, 4)[0]
            r = echelon.reduce(dict(enumerate(v)))
            assert all(r.get(lead, 0) == 0 for lead in leads)
            diff = [Fraction(x) - r.get(j, 0) for j, x in enumerate(v)]
            assert fraction_rank(rows + [diff]) == fraction_rank(rows)
            assert echelon.add_if_new(dict(enumerate(v))) == bool(r)
            if r:
                rows.append(v)
                leads.append(min(r))
