import random
import time

import pytest

from epsgrass.linalg import NoUnitPivot, SmithSolver

from rank_oracle import fraction_rank, rational_choice
from smith_oracle import assert_smith_certificate, smith_full_scan


def random_matrix(rng, nrows, ncols, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)]


def sparse_rows(a) -> list[dict]:
    return [{j: v for j, v in enumerate(row) if v} for row in a]


def unit_pivot_solver(a):
    """SmithSolver over the rows of a dense matrix, or None when it finds
    no unit pivot."""
    try:
        return SmithSolver(sparse_rows(a), len(a[0]))
    except NoUnitPivot:
        return None


def test_smith_normal_form_properties():
    # the oracle itself: U*A*V is diagonal with a divisibility chain
    rng = random.Random(9)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, nr, nc)
        assert_smith_certificate(a, *smith_full_scan(a))


def smith_test_matrices():
    """Seeded matrices with and without units, rank-deficient ones, 1 x n and
    n x 1.  Shapes stay within 5 x 5 and entries small, for the dense
    oracle's sake."""
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


def test_unit_pivot_elimination_keeps_the_rational_choice():
    # kept rows are exactly the rows a rational echelon keeps, and the
    # kept block has an all-ones Smith diagonal
    solved = 0
    for a in smith_test_matrices():
        solver = unit_pivot_solver(a)
        if solver is None:
            continue
        solved += 1
        assert solver.kept == rational_choice(a)
        kept = [a[k] for k in solver.kept]
        assert solver.nrows == len(kept) == fraction_rank(a)
        if kept:
            assert smith_full_scan(kept)[0] == [1] * len(kept)
    assert solved > 40


def test_unit_pivot_elimination_on_seeded_random_matrices():
    rng = random.Random(41)
    solved = refused = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        a = [[rng.choice((0, 0, 0, 1, -1, 1, 2, -3)) for _ in range(nc)] for _ in range(nr)]
        solver = unit_pivot_solver(a)
        if solver is None:
            refused += 1
            continue
        solved += 1
        assert solver.kept == rational_choice(a)
    assert solved > 100 and refused > 100


def test_unit_pivot_refuses_blocks_without_units():
    # entries grew past 4300 digits under the old Euclid-style loop
    found = [
        [-2, 0, 7, 7, -2, -1],
        [5, -3, 0, 4, -5, -2],
        [9, 2, 0, -1, -1, 11],
        [-1, 0, -6, 4, 5, -10],
        [1, -1, 2, 4, 9, 3],
        [-2, -2, -3, -8, -6, 14],
        [7, 3, -1, 10, 10, 7],
    ]
    start = time.perf_counter()
    with pytest.raises(NoUnitPivot):
        SmithSolver(sparse_rows(found), 6)
    assert time.perf_counter() - start < 1.0
    # Smith diagonal (1), but no +-1 entry: incomplete by design
    assert smith_full_scan([[2, 3]])[0] == [1]
    with pytest.raises(NoUnitPivot):
        SmithSolver([{0: 2, 1: 3}], 2)


def test_unit_pivot_skips_dependent_rows():
    from epsgrass import ZZ

    rows = [{0: 1, 1: 2}, {0: 3, 1: 6}, {}, {1: 1, 2: -1}, {0: 1, 1: 1, 2: 1}]
    solver = SmithSolver(rows, 3)
    assert solver.kept == [0, 3]
    # row 4 = row 0 - row 3
    assert solver.solve({0: 1, 1: 1, 2: 1}, ZZ) == ([1, -1], True)
    assert solver.solve({0: 1}, ZZ) == (None, False)


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
    certified = []
    for a in smith_test_matrices():
        solver = unit_pivot_solver(a)
        if solver is not None and solver.kept:
            certified.append(([a[k] for k in solver.kept], solver))
    assert len(certified) > 20
    for a, solver in certified:
        n, c = len(a), len(a[0])
        for ring in (ZZ, QQ, GF(5), ModRing(4), ModRing(6)):
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
    rows = [{j: rng.choice((1, -1))} for j in perm]
    solver = SmithSolver(rows, n)
    assert solver.kept == list(range(n))
    # every row is kept as it came: one entry, its pivot, and no combination
    assert sum(len(row) for _, row, _ in solver.echelon) == n
    assert all(combo is None for _, _, combo in solver.echelon)


def test_smith_solver_rejects_wrong_length():
    from epsgrass import ZZ

    # a sparse vector with a column outside 0..ncols-1 is malformed
    solver = SmithSolver([{0: 1}, {1: 1}], 3)
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
        # a full-row-rank matrix with unimodular content and a unit pivot
        # at each step
        solver = None
        while solver is None:
            cand = random_matrix(rng, n, c, -3, 3)
            diag = smith_full_scan(cand)[0]
            if len([d for d in diag if d]) == n and all(d == 1 for d in diag[:n]):
                a, solver = cand, unit_pivot_solver(cand)
        assert solver.kept == list(range(n))
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

    solver = SmithSolver([{0: 1}], 3)
    sol, ok = solver.solve({1: 1}, ZZ)
    assert not ok and sol is None
