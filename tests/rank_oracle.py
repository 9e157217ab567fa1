"""Rank over Q by Gauss-Jordan elimination on Fractions: a slow, plainly
correct oracle for tests, independent of the library's linear algebra."""

from fractions import Fraction


def pivot_columns(m) -> list[int]:
    """The pivot columns of the reduced row echelon form of m over Q."""
    rows = [[Fraction(v) for v in row] for row in m]
    rank = 0
    pivots = []
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        pivots.append(col)
    return pivots


def fraction_rank(m) -> int:
    return len(pivot_columns(m))


def rational_choice(m) -> list[int]:
    """The indices of the rows of m that raise the rank of the rows
    before them, in order: the rows a rational echelon keeps.  They are
    the pivot columns of the transpose."""
    return pivot_columns([list(col) for col in zip(*m)]) if m else []
