"""The blocks of the trace standard form, and a cold certification of
one block of every shape on 7 letters.

A block is (outer letters, trace parts): the letters outside every trace
and the own letters of each trace, a set partition of the rest.  Its
shape is the number of outer letters and the part sizes.

    PYTHONPATH=src python tests/block_shapes.py [letters]

certifies the first block of each shape on ``letters`` letters (default
7, 45 shapes) in one process, from empty caches, and prints each
shape's time and the total.  A block that fails its certificate raises
``InternalError``, which ends the run with a traceback and exit 1.
"""

import sys
from itertools import combinations
from time import perf_counter

from epsgrass.supertrace import _block_solver


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]
        yield [[first]] + p


def blocks_on(n):
    """Every block on the letters 1..n."""
    letters = list(range(1, n + 1))
    for k in range(n + 1):
        for outer in combinations(letters, k):
            rest = [i for i in letters if i not in outer]
            for parts in set_partitions(rest):
                yield frozenset(outer), frozenset(frozenset(p) for p in parts)


def all_blocks(max_letters):
    """Every block (outer letters, trace parts) on 1..n, n <= max_letters."""
    for n in range(1, max_letters + 1):
        yield from blocks_on(n)


def block_shapes(n):
    """{(outer size, part sizes in decreasing order): the first block of
    that shape on 1..n}."""
    shapes: dict = {}
    for outer, parts in blocks_on(n):
        shape = (len(outer), tuple(sorted(map(len, parts), reverse=True)))
        shapes.setdefault(shape, (outer, parts))
    return shapes


def main(n: int) -> None:
    shapes = block_shapes(n)
    total = 0.0
    for shape in sorted(shapes):
        start = perf_counter()
        basis, _, _ = _block_solver(*shapes[shape])
        took = perf_counter() - start
        total += took
        print(f"{shape}: {len(basis)} basis terms, {took:.2f} s", flush=True)
    print(f"{len(shapes)} shapes on {n} letters certified in {total:.1f} s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
