"""The blocks of the trace standard form, and a cold certification of
one block of every shape on 7 letters.

A block is (outer letters, trace parts): the letters outside every trace
and the own letters of each trace, a set partition of the rest.  Its
shape is the number of outer letters and the part sizes.

    PYTHONPATH=src python tests/block_shapes.py [letters]

certifies the first block of each shape on ``letters`` letters (default
7, 45 shapes) in one process, from empty caches, and prints for each
shape the candidates evaluated (structured terms and nested monomials),
the number kept (and how many of them are nested) and the time, then
the total.  A block that fails its certificate raises
``InternalError``, which ends the run with a traceback and exit 1.
"""

import sys
from itertools import combinations
from time import perf_counter

from epsgrass.supertrace import (
    MonomialTerm,
    _block_solver,
    enumerate_block_basis,
    enumerate_nested_monomials,
)


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
        block = shapes[shape]
        structured = len(enumerate_block_basis(*block))
        nested = len(enumerate_nested_monomials(*block))
        start = perf_counter()
        basis, _, _ = _block_solver(*block)
        took = perf_counter() - start
        total += took
        kept_nested = sum(isinstance(t, MonomialTerm) for t in basis)
        print(
            f"{shape}: {structured} structured + {nested} nested candidates, "
            f"{len(basis)} kept ({kept_nested} nested), {took:.2f} s",
            flush=True,
        )
    print(f"{len(shapes)} shapes on {n} letters certified in {total:.1f} s")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 7)
