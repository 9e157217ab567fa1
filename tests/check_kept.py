"""The kept candidates of every block of at most 6 letters and of one
block of each shape on 7 letters, certified by the library and by the
word-by-word oracle path, must agree.

    PYTHONPATH=src python tests/check_kept.py

For each block, ``_block_solver`` certifies it from an empty cache, and
the oracle evaluates the same candidates one signed word at a time
(``product_oracle.word_by_word_vectors``) and runs its own
``SmithSolver`` on the vectors.  Prints the counts per letter count and
exits 1 at the first block whose kept candidate indices differ; a block
that fails its certificate raises ``InternalError`` (traceback, exit 1).
"""

import sys
from time import perf_counter

from epsgrass import supertrace
from epsgrass.linalg import SmithSolver

from block_shapes import blocks_on, block_shapes
from product_oracle import word_by_word_vectors


def kept_lists_agree(outer, parts) -> bool:
    supertrace._BLOCK_CACHE.clear()
    _, _, solver = supertrace._block_solver(outer, parts)
    candidates = supertrace.enumerate_block_basis(outer, parts)
    candidates += supertrace.enumerate_nested_monomials(outer, parts)
    columns, vectors = word_by_word_vectors(candidates)
    return solver.kept == SmithSolver(vectors, len(columns)).kept


def main() -> int:
    runs = [(n, list(blocks_on(n))) for n in range(1, 7)]
    runs.append((7, [block_shapes(7)[shape] for shape in sorted(block_shapes(7))]))
    for n, blocks in runs:
        start = perf_counter()
        for outer, parts in blocks:
            if not kept_lists_agree(outer, parts):
                print(f"kept candidates differ on block {sorted(outer)}, {sorted(map(sorted, parts))}")
                return 1
        print(f"{n} letters: {len(blocks)} blocks agree, {perf_counter() - start:.1f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
