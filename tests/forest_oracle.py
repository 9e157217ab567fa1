"""Nested trace monomials by the full parent-map walk: a slow oracle for
``supertrace.enumerate_nested_monomials``.

It walks all (m+1)^m parent maps of m trace nodes, keeps the acyclic
ones with at least one edge, and drops a forest in which a one-letter
part has children.  Candidates come out as plain atom tuples, in the
order of the walk."""

from itertools import permutations, product


def acyclic_parent_maps(m: int):
    """All forests on m nodes: parents[i] in {-1 (root), 0..m-1} \\ {i}."""
    for parents in product(range(-1, m), repeat=m):
        ok = True
        for i in range(m):
            if parents[i] == i:
                ok = False
                break
            seen = set()
            j = i
            while j != -1:
                if j in seen:
                    ok = False
                    break
                seen.add(j)
                j = parents[j]
            if not ok:
                break
        if ok:
            yield parents


def interleavings(letters, fatoms, boundary_letters: bool) -> list[tuple]:
    """Every order of the letters and trace atoms; with boundary_letters,
    only those that start and end with a letter."""
    items = list(letters) + list(fatoms)
    out = []
    for perm in permutations(items):
        if boundary_letters and perm:
            if not isinstance(perm[0], int) or not isinstance(perm[-1], int):
                continue
        out.append(perm)
    return out


def nested_monomials(outer: frozenset, parts: frozenset) -> list[tuple]:
    part_list = sorted(parts, key=sorted)
    m = len(part_list)
    if m < 2:
        return []
    out = []
    for parents in acyclic_parent_maps(m):
        if max(parents) < 0:
            continue
        children: dict = {i: [] for i in range(-1, m)}
        for i, p in enumerate(parents):
            children[p].append(i)
        if any(children[i] and len(part_list[i]) < 2 for i in range(m)):
            continue

        def node_options(i):
            seqs = []
            for picks in product(*(node_options(j) for j in children[i])):
                fatoms = [("F", p) for p in picks]
                seqs.extend(interleavings(sorted(part_list[i]), fatoms, True))
            return seqs

        for picks in product(*(node_options(j) for j in children[-1])):
            fatoms = [("F", p) for p in picks]
            out.extend(interleavings(sorted(outer), fatoms, False))
    return out
