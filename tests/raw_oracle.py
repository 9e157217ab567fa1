"""Brute-force reducer over raw (unreduced) monomials, integers only.

Works on sums of raw terms (coeff, theta_power, eps multiset, letter
sequence) and applies the defining rewrite rules in an arbitrary
(randomizable) order until a fixpoint:

  R1  eps_i * eps_i        -> theta * eps_i
  R2  theta^2              -> 2
  R3  e_a e_b (a > b)      -> e_b e_a  -  eps_a eps_b e_b e_a
  R4  theta eps_i ... e_i^2 -> 0
  R5  2 eps_i ... e_i^2     -> 0   (theta-free coefficient, mod 2)

Completely independent of the library's normal-form code; used to
cross-check reduction confluence and products.
"""

from __future__ import annotations

from epsgrass.epsilon import monomial_key

# raw term: (coeff:int, theta:int, eps:tuple sorted with repeats, letters:tuple)


def raw_term(coeff, theta, eps, letters):
    return (int(coeff), int(theta), tuple(sorted(eps)), tuple(letters))


def _applicable(term):
    c, t, eps, letters = term
    moves = []
    for k in range(len(eps) - 1):
        if eps[k] == eps[k + 1]:
            moves.append(("R1", k))
    if t >= 2:
        moves.append(("R2", None))
    for k in range(len(letters) - 1):
        if letters[k] > letters[k + 1]:
            moves.append(("R3", k))
    if t >= 1 and any(eps.count(i) >= 1 and letters.count(i) >= 2 for i in set(eps)):
        moves.append(("R4", None))
    if (
        t == 0
        and c not in (0, 1)
        and any(letters.count(i) >= 2 for i in set(eps))
    ):
        moves.append(("R5", None))
    return moves


def _apply(term, move):
    c, t, eps, letters = term
    kind, k = move
    if kind == "R1":
        i = eps[k]
        rest = eps[:k] + eps[k + 2 :]
        return [raw_term(c, t + 1, rest + (i,), letters)]
    if kind == "R2":
        return [raw_term(2 * c, t - 2, eps, letters)]
    if kind == "R3":
        a, b = letters[k], letters[k + 1]
        swapped = letters[:k] + (b, a) + letters[k + 2 :]
        return [
            raw_term(c, t, eps, swapped),
            raw_term(-c, t, eps + (a, b), swapped),
        ]
    if kind == "R4":
        return []
    if kind == "R5":
        return [raw_term(c % 2, t, eps, letters)] if c % 2 else []
    raise AssertionError(move)


def raw_reduce(terms, rng=None):
    """Reduce a list of raw terms to the canonical fixpoint.

    If ``rng`` is given, rules fire in random order (for confluence
    testing); otherwise deterministically.
    """
    todo = [raw_term(*t) for t in terms]
    done = []
    while todo:
        term = todo.pop()
        if term[0] == 0:
            continue
        moves = _applicable(term)
        if not moves:
            done.append(term)
            continue
        move = rng.choice(moves) if rng is not None else moves[0]
        todo.extend(_apply(term, move))
    # collect equal monomials, then renormalize the summed coefficients
    acc: dict = {}
    for c, t, eps, letters in done:
        key = (t, eps, letters)
        acc[key] = acc.get(key, 0) + c
    out = []
    for (t, eps, letters), c in acc.items():
        if t == 0 and c not in (0, 1) and any(
            letters.count(i) >= 2 for i in set(eps)
        ):
            c %= 2
        if c:
            out.append((c, t, eps, letters))
    return sorted(out, key=lambda x: (x[3], x[2], x[1], x[0]))


def raw_mul(terms_a, terms_b):
    out = []
    for ca, ta, ea, la in terms_a:
        for cb, tb, eb, lb in terms_b:
            out.append(raw_term(ca * cb, ta + tb, ea + eb, la + lb))
    return out


def grass_to_raw(x):
    """Translate a GrassElem over Z into raw terms."""
    from epsgrass.grassmann import word_letters

    out = []
    for word, coeff in x.terms.items():
        letters = tuple(word_letters(word))
        for m, c in coeff.terms.items():
            out.append(raw_term(c, *monomial_key(m), letters))
    return out


def eps_to_raw(p):
    """Translate an EpsPoly over Z into raw terms (no letters)."""
    out = []
    for m, c in p.terms.items():
        out.append(raw_term(c, *monomial_key(m), ()))
    return out
