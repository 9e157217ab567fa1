"""Plain-int oracles for exp, the generalized sign and the C[eps] product.

Nothing here imports epsgrass.  A polynomial is a dict
{(theta_deg, eps tuple): nonzero coefficient}, the same keys as
``EpsPoly.terms``, with int (or Fraction) coefficients.

``exp_graph`` is the closed form of exp(sum over E of eps_a*eps_b) for a
simple graph E: the coefficient of theta^(|S| mod 2)*eps_S is

    2^(-ceil(|S|/2)) * sum over T in S of (-1)^(|S| - |T| + e(T)),

where e(T) counts the edges of E inside T, and every other monomial is
0.  The sum is the character sum of the GF(2) quadratic form
q(x) = sum x_v + sum_E x_a*x_b on S.  ``naive_mul`` multiplies by
counting letters: eps_i^k = theta^(k-1)*eps_i and theta^k =
2^(k//2)*theta^(k%2).

``model_value`` evaluates a multilinear trace polynomial in the graded
trace model one reordering step at a time: every rotation of a trace
argument by one letter and every swap of a trace value past a letter or
past a larger trace value multiplies by its own ``exp_pairs`` factor.
"""

from __future__ import annotations

from collections import Counter

ONE = (0, ())


def naive_mul(p: dict, q: dict) -> dict:
    """The product of two C[eps] polynomials over Z (or Q)."""
    out: dict = {}
    for (t1, e1), c1 in p.items():
        for (t2, e2), c2 in q.items():
            letters = Counter(e1) + Counter(e2)
            theta = t1 + t2 + sum(k - 1 for k in letters.values())
            key = (theta % 2, tuple(sorted(letters)))
            out[key] = out.get(key, 0) + c1 * c2 * 2 ** (theta // 2)
    return {k: c for k, c in out.items() if c}


def binomial(i: int, j: int) -> dict:
    """1 - eps_i*eps_j, or 1 - theta*eps_i when i = j."""
    if i == j:
        return {ONE: 1, (1, (i,)): -1}
    return {ONE: 1, (0, tuple(sorted((i, j)))): -1}


def exp_graph(edges) -> dict:
    """exp of a simple graph's edges over Z, by the closed form.

    A subset of the vertices is a bit mask; (-1)^(|T| + e(T)) is
    tabulated once per subset T, and the sum for S runs over the
    submasks T of S."""
    edges = [tuple(e) for e in {frozenset(e) for e in edges}]
    if any(len(e) != 2 for e in edges):
        raise ValueError("a simple graph has no loops")
    vertices = sorted({v for e in edges for v in e})
    bits = {v: 1 << k for k, v in enumerate(vertices)}
    edge_masks = [bits[a] | bits[b] for a, b in edges]
    sign = [
        (-1) ** (bin(t).count("1") + sum(1 for m in edge_masks if t & m == m))
        for t in range(1 << len(vertices))
    ]
    out = {}
    for s in range(1 << len(vertices)):
        subset = tuple(v for v in vertices if s & bits[v])
        size = len(subset)
        total, t = 0, s
        while True:
            total += sign[t]
            if not t:
                break
            t = t - 1 & s
        total *= (-1) ** size
        if total:
            den = 2 ** ((size + 1) // 2)
            if total % den:
                raise ValueError(f"character sum {total} not divisible by {den}")
            out[(size % 2, subset)] = total // den
    return out


def exp_pairs(pairs) -> dict:
    """exp of a list of index pairs over Z: pairs cancel mod 2, the
    distinct-index pairs go through the closed form, and each (i, i)
    pair multiplies by 1 - theta*eps_i."""
    odd = Counter(tuple(sorted(p)) for p in pairs)
    edges = [p for p, k in odd.items() if k % 2 and p[0] != p[1]]
    out = exp_graph(edges)
    for (i, j), k in sorted(odd.items()):
        if k % 2 and i == j:
            out = naive_mul(out, binomial(i, i))
    return out


def inversion_pairs(supports, sigma) -> list:
    """The pairs of esgn(sigma) on words with the given parity supports:
    one per letter pair of each inversion i < j, sigma(i) > sigma(j)."""
    pairs = []
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                u, v = supports[sigma[i] - 1], supports[sigma[j] - 1]
                pairs.extend((a, b) for a in u for b in v)
    return pairs


def reduce(poly: dict, modulus: int | None = None, theta_zero: bool = False) -> dict:
    """The image of a Z polynomial in Z/modulus, optionally also in the
    theta=0 quotient."""
    out = {}
    for (t, eps), c in poly.items():
        if theta_zero and t:
            continue
        if modulus is not None:
            c %= modulus
        if c:
            out[(t, eps)] = c
    return out


def _model_monomial(term) -> tuple:
    """(w0, traces, poly) of one term: the letters in order, the sorted
    trace values and the product of the exp factors of every step."""
    factors = []  # letters as ints, trace values as tuples of letters
    poly = {ONE: 1}
    for atom in term:
        if isinstance(atom, int):
            factors.append(atom)
            continue
        word, traces, inner = _model_monomial(atom[1])
        if not word:
            raise ValueError("trace argument without letters of its own")
        poly = naive_mul(poly, inner)
        # rotate left one letter at a time to the minimal rotation
        while word != min(word[k:] + word[:k] for k in range(len(word))):
            poly = naive_mul(poly, exp_pairs([(word[0], b) for b in word[1:]]))
            word = word[1:] + word[:1]
        # Tr(word * traces) = Tr(word) * traces
        factors.append(word)
        factors.extend(traces)
    # adjacent swaps: trace values move right past letters, then sort
    swapped = True
    while swapped:
        swapped = False
        for k in range(len(factors) - 1):
            a, b = factors[k], factors[k + 1]
            if isinstance(a, tuple) and (isinstance(b, int) or a > b):
                right = (b,) if isinstance(b, int) else b
                poly = naive_mul(poly, exp_pairs([(i, j) for i in a for j in right]))
                factors[k], factors[k + 1] = b, a
                swapped = True
    w0 = tuple(f for f in factors if isinstance(f, int))
    traces = tuple(f for f in factors if isinstance(f, tuple))
    return w0, traces, poly


def model_value(terms: dict) -> dict:
    """The model value {(w0, traces): polynomial} of a multilinear trace
    polynomial's term map {term: coefficient} over Z (or Q); a term is a
    tuple of letters and ("F", term) atoms.  Raises ValueError on a trace
    argument without letters of its own."""
    out: dict = {}
    for term, c in terms.items():
        w0, traces, poly = _model_monomial(term)
        acc = out.setdefault((w0, traces), {})
        for key, v in poly.items():
            acc[key] = acc.get(key, 0) + c * v
    out = {mono: {k: v for k, v in p.items() if v} for mono, p in out.items()}
    return {mono: p for mono, p in out.items() if p}
