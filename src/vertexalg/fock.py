"""Lattice Fock space on states h1(-k1)...hm(-km) v_charge.

The vertex algebra structure is generated from three ingredients: the
cocycle sign, the Heisenberg action, and the closed formula for products of
two charged vacua.  Every other product goes through one associativity
recursion whose left factor is a right-normed word of charged vacua v_lam
and Heisenberg vectors h(-1)vac; a state is itself such a word,
h1[-k1] ( ... (hm[-km] (v_charge[-1] vac))).  Both sums of the identity are
truncated by the degree floor, so every computation is finite and exact;
vertex-operator exponentials never appear.

States are pairs (heis, charge): `heis` is the creation multiset as a tuple
of (level, generator) pairs sorted ascending (creation operators commute,
so the sorted form is canonical), and `charge` is a signed weight.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm

from .signature import (
    Signature,
    Weight,
    format_weight,
    min_deg2,
    pairing,
    weight_add,
)
from .words import Combination, FreeElement, Word, accumulate, binomial

# A state is (heis, charge); heis is a tuple of (level, gen) with level >= 1.
State = tuple


def vacuum_state(sig: Signature, charge: Weight = None) -> State:
    return ((), charge if charge is not None else sig.zero_weight())


def state_deg2(sig: Signature, st: State) -> int:
    return pairing(sig, st[1], st[1]) + 2 * sum(k for k, _ in st[0])


class FockElement(Combination):
    """Finite rational combination of states."""

    __slots__ = ()


FOCK_ZERO = FockElement()


def state_element(st: State) -> FockElement:
    return FockElement({st: 1})


def vacuum_element(sig: Signature, charge: Weight = None) -> FockElement:
    return state_element(vacuum_state(sig, charge))


def cocycle(sig: Signature, lam: Weight, mu: Weight) -> int:
    """Bimultiplicative sign on the lattice, +-1.

    Convention fixed by the generator order: eps(a,a) = 1 and eps(a,b) = 1
    for a < b; the value for a > b is then forced by the cocycle condition.
    """
    exponent = 0
    for p in range(len(lam)):
        lp = lam[p]
        if not lp:
            continue
        for q in range(p):
            mq = mu[q]
            if not mq:
                continue
            gpp = -sig.locality[p][p]
            gqq = -sig.locality[q][q]
            gpq = -sig.locality[p][q]
            exponent += lp * mq * (gpp * gqq + gpq)
    return -1 if exponent & 1 else 1


def heis_act(sig: Signature, g: int, n: int, x: FockElement) -> FockElement:
    """Action of the Heisenberg operator g(n) on an element.

    n < 0 inserts a creation letter, n = 0 scales by (g|charge), n > 0
    commutes through and removes a matching creation letter.
    """
    data = {}
    for (heis, charge), c in x.terms.items():
        if n < 0:
            st = (_insert(heis, (-n, g)), charge)
            data[st] = data.get(st, 0) + c
        elif n == 0:
            f = pairing(sig, sig.unit_weight(g), charge)
            if f:
                st = (heis, charge)
                data[st] = data.get(st, 0) + f * c
        else:
            for i, (k, h) in enumerate(heis):
                if k != n:
                    continue
                f = n * sig.gram(g, h)
                if f:
                    st = (heis[:i] + heis[i + 1 :], charge)
                    data[st] = data.get(st, 0) + f * c
    return FockElement(data)


def _insert(heis, letter):
    for i, x in enumerate(heis):
        if letter <= x:
            return heis[:i] + (letter,) + heis[i:]
    return heis + (letter,)


def charge_act(sig: Signature, lam: Weight, n: int, x: FockElement) -> FockElement:
    """lam(n) for a signed weight lam, extended linearly over generators."""
    data = {}
    for g, c in enumerate(lam):
        if c:
            accumulate(data, heis_act(sig, g, n, x), c)
    return FockElement(data)


def translate(sig: Signature, x: FockElement) -> FockElement:
    """Translation operator D: D v_lam = lam(-1) v_lam, [D, h(-k)] = k h(-k-1)."""
    data = {}
    for (heis, charge), c in x.terms.items():
        for g, mult in enumerate(charge):
            if mult:
                st = (_insert(heis, (1, g)), charge)
                data[st] = data.get(st, 0) + mult * c
        for i, (k, g) in enumerate(heis):
            st = (_insert(heis[:i] + heis[i + 1 :], (k + 1, g)), charge)
            data[st] = data.get(st, 0) + k * c
    return FockElement(data)


@cache
def _vacuum_product(sig: Signature, alpha: Weight, n: int, beta: Weight) -> FockElement:
    loc = -pairing(sig, alpha, beta)
    if n >= loc:
        return FOCK_ZERO
    k = loc - n - 1
    cur = vacuum_element(sig, weight_add(alpha, beta))
    for _ in range(k):
        cur = translate(sig, cur) - charge_act(sig, beta, -1, cur)
    if k > 1:
        cur = cur.scale(Fraction(1, factorial(k)))
    return cur.scale(cocycle(sig, alpha, beta))


def vacuum_product(sig: Signature, alpha: Weight, n: int, beta: Weight) -> FockElement:
    """Product of two charged vacua: eps(a,b) (D - b(-1))^(k) v_{a+b}."""
    return _vacuum_product(sig, alpha, n, beta)


@cache
def _charged_state(sig: Signature, alpha: Weight, n: int, st: State) -> FockElement:
    heis, charge = st
    if not heis:
        return _vacuum_product(sig, alpha, n, charge)
    k, g = heis[0]
    rest = (heis[1:], charge)
    # v_a [n] (c(-k) y) = c(-k)(v_a [n] y) - (a|c) v_a [n-k] y
    out = heis_act(sig, g, -k, _charged_state(sig, alpha, n, rest))
    f = pairing(sig, alpha, sig.unit_weight(g))
    if f:
        out = out - _charged_state(sig, alpha, n - k, rest).scale(f)
    return out


def product_charged(sig: Signature, alpha: Weight, n: int, x: FockElement) -> FockElement:
    """Product v_alpha [n] x, by stripping creation letters off the right."""
    data = {}
    for st, c in x.terms.items():
        accumulate(data, _charged_state(sig, alpha, n, st), c)
    return FockElement(data)


def locality_upper(sig: Signature, alpha: Weight, x: FockElement) -> int:
    """Sound upper bound L with v_alpha [n] x = 0 for all n >= L.

    N(v_a, v_b) = -(a|b), and each creation letter of level k raises the
    order by at most k.
    """
    best = None
    for (heis, charge) in x.terms:
        val = -pairing(sig, alpha, charge) + sum(k for k, _ in heis)
        if best is None or val > best:
            best = val
    return best if best is not None else 0


# --- products with word-shaped left factors ---------------------------------

# A charged word is a tuple of (letter, mode) pairs; it denotes the
# right-normed product of its letters.  A letter is either a weight lam,
# standing for the charged vacuum v_lam, or a generator index g, standing for
# the Heisenberg vector g(-1)vac (weight 0, doubled degree 2, even).
CWord = tuple


def charged_word(sig: Signature, w: Word) -> CWord:
    return tuple((sig.unit_weight(g), n) for g, n in w)


def _state_word(st: State) -> CWord:
    """The state h1(-k1)...hm(-km) v_charge as the word h1(-k1)...hm(-km) v_charge(-1)."""
    heis, charge = st
    return tuple((g, -k) for k, g in heis) + ((charge, -1),)


def _letter_grade(sig: Signature, x):
    """Weight and doubled degree of the vector a letter stands for."""
    if isinstance(x, int):
        return sig.zero_weight(), 2
    return x, pairing(sig, x, x)


def _letter_act(sig: Signature, x, n: int, st: State) -> FockElement:
    """Product x [n] st of a letter's vector with a state."""
    if isinstance(x, int):
        return heis_act(sig, x, n, state_element(st))
    return _charged_state(sig, x, n, st)


@cache
def _word_state(sig: Signature, cw: CWord, m: int, st: State) -> FockElement:
    """Product (charged word cw) [m] state, via the associativity identity.

    Single letters reduce through the translation shift to a letter acting
    on the state.  For longer words both sums are truncated by the degree
    floor.
    """
    if not cw:
        return state_element(st) if m == -1 else FOCK_ZERO
    x, n = cw[0]
    tail = cw[1:]
    alpha, dx = _letter_grade(sig, x)
    tail_weight = sig.zero_weight()
    d2s = d2t = state_deg2(sig, st)
    for y, k in tail:
        wy, dy = _letter_grade(sig, y)
        tail_weight = weight_add(tail_weight, wy)
        d2t += dy - 2 * k - 2
    mu1 = weight_add(tail_weight, st[1])
    mu = weight_add(alpha, mu1)
    if dx - 2 * n - 2 + d2t - 2 * m - 2 < min_deg2(sig, mu):
        return FOCK_ZERO
    if not tail:
        if n >= 0:
            return FOCK_ZERO
        j = -n - 1
        c = binomial(m, j)
        if not c:
            return FOCK_ZERO
        if j & 1:
            c = -c
        return _letter_act(sig, x, m - j, st).scale(c)

    koszul = -1 if (dx & 1) and (pairing(sig, tail_weight, tail_weight) & 1) else 1
    data = {}

    # first sum: x [n-s] (tail [m+s] state), s >= 0
    s_hi = (d2t - 2 * m - 2 - min_deg2(sig, mu1)) // 2
    if n >= 0:
        s_hi = min(s_hi, n)
    for s in range(0, s_hi + 1):
        b = binomial(n, s)
        if not b:
            continue
        inner = _word_state(sig, tail, m + s, st)
        if inner.is_zero():
            continue
        coeff = -b if s & 1 else b
        if isinstance(x, int):
            accumulate(data, heis_act(sig, x, n - s, inner), coeff)
        else:
            accumulate(data, product_charged(sig, x, n - s, inner), coeff)

    # second sum: tail [m+s] (x [n-s] state), s <= n
    s_lo = (min_deg2(sig, weight_add(alpha, st[1])) - dx - d2s) // 2 + n + 1
    if n >= 0:
        s_lo = max(s_lo, 0)
    for s in range(s_lo, n + 1):
        b = binomial(n, n - s)
        if not b:
            continue
        inner = _letter_act(sig, x, n - s, st)
        if inner.is_zero():
            continue
        coeff = -koszul * b if not s & 1 else koszul * b
        for st2, c2 in inner.terms.items():
            accumulate(data, _word_state(sig, tail, m + s, st2), coeff * c2)

    return FockElement(data)


def product_word(sig: Signature, cw: CWord, m: int, x: FockElement) -> FockElement:
    """Product of the image of a right-normed word with a general element."""
    data = {}
    for st, c in x.terms.items():
        accumulate(data, _word_state(sig, cw, m, st), c)
    return FockElement(data)


@cache
def _embed_word(sig: Signature, w: Word) -> FockElement:
    out = vacuum_element(sig)
    for g, n in reversed(w):
        out = product_charged(sig, sig.unit_weight(g), n, out)
    return out


def embed(sig: Signature, x: FreeElement) -> FockElement:
    """Homomorphism from the free algebra sending each generator a to v_a."""
    data = {}
    for w, c in x.terms.items():
        accumulate(data, _embed_word(sig, w), c)
    return FockElement(data)


def product_state(sig: Signature, x: FockElement, n: int, y: FockElement) -> FockElement:
    """General bilinear product x [n] y of Fock elements."""
    data = {}
    for s1, c1 in x.terms.items():
        cw = _state_word(s1)
        for s2, c2 in y.terms.items():
            accumulate(data, _word_state(sig, cw, n, s2), c1 * c2)
    return FockElement(data)


# --- exact rank --------------------------------------------------------------


def rank(elements) -> int:
    """Exact rank over the rationals of the given elements.

    Coordinates in the state basis are cleared to integers row by row, then
    reduced by fraction-free (Bareiss) elimination.
    """
    elements = [x for x in elements if not x.is_zero()]
    if not elements:
        return 0
    columns = sorted({st for x in elements for st in x.terms})
    index = {st: i for i, st in enumerate(columns)}
    rows = []
    for x in elements:
        denom = lcm(*(Fraction(c).denominator for c in x.terms.values()))
        row = [0] * len(columns)
        for st, c in x.terms.items():
            f = Fraction(c) * denom
            row[index[st]] = f.numerator
        rows.append(row)
    return _bareiss_rank(rows)


def _bareiss_rank(m) -> int:
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    r = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[r][c] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def in_span(x: FockElement, elements) -> bool:
    """Exact membership of x in the rational span of the elements."""
    base = list(elements)
    return rank(base + [x]) == rank(base)


# --- printing ----------------------------------------------------------------


def format_state(sig: Signature, st: State) -> str:
    heis, charge = st
    letters = "".join(f"{sig.generators[g]}(-{k})" for k, g in reversed(heis))
    tag = f"v[{format_weight(sig, charge)}]"
    return f"{letters} {tag}" if letters else tag


def format_fock(sig: Signature, x: FockElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for st in sorted(x.terms):
        c = x.terms[st]
        body = format_state(sig, st)
        parts.append(body if c == 1 else f"{c} * {body}")
    return " + ".join(parts)
