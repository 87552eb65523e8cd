"""Words and rational combinations of words: the ambient model of the free
vertex algebra.

A word a1(n1)...ak(nk) stands for the right-normed monomial
a1 [n1] (a2 [n2] ( ... (ak [nk] vac))).  Words whose last mode is >= 0 are
identically zero (the vacuum is annihilated by nonnegative modes) and are
dropped on element construction.

Products of arbitrary elements are computed recursively from the
associativity identity.  Both infinite sums appearing there are truncated by
the degree floor: a homogeneous component of weight mu with doubled degree
below (mu|mu) vanishes, which gives explicit finite windows for the inner
summation index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .signature import (
    Signature,
    Weight,
    min_deg2,
    weight_add,
)

# A word is a tuple of letters (generator index, mode).
Letter = tuple
Word = tuple

VACUUM_WORD: Word = ()


def binomial(n: int, k: int) -> int:
    """Binomial coefficient n(n-1)...(n-k+1)/k! for arbitrary integer n."""
    if k < 0:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _ceildiv(a: int, b: int) -> int:
    return -((-a) // b)


class Combination:
    """Finite rational linear combination of hashable basis keys.

    Immutable by convention: all operations return fresh elements of the
    same type.  Zero coefficients are dropped at construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        data = dict(self.terms)
        for k, c in other.terms.items():
            data[k] = data.get(k, 0) + c
        return type(self)(data)

    def __sub__(self, other):
        data = dict(self.terms)
        for k, c in other.terms.items():
            data[k] = data.get(k, 0) - c
        return type(self)(data)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def scale(self, c):
        return type(self)({k: c * x for k, x in self.terms.items()})

    def support(self):
        return set(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def accumulate(data: dict, elem: Combination, c=1) -> None:
    """Add c * elem into the plain dict `data`, in place."""
    for k, x in elem.terms.items():
        data[k] = data.get(k, 0) + c * x


class FreeElement(Combination):
    """Finite rational linear combination of words.

    Words ending in a nonnegative mode are dropped at construction since
    they represent zero.
    """

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = (
            {w: c for w, c in terms.items() if c and (not w or w[-1][1] < 0)} if terms else {}
        )


ZERO = FreeElement()
VACUUM = FreeElement({VACUUM_WORD: 1})


def word_element(w: Word) -> FreeElement:
    return FreeElement({w: 1})


def gen_element(i: int) -> FreeElement:
    return FreeElement({((i, -1),): 1})


def word_weight(sig: Signature, w: Word) -> Weight:
    counts = [0] * sig.size
    for g, _ in w:
        counts[g] += 1
    return tuple(counts)


def word_deg2(sig: Signature, w: Word) -> int:
    return sum(sig.gen_deg2(g) - 2 * n - 2 for g, n in w)


def word_parity(sig: Signature, w: Word) -> int:
    return sum(sig.parity(g) for g, _ in w) & 1


def word_grade(sig: Signature, w: Word):
    """Weight, doubled degree and parity of a word."""
    return word_weight(sig, w), word_deg2(sig, w), word_parity(sig, w)


def sort_key(sig: Signature, w: Word):
    """Canonical total order: by weight, then doubled degree, then letters."""
    return (word_weight(sig, w), word_deg2(sig, w), w)


def translate(x: FreeElement, k: int = 1) -> FreeElement:
    """Divided power D^(k) of the translation operator.

    D acts on a word as the sum over letters of -n * (n -> n-1); the divided
    power iterates D and divides by k! once, exactly.
    """
    if k < 0:
        raise ValueError("negative divided power")
    cur = x
    for _ in range(k):
        data = {}
        for w, c in cur.terms.items():
            for i, (g, n) in enumerate(w):
                w2 = w[:i] + ((g, n - 1),) + w[i + 1 :]
                data[w2] = data.get(w2, 0) - n * c
        cur = FreeElement(data)
    if k > 1:
        f = factorial(k)
        cur = FreeElement({w: c // f if c % f == 0 else Fraction(c, f) for w, c in cur.terms.items()})
    return cur


def _prepend(a: int, k: int, x: FreeElement) -> FreeElement:
    """Left-multiply every word of x by the letter a(k)."""
    return FreeElement({((a, k),) + w: c for w, c in x.terms.items()})


def letter_rule(n: int, m: int):
    """The one-letter rule: a(n) vac is D^(j) a with j = -n-1, and
    (D^(j) a) [m] = (-1)^j C(m, j) a(m-j).

    Returns (coefficient, mode m-j), or None when the product is 0.
    """
    j = -n - 1
    c = binomial(m, j)
    if not c:
        return None
    return (-c if j & 1 else c), m - j


@cache
def _word_product(sig: Signature, wu: Word, m: int, wv: Word) -> FreeElement:
    """Product (word wu) [m] (word wv), as an element.

    Recursion on the left word: the vacuum acts as the unit at m = -1, a
    single letter a(n) is D^(-n-1) a and shifts the product mode, and a
    longer word splits off its first letter through the associativity
    identity.  Components below the degree floor are zero.
    """
    mu = weight_add(word_weight(sig, wu), word_weight(sig, wv))
    d2 = word_deg2(sig, wu) + word_deg2(sig, wv) - 2 * m - 2
    if d2 < min_deg2(sig, mu):
        return ZERO
    if not wu:
        return word_element(wv) if m == -1 else ZERO
    a, n = wu[0]
    if len(wu) == 1:
        rule = letter_rule(n, m)
        if rule is None:
            return ZERO
        c, k = rule
        return _prepend(a, k, word_element(wv)).scale(c)

    tail = wu[1:]
    koszul = -1 if sig.parity(a) and word_parity(sig, tail) else 1
    data = {}

    # first sum: a [n-s] (tail [m+s] wv) for s >= 0, truncated where the
    # inner product falls below its degree floor
    mu1 = weight_add(word_weight(sig, tail), word_weight(sig, wv))
    d2t = word_deg2(sig, tail) + word_deg2(sig, wv)
    s_hi = (d2t - 2 * m - 2 - min_deg2(sig, mu1)) // 2
    if n >= 0:
        s_hi = min(s_hi, n)
    for s in range(0, s_hi + 1):
        b = binomial(n, s)
        coeff = -b if s & 1 else b
        accumulate(data, _prepend(a, n - s, _word_product(sig, tail, m + s, wv)), coeff)

    # second sum: tail [m+s] (a(n-s) wv) for s <= n, truncated where the
    # inner word falls below its degree floor; empty when wv is the vacuum
    if wv:
        mu2 = weight_add(sig.unit_weight(a), word_weight(sig, wv))
        d2a = sig.gen_deg2(a) + word_deg2(sig, wv)
        s_lo = _ceildiv(min_deg2(sig, mu2) - d2a + 2 * n + 2, 2)
        if n >= 0:
            s_lo = max(s_lo, 0)
        for s in range(s_lo, n + 1):
            b = binomial(n, n - s)
            coeff = -koszul * b if not s & 1 else koszul * b
            accumulate(data, _word_product(sig, tail, m + s, ((a, n - s),) + wv), coeff)

    return FreeElement(data)


def product(sig: Signature, u: FreeElement, m: int, v: FreeElement) -> FreeElement:
    """General product u [m] v, extended bilinearly over words."""
    data = {}
    for wu, cu in u.terms.items():
        for wv, cv in v.terms.items():
            accumulate(data, _word_product(sig, wu, m, wv), cu * cv)
    return FreeElement(data)


# --- expression trees -------------------------------------------------------


@dataclass(frozen=True)
class Gen:
    index: int


@dataclass(frozen=True)
class Vac:
    pass


@dataclass(frozen=True)
class Prod:
    left: "VertexExpr"
    mode: int
    right: "VertexExpr"


VertexExpr = object  # Gen | Vac | Prod


def evaluate(sig: Signature, expr) -> FreeElement:
    """Evaluate an expression tree; arbitrary parenthesization is allowed.

    The right spine of a product chain is walked iteratively, so a long
    right-normed word does not deepen the recursion.
    """
    spine = []
    while isinstance(expr, Prod):
        spine.append(expr)
        expr = expr.right
    if isinstance(expr, Vac):
        out = VACUUM
    elif isinstance(expr, Gen):
        out = gen_element(expr.index)
    else:
        raise TypeError(f"not a vertex expression: {expr!r}")
    for node in reversed(spine):
        out = product(sig, evaluate(sig, node.left), node.mode, out)
    return out


# --- printing ---------------------------------------------------------------


def format_word(sig: Signature, w: Word) -> str:
    return "".join(f"{sig.generators[g]}({n})" for g, n in w) + "vac"


def format_terms(x, body, key=None) -> str:
    """Terms in `key` order as `body` or `c * body`, joined by ` + `; `0` when x is zero.

    x is a `Combination` or a `fock.FockElement`: anything with `is_zero` and `terms`.
    """
    if x.is_zero():
        return "0"
    terms = x.terms
    return " + ".join(body(k) if terms[k] == 1 else f"{terms[k]} * {body(k)}" for k in sorted(terms, key=key))


def format_element(sig: Signature, x: FreeElement) -> str:
    """Canonical printer: words in canonical order, `c * word` terms."""
    return format_terms(x, lambda w: format_word(sig, w), lambda w: sort_key(sig, w))
