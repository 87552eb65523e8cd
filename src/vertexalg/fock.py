"""Lattice Fock space on states h1(-k1)...hm(-km) v_charge.

Charged vacua act through the lattice vertex operator
Y(v_a, z) = eps e^a z^{a(0)} E^-(a, z) E^+(a, z) (Frenkel-Lepowsky-Meurman;
Kac, Vertex Algebras for Beginners), read off in closed form: E^- gives
Schur polynomials S_e(a) in the creation operators a(-j), and E^+ contracts
each creation letter h(-k) of the right state to a power of z.  Two steps
act on a whole integer combination of states at once.  The letter step
applies a single v_a [n] (vacuum products, charged products, one-letter
words, the embedding of the free algebra letter by letter): it sums the
contraction coefficients of every state by (kept letters, Schur degree,
charge) and reads each distinct kept part times the Schur polynomial from
`_schur_product`, so each kept part is merged into a polynomial once per
process, not once per group.  Its contractions (`_kept_parts`) keep r of
each run of equal letters with one binomial coefficient.  The word step
applies the image of a charged word a1(n1)...ak(nk) vac, k >= 2, the same
way, with one Schur polynomial per letter; its letters contract one after
another through the same `_kept_parts`, each with the letters the earlier
ones kept, and the levels a letter contracts shift its power of z.  Schur
degrees that differ by a permutation among letters of equal charge give the
same product, so their weights are summed under the sorted factors before
any kept part meets it.  The general product reads the vertex operator of
a left state h1(-k1)...hp(-kp) v_a as the normally ordered product of the
derivatives of its Heisenberg fields with Y(v_a, z): each letter is
created, or contracts with the right state, in one loop.  What that loop
reads of a right state (its pairings with each generator and its level) is
computed once per right state, not once per pair.  Every pair of states of
the two elements adds its coefficients to one table keyed by (left charge,
created letters, mode), whose values are combinations of the remaining
right states; each entry meets the letter step once, and its created
letters join the step's output after it.  A left state of charge 0 forms
only groups at mode -1: v_0 is the vacuum and Y(v_0, z) = id, so v_0 [n] is
zero for every n but -1, and the last letter of such a state takes only the
one term that lands there.

Locality orders are read off E^+ alone.  On a state of charge beta,
Y(v_a, z) st = eps z^{(a|beta)} E^-(a, z) E^+(a, z) st, and E^-(a, z) has
constant term 1, so the lowest power of z with a nonzero coefficient is
(a|beta) - K, K the largest contracted level whose kept parts do not
cancel: the highest nonzero mode is K - (a|beta) - 1.  `_top_order` sums
the contraction coefficients of every state by (order, kept letters,
charge) in one pass and reads the largest order whose sum is nonzero; it
builds no Schur polynomial and scans no mode.  `locality_order` and
`vacuum_product_orders` both go through it, the latter on the letter
step's integer numerators of one vacuum product v_a [n] v_b as they are,
with no division into fractions and back.

Every kernel value is a pair (numerators, denom): a dict from state to
nonzero int over one positive int denominator.  Cocycle signs always sit in
the numerators.  A `FockElement` is that pair itself, reduced: a public
product hands the element's numerators to the kernels as they are, combines
kernel values over the lcm of their denominators in integers, and ends
with one reduction by the gcd.  No product builds a `Fraction`; the
rational `terms` of an element are built only when they are read.

Memo keys carry only what a value depends on, and no kernel of a product
reads a `Signature` outside `_charge_rows`: for each charge alpha, the
pairing row -(alpha|g) and the cocycle parity row (eps is linear in the
exponent of its second weight).  The general product's coefficient table,
which is not memoized, reads only the locality matrix.  Both steps are
keyed by the rows of their letters, the word or charge and modes, and the
combination as a frozenset of (state, numerator) items, so signatures that
agree on the rows share their entries, the reduced image of a word after
each letter of the embedding and the numerators of `embed(v)` that a
one-letter product receives are the same key, and so are a right element
that `product_charged` receives and the one group a left charged vacuum
makes of it in the general product.  `_top_order` is keyed by the pairing
row alone, the combination and the lowest mode.  `_schur_product` is keyed
by (kept letters, sorted (charge, degree) factors) and holds the kept
letters merged into each monomial of prod e! S_e(charge); its kept-free
entry is the product itself, and the letter step reads it with the one
factor (alpha, e).  `_schur`, `_schur_product` and `_compositions` never
read a signature.  Only `_charge_rows` and the embedding of a word,
`_embed_word`, are keyed by the signature.

States are pairs (heis, charge): `heis` is the creation multiset as a tuple
of (level, generator) pairs sorted ascending (creation operators commute,
so the sorted form is canonical), and `charge` is a signed weight.

Exact linear algebra is one sparse fraction-free elimination over integer
rows keyed by any ordered key (a state, a word, a tag): `echelon` keeps
each row reduced against the rows before it, under its least key, and
`reduce_row` reduces a new row against them, dividing out the gcd of its
entries.  `rank`, `in_span` and the inverse of a form (`suites`) all go
through it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import groupby
from math import comb, factorial, gcd, lcm
from operator import mul, sub

from .signature import (
    Signature,
    Weight,
    format_weight,
    pairing,
    weight_add,
)
from .words import FreeElement, Word, binomial, format_terms

# A state is (heis, charge); heis is a tuple of (level, gen) with level >= 1.
State = tuple


def vacuum_state(sig: Signature, charge: Weight = None) -> State:
    return ((), charge if charge is not None else sig.zero_weight())


def state_deg2(sig: Signature, st: State) -> int:
    return pairing(sig, st[1], st[1]) + 2 * sum(k for k, _ in st[0])


def _reduce(data: dict, denom: int) -> tuple:
    """(numerators, denom) with the zero numerators dropped and the common factor divided out."""
    g = gcd(denom, *data.values())
    if g == 1:  # the common case, and a copy without the divisions costs half as much
        return {key: c for key, c in data.items() if c}, denom
    return {key: c // g for key, c in data.items() if c}, denom // g


def _cleared(terms: dict) -> tuple:
    """Rational coefficients as integers over their lcm: (numerators, lcm)."""
    denom = lcm(*(c.denominator for c in terms.values()))
    return {key: c.numerator * (denom // c.denominator) for key, c in terms.items()}, denom


def _clear(x) -> tuple:
    """(numerators, denom) of a combination; a Fock element already is that pair."""
    return (x.nums, x.den) if type(x) is FockElement else _cleared(x.terms)


class FockElement:
    """Finite rational combination of states, stored as the kernels' pair.

    `nums` maps each state to a nonzero int and `den` is a positive int
    with gcd(den, *nums) = 1, the unique reduced form, so `==` and `hash`
    read the pair.  `terms`, the rational dict (an integral coefficient an
    int, any other a `Fraction` in lowest terms), is built on first read and
    kept.  Immutable by convention: every operation returns a fresh element.
    """

    __slots__ = ("nums", "den", "_terms")

    def __init__(self, terms=None):
        self.nums, self.den = _reduce(*_cleared(terms or {}))
        self._terms = None

    @property
    def terms(self) -> dict:
        if self._terms is None:
            den = self.den
            if den == 1:
                self._terms = dict(self.nums)
            else:
                self._terms = {key: c // den if c % den == 0 else Fraction(c, den) for key, c in self.nums.items()}
        return self._terms

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        return type(other) is FockElement and self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def _plus(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        if not other.nums:
            return self
        big = lcm(self.den, other.den)
        f, g = big // self.den, sign * (big // other.den)
        data = {key: f * c for key, c in self.nums.items()}
        for key, c in other.nums.items():
            data[key] = data.get(key, 0) + g * c
        return _element(data, big)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return _element({key: -c for key, c in self.nums.items()}, self.den)

    def scale(self, c):
        if c == 1:
            return self
        return _element({key: c.numerator * t for key, t in self.nums.items()}, self.den * c.denominator)

    def support(self):
        return set(self.nums)

    def __repr__(self):
        return f"FockElement({self.terms!r})"


def _element(nums: dict, den: int) -> FockElement:
    """The element nums / den for a positive den, reduced; nums is copied, never kept."""
    x = object.__new__(FockElement)
    x.nums, x.den = _reduce(nums, den)
    x._terms = None
    return x


FOCK_ZERO = FockElement()
_ZERO = ({}, 1)  # the zero kernel value; kernel values are shared and never mutated


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


def _heis_into(sig: Signature, g: int, n: int, nums: dict, f: int, data: dict) -> None:
    """Add f * g(n) on the integer combination nums into data, in place.

    n < 0 inserts a creation letter, n = 0 scales by (g|charge), n > 0
    commutes through and removes a matching creation letter.
    """
    for (heis, charge), c in nums.items():
        c *= f
        if n < 0:
            st = (_insert(heis, (-n, g)), charge)
            data[st] = data.get(st, 0) + c
        elif n == 0:
            st = (heis, charge)
            data[st] = data.get(st, 0) + pairing(sig, sig.unit_weight(g), charge) * c
        else:
            for i, (k, h) in enumerate(heis):
                if k != n:
                    continue
                st = (heis[:i] + heis[i + 1 :], charge)
                data[st] = data.get(st, 0) + n * sig.gram(g, h) * c


def heis_act(sig: Signature, g: int, n: int, x: FockElement) -> FockElement:
    """Action of the Heisenberg operator g(n) on an element, over its denominator."""
    data = {}
    _heis_into(sig, g, n, x.nums, 1, data)
    return _element(data, x.den)


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
            _heis_into(sig, g, n, x.nums, c, data)
    return _element(data, x.den)


def translate(sig: Signature, x: FockElement, k: int = 1) -> FockElement:
    """Divided power D^(k) of the translation D v_lam = lam(-1) v_lam, [D, h(-j)] = j h(-j-1)."""
    if k < 0:
        raise ValueError("negative divided power")
    nums = x.nums
    for _ in range(k):
        data = {}
        for (heis, charge), c in nums.items():
            for g, mult in enumerate(charge):
                st = (_insert(heis, (1, g)), charge)
                data[st] = data.get(st, 0) + mult * c
            for i, (j, g) in enumerate(heis):
                st = (_insert(heis[:i] + heis[i + 1 :], (j + 1, g)), charge)
                data[st] = data.get(st, 0) + j * c
        nums = {st: c for st, c in data.items() if c}
    return _element(nums, x.den * factorial(k))


# --- vertex operators of charged vacua, in closed form ------------------------
#
# Y(v_a, z) = eps e^a z^{a(0)} E^-(a, z) E^+(a, z) with
# E^-(a, z) = exp(sum_j a(-j) z^j / j) = sum_e S_e(a) z^e, a Schur polynomial
# in the creation operators a(-j), and E^+(a, z) contracting each creation
# letter h(-k) of the right state to -(a|h) z^{-k}.  The kernels return
# integer numerators over one denominator.


@cache
def _schur(alpha: Weight, e: int) -> tuple:
    """e! S_e(alpha) as ((heis, int), ...); the coefficients are integers.

    From e S_e = sum_j alpha(-j) S_{e-j}: e! S_e = sum_j (e-1)!/(e-j)! alpha(-j) (e-j)! S_{e-j}.
    """
    if e == 0:
        return (((), 1),)
    for i in range(1, e):  # fill the table bottom-up, so the recursion stays shallow
        _schur(alpha, i)
    data = {}
    f = 1
    for j in range(1, e + 1):
        for heis, c in _schur(alpha, e - j):
            for g, a in enumerate(alpha):
                if a:
                    key = _insert(heis, (j, g))
                    data[key] = data.get(key, 0) + f * a * c
        f *= e - j
    return tuple((k, c) for k, c in data.items() if c)


def _merge(heis, mono):
    if not heis:
        return mono
    if not mono:
        return heis
    return tuple(sorted(heis + mono))


@cache
def _charge_rows(sig: Signature, alpha: Weight) -> tuple:
    """(pairing row, cocycle row) of a charge: all that the letter and word steps read of sig.

    The pairing row holds -(alpha|g) for every generator g, so that
    -(alpha|beta) = sum_g beta_g row[g].  `cocycle` is linear in the
    exponent of its second weight, so eps(alpha,beta) = (-1)^(sum_g beta_g c_g)
    with the parity row c_g = cocycle exponent of (alpha, e_g) mod 2.
    """
    loc = sig.locality
    pair = tuple(sum(a * row[g] for a, row in zip(alpha, loc)) for g in range(sig.size))
    parity = tuple(
        sum(alpha[p] * (loc[p][p] * loc[q][q] - loc[p][q]) for p in range(q + 1, sig.size)) & 1
        for q in range(sig.size)
    )
    return pair, parity


def _kept_parts(pair, heis, limit: int) -> list:
    """The E^+ contractions of the creation letters of heis with one charge of pairing row pair.

    Of a run of mult equal letters h(-k), r are kept and mult - r contract,
    for binomial(mult, r) (-(alpha|h))^(mult - r); with pair[h] = 0 all are
    kept.  Returns (kept, kept degree, coefficient) for every choice whose
    kept letters have degree at most limit.
    """
    out = [((), 0, 1)]
    for letter, run in groupby(heis):
        level, g = letter
        mult, f = len(tuple(run)), pair[g]
        rs = range(mult, -1, -1) if f else (mult,)
        choices = [((letter,) * r, level * r, comb(mult, r) * f ** (mult - r)) for r in rs]
        out = [
            (kept + part, kdeg + pdeg, c * t)
            for kept, kdeg, c in out
            for part, pdeg, t in choices
            if kdeg + pdeg <= limit
        ]
    return out


def _combine(data: dict, den: int, kernel) -> tuple:
    """sum_k data[k] * kernel(k) over den, in integers, for kernel values (numerators, d_k).

    With L = lcm of the d_k, the value of k enters with the integer factor
    data[k] * (L // d_k), and the sum is over den * L.
    """
    values = [(c, kernel(key)) for key, c in data.items()]
    if len(values) == 1 and values[0][0] == 1:  # a single value passes as it is
        nums, d = values[0][1]
        return nums, den * d
    big = lcm(*(d for _, (_, d) in values))
    out = {}
    for c, (nums, d) in values:
        c *= big // d
        for key, t in nums.items():
            out[key] = out.get(key, 0) + c * t
    return out, den * big


def _apply_letter(rows: tuple, alpha: Weight, n: int, data: dict, den: int) -> tuple:
    """v_alpha [n] on the integer combination data over den > 0, as (numerators, denom)."""
    nums, d = _letter_step(rows, alpha, n, frozenset(data.items()))
    return nums, d * den


@cache
def _letter_step(rows: tuple, alpha: Weight, n: int, items: frozenset) -> tuple:
    """v_alpha [n] on the integer combination of the (state, int) items, in closed form.

    On st = h1(-k1)...hm(-km) v_beta it is eps(alpha,beta) sum_S
    prod_{l in S} (-(alpha|h_l)) S_{e_S}(alpha) prod_{l not in S} h_l(-k_l)
    v_{alpha+beta}, e_S = -n-1-(alpha|beta) + sum_{l in S} k_l; S runs over
    the contracted letters, equal letters grouped with a binomial
    multiplicity.  The signed contraction coefficients of every state are
    summed by (kept letters, e_S, alpha+beta) first; each group then reads
    its kept letters times e! S_e(alpha), already merged, from
    `_schur_product(kept, ((alpha, e),))`, so no group sorts a state.
    rows = _charge_rows(sig, alpha) is all it reads of the signature.
    """
    pair, parity = rows
    charges = {}  # beta -> (-n-1-(alpha|beta), cocycle sign, alpha+beta), read once per charge
    groups = {}
    for (heis, beta), c in items:
        if beta not in charges:
            sign = -1 if sum(map(mul, beta, parity)) & 1 else 1
            charges[beta] = (-n - 1 + sum(map(mul, beta, pair)), sign, weight_add(alpha, beta))
        shift, sign, mu = charges[beta]
        degree = shift + sum(k for k, _ in heis)
        if degree < 0:
            continue
        c *= sign
        for kept, kdeg, t in _kept_parts(pair, heis, degree):
            key = (kept, degree - kdeg, mu)
            groups[key] = groups.get(key, 0) + c * t
    groups = {key: c for key, c in groups.items() if c}
    if not groups:
        return _ZERO
    denom = factorial(max(e for _, e, _ in groups))
    data = {}
    for (kept, e, mu), c in groups.items():
        c *= denom // factorial(e)
        for heis, t in _schur_product(kept, ((alpha, e),)):
            key = (heis, mu)
            data[key] = data.get(key, 0) + c * t
    return _reduce(data, denom)


def vacuum_product(sig: Signature, alpha: Weight, n: int, beta: Weight) -> FockElement:
    """Product of two charged vacua: eps(a,b) S_e(a) v_{a+b}, e = -n-1-(a|b)."""
    return _element(*_apply_letter(_charge_rows(sig, alpha), alpha, n, {((), beta): 1}, 1))


def product_charged(sig: Signature, alpha: Weight, n: int, x: FockElement) -> FockElement:
    """Product v_alpha [n] x, on the whole combination through the closed form."""
    return _element(*_apply_letter(_charge_rows(sig, alpha), alpha, n, x.nums, x.den))


def locality_upper(sig: Signature, alpha: Weight, x: FockElement) -> int:
    """Sound upper bound L with v_alpha [n] x = 0 for all n >= L.

    N(v_a, v_b) = -(a|b), and each creation letter of level k raises the
    order by at most k.  -(alpha|beta) is read off the pairing row of alpha.
    """
    pair = _charge_rows(sig, alpha)[0]
    return max((sum(map(mul, beta, pair)) + sum(k for k, _ in heis) for heis, beta in x.nums), default=0)


@cache
def _top_order(pair, items: frozenset, lowest: int) -> int | None:
    """m + 1 for the largest m >= lowest with v_alpha [m] nonzero on the (state, int) items, else None.

    pair = _charge_rows(sig, alpha)[0].  On h1(-k1)...hm(-km) v_beta the
    contractions of E^+(alpha, z) that keep letters of degree kdeg give,
    with z^{(alpha|beta)}, the power z^{-(m+1)} for m + 1 = shift - kdeg,
    shift = -(alpha|beta) + level; E^-(alpha, z) = 1 + O(z) leaves the
    coefficient of the lowest power as it is.  The contraction coefficients
    are summed by (m + 1, kept letters, charge); the cocycle sign, one per
    charge, cannot make a sum vanish.  Only orders above lowest are formed.
    """
    groups = {}
    for (heis, beta), c in items:
        shift = sum(map(mul, beta, pair)) + sum(k for k, _ in heis)
        if shift <= lowest:
            continue
        for kept, kdeg, t in _kept_parts(pair, heis, shift - lowest - 1):
            key = (shift - kdeg, kept, beta)
            groups[key] = groups.get(key, 0) + c * t
    return max((order for (order, _, _), c in groups.items() if c), default=None)


def _orders(sig: Signature, items: frozenset, queries, known: dict) -> list:
    """locality_order of each (alpha, lowest) query on the integer combination of the items.

    known holds the _charge_rows already read, by charge, and gains those
    read here.
    """
    out = []
    for alpha, lowest in queries:
        if alpha not in known:
            known[alpha] = _charge_rows(sig, alpha)
        out.append(_top_order(known[alpha][0], items, lowest))
    return out


def locality_order(sig: Signature, alpha: Weight, x: FockElement, lowest: int) -> int | None:
    """m + 1 for the largest m >= lowest with v_alpha [m] x != 0, else None.

    Read off the lowest power of z in E^+(alpha, z) x by `_top_order`, on
    the numerators of x: no product is formed and no mode scanned.
    The order is at most `locality_upper`.
    """
    return _orders(sig, frozenset(x.nums.items()), ((alpha, lowest),), {})[0]


def vacuum_product_orders(sig: Signature, alpha: Weight, n: int, beta: Weight, queries) -> list | None:
    """locality_order(sig, gamma, vacuum_product(sig, alpha, n, beta), lowest) for each (gamma, lowest).

    None if the product is 0.  The product is one letter step; its integer
    numerators go to `_top_order` as they are, once per query.
    """
    known = {alpha: _charge_rows(sig, alpha)}
    nums = _letter_step(known[alpha], alpha, n, frozenset([(((), beta), 1)]))[0]
    return _orders(sig, frozenset(nums.items()), queries, known) if nums else None


# --- products with word-shaped left factors ---------------------------------

# A charged word is a tuple of (weight lam, mode) pairs, the right-normed
# product of the charged vacua v_lam.
CWord = tuple


def charged_word(sig: Signature, w: Word) -> CWord:
    return tuple((sig.unit_weight(g), n) for g, n in w)


def _word_expansion(rows: tuple, cw: CWord) -> tuple:
    """The part of the word step that depends on the word alone, read off the letters' rows.

    Returns (d0, terms).  d0 = -sum_i (n_i+1) - sum_{i<j} (a_i|a_j) is the
    word's share of the output degree, and terms holds pairs (t, b): b is
    the coefficient of prod_i z_i^{-n_i-1-t_i} in
    prod_{i<j} eps(a_i,a_j) (z_i - z_j)^{(a_i|a_j)}, expanded for
    |z_i| > |z_j|.  The expansion indices s_ij are enumerated column by
    column, last variable first; each t_i = -n_i-1 - (exponent of z_i so
    far) must stay >= 0, which bounds every s_ij.
    """
    k = len(cw)
    alphas = [a for a, _ in cw]
    pair = [[-sum(map(mul, alphas[j], rows[i][0])) for j in range(k)] for i in range(k)]
    parity = sum(sum(map(mul, alphas[j], rows[i][1])) for i in range(k) for j in range(i + 1, k))
    room0 = [-n - 1 - sum(pair[i][i + 1 :]) for i, (_, n) in enumerate(cw)]
    partial = [((0,) * k, (), -1 if parity & 1 else 1)]  # (sum_{j>i} s_ij so far, t suffix, coefficient)
    for i in reversed(range(k)):
        live = [(up, ts, b, room0[i] + up[i]) for up, ts, b in partial if room0[i] + up[i] >= 0]
        for j in range(i):
            c = pair[j][i]
            nxt = []
            for up, ts, b, room in live:
                top = room if c < 0 else min(room, c)
                for s in range(top + 1):
                    bs = binomial(c, s)
                    nxt.append((up[:j] + (up[j] + s,) + up[j + 1 :], ts, -b * bs if s & 1 else b * bs, room - s))
            live = nxt
        partial = [(up, (room,) + ts, b) for up, ts, b, room in live]
    terms = {}
    for _, ts, b in partial:
        terms[ts] = terms.get(ts, 0) + b
    return sum(room0), tuple((ts, b) for ts, b in terms.items() if b)


@cache
def _compositions(total: int, parts: int) -> tuple:
    if parts == 1:
        return ((total,),)
    return tuple((e,) + rest for e in range(total + 1) for rest in _compositions(total - e, parts - 1))


@cache
def _schur_product(kept: tuple, factors: tuple) -> tuple:
    """kept times prod e! S_e(alpha) over the sorted (alpha, e) factors, as ((heis, int), ...).

    The kept-free entry is the product itself; any other entry merges the
    kept letters into each of its monomials, so each distinct kept part is
    sorted into a product once per process.  Distinct monomials stay
    distinct, so no coefficient is summed.
    """
    if kept:
        return tuple((tuple(sorted(kept + mono)), c) for mono, c in _schur_product((), factors))
    if not factors:
        return (((), 1),)
    alpha, e = factors[0]
    if len(factors) == 1:
        return _schur(alpha, e)
    data = {}
    for m1, c1 in _schur(alpha, e):
        for m2, c2 in _schur_product((), factors[1:]):
            key = _merge(m1, m2)
            data[key] = data.get(key, 0) + c1 * c2
    return tuple((k, c) for k, c in data.items() if c)


def _factors(alphas: list, es: tuple) -> tuple:
    """The sorted (a_i, e_i) factors with e_i > 0 of the Schur degrees es.

    Compositions that permute the e_i among letters of equal charge give the
    same factors, and so the same product of the e_i! S_{e_i}(a_i).
    """
    return tuple(sorted((a, e) for a, e in zip(alphas, es) if e))


@cache
def _word_step(rows: tuple, cw: CWord, m: int, items: frozenset) -> tuple:
    """(a1(n1)...ak(nk) vac) [m] on the integer combination of the (state, int) items, k >= 2.

    The image of the word is Y(v_a1, w+z1)...Y(v_ak, w+zk) at the
    coefficient of prod z_i^{-n_i-1} w^{-m-1}: on st = h1(-k1)...hm(-km)
    v_beta that is eps times
      prod_{i<j} (z_i - z_j)^{(a_i|a_j)} prod_i (w+z_i)^{(a_i|beta)} E^-(a_i, w+z_i)
      prod_l (h_l(-k_l) - sum_i (a_i|h_l) (w+z_i)^{-k_l}) v_{sum a + beta},
    with (w+z_i) expanded for |w| > |z_i|, and
    eps = prod_{i<j} eps(a_i,a_j) prod_i eps(a_i,beta).  The Schur degrees
    e_i of the E^- factors sum to the output degree minus the kept letters.
    The signed contraction coefficients of every state are summed by (kept
    letters, (a_i|beta) less the levels contracted with a_i, remaining
    degree, charge) first; each group is spread over the Schur degrees e
    into weights per (sorted factors (a_i, e_i), charge), so compositions
    that permute the e_i among letters of equal charge share one weight,
    and each kept part of a weight reads its product with the
    e_i! S_{e_i}(a_i), already merged, from `_schur_product`.
    rows[i] = _charge_rows(sig, a_i) is all it reads of the signature.
    """
    d0, expansion = _word_expansion(rows, cw)
    if not expansion:
        return _ZERO
    negs = [pair for pair, _ in rows]
    parity = [sum(col) for col in zip(*(par for _, par in rows))]
    alphas = [a for a, _ in cw]
    groups = {}
    for (heis, beta), c in items:
        b = [-sum(map(mul, beta, neg)) for neg in negs]
        hdeg = sum(level for level, _ in heis)
        degree = d0 - m - 1 - sum(b) + hdeg
        if degree < 0:
            continue
        if sum(map(mul, beta, parity)) & 1:
            c = -c
        mu = tuple(map(sum, zip(beta, *alphas)))
        # a_i contracts some of the letters that a_1..a_{i-1} kept, of levels shifts[i] in all
        parts = [(heis, hdeg, (), c)]
        for neg in negs:
            parts = [
                (kept, kdeg, shifts + (rdeg - kdeg,), t * u)
                for rest, rdeg, shifts, t in parts
                for kept, kdeg, u in _kept_parts(neg, rest, rdeg)
            ]
        for kept, kdeg, shifts, t in parts:
            if kdeg <= degree:
                key = (kept, tuple(map(sub, b, shifts)), degree - kdeg, mu)
                groups[key] = groups.get(key, 0) + t
    weights = {}  # (factors, charge) -> kept -> integer weight
    for (kept, bp, rest, mu), c in groups.items():
        if not c:
            continue
        for es in _compositions(rest, len(alphas)):
            w = 0
            for ts, bt in expansion:
                for e, x, t in zip(es, bp, ts):
                    f = binomial(e + x, t)
                    if not f:
                        break
                    bt *= f
                else:
                    w += bt
            if w:
                row = weights.setdefault((_factors(alphas, es), mu), {})
                row[kept] = row.get(kept, 0) + c * w
    denom = factorial(max((sum(e for _, e in factors) for factors, _ in weights), default=0))
    data = {}
    for (factors, mu), row in weights.items():
        scale = denom
        for _, e in factors:
            scale //= factorial(e)
        for kept, w in row.items():
            if not w:  # compositions of one factor multiset can cancel
                continue
            w *= scale
            for heis, t in _schur_product(kept, factors):
                key = (heis, mu)
                data[key] = data.get(key, 0) + w * t
    return _reduce(data, denom)


def product_word(sig: Signature, cw: CWord, m: int, x: FockElement) -> FockElement:
    """Product of the image of a right-normed charged word with an element.

    A single letter a(n) vac is the divided power D^(j) v_a, j = -n-1, so
    it acts as (-1)^j binom(m,j) v_a [m-j] through the letter step; longer
    words go through the word step.  Either step acts on the whole element.
    """
    if not cw:
        return x if m == -1 else FOCK_ZERO
    data, den = x.nums, x.den
    if len(cw) == 1:
        alpha, n = cw[0]
        j = -n - 1
        c = (-1) ** j * binomial(m, j) if j >= 0 else 0
        if not c:
            return FOCK_ZERO
        nums, d = _apply_letter(_charge_rows(sig, alpha), alpha, m - j, data, den)
        return _element({key: c * t for key, t in nums.items()}, d)
    nums, d = _word_step(tuple(_charge_rows(sig, a) for a, _ in cw), cw, m, frozenset(data.items()))
    return _element(nums, d * den)


@cache
def _embed_word(sig: Signature, w: Word) -> tuple:
    """The image of a word as (numerators, denom), letter by letter, reduced after each letter."""
    data, den = {vacuum_state(sig): 1}, 1
    for g, n in reversed(w):
        alpha = sig.unit_weight(g)
        data, den = _reduce(*_apply_letter(_charge_rows(sig, alpha), alpha, n, data, den))
    return data, den


def embed(sig: Signature, x: FreeElement) -> FockElement:
    """Homomorphism from the free algebra sending each generator a to v_a."""
    return _element(*_combine(*_clear(x), lambda w: _embed_word(sig, w)))


# --- general products of states ------------------------------------------------


def _right_forms(loc, st: State) -> tuple:
    """What the state kernel reads of a right state st = h1(-k1)...hq(-kq) v_beta, once per state.

    Returns ((h|beta) for each generator h, whether h(n), n >= 0, acts on st
    for each h, the level k1 + ... + kq), read off the locality matrix loc.
    """
    heis, beta = st
    hb = [-sum(b * n for b, n in zip(beta, row)) for row in loc]
    return hb, [f or any(row[g] for _, g in heis) for f, row in zip(hb, loc)], sum(k for k, _ in heis)


def _state_kernel(loc, u: State, m: int, st: State, forms: tuple, c: int, groups: dict) -> None:
    """Add c * (u [m] st) to groups, in closed form (Frenkel-Lepowsky-Meurman; Kac).

    Y(h1(-k1)...hp(-kp) v_alpha, w) = :d^(k1-1)h1(w) ... d^(kp-1)hp(w) Y(v_alpha, w):
    with d^(k-1)h(w) = sum_n C(-n-1, k-1) h(n) w^{-n-k}.  Each letter h(-k) is,
    in turn, created as h(-j), j >= k, with C(j-1, k-1) and power j-k of w; or
    its h(0) gives (-1)^(k-1) (h|beta), power -k; or its h(n), n >= 1, removes
    a letter h'(-n) of st with C(-n-1, k-1) n (h|h') times that letter's
    multiplicity, power -n-k.  The rest of st meets v_alpha at mode m plus
    the total power, so u [m] st is the sum over the keys (alpha, created
    letters, mode) of groups of the created letters times v_alpha [mode] on
    the key's integer combination of (rest, beta) states.  The created levels
    are capped so that its degree can stay >= 0 after the lowest power later
    letters give.  At alpha = 0, Y(v_0, w) = id, so v_0 [mode] is zero at
    every mode but -1: the last letter takes only the one created level, the
    h(0) or the removed level that lands there, and no other group is formed.
    forms = _right_forms(loc, st); the kernel reads (h|h') and (alpha|beta)
    off loc and forms, and applies no step.
    """
    uheis, alpha = u
    heis, beta = st
    hb, acts, level = forms
    level += sum(k for k, _ in uheis)
    # the largest level the created letters may reach; it grows by k with each letter that can only be created
    cap = -m - 1 - sum(map(mul, alpha, hb)) + level - sum(k for k, h in uheis if not acts[h])
    last = len(uheis) - 1 if not any(alpha) else -1  # the letter whose power is fixed at charge 0
    out = {((), 0, heis): c}  # (created letters, their level, rest of st) -> coefficient
    for i, (k, h) in enumerate(uheis):
        cap += 0 if acts[h] else k
        exact = i == last
        nxt = {}
        for (created, cdeg, rest), c in out.items():
            if exact:  # the level to create, 0 for h(0), or minus the level to remove, that lands at mode -1
                need = level - m - 1 - cdeg - sum(n for n, _ in rest)
                js = (need,) if need >= k else ()
            else:
                js = range(k, cap - cdeg + 1)
            for j in js:
                key = (_insert(created, (j, h)), cdeg + j, rest)
                nxt[key] = nxt.get(key, 0) + c * binomial(j - 1, k - 1)
            if hb[h] and (not exact or not need):
                key = (created, cdeg, rest)
                nxt[key] = nxt.get(key, 0) + (-c if k & 1 == 0 else c) * hb[h]
            for idx, letter in enumerate(rest if acts[h] else ()):
                n, g = letter
                f = -loc[h][g]  # (h|h')
                if f and (not idx or rest[idx - 1] != letter) and (not exact or n == -need):
                    key = (created, cdeg, rest[:idx] + rest[idx + 1 :])
                    f *= binomial(-n - 1, k - 1) * n * rest.count(letter)
                    nxt[key] = nxt.get(key, 0) + c * f
        out = nxt
    for (created, cdeg, rest), c in out.items():  # product_state drops zeros with the cancellations across pairs
        group = groups.setdefault((alpha, created, m + cdeg - level + sum(k for k, _ in rest)), {})
        group[rest, beta] = group.get((rest, beta), 0) + c


def product_state(sig: Signature, x: FockElement, n: int, y: FockElement) -> FockElement:
    """General bilinear product x [n] y of Fock elements.

    The forms the state kernel reads of each right state are computed once
    per state, not once per pair.  Every pair of states adds its (alpha,
    created, mode) groups into one table, a left state of charge 0 only at
    mode -1; each group meets the letter step once, and its created letters
    join each output state.
    """
    loc = sig.locality
    rights = [(st, c2, _right_forms(loc, st)) for st, c2 in y.nums.items()]
    groups = {}
    for u, c1 in x.nums.items():
        for st, c2, forms in rights:
            _state_kernel(loc, u, n, st, forms, c1 * c2, groups)

    def kernel(key):
        alpha, created, mode = key
        data = {st: c for st, c in groups[key].items() if c}
        nums, d = _apply_letter(_charge_rows(sig, alpha), alpha, mode, data, 1) if data else _ZERO
        return {(_merge(kept, created), mu): t for (kept, mu), t in nums.items()}, d

    return _element(*_combine(dict.fromkeys(groups, 1), x.den * y.den, kernel))


# --- exact elimination -------------------------------------------------------


def reduce_row(row: dict, kept: dict) -> dict:
    """The row reduced against the echelon `kept`, divided by the gcd of its entries.

    A row is a dict from ordered keys (states, words, tags) to nonzero ints,
    and `kept` is an echelon as `echelon` builds it: each pivot maps to its
    row, and no row holds the pivot of a row kept before it.  At each pivot,
    in that order, the row becomes p row - c kept[pivot], with p and c the
    two pivot entries over their gcd, so no fraction is formed and no pivot
    already passed comes back.  The row reduces to zero exactly when it lies
    in the rational span of the kept rows.
    """
    row = dict(row)
    for pivot, base in kept.items():
        c = row.get(pivot)
        if c:
            g = gcd(base[pivot], c)
            p, c = base[pivot] // g, c // g
            if p != 1:
                row = {key: p * v for key, v in row.items()}
            for key, v in base.items():
                row[key] = row.get(key, 0) - c * v
    g = gcd(*row.values())
    return {key: v // g for key, v in row.items() if v}


def echelon(rows) -> dict:
    """The sparse fraction-free echelon of integer rows, as {pivot: row}.

    Each row is reduced against the rows kept before it (`reduce_row`) and
    kept under its least key, unless nothing is left of it; the number of
    rows kept is the rank.  One elimination serves the rank and span
    membership of Fock elements and the inverse of a form (`suites`).
    """
    kept = {}
    for row in rows:
        if row := reduce_row(row, kept):
            kept[min(row)] = row
    return kept


def rank(elements) -> int:
    """Exact rank over the rationals of the given elements: the size of the
    echelon of their integer numerators in the state basis."""
    return len(echelon(x.nums for x in elements))


def in_span(x: FockElement, elements) -> bool:
    """Exact membership of x in the rational span of the elements: the
    numerators of x reduce to zero against their echelon."""
    return not reduce_row(x.nums, echelon(y.nums for y in elements))


# --- printing ----------------------------------------------------------------


def format_state(sig: Signature, st: State) -> str:
    heis, charge = st
    letters = "".join(f"{sig.generators[g]}(-{k})" for k, g in reversed(heis))
    tag = f"v[{format_weight(sig, charge)}]"
    return f"{letters} {tag}" if letters else tag


def format_fock(sig: Signature, x: FockElement) -> str:
    return format_terms(x, lambda st: format_state(sig, st))
