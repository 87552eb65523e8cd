"""Rewriting of words onto the basis of the free vertex algebra.

Every test reads one list, the excess of each letter a_i(n_i) over its
minimal mode, e_i = sum_{l>i} N(a_i, a_l) - 1 - n_i, and its tail sums
E_i = e_i + ... + e_(k-1).  The tail from letter i sits 2 E_i above the
degree floor of its weight, so:

- a word is null (zero in the algebra) iff some E_i < 0;
- adjacent letters j, j+1 jump iff e_j < e_(j+1), or e_j = e_(j+1) and
  a_j > a_(j+1) in generator order;
- a word is basic iff e_(k-1) >= 0 and it has no jump, and then its
  nonzero excesses, colored by generator, are its colored partition.

Degree rules send null words to zero.  Locality rules resolve a jump by the
two-sum locality expansion; applied with degree rules taking priority, every
word reduces to a combination of basic words, and the reduction terminates
by the tail-defect measure (E_i plus the tail length).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .signature import Signature
from .words import FreeElement, Word, accumulate, binomial


class StepBudgetExceeded(RuntimeError):
    """A normal form needed more fresh expansions than `STEP_BUDGET` allows."""


# fresh expansions allowed per `normal_form` call
STEP_BUDGET = 500_000


@dataclass
class RewriteOutcome:
    result: FreeElement
    steps: int
    q_kills: int


def excess(sig: Signature, w: Word) -> list:
    """Excess of each letter over its minimal mode, e_i = sum_{l>i} N(a_i, a_l) - 1 - n_i.

    One right-to-left pass; every degree and locality test reads this list.
    """
    reach = [0] * sig.size  # reach[h] = sum of N(h, a_l) over the letters after i (N symmetric)
    out = [0] * len(w)
    for i in range(len(w) - 1, -1, -1):
        g, n = w[i]
        out[i] = reach[g] - 1 - n
        reach = list(map(add, reach, sig.locality[g]))
    return out


def _tail_sums(e: list) -> list:
    """E_i = e_i + ... + e_(k-1) for i = 0..k, so E_k = 0 is the empty tail."""
    out = [0] * (len(e) + 1)
    for i in range(len(e) - 1, -1, -1):
        out[i] = out[i + 1] + e[i]
    return out


def _jumps(w: Word, e: list, j: int) -> bool:
    """A jump between letters j and j+1: excess rises, or ties with the larger generator first."""
    return e[j] < e[j + 1] or (e[j] == e[j + 1] and w[j][0] > w[j + 1][0])


def is_null_word(sig: Signature, w: Word) -> bool:
    """True iff some tail of w has doubled degree below its weight's floor.

    The tail from letter i sits 2 E_i above its floor, so the word is null
    exactly when some tail sum of its excess is negative.  Words with last
    mode >= 0 (last excess < 0) are always null.
    """
    return min(_tail_sums(excess(sig, w))) < 0


def _check_strategy(strategy: str) -> None:
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown rewriting strategy {strategy!r}; use 'leftmost' or 'rightmost'")


def find_redex(sig: Signature, w: Word, strategy: str = "leftmost"):
    """Position of the first adjacent jump in the strategy's scan order, or None."""
    _check_strategy(strategy)
    return _redex(w, excess(sig, w), strategy)


def _redex(w: Word, e: list, strategy: str):
    positions = range(len(w) - 1) if strategy == "leftmost" else range(len(w) - 2, -1, -1)
    return next((j for j in positions if _jumps(w, e, j)), None)


def expand_redex(sig: Signature, w: Word, j: int) -> FreeElement:
    """Resolve the jump at position j via the locality expansion.

    Tails starting at or before j keep their letters and mode sum, and tails
    after j+1 are unchanged, so an output word is null exactly when its
    (j+1)-tail is.  The s-windows keep exactly the words where that tail is
    not: E_(j+1) - s >= 0 for the keep-order terms and
    E_(j+2) + e_j - N + s >= 0 for the swapped ones.  A null word at a redex
    is null at some other tail too (e_j <= e_(j+1)), so it expands to zero.
    """
    e = excess(sig, w)
    if not _jumps(w, e, j):
        raise ValueError("expand_redex called on a non-redex position")
    return _expand(sig, w, j, e)


def _expand(sig: Signature, w: Word, j: int, e: list) -> FreeElement:
    """The expansion of `expand_redex` at a redex j of w whose excess list is e."""
    tails = _tail_sums(e)
    if min(tails) < 0:
        return FreeElement()
    (ga, na), (gb, nb) = w[j], w[j + 1]
    loc = sig.locality[ga][gb]
    koszul = -1 if sig.parity(ga) and sig.parity(gb) else 1
    prefix, suffix = w[:j], w[j + 2 :]
    data = {}

    # keep-order terms a(na-s) b(nb+s), s >= 1
    s_hi = tails[j + 1] if loc < 0 else min(tails[j + 1], loc)
    for s in range(1, s_hi + 1):
        u = prefix + ((ga, na - s), (gb, nb + s)) + suffix
        b = binomial(loc, s)
        data[u] = data.get(u, 0) + (b if s & 1 else -b)

    # swapped terms b(nb+s) a(na-s), s <= N
    s_lo = loc - e[j] - tails[j + 2]
    if loc >= 0:
        s_lo = max(s_lo, 0)
    for s in range(s_lo, loc + 1):
        u = prefix + ((gb, nb + s), (ga, na - s)) + suffix
        b = koszul * binomial(loc, loc - s)
        data[u] = data.get(u, 0) + (-b if s & 1 else b)

    return FreeElement(data)


def is_basic(sig: Signature, w: Word) -> bool:
    """Membership in the basis: last excess >= 0 (last mode negative) and no jump.

    The excess of a basic word is then nonincreasing, ties in nondecreasing
    generator order, so its nonzero entries form a colored partition.
    """
    e = excess(sig, w)
    return not w or (e[-1] >= 0 and not any(_jumps(w, e, j) for j in range(len(w) - 1)))


def termination_measure(sig: Signature, w: Word):
    """Tail-defect sequence (d(w_1),...,d(w_k)) plus the letter word.

    d(w_i) = -sum of tail modes + sum of tail pairwise localities, which is
    E_i plus the tail length; rewriting steps never increase the sequence
    componentwise, and ties strictly decrease the letter word alphabetically.
    """
    k = len(w)
    tails = _tail_sums(excess(sig, w))
    return tuple(tails[i] + k - i for i in range(k)), tuple(g for g, _ in w)


# reduced forms of single words, keyed by (signature, strategy)
_NF_CACHE: dict = {}


def _reduce_word(sig: Signature, w0: Word, strategy: str, cache: dict, guard):
    """Fully reduce a non-null word, memoized.

    Post-order evaluation of the reduction dag: each word is expanded at
    most once per signature and strategy; expansion edges strictly decrease
    the termination measure, so the dag is acyclic and finite.
    """
    stack = [w0]
    pending = {}
    while stack:
        w = stack[-1]
        if w in cache:
            stack.pop()
            continue
        exp = pending.get(w)
        if exp is None:
            e = excess(sig, w)
            j = _redex(w, e, strategy)
            if j is None:
                cache[w] = (FreeElement({w: 1}), 0)
                stack.pop()
                continue
            guard[0] += 1
            if guard[0] > STEP_BUDGET:
                raise StepBudgetExceeded("rewriting step budget exceeded (likely a bug)")
            exp = _expand(sig, w, j, e)
            pending[w] = exp
            stack.extend(u for u in exp.terms if u not in cache)
            continue
        data = {}
        steps = 1
        for u, c in exp.terms.items():
            ru, su = cache[u]
            steps += su
            accumulate(data, ru, c)
        cache[w] = (FreeElement(data), steps)
        del pending[w]
        stack.pop()
    return cache[w0]


def normal_form(sig: Signature, x: FreeElement, strategy: str = "leftmost") -> RewriteOutcome:
    """Reduce an element to the span of basic words.

    Degree rules kill words eagerly (and have priority inside every
    expansion); the locality rule then fires at the chosen redex of each
    remaining word.  Words reduce independently and the per-word reduced
    forms are memoized, so repeated reductions in the same component are
    cheap.  Termination is guaranteed; `STEP_BUDGET` (counting fresh
    expansions in this call) only guards against implementation bugs.
    """
    _check_strategy(strategy)
    cache = _NF_CACHE.setdefault((sig, strategy), {})
    guard = [0]
    data = {}
    steps = 0
    q_kills = 0
    for w, c in x.terms.items():
        if is_null_word(sig, w):
            q_kills += 1
            continue
        rw, sw = _reduce_word(sig, w, strategy, cache, guard)
        steps += sw
        accumulate(data, rw, c)
    return RewriteOutcome(FreeElement(data), steps, q_kills)
