"""Rewriting of words onto the basis of the free vertex algebra.

Two families of rules act on words.  Degree rules send a word to zero as
soon as some tail sits below its degree floor (the sharp vanishing bound).
Locality rules resolve a "jump" between adjacent letters by the two-sum
locality expansion; applied with degree rules taking priority, every word
reduces to a combination of basic words, and the reduction terminates by the
tail-defect measure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .signature import Signature
from .words import FreeElement, Word, accumulate, binomial


class StepBudgetExceeded(RuntimeError):
    """A normal form needed more fresh expansions than its step budget allows."""


@dataclass
class RewriteOutcome:
    result: FreeElement
    steps: int
    q_kills: int


def is_null_word(sig: Signature, w: Word) -> bool:
    """True iff some tail of w has doubled degree below its weight's floor.

    Equivalently: sum of tail modes >= sum of pairwise localities in the
    tail minus tail length plus one.  Words with last mode >= 0 are always
    null.
    """
    mode_sum = 0
    pair_sum = 0
    counts = [0] * sig.size
    k = len(w)
    for i in range(k - 1, -1, -1):
        g, n = w[i]
        row = sig.locality[g]
        pair_sum += sum(c * row[h] for h, c in enumerate(counts) if c)
        counts[g] += 1
        mode_sum += n
        if mode_sum >= pair_sum - (k - i) + 1:
            return True
    return False


def _gap_bounds(sig: Signature, w: Word) -> list:
    """m_j for each adjacent position j (0-based, j < k-1).

    m_j = sum_{i>j} N(a_j, a_i) - sum_{i>j+1} N(a_{j+1}, a_i).
    """
    k = len(w)
    suffix = [0] * sig.size  # letter counts strictly after position j+1
    bounds = [0] * (k - 1)
    for j in range(k - 2, -1, -1):
        gj, gj1 = w[j][0], w[j + 1][0]
        rowj, rowj1 = sig.locality[gj], sig.locality[gj1]
        m = rowj[gj1]
        for h in range(sig.size):
            c = suffix[h]
            if c:
                m += c * (rowj[h] - rowj1[h])
        bounds[j] = m
        suffix[w[j + 1][0]] += 1
    return bounds


def find_redex(sig: Signature, w: Word, strategy: str = "leftmost"):
    """Position of the first adjacent jump, or None if the word has none."""
    if len(w) < 2:
        return None
    bounds = _gap_bounds(sig, w)
    positions = range(len(w) - 1) if strategy == "leftmost" else range(len(w) - 2, -1, -1)
    for j in positions:
        gap = w[j][1] - w[j + 1][1]
        if gap > bounds[j] or (gap == bounds[j] and w[j][0] > w[j + 1][0]):
            return j
    return None


def expand_redex(sig: Signature, w: Word, j: int) -> FreeElement:
    """Resolve the jump at position j via the locality expansion.

    The s-ranges are truncated to the window where the resulting word is not
    already null through its (j+1)-tail; every produced word is then
    filtered through the degree rules.
    """
    k = len(w)
    (ga, na), (gb, nb) = w[j], w[j + 1]
    bound = _gap_bounds(sig, w)[j]
    if not (na - nb > bound or (na - nb == bound and ga > gb)):
        raise ValueError("expand_redex called on a non-redex position")
    loc = sig.locality[ga][gb]
    koszul = -1 if sig.parity(ga) and sig.parity(gb) else 1
    prefix, suffix = w[:j], w[j + 2 :]
    tail_modes = sum(n for _, n in w[j + 1 :])

    def tail_cap(first_gen, rest):
        # max allowed mode-sum of the tail (first_gen, rest): pairsum - len
        counts = [0] * sig.size
        for g, _ in rest:
            counts[g] += 1
        pair = sum(counts[h] * sig.locality[first_gen][h] for h in range(sig.size))
        for i, (g, _) in enumerate(rest):
            row = sig.locality[g]
            for g2, _ in rest[i + 1 :]:
                pair += row[g2]
        return pair - (1 + len(rest))

    data = {}

    # keep-order terms a(na-s) b(nb+s), s >= 1
    s_hi = tail_cap(gb, suffix) - tail_modes
    if loc >= 0:
        s_hi = min(s_hi, loc)
    for s in range(1, s_hi + 1):
        b = binomial(loc, s)
        if not b:
            continue
        u = prefix + ((ga, na - s), (gb, nb + s)) + suffix
        if is_null_word(sig, u):
            continue
        c = b if s & 1 else -b
        data[u] = data.get(u, 0) + c

    # swapped terms b(nb+s) a(na-s), s <= N
    rest_modes = sum(n for _, n in suffix)
    s_lo = na + rest_modes - tail_cap(ga, suffix)
    if loc >= 0:
        s_lo = max(s_lo, 0)
    for s in range(s_lo, loc + 1):
        b = binomial(loc, loc - s)
        if not b:
            continue
        u = prefix + ((gb, nb + s), (ga, na - s)) + suffix
        if is_null_word(sig, u):
            continue
        c = koszul * b if not s & 1 else -koszul * b
        data[u] = data.get(u, 0) + c

    return FreeElement(data)


def is_basic(sig: Signature, w: Word) -> bool:
    """Membership in the basis: last mode negative, no jumps between letters."""
    if not w:
        return True
    if w[-1][1] >= 0:
        return False
    bounds = _gap_bounds(sig, w)
    for j in range(len(w) - 1):
        limit = bounds[j]
        if w[j][0] > w[j + 1][0]:
            limit -= 1
        if w[j][1] - w[j + 1][1] > limit:
            return False
    return True


def termination_measure(sig: Signature, w: Word):
    """Tail-defect sequence (d(w_1),...,d(w_k)) plus the letter word.

    d(u) = -sum of modes + sum of pairwise localities; rewriting steps never
    increase the sequence componentwise, and ties strictly decrease the
    letter word alphabetically.
    """
    k = len(w)
    out = [0] * k
    mode_sum = 0
    pair_sum = 0
    counts = [0] * sig.size
    for i in range(k - 1, -1, -1):
        g, n = w[i]
        row = sig.locality[g]
        pair_sum += sum(c * row[h] for h, c in enumerate(counts) if c)
        counts[g] += 1
        mode_sum += n
        out[i] = pair_sum - mode_sum
    return tuple(out), tuple(g for g, _ in w)


# reduced forms of single words, keyed by (signature, strategy)
_NF_CACHE: dict = {}


def _reduce_word(sig: Signature, w0: Word, strategy: str, cache: dict, guard, budget: int):
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
            j = find_redex(sig, w, strategy)
            if j is None:
                cache[w] = (FreeElement({w: 1}), 0)
                stack.pop()
                continue
            guard[0] += 1
            if guard[0] > budget:
                raise StepBudgetExceeded("rewriting step budget exceeded (likely a bug)")
            exp = expand_redex(sig, w, j)
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


def normal_form(
    sig: Signature,
    x: FreeElement,
    strategy: str = "leftmost",
    step_budget: int = 500_000,
) -> RewriteOutcome:
    """Reduce an element to the span of basic words.

    Degree rules kill words eagerly (and have priority inside every
    expansion); the locality rule then fires at the chosen redex of each
    remaining word.  Words reduce independently and the per-word reduced
    forms are memoized, so repeated reductions in the same component are
    cheap.  Termination is guaranteed; the step budget (counting fresh
    expansions in this call) only guards against implementation bugs.
    """
    cache = _NF_CACHE.setdefault((sig, strategy), {})
    guard = [0]
    data = {}
    steps = 0
    q_kills = 0
    for w, c in x.terms.items():
        if is_null_word(sig, w):
            q_kills += 1
            continue
        rw, sw = _reduce_word(sig, w, strategy, cache, guard, step_budget)
        steps += sw
        accumulate(data, rw, c)
    return RewriteOutcome(FreeElement(data), steps, q_kills)
