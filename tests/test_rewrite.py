import itertools

import pytest

from vertexalg import make_signature, min_deg2
from vertexalg import rewrite
from vertexalg.rewrite import (
    excess,
    expand_redex,
    find_redex,
    is_basic,
    is_null_word,
    StepBudgetExceeded,
    normal_form,
    termination_measure,
)
from vertexalg.words import FreeElement, binomial, word_deg2, word_weight
from vertexalg import fock

from conftest import ALL_SIGS, random_short_word, random_word_in, seeded


def test_null_word_examples(ferm, free2):
    assert is_null_word(ferm, ((0, -1), (0, 0)))  # last mode >= 0
    assert is_null_word(ferm, ((0, -1), (0, -1)))  # deg2 2 below floor 4
    assert not is_null_word(ferm, ((0, -2), (0, -1)))  # exactly at the floor
    assert not is_null_word(free2, ((0, 1), (1, -1)))


def test_find_redex_examples(ferm, free2):
    assert find_redex(ferm, ((0, -1), (0, -2))) == 0
    assert find_redex(ferm, ((0, -2), (0, -1))) is None
    assert find_redex(free2, ((0, -1), (1, -1))) is None
    assert find_redex(free2, ((1, -1), (0, -1))) is None
    # equality case with larger generator first
    assert find_redex(free2, ((1, 1), (0, -1))) == 0


def test_expand_redex_fermion(ferm):
    out = expand_redex(ferm, ((0, -1), (0, -2)), 0)
    assert out == FreeElement({((0, -2), (0, -1)): -1})


def test_expand_redex_free2(free2):
    out = expand_redex(free2, ((1, 1), (0, -1)), 0)
    assert out == FreeElement({((0, 1), (1, -1)): 1})


def test_expand_redex_preserves_grading():
    # the s-windows keep exactly the non-null words, and a null redex word expands to zero
    for sig in ALL_SIGS:
        rng = seeded(11)
        done = nulls = 0
        while done < 40:
            w = tuple(
                (rng.randrange(sig.size), rng.randint(-4, 2) if i < 2 else rng.randint(-4, -1))
                for i in range(3)
            )
            j = find_redex(sig, w)
            if j is None:
                continue
            done += 1
            out = expand_redex(sig, w, j)
            if is_null_word(sig, w):
                nulls += 1
                assert out.is_zero(), w
            for u in out.terms:
                assert not is_null_word(sig, u), (w, u)
                assert word_weight(sig, u) == word_weight(sig, w)
                assert word_deg2(sig, u) == word_deg2(sig, w)
        assert 0 < nulls < done


def test_expand_redex_requires_redex(ferm):
    with pytest.raises(ValueError):
        expand_redex(ferm, ((0, -2), (0, -1)), 0)


def test_normal_form_examples(ferm):
    out = normal_form(ferm, FreeElement({((0, -1), (0, -1)): 1}))
    assert out.result.is_zero() and out.q_kills == 1 and out.steps == 0
    out = normal_form(ferm, FreeElement({((0, -1), (0, -2)): 1}))
    assert out.result == FreeElement({((0, -2), (0, -1)): -1})
    assert out.steps >= 1
    basic = FreeElement({((0, -3), (0, -1)): 1})
    assert normal_form(ferm, basic).result == basic


def test_unknown_strategy_rejected(ferm):
    w = ((0, -1), (0, -2))
    for strategy in ("Leftmost", "right", ""):
        with pytest.raises(ValueError):
            find_redex(ferm, w, strategy)
        with pytest.raises(ValueError):
            normal_form(ferm, FreeElement({w: 1}), strategy)
        with pytest.raises(ValueError):
            normal_form(ferm, FreeElement(), strategy)
        assert (ferm, strategy) not in rewrite._NF_CACHE


def test_normal_form_idempotent():
    for sig in ALL_SIGS:
        rng = seeded(12)
        for _ in range(30):
            x = FreeElement({random_short_word(sig, rng): rng.randint(-3, 3) or 1})
            once = normal_form(sig, x).result
            assert normal_form(sig, once).result == once


def test_is_basic_examples(ferm):
    assert is_basic(ferm, ((0, -2), (0, -1)))
    assert not is_basic(ferm, ((0, -1), (0, -1)))
    assert is_basic(ferm, ())


def test_terminality_matches_basic_exhaustively():
    # all words with modes in [-6, 3], length <= 3
    for sig in ALL_SIGS:
        for k in range(0, 4):
            for letters in itertools.product(range(sig.size), repeat=k):
                for modes in itertools.product(range(-6, 4), repeat=k):
                    w = tuple(zip(letters, modes))
                    terminal = not is_null_word(sig, w) and find_redex(sig, w) is None
                    assert terminal == is_basic(sig, w), w


# Direct formulas for the degree and locality tests, independent of the
# excess reading in the library: tail sums of modes against pairwise
# localities, the gap bounds m_j, and the quadratic cap on a tail's mode sum.


def _oracle_is_null(sig, w):
    k = len(w)
    for i in range(k):
        tail = w[i:]
        pairs = sum(sig.locality[g][h] for p, (g, _) in enumerate(tail) for h, _ in tail[p + 1 :])
        if sum(n for _, n in tail) >= pairs - (k - i) + 1:
            return True
    return False


def _oracle_gap_bounds(sig, w):
    # m_j = sum_{i>j} N(a_j, a_i) - sum_{i>j+1} N(a_{j+1}, a_i)
    N = sig.locality
    return [
        sum(N[w[j][0]][g] for g, _ in w[j + 1 :]) - sum(N[w[j + 1][0]][g] for g, _ in w[j + 2 :])
        for j in range(len(w) - 1)
    ]


def _oracle_tail_cap(sig, first_gen, rest):
    # largest mode sum of a non-null tail (first_gen, rest): pair sum - length
    pair = sum(sig.locality[first_gen][g] for g, _ in rest)
    for i, (g, _) in enumerate(rest):
        for g2, _ in rest[i + 1 :]:
            pair += sig.locality[g][g2]
    return pair - (1 + len(rest))


def _oracle_jumps(sig, w):
    bounds = _oracle_gap_bounds(sig, w)
    out = []
    for j in range(len(w) - 1):
        gap = w[j][1] - w[j + 1][1]
        out.append(gap > bounds[j] or (gap == bounds[j] and w[j][0] > w[j + 1][0]))
    return out


def _oracle_expand(sig, w, j):
    # locality expansion with windows from the tail caps and a null test on every candidate
    (ga, na), (gb, nb) = w[j], w[j + 1]
    loc = sig.locality[ga][gb]
    koszul = -1 if sig.parity(ga) and sig.parity(gb) else 1
    prefix, suffix = w[:j], w[j + 2 :]
    data = {}
    s_hi = _oracle_tail_cap(sig, gb, suffix) - sum(n for _, n in w[j + 1 :])
    for s in range(1, (s_hi if loc < 0 else min(s_hi, loc)) + 1):
        u = prefix + ((ga, na - s), (gb, nb + s)) + suffix
        if not _oracle_is_null(sig, u):
            data[u] = data.get(u, 0) + (-1) ** (s + 1) * binomial(loc, s)
    s_lo = na + sum(n for _, n in suffix) - _oracle_tail_cap(sig, ga, suffix)
    for s in range(s_lo if loc < 0 else max(s_lo, 0), loc + 1):
        u = prefix + ((gb, nb + s), (ga, na - s)) + suffix
        if not _oracle_is_null(sig, u):
            data[u] = data.get(u, 0) + (-1) ** s * koszul * binomial(loc, loc - s)
    return FreeElement(data)


SIG_THREE = make_signature(["a", "b", "c"], [[-1, 1, 0], [1, -2, 3], [0, 3, 2]])


def test_excess_reading_matches_direct_formulas():
    # all words with modes in [-6, 3], length <= 3
    for sig in ALL_SIGS + (SIG_THREE,):
        N = sig.locality
        for k in range(0, 4):
            for letters in itertools.product(range(sig.size), repeat=k):
                for modes in itertools.product(range(-6, 4), repeat=k):
                    w = tuple(zip(letters, modes))
                    e = [sum(N[g][h] for h in letters[i + 1 :]) - 1 - n for i, (g, n) in enumerate(w)]
                    assert excess(sig, w) == e
                    null = _oracle_is_null(sig, w)
                    assert is_null_word(sig, w) == null, w
                    jumps = _oracle_jumps(sig, w)
                    left = next((j for j, x in enumerate(jumps) if x), None)
                    right = next((j for j in reversed(range(k - 1)) if jumps[j]), None)
                    assert find_redex(sig, w, "leftmost") == left, w
                    assert find_redex(sig, w, "rightmost") == right, w
                    assert is_basic(sig, w) == (not null and left is None), w
                    dseq = tuple(
                        sum(N[g][h] for p, g in enumerate(letters[i:]) for h in letters[i + p + 1 :])
                        - sum(modes[i:])
                        for i in range(k)
                    )
                    assert termination_measure(sig, w) == (dseq, letters)
                    for j in {left, right} - {None}:
                        assert expand_redex(sig, w, j) == _oracle_expand(sig, w, j), (w, j)


def test_measure_formula(ferm):
    # d(w_i) = -sum of tail modes + sum of tail pairwise localities
    dseq, letters = termination_measure(ferm, ((0, -1), (0, -2)))
    assert dseq == (2, 2) and letters == (0, 0)
    dseq, _ = termination_measure(ferm, ((0, -2), (0, -1)))
    assert dseq == (2, 1)
    assert termination_measure(ferm, ()) == ((), ())


def test_measure_decreases_on_rewrite_steps():
    for sig in ALL_SIGS:
        rng = seeded(13)
        done = 0
        while done < 300:
            k = rng.randint(2, 4)
            w = tuple(
                (rng.randrange(sig.size), rng.randint(-5, 2) if i < k - 1 else rng.randint(-5, -1))
                for i in range(k)
            )
            j = find_redex(sig, w)
            if j is None or is_null_word(sig, w):
                continue
            done += 1
            dm, lm = termination_measure(sig, w)
            for u in expand_redex(sig, w, j).terms:
                du, lu = termination_measure(sig, u)
                assert all(x <= y for x, y in zip(du, dm))
                if du == dm:
                    assert lu < lm


def test_leftmost_rightmost_agree():
    for sig in ALL_SIGS:
        rng = seeded(14)
        for _ in range(60):
            x = FreeElement(
                {random_short_word(sig, rng): rng.randint(-3, 3) or 1 for _ in range(2)}
            )
            left = normal_form(sig, x, "leftmost").result
            right = normal_form(sig, x, "rightmost").result
            assert left == right


def test_normal_form_sound_under_embedding():
    for sig in ALL_SIGS:
        rng = seeded(15)
        for _ in range(40):
            x = FreeElement(
                {random_short_word(sig, rng): rng.randint(-3, 3) or 1 for _ in range(2)}
            )
            assert fock.embed(sig, normal_form(sig, x).result) == fock.embed(sig, x)


def test_normal_form_supported_on_floor_components():
    # every output word of a homogeneous input stays in the component
    for sig in ALL_SIGS:
        rng = seeded(16)
        for _ in range(40):
            lam = tuple(rng.randint(0, 2) for _ in range(sig.size))
            if sum(lam) == 0:
                continue
            d2 = min_deg2(sig, lam) + 2 * rng.randint(0, 4)
            w = random_word_in(sig, lam, d2, rng)
            for u in normal_form(sig, FreeElement({w: 1})).result.terms:
                assert word_weight(sig, u) == lam
                assert word_deg2(sig, u) == d2
                assert is_basic(sig, u)


def test_step_budget_guard(free2, monkeypatch):
    # the guard counts fresh expansions per call: a word that needs 4 passes
    # a budget of 4 and raises under a budget of 3
    x = FreeElement({((1, -1), (0, -1), (1, -1), (0, -4)): 1})
    monkeypatch.setattr(rewrite, "_NF_CACHE", {})
    want = normal_form(free2, x)
    fresh = [r for r, steps in rewrite._NF_CACHE[(free2, "leftmost")].values() if steps]
    assert want.steps == len(fresh) == 4
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 4)
    monkeypatch.setattr(rewrite, "_NF_CACHE", {})
    assert normal_form(free2, x) == want
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 3)
    monkeypatch.setattr(rewrite, "_NF_CACHE", {})
    with pytest.raises(StepBudgetExceeded, match="rewriting step budget exceeded"):
        normal_form(free2, x)
