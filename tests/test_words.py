from fractions import Fraction

import pytest

from vertexalg import min_deg2, normal_form, pairing
from vertexalg.words import (
    FreeElement,
    Gen,
    Prod,
    Vac,
    VACUUM,
    ZERO,
    binomial,
    evaluate,
    format_element,
    gen_element,
    letter_rule,
    product,
    translate,
    word_deg2,
    word_grade,
    word_parity,
    word_element,
    word_weight,
)
from vertexalg.signature import weight_add

from conftest import ALL_SIGS, SIG_FERM, SIG_FREE2, random_short_word, seeded


def test_binomial_general_integers():
    assert binomial(5, 2) == 10
    assert binomial(-1, 3) == -1
    assert binomial(-2, 2) == 3
    assert binomial(3, 5) == 0
    assert binomial(4, -1) == 0


@pytest.mark.parametrize("sig", [SIG_FERM, SIG_FREE2], ids=["ferm", "free2"])
def test_one_letter_rule_against_translation(sig):
    # (a(n) vac) [m] vac = D^(-m-1) a(n) vac for m <= -1 and 0 for m >= 0;
    # translate iterates D and shares no code with the rule
    for g in range(sig.size):
        for n in range(-5, 0):
            x = word_element(((g, n),))
            for m in range(-6, 4):
                want = translate(x, -m - 1) if m <= -1 else ZERO
                rule = letter_rule(n, m)
                assert (ZERO if rule is None else word_element(((g, rule[1]),)).scale(rule[0])) == want
                assert product(sig, x, m, VACUUM) == want
                assert m >= 0 or not want.is_zero()


def test_word_grade_examples(ferm):
    assert word_grade(ferm, ((0, -1),)) == ((1,), 1, 1)
    assert word_grade(ferm, ((0, -2), (0, -1))) == ((2,), 4, 0)
    assert word_grade(ferm, ()) == ((0,), 0, 0)


def test_nonnegative_last_mode_dropped():
    x = FreeElement({((0, 0),): 1, ((0, -1),): 2})
    assert x.support() == {((0, -1),)}


def test_combination_hash_and_repr():
    x = FreeElement({((0, -1),): 2})
    assert hash(x) == hash(FreeElement({((0, -1),): 2, ((0, 0),): 5}))
    assert len({x, x.scale(1), ZERO, FreeElement()}) == 2
    assert repr(x) == "FreeElement({((0, -1),): 2})"
    assert repr(ZERO) == "FreeElement({})"


def test_translate_examples():
    a = gen_element(0)
    assert translate(a, 0) == a
    assert translate(a, 1) == FreeElement({((0, -2),): 1})
    assert translate(a, 2) == FreeElement({((0, -3),): 1})
    assert all(type(c) is int for c in translate(a, 2).terms.values())
    assert translate(a.scale(Fraction(1, 2)), 3) == FreeElement({((0, -4),): Fraction(1, 2)})
    with pytest.raises(ValueError, match="negative divided power"):
        translate(a, -1)


def test_translate_is_derivation(ferm):
    rng = seeded(1)
    for _ in range(25):
        u = FreeElement({random_short_word(ferm, rng): 1})
        v = FreeElement({random_short_word(ferm, rng): 1})
        n = rng.randint(-3, 2)
        lhs = translate(product(ferm, u, n, v), 1)
        rhs = product(ferm, translate(u, 1), n, v) + product(ferm, u, n, translate(v, 1))
        assert normal_form(ferm, lhs).result == normal_form(ferm, rhs).result


def test_vacuum_unit_laws(ferm):
    a = gen_element(0)
    assert product(ferm, a, -1, VACUUM) == FreeElement({((0, -1),): 1})
    for n in range(0, 3):
        assert product(ferm, a, n, VACUUM).is_zero()
    for n in (-2, 0, 1):
        x = FreeElement({((0, -2), (0, -1)): 1})
        assert product(ferm, VACUUM, n, x).is_zero()
        assert product(ferm, VACUUM, -1, x) == x


def test_mode_shift_for_translated_left_factor(ferm):
    # (Da) [n] b = -n a [n-1] b
    a = gen_element(0)
    for n in (-3, -1, 0, 2):
        lhs = product(ferm, translate(a, 1), n, a)
        rhs = product(ferm, a, n - 1, a).scale(-n)
        assert lhs == rhs


def test_product_bilinear(free2):
    rng = seeded(2)
    for _ in range(20):
        u1 = FreeElement({random_short_word(free2, rng): 1})
        u2 = FreeElement({random_short_word(free2, rng): 1})
        v = FreeElement({random_short_word(free2, rng): 1})
        n = rng.randint(-3, 2)
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = product(free2, u1.scale(c) + u2, n, v)
        rhs = product(free2, u1, n, v).scale(c) + product(free2, u2, n, v)
        assert lhs == rhs
        lhs = product(free2, v, n, u1.scale(c) + u2)
        rhs = product(free2, v, n, u1).scale(c) + product(free2, v, n, u2)
        assert lhs == rhs


def test_product_grading():
    for sig in ALL_SIGS:
        rng = seeded(3)
        for _ in range(30):
            wu = random_short_word(sig, rng)
            wv = random_short_word(sig, rng)
            m = rng.randint(-3, 2)
            out = product(sig, FreeElement({wu: 1}), m, FreeElement({wv: 1}))
            weight = weight_add(word_weight(sig, wu), word_weight(sig, wv))
            d2 = word_deg2(sig, wu) + word_deg2(sig, wv) - 2 * m - 2
            for w in out.terms:
                assert word_weight(sig, w) == weight
                assert word_deg2(sig, w) == d2


def test_quasisymmetry_with_super_sign():
    # u [n] v = -(-1)^(p(u)p(v)) sum_i (-1)^(n+i) D^(i) (v [n+i] u), truncated
    # by the degree floor.  The Koszul factor is required in the odd-odd case.
    for sig in ALL_SIGS:
        rng = seeded(4)
        checked_odd = 0
        for _ in range(25):
            wu = random_short_word(sig, rng, max_len=2, lo=-2)
            wv = random_short_word(sig, rng, max_len=2, lo=-2)
            n = rng.randint(-2, 2)
            mu = weight_add(word_weight(sig, wu), word_weight(sig, wv))
            off = word_deg2(sig, wu) + word_deg2(sig, wv) - 2 * n - 2 - min_deg2(sig, mu)
            if off > 10:
                continue
            u, v = FreeElement({wu: 1}), FreeElement({wv: 1})
            lhs = normal_form(sig, product(sig, u, n, v)).result
            acc = ZERO
            for i in range(0, max(off, 0) // 2 + 1):
                acc = acc + translate(product(sig, v, n + i, u), i).scale((-1) ** (n + i))
            koszul = (-1) ** (word_parity(sig, wu) * word_parity(sig, wv))
            rhs = normal_form(sig, acc.scale(-koszul)).result
            assert lhs == rhs
            if word_parity(sig, wu) and word_parity(sig, wv):
                checked_odd += 1
        if sig is SIG_FERM:
            assert checked_odd > 0


def test_quasisymmetry_fermion_case():
    # odd generator pair at the degree floor, fully explicit: only i = 0
    # survives and the Koszul factor makes the sign come out +1
    a = gen_element(0)
    lhs = product(SIG_FERM, a, -2, a)
    assert lhs == FreeElement({((0, -2), (0, -1)): 1})
    # -(-1)^(p*p) * (-1)^n * D^(0)(a [-2] a) with p = 1, n = -2
    assert lhs == translate(lhs, 0).scale(-(-1) * 1)


def test_commutator_identity_random_triples():
    for sig in ALL_SIGS:
        rng = seeded(5)
        for _ in range(25):
            ga, gb, gc = (rng.randrange(sig.size) for _ in range(3))
            a, b, c = gen_element(ga), gen_element(gb), gen_element(gc)
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            koszul = (-1) ** (sig.parity(ga) * sig.parity(gb))
            lhs = product(sig, a, m, product(sig, b, n, c)) - product(
                sig, b, n, product(sig, a, m, c)
            ).scale(koszul)
            rhs = ZERO
            for s in range(0, max(max(m, 0), sig.n(ga, gb)) + 1):
                coeff = binomial(m, s)
                if coeff:
                    rhs = rhs + product(sig, product(sig, a, s, b), m + n - s, c).scale(coeff)
            assert normal_form(sig, lhs).result == normal_form(sig, rhs).result


def test_evaluate_examples(ferm):
    assert evaluate(ferm, Prod(Gen(0), -1, Vac())) == FreeElement({((0, -1),): 1})
    tree = Prod(Gen(0), -2, Prod(Gen(0), -1, Vac()))
    assert evaluate(ferm, tree) == FreeElement({((0, -2), (0, -1)): 1})
    # vacuum right unit: ((a [-2] a) [-1] vac) equals a [-2] a
    inner = Prod(Gen(0), -2, Gen(0))
    assert evaluate(ferm, Prod(inner, -1, Vac())) == evaluate(ferm, inner)
    with pytest.raises(TypeError, match="not a vertex expression"):
        evaluate(ferm, Prod(Gen(0), -1, "vac"))


def test_format_element_canonical(ferm):
    x = FreeElement({((0, -2), (0, -1)): -1})
    assert format_element(ferm, x) == "-1 * a(-2)a(-1)vac"
    assert format_element(ferm, ZERO) == "0"
    assert format_element(ferm, VACUUM) == "vac"
    y = FreeElement({((0, -1),): 1, ((0, -3),): Fraction(3, 2)})
    assert format_element(ferm, y) == "a(-1)vac + 3/2 * a(-3)vac"
