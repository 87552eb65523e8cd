from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vertexalg import make_signature, min_deg2, pairing
from vertexalg.signature import weight_add, weight_neg
from vertexalg import fock
from vertexalg.fock import (
    FockElement,
    charge_act,
    charged_word,
    cocycle,
    embed,
    format_fock,
    format_state,
    heis_act,
    in_span,
    locality_upper,
    product_charged,
    product_state,
    product_word,
    rank,
    state_deg2,
    translate,
    vacuum_element,
    vacuum_product,
)
from vertexalg.basis import basis_words, minimal_word
from vertexalg.words import FreeElement, word_deg2, word_weight

from conftest import ALL_SIGS, SIG_FERM, SIG_FREE2, SIG_NEG, components, random_short_word, seeded

ODD2 = make_signature(["a", "b"], [[-1, 0], [0, -1]])  # two odd generators, (a|b) = 0


def test_cocycle_examples():
    assert cocycle(SIG_FERM, (1,), (1,)) == 1
    assert cocycle(SIG_FERM, (3,), (0,)) == 1
    # two odd generators with (a|b) = 0: antisymmetric across the order
    assert cocycle(ODD2, (0, 1), (1, 0)) == -1
    assert cocycle(ODD2, (1, 0), (0, 1)) == 1


w2 = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(w2, w2, w2)
@settings(max_examples=60)
def test_cocycle_bimultiplicative(lam, mu, nu):
    assert cocycle(ODD2, weight_add(lam, mu), nu) == cocycle(ODD2, lam, nu) * cocycle(ODD2, mu, nu)
    assert cocycle(ODD2, nu, weight_add(lam, mu)) == cocycle(ODD2, nu, lam) * cocycle(ODD2, nu, mu)


@given(w2, w2)
@settings(max_examples=60)
def test_cocycle_condition(lam, mu):
    lhs = cocycle(ODD2, lam, mu)
    sign = (-1) ** (pairing(ODD2, lam, lam) * pairing(ODD2, mu, mu) + pairing(ODD2, lam, mu))
    assert lhs == sign * cocycle(ODD2, mu, lam)


def test_heis_act_examples(ferm):
    v0 = vacuum_element(ferm)
    x = heis_act(ferm, 0, -1, v0)
    assert heis_act(ferm, 0, 1, x) == v0  # 1 * (a|a) = 1
    vb = vacuum_element(ferm, (1,))
    assert heis_act(ferm, 0, 0, vb) == vb
    two = heis_act(ferm, 0, -1, x)
    assert heis_act(ferm, 0, 2, two).is_zero()


def test_heisenberg_commutation_relations():
    for sig in (SIG_FERM, SIG_FREE2):
        rng = seeded(21)
        for _ in range(25):
            x = embed(sig, FreeElement({random_short_word(sig, rng): 1}))
            g, h = rng.randrange(sig.size), rng.randrange(sig.size)
            m, n = rng.randint(-2, 2), rng.randint(-2, 2)
            lhs = heis_act(sig, g, m, heis_act(sig, h, n, x)) - heis_act(
                sig, h, n, heis_act(sig, g, m, x)
            )
            expect = x.scale(m * sig.gram(g, h)) if m == -n and m != 0 else fock.FOCK_ZERO
            assert lhs == expect


def test_translate_examples(ferm):
    v0 = vacuum_element(ferm)
    assert translate(ferm, v0).is_zero()
    v2 = vacuum_element(ferm, (2,))
    assert translate(ferm, v2) == heis_act(ferm, 0, -1, v2).scale(2)
    x = heis_act(ferm, 0, -1, v0)
    assert translate(ferm, x) == heis_act(ferm, 0, -2, v0)


def test_translate_heisenberg_commutator():
    # [D, h(n)] = -n h(n-1)
    for sig in (SIG_FERM, SIG_NEG):
        rng = seeded(22)
        for _ in range(20):
            x = embed(sig, FreeElement({random_short_word(sig, rng): 1}))
            g = rng.randrange(sig.size)
            n = rng.randint(-2, 2)
            lhs = translate(sig, heis_act(sig, g, n, x)) - heis_act(sig, g, n, translate(sig, x))
            assert lhs == heis_act(sig, g, n - 1, x).scale(-n)


def test_vacuum_product_examples(ferm):
    # at the locality order the product vanishes; one below gives v_{a+b}
    assert vacuum_product(ferm, (1,), -1, (1,)).is_zero()
    assert vacuum_product(ferm, (1,), -2, (1,)) == vacuum_element(ferm, (2,))
    expect = heis_act(ferm, 0, -1, vacuum_element(ferm, (2,)))
    assert vacuum_product(ferm, (1,), -3, (1,)) == expect


def test_vacuum_product_vanishing_is_sharp():
    rng = seeded(23)
    for sig in (SIG_FERM, SIG_FREE2, SIG_NEG):
        for _ in range(15):
            alpha = tuple(rng.randint(-2, 2) for _ in range(sig.size))
            beta = tuple(rng.randint(-2, 2) for _ in range(sig.size))
            loc = -pairing(sig, alpha, beta)
            assert vacuum_product(sig, alpha, loc, beta).is_zero()
            assert not vacuum_product(sig, alpha, loc - 1, beta).is_zero()


def test_product_charged_examples(ferm):
    # v_a [-1] (a(-1) v_a) = -v_2a
    x = heis_act(ferm, 0, -1, vacuum_element(ferm, (1,)))
    assert product_charged(ferm, (1,), -1, x) == vacuum_element(ferm, (2,)).scale(-1)
    assert product_charged(ferm, (1,), -1, vacuum_element(ferm, (1,))).is_zero()


def test_product_grading_in_fock():
    for sig in ALL_SIGS:
        rng = seeded(24)
        done = 0
        while done < 20:
            w = random_short_word(sig, rng, max_len=2, lo=-2)
            alpha = tuple(rng.randint(-1, 1) for _ in range(sig.size))
            n = rng.randint(-2, 1)
            mu = weight_add(alpha, word_weight(sig, w))
            d2 = pairing(sig, alpha, alpha) + word_deg2(sig, w) - 2 * n - 2
            if d2 - min_deg2(sig, mu) > 12:
                continue
            x = embed(sig, FreeElement({w: 1}))
            if x.is_zero():
                continue
            done += 1
            out = product_charged(sig, alpha, n, x)
            for st_ in out.terms:
                assert st_[1] == mu
                assert state_deg2(sig, st_) == d2


def test_locality_upper_is_sound():
    for sig in ALL_SIGS:
        rng = seeded(25)
        for _ in range(20):
            x = embed(sig, FreeElement({random_short_word(sig, rng): 1}))
            if x.is_zero():
                continue
            alpha = tuple(rng.randint(-1, 1) for _ in range(sig.size))
            upper = locality_upper(sig, alpha, x)
            for n in range(upper, upper + 3):
                assert product_charged(sig, alpha, n, x).is_zero()


def test_embed_examples(ferm):
    assert embed(ferm, FreeElement({((0, -1),): 1})) == vacuum_element(ferm, (1,))
    assert embed(ferm, FreeElement({((0, -2), (0, -1)): 1})) == vacuum_element(ferm, (2,))


def test_embed_minimal_words_nonzero():
    import itertools

    for sig in ALL_SIGS:
        for lam in itertools.product(range(0, 4), repeat=sig.size):
            if not 0 < sum(lam) <= 4:
                continue
            img = embed(sig, FreeElement({minimal_word(sig, lam): 1}))
            assert img.support() == {((), lam)}
            assert abs(next(iter(img.terms.values()))) == 1


def test_homomorphism_on_random_pairs():
    from vertexalg.words import product as fproduct
    from conftest import random_word_in

    for sig in ALL_SIGS:
        rng = seeded(26)
        done = 0
        while done < 40:
            lams = []
            for _ in range(2):
                while True:
                    lam = tuple(rng.randint(0, 2) for _ in range(sig.size))
                    if 0 < sum(lam) <= 2:
                        lams.append(lam)
                        break
            wu = random_word_in(sig, lams[0], min_deg2(sig, lams[0]) + 2 * rng.randint(0, 3), rng)
            wv = random_word_in(sig, lams[1], min_deg2(sig, lams[1]) + 2 * rng.randint(0, 3), rng)
            m = rng.randint(-3, 2)
            done += 1
            u, v = FreeElement({wu: 1}), FreeElement({wv: 1})
            lhs = embed(sig, fproduct(sig, u, m, v))
            rhs = product_word(sig, charged_word(sig, wu), m, embed(sig, v))
            assert lhs == rhs
            assert product_state(sig, embed(sig, u), m, embed(sig, v)) == lhs


def test_state_product_agrees_with_word_route(ferm):
    # the general two-state product against the charged-word recursion,
    # with the Heisenberg generator realized as v_1 [(a|a)-2] v_-1
    atil_word = (((1,), -1), ((-1,), -1))
    atil_state = heis_act(ferm, 0, -1, vacuum_element(ferm))
    assert product_word(ferm, atil_word, -1, vacuum_element(ferm)) == atil_state
    rng = seeded(27)
    for _ in range(15):
        w = random_short_word(ferm, rng, max_len=2)
        x = embed(ferm, FreeElement({w: 1}))
        if x.is_zero():
            continue
        n = rng.randint(-2, 2)
        got = product_state(ferm, atil_state, n, x)
        assert got == product_word(ferm, atil_word, n, x)
        assert got == heis_act(ferm, 0, n, x)


def test_rank_examples(ferm):
    v0 = vacuum_element(ferm)
    assert rank([v0]) == 1
    x = heis_act(ferm, 0, -1, v0)
    assert rank([x, x.scale(2)]) == 1
    assert rank([]) == 0
    imgs = [embed(ferm, FreeElement({w: 1})) for w in basis_words(ferm, (2,), 10)]
    assert rank(imgs) == 2


def test_rank_against_sympy():
    rng = seeded(28)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1 and rng.random() < 0.5:
            mat[-1] = [3 * x for x in mat[0]]
        elems = []
        for row in mat:
            data = {((), (j,)): v for j, v in enumerate(row) if v}
            elems.append(FockElement(data))
        expect = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in mat]
        ).rank()
        assert rank(elems) == expect


def test_in_span(ferm):
    v0 = vacuum_element(ferm)
    x = heis_act(ferm, 0, -1, v0)
    y = heis_act(ferm, 0, -2, v0)
    assert in_span(x.scale(Fraction(5, 3)), [x, y])
    assert not in_span(heis_act(ferm, 0, -3, v0), [x, y])


def test_format_state(ferm):
    st_ = ((tuple(sorted(((1, 0), (2, 0))))), (2,))
    assert format_state(ferm, (st_[0], (2,))) == "a(-2)a(-1) v[2a]"
    assert format_state(ferm, ((), (0,))) == "v[0]"
    assert format_fock(ferm, fock.FOCK_ZERO) == "0"
