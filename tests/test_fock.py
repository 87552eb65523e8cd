import itertools
import sys
from fractions import Fraction
from math import factorial, gcd
from operator import mul

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
from vertexalg.suites import dong_locality
from vertexalg.words import FreeElement, binomial, word_deg2, word_weight

from conftest import ALL_SIGS, SIG_FERM, SIG_FREE2, SIG_NEG, components, random_short_word, seeded

ODD2 = make_signature(["a", "b"], [[-1, 0], [0, -1]])  # two odd generators, (a|b) = 0
A2 = make_signature(["a", "b"], [[-2, 1], [1, -2]])  # N = -Gram of the A2 root lattice
FREE4 = make_signature(["a", "b"], [[4, 1], [1, 2]])  # (a|a) = -4: a(n) a vanishes only from n = 4


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
    for sig in (ODD2, A2, SIG_NEG):  # the kernel's sign: (-1)^(beta . cocycle row of alpha)
        assert (-1) ** sum(map(mul, mu, fock._charge_rows(sig, lam)[1])) == cocycle(sig, lam, mu)


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
    with pytest.raises(ValueError, match="negative divided power"):
        translate(ferm, x, -1)


def test_divided_translate_divides_once(ferm):
    # D^(2) v[2a] = (a(-1)^2 + a(-2)) v[2a]: integral values stay int
    x = translate(ferm, vacuum_element(ferm, (2,)), 2)
    assert x.terms == {(((1, 0), (1, 0)), (2,)): 2, (((2, 0),), (2,)): 1}
    assert all(type(c) is int for c in x.terms.values())
    y = translate(ferm, vacuum_element(ferm, (1,)).scale(Fraction(1, 3)), 2)
    assert y.terms == {(((1, 0), (1, 0)), (1,)): Fraction(1, 6), (((2, 0),), (1,)): Fraction(1, 6)}


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
        # two states of one charge: the bound is set by the higher level, and it is sharp here
        alpha, beta = sig.unit_weight(0), sig.unit_weight(sig.size - 1)
        x = FockElement({((), beta): 1, (((3, 0),), beta): 2})
        upper = locality_upper(sig, alpha, x)
        assert upper == sig.n(0, sig.size - 1) + 3
        assert not product_charged(sig, alpha, upper - 1, x).is_zero()
        assert fock.locality_order(sig, alpha, x, upper - 5) == upper


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


def test_empty_charged_word_is_the_vacuum():
    # the image of vac: the unit at mode -1 and zero at every other mode
    from vertexalg.words import VACUUM, product as fproduct
    from conftest import random_element

    for sig in ALL_SIGS:
        rng = seeded(31)
        for _ in range(5):
            v = random_element(sig, rng)
            for m in range(-3, 3):
                assert product_word(sig, (), m, embed(sig, v)) == embed(sig, fproduct(sig, VACUUM, m, v))


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


def _sympy_rank(rows, keys):
    return sympy.Matrix(
        [[sympy.Rational(row.get(k, 0).numerator, row.get(k, 0).denominator) for k in keys] for row in rows]
    ).rank()


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
    # sparse rows over non-contiguous states, up to 12 of them, with a dependent
    # row of large multiples (entries near 10^6)
    states = [(((k, 0),), (q,)) for k in (1, 3, 4, 9) for q in (-5, 2, 7)]
    for _ in range(40):
        keys = rng.sample(states, rng.randint(2, len(states)))
        rows = [
            {st: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for st in rng.sample(keys, rng.randint(1, 3))}
            for _ in range(rng.randint(1, 12))
        ]
        if len(rows) > 1:
            big = {}
            for row in rng.sample(rows, 2):
                f = rng.randint(10**6 - 50, 10**6 + 50) * rng.choice((1, -1))
                for st, c in row.items():
                    big[st] = big.get(st, 0) + f * c
            rows.insert(rng.randrange(len(rows) + 1), big)
        elems = [FockElement(row) for row in rows]
        assert rank(elems) == _sympy_rank(rows, sorted(states))


def test_in_span(ferm):
    v0 = vacuum_element(ferm)
    x = heis_act(ferm, 0, -1, v0)
    y = heis_act(ferm, 0, -2, v0)
    assert in_span(x.scale(Fraction(5, 3)), [x, y])
    assert not in_span(heis_act(ferm, 0, -3, v0), [x, y])


def test_in_span_against_sympy():
    # members are random rational combinations of the rows, non-members random rows
    rng = seeded(29)
    states = [(((k, g),), (q,)) for k in (1, 2, 5) for g in (0, 1) for q in (-3, 4)]
    seen = {True: 0, False: 0}
    for _ in range(60):
        keys = rng.sample(states, rng.randint(1, len(states)))
        rows = [
            {st: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for st in rng.sample(keys, rng.randint(1, len(keys)))}
            for _ in range(rng.randint(0, 6))
        ]
        elems = [FockElement(row) for row in rows]
        member = FockElement({})
        for x in elems:
            member = member + x.scale(Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        other = {st: Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for st in rng.sample(states, rng.randint(1, 4))}
        for x, row in ((member, member.terms), (FockElement(other), other)):
            expect = _sympy_rank(rows + [row], states) == _sympy_rank(rows, states)
            assert in_span(x, elems) == expect
            seen[expect] += 1
    assert min(seen.values()) >= 20, seen


def test_format_state(ferm):
    st_ = ((tuple(sorted(((1, 0), (2, 0))))), (2,))
    assert format_state(ferm, (st_[0], (2,))) == "a(-2)a(-1) v[2a]"
    assert format_state(ferm, ((), (0,))) == "v[0]"
    assert format_fock(ferm, fock.FOCK_ZERO) == "0"


# --- test-only oracles: the step-by-step recursions the closed forms replace --


def _oracle_vacuum_product(sig, alpha, n, beta):
    """eps(a,b) (D - b(-1))^(k) v_{a+b}, k = -(a|b)-n-1, one translation at a time."""
    k = -pairing(sig, alpha, beta) - n - 1
    if k < 0:
        return fock.FOCK_ZERO
    cur = vacuum_element(sig, weight_add(alpha, beta))
    for _ in range(k):
        cur = translate(sig, cur) - charge_act(sig, beta, -1, cur)
    return cur.scale(Fraction(cocycle(sig, alpha, beta), factorial(k)))


def _oracle_charged_state(sig, alpha, n, st_):
    """v_a [n] st by stripping creation letters off the right factor:
    v_a [n] (c(-k) y) = c(-k) (v_a [n] y) - (a|c) v_a [n-k] y."""
    heis, charge = st_
    if not heis:
        return _oracle_vacuum_product(sig, alpha, n, charge)
    k, g = heis[0]
    rest = (heis[1:], charge)
    out = heis_act(sig, g, -k, _oracle_charged_state(sig, alpha, n, rest))
    f = pairing(sig, alpha, sig.unit_weight(g))
    if f:
        out = out - _oracle_charged_state(sig, alpha, n - k, rest).scale(f)
    return out


def _oracle_state_product(sig, u, m, st_):
    """u [m] st by peeling the Heisenberg letters x(n), n = -k, off u through
    the associativity identity, one recursion level per letter, down to the
    charged vacuum, which acts through the single-letter kernel:
    (x(n) t) [m] y = sum_s (-1)^s C(n,s) (x(n-s) (t [m+s] y) - (-1)^n t [m+n-s] (x(s) y)),
    both sums truncated by the degree floor."""
    heis, charge = u
    return _oracle_word_state(sig, tuple((g, -k) for k, g in heis) + ((charge, -1),), m, st_)


def _oracle_word_state(sig, sw, m, st_):
    x, n = sw[0]
    tail = sw[1:]
    if not tail:
        return fock.product_charged(sig, x, m, fock.state_element(st_))
    # x is a generator index: the vector x(-1)vac has weight 0 and doubled degree 2
    mu = st_[1]
    d2s = d2t = state_deg2(sig, st_)
    for y, k in tail:
        if isinstance(y, int):
            d2t += -2 * k
        else:
            mu = weight_add(mu, y)
            d2t += pairing(sig, y, y) - 2 * k - 2
    if -2 * n + d2t - 2 * m - 2 < min_deg2(sig, mu):
        return fock.FOCK_ZERO
    out = fock.FOCK_ZERO
    # first sum: x [n-s] (tail [m+s] state), s >= 0
    for s in range((d2t - 2 * m - 2 - min_deg2(sig, mu)) // 2 + 1):
        b = binomial(n, s)
        inner = _oracle_word_state(sig, tail, m + s, st_)
        if b and inner:
            out = out + heis_act(sig, x, n - s, inner).scale(-b if s & 1 else b)
    # second sum: tail [m+s] (x [n-s] state), s <= n
    for s in range((min_deg2(sig, st_[1]) - 2 - d2s) // 2 + n + 1, n + 1):
        b = binomial(n, n - s)
        if not b:
            continue
        inner = heis_act(sig, x, n - s, fock.state_element(st_))
        for st2, c2 in inner.terms.items():
            out = out + _oracle_word_state(sig, tail, m + s, st2).scale(-b * c2 if not s & 1 else b * c2)
    return out


def _random_state(sig, rng, max_letters=3, max_level=3):
    heis = tuple(
        sorted((rng.randint(1, max_level), rng.randrange(sig.size)) for _ in range(rng.randint(0, max_letters)))
    )
    return heis, tuple(rng.randint(-2, 2) for _ in range(sig.size))


def _out_degree(sig, cw, m, st_):
    """Heisenberg degree of (charged word cw) [m] st; the product is 0 below 0."""
    heis, beta = st_
    d = sum(k for k, _ in heis) - m - 1
    for i, (a, n) in enumerate(cw):
        d -= n + 1 + pairing(sig, a, beta) + sum(pairing(sig, a, b) for b, _ in cw[i + 1 :])
    return d


ORACLE_SIGS = (SIG_FERM, SIG_FREE2, SIG_NEG, A2)


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_charged_kernel_against_recursion(sig):
    rng = seeded(31)
    done = 0
    while done < 60:
        st_ = _random_state(sig, rng)
        alpha = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        n = rng.randint(-4, 3)
        if _out_degree(sig, ((alpha, -1),), n, st_) > 6:
            continue
        done += 1
        x = fock.state_element(st_)
        assert product_charged(sig, alpha, n, x) == _oracle_charged_state(sig, alpha, n, st_)
        assert vacuum_product(sig, alpha, n, st_[1]) == _oracle_vacuum_product(sig, alpha, n, st_[1])


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_word_kernel_against_state_product(sig):
    # product_word through the word step, on single states, against product_state,
    # the closed form of the general product, on the left state built letter by letter
    rng = seeded(32)
    done = 0
    while done < 40:
        cw = tuple(
            (tuple(rng.randint(-1, 1) for _ in range(sig.size)), rng.randint(-3, 1))
            for _ in range(rng.randint(2, 3))
        )
        st_ = _random_state(sig, rng, max_letters=2)
        m = rng.randint(-3, 2)
        if _out_degree(sig, cw, m, st_) > 5:
            continue
        y = fock.state_element(st_)
        got = product_word(sig, cw, m, y)
        done += not got.is_zero()
        assert got == product_state(sig, _word_image(sig, cw), m, y)


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_state_kernel_against_recursion(sig):
    rng = seeded(33)
    done = nonzero = 0
    while done < 150:
        u, st_ = _random_state(sig, rng), _random_state(sig, rng)
        m = rng.randint(-4, 3)
        level = sum(k for k, _ in u[0]) + _out_degree(sig, ((u[1], -1),), m, st_)
        if level > 6:
            continue
        done += 1
        got = product_state(sig, fock.state_element(u), m, fock.state_element(st_))
        nonzero += not got.is_zero()
        assert got == _oracle_state_product(sig, u, m, st_)
    assert nonzero >= 80  # 83-121 of the 150 products are nonzero


def test_charged_product_on_long_state():
    # a creation letter orthogonal to the charge is never contracted, so a
    # state of 1500 letters is one term, without recursion
    sig = make_signature(["a", "b"], [[-2, 0], [0, -2]])
    x = FockElement({(((1, 0),) * 1500, (0, 0)): 1})
    out = product_charged(sig, (0, 1), -1, x)
    assert out == FockElement({(((1, 0),) * 1500, (0, 1)): 1})


def test_state_product_on_long_left_state():
    # a left state of 1200 letters, none of which the right state contracts,
    # creates its letters as they are: one term, without recursion
    sig = make_signature(["a", "b"], [[-2, 0], [0, -2]])
    u = FockElement({(((1, 0),) * 1200, (0, 0)): 1})
    out = product_state(sig, u, -1, vacuum_element(sig, (0, 1)))
    assert out == FockElement({(((1, 0),) * 1200, (0, 1)): 1})


def _random_fraction(rng):
    """A signed Fraction with denominator 1-6 before reduction."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 6))


def _random_fock(sig, rng, nstates=3):
    data = {}
    while len(data) < nstates:
        data[_random_state(sig, rng, max_letters=2)] = _random_fraction(rng)
    return FockElement(data)


def _fraction_sum(product, terms):
    """sum c * product(key) over the terms, added up in plain Fraction arithmetic."""
    data = {}
    for key, c in terms.items():
        for st_, t in product(key).terms.items():
            data[st_] = data.get(st_, 0) + Fraction(c) * Fraction(t)
    return FockElement(data)


def _exact_types(x):
    # an integral coefficient is an int, any other a Fraction in lowest terms
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in x.terms.values())


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_integer_accumulation_matches_fraction_sum(sig):
    # every public product on an element of several states with Fraction
    # coefficients equals the Fraction sum of its products on single states
    rng = seeded(34)
    units = [sig.unit_weight(g) for g in range(sig.size)]
    signed = any(cocycle(sig, a, b) == -1 for a in units for b in units)
    one = fock.state_element
    done = minus = 0
    while done < 25:
        x = _random_fock(sig, rng)
        alpha = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        n = rng.randint(-3, 2)
        cw = ((alpha, rng.randint(-3, -1)), (tuple(rng.randint(-1, 1) for _ in range(sig.size)), rng.randint(-2, -1)))
        if max(_out_degree(sig, w, n, st_) for st_ in x.terms for w in (cw, cw[:1])) > 5:
            continue
        done += 1
        minus += sum(cocycle(sig, alpha, st_[1]) == -1 for st_ in x.terms)
        checks = [
            (product_charged(sig, alpha, n, x), lambda s: product_charged(sig, alpha, n, one(s)), x.terms),
            (product_word(sig, cw[:1], n, x), lambda s: product_word(sig, cw[:1], n, one(s)), x.terms),
            (product_word(sig, cw, n, x), lambda s: product_word(sig, cw, n, one(s)), x.terms),
        ]
        words = {random_short_word(sig, rng): _random_fraction(rng) for _ in range(3)}
        checks.append((embed(sig, FreeElement(words)), lambda w: embed(sig, FreeElement({w: 1})), words))
        u = _random_fock(sig, rng, nstates=2)
        levels = [sum(k for k, _ in s1[0]) + _out_degree(sig, ((s1[1], -1),), n, s2) for s1 in u.terms for s2 in x.terms]
        if max(levels) <= 6:
            pairs = {(s1, s2): c1 * c2 for s1, c1 in u.terms.items() for s2, c2 in x.terms.items()}
            checks.append((product_state(sig, u, n, x), lambda p: product_state(sig, one(p[0]), n, one(p[1])), pairs))
        for got, product, terms in checks:
            assert got == _fraction_sum(product, terms)
            assert _exact_types(got)
    assert minus > 0 or not signed  # cocycle -1 pairs occur wherever the lattice has them


def _fraction_dict(data):
    """The plain Fraction dict of a rational dict, zero coefficients dropped: the oracle."""
    return {key: Fraction(c) for key, c in data.items() if c}


def _canonical(x):
    # nums and den are the reduced pair of x.terms, and .terms has exact types
    assert x.den > 0 and all(type(c) is int and c for c in x.nums.values())
    assert gcd(x.den, *x.nums.values()) == 1
    assert x.terms == {key: Fraction(c, x.den) for key, c in x.nums.items()}
    assert _exact_types(x)
    return x


def test_representation_against_fraction_dicts():
    # FockElement(terms), +, -, negation, scale, == and hash of the (nums, den) pair
    # against plain Fraction-dict arithmetic, on mixed int and Fraction coefficients
    rng = seeded(43)
    states = [_random_state(SIG_FREE2, rng, max_letters=2) for _ in range(6)]

    def random_terms():
        factor = rng.choice((1, 6, Fraction(1, 4), Fraction(10, 3)))
        data = {}
        for st_ in rng.sample(states, rng.randint(0, 4)):
            c = rng.choice((0, rng.randint(-9, 9), _random_fraction(rng)))
            data[st_] = c * factor if rng.random() < 0.8 else Fraction(c * factor)
        return data

    seen = {"zero": 0, "fraction": 0, "common": 0}
    for _ in range(300):
        dx, dy = random_terms(), random_terms()
        x, y = _canonical(FockElement(dx)), _canonical(FockElement(dy))
        fx, fy = _fraction_dict(dx), _fraction_dict(dy)
        assert x.terms == fx and y.terms == fy
        seen["zero"] += any(c == 0 for c in dx.values())
        seen["fraction"] += x.den > 1
        assert _canonical(x + y).terms == _fraction_dict({k: fx.get(k, 0) + fy.get(k, 0) for k in fx.keys() | fy.keys()})
        assert _canonical(x - y).terms == _fraction_dict({k: fx.get(k, 0) - fy.get(k, 0) for k in fx.keys() | fy.keys()})
        assert _canonical(-x).terms == {k: -c for k, c in fx.items()}
        assert x.scale(1) is x
        for c in (0, rng.randint(-5, 5), _random_fraction(rng)):
            assert _canonical(x.scale(c)).terms == _fraction_dict({k: c * t for k, t in fx.items()})
        # equal elements built in different ways: equal, with equal hashes
        g = rng.randint(2, 12)
        common = _canonical(fock._element({k: g * c for k, c in x.nums.items()}, g * x.den))
        seen["common"] += bool(x.nums)
        for other in (common, x + y - y, -(-x), x.scale(Fraction(2, 3)).scale(Fraction(3, 2)), FockElement(fx)):
            assert other == x and hash(other) == hash(x)
            assert (other.nums, other.den) == (x.nums, x.den)
        assert (x == y) == (fx == fy)
        assert (x.is_zero(), bool(x), x.support()) == (not fx, bool(fx), set(fx))
    assert all(seen.values())
    # an integral coefficient is an int, whatever type it was given as
    z = FockElement({states[0]: Fraction(4, 2), states[1]: Fraction(0), states[2]: Fraction(3, 6)})
    assert z.terms == {states[0]: 2, states[2]: Fraction(1, 2)} and type(z.terms[states[0]]) is int
    assert repr(z) == f"FockElement({z.terms!r})"
    assert FockElement({states[0]: 0}) == fock.FOCK_ZERO and (fock.FOCK_ZERO.nums, fock.FOCK_ZERO.den) == ({}, 1)


def test_results_never_alias_the_memo(monkeypatch):
    # results of embed, product_word, product_charged, vacuum_product and product_state
    # (with a charge-zero and a charged left element), combined with + and scale and
    # then even written into, leave the memoized kernel values as they were: each repeat
    # of the same calls, all memo hits, equals the first result, and every
    # _schur_product entry that the letter and word steps read is unchanged
    for table in (fock._letter_step, fock._word_step, fock._embed_word):
        table.cache_clear()  # so that the first calls run both steps
    reads = []
    schur_product = fock._schur_product

    def recording(kept, factors):
        value = schur_product(kept, factors)
        reads.append((sys._getframe(1).f_code.co_name, (kept, factors), value, list(value)))
        return value

    monkeypatch.setattr(fock, "_schur_product", recording)
    sig = SIG_FREE2
    a, b = sig.unit_weight(0), sig.unit_weight(1)
    right = embed(sig, FreeElement({((1, -2),): 1, ((0, -1), (1, -1)): Fraction(1, 2)}))
    omega_like = FockElement({(((1, 0), (1, 1)), (0, 0)): Fraction(1, 2), (((1, 0), (1, 0)), (0, 0)): 3})
    charged = FockElement({(((1, 1),), a): Fraction(2, 3), ((), a): 1})
    calls = [
        lambda: embed(sig, FreeElement({((0, -2), (1, -1)): 1})),
        lambda: embed(sig, FreeElement({((0, 1), (1, -3)): Fraction(2, 3), ((1, -2), (0, -1)): -1})),
        lambda: product_word(sig, charged_word(sig, ((0, -2), (1, -1))), -1, right),
        lambda: product_word(sig, charged_word(sig, ((1, -1),)), -2, right),
        lambda: product_charged(sig, a, -2, right),
        lambda: product_charged(sig, b, -1, vacuum_element(sig, a)),
        lambda: vacuum_product(sig, a, -3, b),
        lambda: product_state(sig, omega_like, 1, right),
        lambda: product_state(sig, charged, -1, right),
    ]
    first = [call() for call in calls]
    expected = [FockElement(dict(x.terms)) for x in first]
    assert all(not x.is_zero() for x in first)
    total = fock.FOCK_ZERO
    for x in first:
        total = total + x.scale(Fraction(-3, 2)) - x.scale(2)
    assert total == sum((x.scale(Fraction(-7, 2)) for x in expected), fock.FOCK_ZERO)
    for x in first:
        for key in x.nums:
            x.nums[key] *= 7
    assert fock._embed_word(sig, ((0, -2), (1, -1)))[0] is not first[0].nums
    before = fock._letter_step.cache_info().hits
    for call, want in zip(calls, expected):
        again = call()
        assert again == want and again.terms == want.terms
    assert fock._letter_step.cache_info().hits > before
    assert {"_letter_step", "_word_step"} <= {caller for caller, (kept, _), _, _ in reads if kept}
    for _, args, value, copy in reads:
        assert schur_product(*args) is value and list(value) == copy


def test_letter_kernel_shared_by_equal_charge_rows():
    # the letter step of v_b is keyed by b's pairing row (N(b,a), N(b,b)) and cocycle row, not by the signature
    b, beta, n = (0, 1), (1, 0), -3
    s1 = make_signature(["a", "b"], [[-2, 0], [0, -1]])
    same = make_signature(["a", "b"], [[0, 0], [0, -1]])  # N(a,a) of the same parity: equal rows
    other = make_signature(["a", "b"], [[-1, 0], [0, -1]])  # N(a,a) odd: the cocycle rows differ
    assert fock._charge_rows(s1, b) == fock._charge_rows(same, b)
    assert fock._charge_rows(s1, b)[0] == fock._charge_rows(other, b)[0]
    assert fock._charge_rows(s1, b)[1] != fock._charge_rows(other, b)[1]
    x = vacuum_product(s1, b, n, beta)
    assert not x.is_zero()
    before = fock._letter_step.cache_info()
    assert vacuum_product(same, b, n, beta) == x
    after = fock._letter_step.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    y = vacuum_product(other, b, n, beta)
    assert fock._letter_step.cache_info().misses == after.misses + 1
    assert y == -x
    for sig, got in ((s1, x), (same, x), (other, y)):
        assert got == _oracle_charged_state(sig, b, n, ((), beta))
        st_ = (((1, 0), (2, 1)), beta)
        assert product_charged(sig, b, n, FockElement({st_: 1})) == _oracle_charged_state(sig, b, n, st_)


def test_memo_hit_on_equal_distinct_signature():
    # memo tables are keyed by value: an equal signature built apart hits the entries of the first
    s1 = make_signature(["a", "b"], [[-2, 1], [1, -2]])
    s2 = make_signature(["a", "b"], [[-2, 1], [1, -2]])
    assert s1 is not s2
    x = vacuum_product(s1, (1, 1), -3, (1, -2))
    tables = (fock._letter_step, fock._charge_rows)
    before = [t.cache_info() for t in tables]
    assert vacuum_product(s2, (1, 1), -3, (1, -2)) == x
    for t, b in zip(tables, before):
        after = t.cache_info()
        assert after.misses == b.misses and after.currsize == b.currsize
    assert tables[0].cache_info().hits == before[0].hits + 1


def test_one_letter_product_hits_the_embedding_chain():
    # embedding the word (a, m-j) + v applies v_a [m-j] to the image of v, which
    # product_word(a(n), m, embed(v)) applies too, j = -n-1: the same letter step
    rng = seeded(35)
    done = 0
    while done < 20:
        sig = rng.choice(ORACLE_SIGS)
        v = random_short_word(sig, rng)
        a, n, m = rng.randrange(sig.size), rng.randint(-3, -1), rng.randint(-3, 1)
        j = -n - 1
        if not binomial(m, j) or word_deg2(sig, ((a, m - j),) + v) > 12:
            continue
        image = embed(sig, FreeElement({v: 1}))
        if image.is_zero():
            continue
        expected = embed(sig, FreeElement({((a, m - j),) + v: 1}))
        before = fock._letter_step.cache_info()
        got = product_word(sig, charged_word(sig, ((a, n),)), m, image)
        after = fock._letter_step.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1
        assert got == expected.scale(-binomial(m, j) if j & 1 else binomial(m, j))
        done += 1


def _random_combination(sig, rng):
    """Nonzero integer numerators on 0-4 random states over a positive denominator."""
    data = {_random_state(sig, rng, max_letters=2): rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 4))}
    return data, rng.randint(1, 6)


def _oracle_apply(sig, alpha, n, data, den):
    out = fock.FOCK_ZERO
    for st_, c in data.items():
        out = out + _oracle_charged_state(sig, alpha, n, st_).scale(Fraction(c, den))
    return out


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_apply_letter_against_recursion(sig):
    # v_alpha [n] on a combination of states with mixed charges and degrees equals
    # the sum of the recursion over its states; both steps return a positive denominator
    rng = seeded(36)
    done = empty = 0
    while done < 40:
        data, den = _random_combination(sig, rng)
        alpha = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        n = rng.randint(-4, 3)
        if data and max(_out_degree(sig, ((alpha, -1),), n, st_) for st_ in data) > 6:
            continue
        done += 1
        empty += not data
        rows = fock._charge_rows(sig, alpha)
        nums, d = fock._apply_letter(rows, alpha, n, data, den)
        assert fock._element(nums, d) == _oracle_apply(sig, alpha, n, data, den)
        assert d > 0
        cw = ((alpha, n), (alpha, -1))
        if not data or max(_out_degree(sig, cw, -1, st_) for st_ in data) <= 6:
            assert fock._word_step((rows, rows), cw, -1, frozenset(data.items()))[1] > 0
    assert empty
    # a combination whose every state lies below degree zero
    alpha = sig.unit_weight(0)
    rows = fock._charge_rows(sig, alpha)
    low = {((), alpha): 2, (((1, 0),), weight_neg(alpha)): -5}
    n = max(_out_degree(sig, ((alpha, -1),), 0, st_) for st_ in low) + 1
    assert all(_out_degree(sig, ((alpha, -1),), n, st_) < 0 for st_ in low)
    assert fock._apply_letter(rows, alpha, n, low, 7)[0] == {}


@pytest.mark.parametrize("sig", ORACLE_SIGS[1:], ids=("free2", "neg", "A2"))
def test_apply_letter_cancelling_numerators(sig):
    # a(-1) v_beta and b(-1) v_beta weighted by -(alpha|b) and (alpha|a): the parts
    # where the letter is contracted, v_alpha [n-1] v_beta, cancel in the sum
    alpha, beta = sig.unit_weight(0), (1, -1)
    rows = fock._charge_rows(sig, alpha)
    pa, pb = rows[0]  # -(alpha|a), -(alpha|b)
    assert pa and pb
    data = {(((1, 0),), beta): pb, (((1, 1),), beta): -pa}
    cancelled = 0
    for n in range(-4, 1):
        got = fock._element(*fock._apply_letter(rows, alpha, n, data, 1))
        assert got == _oracle_apply(sig, alpha, n, data, 1)
        x = vacuum_product(sig, alpha, n, beta)
        assert got == heis_act(sig, 0, -1, x).scale(pb) - heis_act(sig, 1, -1, x).scale(pa)
        cancelled += not vacuum_product(sig, alpha, n - 1, beta).is_zero()
    assert cancelled


def _word_image(sig, cw):
    """The image of a charged word, built letter by letter from the right."""
    left = vacuum_element(sig)
    for a, n in reversed(cw):
        left = product_charged(sig, a, n, left)
    return left


def _word_rows(sig, cw):
    return tuple(fock._charge_rows(sig, a) for a, _ in cw)


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_word_step_against_state_product(sig):
    # the word step of k = 2 and 3 letters on an integer combination of states with
    # mixed charges and degrees equals the sum of product_state over its states
    rng = seeded(37)
    done = {2: 0, 3: 0}
    mixed = nonzero = 0
    while min(done.values()) < 12:
        cw = tuple(
            (tuple(rng.randint(-1, 1) for _ in range(sig.size)), rng.randint(-3, 1))
            for _ in range(rng.choice((2, 3)))
        )
        data, den = _random_combination(sig, rng)
        m = rng.randint(-3, 2)
        degrees = {_out_degree(sig, cw, m, st_) for st_ in data}
        if not data or max(degrees) > 5:
            continue
        done[len(cw)] += 1
        nums, d = fock._word_step(_word_rows(sig, cw), cw, m, frozenset(data.items()))
        assert d > 0
        got = fock._element(nums, d * den)
        left = _word_image(sig, cw)
        expected = fock.FOCK_ZERO
        for st_, c in data.items():
            expected = expected + product_state(sig, left, m, fock.state_element(st_)).scale(Fraction(c, den))
        assert got == expected
        assert got == product_word(sig, cw, m, fock._element(data, den))
        mixed += len({st_[1] for st_ in data}) > 1 and len(degrees) > 1
        nonzero += not got.is_zero()
    assert mixed and nonzero
    # the empty combination, and one whose every state lies below degree zero
    cw = ((sig.unit_weight(0), -1), (sig.unit_weight(0), -2))
    rows = _word_rows(sig, cw)
    assert fock._word_step(rows, cw, -1, frozenset()) == ({}, 1)
    low = {((), sig.unit_weight(0)): 2, (((1, 0),), sig.zero_weight()): -5}
    m = max(_out_degree(sig, cw, 0, st_) for st_ in low) + 1
    assert all(_out_degree(sig, cw, m, st_) < 0 for st_ in low)
    assert fock._word_step(rows, cw, m, frozenset(low.items())) == ({}, 1)


@pytest.mark.parametrize("sig", ORACLE_SIGS[1:], ids=("free2", "neg", "A2"))
def test_word_step_cancelling_numerators(sig):
    # under a word of one repeated charge alpha, a(-1) v_beta and b(-1) v_beta weighted
    # by -(alpha|b) and (alpha|a) contract to the same part with opposite signs
    alpha, beta = sig.unit_weight(0), (1, -1)
    pa, pb = fock._charge_rows(sig, alpha)[0]  # -(alpha|a), -(alpha|b)
    assert pa and pb
    single = {(((1, 0),), beta): 1}
    data = {(((1, 0),), beta): pb, (((1, 1),), beta): -pa}
    cancelled = 0
    for cw in (((alpha, -3), (alpha, -1)), ((alpha, -5), (alpha, -3), (alpha, -1))):
        rows = _word_rows(sig, cw)
        top = _out_degree(sig, cw, 0, ((), beta))  # the vacuum's output degree at m = 0
        for m in range(top - 3, top + 1):
            got = fock._element(*fock._word_step(rows, cw, m, frozenset(data.items())))
            x = product_word(sig, cw, m, vacuum_element(sig, beta))
            assert got == heis_act(sig, 0, -1, x).scale(pb) - heis_act(sig, 1, -1, x).scale(pa)
            assert got == product_state(sig, _word_image(sig, cw), m, FockElement(data))
            one = fock._element(*fock._word_step(rows, cw, m, frozenset(single.items())))
            cancelled += one != heis_act(sig, 0, -1, x)
    assert cancelled


def test_word_step_shared_by_equal_charge_rows():
    # the word step is keyed by its letters' rows: b and 2b have the same pairing and
    # cocycle rows under s1 and same, and b's parity row differs under other
    b, b2, beta = (0, 1), (0, 2), (1, 0)
    s1 = make_signature(["a", "b"], [[-2, 0], [0, -1]])
    same = make_signature(["a", "b"], [[0, 0], [0, -1]])
    other = make_signature(["a", "b"], [[-1, 0], [0, -1]])
    cw, m = ((b, -4), (b2, -3)), -1
    assert _word_rows(s1, cw) == _word_rows(same, cw) != _word_rows(other, cw)
    v = vacuum_element(s1, beta)
    x = product_word(s1, cw, m, v)
    assert not x.is_zero()
    before = fock._word_step.cache_info()
    assert product_word(same, cw, m, v) == x
    after = fock._word_step.cache_info()
    assert after.misses == before.misses and after.hits == before.hits + 1
    y = product_word(other, cw, m, v)
    assert fock._word_step.cache_info().misses == after.misses + 1
    assert y == -x
    for sig, got in ((s1, x), (same, x), (other, y)):
        assert got == product_state(sig, _word_image(sig, cw), m, v)


def _state_groups(sig, pairs, m):
    """The (alpha, created, mode) groups of the state kernel over the integer-weighted pairs."""
    groups = {}
    for (u, st_), c in pairs.items():
        fock._state_kernel(sig.locality, u, m, st_, fock._right_forms(sig.locality, st_), c, groups)
    return groups


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_state_product_of_combinations_against_recursion(sig):
    # x [m] y on combinations of 2-3 states with mixed charges and Fraction
    # coefficients equals the Fraction sum of the recursion over all pairs
    rng = seeded(38)
    done = shared = mixed = nonzero = 0
    while done < 15:
        x = _random_fock(sig, rng, nstates=rng.randint(2, 3))
        y = _random_fock(sig, rng, nstates=rng.randint(2, 3))
        m = rng.randint(-3, 2)
        levels = [sum(k for k, _ in u[0]) + _out_degree(sig, ((u[1], -1),), m, st_) for u in x.terms for st_ in y.terms]
        if max(levels) > 6:
            continue
        done += 1
        pairs = {(u, st_): c1 * c2 for u, c1 in x.terms.items() for st_, c2 in y.terms.items()}
        got = product_state(sig, x, m, y)
        assert got == _fraction_sum(lambda p: _oracle_state_product(sig, p[0], m, p[1]), pairs)
        assert _exact_types(got)
        nonzero += not got.is_zero()
        mixed += len({u[1] for u in x.terms}) > 1 and len({st_[1] for st_ in y.terms}) > 1
        # pairs that land in one group: fewer groups than the pairs make apart
        apart = sum(len(_state_groups(sig, {p: 1}, m)) for p in pairs)
        shared += len(_state_groups(sig, dict.fromkeys(pairs, 1), m)) < apart
    assert shared and mixed and nonzero >= 10
    for z in (x, y):
        assert product_state(sig, fock.FOCK_ZERO, m, z).is_zero()
        assert product_state(sig, z, m, fock.FOCK_ZERO).is_zero()
    # a(-2) v_alpha and a(-1)a(-1) v_alpha, weighted by (a|beta) and 1, send
    # -(a|beta)^2 and (a|beta)^2 times each right state of charge beta, kept
    # whole, to the group (alpha, (), m-2): the group cancels
    alpha, beta = tuple(rng.randint(-1, 1) for _ in range(sig.size)), sig.unit_weight(0)
    ab = pairing(sig, sig.unit_weight(0), beta)
    assert ab
    q = Fraction(2, 3)
    x = FockElement({(((2, 0),), alpha): ab * q, (((1, 0), (1, 0)), alpha): q})
    y = FockElement({((), beta): Fraction(-5, 4), (((2, 0),), beta): Fraction(1, 2)})
    cancelled = 0
    for m in range(-4, 2):
        pairs = {(u, st_): c1 * c2 for u, c1 in x.terms.items() for st_, c2 in y.terms.items()}
        got = product_state(sig, x, m, y)
        assert got == _fraction_sum(lambda p: _oracle_state_product(sig, p[0], m, p[1]), pairs)
        cleared = {(u, st_): c1 * c2 for u, c1 in fock._clear(x)[0].items() for st_, c2 in fock._clear(y)[0].items()}
        group = _state_groups(sig, cleared, m)[alpha, (), m - 2]
        assert set(group) == set(y.terms) and not any(group.values())
        cancelled += not vacuum_product(sig, alpha, m - 2, beta).is_zero()
    assert cancelled


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_left_charged_vacuum_shares_the_letter_step(sig):
    # v_alpha [n] x as a general product puts all of x into one group, the
    # letter-step key that product_charged(sig, alpha, n, x) makes
    rng = seeded(39)
    done = nonzero = 0
    while done < 12:
        x = _random_fock(sig, rng, nstates=rng.randint(2, 4))
        alpha = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        n = rng.randint(-4, 1)
        if max(_out_degree(sig, ((alpha, -1),), n, st_) for st_ in x.terms) > 6:
            continue
        done += 1
        expected = product_charged(sig, alpha, n, x)
        before = fock._letter_step.cache_info()
        assert product_state(sig, vacuum_element(sig, alpha), n, x) == expected
        after = fock._letter_step.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1
        nonzero += not expected.is_zero()
    assert nonzero


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_charge_zero_state_product_against_recursion(sig):
    # x [m] y for left combinations of charge 0, where only groups at mode -1
    # are formed: omega-like sums of h_i(-1) h_j(-1) v_0 and sums of 1-3
    # letters of levels 1-2 (repeated letters among them), with Fraction
    # coefficients, at modes -4..3, on right combinations of mixed charges,
    # equal the Fraction sum of the recursion over all pairs
    rng = seeded(43)
    zero = sig.zero_weight()
    done = nonzero = repeated = mixed = 0
    while done < 24:
        if done % 3 == 0:  # omega-like, at every mode in turn
            squares = [((1, j), (1, i)) for i in range(sig.size) for j in range(i + 1)]
            data = {(heis, zero): _random_fraction(rng) for heis in squares}
        else:
            data, size = {}, rng.randint(2, 3)
            while len(data) < size:
                heis = tuple(sorted((rng.randint(1, 2), rng.randrange(sig.size)) for _ in range(rng.randint(1, 3))))
                data[heis, zero] = _random_fraction(rng)
        x = FockElement(data)
        y = _random_fock(sig, rng, nstates=rng.randint(2, 3))
        m = done % 8 - 4
        levels = [sum(k for k, _ in u[0]) + _out_degree(sig, ((zero, -1),), m, st_) for u in x.terms for st_ in y.terms]
        if max(levels) > 6:
            continue
        done += 1
        pairs = {(u, st_): c1 * c2 for u, c1 in x.terms.items() for st_, c2 in y.terms.items()}
        got = product_state(sig, x, m, y)
        assert got == _fraction_sum(lambda p: _oracle_state_product(sig, p[0], m, p[1]), pairs)
        assert _exact_types(got)
        nonzero += not got.is_zero()
        repeated += any(len(set(u[0])) < len(u[0]) for u in x.terms)
        mixed += len({st_[1] for st_ in y.terms}) > 1
        assert all(mode == -1 for _, _, mode in _state_groups(sig, dict.fromkeys(pairs, 1), m))
    assert nonzero >= 12 and repeated and mixed


def _omega(sig, gram):
    """omega = 1/2 sum_ij (G^-1)_ij h_i(-1) h_j(-1) v_0, the inverse form from sympy."""
    inv = sympy.Matrix(gram).inv()
    vac = vacuum_element(sig)
    terms = {}
    for i in range(sig.size):
        for j in range(sig.size):
            st_ = heis_act(sig, i, -1, heis_act(sig, j, -1, vac))
            for key, c in st_.terms.items():
                terms[key] = terms.get(key, 0) + c * Fraction(int(inv[i, j].p), 2 * int(inv[i, j].q))
    return FockElement(terms)


def test_omega_runs_no_charge_zero_letter_step_off_mode_minus_one(monkeypatch):
    # on D4's omega at modes 0-3 every letter step at charge 0 runs at mode -1
    # (v_0 [n] = 0 for n != -1), and the Virasoro relations hold with central
    # charge 4: omega [0] omega = D omega, [1] = 2 omega, [2] = 0, [3] = 2 vac
    gram = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    sig = make_signature(["a", "b", "c", "d"], [[-g for g in row] for row in gram])
    omega = _omega(sig, gram)
    assert len(omega.nums) == 10
    steps = []
    apply_letter = fock._apply_letter

    def recording(rows, alpha, n, data, den):
        steps.append((alpha, n))
        return apply_letter(rows, alpha, n, data, den)

    monkeypatch.setattr(fock, "_apply_letter", recording)
    got = [product_state(sig, omega, n, omega) for n in range(4)]
    zero = sig.zero_weight()
    assert steps and all(n == -1 for alpha, n in steps if alpha == zero)
    assert got == [translate(sig, omega), omega.scale(2), fock.FOCK_ZERO, vacuum_element(sig).scale(2)]


def _scan_order(sig, alpha, x, lowest):
    """m + 1 for the largest m >= lowest with v_alpha [m] x != 0, scanning down from above the bound."""
    for m in range(locality_upper(sig, alpha, x) + 1, lowest - 1, -1):
        if not product_charged(sig, alpha, m, x).is_zero():
            return m + 1
    return None


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_locality_order_matches_scan(sig):
    # random elements with Fraction coefficients and mixed charges, the zero
    # element, elements whose top contracted level cancels, and a mixed-charge
    # element whose order comes from the charge of lower shift; for each,
    # lowest at the order's mode, just above it, at and above the bound, and
    # below; locality_order forms no product, so it adds no letter-step miss
    rng = seeded(41)
    alpha = sig.unit_weight(0)
    f = fock._charge_rows(sig, alpha)[0][0]  # -(a|a)
    assert f
    beta = tuple(rng.randint(-1, 1) for _ in range(sig.size))
    a1, a2, a3 = (1, 0), (2, 0), (3, 0)
    h1 = (1, sig.size - 1)
    # the top mode contracts every letter: f * a(-2) v_beta and a(-1)^2 v_beta both give f^2 v_{alpha+beta}
    cancel = FockElement({((a2,), beta): f, ((a1, a1), beta): -1})
    # the same with a letter h(-1) of the last generator beside them, contracted or kept alike
    cancel_kept = FockElement({(tuple(sorted((a2, h1))), beta): f, (tuple(sorted((a1, a1, h1))), beta): -1})
    # the top two contracted levels cancel among three states of charge beta (order shift - 2),
    # and a state of a charge gamma whose shift is one lower sets the order
    step = 1 if f > 0 else -1
    gamma = weight_add(beta, (-step,) + (0,) * (sig.size - 1))  # shift(beta) = shift(gamma) + |f|
    twice = {((a3,), beta): 2 * f * f, ((a1, a2), beta): -3 * f, ((a1, a1, a1), beta): 1}
    mixed = FockElement({**twice, (((abs(f) + 2, 0),), gamma): 1})
    # v_0 [-1] is the identity and contracts nothing, so groups that differ only in
    # their kept letters, or only in their charge, must not be summed together
    zero = sig.zero_weight()
    apart = [FockElement({((a1,), beta): 1, ((a2,), beta): -1}), FockElement({((), beta): 1, ((), gamma): -1})]
    cases = [(alpha, cancel), (alpha, cancel_kept), (alpha, mixed), (alpha, fock.FOCK_ZERO)]
    cases += [(zero, x) for x in apart]
    while len(cases) < 20:
        x = _random_fock(sig, rng, nstates=rng.randint(1, 4))
        a = tuple(rng.randint(-1, 1) for _ in range(sig.size))
        if max(_out_degree(sig, ((a, -1),), locality_upper(sig, a, x) - 8, st_) for st_ in x.terms) <= 8:
            cases.append((a, x))
    below = 0
    for a, x in cases:
        upper = locality_upper(sig, a, x)
        order = _scan_order(sig, a, x, upper - 8)
        below += order is not None and order < upper
        lows = {upper - 8, upper - 1, upper, upper + 2, rng.randint(upper - 6, upper)}
        if order is not None:
            lows |= {order - 1, order}
        for lowest in sorted(lows):
            expected = _scan_order(sig, a, x, lowest)
            before = fock._letter_step.cache_info().misses
            assert fock.locality_order(sig, a, x, lowest) == expected, (a, x, lowest)
            assert fock._letter_step.cache_info().misses == before
    assert fock.locality_order(sig, alpha, fock.FOCK_ZERO, -5) is None
    assert [fock.locality_order(sig, zero, x, -5) for x in apart] == [0, 0]
    for x in (cancel, cancel_kept):
        top = locality_upper(sig, alpha, x) - 1
        assert product_charged(sig, alpha, top, x).is_zero()
        for st_, c in x.terms.items():
            assert not product_charged(sig, alpha, top, FockElement({st_: c})).is_zero()
        assert fock.locality_order(sig, alpha, x, top - 3) == top
    upper = locality_upper(sig, alpha, mixed)
    assert fock.locality_order(sig, alpha, FockElement(twice), upper - 5) == upper - 2
    assert fock.locality_order(sig, alpha, mixed, upper - 5) == upper - 1
    assert locality_upper(sig, alpha, FockElement({st_: 1 for st_ in mixed.terms if st_[1] == gamma})) == upper - 1
    assert below


def _orders_oracle(sig, alpha, n, beta, queries):
    """The per-query route: the product as a FockElement, then a full product at every mode of each scan."""
    y = vacuum_product(sig, alpha, n, beta)
    return None if y.is_zero() else [_scan_order(sig, gamma, y, lowest) for gamma, lowest in queries]


@pytest.mark.parametrize("size", (2, 3))
def test_vacuum_product_orders_against_locality_order(size):
    # random signatures with locality entries in -3..4; for each (a, b, k) the product
    # v_b [N(a,b)-k-1] v_a (k = -1 gives 0) scanned for every c with lowest below, at
    # and above the order the closed form predicts, against a scan of full products;
    # vacuum_product_orders makes one letter-step miss per product and none per query
    rng = seeded(57 + size)
    for _ in range(4 if size == 2 else 2):
        loc = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1):
                loc[i][j] = loc[j][i] = rng.randint(-3, 4)
        sig = make_signature(["a", "b", "c"][:size], loc)
        units = [sig.unit_weight(g) for g in range(size)]
        cases = []
        for a, b, k in itertools.product(range(size), range(size), range(-1, 4)):
            queries = [
                (units[c], dong_locality(sig, a, b, c, k) + shift) for c in range(size) for shift in (-3, -1, 0, 1)
            ]
            cases.append((units[b], sig.n(a, b) - k - 1, units[a], queries))
        fock._letter_step.cache_clear()
        got = [fock.vacuum_product_orders(sig, *case) for case in cases]
        assert fock._letter_step.cache_info().misses == len({case[:3] for case in cases})
        assert [_orders_oracle(sig, *case) for case in cases] == got, sig
        assert got.count(None) == size * size
        orders = [order for out in got if out is not None for order in out]
        assert None in orders and len(set(orders)) > 2


def test_word_step_splits_a_run_across_charges():
    # on free2 every pairing is nonzero, so a run of equal letters a(-1)^r is shared
    # out among all the charges of the word, each taking some of what the earlier kept
    a, b = (1, 0), (0, 1)
    x = FockElement({(((1, 0),) * 3, (0, 0)): 1, (((1, 0), (1, 0), (2, 1)), a): 2})
    assert format_fock(SIG_FREE2, x) == "a(-1)a(-1)a(-1) v[0] + 2 * b(-2)a(-1)a(-1) v[a]"
    products = 0
    for cw in (((a, -1), (b, -2)), ((a, -2), ((1, 1), -1)), ((a, -1), (b, -1), (a, -2))):
        top = max(_out_degree(SIG_FREE2, cw, 0, st_) for st_ in x.terms)  # output degree at m = 0
        for m in range(top - 4, top + 1):  # output degrees 4 down to 0
            got = product_word(SIG_FREE2, cw, m, x)
            assert not got.is_zero()
            assert got == product_state(SIG_FREE2, _word_image(SIG_FREE2, cw), m, x)
            products += 1
    assert products == 15


def _poly_product(polys):
    """The product of polynomials given as ((heis, int), ...), by sorting every product monomial."""
    out = {(): 1}
    for poly in polys:
        nxt = {}
        for m1, c1 in out.items():
            for m2, c2 in poly:
                key = tuple(sorted(m1 + m2))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        out = nxt
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("sig", ORACLE_SIGS, ids=("ferm", "free2", "neg", "A2"))
def test_schur_product_against_merge(sig):
    # _schur_product(kept, factors) is the kept-free product with kept sorted into
    # each monomial and equal keys summed; the kept-free product is the product of
    # the e! S_e(alpha), and its entry for one factor is _schur itself
    rng = seeded(40)
    shapes = set()
    for _ in range(80):
        size = rng.choice((0, 1, 1, 2, 3))  # no factor, one, several
        factors = []
        for _ in range(size):
            alpha = rng.choice((sig.unit_weight(0), tuple(rng.randint(-2, 2) for _ in range(sig.size))))
            factors.append((alpha, rng.randint(0, 4)))  # degree 0 included
        factors = tuple(sorted(factors))
        colours = sorted({g for alpha, _ in factors for g, a in enumerate(alpha) if a}) or [0]
        letters = [(rng.randint(1, 3), rng.choice((rng.choice(colours), rng.randrange(sig.size)))) for _ in range(3)]
        kept = tuple(sorted(rng.choice(letters) for _ in range(rng.randint(0, 4))))  # repeated letters
        got = fock._schur_product(kept, factors)
        assert type(got) is tuple
        for heis, c in got:
            assert type(heis) is tuple and heis == tuple(sorted(heis))
            assert type(c) is int and c
        plain = fock._schur_product((), factors)
        reference = {}
        for mono, c in plain:
            key = tuple(sorted(kept + mono))
            reference[key] = reference.get(key, 0) + c
        assert len(dict(got)) == len(got) and dict(got) == {key: c for key, c in reference.items() if c}
        assert dict(plain) == _poly_product(fock._schur(alpha, e) for alpha, e in factors)
        shapes.add((min(size, 2), bool(kept), any(e == 0 for _, e in factors), len(set(kept)) < len(kept)))
    assert {(0, True), (1, True), (2, True), (2, False)} <= {shape[:2] for shape in shapes}
    assert any(shape[2] for shape in shapes) and any(shape[3] for shape in shapes)
    alpha = sig.unit_weight(0)
    for e in range(6):
        assert fock._schur_product((), ((alpha, e),)) == fock._schur(alpha, e)
    assert fock._schur_product((), ()) == (((), 1),)


@pytest.mark.parametrize("sig", (SIG_FREE2, FREE4), ids=("free2", "free4"))
def test_word_step_on_equal_charges(sig, monkeypatch):
    # words of one repeated charge, where Schur degrees that differ by a permutation
    # give one factor multiset: at output degrees 0-8 the word step equals the general
    # product of the word's image and product_word, and some compositions merge.
    # N(a,a) > 0, so that a(1)a(-1) vac and a(3)a(-3) vac are nonzero
    seen = []
    factors = fock._factors

    def recording(alphas, es):
        got = factors(alphas, es)
        seen.append((got, es))
        return got

    monkeypatch.setattr(fock, "_factors", recording)
    a = sig.unit_weight(0)
    x = FockElement({((), sig.unit_weight(1)): 1, (((1, 0), (2, 1)), a): Fraction(-2, 3)})
    merged = products = 0
    for modes in ((1, -1), (3, -3), (1, -2, -1)):
        cw = tuple((a, n) for n in modes)
        rows = _word_rows(sig, cw)
        image = _word_image(sig, cw)
        top = max(_out_degree(sig, cw, 0, st_) for st_ in x.terms)  # the largest output degree at m = 0
        for m in range(top - 8, top + 1):
            if max(_out_degree(sig, cw, m, st_) for st_ in x.terms) < 0:
                continue
            seen.clear()
            nums, d = fock._word_step.__wrapped__(rows, cw, m, frozenset(x.nums.items()))  # run, not read
            by_key = {}
            for key, es in seen:
                by_key.setdefault(key, set()).add(es)
            # compositions whose nonzero degrees come in different orders share one key
            merged += any(len({tuple(e for e in es if e) for es in group}) > 1 for group in by_key.values())
            got = fock._element(nums, d * x.den)
            assert got == product_word(sig, cw, m, x)
            assert got == product_state(sig, image, m, x)
            products += not got.is_zero()
    assert products >= 20 and merged >= 10
