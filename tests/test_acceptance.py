"""Acceptance suite.

Each test runs one acceptance criterion at its stated range; every
comparison is exact.  A summary line per criterion is printed (visible with
pytest -s).
"""

import itertools
import random
import time

from vertexalg import make_signature, min_deg2, pairing
from vertexalg.basis import basis_words, dim_component
from vertexalg.derivations import apply_derivation, heisenberg_derivation
from vertexalg.rewrite import (
    expand_redex,
    find_redex,
    is_basic,
    is_null_word,
    normal_form,
    termination_measure,
)
from vertexalg.suites import (
    verify_boson_fermion,
    verify_dong,
    verify_locfun,
    verify_presentation,
)
from vertexalg.words import FreeElement, product, word_deg2, word_weight
from vertexalg import fock

from conftest import ALL_SIGS, SIG_FERM, SIG_FREE2, SIG_NEG, components, naive_colored_count, random_word_in

ACCEPT_SIGS = (SIG_FERM, SIG_FREE2, SIG_NEG)


def _report(num, name, t0):
    print(f"ACCEPTANCE {num} ({name}): PASS ({time.time() - t0:.1f} s)")


def _sample_words(sig, lam, d2, enumerated, rng, count=200):
    words = []
    n_basic = min(len(enumerated), 60)
    for _ in range(n_basic):
        words.append(rng.choice(enumerated))
    while len(words) < count:
        w = None
        for _ in range(40):
            cand = random_word_in(sig, lam, d2, rng)
            if not is_null_word(sig, cand):
                w = cand
                break
        words.append(w if w is not None else rng.choice(enumerated))
    return words


def test_criterion_1_basis_theorem():
    t0 = time.time()
    rng = random.Random(20240809)
    for sig in ACCEPT_SIGS:
        for lam, d2 in components(sig, max_size=4, extra=12):
            enumerated = basis_words(sig, lam, d2)
            enumerated_set = set(enumerated)
            seen = set()
            for w in _sample_words(sig, lam, d2, enumerated, rng):
                support = normal_form(sig, FreeElement({w: 1})).result.support()
                assert support <= enumerated_set, (sig.generators, lam, d2, w)
                seen |= support
            assert seen == enumerated_set, (sig.generators, lam, d2)
    _report(1, "basis theorem", t0)


def test_criterion_2_linear_independence():
    t0 = time.time()
    for sig in ACCEPT_SIGS:
        for lam, d2 in components(sig, max_size=4, extra=12):
            words = basis_words(sig, lam, d2)
            if not words:
                continue
            images = [fock.embed(sig, FreeElement({w: 1})) for w in words]
            assert fock.rank(images) == dim_component(sig, lam, d2), (sig.generators, lam, d2)
    _report(2, "linear independence", t0)


def test_criterion_3_dimension_formula():
    t0 = time.time()
    for sig in ACCEPT_SIGS:
        for lam, d2 in components(sig, max_size=4, extra=12):
            offset = d2 - min_deg2(sig, lam)
            expected = naive_colored_count(offset // 2, tuple(lam)) if offset % 2 == 0 else 0
            assert dim_component(sig, lam, d2) == expected, (sig.generators, lam, d2)
    _report(3, "dimension formula", t0)


def test_criterion_4_quantitative_dong():
    t0 = time.time()
    values = range(-2, 4)
    for naa in values:
        for nbb in values:
            for nab in values:
                sig = make_signature(["a", "b"], [[naa, nab], [nab, nbb]])
                report = verify_dong(sig, 4)
                assert report.all_pass, (sig.locality, report.render_text())
    _report(4, "quantitative Dong", t0)


def test_criterion_5_locality_function():
    t0 = time.time()
    ones = make_signature(["a", "b"], [[1, 1], [1, 1]])
    for sig in (SIG_FREE2, ones):
        report = verify_locfun(sig, (2, 3, 4))
        assert report.all_pass, report.render_text()
        maxn = max(max(row) for row in sig.locality)
        for check, l in zip(report.checks, (2, 3, 4)):
            assert int(check.computed) == l * (l - 1) // 2 * maxn - l + 1
    _report(5, "locality function", t0)


def test_criterion_6_boson_fermion():
    t0 = time.time()
    report = verify_boson_fermion(4, 6)
    assert report.all_pass, report.render_text()
    ids = {c.id: c for c in report.checks}
    assert ids["p0 = -atil"].status == "pass"
    assert ids["p1 = 1/2 atil[-1]atil - 1/2 D atil"].status == "pass"
    for k in range(1, 5):
        for d in range(0, 7):
            assert ids[f"dim F({k}) d={d}"].status == "pass"
    _report(6, "boson-fermion", t0)


def test_criterion_7_presentation():
    t0 = time.time()
    rank1 = make_signature(["a"], [[-1]])  # gram [1]
    rank2 = make_signature(["a", "b"], [[-2, 1], [1, -2]])  # gram [[2,-1],[-1,2]]
    for sig in (rank1, rank2):
        report = verify_presentation(sig)
        assert report.all_pass, report.render_text()
    _report(7, "lattice presentation", t0)


def test_criterion_8_rewriting_meta():
    t0 = time.time()
    rng = random.Random(77)

    # termination measure on 10^4 random rewriting steps
    done = 0
    while done < 10_000:
        sig = ALL_SIGS[rng.randrange(3)]
        k = rng.randint(2, 4)
        w = tuple(
            (rng.randrange(sig.size), rng.randint(-5, 2) if i < k - 1 else rng.randint(-5, -1))
            for i in range(k)
        )
        j = find_redex(sig, w)
        if j is None or is_null_word(sig, w):
            continue
        done += 1
        dw, lw = termination_measure(sig, w)
        for u in expand_redex(sig, w, j).terms:
            du, lu = termination_measure(sig, u)
            assert all(x <= y for x, y in zip(du, dw)), (sig.generators, w, u)
            if du == dw:
                assert lu < lw, (sig.generators, w, u)

    # terminality <=> basic on exhaustive mode windows [-6, 3], length <= 3
    for sig in ALL_SIGS:
        for k in range(0, 4):
            for letters in itertools.product(range(sig.size), repeat=k):
                for modes in itertools.product(range(-6, 4), repeat=k):
                    w = tuple(zip(letters, modes))
                    terminal = not is_null_word(sig, w) and find_redex(sig, w) is None
                    assert terminal == is_basic(sig, w), (sig.generators, w)

    # leftmost/rightmost confluence agreement on 10^3 random elements
    for _ in range(1000):
        sig = ALL_SIGS[rng.randrange(3)]
        data = {}
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            w = tuple((rng.randrange(sig.size), rng.randint(-4, -1)) for _ in range(k))
            data[w] = rng.randint(-3, 3) or 1
        x = FreeElement(data)
        assert normal_form(sig, x, "leftmost").result == normal_form(sig, x, "rightmost").result

    # phi o normal_form = phi on 10^3 random elements
    for _ in range(1000):
        sig = ALL_SIGS[rng.randrange(3)]
        data = {}
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, 3)
            w = tuple((rng.randrange(sig.size), rng.randint(-3, -1)) for _ in range(k))
            data[w] = rng.randint(-3, 3) or 1
        x = FreeElement(data)
        assert fock.embed(sig, normal_form(sig, x).result) == fock.embed(sig, x)

    _report(8, "rewriting meta-properties", t0)


def _random_component_element(sig, rng, max_weight=2, max_offset=6):
    while True:
        lam = tuple(rng.randint(0, max_weight) for _ in range(sig.size))
        if 0 < sum(lam) <= max_weight:
            break
    d2 = min_deg2(sig, lam) + 2 * rng.randint(0, max_offset // 2)
    w1 = random_word_in(sig, lam, d2, rng)
    if rng.random() < 0.2:
        w2 = random_word_in(sig, lam, d2, rng)
        return FreeElement({w1: 1, w2: rng.randint(1, 3)})
    return FreeElement({w1: 1})


def test_criterion_9_homomorphism_and_derivations():
    t0 = time.time()
    rng = random.Random(99)

    for _ in range(500):
        sig = ALL_SIGS[rng.randrange(3)]
        u = _random_component_element(sig, rng)
        v = _random_component_element(sig, rng)
        m = rng.randint(-3, 3)
        lhs = fock.embed(sig, product(sig, u, m, v))
        rhs = fock.FockElement({})
        for wu, cu in u.terms.items():
            part = fock.product_word(sig, fock.charged_word(sig, wu), m, fock.embed(sig, v))
            rhs = rhs + part.scale(cu)
        assert lhs == rhs

    for _ in range(500):
        sig = ALL_SIGS[rng.randrange(3)]
        h = tuple(rng.randint(-2, 2) for _ in range(sig.size))
        f = tuple(pairing(sig, h, sig.unit_weight(g)) for g in range(sig.size))
        spec = heisenberg_derivation(sig, f)
        x = _random_component_element(sig, rng)
        n = rng.randint(0, 3)
        lhs = fock.embed(sig, apply_derivation(sig, spec, n, x))
        rhs = fock.charge_act(sig, h, n, fock.embed(sig, x))
        assert lhs == rhs

    _report(9, "homomorphism and derivation laws", t0)
