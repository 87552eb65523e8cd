import hashlib
import json
from fractions import Fraction

import pytest
import sympy

from vertexalg import SignatureError, fock, make_signature, suites
from vertexalg.suites import (
    SuiteReport,
    dong_locality,
    verify_boson_fermion,
    verify_dong,
    verify_locfun,
    verify_presentation,
)

from conftest import SIG_FERM, SIG_FREE2, seeded


def test_dong_locality_closed_form():
    sig = make_signature(["a", "b", "c"], [[0, 2, 1], [2, 0, 2], [1, 2, 0]])
    # N(b,c) = 2 > 0: first branch
    assert dong_locality(sig, 0, 1, 2, 0) == 1 + 2 + 0
    sig2 = make_signature(["a", "b", "c"], [[0, 2, 1], [2, 0, 0], [1, 0, 0]])
    # N(b,c) = 0: second branch for every k >= 1, equal values at k = 0
    assert dong_locality(sig2, 0, 1, 2, 0) == 1
    assert dong_locality(sig2, 0, 1, 2, 3) == 1
    sig3 = make_signature(["a", "b", "c"], [[0, 2, 1], [2, 0, -2], [1, -2, 0]])
    # 0 < -N(b,c) <= k: second branch
    assert dong_locality(sig3, 0, 1, 2, 3) == 1
    # 0 <= k <= -N(b,c): first branch
    assert dong_locality(sig3, 0, 1, 2, 1) == 1 - 2 + 1


def test_verify_dong_samples():
    assert verify_dong(SIG_FERM, 2).all_pass
    assert verify_dong(make_signature(["a", "b"], [[-2, 3], [3, 1]]), 3).all_pass


def test_verify_dong_one_product_scan_per_pair_and_k(monkeypatch):
    # v_b [N(a,b)-k-1] v_a does not depend on the third generator c: one scan of
    # each product serves every c, 2 * 2 * 4 scans, not 2 * 2 * 2 * 4
    calls = []
    real = fock.vacuum_product_orders

    def counted(sig, alpha, n, beta, queries):
        calls.append((alpha, n, beta))
        return real(sig, alpha, n, beta, queries)

    monkeypatch.setattr(fock, "vacuum_product_orders", counted)
    fock._letter_step.cache_clear()
    fock._top_order.cache_clear()
    rep = verify_dong(SIG_FREE2, 3)
    assert rep.all_pass and len(rep.checks) == 32
    assert len(calls) == 16 and len(set(calls)) == 16
    # the letter-step keys of one cold run are the 16 products only; their 32
    # (product, c) orders are 15 distinct contraction passes
    assert fock._letter_step.cache_info().misses == 16
    assert fock._top_order.cache_info()[:2] == (17, 15)  # hits, misses


DONG_SIGS = (
    SIG_FERM,
    SIG_FREE2,
    make_signature(["a", "b"], [[-2, 1], [1, 0]]),
    make_signature(["a", "b", "c"], [[-2, 1, 0], [1, 2, -1], [0, -1, 1]]),
)


@pytest.mark.parametrize("shift", (1, -1))
def test_verify_dong_failing_records(monkeypatch, shift):
    # a closed form one too high finds no nonzero mode at or above it (`< e`);
    # one too low finds the true order, e + 1
    real = suites.dong_locality
    monkeypatch.setattr(suites, "dong_locality", lambda *args: real(*args) + shift)
    for sig, size in zip(DONG_SIGS, (4, 32, 32, 108)):
        rep = verify_dong(sig, 3)
        assert len(rep.checks) == size
        for c in rep.checks:
            want = f"< {c.expected}" if shift == 1 else str(int(c.expected) + 1)
            assert (c.status, c.computed) == ("fail", want), c


def test_verify_dong_never_skips():
    # v_b [N(a,b)-k-1] v_a is +-S_k(b) v_(a+b) with k >= 0, never 0: no record is a skip
    for sig in DONG_SIGS:
        rep = verify_dong(sig, 3)
        assert rep.all_pass
        assert {c.status for c in rep.checks} == {"pass"}


def test_verify_locfun_formula():
    rep = verify_locfun(SIG_FREE2, (2, 3))
    assert rep.all_pass
    values = {c.id: int(c.computed) for c in rep.checks}
    assert values == {"l=2": 1, "l=3": 4}


def test_verify_locfun_zero_bound():
    sig = make_signature(["a", "b"], [[0, 0], [0, 0]])
    rep = verify_locfun(sig, (2, 3))
    assert rep.all_pass
    # S(l) = -l + 1 < 0: every conformal monomial vanishes
    assert [c.expected for c in rep.checks] == ["-1", "-2"]
    assert all("none" in c.computed for c in rep.checks)


def test_verify_locfun_rejects_negative_entries():
    with pytest.raises(SignatureError):
        verify_locfun(SIG_FERM, (2,))


def test_verify_locfun_records():
    # l = 1 is the single generator, whose mode sum is the empty sum 0
    rep = verify_locfun(SIG_FREE2, (1, 2, 3))
    assert [(c.id, c.expected, c.computed, c.status) for c in rep.checks] == [
        ("l=1", "0", "0", "pass"),
        ("l=2", "1", "1", "pass"),
        ("l=3", "4", "4", "pass"),
    ]
    rep = verify_locfun(make_signature(["a", "b"], [[0, 1], [1, 2]]), (2, 3))
    assert [(c.id, c.expected, c.computed, c.status) for c in rep.checks] == [
        ("l=2", "1", "1", "pass"),
        ("l=3", "4", "4", "pass"),
    ]


# sha256 of the full text and machine reports, as commit 0626d58 printed them
# (the degenerate and hyperbolic forms as commit 089017b printed them)
PRESENTATION_DIGESTS = {
    ((-1,),): (
        "a9fc8f7984c601077a869b58711eec412b9d668dae453bf9f3e0fe3ad86722d2",
        "20b65ccbd9fcc25ded0c48aa5843598c47599e54089b0f2e7517be216f9eb152",
    ),
    ((-2, 1), (1, -2)): (
        "4f2bda212ce4e26bd62e77b5a0801d07c53aaa421d8eda4e41b3c35021bb6696",
        "2279dc27da60380c23a3ccd0f22fb916211a4bf6f623bf03d64a7c2c026a2b79",
    ),
    # gram [[2, 2], [2, 2]]: the singular path of the inverse form, a Virasoro skip
    ((-2, -2), (-2, -2)): (
        "9bd01e62ea8e9a1f6550a2816c14af29ac3f5a4bfadb3d6d935e464aa9a9506b",
        "479f7599e29bb89da909a13861c011b997fe20be832f333559a0f9e4e3f1ae6b",
    ),
    # gram [[0, 1], [1, 0]]: a zero diagonal, so the inverse needs a pivot off the diagonal
    ((0, -1), (-1, 0)): (
        "c62319b9cc13aaae987920cab3a2c3bff86824361aae6eda1480a0683cad9de0",
        "6b30e64dc63ee7229fda7a0f1d88dd726c30e49543448246d497f829ed9b3556",
    ),
}


@pytest.mark.parametrize("locality", list(PRESENTATION_DIGESTS), ids=("rank1", "A2", "degenerate", "hyperbolic"))
def test_presentation_reports_unchanged(locality):
    rep = verify_presentation(make_signature(["a", "b"][: len(locality)], locality))
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in (rep.render_text(), rep.render_machine()))
    assert digests == PRESENTATION_DIGESTS[locality]


def test_invert_against_sympy():
    # random integer matrices of size 1-4, some singular, some with a zero diagonal
    rng = seeded(21)
    seen = {"singular": 0, "inverted": 0, "zero diagonal": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            for i in range(n):
                mat[i][i] = 0
        if n > 1 and rng.random() < 0.3:  # one row a multiple of another
            i, j = rng.sample(range(n), 2)
            mat[i] = [rng.randint(-2, 2) * x for x in mat[j]]
        expect = sympy.Matrix(mat)
        got = suites._invert(mat)
        if expect.det() == 0:
            assert got is None, mat
            seen["singular"] += 1
            continue
        inv = expect.inv()
        assert got == [[Fraction(int(inv[i, j].p), int(inv[i, j].q)) for j in range(n)] for i in range(n)], mat
        assert all(type(x) is Fraction for row in got for x in row)
        seen["inverted"] += 1
        seen["zero diagonal"] += not any(mat[i][i] for i in range(n))
    assert min(seen.values()) >= 30, seen


def test_presentation_rank_one():
    rep = verify_presentation(make_signature(["a"], [[-1]]))
    assert rep.all_pass
    scalar = [c for c in rep.checks if "central scalar" in c.id]
    assert scalar and scalar[0].computed == "1/2 * v[0]"


def test_presentation_rank_two():
    rep = verify_presentation(make_signature(["a", "b"], [[-2, 1], [1, -2]]))
    assert rep.all_pass
    scalar = [c for c in rep.checks if "central scalar" in c.id]
    assert scalar and scalar[0].computed == "v[0]"


def test_presentation_inverse_with_zero_entries():
    # Z^2: the inverse form has zero off-diagonal entries, which omega leaves out
    rep = verify_presentation(make_signature(["a", "b"], [[-1, 0], [0, -1]]))
    assert rep.all_pass
    checks = {c.id: c for c in rep.checks}
    assert checks["omega [3] omega (central scalar, reported)"].computed == "v[0]"
    omega2 = checks["omega [1] omega = 2 omega"]
    assert omega2.expected == omega2.computed == "a(-1)a(-1) v[0] + b(-1)b(-1) v[0]"


def test_presentation_degenerate_form_skips_virasoro():
    rep = verify_presentation(make_signature(["a"], [[0]]))
    assert any(c.status == "skip" for c in rep.checks)
    assert rep.all_pass


def test_boson_fermion_small():
    rep = verify_boson_fermion(2, 3)
    assert rep.all_pass
    ids = {c.id for c in rep.checks}
    assert "p0 = -atil" in ids
    assert any(c.status == "report" for c in rep.checks)


def test_boson_fermion_stability_rows_fail_outside_the_span(monkeypatch):
    # a charge-7 vacuum added to every coefficient image leaves the embedded component
    real = fock.product_word

    def off_span(sig, word, n, x):
        return real(sig, word, n, x) + fock.vacuum_element(sig, (7,))

    monkeypatch.setattr(fock, "product_word", off_span)
    rows = [c for c in verify_boson_fermion(2, 3).checks if "preserves embedded algebra" in c.id]
    assert len(rows) == 12
    assert all((c.status, c.computed) == ("fail", "no") for c in rows)


def test_report_rendering_deterministic():
    rep1 = verify_dong(SIG_FERM, 1)
    rep2 = verify_dong(SIG_FERM, 1)
    assert rep1.render_text() == rep2.render_text()
    assert rep1.render_machine() == rep2.render_machine()


def test_render_machine_is_json_dumps_byte_for_byte():
    rep = SuiteReport("d\u00f6ng \"q\"")
    odd = 'quote " backslash \\ newline \n tab \t non-ASCII \u00e9\u2013\U0001d4b1 control \x01'
    rep.add(odd, odd, 1, True)
    rep.add("id " + odd, 2, odd + "!", False)
    rep.add("\\", "nonzero product", "0", status="skip")
    rep.add("\u00e9", odd, "\n", status="report")
    rep.checks = verify_dong(SIG_FERM, 1).checks + rep.checks
    want = "\n".join(
        json.dumps(
            {
                "suite": rep.suite,
                "id": c.id,
                "expected": c.expected,
                "computed": c.computed,
                "pass": c.passed,
                "status": c.status,
            },
            sort_keys=True,
        )
        for c in rep.checks
    )
    assert rep.render_machine() == want
    assert {c.status for c in rep.checks} == {"pass", "fail", "skip", "report"}
    assert SuiteReport("empty").render_machine() == ""


def test_report_failure_detection():
    rep = SuiteReport("demo")
    rep.add("ok", 1, 1, True)
    assert rep.all_pass
    rep.add("broken", 1, 2, False)
    assert not rep.all_pass
    assert rep.counts()["fail"] == 1
